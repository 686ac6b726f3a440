"""The same road network, written as another document, gives the same
features bit for bit: every rewrite of a canonical extract must give
``==`` raw embedding vectors for every sensor."""
import numpy as np
import pytest

from helpers import commented_doc, shuffled_ways_doc, split_at_junctions_doc
from roadtwin import osm_ingest
from roadtwin.config import PipelineConfig
from roadtwin.osm_ingest import parse_osm_extract
from roadtwin.pipeline import SensorSpec, embed_sensors
from test_osm_parity import GEN

REWRITES = {
    "ways_shuffled": lambda data: shuffled_ways_doc(parse_osm_extract(data), seed=3),
    "ways_split_at_junctions": lambda data: split_at_junctions_doc(parse_osm_extract(data)),
    "comment_after_the_declaration": commented_doc,
}


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    """A 30 x 30 bench city, larger than a 2 km radius, and 16 sensors on it."""
    rng = np.random.default_rng(19)
    path = tmp_path_factory.mktemp("invariance") / "city.osm"
    layout = GEN.write_city(str(path), 30, rng)
    placed = GEN.place_sensors(layout, GEN.CitySpec(30, 16, 0), rng)
    return path.read_bytes(), [SensorSpec(sid, lat, lon) for sid, lat, lon, _ in placed]


def raw_vectors(data, sensors):
    return [p.raw_vector()
            for p in embed_sensors(parse_osm_extract(data), sensors, PipelineConfig())]


@pytest.mark.parametrize("rewrite", REWRITES.values(), ids=REWRITES.keys())
def test_rewritten_extract_gives_the_same_raw_vectors(city, rewrite):
    data, sensors = city
    rewritten = rewrite(data)
    assert rewritten != data
    # the comment sends the document through the element handlers; the
    # other rewrites stay canonical
    assert (osm_ingest._parse_canonical(rewritten) is None) == (rewrite is commented_doc)
    assert raw_vectors(rewritten, sensors) == raw_vectors(data, sensors)
