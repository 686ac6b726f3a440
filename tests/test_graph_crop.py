"""build_graph crops radius graphs from the extract's index: it must give
exactly what a full rescan of the extract gives (``oracles``)."""
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helpers import LAT0, LON0, east_of, grid_extract, node_coords, north_of, tangled_extract
from oracles import build_graph_full_scan
from roadtwin.errors import ArgumentError, DomainError
from roadtwin.geo import haversine_m, haversine_m_array
from roadtwin.osm_ingest import (
    RadiusView, RawRoadData, build_graph, graph_to_csv, parse_osm_extract,
)

MINICITY_CENTERS = [(40.45, -3.69), (40.447, -3.693), (40.4532, -3.6861), (40.44, -3.70)]


def assert_same_graph(raw, center, radius_m, speed_overrides=None):
    expected = graph_to_csv(build_graph_full_scan(raw, center, radius_m, speed_overrides))
    assert graph_to_csv(build_graph(raw, center, radius_m, speed_overrides)) == expected


@pytest.mark.parametrize("center", MINICITY_CENTERS)
@pytest.mark.parametrize("radius_m", [150.0, 400.0, 800.0, 2000.0, 5000.0])
def test_crop_matches_full_scan_on_minicity(minicity_raw, center, radius_m):
    try:
        assert_same_graph(minicity_raw, center, radius_m)
    except DomainError:
        with pytest.raises(DomainError):
            build_graph_full_scan(minicity_raw, center, radius_m)


def test_crop_matches_full_scan_on_generated_grid():
    raw = grid_extract()
    rng = random.Random(3)
    lats, lons = raw.lat.tolist(), raw.lon.tolist()
    for _ in range(25):
        center = (rng.uniform(min(lats), max(lats)), rng.uniform(min(lons), max(lons)))
        assert_same_graph(raw, center, rng.choice([120.0, 333.0, 700.0, 1500.0]))


def test_node_exactly_on_the_radius():
    raw = grid_extract()
    coords = node_coords(raw)
    center = coords["j5_5"]
    radius_m = haversine_m(*center, *coords["j5_8"])
    assert "j5_8" in build_graph(raw, center, radius_m).nodes
    assert_same_graph(raw, center, radius_m)
    below = math.nextafter(radius_m, 0.0)
    assert "j5_8" not in build_graph(raw, center, below).nodes
    assert_same_graph(raw, center, below)


def test_scalar_haversine_decides_at_the_radius():
    # numpy's and the math module's trig differ in the last bits for some
    # points; at a radius equal to the scalar distance of such a point,
    # the point must still count as inside
    rng = np.random.default_rng(11)
    lats = LAT0 + rng.uniform(-0.02, 0.02, 20000)
    lons = LON0 + rng.uniform(-0.02, 0.02, 20000)
    scalar = [haversine_m(LAT0, LON0, a, b) for a, b in zip(lats.tolist(), lons.tolist())]
    differ = np.flatnonzero(haversine_m_array(LAT0, LON0, lats, lons) != scalar)
    for k in differ[:5].tolist():
        nodes = {"p": (north_of(LAT0, 10.0), LON0), "o": (LAT0, LON0),
                 "x": (lats[k].item(), lons[k].item())}
        raw = RawRoadData.of(nodes, [("1", ["p", "o", "x"], {"highway": "residential"})])
        assert "x" in build_graph(raw, (LAT0, LON0), scalar[k]).nodes
        assert_same_graph(raw, (LAT0, LON0), scalar[k])
        below = math.nextafter(scalar[k], 0.0)
        assert "x" not in build_graph(raw, (LAT0, LON0), below).nodes
        assert_same_graph(raw, (LAT0, LON0), below)


def test_repeated_calls_with_varying_speeds_share_one_index():
    raw = grid_extract()
    center = node_coords(raw)["j6_6"]
    overrides = [None, {"residential": 45.0}, None, {"residential": 20.0, "primary": 70.0},
                 {"motorway": 110.0, "tertiary": 35.0}, {"residential": 45.0}]
    for k, speeds in enumerate(overrides):
        assert_same_graph(raw, center, 500.0 + 100.0 * (k % 2), speeds)
    index = raw.index
    build_graph(raw, center, 900.0)
    assert raw.index is index


def test_crop_matches_full_scan_on_hand_built_extract():
    raw = tangled_extract()
    nodes = node_coords(raw)
    for center in [nodes["a"], nodes["c"], nodes["d"], nodes["h"], (north_of(LAT0, 300), LON0)]:
        for radius_m in [150.0, 210.0, 450.0, 5000.0]:
            try:
                assert_same_graph(raw, center, radius_m)
            except DomainError:
                with pytest.raises(DomainError):
                    build_graph_full_scan(raw, center, radius_m)


def test_concurrent_crops_of_a_fresh_extract():
    raw = grid_extract()
    coords = node_coords(raw)
    centers = [coords[f"j{i}_{j}"] for i in (3, 7, 10) for j in (2, 6, 11)]
    expected = [graph_to_csv(build_graph_full_scan(raw, c, 600.0)) for c in centers]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(build_graph, raw, c, 600.0) for c in centers * 3]
            got = [graph_to_csv(f.result(timeout=60)) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert got == expected * 3


def test_radius_and_empty_crop_errors():
    raw = grid_extract()
    for radius_m in (0.0, -5.0):
        with pytest.raises(ArgumentError, match="radius must be positive"):
            build_graph(raw, (LAT0, LON0), radius_m)
    with pytest.raises(DomainError, match="no drivable roads"):
        build_graph(raw, (LAT0 + 1.0, LON0), 1000.0)


# stretch lengths are measured when a crop first reads them

def fresh_minicity(minicity_dir):
    return parse_osm_extract(f"{minicity_dir}/minicity.osm")


def view_stretches(raw, center, radius_m):
    """The ``(first, last)`` occurrences of every piece of a view."""
    view = RadiusView(raw, center, radius_m)
    return set(zip(view._first, view._last))


def assert_stretches_are_haversine(index):
    """Each memoised stretch length is ``haversine_m`` of its pairs,
    summed in way order; returns the memo's keys."""
    for (a, b), length in index.stretch_len.items():
        rows = index.occ_node[a : b + 1]
        lat, lon = index.lat[rows].tolist(), index.lon[rows].tolist()
        expected = 0.0
        for j in range(b - a):
            expected += haversine_m(lat[j], lon[j], lat[j + 1], lon[j + 1])
        assert length == expected
    return set(index.stretch_len)


def whole_map(raw):
    lats, lons = raw.lat.tolist(), raw.lon.tolist()
    return ((min(lats) + max(lats)) / 2, (min(lons) + max(lons)) / 2), 50_000.0


@pytest.mark.parametrize("extract, centers, radius_m", [
    ("minicity", [(40.45, -3.69), (40.4532, -3.6861)], 500.0),
    ("grid", [(LAT0 + 0.004, LON0 + 0.004), (LAT0 + 0.006, LON0 + 0.007)], 450.0),
])
@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
def test_overlapping_crops_measure_pairs_on_demand(minicity_dir, extract, centers, radius_m, order):
    raw = fresh_minicity(minicity_dir) if extract == "minicity" else grid_extract()
    index = raw.index
    assert index.stretch_len == {}
    center_a, center_b = centers[::order]
    first, second = (view_stretches(raw, c, radius_m) for c in (center_a, center_b))
    every = view_stretches(raw, *whole_map(raw))
    assert_same_graph(raw, center_a, radius_m)
    assert assert_stretches_are_haversine(index) == first
    assert_same_graph(raw, center_b, radius_m)
    assert assert_stretches_are_haversine(index) == first | second
    # the second crop reuses some stretches of the first and adds others,
    # and neither reaches every stretch of the map
    assert first & second and second - first
    assert not every <= first | second


@pytest.mark.parametrize("extract", ["minicity", "grid"])
def test_whole_map_crop_leaves_no_pair_unmeasured(minicity_dir, extract):
    raw = fresh_minicity(minicity_dir) if extract == "minicity" else grid_extract()
    center, radius_m = whole_map(raw)
    assert_same_graph(raw, center, radius_m)
    # every piece of the view is stored, and nothing else
    assert assert_stretches_are_haversine(raw.index) == view_stretches(raw, center, radius_m)
    lats, lons = raw.lat.tolist(), raw.lon.tolist()
    for lat, lon in [(min(lats), min(lons)), (max(lats), max(lons))]:
        assert_same_graph(raw, (lat, lon), 700.0)
