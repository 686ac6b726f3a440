"""build_graph crops radius graphs from the extract's index: it must give
exactly what a full rescan of the extract gives (``oracles``)."""
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helpers import LAT0, LON0, east_of, north_of
from oracles import build_graph_full_scan
from roadtwin.errors import ArgumentError, DomainError
from roadtwin.geo import haversine_m, haversine_m_array
from roadtwin.osm_ingest import RawRoadData, Way, build_graph, graph_to_csv

MINICITY_CENTERS = [(40.45, -3.69), (40.447, -3.693), (40.4532, -3.6861), (40.44, -3.70)]


def assert_same_graph(raw, center, radius_m, speed_overrides=None):
    expected = graph_to_csv(build_graph_full_scan(raw, center, radius_m, speed_overrides))
    assert graph_to_csv(build_graph(raw, center, radius_m, speed_overrides)) == expected


def grid_extract(n=14, spacing_m=110.0, bends=2, seed=7) -> RawRoadData:
    """n x n junction grid of map-spanning ways with bend nodes between junctions.

    Every 5th line is a oneway motorway and every 4th primary (some with
    maxspeed and lanes tags); one vertical line is split into two ways
    meeting mid-grid, and a footway-free residential loop closes on
    itself.
    """
    rng = random.Random(seed)
    nodes: dict[str, tuple[float, float]] = {}

    def point(x_m, y_m):
        lat = north_of(LAT0, y_m + rng.uniform(-3.0, 3.0))
        return lat, east_of(lat, LON0, x_m + rng.uniform(-3.0, 3.0))

    for i in range(n):
        for j in range(n):
            nodes[f"j{i}_{j}"] = point(i * spacing_m, j * spacing_m)

    def line(ids_of, tag):
        refs = []
        for k in range(n):
            refs.append(ids_of(k))
            if k < n - 1:
                for b in range(1, bends + 1):
                    nid = f"{tag}b{k}_{b}"
                    a, c = nodes[ids_of(k)], nodes[ids_of(k + 1)]
                    f = b / (bends + 1)
                    nodes[nid] = (a[0] + f * (c[0] - a[0]) + rng.uniform(-2e-5, 2e-5),
                                  a[1] + f * (c[1] - a[1]) + rng.uniform(-2e-5, 2e-5))
                    refs.append(nid)
        return refs

    def tags(i):
        if i % 5 == 0:
            return {"highway": "motorway", "oneway": "yes", "lanes": "3"}
        if i % 4 == 0:
            return {"highway": "primary", "maxspeed": "60", "lanes": "2"}
        return {"highway": "residential" if i % 2 else "tertiary"}

    ways = []
    for i in range(n):
        ways.append(Way(f"h{i}", line(lambda k, i=i: f"j{k}_{i}", f"h{i}"), tags(i)))
        refs = line(lambda k, i=i: f"j{i}_{k}", f"v{i}")
        if i == 3:
            mid = refs.index(f"j{i}_{n // 2}")
            ways.append(Way("v3a", refs[: mid + 1], tags(i)))
            ways.append(Way("v3b", refs[mid:], {"highway": "secondary_link"}))
        else:
            ways.append(Way(f"v{i}", refs, tags(i)))
    loop = ["j2_2", "j2_3", "j3_3", "j3_2", "j2_2"]
    ways.append(Way("loop", loop, {"highway": "residential"}))
    return RawRoadData(nodes=nodes, ways=ways)


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
    lats = [c[0] for c in raw.nodes.values()]
    lons = [c[1] for c in raw.nodes.values()]
    for _ in range(25):
        center = (rng.uniform(min(lats), max(lats)), rng.uniform(min(lons), max(lons)))
        assert_same_graph(raw, center, rng.choice([120.0, 333.0, 700.0, 1500.0]))


def test_node_exactly_on_the_radius():
    raw = grid_extract()
    center = raw.nodes["j5_5"]
    radius_m = haversine_m(*center, *raw.nodes["j5_8"])
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
        raw = RawRoadData(nodes=nodes, ways=[Way("1", ["p", "o", "x"], {"highway": "residential"})])
        assert "x" in build_graph(raw, (LAT0, LON0), scalar[k]).nodes
        assert_same_graph(raw, (LAT0, LON0), scalar[k])
        below = math.nextafter(scalar[k], 0.0)
        assert "x" not in build_graph(raw, (LAT0, LON0), below).nodes
        assert_same_graph(raw, (LAT0, LON0), below)


def test_repeated_calls_with_varying_speeds_share_one_index():
    raw = grid_extract()
    center = raw.nodes["j6_6"]
    overrides = [None, {"residential": 45.0}, None, {"residential": 20.0, "primary": 70.0},
                 {"motorway": 110.0, "tertiary": 35.0}, {"residential": 45.0}]
    for k, speeds in enumerate(overrides):
        assert_same_graph(raw, center, 500.0 + 100.0 * (k % 2), speeds)
    index = raw.index
    build_graph(raw, center, 900.0)
    assert raw.index is index


def test_crop_matches_full_scan_on_hand_built_extract():
    # loops, repeated nodes, a zero-length pair, a single-node way, an
    # empty way and a reference to a node with no coordinates
    nodes = {
        "a": (LAT0, LON0),
        "b": (north_of(LAT0, 200), LON0),
        "c": (north_of(LAT0, 400), LON0),
        "d": (north_of(LAT0, 400), east_of(LAT0, LON0, 250)),
        "e": (LAT0, east_of(LAT0, LON0, 250)),
        "f": (north_of(LAT0, 600), LON0),
        "twin": (north_of(LAT0, 200), LON0),
        "g": (north_of(LAT0, -150), LON0),
        "h": (north_of(LAT0, -300), LON0),
        "i": (north_of(LAT0, -400), east_of(LAT0, LON0, 100)),
        "j": (north_of(LAT0, -400), east_of(LAT0, LON0, -100)),
    }
    ways = [
        Way("1", ["a", "b", "c", "d", "e", "a"], {"highway": "tertiary"}),
        Way("2", ["b", "twin", "d"], {"highway": "primary", "oneway": "true"}),
        Way("3", ["c", "f", "ghost", "f"], {"highway": "residential", "maxspeed": "20 mph"}),
        Way("4", ["e", "d", "e"], {"highway": "residential"}),
        Way("5", ["f"], {"highway": "residential"}),
        Way("6", [], {"highway": "residential"}),
        # h is on this way only, twice: not a junction
        Way("7", ["a", "g", "h", "i", "j", "h", "e"], {"highway": "secondary"}),
    ]
    raw = RawRoadData(nodes=nodes, ways=ways)
    for center in [nodes["a"], nodes["c"], nodes["d"], nodes["h"], (north_of(LAT0, 300), LON0)]:
        for radius_m in [150.0, 210.0, 450.0, 5000.0]:
            try:
                assert_same_graph(raw, center, radius_m)
            except DomainError:
                with pytest.raises(DomainError):
                    build_graph_full_scan(raw, center, radius_m)


def test_concurrent_crops_of_a_fresh_extract():
    raw = grid_extract()
    centers = [raw.nodes[f"j{i}_{j}"] for i in (3, 7, 10) for j in (2, 6, 11)]
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
