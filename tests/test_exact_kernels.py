"""Brandes on index lists and the latitude band of ``MapIndex.within``
give exactly what their originals give (``oracles``): equal floats and
equal masks, not merely close ones."""
import math
import os
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import FIXTURE_DIR
from helpers import (
    LAT0, LON0, RoadGraph, east_of, grid_extract, index_graph, node_coords, north_of,
    shapes_extract, view_edges,
)
from oracles import betweenness_dicts, within_full_scan
from roadtwin.config import PipelineConfig
from roadtwin.embedding import betweenness
from roadtwin.errors import ArgumentError, FormatError, SnapError
from roadtwin.geo import coordinate_problem, haversine_m
from roadtwin.osm_ingest import HighwayClass, RadiusView, RawRoadData, Way
from roadtwin.pipeline import load_sensors
from roadtwin.road_graph import Edge, IndexGraph, ego_graph, insert_central_node


# ---------------------------------------------------------------------------
# betweenness
# ---------------------------------------------------------------------------

@st.composite
def tied_multigraphs(draw):
    """Digraphs whose travel times tie often: small integers, zero-time
    edges, parallel edges, decimal fractions whose float sums differ from
    their exact sums, and nodes listed out of id order."""
    n = draw(st.integers(min_value=2, max_value=9))
    names = [f"n{i}" for i in range(n)]  # "n10" sorts before "n2"
    times = st.one_of(st.integers(min_value=0, max_value=3).map(float),
                      st.sampled_from([0.1, 0.2, 0.3, 0.7]))
    triples = draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(names), times)
        .filter(lambda t: t[0] != t[1]),
        max_size=4 * n,
    ))
    order = draw(st.permutations(names))
    nodes = {name: (0.0, 0.0) for name in order}
    edges = [Edge(u, v, w, 3.6, w, HighwayClass.RESIDENTIAL) for u, v, w in triples]
    return RoadGraph(nodes, edges)


def assert_same_centrality(index: IndexGraph, graph: RoadGraph):
    """Brandes on ``index`` equals the dict Brandes on ``graph``, the same
    subgraph as a RoadGraph: same floats, listed in sorted-id order."""
    got = betweenness(index)
    assert list(got.items()) == sorted(betweenness_dicts(graph).items())


def induced(view, nodes) -> RoadGraph:
    """The subgraph of a view that the node ids ``nodes`` induce, as a
    RoadGraph whose edges carry the view's travel times."""
    keep = set(nodes)
    return RoadGraph({v: (0.0, 0.0) for v in nodes},
                     [Edge(src, dst, t, 3.6, t, HighwayClass.RESIDENTIAL)
                      for src, dst, t in view_edges(view, nodes) if dst in keep])


@given(tied_multigraphs())
def test_betweenness_equals_dict_brandes_on_tied_multigraphs(graph):
    assert_same_centrality(index_graph(graph, graph.nodes), graph)


def test_betweenness_equals_dict_brandes_on_a_tied_grid():
    # a unit grid has many equal-time paths between most pairs
    edges = []
    for i in range(5):
        for j in range(5):
            for di, dj in ((0, 1), (1, 0)):
                if i + di < 5 and j + dj < 5:
                    u, v = f"g{i}_{j}", f"g{i + di}_{j + dj}"
                    edges += [Edge(u, v, 1.0, 3.6, 1.0, HighwayClass.RESIDENTIAL),
                              Edge(v, u, 1.0, 3.6, 1.0, HighwayClass.RESIDENTIAL)]
    nodes = {f"g{i}_{j}": (0.0, 0.0) for j in range(5) for i in range(5)}
    graph = RoadGraph(nodes, edges)
    assert_same_centrality(index_graph(graph, graph.nodes), graph)


def ego_graphs(raw, positions, hops=(1, 2, 3, 4)):
    """``(graph, ego-graph)`` of every position that snaps, as the
    pipeline takes them."""
    cfg = PipelineConfig()
    for sid, (lat, lon) in positions:
        graph = RadiusView(raw, (lat, lon), cfg.radius_m)
        try:
            central = insert_central_node(graph, sid, lat, lon, cfg.snap_threshold_m)
        except SnapError:
            continue
        for h in hops:
            yield graph, ego_graph(graph, central, h)


def test_betweenness_equals_dict_brandes_on_minicity_ego_graphs(minicity_raw):
    sensors = load_sensors(os.path.join(FIXTURE_DIR, "sensors.csv"))
    egos = list(ego_graphs(minicity_raw, [(s.sensor_id, (s.lat, s.lon)) for s in sensors]))
    assert len(egos) == 4 * len(sensors)
    for graph, ego in egos:
        assert_same_centrality(ego.graph, induced(graph, ego.graph.nodes))


def test_betweenness_equals_dict_brandes_on_shapes_ego_graphs():
    raw, probes = shapes_extract()
    egos = list(ego_graphs(raw, sorted(probes.items())))
    assert len(egos) >= 4 * 9
    for graph, ego in egos:
        assert_same_centrality(ego.graph, induced(graph, ego.graph.nodes))


# ---------------------------------------------------------------------------
# MapIndex.within
# ---------------------------------------------------------------------------

RADII_M = [150.0, 400.0, 1000.0, 2000.0, 4000.0]


def assert_same_mask(raw, center, radius_m):
    got = raw.index.within(center, radius_m)
    assert got.dtype == bool and got.shape == raw.index.lat.shape
    assert np.array_equal(got, within_full_scan(raw.index, center, radius_m))


@pytest.mark.parametrize("radius_m", RADII_M)
def test_within_equals_full_scan_on_minicity(minicity_raw, radius_m):
    sensors = load_sensors(os.path.join(FIXTURE_DIR, "sensors.csv"))
    for s in sensors:
        assert_same_mask(minicity_raw, (s.lat, s.lon), radius_m)


def test_within_equals_full_scan_on_generated_grid():
    raw = grid_extract()
    rng = random.Random(5)
    lats, lons = raw.lat.tolist(), raw.lon.tolist()
    for _ in range(40):
        center = (rng.uniform(min(lats), max(lats)), rng.uniform(min(lons), max(lons)))
        assert_same_mask(raw, center, rng.uniform(150.0, 4000.0))
    coords = node_coords(raw)
    for nid in ("j0_0", "j7_7", "j13_13"):
        for radius_m in RADII_M:
            assert_same_mask(raw, coords[nid], radius_m)


def test_within_keeps_rows_at_the_edge_of_the_band():
    # a node due north or south of the center at distance r has a
    # latitude offset of r / R: right at the edge of a band without margin
    rng = random.Random(17)
    nodes = {}
    for k in range(300):
        lat0 = rng.uniform(-80.0, 80.0)
        dist = rng.uniform(150.0, 4000.0)
        nodes[f"c{k}"] = (lat0, LON0)
        nodes[f"x{k}"] = (north_of(lat0, dist if k % 2 else -dist), LON0)
    raw = RawRoadData.of(nodes, [])
    for k in range(300):
        center, node = nodes[f"c{k}"], nodes[f"x{k}"]
        radius_m = haversine_m(*center, *node)
        for r in (radius_m, math.nextafter(radius_m, 0.0), radius_m + 1e-4, radius_m - 1e-4):
            assert_same_mask(raw, center, r)
        assert raw.index.within(center, radius_m)[raw.index.row[f"x{k}"]]


def test_within_decides_rows_near_the_radius():
    # nodes within 1e-3 m of the radius, in every direction
    radius_m = 1234.5
    nodes = {}
    for k in range(360):
        bearing = math.radians(k)
        dist = radius_m + (k % 7 - 3) * 3e-4
        lat = north_of(LAT0, dist * math.cos(bearing))
        nodes[f"n{k}"] = (lat, east_of(lat, LON0, dist * math.sin(bearing)))
    raw = RawRoadData.of(nodes, [])
    mask = raw.index.within((LAT0, LON0), radius_m)
    assert 0 < mask.sum() < len(nodes)
    assert_same_mask(raw, (LAT0, LON0), radius_m)


@pytest.mark.parametrize("lat0", [89.9, -89.9, 89.99, 0.0])
@pytest.mark.parametrize("lon0", [180.0, -180.0, 179.99, -179.99, 0.0])
def test_within_near_the_poles_and_the_antimeridian(lat0, lon0):
    rng = random.Random(f"{lat0},{lon0}")
    nodes = {}
    for k in range(400):
        lat = min(90.0, max(-90.0, lat0 + rng.uniform(-0.05, 0.05)))
        lon = lon0 + rng.uniform(-3.0, 3.0) if abs(lat0) > 89.0 else lon0 + rng.uniform(-0.05, 0.05)
        nodes[f"n{k}"] = (lat, (lon + 180.0) % 360.0 - 180.0)
    raw = RawRoadData.of(nodes, [])
    for radius_m in RADII_M:
        assert_same_mask(raw, (lat0, lon0), radius_m)


def test_nodes_and_centers_beyond_the_poles_are_rejected():
    # the latitude band bounds no row beyond the poles, so no such node
    # enters the index and no such center reaches within()
    nodes = {"a": (LAT0, LON0), "b": (95.0, 180.0), "c": (89.99, 0.0), "d": (-91.0, LON0)}
    raw = RawRoadData.of(nodes, [Way("1", ["a", "b"], {"highway": "residential"})])
    with pytest.raises(FormatError, match=r"^node b: latitude 95\.0 is not a finite number"):
        raw.index
    on_globe = RawRoadData.of({"a": nodes["a"], "c": nodes["c"]}, [])
    for center in [(95.0, 180.0), (-90.5, LON0), (math.nan, LON0), (LAT0, math.inf)]:
        with pytest.raises(ArgumentError, match=r"^radius center: "):
            RadiusView(on_globe, center, 150.0)


def _at_and_beyond(limit):
    return [-limit, limit, math.nextafter(-limit, -math.inf), math.nextafter(limit, math.inf)]


EDGE_COORDINATES = [0.0, math.nan, math.inf, -math.inf]


def test_index_and_view_reject_what_coordinate_problem_rejects():
    on_globe = RawRoadData.of({"a": (LAT0, LON0)}, [])
    for lat in _at_and_beyond(90.0) + EDGE_COORDINATES:
        for lon in _at_and_beyond(180.0) + EDGE_COORDINATES:
            problem = coordinate_problem(lat, lon)
            raw = RawRoadData.of({"a": (LAT0, LON0), "x": (lat, lon)}, [])
            if problem is None:
                assert raw.index.row["x"] == 1
                RadiusView(on_globe, (lat, lon), 150.0)
                continue
            with pytest.raises(FormatError) as info:
                raw.index
            assert str(info.value) == f"node x: {problem}"
            with pytest.raises(ArgumentError) as info:
                RadiusView(on_globe, (lat, lon), 150.0)
            assert str(info.value) == f"radius center: {problem}"
