import importlib.util
import math
import os

import pytest
from hypothesis import given, strategies as st

from conftest import FIXTURE_DIR
from helpers import (
    LAT0, LON0, all_edges, east_of, edge_ends, geo_graph, index_pairs, make_graph, north_of,
)
from oracles import bfs_hops, floyd_warshall
from roadtwin.errors import ArgumentError, SnapError
from roadtwin.osm_ingest import HighwayClass, build_graph
from roadtwin.pipeline import load_sensors
from roadtwin.road_graph import (
    Edge,
    RoadGraph,
    dijkstra_from,
    ego_graph,
    insert_central_node,
)

INF = math.inf


def one_street(meters=1000.0, speed_kph=30.0, two_way=True, cls=HighwayClass.RESIDENTIAL):
    nodes = {"a": (LAT0, LON0), "b": (north_of(LAT0, meters), LON0)}
    return geo_graph(nodes, [("a", "b")], cls=cls, speed_kph=speed_kph, two_way=two_way)


# ---------------------------------------------------------------------------
# random graph strategy (integer travel times keep float sums exact)
# ---------------------------------------------------------------------------

@st.composite
def random_graphs(draw, max_nodes=8):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    names = [chr(97 + i) for i in range(n)]
    pairs = [(u, v) for u in names for v in names if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=2 * n * (n - 1) // 2))
    triples = [(u, v, draw(st.integers(min_value=1, max_value=9))) for u, v in chosen]
    nodes = {name: (0.0, 0.0) for name in names}  # isolated nodes stay in
    edges = [Edge(u, v, float(w), 3.6, float(w), HighwayClass.RESIDENTIAL)
             for u, v, w in triples]
    return RoadGraph(nodes, edges)


# ---------------------------------------------------------------------------
# shortest paths
# ---------------------------------------------------------------------------

def test_dijkstra_simple_chain():
    g = make_graph([("a", "b", 2), ("b", "c", 3), ("a", "c", 6)])
    d = dijkstra_from(g, "a")
    assert d == {"a": 0.0, "b": 2.0, "c": 5.0}


def test_dijkstra_leaves_out_unreachable_nodes():
    g = make_graph([("a", "b", 1)])
    assert dijkstra_from(g, "b") == {"b": 0.0}


def test_unknown_node_rejected():
    g = make_graph([("a", "b", 1)])
    with pytest.raises(ArgumentError):
        dijkstra_from(g, "zz")


@given(random_graphs())
def test_dijkstra_matches_floyd_warshall(g):
    fw = floyd_warshall(g)
    for s in g.nodes:
        d = dijkstra_from(g, s)
        assert not any(map(math.isinf, d.values()))
        for t in g.nodes:
            # absent exactly when unreachable
            assert (t in d) == (fw[(s, t)] < INF)
            if t in d:
                assert abs(d[t] - fw[(s, t)]) < 1e-9


@given(random_graphs())
def test_dijkstra_triangle_inequality(g):
    nodes = sorted(g.nodes)
    dist = {s: dijkstra_from(g, s) for s in nodes}
    for s in nodes:
        assert dist[s][s] == 0.0
        for t in dist[s]:
            assert dist[s][t] >= 0.0
        for m in dist[s]:
            for t in dist[m]:
                assert dist[s].get(t, INF) <= dist[s][m] + dist[m][t] + 1e-9


@given(random_graphs(), st.sampled_from([0.25, 0.5, 2.0, 8.0]))
def test_dijkstra_scale_equivariance(g, k):
    # power-of-two factors keep float arithmetic exact
    scaled = RoadGraph(
        g.nodes,
        [Edge(e.src, e.dst, e.length_m, e.speed_kph, e.travel_time_s * k, e.highway_class)
         for e in g.edges],
    )
    for s in g.nodes:
        base = dijkstra_from(g, s)
        assert dijkstra_from(scaled, s) == {t: d * k for t, d in base.items()}


# ---------------------------------------------------------------------------
# central node insertion
# ---------------------------------------------------------------------------

def test_split_thirty_percent_of_two_minute_street():
    # 1000 m residential street at 30 km/h is a 120 s edge; a sensor at
    # 30 % of its length splits it into 36 s and 84 s in both directions
    g = one_street()
    sensor = (north_of(LAT0, 300.0), east_of(LAT0, LON0, 20.0))
    g2, central = insert_central_node(g, "s1", *sensor)
    assert central.node_id == "site:s1"
    assert central.host_edge_class is HighwayClass.RESIDENTIAL
    edges = all_edges(g2)
    assert edge_ends(edges) == {"a", "b", "site:s1"}
    assert len(edges) == 4
    by_pair = {(e.src, e.dst): e for e in edges}
    assert by_pair[("a", "site:s1")].travel_time_s == pytest.approx(36.0, rel=1e-9)
    assert by_pair[("site:s1", "b")].travel_time_s == pytest.approx(84.0, rel=1e-9)
    assert by_pair[("b", "site:s1")].travel_time_s == pytest.approx(84.0, rel=1e-9)
    assert by_pair[("site:s1", "a")].travel_time_s == pytest.approx(36.0, rel=1e-9)
    assert by_pair[("a", "site:s1")].length_m == pytest.approx(300.0, rel=1e-9)


def test_split_conserves_length_and_time():
    g = one_street(737.0, speed_kph=47.0)
    parent = g.edges[0]
    g2, central = insert_central_node(g, "s1", north_of(LAT0, 444.4), east_of(LAT0, LON0, 55.0))
    children = [e for e in all_edges(g2) if e.src == "a" or e.dst == "b"]
    total_len = sum(e.length_m for e in children)
    total_tt = sum(e.travel_time_s for e in children)
    assert total_len == pytest.approx(parent.length_m, rel=1e-12)
    assert total_tt == pytest.approx(parent.travel_time_s, rel=1e-12)
    for e in all_edges(g2):
        assert e.speed_kph == parent.speed_kph
        assert e.highway_class is parent.highway_class


def test_oneway_host_splits_one_direction_only():
    g = one_street(two_way=False)
    g2, central = insert_central_node(g, "s1", north_of(LAT0, 250.0), LON0)
    edges = all_edges(g2)
    assert len(edges) == 2
    assert {(e.src, e.dst) for e in edges} == {("a", "site:s1"), ("site:s1", "b")}


def test_snap_beyond_threshold_raises():
    g = one_street()
    far = east_of(LAT0, LON0, 150.0)
    with pytest.raises(SnapError, match="snap threshold"):
        insert_central_node(g, "s1", north_of(LAT0, 500.0), far)
    # a wider threshold accepts the same position
    g2, central = insert_central_node(g, "s1", north_of(LAT0, 500.0), far, snap_threshold_m=200.0)
    assert central.node_id == "site:s1"


def test_projection_near_endpoint_reuses_junction():
    g = one_street()
    g2, central = insert_central_node(g, "s1", LAT0, east_of(LAT0, LON0, 40.0))
    # the foot of the projection is the endpoint itself
    assert central.node_id == "a"
    # the graph comes back as it was given
    assert g2 is g
    assert len(g2.nodes) == 2
    assert len(g2.edges) == 2


def test_equidistant_edges_pick_lexicographically_smaller():
    nodes = {
        "a": (north_of(LAT0, 55.0), LON0),
        "b": (north_of(LAT0, 55.0), east_of(LAT0, LON0, 400.0)),
        "c": (north_of(LAT0, -55.0), LON0),
        "d": (north_of(LAT0, -55.0), east_of(LAT0, LON0, 400.0)),
    }
    for links in ([("a", "b"), ("c", "d")], [("c", "d"), ("a", "b")]):
        g = geo_graph(nodes, links, two_way=False)
        g2, central = insert_central_node(g, "sx", LAT0, east_of(LAT0, LON0, 200.0))
        hosts = {(e.src, e.dst) for e in all_edges(g2) if "site:sx" in (e.src, e.dst)}
        assert hosts == {("a", "site:sx"), ("site:sx", "b")}


def test_double_insert_same_sensor_rejected():
    g = one_street()
    g2, _ = insert_central_node(g, "s1", north_of(LAT0, 300.0), LON0)
    with pytest.raises(ArgumentError, match="already inserted"):
        insert_central_node(g2, "s1", north_of(LAT0, 600.0), LON0)


def test_insert_into_empty_graph():
    g = RoadGraph({"a": (LAT0, LON0)}, [])
    with pytest.raises(SnapError):
        insert_central_node(g, "s1", LAT0, LON0)


def test_lanes_flow_through_split():
    nodes = {"a": (LAT0, LON0), "b": (north_of(LAT0, 500.0), LON0)}
    e = Edge("a", "b", 500.0, 50.0, 36.0, HighwayClass.SECONDARY, lanes=3)
    g = RoadGraph(nodes, [e])
    g2, central = insert_central_node(g, "s1", north_of(LAT0, 200.0), LON0)
    assert central.host_edge_lanes == 3
    assert all(ch.lanes == 3 for ch in all_edges(g2))


MINICITY_SENSORS = load_sensors(os.path.join(FIXTURE_DIR, "sensors.csv"))


@pytest.mark.parametrize("sensor", MINICITY_SENSORS, ids=lambda s: s.sensor_id)
def test_snap_does_not_depend_on_the_crop_center(minicity_raw, sensor):
    # the same position snapped on graphs cropped around itself and around
    # a point 0.002 degrees north must give the same node and split edges
    snaps = []
    for center in ((sensor.lat, sensor.lon), (sensor.lat + 0.002, sensor.lon)):
        graph = build_graph(minicity_raw, center, 2000.0)
        g2, central = insert_central_node(graph, sensor.sensor_id, sensor.lat, sensor.lon)
        touching = [e for e in all_edges(g2) if central.node_id in (e.src, e.dst)]
        snaps.append((central, touching))
    assert snaps[0] == snaps[1]


# ---------------------------------------------------------------------------
# ego-graphs
# ---------------------------------------------------------------------------

def grid_with_sensor(minicity_graph):
    return insert_central_node(minicity_graph, "sx", 40.4501, -3.6918)


def test_ego_requires_positive_hops(minicity_graph):
    g2, central = grid_with_sensor(minicity_graph)
    with pytest.raises(ArgumentError):
        ego_graph(g2, central, 0)


def test_ego_matches_bfs_oracle(minicity_graph):
    g2, central = grid_with_sensor(minicity_graph)
    hops = bfs_hops(g2, central.node_id)
    for n in (1, 2, 3, 5):
        ego = ego_graph(g2, central, n)
        assert set(ego.graph.nodes) == {v for v, h in hops.items() if h <= n}


def test_ego_monotone_in_hops(minicity_graph):
    g2, central = grid_with_sensor(minicity_graph)
    prev: set[str] = set()
    for n in range(1, 7):
        cur = set(ego_graph(g2, central, n).graph.nodes)
        assert prev <= cur
        prev = cur


def test_ego_hops_ignore_direction_but_edges_keep_it():
    # a -> b one-way: b still reaches a within one undirected hop,
    # and the induced subgraph keeps only the a -> b direction
    g = make_graph([("a", "b", 5)])
    sensor_host = RoadGraph(
        {"a": (LAT0, LON0), "b": (north_of(LAT0, 100.0), LON0)},
        [Edge("a", "b", 100.0, 30.0, 12.0, HighwayClass.RESIDENTIAL)],
    )
    g2, central = insert_central_node(sensor_host, "s1", north_of(LAT0, 50.0), LON0)
    ego = ego_graph(g2, central, 1)
    assert ego.graph.nodes == ["a", "b", "site:s1"]
    assert index_pairs(ego.graph) == [("a", "site:s1"), ("site:s1", "b")]


def test_ego_induced_subgraph_keeps_interior_edges(minicity_graph):
    g2, central = grid_with_sensor(minicity_graph)
    ego = ego_graph(g2, central, 2)
    keep = ego.graph.nodes
    assert keep == sorted(keep)
    rank = {v: i for i, v in enumerate(keep)}
    # every edge between two ego nodes, with its travel time, under its
    # source's index and in the graph's edge order
    expected = [[(rank[e.dst], e.travel_time_s) for e in all_edges(g2)
                 if e.src == v and e.dst in rank] for v in keep]
    assert ego.graph.out == expected


def test_ego_five_hops_spans_minicity(minicity_graph):
    g2, central = grid_with_sensor(minicity_graph)
    ego = ego_graph(g2, central, 5)
    assert set(ego.graph.nodes) == edge_ends(all_edges(g2))


def test_perfbench_reads_the_ego_size(minicity_graph):
    # perfbench's traced runs count each ego_graph result's nodes from
    # outside the package; an EgoGraph change must not break that counter
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    g2, central = grid_with_sensor(minicity_graph)
    ego = ego_graph(g2, central, 2)
    assert len(ego.graph.nodes) > 1
    assert spans._ego_counts((), {}, ego) == {"nodes": len(ego.graph.nodes)}
