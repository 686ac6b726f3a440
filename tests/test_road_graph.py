import importlib.util
import math
import os

import pytest
from hypothesis import given, strategies as st

from conftest import FIXTURE_DIR, MINICITY_CENTER
from helpers import (
    LAT0, LON0, RoadGraph, adjacency, east_of, index_graph, index_pairs, make_graph, north_of,
    view_edges, view_of,
)
from oracles import _insert_central_node_scan, bfs_hops, build_graph_full_scan, floyd_warshall
from roadtwin.errors import ArgumentError, DomainError, SnapError
from roadtwin.osm_ingest import HighwayClass, RadiusView
from roadtwin.pipeline import load_sensors
from roadtwin.road_graph import (
    Edge,
    dijkstra_from,
    ego_graph,
    insert_central_node,
)

INF = math.inf


def one_street(meters=1000.0, speed_kph=30.0, two_way=True, cls="residential", **tags):
    """View of one way from a to b, ``meters`` due north."""
    nodes = {"a": (LAT0, LON0), "b": (north_of(LAT0, meters), LON0)}
    tags = {"highway": cls, "maxspeed": f"{speed_kph:g}", "oneway": "no" if two_way else "yes",
            **tags}
    return view_of(nodes, [(["a", "b"], tags)])


def dijkstra_by_id(g: RoadGraph, src: str) -> dict[str, float]:
    """``dijkstra_from`` on a hand-built graph, rows named by id."""
    ids, out = adjacency(g)
    return {ids[v]: d for v, d in dijkstra_from(out, ids.index(src)).items()}


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
    d = dijkstra_by_id(g, "a")
    assert d == {"a": 0.0, "b": 2.0, "c": 5.0}


def test_dijkstra_leaves_out_unreachable_nodes():
    g = make_graph([("a", "b", 1)])
    assert dijkstra_by_id(g, "b") == {"b": 0.0}


@given(random_graphs())
def test_dijkstra_matches_floyd_warshall(g):
    fw = floyd_warshall(g)
    for s in g.nodes:
        d = dijkstra_by_id(g, s)
        assert not any(map(math.isinf, d.values()))
        for t in g.nodes:
            # absent exactly when unreachable
            assert (t in d) == (fw[(s, t)] < INF)
            if t in d:
                assert abs(d[t] - fw[(s, t)]) < 1e-9


@given(random_graphs())
def test_dijkstra_triangle_inequality(g):
    nodes = sorted(g.nodes)
    dist = {s: dijkstra_by_id(g, s) for s in nodes}
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
        base = dijkstra_by_id(g, s)
        assert dijkstra_by_id(scaled, s) == {t: d * k for t, d in base.items()}


# ---------------------------------------------------------------------------
# central node insertion
# ---------------------------------------------------------------------------

def test_split_thirty_percent_of_two_minute_street():
    # 1000 m residential street at 30 km/h is a 120 s edge; a sensor at
    # 30 % of its length splits it into 36 s and 84 s in both directions
    view = one_street()
    sensor = (north_of(LAT0, 300.0), east_of(LAT0, LON0, 20.0))
    central = insert_central_node(view, "s1", *sensor)
    assert central.node_id == "site:s1"
    assert central.host_edge_class is HighwayClass.RESIDENTIAL
    # the foot of the perpendicular, 300 m along the street
    assert (central.lat, central.lon) == (pytest.approx(sensor[0], abs=1e-12), LON0)
    edges = view_edges(view, ["a", "b", "site:s1"])
    assert len(edges) == 4
    # the in-edges are the same edges
    assert sorted(view_edges(view, ["a", "b", "site:s1"], "in")) == sorted(edges)
    by_pair = {(src, dst): t for src, dst, t in edges}
    assert by_pair[("a", "site:s1")] == pytest.approx(36.0, rel=1e-9)
    assert by_pair[("site:s1", "b")] == pytest.approx(84.0, rel=1e-9)
    assert by_pair[("b", "site:s1")] == pytest.approx(84.0, rel=1e-9)
    assert by_pair[("site:s1", "a")] == pytest.approx(36.0, rel=1e-9)


def test_split_conserves_length_and_time():
    view = one_street(737.0, speed_kph=47.0)
    parent = view.arcs()[0]
    central = insert_central_node(view, "s1", north_of(LAT0, 444.4), east_of(LAT0, LON0, 55.0))
    by_pair = {(src, dst): t for src, dst, t in view_edges(view, ["a", "b", "site:s1"])}
    assert len(by_pair) == 4
    for first, second in ((("a", "site:s1"), ("site:s1", "b")), (("b", "site:s1"), ("site:s1", "a"))):
        assert by_pair[first] + by_pair[second] == pytest.approx(parent.travel_time_s, rel=1e-12)
    assert parent.length_m == pytest.approx(737.0, rel=1e-9)
    assert parent.travel_time_s == pytest.approx(737.0 / (47.0 / 3.6), rel=1e-9)
    assert view.classes[view.site] == (HighwayClass.RESIDENTIAL,)
    assert central.host_edge_class is parent.highway_class


def test_oneway_host_splits_one_direction_only():
    view = one_street(two_way=False)
    insert_central_node(view, "s1", north_of(LAT0, 250.0), LON0)
    edges = view_edges(view, ["a", "b", "site:s1"])
    assert len(edges) == 2
    assert {(src, dst) for src, dst, _ in edges} == {("a", "site:s1"), ("site:s1", "b")}


def test_oneway_pair_over_the_same_nodes_is_split_as_one_road():
    # two oneway ways over the same two nodes in opposite directions: the
    # reverse-direction rule matches the other way's n2 -> n1 by class and
    # length, not by way, so both are split through the site
    nodes = {"n1": (LAT0, LON0), "n2": (north_of(LAT0, 400.0), LON0)}
    tags = {"highway": "residential", "oneway": "yes"}
    view = view_of(nodes, [(["n1", "n2"], tags), (["n2", "n1"], tags)])
    whole = view.arcs()[0].travel_time_s
    assert [(a.src, a.dst, a.travel_time_s) for a in view.arcs()] == [(0, 1, whole), (1, 0, whole)]
    central = insert_central_node(view, "s1", north_of(LAT0, 100.0), LON0)
    assert central.node_id == "site:s1"
    assert view_edges(view, ["n1", "n2", "site:s1"]) == [
        ("n1", "site:s1", pytest.approx(0.25 * whole, rel=1e-9)),
        ("n2", "site:s1", pytest.approx(0.75 * whole, rel=1e-9)),
        ("site:s1", "n2", pytest.approx(0.75 * whole, rel=1e-9)),
        ("site:s1", "n1", pytest.approx(0.25 * whole, rel=1e-9)),
    ]


def test_snap_beyond_threshold_raises():
    view = one_street()
    far = east_of(LAT0, LON0, 150.0)
    with pytest.raises(SnapError, match="snap threshold"):
        insert_central_node(view, "s1", north_of(LAT0, 500.0), far)
    # a wider threshold accepts the same position
    central = insert_central_node(view, "s1", north_of(LAT0, 500.0), far, snap_threshold_m=200.0)
    assert central.node_id == "site:s1"


def test_projection_near_endpoint_reuses_junction():
    view = one_street()
    central = insert_central_node(view, "s1", LAT0, east_of(LAT0, LON0, 40.0))
    # the foot of the projection is the endpoint itself
    assert central.node_id == "a"
    # the view is left as it was
    assert view.site_id is None
    assert [(src, dst) for src, dst, _ in view_edges(view, ["a", "b"])] == [("a", "b"), ("b", "a")]


def test_equidistant_edges_pick_lexicographically_smaller():
    # a -> b and c -> d lie 55 m either side of the position; the extract
    # lists its nodes in other orders than their ids, so a tie broken on
    # node rows would pick c -> d
    coords = {
        "a": (north_of(LAT0, 55.0), LON0),
        "b": (north_of(LAT0, 55.0), east_of(LAT0, LON0, 400.0)),
        "c": (north_of(LAT0, -55.0), LON0),
        "d": (north_of(LAT0, -55.0), east_of(LAT0, LON0, 400.0)),
    }
    tags = {"highway": "residential", "oneway": "yes"}
    for node_order in ("abcd", "cdab", "dcba"):
        for links in ([("a", "b"), ("c", "d")], [("c", "d"), ("a", "b")]):
            nodes = {n: coords[n] for n in node_order}
            view = view_of(nodes, [(list(link), tags) for link in links])
            insert_central_node(view, "sx", LAT0, east_of(LAT0, LON0, 200.0))
            hosts = {(src, dst) for src, dst, _ in view_edges(view, [*"abcd", "site:sx"])
                     if "site:sx" in (src, dst)}
            assert hosts == {("a", "site:sx"), ("site:sx", "b")}


def test_double_insert_same_sensor_rejected():
    view = one_street()
    insert_central_node(view, "s1", north_of(LAT0, 300.0), LON0)
    with pytest.raises(ArgumentError, match="already inserted"):
        insert_central_node(view, "s1", north_of(LAT0, 600.0), LON0)


def test_insert_into_empty_graph():
    # a view whose radius holds no road: DomainError (exit 3) before any snap
    street = one_street()
    view = RadiusView(street.raw, (LAT0 + 1.0, LON0), 1000.0)
    with pytest.raises(DomainError, match="no drivable roads within 1000 m") as exc:
        insert_central_node(view, "s1", LAT0 + 1.0, LON0)
    assert exc.value.exit_code == 3


def test_lanes_flow_through_split():
    view = one_street(500.0, speed_kph=50.0, cls="secondary", lanes="3")
    assert [arc.lanes for arc in view.arcs()] == [3, 3]
    central = insert_central_node(view, "s1", north_of(LAT0, 200.0), LON0)
    assert central.host_edge_lanes == 3


MINICITY_SENSORS = load_sensors(os.path.join(FIXTURE_DIR, "sensors.csv"))


@pytest.mark.parametrize("sensor", MINICITY_SENSORS, ids=lambda s: s.sensor_id)
def test_snap_does_not_depend_on_the_crop_center(minicity_raw, sensor):
    # the same position snapped on views cropped around itself and around
    # a point 0.002 degrees north must give the same node and split edges
    snaps = []
    for center in ((sensor.lat, sensor.lon), (sensor.lat + 0.002, sensor.lon)):
        view = RadiusView(minicity_raw, center, 2000.0)
        central = insert_central_node(view, sensor.sensor_id, sensor.lat, sensor.lon)
        touching = (view_edges(view, [central.node_id]) +
                    view_edges(view, [central.node_id], "in"))
        snaps.append((central, touching))
    assert snaps[0] == snaps[1]


# ---------------------------------------------------------------------------
# ego-graphs
# ---------------------------------------------------------------------------

SENSOR_X = ("sx", 40.4501, -3.6918)


def grid_with_sensor(minicity_raw):
    """A minicity view with sensor ``sx`` inserted, and its central node."""
    view = RadiusView(minicity_raw, MINICITY_CENTER, 2000.0)
    return view, insert_central_node(view, *SENSOR_X)


def oracle_split(minicity_raw):
    """The oracle's whole radius graph with ``sx`` inserted."""
    whole = build_graph_full_scan(minicity_raw, MINICITY_CENTER, 2000.0)
    return _insert_central_node_scan(whole, *SENSOR_X)[0]


def test_ego_requires_positive_hops(minicity_raw):
    view, central = grid_with_sensor(minicity_raw)
    with pytest.raises(ArgumentError):
        ego_graph(view, central, 0)


def test_ego_matches_bfs_oracle(minicity_raw):
    view, central = grid_with_sensor(minicity_raw)
    hops = bfs_hops(oracle_split(minicity_raw), central.node_id)
    for n in (1, 2, 3, 5):
        ego = ego_graph(view, central, n)
        assert set(ego.graph.nodes) == {v for v, h in hops.items() if h <= n}


def test_ego_monotone_in_hops(minicity_raw):
    view, central = grid_with_sensor(minicity_raw)
    prev: set[str] = set()
    for n in range(1, 7):
        cur = set(ego_graph(view, central, n).graph.nodes)
        assert prev <= cur
        prev = cur


def test_ego_hops_ignore_direction_but_edges_keep_it():
    # 9 -> 10 one-way: 9 still lies within one undirected hop of the site,
    # and the induced subgraph keeps only the 9 -> 10 direction.  Node 9
    # comes first in the extract, 10 first in id order: indices follow ids
    nodes = {"9": (LAT0, LON0), "10": (north_of(LAT0, 100.0), LON0)}
    view = view_of(nodes, [(["9", "10"], {"highway": "residential", "oneway": "yes"})])
    central = insert_central_node(view, "s1", north_of(LAT0, 50.0), LON0)
    ego = ego_graph(view, central, 1)
    assert ego.graph.nodes == ["10", "9", "site:s1"]
    assert index_pairs(ego.graph) == [("9", "site:s1"), ("site:s1", "10")]


def test_ego_induced_subgraph_keeps_interior_edges(minicity_raw):
    view, central = grid_with_sensor(minicity_raw)
    ego = ego_graph(view, central, 2)
    keep = ego.graph.nodes
    assert keep == sorted(keep)
    # every edge between two ego nodes, with its travel time, under its
    # source's index and in the oracle graph's edge order
    assert ego.graph == index_graph(oracle_split(minicity_raw), keep)


def test_ego_five_hops_spans_minicity(minicity_raw):
    view, central = grid_with_sensor(minicity_raw)
    ego = ego_graph(view, central, 5)
    assert set(ego.graph.nodes) == set(oracle_split(minicity_raw).nodes)


def test_perfbench_reads_the_ego_size(minicity_raw):
    # perfbench's traced runs count each ego_graph result's nodes from
    # outside the package; an EgoGraph change must not break that counter
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    view, central = grid_with_sensor(minicity_raw)
    ego = ego_graph(view, central, 2)
    assert len(ego.graph.nodes) > 1
    assert spans._ego_counts((), {}, ego) == {"nodes": len(ego.graph.nodes)}
