import math
import statistics

import pytest
from hypothesis import given, strategies as st

from helpers import LAT0, LON0, east_of, emb, geo_edge, make_graph, north_of
from oracles import enumerate_spbc, pair_count_spbc
from roadtwin.config import DECISIONS
from roadtwin.errors import ArgumentError
from roadtwin.embedding import (
    DEFAULT_LANES,
    EMBEDDING_DIMS,
    UNREACHABLE,
    betweenness,
    build_embedding,
    normalize_pool,
    road_type_code,
    summarize_centrality,
    travel_time_to_class,
)
from roadtwin.osm_ingest import HighwayClass
from roadtwin.road_graph import (
    Edge,
    EgoGraph,
    RoadGraph,
    ego_graph,
    index_graph,
    insert_central_node,
)


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    names = [chr(97 + i) for i in range(n)]
    pairs = [(u, v) for u in names for v in names if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    triples = [(u, v, draw(st.integers(min_value=1, max_value=9))) for u, v in chosen]
    g = make_graph(triples)
    for name in names:
        if name not in g.nodes:
            return make_graph(triples + [(names[0], name, 1)])
    return g


# ---------------------------------------------------------------------------
# betweenness
# ---------------------------------------------------------------------------

def spbc(g: RoadGraph) -> dict[str, float]:
    """Betweenness of a whole hand-built graph, through its index form."""
    return betweenness(index_graph(g, g.nodes))


def test_spbc_middle_of_directed_path():
    g = make_graph([("a", "b", 1), ("b", "c", 1)])
    assert spbc(g) == {"a": 0.0, "b": 1.0, "c": 0.0}


def test_spbc_star_center_counts_ordered_pairs():
    # 3 leaves fully connected through the hub, both directions:
    # 3 * 2 = 6 ordered leaf pairs all pass the hub
    triples = []
    for leaf in ("x", "y", "z"):
        triples += [("c", leaf, 1), (leaf, "c", 1)]
    bc = spbc(make_graph(triples))
    assert bc["c"] == 6.0
    assert bc["x"] == bc["y"] == bc["z"] == 0.0


def test_spbc_splits_between_equal_time_routes():
    # two disjoint a->...->c routes of identical travel time share the count
    assert DECISIONS["spbc_convention"] == "unnormalized_endpoint_excluded_all_equal_paths"
    g = make_graph([("a", "b", 2), ("b", "c", 2), ("a", "d", 1), ("d", "c", 3)])
    bc = spbc(g)
    # both equal-time routes count, the pair's endpoints score nothing and
    # the half shares stay unnormalized; the map is in sorted-id order
    assert list(bc.items()) == [("a", 0.0), ("b", 0.5), ("c", 0.0), ("d", 0.5)]


def test_spbc_directed_cycle():
    g = make_graph([("a", "b", 1), ("b", "c", 1), ("c", "a", 1)])
    bc = spbc(g)
    assert bc == {"a": 1.0, "b": 1.0, "c": 1.0}


def test_spbc_endpoints_excluded():
    g = make_graph([("a", "b", 1), ("b", "c", 1), ("c", "d", 1)])
    bc = spbc(g)
    # b is interior for (a,c), (a,d); c for (a,d), (b,d)
    assert bc == {"a": 0.0, "b": 2.0, "c": 2.0, "d": 0.0}


@given(small_digraphs())
def test_spbc_matches_exhaustive_enumeration(g):
    got = spbc(g)
    want = enumerate_spbc(g)
    for n in g.nodes:
        assert abs(got[n] - want[n]) < 1e-9


@given(small_digraphs())
def test_spbc_matches_pair_count_identity(g):
    got = spbc(g)
    want = pair_count_spbc(g)
    for n in g.nodes:
        assert abs(got[n] - want[n]) < 1e-9


@given(small_digraphs(), st.sampled_from([0.5, 2.0, 8.0]))
def test_spbc_invariant_under_time_rescaling(g, k):
    scaled = RoadGraph(
        g.nodes,
        [Edge(e.src, e.dst, e.length_m, e.speed_kph, e.travel_time_s * k, e.highway_class)
         for e in g.edges],
    )
    assert spbc(g) == spbc(scaled)


def test_spbc_on_minicity_matches_pair_count(minicity_graph):
    # Path-tie detection compares float travel-time sums exactly, so the
    # cross-check runs on a whole-second copy of the graph where equal
    # routes sum identically regardless of addition order.  The topology
    # (25 junctions, one-way roads, equal-time grid detours) is untouched.
    seconds = RoadGraph(
        minicity_graph.nodes,
        [Edge(e.src, e.dst, e.length_m, e.speed_kph, float(round(e.travel_time_s)),
              e.highway_class, e.lanes)
         for e in minicity_graph.edges],
    )
    got = spbc(seconds)
    want = pair_count_spbc(seconds)
    assert set(got) == set(want)
    for n in got:
        assert abs(got[n] - want[n]) < 1e-9 * max(1.0, abs(want[n]))


def test_spbc_parallel_edges_multiply_counts():
    # two identical a->b edges double sigma(a, c) through b? No: parallel
    # edges a->b make two distinct shortest a->b routes, so for pair (a, c)
    # both run through b and b still scores 1.0 (2/2), while sigma doubles.
    nodes = {n: (0.0, 0.0) for n in "abc"}
    e = lambda u, v, w: Edge(u, v, w, 3.6, w, HighwayClass.RESIDENTIAL)
    g = RoadGraph(nodes, [e("a", "b", 1.0), e("a", "b", 1.0), e("b", "c", 1.0)])
    got = spbc(g)
    want = enumerate_spbc(g)
    assert got == want
    assert got["b"] == 1.0


# ---------------------------------------------------------------------------
# centrality summary features
# ---------------------------------------------------------------------------

def test_summary_median_averages_central_pair():
    spbc = {"c": 1.0, "n1": 0.0, "n2": 2.0, "n3": 4.0, "n4": 10.0}
    assert summarize_centrality(spbc, "c") == (1.0, 10.0, 3.0)


def test_summary_odd_count_median():
    spbc = {"c": 7.0, "n1": 1.0, "n2": 5.0, "n3": 9.0}
    assert summarize_centrality(spbc, "c") == (7.0, 9.0, 5.0)


def test_summary_center_only_graph():
    f1, f2, f3 = summarize_centrality({"c": 3.0}, "c")
    assert (f1, f2, f3) == (3.0, 0.0, 0.0)


def test_summary_max_never_below_median():
    spbc = {"c": 0.0, "a": 1.0, "b": 2.0, "d": 3.0, "e": 8.0}
    _, f2, f3 = summarize_centrality(spbc, "c")
    assert f2 >= f3


# ---------------------------------------------------------------------------
# travel time to road class
# ---------------------------------------------------------------------------

def chain_graph():
    """central node sits mid first leg; a primary edge hangs off the far end."""
    nodes = {
        "n1": (LAT0, LON0),
        "n2": (north_of(LAT0, 500.0), LON0),
        "n3": (north_of(LAT0, 900.0), LON0),
        "n4": (north_of(LAT0, 1400.0), LON0),
    }
    edges = []
    for src, dst, cls in (("n1", "n2", HighwayClass.RESIDENTIAL),
                          ("n2", "n3", HighwayClass.RESIDENTIAL),
                          ("n3", "n4", HighwayClass.PRIMARY)):
        edges.append(geo_edge(src, dst, nodes, cls, speed_kph=36.0))
        edges.append(geo_edge(dst, src, nodes, cls, speed_kph=36.0))
    return RoadGraph(nodes, edges)


def test_travel_time_to_primary_is_time_to_nearest_endpoint():
    g = chain_graph()
    g2, central = insert_central_node(g, "s1", north_of(LAT0, 250.0), east_of(LAT0, LON0, 10.0))
    # 36 km/h = 10 m/s: 250 m to n2 plus 400 m to n3 -> 65 s
    t = travel_time_to_class(g2, central, HighwayClass.PRIMARY)
    assert t == pytest.approx(65.0, rel=1e-6)


def test_travel_time_zero_when_host_matches_class():
    nodes = {"a": (LAT0, LON0), "b": (north_of(LAT0, 800.0), LON0)}
    edges = [geo_edge("a", "b", nodes, HighwayClass.PRIMARY, 50.0),
             geo_edge("b", "a", nodes, HighwayClass.PRIMARY, 50.0)]
    g = RoadGraph(nodes, edges)
    g2, central = insert_central_node(g, "s1", north_of(LAT0, 300.0), LON0)
    assert travel_time_to_class(g2, central, HighwayClass.PRIMARY) == 0.0


def test_travel_time_link_class_counts_as_base():
    nodes = {"a": (LAT0, LON0), "b": (north_of(LAT0, 800.0), LON0)}
    edges = [geo_edge("a", "b", nodes, HighwayClass.MOTORWAY_LINK, 60.0),
             geo_edge("b", "a", nodes, HighwayClass.MOTORWAY_LINK, 60.0)]
    g = RoadGraph(nodes, edges)
    g2, central = insert_central_node(g, "s1", north_of(LAT0, 300.0), LON0)
    assert travel_time_to_class(g2, central, HighwayClass.MOTORWAY) == 0.0


def test_travel_time_unreachable_class_is_sentinel():
    g = chain_graph()  # no motorway anywhere
    g2, central = insert_central_node(g, "s1", north_of(LAT0, 250.0), LON0)
    assert travel_time_to_class(g2, central, HighwayClass.MOTORWAY) == UNREACHABLE


def test_travel_time_only_defined_for_major_classes():
    g = chain_graph()
    g2, central = insert_central_node(g, "s1", north_of(LAT0, 250.0), LON0)
    with pytest.raises(ArgumentError):
        travel_time_to_class(g2, central, HighwayClass.TERTIARY)


# ---------------------------------------------------------------------------
# codes, lanes, full embedding
# ---------------------------------------------------------------------------

def test_road_type_codes_are_evenly_spaced():
    assert road_type_code(HighwayClass.RESIDENTIAL) == 0.0
    assert road_type_code(HighwayClass.TERTIARY) == 0.25
    assert road_type_code(HighwayClass.SECONDARY) == 0.5
    assert road_type_code(HighwayClass.PRIMARY) == 0.75
    assert road_type_code(HighwayClass.MOTORWAY) == 1.0
    assert road_type_code(HighwayClass.PRIMARY_LINK) == 0.75
    assert road_type_code(HighwayClass.MOTORWAY_LINK) == 1.0


def test_default_lane_counts():
    assert DEFAULT_LANES[HighwayClass.RESIDENTIAL] == 1
    assert DEFAULT_LANES[HighwayClass.TERTIARY] == 1
    assert DEFAULT_LANES[HighwayClass.SECONDARY] == 2
    assert DEFAULT_LANES[HighwayClass.PRIMARY] == 2
    assert DEFAULT_LANES[HighwayClass.MOTORWAY] == 3


def embedded_street(lanes=None, lanes_override=None, road_type_override=None):
    nodes = {"a": (LAT0, LON0), "b": (north_of(LAT0, 600.0), LON0)}
    e1 = geo_edge("a", "b", nodes, HighwayClass.SECONDARY, 50.0, lanes=lanes)
    e2 = geo_edge("b", "a", nodes, HighwayClass.SECONDARY, 50.0, lanes=lanes)
    g = RoadGraph(nodes, [e1, e2])
    g2, central = insert_central_node(g, "s1", north_of(LAT0, 200.0), LON0)
    ego = ego_graph(g2, central, 5)
    return build_embedding(g2, ego, central, sensor_id="s1",
                           lanes_override=lanes_override,
                           road_type_override=road_type_override)


def test_lanes_default_by_class():
    assert embedded_street().lanes == 2.0


def test_lanes_tag_beats_default():
    assert embedded_street(lanes=3).lanes == 3.0


def test_lanes_override_beats_tag():
    assert embedded_street(lanes=3, lanes_override=5).lanes == 5.0


def test_road_type_override():
    e = embedded_street(road_type_override=HighwayClass.TERTIARY)
    assert e.road_type_code == 0.25


def test_embedding_vector_order_and_contents():
    e = embedded_street()
    assert len(e.raw_vector()) == EMBEDDING_DIMS
    assert e.raw_vector() == (
        e.spbc_central,
        e.spbc_neighbors_max,
        e.spbc_neighbors_median,
        e.travel_time_motorway_s,
        e.travel_time_primary_s,
        e.road_type_code,
        e.lanes,
    )
    assert e.travel_time_motorway_s == UNREACHABLE  # no motorway around
    assert e.road_type_code == 0.5
    assert e.sensor_id == "s1"


def test_single_node_ego_is_flagged():
    # the central node reuses a junction whose every neighbour is beyond
    # zero hops only when the graph is a single point -- force it by
    # sub-hop isolation: a graph with one edge, ego of the far junction
    nodes = {"a": (LAT0, LON0), "b": (north_of(LAT0, 600.0), LON0)}
    g = RoadGraph(nodes, [geo_edge("a", "b", nodes, HighwayClass.SECONDARY, 50.0)])
    g2, central = insert_central_node(g, "s1", north_of(LAT0, 300.0), LON0)
    ego = EgoGraph(graph=index_graph(g2, [central.node_id]), center=central)
    e = build_embedding(g2, ego, central, sensor_id="s1")
    assert "single_node_ego" in e.notes
    assert e.spbc_neighbors_max == 0.0
    assert e.spbc_neighbors_median == 0.0


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_pool_min_max():
    assert DECISIONS["feature_scaling"] == "min_max_over_joint_pool"
    a = emb("a", [0] * 7, raw=[0, 0, 0, 10, 10, 0.0, 1])
    b = emb("b", [0] * 7, raw=[4, 8, 2, 30, 20, 0.5, 2])
    c = emb("c", [0] * 7, raw=[8, 4, 1, 20, 30, 1.0, 3])
    out = normalize_pool([a, b, c])
    assert out[0].normalized == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert out[1].normalized == (0.5, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5)
    assert out[2].normalized == (1.0, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0)


def test_normalize_sentinel_maps_to_one_and_is_excluded_from_range():
    a = emb("a", [0] * 7, raw=[0, 0, 0, 60.0, 0, 0, 1])
    b = emb("b", [0] * 7, raw=[0, 0, 0, UNREACHABLE, 0, 0, 1])
    c = emb("c", [0] * 7, raw=[0, 0, 0, 120.0, 0, 0, 1])
    out = normalize_pool([a, b, c])
    col = [e.normalized[3] for e in out]
    assert col == [0.0, 1.0, 1.0]  # sentinel pinned to 1, max finite also 1


def test_normalize_constant_column_is_zero():
    a = emb("a", [0] * 7, raw=[5, 1, 1, 10, 10, 0.5, 2])
    b = emb("b", [0] * 7, raw=[5, 2, 1, 20, 10, 0.5, 2])
    out = normalize_pool([a, b])
    assert out[0].normalized[0] == 0.0 and out[1].normalized[0] == 0.0
    assert out[0].normalized[5] == 0.0 and out[1].normalized[5] == 0.0


def test_normalize_all_sentinel_column():
    a = emb("a", [0] * 7, raw=[0, 0, 0, UNREACHABLE, 0, 0, 1])
    b = emb("b", [0] * 7, raw=[1, 0, 0, UNREACHABLE, 0, 0, 1])
    out = normalize_pool([a, b])
    assert [e.normalized[3] for e in out] == [1.0, 1.0]


def test_normalize_requires_at_least_two():
    with pytest.raises(ArgumentError):
        normalize_pool([emb("a", [0] * 7)])


@given(st.lists(
    st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=7, max_size=7),
    min_size=2, max_size=10))
def test_normalize_bounds_property(rows):
    pool = [emb(f"s{i}", [0] * 7, raw=row) for i, row in enumerate(rows)]
    out = normalize_pool(pool)
    for e in out:
        for v in e.normalized:
            assert 0.0 <= v <= 1.0
    # every non-constant column attains both 0 and 1
    for j in range(7):
        vals = [e.normalized[j] for e in out]
        raws = {row[j] for row in rows}
        if len(raws) > 1:
            assert math.isclose(min(vals), 0.0, abs_tol=1e-12)
            assert math.isclose(max(vals), 1.0, abs_tol=1e-12)


def test_minicity_embeddings_have_max_at_least_median(minicity_graph):
    assert DECISIONS["centrality_neighbor_scope"] == "all_ego_nodes_except_center"
    g2, central = insert_central_node(minicity_graph, "sx", 40.4501, -3.6918)
    ego = ego_graph(g2, central, 5)
    centrality = betweenness(ego.graph)
    f1, f2, f3 = summarize_centrality(centrality, central.node_id)
    assert f2 >= f3 >= 0.0
    assert f1 >= 0.0
    # the neighbourhood is every ego node but the center
    others = [centrality[v] for v in ego.graph.nodes if v != central.node_id]
    assert len(others) == len(ego.graph.nodes) - 1 > 1
    assert (f1, f2, f3) == (centrality[central.node_id], max(others), statistics.median(others))
    e = build_embedding(g2, ego, central)
    assert (e.spbc_central, e.spbc_neighbors_max, e.spbc_neighbors_median) == (f1, f2, f3)
