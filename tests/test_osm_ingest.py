import csv
from collections import Counter

import pytest

from helpers import east_of, node_coords, north_of, osm_doc, row_of, shapes_extract
from roadtwin.config import PipelineConfig
from roadtwin.errors import (
    DomainError,
    FormatError,
    InputError,
    ParseError,
    StructuralError,
)
from roadtwin.geo import LocalProjection, haversine_m, point_segment_projection
from roadtwin.osm_ingest import (
    EDGES_HEADER,
    NODES_HEADER,
    HighwayClass,
    RadiusView,
    build_graph,
    default_speed,
    graph_to_csv,
    parse_lanes,
    parse_maxspeed_kph,
    parse_osm_extract,
)
from roadtwin.road_graph import Edge
from test_index_embedding import assert_same_embedding

LAT0, LON0 = 40.0, -3.0


def two_node_doc(meters=1000.0, tags=None):
    nodes = {"1": (LAT0, LON0), "2": (north_of(LAT0, meters), LON0)}
    tags = {"highway": "residential", **(tags or {})}
    return osm_doc(nodes, [("10", ["1", "2"], tags)])


# ---------------------------------------------------------------------------
# tag parsing
# ---------------------------------------------------------------------------

def test_maxspeed_plain_number():
    assert parse_maxspeed_kph("50") == 50.0


def test_maxspeed_mph_converts_exactly():
    assert parse_maxspeed_kph("50 mph") == pytest.approx(80.4672, abs=1e-12)


def test_maxspeed_first_of_multiple_values():
    assert parse_maxspeed_kph("30;50") == 30.0


@pytest.mark.parametrize("raw", [None, "", "signals", "walk", "0", "-10"])
def test_maxspeed_unusable_values(raw):
    assert parse_maxspeed_kph(raw) is None


def test_lanes_parsing():
    assert parse_lanes("2") == 2
    assert parse_lanes("1;2") == 1
    assert parse_lanes("3.5") == 3
    assert parse_lanes("abc") is None
    assert parse_lanes("0") is None
    assert parse_lanes("") is None
    assert parse_lanes(None) is None


def test_default_speed_table():
    assert default_speed(HighwayClass.MOTORWAY) == 90.0
    assert default_speed(HighwayClass.RESIDENTIAL) == 30.0
    assert default_speed(HighwayClass.PRIMARY) == 50.0
    # link roads inherit their base class speed
    assert default_speed(HighwayClass.MOTORWAY_LINK) == 90.0


def test_default_speed_overrides():
    assert default_speed(HighwayClass.MOTORWAY_LINK, {"motorway_link": 70.0}) == 70.0
    # a base-class override also covers its link class
    assert default_speed(HighwayClass.MOTORWAY_LINK, {"motorway": 80.0}) == 80.0
    assert default_speed(HighwayClass.MOTORWAY, {"residential": 10.0}) == 90.0


# ---------------------------------------------------------------------------
# parsing documents
# ---------------------------------------------------------------------------

def test_minicity_way_census(minicity_raw):
    census = Counter(w.tags["highway"] for w in minicity_raw.ways)
    assert census == {
        "motorway": 1,
        "primary": 2,
        "secondary": 3,
        "tertiary": 3,
        "residential": 3,
    }
    assert len(minicity_raw.ways) == 12  # footway and cycleway dropped
    assert len(minicity_raw.node_ids) == 28


def test_parse_accepts_path_and_bytes(minicity_dir, minicity_raw):
    with open(f"{minicity_dir}/minicity.osm", "rb") as fh:
        from_bytes = parse_osm_extract(fh.read())
    assert node_coords(from_bytes) == node_coords(minicity_raw)
    assert len(from_bytes.ways) == len(minicity_raw.ways)


def test_malformed_xml_reports_byte_offset():
    doc = b'<?xml version="1.0"?>\n<osm>\n  <node id="1" lat="1.0></osm>'
    with pytest.raises(ParseError, match="byte"):
        parse_osm_extract(doc)
    try:
        parse_osm_extract(doc)
    except ParseError as exc:
        assert exc.exit_code == 2
        offset = int(str(exc).split("byte ")[1].split(":")[0])
        assert 0 <= offset <= len(doc)


def test_way_with_missing_node_ref():
    doc = osm_doc({"1": (LAT0, LON0)}, [("77", ["1", "999"], {"highway": "residential"})])
    with pytest.raises(StructuralError, match="77"):
        parse_osm_extract(doc)


def test_bad_node_attribute():
    doc = b'<osm><node id="1" lat="abc" lon="0"/></osm>'
    with pytest.raises(FormatError):
        parse_osm_extract(doc)


def test_nondrivable_ways_dropped():
    nodes = {"1": (LAT0, LON0), "2": (north_of(LAT0, 100), LON0)}
    doc = osm_doc(nodes, [("1", ["1", "2"], {"highway": "footway"})])
    raw = parse_osm_extract(doc)
    assert raw.ways == []
    assert len(raw.node_ids) == 2


# ---------------------------------------------------------------------------
# graph building
# ---------------------------------------------------------------------------

def test_travel_time_of_1000m_residential_default_speed():
    # 1000 m at the 30 km/h residential default is exactly 120 s
    raw = parse_osm_extract(two_node_doc(1000.0))
    g = build_graph(raw, center=(north_of(LAT0, 500), LON0), radius_m=2000.0)
    assert len(g.edges) == 2  # two-way
    for e in g.edges:
        assert e.length_m == pytest.approx(1000.0, abs=1e-6)
        assert e.speed_kph == 30.0
        assert e.travel_time_s == pytest.approx(120.0, abs=1e-6)


def test_maxspeed_mph_applied_to_edge():
    raw = parse_osm_extract(two_node_doc(1000.0, {"maxspeed": "50 mph"}))
    g = build_graph(raw, center=(north_of(LAT0, 500), LON0), radius_m=2000.0)
    e = g.edges[0]
    assert e.speed_kph == pytest.approx(80.4672)
    assert e.travel_time_s == pytest.approx(1000.0 / (80.4672 / 3.6), rel=1e-9)


def test_oneway_values():
    for truthy in ("yes", "true", "1"):
        raw = parse_osm_extract(two_node_doc(500.0, {"oneway": truthy}))
        g = build_graph(raw, center=(LAT0, LON0), radius_m=2000.0)
        assert len(g.edges) == 1
        assert (g.edges[0].src, g.edges[0].dst) == ("1", "2")
    for falsy in ("no", "0", "-1"):
        raw = parse_osm_extract(two_node_doc(500.0, {"oneway": falsy}))
        g = build_graph(raw, center=(LAT0, LON0), radius_m=2000.0)
        assert len(g.edges) == 2


def test_two_way_edges_mirror_each_other(minicity_graph):
    directed = {}
    for e in minicity_graph.edges:
        directed[(e.src, e.dst)] = e
    motorway = [e for e in minicity_graph.edges if e.highway_class is HighwayClass.MOTORWAY]
    assert motorway, "fixture should contain motorway edges"
    for e in motorway:  # oneway
        assert (e.dst, e.src) not in directed
    two_way = [e for e in minicity_graph.edges if e.highway_class is HighwayClass.PRIMARY]
    for e in two_way:
        rev = directed[(e.dst, e.src)]
        assert rev.length_m == e.length_m
        assert rev.travel_time_s == e.travel_time_s


def test_interior_nodes_absorbed_into_polyline():
    # 1 -- 2 -- 3 single way: node 2 belongs to one way only, so the edge
    # runs 1 -> 3 with the summed polyline length
    nodes = {
        "1": (LAT0, LON0),
        "2": (north_of(LAT0, 400), LON0),
        "3": (north_of(LAT0, 400), east_of(north_of(LAT0, 400), LON0, 300)),
    }
    doc = osm_doc(nodes, [("5", ["1", "2", "3"], {"highway": "residential"})])
    g = build_graph(parse_osm_extract(doc), center=(LAT0, LON0), radius_m=5000.0)
    assert set(g.nodes) == {"1", "3"}
    lengths = {e.length_m for e in g.edges}
    assert len(g.edges) == 2
    expected = haversine_m(*nodes["1"], *nodes["2"]) + haversine_m(*nodes["2"], *nodes["3"])
    for L in lengths:
        assert L == pytest.approx(expected, rel=1e-9)


def test_shared_node_between_ways_is_a_junction():
    nodes = {
        "1": (LAT0, LON0),
        "2": (north_of(LAT0, 400), LON0),
        "3": (north_of(LAT0, 800), LON0),
        "4": (north_of(LAT0, 400), east_of(north_of(LAT0, 400), LON0, 300)),
    }
    doc = osm_doc(
        nodes,
        [
            ("1", ["1", "2", "3"], {"highway": "residential"}),
            ("2", ["2", "4"], {"highway": "residential"}),
        ],
    )
    g = build_graph(parse_osm_extract(doc), center=(LAT0, LON0), radius_m=5000.0)
    assert set(g.nodes) == {"1", "2", "3", "4"}


def test_minicity_node_and_edge_counts(minicity_graph):
    # 25 junctions (way-interior bends are absorbed); directed edge census:
    # motorway 4 (oneway), primary 16, secondary 24, tertiary 24,
    # residential 11 (one oneway connector, one polyline pair)
    assert len(minicity_graph.nodes) == 25
    census = Counter(e.highway_class.base.value for e in minicity_graph.edges)
    assert census == {
        "motorway": 4,
        "primary": 16,
        "secondary": 24,
        "tertiary": 24,
        "residential": 11,
    }


def test_radius_filter_drops_far_nodes(minicity_raw):
    g = build_graph(minicity_raw, center=(40.45, -3.69), radius_m=300.0)
    assert 0 < len(g.nodes) < 25
    for n, (lat, lon) in g.nodes.items():
        assert haversine_m(40.45, -3.69, lat, lon) <= 300.0


def test_no_drivable_roads_in_radius_is_domain_error(minicity_raw):
    with pytest.raises(DomainError, match="no drivable roads"):
        build_graph(minicity_raw, center=(10.0, 10.0), radius_m=1000.0)


def test_speed_override_changes_travel_time():
    raw = parse_osm_extract(two_node_doc(1000.0))
    g = build_graph(raw, center=(LAT0, LON0), radius_m=5000.0,
                    speed_overrides={"residential": 60.0})
    assert g.edges[0].speed_kph == 60.0
    assert g.edges[0].travel_time_s == pytest.approx(60.0, abs=1e-6)


def test_chord_box_keeps_every_edge_the_snap_can_pick():
    """The near query keeps a piece by the box of its chord, not of its
    geometry; the snap projects onto chords, so no snap changes."""
    raw, probes = shapes_extract()
    lat, lon = probes["hook"]
    proj = LocalProjection(lat, lon)
    # the bend comes within 100 m of the position, its chord does not
    coords = node_coords(raw)
    assert haversine_m(lat, lon, *coords["hk1"]) < 100.0
    chord_m = point_segment_projection(
        0.0, 0.0, *proj.to_xy(*coords["s_e"]), *proj.to_xy(*coords["hk2"])
    )[1]
    assert 150.0 < chord_m < 170.0
    view = RadiusView(raw, (lat, lon), 2000.0)
    hk2 = row_of(view, "hk2")
    assert not [a for a in view.arcs_near(lat, lon, 100.0) if hk2 in (a.src, a.dst)]
    assert {(view.node_id(a.src), view.node_id(a.dst)) for a in view.arcs_near(lat, lon, 170.0)} == {
        ("s_e", "hk2"), ("hk2", "s_e")}

    outcomes = {}
    for radius_m in (150.0, 230.0, 400.0, 1000.0, 2000.0):
        for threshold in (100.0, 170.0, 200.0, 300.0):
            cfg = PipelineConfig(radius_m=radius_m, snap_threshold_m=threshold)
            got = assert_same_embedding(raw, cfg, "hook", lat, lon)
            outcomes[radius_m, threshold] = got if isinstance(got[0], str) else got[1]
    assert outcomes[150.0, 100.0][0] == "DomainError"
    assert outcomes[2000.0, 100.0] == (
        "SnapError",
        f"sensor 'hook': nearest edge is {chord_m:.1f} m away, beyond the 100.0 m snap threshold",
    )
    for threshold in (170.0, 200.0, 300.0):
        central = outcomes[2000.0, threshold]
        assert (central.node_id, central.host_edge_class) == ("site:hook", HighwayClass.RESIDENTIAL)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

def read_graph_csv(nodes_csv, edges_csv):
    """(nodes, edges) read back from graph_to_csv's text; '#' lines skipped."""
    nrows, erows = (
        list(csv.reader(l for l in text.splitlines() if not l.startswith("#")))
        for text in (nodes_csv, edges_csv)
    )
    assert (nrows[0], erows[0]) == (NODES_HEADER, EDGES_HEADER)
    nodes = {n: (float(lat), float(lon)) for n, lat, lon in nrows[1:]}
    edges = [Edge(a, b, float(m), float(v), float(t), HighwayClass(c), int(k) if k else None)
             for a, b, m, v, t, c, k in erows[1:]]
    return nodes, edges


def test_graph_csv_round_trip(minicity_graph):
    nodes, edges = read_graph_csv(*graph_to_csv(minicity_graph))
    assert nodes == minicity_graph.nodes
    assert edges == minicity_graph.edges  # exact float round-trip


def test_graph_csv_hash_comment(minicity_graph):
    nodes_csv, edges_csv = graph_to_csv(minicity_graph, config_hash="ab12")
    assert nodes_csv.startswith("# config_hash=ab12\n")
    assert edges_csv.startswith("# config_hash=ab12\n")
    # the comment is one line ahead of an unchanged body
    assert read_graph_csv(nodes_csv, edges_csv) == read_graph_csv(*graph_to_csv(minicity_graph))


def test_parse_missing_file_is_input_error(tmp_path):
    with pytest.raises(InputError):
        parse_osm_extract(str(tmp_path / "nope.osm"))
