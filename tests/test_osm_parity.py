"""parse_osm_extract reads canonical documents in array passes over their
bytes and streams every other one through expat's element handlers: both
must give exactly what the ElementTree walk gives (``oracles``), down to
node order and error messages, and report the true byte index of an XML
error."""
import importlib.util
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import FIXTURE_DIR
from helpers import grid_extract, node_coords, osm_doc, way_triples
from oracles import parse_osm_extract_etree
from roadtwin import osm_ingest
from roadtwin.errors import ParseError, StructuralError
from roadtwin.osm_ingest import RawRoadData, parse_osm_extract

DRIVABLE = '<tag k="highway" v="residential"/>'


def outcome(parse, data):
    try:
        raw = parse(data)
    except Exception as exc:  # the exception is the result under comparison
        return type(exc), str(exc)
    return list(node_coords(raw).items()), way_triples(raw)


def assert_same_parse(data):
    expected = outcome(parse_osm_extract_etree, data)
    assert outcome(parse_osm_extract, data) == expected
    return expected


def test_minicity_parses_the_same():
    with open(os.path.join(FIXTURE_DIR, "minicity.osm"), "rb") as fh:
        nodes, ways = assert_same_parse(fh.read())
    assert len(nodes) == 28 and len(ways) == 12


def test_generated_grid_parses_the_same():
    raw = grid_extract()
    coords = node_coords(raw)
    doc = osm_doc(coords, way_triples(raw))
    nodes, ways = assert_same_parse(doc)
    assert dict(nodes) == coords and ways == way_triples(raw)


def node(nid, lat="40.0", lon="-3.0"):
    return f'<node id="{nid}" lat="{lat}" lon="{lon}"/>'


def way(wid, refs, extra=""):
    return f'<way id="{wid}">' + "".join(f'<nd ref="{r}"/>' for r in refs) + extra + "</way>"


def osm(*body, head=""):
    return (head + "<osm>\n" + "\n".join(body) + "\n</osm>").encode("ascii")


NODES = node("1") + node("2", "40.001") + node("3", "40.002")

EDGE_CASES = {
    "nodes_nested_under_another_element": osm(
        NODES, "<group>" + node("9") + way("8", ["1", "9"], DRIVABLE) + "</group>",
        way("5", ["1", "2"], DRIVABLE)),
    "nd_nested_under_a_tag": osm(
        NODES, way("5", ["1"], '<tag k="highway" v="primary"><nd ref="3"/></tag><nd ref="2"/>')),
    "way_nested_under_a_node": osm(
        '<node id="1" lat="40" lon="-3">' + way("5", ["1", "7"], DRIVABLE) + "</node>"),
    "namespaced_node_and_way": osm(
        NODES, '<o:node xmlns:o="urn:o" id="4" lat="1" lon="2"/>',
        '<way xmlns="urn:o" id="6"><nd ref="1"/><nd ref="4"/>' + DRIVABLE + "</way>",
        way("5", ["1", "3"], DRIVABLE + '<o:tag xmlns:o="urn:o" k="oneway" v="yes"/>')),
    "default_namespace_on_the_root": (
        b'<osm xmlns="urn:osm">' + NODES.encode() + way("5", ["1", "2"], DRIVABLE).encode()
        + b"</osm>"),
    "namespaced_id_attribute": osm('<node xmlns:o="urn:o" o:id="1" lat="1" lon="2"/>'),
    "duplicate_node_ids": osm(
        node("1"), node("2"), node("1", "41.5"), way("5", ["2", "1"], DRIVABLE)),
    "comments_pis_and_cdata": osm(
        "<!-- a comment -->", "<?pi data?>", NODES,
        way("5", ["1", "2"], "<!-- c --><?pi x?><![CDATA[<nd ref='3'/>]]>text" + DRIVABLE)),
    "internal_dtd_entity": osm(
        NODES, way("5", ["1", "&two;"], '<tag k="highway" v="&hw;"/>'),
        head='<!DOCTYPE osm [<!ENTITY hw "tertiary"><!ENTITY two "2">]>\n'),
    "undefined_entity": osm(NODES, way("5", ["1", "&two;"], DRIVABLE)),
    "undefined_entity_under_an_external_dtd": osm(
        NODES, way("5", ["1", "2"], "&two;" + DRIVABLE), head='<!DOCTYPE osm SYSTEM "osm.dtd">\n'),
    "external_entity": osm(
        NODES, "&ext;", head='<!DOCTYPE osm [<!ENTITY ext SYSTEM "ext.xml">]>\n'),
    "external_entity_inside_an_internal_one": osm(
        NODES, "&outer;",
        head='<!DOCTYPE osm [<!ENTITY outer "x&ext;y"><!ENTITY ext SYSTEM "e.xml">]>\n'),
    "junk_after_the_root": osm(NODES) + b"\n<extra/>",
    "empty_document": b"",
    "whitespace_only": b"  \n",
    "unclosed_root": b"<osm>\n" + NODES.encode(),
    "mismatched_tag": osm(NODES, "<way id='5'></node>"),
    "bad_lat_then_malformed_xml": osm(node("1", "abc"), "<way>"),
    "bad_lat": osm(node("1", "abc"), node("2")),
    "missing_id": osm(NODES, '<node lat="1" lon="2"/>'),
    "missing_id_and_bad_lat": osm('<node lat="x" lon="2"/>'),
    "bad_node_before_a_missing_reference": osm(
        way("5", ["1", "99"], DRIVABLE), node("1", lon="west")),
    "way_references_a_missing_node": osm(NODES, way("77", ["1", "99"], DRIVABLE)),
    "missing_reference_in_a_dropped_way": osm(
        NODES, way("5", ["1", "99"], '<tag k="highway" v="footway"/>')),
    "way_without_id_or_refs": osm(NODES, "<way><nd/>" + DRIVABLE + "</way>"),
    "other_root_name_and_bom": b"\xef\xbb\xbf" + osm(NODES).replace(b"osm>", b"map>"),
    "latin1_declaration": (
        b'<?xml version="1.0" encoding="ISO-8859-1"?>\n'
        + osm(NODES, way("5", ["1", "2"], DRIVABLE + '<tag k="name" v="Calle"/>'))
        .replace(b"Calle", b"Le\xf3n")),
    # float() reads both as 40.5; neither is a decimal number
    "underscore_in_a_coordinate": osm(NODES, node("4", "4_0.5")),
    "arabic_indic_digits_in_a_coordinate": (
        "<osm>\n" + NODES + "\n" + node("4", "\u0664\u0660.\u0665") + "\n</osm>").encode(),
}


@pytest.mark.parametrize("data", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_edge_case_parses_the_same(data):
    assert_same_parse(data)


def test_edge_cases_cover_every_outcome():
    first = [outcome(parse_osm_extract, d)[0] for d in EDGE_CASES.values()]
    kinds = {f.__name__ if isinstance(f, type) else "parsed" for f in first}
    assert kinds == {"parsed", "ParseError", "FormatError", "StructuralError"}


EXTERNAL_DTD_DOC = EDGE_CASES["undefined_entity_under_an_external_dtd"]


@pytest.mark.parametrize("data, offset, at", [
    # expat places a mismatched end tag at its name; the column counts
    # characters, so a two-byte character before it shifts the byte index
    ("<osm><node id='é' lat='1' lon='2'/><bad></osm>".encode("utf-8"), 43, b"osm>"),
    # lines ended by CR alone, then by CRLF
    (b"<osm>\r<node id='1' lat='1' lon='2'/>\r<bad></osm>", 44, b"osm>"),
    (b"<osm>\r\n<node id='1' lat='1' lon='2'/>\r\n<bad></osm>", 46, b"osm>"),
    (b"", 0, b""),
    (b"<osm></osm>\n<x/>", 12, b"<x/>"),
    (EXTERNAL_DTD_DOC, EXTERNAL_DTD_DOC.index(b"&two;"), b"&two;"),
])
def test_parse_error_reports_the_true_byte_index(data, offset, at):
    with pytest.raises(ParseError, match=f"^malformed XML at byte {offset}: "):
        parse_osm_extract(data)
    assert data[offset:].startswith(at)


# documents composed of the pieces the parsers treat differently: ids
# collide and go missing, elements nest where they are not read, and some
# pieces are namespaced, malformed or not XML at all
IDS = st.sampled_from(["1", "2", "3", "4"])
COORD = st.sampled_from(["40.0", "-3.5", "1e2", "40.25", " 7 "])
OPAQUE = st.sampled_from(["<!-- c -->", "<?pi x?>", "<![CDATA[<node/>]]>", "text", "&amp;",
                          "&#65;", "&zz;", "", "", ""])


@st.composite
def nodes(draw):
    attrs = {"id": draw(IDS), "lat": draw(COORD), "lon": draw(COORD)}
    fault = draw(st.sampled_from([None] * 7 + ["id", "lat", "abc", ""]))
    if fault in attrs:
        del attrs[fault]
    elif fault is not None:
        attrs["lon"] = fault
    name = draw(st.sampled_from(["node", "node", "node", "n:node"]))
    return f"<{name} " + " ".join(f'{k}="{v}"' for k, v in attrs.items()) + "/>"


@st.composite
def way_children(draw):
    kind = draw(st.sampled_from(["nd", "nd", "nd", "tag", "tag", "nested", "opaque"]))
    if kind == "nd":
        return f'<nd ref="{draw(st.sampled_from(["1", "2", "3", "1", "2", "9"]))}"/>'
    if kind == "tag":
        k = draw(st.sampled_from(["highway", "highway", "oneway", "name", "surface"]))
        v = draw(st.sampled_from(["residential", "motorway_link", "primary", "footway", "yes"]))
        return f'<tag k="{k}" v="{v}"/>'
    if kind == "nested":
        return f"<tag k=\"highway\" v=\"primary\">{draw(way_children())}</tag>"
    return draw(OPAQUE)


@st.composite
def ways(draw):
    name = draw(st.sampled_from(["way", "way", "way", "n:way"]))
    children = draw(st.lists(way_children(), max_size=6))
    return f'<{name} id="{draw(IDS)}">' + "".join(children) + f"</{name}>"


ROOT_CHILD = st.deferred(lambda: st.one_of(
    nodes(), ways(), OPAQUE,
    st.lists(ROOT_CHILD, max_size=3).map(lambda kids: "<group>" + "".join(kids) + "</group>"),
))


@st.composite
def documents(draw):
    body = "\n".join(draw(st.lists(nodes(), max_size=4)) + draw(st.lists(ROOT_CHILD, max_size=8)))
    tail = draw(st.sampled_from([""] * 8 + ["<junk/>", "<unclosed>"]))
    return f'<osm xmlns:n="urn:n">\n{body}\n{tail}</osm>\n'.encode("ascii")


@given(documents())
def test_composed_documents_parse_the_same(data):
    assert_same_parse(data)


# ---------------------------------------------------------------------------
# the byte path: canonical documents never reach the element handlers
# ---------------------------------------------------------------------------

def block_fallback(monkeypatch):
    """Make the element-handler parse fail loudly, to prove a document
    takes the byte path."""
    def refuse(data):
        raise AssertionError("element handlers used for a canonical document")

    monkeypatch.setattr(osm_ingest, "_parse_events", refuse)


def path_taken(monkeypatch, data):
    """The outcome of parse_osm_extract on ``data`` and the path that gave it."""
    paths = []
    events = osm_ingest._parse_events

    def spy(data):
        paths.append("events")
        return events(data)

    monkeypatch.setattr(osm_ingest, "_parse_events", spy)
    return outcome(parse_osm_extract, data), (paths or ["bytes"])[0]


def _perfbench_gen():
    """``perfbench/gen.py``, imported by path (perfbench is not a package)."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "gen.py")
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


GEN = _perfbench_gen()


def bench_city(tmp_path, grid, seed=5):
    """The benchmark's bench city at ``grid`` x ``grid`` junctions, as bytes."""
    out = tmp_path / "city.osm"
    GEN.write_city(str(out), grid, np.random.default_rng(seed))
    return out.read_bytes()


def test_minicity_takes_the_byte_path(monkeypatch):
    with open(os.path.join(FIXTURE_DIR, "minicity.osm"), "rb") as fh:
        data = fh.read()
    want = outcome(parse_osm_extract_etree, data)
    block_fallback(monkeypatch)
    assert outcome(parse_osm_extract, data) == want
    assert len(want[0]) == 28 and len(want[1]) == 12


def test_bench_city_takes_the_byte_path(tmp_path, monkeypatch):
    data = bench_city(tmp_path, 12)
    want = outcome(parse_osm_extract_etree, data)
    block_fallback(monkeypatch)
    raw = parse_osm_extract(data)
    assert (list(node_coords(raw).items()), way_triples(raw)) == want
    assert len(want[0]) == 12 * 12 + 2 * 12 * 11 * 3 and len(want[1]) == 24  # footways dropped


def test_both_front_ends_give_one_flat_form(tmp_path):
    with open(os.path.join(FIXTURE_DIR, "minicity.osm"), "rb") as fh:
        documents = [bench_city(tmp_path, 6), fh.read()]
    for data in documents:
        got = osm_ingest._parse_canonical(data)
        want = osm_ingest._parse_events(data)
        assert got.node_ids == want.node_ids
        for name in ("lat", "lon", "occ_node", "way_start"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert got.ways == want.ways


def test_plain_data_rejects_an_undefined_ref_as_the_parser_does():
    want = outcome(parse_osm_extract_etree, EDGE_CASES["way_references_a_missing_node"])
    nodes = {"1": (40.0, -3.0), "2": (40.001, -3.0), "3": (40.002, -3.0)}
    ways = [("5", ["1", "2"], {"highway": "residential"}),
            ("77", ["1", "99", "98"], {"highway": "residential"})]
    with pytest.raises(StructuralError) as info:
        RawRoadData.of(nodes, ways)
    assert (StructuralError, str(info.value)) == want


KEPT_TAGS = st.sampled_from([
    ("oneway", "yes"), ("name", "Calle Mayor"), ("name", "Le\u00f3n"), ("maxspeed", "30 mph"),
    ("lanes", "2"), ("surface", "asphalt"), ("highway", "primary"),
])


@st.composite
def canonical_documents(draw):
    """Documents in canonical form: 7-decimal coordinates, integer ids,
    nodes with tags, footways, nodes and ways in any order, and elements
    nested where the parse does not read them."""
    ids = draw(st.lists(st.integers(0, 10**12), min_size=1, max_size=8, unique=True))
    items = []
    for nid in ids:
        lat = draw(st.floats(-90.0, 90.0))
        lon = draw(st.floats(-180.0, 180.0))
        attrs = [f'id="{nid}"', f'lat="{lat:.7f}"', f'lon="{lon:.7f}"']
        if draw(st.booleans()):
            attrs.insert(1, 'version="2" user="a &amp; b"')
        kids = draw(st.lists(st.sampled_from(
            ['<tag k="amenity" v="caf\u00e9"/>', '<tag k="highway" v="bus_stop"/>']), max_size=2))
        head = "<node " + " ".join(attrs)
        items.append(head + ">" + "".join(kids) + "</node>" if kids else head + "/>")
    for wid in draw(st.lists(st.integers(1, 10**9), max_size=5, unique=True)):
        highway = draw(st.sampled_from(["residential", "motorway_link", "primary", "footway"]))
        children = [f'<nd ref="{r}"/>' for r in draw(st.lists(st.sampled_from(ids), max_size=6))]
        tags = [("highway", highway)] + draw(st.lists(KEPT_TAGS, max_size=3))
        children += [f'<tag k="{k}" v="{v}"/>' for k, v in tags]
        if draw(st.booleans()):
            children.append('<tag k="highway" v="primary"><nd ref="99"/></tag>')
        children = draw(st.permutations(children))
        items.append(f'<way id="{wid}">\n  ' + "\n  ".join(children) + "\n</way>")
    if draw(st.booleans()):
        items.append('<group><node id="1" lat="1.0" lon="2.0"/><way id="3"><nd ref="4"/></way></group>')
    items = draw(st.permutations(items))
    head = draw(st.sampled_from(["", '<?xml version="1.0" encoding="UTF-8"?>\n',
                                 "<?xml version='1.0'?>\n"]))
    return (head + '<osm version="0.6">\n' + "\n".join(items) + "\n</osm>\n").encode("utf-8")


@given(canonical_documents())
def test_canonical_documents_take_the_byte_path(data):
    want = outcome(parse_osm_extract_etree, data)
    with pytest.MonkeyPatch.context() as mp:
        block_fallback(mp)
        assert outcome(parse_osm_extract, data) == want


def drivable_way(extra=""):
    return way("5", ["1", "2"], DRIVABLE + extra)


GATE_CASES = {
    "single_quoted_attributes": (
        osm("<node id='1' lat='40.0' lon='-3.0'/>", node("2"), drivable_way()), "events"),
    "single_quoted_value_holding_quotes": (
        osm(NODES, '<node lat="1" lon="2" note=\'x id="5"\'/>'), "events"),
    "amp_in_a_kept_value": (
        osm(NODES, drivable_way('<tag k="maxspeed" v="A &amp; B"/>')), "events"),
    "char_ref_in_a_kept_value": (
        osm(NODES, drivable_way('<tag k="maxspeed" v="A &#38; B"/>')), "events"),
    # name is not kept, so what its value holds does not matter
    "amp_in_a_name": (
        osm(NODES, drivable_way('<tag k="name" v="Smith &amp; Sons Road"/>')), "bytes"),
    "char_ref_in_a_key": (osm(NODES, way("5", ["1", "2"], '<tag k="high&#119;ay" v="primary"/>')),
                          "events"),
    "gt_in_a_value": (osm(NODES, drivable_way('<tag k="name" v="A>B"/>')), "events"),
    "quote_in_text": (osm(NODES, 'say "hi"', drivable_way()), "events"),
    "comment": (osm("<!-- c -->", NODES, drivable_way()), "events"),
    "processing_instruction": (osm(NODES, "<?pi x?>", drivable_way()), "events"),
    "cdata": (osm(NODES, drivable_way("<![CDATA[x]]>")), "events"),
    "doctype": (osm(NODES, drivable_way(), head="<!DOCTYPE osm>\n"), "events"),
    "default_namespace": (
        b'<osm xmlns="urn:osm">' + (NODES + drivable_way()).encode() + b"</osm>", "events"),
    "spaced_default_namespace": (
        b'<osm xmlns = "urn:osm">' + (NODES + drivable_way()).encode() + b"</osm>", "events"),
    "spaced_attribute": (osm(NODES.replace('lat="40.001"', 'lat = "40.001"'), drivable_way()),
                         "events"),
    # a prefix covers only the names that carry it, and those are never
    # "node", "way", "nd", "tag", "id", ...: the byte path reads past them
    "prefixed_names": (
        osm(NODES, '<o:node xmlns:o="urn:o" id="4" lat="1" lon="2"/>',
            drivable_way('<o:tag xmlns:o="urn:o" k="oneway" v="yes"/>')), "bytes"),
    "prefixed_attribute": (osm('<node xmlns:o="urn:o" o:id="1" lat="1" lon="2"/>'), "events"),
    "cr_line_ends": (osm(NODES, drivable_way()).replace(b"\n", b"\r"), "events"),
    "crlf_line_ends": (osm(NODES, drivable_way()).replace(b"\n", b"\r\n"), "events"),
    "tab_in_a_kept_value": (
        osm(NODES, drivable_way('<tag k="maxspeed" v="Calle\tMayor"/>')), "events"),
    "newline_in_a_kept_value": (
        osm(NODES, drivable_way('<tag k="maxspeed" v="Calle\nMayor"/>')), "events"),
    "newline_in_a_coordinate": (osm(NODES, node("4", "\n40.5"), drivable_way()), "events"),
    "latin1_declaration": (EDGE_CASES["latin1_declaration"], "events"),
    "extra_attributes": (osm(
        '<node id="1" version="3" user="a &amp; b" lat="40.0" lon="-3.0" visible="true"/>',
        node("2", "40.001"), drivable_way()), "bytes"),
    "reordered_attributes": (
        osm('<node lon="-3.0" lat="40.0" id="1"/>', node("2", "40.001"),
            '<way version="1" id="5"><nd ref="1"/><nd ref="2"/>'
            '<tag v="residential" k="highway"/></way>'), "bytes"),
    "plus_sign": (osm(node("1", "+40.1"), node("2"), drivable_way()), "events"),
    "exponent": (osm(node("1", "1e1"), node("2"), drivable_way()), "events"),
    "repr_17_digits": (osm_doc({"1": (40.44612345678901, -3.6952000000000003), "2": (40.5, -3.7)},
                               [("5", ["1", "2"], {"highway": "residential"})]), "events"),
    "leading_zero_id": (osm(node("007"), node("2"), way("5", ["007", "2"], DRIVABLE)), "events"),
    "letter_id": (osm(node("a1"), node("2"), way("5", ["a1", "2"], DRIVABLE)), "events"),
    "negative_id": (osm(node("-5"), node("2"), way("5", ["-5", "2"], DRIVABLE)), "events"),
    "duplicate_node_ids": (EDGE_CASES["duplicate_node_ids"], "events"),
    "lookalike_names": (
        osm(NODES, '<nodes id="9" lat="1" lon="2"/>',
            way("5", ["1", "2"], DRIVABLE + '<nd2 ref="3"/><tags k="oneway" v="yes"/>')), "bytes"),
}


@pytest.mark.parametrize("data, path", GATE_CASES.values(), ids=GATE_CASES.keys())
def test_gate_case_parses_the_same_on_its_path(monkeypatch, data, path):
    got, taken = path_taken(monkeypatch, data)
    assert got == outcome(parse_osm_extract_etree, data)
    assert taken == path


def test_byte_path_holds_less_memory_than_the_node_dict(tmp_path):
    # the element-handler parse builds every node as a dict entry of a
    # tuple of two floats and every ref as a new string, then the arrays:
    # 436 bytes per node of this extract; the byte path writes the arrays
    # straight away and peaks at 249
    data = bench_city(tmp_path, 50)
    tracemalloc.start()
    try:
        raw = parse_osm_extract(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(raw.node_ids) == 17_200
    assert "index" not in vars(raw)  # the parse builds no index
    assert peak < 280 * 17_200


def test_parsed_and_indexed_extract_holds_memory_in_step_with_its_nodes(tmp_path):
    # each fact of the extract held once (190 B/node held, 249 peak):
    # ids per occurrence and per way, an id -> row dict and the index's
    # own coordinate copies measured 280 held and 303 peak
    data = bench_city(tmp_path, 50)
    tracemalloc.start()
    try:
        raw = parse_osm_extract(data)
        raw.index
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(raw.node_ids) == 17_200
    assert held < 220 * 17_200
    assert peak < 280 * 17_200
