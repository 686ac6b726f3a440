"""parse_osm_extract streams the XML through expat: it must give exactly
what the ElementTree walk gives (``oracles``), down to node order and
error messages, and report the true byte index of an XML error."""
import os

import pytest
from hypothesis import given, strategies as st

from conftest import FIXTURE_DIR
from helpers import grid_extract, osm_doc
from oracles import parse_osm_extract_etree
from roadtwin.errors import ParseError
from roadtwin.osm_ingest import parse_osm_extract

DRIVABLE = '<tag k="highway" v="residential"/>'


def outcome(parse, data):
    try:
        raw = parse(data)
    except Exception as exc:  # the exception is the result under comparison
        return type(exc), str(exc)
    return list(raw.nodes.items()), raw.ways


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
    doc = osm_doc(raw.nodes, [(w.way_id, w.node_ids, w.tags) for w in raw.ways])
    nodes, ways = assert_same_parse(doc)
    assert dict(nodes) == raw.nodes and ways == raw.ways


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
