"""OpenStreetMap XML ingestion into a directed road graph.

Parses the XML subset used here (node / way / nd / tag), keeps drivable
road classes only, and assembles edges with per-class free-flow speeds,
haversine lengths and travel times.  A position's graph is a lazy
:class:`RadiusView` of the extract's index: its nodes are integer rows,
and each row's ``(row, travel_time_s)`` adjacency is built the first
time it is read.  :func:`build_graph` names every arc of a view by node
id for ``ingest``, and :func:`graph_to_csv` writes it in the CSV
on-disk format.
"""
from __future__ import annotations

import csv
import io
import math
import re
import weakref
from bisect import bisect_left
from xml.parsers import expat
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    ArgumentError,
    DomainError,
    FormatError,
    ParseError,
    StructuralError,
    source_bytes,
)
from .geo import (
    EARTH_RADIUS_M, coordinate_problem, haversine_m, haversine_m_array, parse_coordinate,
)
from .road_graph import Edge, HighwayClass
from .traffic_data import _decimal_fields, _plain_decimals

ACCEPTED_HIGHWAYS = {c.value for c in HighwayClass}

# free-flow speed defaults in km/h, by base class
DEFAULT_SPEED_KPH = {
    HighwayClass.MOTORWAY: 90.0,
    HighwayClass.PRIMARY: 50.0,
    HighwayClass.SECONDARY: 50.0,
    HighwayClass.TERTIARY: 50.0,
    HighwayClass.RESIDENTIAL: 30.0,
}

MPH_TO_KPH = 1.609344

# way tags worth keeping once the class filter has passed
_KEEP_TAGS = ("highway", "maxspeed", "lanes", "oneway")

_NUM_RE = re.compile(r"[-+]?\d+(?:\.\d+)?")


@dataclass
class Way:
    """A drivable way's id and kept tags; its nodes are the way's
    occurrences in :class:`RawRoadData`."""

    way_id: str
    tags: dict[str, str]

    @property
    def highway_class(self) -> HighwayClass:
        return HighwayClass(self.tags["highway"])


@dataclass(eq=False)
class RawRoadData:
    """A parsed extract, flat: every node, plus the drivable ways only.

    - ``node_ids``, ``lat``, ``lon``: the extract's nodes as rows, in
      file order (float64 coordinates).  ``node_ids`` is the one map
      from row to id.
    - ``occ_node``: the node row of each *occurrence*, the node lists of
      the ways laid end to end.  Every ref is a row: an extract whose
      way names an undefined node is never built.
    - ``way_start``: the first occurrence of each way, then the total.
    - ``ways``: the drivable ways, in file order; the nodes of way ``w``
      are ``occ_node[way_start[w]:way_start[w + 1]]``.

    ``index`` is the :class:`MapIndex` built from these on first use and
    kept for the object's lifetime, so every :func:`build_graph` call and
    :class:`RadiusView` on one extract shares it.  Treat every field as
    read-only: the index does not see later changes.
    """

    node_ids: list[str]
    lat: np.ndarray
    lon: np.ndarray
    occ_node: np.ndarray
    way_start: np.ndarray
    ways: list[Way]

    @classmethod
    def of(cls, nodes: dict[str, tuple[float, float]], ways: list[tuple]) -> "RawRoadData":
        """The extract of a node dict (id -> ``(lat, lon)``) and a list of
        ``(way_id, node ids, tags)`` triples.

        Raises ``StructuralError`` for the first ref, in way order, that
        names no node of ``nodes``.
        """
        node_ids = list(nodes)
        row = dict(zip(node_ids, range(len(node_ids))))
        latlon = np.array(list(nodes.values()), dtype=float).reshape(-1, 2)
        occ_node = []
        for way_id, refs, _ in ways:
            for ref in refs:
                r = row.get(ref)
                if r is None:
                    raise StructuralError(f"way {way_id} references missing node {ref}")
                occ_node.append(r)
        way_start = np.cumsum([0] + [len(refs) for _, refs, _ in ways])
        # int32 keeps the per-occurrence tables small: an extract has far
        # fewer than 2**31 nodes or occurrences
        return cls(node_ids, latlon[:, 0].copy(), latlon[:, 1].copy(),
                   np.array(occ_node, dtype=np.int32), way_start,
                   [Way(way_id, tags) for way_id, _, tags in ways])

    @cached_property
    def index(self) -> "MapIndex":
        return MapIndex(self)


# the prefilter's numpy haversine is trusted this far from the radius;
# nodes closer to it than this are decided by the scalar haversine_m
_PREFILTER_BAND_M = 1e-3

# metres added to the radius of within()'s latitude band, so that rounding
# in degrees never drops a row the haversine puts inside
_BAND_MARGIN_M = 1.0


class MapIndex:
    """What every radius graph of one extract needs, computed once.

    The node lists of all ways are laid end to end as *occurrences*:
    occurrence ``k`` is one node at one position of one way, and
    ``way_start[w]`` is the first occurrence of way ``w``.  The arrays
    over occurrences stand in for a node -> (way, position) map: one
    gather of a per-node mask finds every way position a set of nodes
    covers, in way order.

    - ``lat``, ``lon``: the extract's own coordinate arrays, one row per
      node.  A node that :func:`geo.coordinate_problem` objects to
      (beyond the poles or +-180 degrees, NaN or infinite) raises
      ``FormatError``.
    - ``occ_node``, ``way_of``: node row and way of each occurrence.
    - ``occ_by_node[node_occ[row]:node_occ[row + 1]]``: the occurrences
      of one node row, in way order.
    - ``stretch_len[(a, b)]``: the length of the way stretch from
      occurrence ``a`` to ``b``, memoised by :meth:`stretch_length` the
      first time a :class:`RadiusView` builds a piece over it, so
      stretches no crop reaches are never measured.
    - ``is_cut[k]``: the occurrence ends a junction-to-junction segment,
      being a way's first or last node or a node of two or more ways.
    - ``lat_order``: the node rows by latitude, and
      ``lat_sorted``, ``lon_by_lat`` their coordinates in that order, for
      the latitude band of :meth:`within`.

    The index holds no segments and no edges: each :class:`RadiusView`
    cuts its own in-radius occurrences into pieces with ``way_of`` and
    ``is_cut`` and builds their edges, so views share stretch lengths only.
    It is built from a :class:`RawRoadData` and from nothing else:
    ``occ_node`` and ``way_start`` are the extract's own.
    """

    def __init__(self, raw: RawRoadData):
        n = len(raw.node_ids)
        self.lat, self.lon = raw.lat, raw.lon
        # NaN compares false, so a NaN coordinate is off the globe too
        off_globe = ~((np.abs(raw.lat) <= 90.0) & (np.abs(raw.lon) <= 180.0))
        if off_globe.any():
            r = int(off_globe.argmax())
            problem = coordinate_problem(raw.lat[r].item(), raw.lon[r].item())
            raise FormatError(f"node {raw.node_ids[r]}: {problem}")

        self.occ_node = raw.occ_node
        self.way_start = raw.way_start
        self.way_of = np.repeat(
            np.arange(self.way_start.size - 1, dtype=np.int32), np.diff(self.way_start)
        )
        # drivable ways through each node, one count per (way, node) pair
        # however often the way repeats the node
        way_node = np.sort(self.way_of.astype(np.int64) * n + self.occ_node)
        distinct = np.ones(way_node.size, dtype=bool)
        distinct[1:] = way_node[1:] != way_node[:-1]
        way_count = np.bincount(way_node[distinct] % n, minlength=n)

        starts, stops = self.way_start[:-1], self.way_start[1:]
        nonempty = stops > starts
        self.is_cut = way_count[self.occ_node] >= 2
        self.is_cut[starts[nonempty]] = True
        self.is_cut[stops[nonempty] - 1] = True

        self.stretch_len: dict[tuple[int, int], float] = {}

        # occurrences of each node row, in way order
        self.occ_by_node = np.argsort(self.occ_node, kind="stable").astype(np.int32)
        self.node_occ = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.occ_node, minlength=n), out=self.node_occ[1:])

        # within() reads its latitude band as slices of these
        self.lat_order = np.argsort(self.lat, kind="stable").astype(np.int32)
        self.lat_sorted = self.lat[self.lat_order]
        self.lon_by_lat = self.lon[self.lat_order]

    def within(self, center: tuple[float, float], radius_m: float) -> np.ndarray:
        """Boolean per node row: haversine to ``center`` is ``<= radius_m``.

        Only the rows of the latitude band ``|lat - center lat| <= (radius_m
        + 1 m) / R`` (in degrees) are measured.  The band is exact: with
        both latitudes within +-90 degrees (the index holds no other rows,
        and ``center`` must be a valid coordinate), both cosines in the
        haversine are non-negative, so the distance is at least ``R *
        |dphi|`` and no row outside the band lies within the radius.  The
        1 m margin covers the rounding of degrees.
        """
        lat0, lon0 = center
        half = math.degrees((radius_m + _BAND_MARGIN_M) / EARTH_RADIUS_M)
        lo = np.searchsorted(self.lat_sorted, lat0 - half, side="left")
        hi = np.searchsorted(self.lat_sorted, lat0 + half, side="right")
        rows = self.lat_order[lo:hi]
        dist = haversine_m_array(lat0, lon0, self.lat_sorted[lo:hi], self.lon_by_lat[lo:hi])
        inside = np.zeros(self.lat.size, dtype=bool)
        inside[rows[dist <= radius_m - _PREFILTER_BAND_M]] = True
        for r in rows[np.abs(dist - radius_m) <= _PREFILTER_BAND_M].tolist():
            inside[r] = haversine_m(lat0, lon0, self.lat[r].item(), self.lon[r].item()) <= radius_m
        return inside

    def stretch_length(self, a: int, b: int) -> float:
        """Length of the stretch of one way from occurrence ``a`` to ``b``.

        The scalar ``haversine_m`` of each pair, summed in way order, so
        every view of the extract gives a stretch the same float length.
        Memoised on ``(a, b)``.
        """
        length = self.stretch_len.get((a, b))
        if length is None:
            rows = self.occ_node[a : b + 1]
            lat, lon = self.lat[rows].tolist(), self.lon[rows].tolist()
            length = 0.0
            for j in range(b - a):
                length += haversine_m(lat[j], lon[j], lat[j + 1], lon[j + 1])
            self.stretch_len[(a, b)] = length
        return length


def parse_osm_extract(source) -> RawRoadData:
    """Parse OSM XML bytes (or a file path) into :class:`RawRoadData`.

    Reads ``node`` and ``way`` elements that are direct children of the
    root, and the ``nd`` / ``tag`` direct children of each such way;
    namespaced elements and anything nested deeper are ignored.  Keeps
    all nodes and only the ways whose ``highway`` tag is a drivable
    class; non-drivable ways (footways, cycleways, ...) are discarded.

    One expat pass with no element handlers judges the XML first.  A
    document in canonical form (see :func:`_parse_canonical`) is then
    read in array passes over its bytes, straight into the arrays of
    :class:`RawRoadData`; any other document is streamed through
    expat's element handlers.  Both give the same nodes, ways and errors.

    Raises ``ParseError`` with the byte index on malformed XML (including
    an entity reference it cannot expand), then ``FormatError`` for the
    first node without a usable id/lat/lon (a coordinate must be a
    number ``float`` reads from ASCII text without underscores), then
    ``StructuralError`` when a retained way references a missing node.
    """
    data = source_bytes(source, "OSM extract")
    _expat_parse(data)
    return _parse_canonical(data) or _parse_events(data)


def _expat_parse(data: bytes, start=None, end=None) -> None:
    """Run expat over ``data``, calling ``start(name, attrs)`` and
    ``end(name)`` per element when given.

    Raises ``ParseError`` with the byte index on malformed XML and on an
    entity reference expat would skip.
    """
    external_entities = set()

    def entity_decl(name, is_parameter, value, base, system_id, public_id, notation):
        if not is_parameter and system_id is not None:
            external_entities.add(name)

    def undefined_entity(name):
        # expat skips such references silently; a tree parser rejects them
        ref = f"&{name};".encode("utf-8")[:100].decode("utf-8", "replace")
        raise ParseError(
            f"malformed XML at byte {parser.CurrentByteIndex}: undefined entity {ref}: "
            f"line {parser.CurrentLineNumber}, column {parser.CurrentColumnNumber}"
        )

    def external_ref(context, base, system_id, public_id):
        # the one external entity among the open entities in ``context``
        undefined_entity(next(n for n in context.split("\f") if n in external_entities))

    # as in ElementTree, a namespaced name arrives as "uri}local", so it
    # never equals "node", "way", "nd" or "tag"
    parser = expat.ParserCreate(namespace_separator="}")
    if start is not None:
        parser.StartElementHandler = start
        parser.EndElementHandler = end
    parser.EntityDeclHandler = entity_decl
    parser.SkippedEntityHandler = lambda name, is_parameter: undefined_entity(name)
    parser.ExternalEntityRefHandler = external_ref
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        # an empty document reports byte -1
        raise ParseError(
            f"malformed XML at byte {max(parser.ErrorByteIndex, 0)}: {exc}"
        ) from exc


def _parse_events(data: bytes) -> RawRoadData:
    """:func:`parse_osm_extract` through expat's element handlers, for a
    document the handler-free pass found well formed."""
    nodes: dict[str, tuple[float, float]] = {}
    ways: list[tuple[str, list[str], dict[str, str]]] = []
    bad_node = None  # first node error, raised once the whole XML is read
    depth = 0  # of the open element; the root is 1
    way = None  # the root-child way being read, as (way_id, refs, tags)

    def start(name, attrs):
        nonlocal depth, way, bad_node
        depth += 1
        if depth == 2:
            if name == "node":
                try:
                    nid = attrs["id"]
                    nodes[nid] = (parse_coordinate(attrs["lat"]), parse_coordinate(attrs["lon"]))
                except (KeyError, ValueError) as exc:
                    if bad_node is None:
                        bad_node = exc
            elif name == "way":
                way = (attrs.get("id", ""), [], {})
        elif depth == 3 and way is not None:
            if name == "nd":
                way[1].append(attrs.get("ref", ""))
            elif name == "tag":
                k = attrs.get("k", "")
                if k in _KEEP_TAGS:
                    way[2][k] = attrs.get("v", "")

    def end(name):
        nonlocal depth, way
        if depth == 2 and way is not None:
            if way[2].get("highway") in ACCEPTED_HIGHWAYS:
                ways.append(way)
            way = None
        depth -= 1

    _expat_parse(data, start, end)
    if bad_node is not None:
        raise FormatError(f"node element missing id/lat/lon: {bad_node}") from bad_node
    return RawRoadData.of(nodes, ways)


_MAX_ID_DIGITS = 18  # every such id fits an int64
_KEEP_TAG_BYTES = {k.encode() for k in _KEEP_TAGS}
_NODE, _WAY, _ND, _TAG = 1, 2, 3, 4  # element kinds of the byte parse


def _offsets(buf: np.ndarray, byte: str, start: int) -> np.ndarray:
    """Offsets of ``byte`` in ``buf[start:]``, ascending, as int32."""
    found = np.flatnonzero(buf == ord(byte))
    return found[np.searchsorted(found, start):].astype(np.int32)


def _digit_ids(buf: np.ndarray, begin: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """Values of the fields ``buf[begin[i]:end[i]]``, or None unless each
    is 1 to 18 ASCII digits without a leading zero, so that ``str`` of
    its value is the field.  Fields are read by
    :func:`traffic_data._decimal_fields`."""
    if not len(end):
        return np.zeros(0, dtype=np.int64)
    fields = _decimal_fields(buf, begin, end, _MAX_ID_DIGITS)
    if fields is None:
        return None
    value, _, minus, point, digits, first = fields
    # 18 digits and a point may wrap the int64 value: such a field is refused here
    if (minus | point | ((first == ord("0")) & (digits > 1))).any():
        return None
    return value


def _values(buf: np.ndarray, begin: np.ndarray, end: np.ndarray) -> list[str]:
    """The attribute values ``buf[begin[i]:end[i]]`` as str: one gather
    of every value with its closing quote, one decode, one split."""
    length = end - begin + 1
    first = np.cumsum(length, dtype=np.int32) - length  # of each value in the gathered bytes
    at = np.repeat(begin - first, length)
    at += np.arange(at.size, dtype=np.int32)
    gathered = buf[at]
    return gathered.tobytes().decode().split('"')[:-1]


def _name_is(words: np.ndarray, name: bytes) -> np.ndarray:
    """Per word of the 8 bytes after a ``<`` (little-endian): the
    element's name is ``name``, followed by a space, ``/`` or ``>``."""
    n = len(name)
    head = words & np.uint64((1 << 8 * n) - 1)
    after = (words >> np.uint64(8 * n)) & np.uint64(0xFF)
    return (head == int.from_bytes(name, "little")) & (
        (after <= ord(" ")) | (after == ord("/")) | (after == ord(">"))
    )


def _attribute_is(words: np.ndarray, name: bytes) -> np.ndarray:
    """Per word of the 8 bytes before an attribute's opening quote
    (little-endian): the attribute's name is ``name``, written
    ``name="``.  XML puts a space before every attribute name, and the
    only bytes at or below a space it allows are spaces, tabs and line
    ends."""
    n = len(name) + 1  # with its "="
    # the byte before the name, then the name and "=": a wrong name or
    # a byte above a space leaves more than a space after subtracting
    spaced = words >> np.uint64(8 * (7 - n))
    spaced -= np.uint64(int.from_bytes(name + b"=", "little") << 8)
    return spaced <= ord(" ")


def _markup(data: bytes, buf: np.ndarray, body: int):
    """Tags and attribute values of a well-formed document from byte
    ``body`` on, or None unless they can be read off the byte offsets of
    ``<``, ``>`` and ``"``: one ``>`` per tag, no ``<!`` or ``<?``, no
    quote between tags, and every attribute double-quoted.

    Returns ``(lt, gt, opening, closing, attr_tag)``: the ``<`` and
    ``>`` of each tag, and the quotes around each attribute value with
    the value's tag.
    """
    lt = _offsets(buf, "<", body)
    second = buf[lt + 1]
    if ((second == ord("!")) | (second == ord("?"))).any():
        return None  # a DTD, comment, CDATA section or processing instruction
    gt, quote = _offsets(buf, ">", body), _offsets(buf, '"', body)
    # one ">" per tag, so none in a value or between tags: each tag ends at the next one
    if gt.size != lt.size or lt.size < 2 or quote.size % 2:
        return None
    # pair the quotes in order: value i runs from opening[i] + 1 to
    # closing[i], in tag attr_tag[i]
    opening, closing = quote[0::2], quote[1::2]
    per_tag = np.diff(np.searchsorted(quote, lt), append=quote.size)  # from one "<" to the next
    if (per_tag % 2).any() or (quote.size and quote[0] < lt[0]):
        return None  # a pair across two tags
    attr_tag = np.repeat(np.arange(lt.size, dtype=np.int32), per_tag // 2)
    if (closing > gt[attr_tag]).any():
        return None  # a quote between tags
    if (buf[opening - 1] != ord("=")).any() or (buf[opening - 2] <= ord(" ")).any():
        return None  # an attribute not written name="value", so its name is not read
    if b"'" in data:
        # an apostrophe in a tag but outside its double-quoted values
        # opens a single-quoted attribute, which may hold quotes
        apos = _offsets(buf, "'", body)
        tag = np.searchsorted(gt, apos)
        inside = (tag < gt.size) & (lt[np.minimum(tag, gt.size - 1)] < apos)
        if (np.searchsorted(quote, apos[inside]) % 2 == 0).any():
            return None
    return lt, gt, opening, closing, attr_tag


def _element_spans(data: bytes, buf: np.ndarray, body: int):
    """Where the attributes the parse reads lie in the bytes of a
    well-formed document, or None when :func:`_markup` declines or an
    element lacks one of them.

    Returns ``(node, way, nd, tag, nd_way, tag_way)``: per element kind,
    the value spans ``(begin, end)`` of its attributes (``id``, ``lat``,
    ``lon`` of each node; ``id`` of each way; ``ref`` of each ``nd``;
    ``k`` and ``v`` of each ``tag``), in file order, and the way of each
    ``nd`` and ``tag``.  Nodes and ways are the root's children; ``nd``
    and ``tag`` the children of those ways.
    """
    markup = _markup(data, buf, body)
    if markup is None:
        return None
    lt, gt, opening, closing, attr_tag = markup
    # names are read as the 8 bytes after a "<" or before an opening
    # quote; every root or way child starts before the tag before last
    if buf.size - lt[-2] < 9 or (opening.size and opening[0] < 8):
        return None  # a document too short to read them all
    # words[i]: the 8 bytes from byte i, as one little-endian integer
    words = np.ndarray((buf.size - 7,), dtype="<u8", buffer=data, strides=(1,))

    is_end_tag = buf[lt + 1] == ord("/")
    # +1 for a start tag, 0 for an empty element, -1 for an end tag
    step = (~is_end_tag).astype(np.int8) - (buf[gt - 1] == ord("/"))
    step[is_end_tag] = -1
    depth = np.cumsum(step, dtype=np.int32) - step + 1  # of the element a tag opens
    depth[is_end_tag] = 0
    tag = np.flatnonzero(depth == 2)  # the root's children
    name = words[lt[tag] + 1]
    kind = np.zeros(lt.size, dtype=np.int8)
    kind[tag[_name_is(name, b"node")]] = _NODE
    kind[tag[_name_is(name, b"way")]] = _WAY
    # a root child's own children follow it before the next root child
    last = np.where(depth == 2, np.arange(lt.size, dtype=np.int32), 0)
    np.maximum.accumulate(last, out=last)
    tag = np.flatnonzero(depth == 3)
    tag = tag[kind[last[tag]] == _WAY]  # the children of ways
    name = words[lt[tag] + 1]
    kind[tag[_name_is(name, b"nd")]] = _ND
    kind[tag[_name_is(name, b"tag")]] = _TAG
    way_number = np.cumsum(kind == _WAY, dtype=np.int32) - 1  # of the way a tag is in
    del is_end_tag, step, depth, tag, name, last
    attr_kind = kind[attr_tag]
    before = words[opening - 8]  # ends with each attribute's name and "="
    if _attribute_is(before, b"xmlns").any():
        return None  # a default namespace: the names it covers are not "node", "way", ...

    def values(element: int, *names: bytes):
        """Value spans of each named attribute of every element of a
        kind, or None unless each element has each one."""
        tags = np.flatnonzero(kind == element)
        spans = []
        for name in names:
            named = np.flatnonzero(_attribute_is(before, name) & (attr_kind == element))
            if not np.array_equal(attr_tag[named], tags):
                return None  # an element without the attribute
            spans.append((opening[named] + 1, closing[named]))
        return spans

    found = (values(_NODE, b"id", b"lat", b"lon"), values(_WAY, b"id"),
             values(_ND, b"ref"), values(_TAG, b"k", b"v"))
    if any(spans is None for spans in found):
        return None
    return *found, way_number[kind == _ND], way_number[kind == _TAG]


def _canonical_tables(data: bytes):
    """The elements :func:`parse_osm_extract` reads, found by array
    passes over the bytes of a well-formed document, or None when the
    document may not be in canonical form (see :func:`_parse_canonical`).

    Returns ``(node_ids, lat, lon, node_key, way_ids, tags, occ_key,
    way_len)``: the ids, coordinates and integer ids of the nodes, in
    file order; the ids and kept tags of the drivable ways; their integer
    refs, laid end to end; and the number of refs of each.
    """
    if b"\r" in data or len(data) >= 2**31:
        return None
    body = 0  # where the document follows its declaration
    if data.startswith(b"<?xml "):
        body = data.index(b"?>") + 2
        decl = data[:body].lower().replace(b"'", b'"')
        if b"encoding" in decl and b'encoding="utf-8"' not in decl:
            return None
    elif not data.startswith(b"<"):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    spans = _element_spans(data, buf, body)
    if spans is None:
        return None
    (node_id, lat, lon), (way_id,), (ref,), (key, value), nd_way, tag_way = spans
    if not node_id[0].size:
        return None  # no node to read
    node_key = _digit_ids(buf, *node_id)
    lat = _plain_decimals(buf, *lat)
    lon = _plain_decimals(buf, *lon)
    way_key = _digit_ids(buf, *way_id)
    if node_key is None or lat is None or lon is None or way_key is None:
        return None

    tags = [{} for _ in range(way_key.size)]
    for w, k0, k1, v0, v1 in zip(tag_way.tolist(), *(a.tolist() for a in (*key, *value))):
        k = data[k0:k1]
        if b"&" in k:
            return None  # may be a kept key once its references are expanded
        if k in _KEEP_TAG_BYTES:
            v = data[v0:v1]
            if b"&" in v or b"\t" in v or b"\n" in v:
                return None  # the XML would expand or normalize these
            tags[w][k.decode()] = v.decode()
    drivable = np.array([t.get("highway") in ACCEPTED_HIGHWAYS for t in tags], dtype=bool)
    kept = drivable[nd_way]
    occ_key = _digit_ids(buf, ref[0][kept], ref[1][kept])
    if occ_key is None:
        return None
    # a digit id without a leading zero is the str of its value
    way_ids = [str(way_id) for way_id in way_key[drivable].tolist()]
    way_len = np.bincount(nd_way, minlength=way_key.size)[drivable]
    return (_values(buf, *node_id), lat, lon, node_key, way_ids,
            [t for t, d in zip(tags, drivable) if d], occ_key, way_len)


def _parse_canonical(data: bytes) -> RawRoadData | None:
    """Parse a well-formed document in canonical form in array passes, or None.

    Canonical form: no XML declaration or one declaring UTF-8; no ``<!``
    (DTD, comment or CDATA), no ``<?`` past the declaration and no
    carriage return anywhere; no ``>`` and no quote outside the markup
    of a tag; every attribute written ``name="value"``, and none named
    ``xmlns`` (a default namespace; a prefixed name is never one the
    parse reads, so a prefix may be declared); node ids, way ids and the
    refs of drivable ways of ASCII digits without a leading zero; plain
    decimal coordinates (see
    :func:`traffic_data._plain_decimals`); no ``&``, tab or newline in a
    kept tag value and no ``&`` in a way tag's key; every node, way,
    ``nd`` and ``tag`` carrying the attributes it is read for; at least
    one node, no repeated node id, and no ref of a drivable way to a
    missing node.  Any other document returns None and is left to
    :func:`_parse_events`, which also raises every ``FormatError`` and
    ``StructuralError``.
    """
    tables = _canonical_tables(data)
    if tables is None:
        return None
    node_ids, lat, lon, node_key, way_ids, tags, occ_key, way_len = tables
    # node rows by id; an extract listing its nodes by ascending id, as
    # osmium writes them, is in that order already
    order = None if (node_key[1:] > node_key[:-1]).all() else np.argsort(node_key)
    sorted_key = node_key if order is None else node_key[order]
    if (sorted_key[1:] == sorted_key[:-1]).any():
        return None  # a repeated node id
    at = np.minimum(np.searchsorted(sorted_key, occ_key), sorted_key.size - 1)
    if (sorted_key[at] != occ_key).any():
        return None  # a missing node
    occ_node = (at if order is None else order[at]).astype(np.int32)
    way_start = np.concatenate(([0], np.cumsum(way_len)))
    ways = [Way(way_id, way_tags) for way_id, way_tags in zip(way_ids, tags)]
    return RawRoadData(node_ids, lat, lon, occ_node, way_start, ways)


def parse_maxspeed_kph(value: str | None) -> float | None:
    """First numeric token of a maxspeed tag, converted to km/h.

    Handles plain numbers, "NN mph" and multi-valued tags like "30;50"
    (first value wins).  Returns None when nothing usable is present.
    """
    if not value:
        return None
    m = _NUM_RE.search(value)
    if not m:
        return None
    speed = float(m.group(0))
    if "mph" in value.lower():
        speed *= MPH_TO_KPH
    return speed if speed > 0 else None


def parse_lanes(value: str | None) -> int | None:
    """First integer token of a lanes tag, or None when unusable."""
    if not value:
        return None
    m = _NUM_RE.search(value)
    if not m:
        return None
    try:
        lanes = int(float(m.group(0)))
    except ValueError:
        return None
    return lanes if lanes >= 1 else None


def default_speed(
    highway_class: HighwayClass, overrides: dict[str, float] | None = None
) -> float:
    """Free-flow speed in km/h for a class, honouring config overrides.

    Overrides are keyed by class name; a link class falls back to its
    base class entry.
    """
    if overrides:
        if highway_class.value in overrides:
            return float(overrides[highway_class.value])
        if highway_class.base.value in overrides:
            return float(overrides[highway_class.base.value])
    return DEFAULT_SPEED_KPH[highway_class.base]


def _is_oneway(tags: dict[str, str]) -> bool:
    v = tags.get("oneway", "").strip().lower()
    return v in ("yes", "true", "1")


def _way_attributes(way: Way, speed_overrides: dict[str, float] | None):
    """(speed_kph, class, lanes, oneway) of a way's edges."""
    cls = way.highway_class
    speed = parse_maxspeed_kph(way.tags.get("maxspeed"))
    if speed is None:
        speed = default_speed(cls, speed_overrides)
    return speed, cls, parse_lanes(way.tags.get("lanes")), _is_oneway(way.tags)


class Arc(NamedTuple):
    """One directed edge of a :class:`RadiusView`, between node rows.

    ``key`` is ``(piece, 0 forward / 1 backward)``, which sorts the arcs
    in way order.
    """

    key: tuple[int, int]
    src: int
    dst: int
    length_m: float
    speed_kph: float
    travel_time_s: float
    highway_class: HighwayClass
    lanes: int | None


def _segment_arcs(index: MapIndex, i: int, a: int, b: int, attrs: tuple) -> tuple[Arc, ...]:
    """Arcs of piece ``i``, the way stretch from occurrence ``a`` to ``b``.

    Empty for a closed loop back to its start or a zero-length stretch.
    """
    speed, cls, lanes, oneway = attrs
    seg_len = index.stretch_length(a, b)
    src, dst = index.occ_node[a].item(), index.occ_node[b].item()
    if src != dst and seg_len > 0.0:
        travel_time = seg_len / (speed / 3.6)
        forward = Arc((i, 0), src, dst, seg_len, speed, travel_time, cls, lanes)
        if oneway:
            return (forward,)
        return (forward, Arc((i, 1), dst, src, seg_len, speed, travel_time, cls, lanes))
    return ()


class Crop(NamedTuple):
    """The nodes (id -> ``(lat, lon)``) and edges of a radius graph, as
    ``ingest`` writes them."""

    nodes: dict[str, tuple[float, float]]
    edges: list[Edge]


def build_graph(
    raw: RawRoadData,
    center: tuple[float, float],
    radius_m: float = 2000.0,
    speed_overrides: dict[str, float] | None = None,
) -> Crop:
    """Assemble the directed travel-time graph around ``center``.

    Nodes beyond ``radius_m`` (haversine) are dropped together with the
    way fragments through them.  Ways are split into edges at every node
    shared by two or more drivable ways of the extract; intermediate
    nodes contribute geometry only (their haversine lengths are summed
    into the edge).  Two-way roads produce one edge per direction.

    Every arc of a :class:`RadiusView` of the extract, named by node id:
    only the in-radius stretches of ways are visited.  Nodes and edges
    come out in way order, as a rescan of the whole extract would give
    them.
    """
    view = RadiusView(raw, center, radius_m, speed_overrides)
    ids = raw.node_ids
    nodes: dict[str, tuple[float, float]] = {}
    edges = []
    for arc in view.arcs():
        for r in (arc.src, arc.dst):
            if ids[r] not in nodes:
                nodes[ids[r]] = view.coords(r)
        edges.append(Edge(ids[arc.src], ids[arc.dst], *arc[3:]))
    return Crop(nodes, edges)


# metres added to a near-point query, so that rounding in the box test
# never drops an edge the snap's own projection puts within the bound
_NEAR_MARGIN_M = 1.0


class _Filled(dict):
    """A dict whose missing row is filled by its view's ``_fill``.

    It holds its view by a weak reference: with no cycle, a view is freed
    as soon as its position is embedded.
    """

    def __init__(self, view: "RadiusView"):
        super().__init__()
        self.view = weakref.ref(view)

    def __missing__(self, row: int):
        self.view()._fill(row)
        return self[row]


class RadiusView:
    """The radius graph around ``center`` on integer node rows, built
    per row on first read.

    A node is its row in ``raw.node_ids``, and :meth:`node_id` names it;
    ``site``, the row past the extract's last, is the virtual node
    :meth:`split` adds.  The view maps no id to a row: a search starts
    from the row that ``road_graph.insert_central_node`` puts on its
    ``CentralNode``.  ``out[v]`` and ``inn[v]`` list the ``(row,
    travel_time_s)`` pairs of row ``v``'s out- and in-edges in edge
    order, and ``classes[v]`` the road classes of its edges; all three
    are filled together the first time one of them is read for ``v``.

    The view's *pieces* are found once, up front, from the in-radius
    occurrences of ``raw.index``: a piece is a maximal in-radius run of
    one junction-to-junction segment holding at least one pair, and
    ``_first[i]`` and ``_last[i]`` are the first and last occurrence of
    piece ``i``, in way order.  A piece's arcs are built once, the first
    time it is read, from the index's memoised stretch length.  A
    row's edges are those of the pieces that start or end at one of its
    occurrences.
    """

    def __init__(
        self,
        raw: RawRoadData,
        center: tuple[float, float],
        radius_m: float = 2000.0,
        speed_overrides: dict[str, float] | None = None,
    ):
        if radius_m <= 0:
            raise ArgumentError(f"radius must be positive, got {radius_m}")
        problem = coordinate_problem(*center)
        if problem:
            raise ArgumentError(f"radius center: {problem}")
        self.raw = raw
        self.index = index = raw.index
        self.center = center
        self.radius_m = radius_m
        self.speed_overrides = speed_overrides
        occ = np.flatnonzero(index.within(center, radius_m)[index.occ_node])
        # pairs: in-radius occurrences followed by an in-radius one of their way
        follows = (occ[1:] == occ[:-1] + 1) & (index.way_of[occ[1:]] == index.way_of[occ[:-1]])
        pairs = occ[:-1][follows]
        starts = np.ones(pairs.size, dtype=bool)
        starts[1:] = pairs[1:] != pairs[:-1] + 1
        starts |= index.is_cut[pairs]
        ends = np.ones(pairs.size, dtype=bool)
        ends[:-1] = starts[1:]
        # lists, so that a row read looks its pieces up by bisection
        self._first: list[int] = pairs[starts].tolist()
        self._way: list[int] = index.way_of[pairs[starts]].tolist()
        self._last: list[int] = (pairs[ends] + 1).tolist()
        self._piece_arcs: dict[int, tuple[Arc, ...]] = {}
        self._attrs: dict[int, tuple] = {}
        self.site = len(raw.node_ids)
        self.site_id: str | None = None
        self._halves: dict[tuple[int, int], tuple[float, float]] = {}
        self.out = _Filled(self)
        self.inn = _Filled(self)
        self.classes = _Filled(self)

    def node_id(self, row: int) -> str:
        return self.site_id if row == self.site else self.raw.node_ids[row]

    def coords(self, row: int) -> tuple[float, float]:
        return self.index.lat[row].item(), self.index.lon[row].item()

    def arcs(self) -> list[Arc]:
        """Every arc, in edge order.

        Raises ``DomainError`` when the radius holds no edge.
        """
        arcs = self._arcs(range(len(self._first)))
        if not arcs:
            raise DomainError(
                f"no drivable roads within {self.radius_m:.0f} m of "
                f"({self.center[0]:.5f}, {self.center[1]:.5f})"
            )
        return arcs

    def arcs_near(self, lat: float, lon: float, max_m: float) -> list[Arc]:
        """Every arc that may lie within ``max_m`` of the position, in
        edge order.

        A piece is kept when the box of its chord (the box spanned by its
        two end nodes), in the equirectangular projection around the
        position, comes within ``max_m`` (plus a margin).  Its arcs run
        along that chord, which lies inside the box.
        """
        index = self.index
        ends = index.occ_node[np.array([self._first, self._last], dtype=np.intp)]
        lat_end, lon_end = index.lat[ends], index.lon[ends]
        kx = math.radians(1.0) * EARTH_RADIUS_M * math.cos(math.radians(lat))
        ky = math.radians(1.0) * EARTH_RADIUS_M
        dx = (np.clip(lon, lon_end.min(axis=0), lon_end.max(axis=0)) - lon) * kx
        dy = (np.clip(lat, lat_end.min(axis=0), lat_end.max(axis=0)) - lat) * ky
        near = np.flatnonzero(dx * dx + dy * dy <= (max_m + _NEAR_MARGIN_M) ** 2)
        return self._arcs(near.tolist())

    def split(self, host: Arc, t: float, site_id: str) -> None:
        """Split ``host`` at parameter ``t`` from its source through the
        virtual node ``site_id`` (row ``site``), travel times staying
        proportional.

        The first arc from ``host.dst`` back to ``host.src`` of the same
        class and length (within 1e-6 relative), if any, is split through
        the same node at ``1 - t``: the reverse direction of a two-way
        road.  A view takes one virtual node.
        """
        if self.site_id is not None:
            raise ArgumentError(f"{self.site_id} already inserted in this view")
        halves = {host.key: (host.travel_time_s * t, host.travel_time_s * (1.0 - t))}
        around = {arc.key: arc for arc in self._arcs(self._touching(host.dst))}
        for arc in around.values():
            if (
                arc.key != host.key
                and arc.src == host.dst
                and arc.dst == host.src
                and arc.highway_class == host.highway_class
                and abs(arc.length_m - host.length_m) <= 1e-6 * max(arc.length_m, host.length_m)
            ):
                s = 1.0 - t
                halves[arc.key] = (arc.travel_time_s * s, arc.travel_time_s * (1.0 - s))
                break
        self.site_id = site_id
        self._halves = halves
        # the split ends are read again, with their arcs through the site
        for filled in (self.out, self.inn, self.classes):
            for r in (host.src, host.dst):
                filled.pop(r, None)
        self.out[self.site] = [(around[k].dst, halves[k][1]) for k in sorted(halves)]
        self.inn[self.site] = [(around[k].src, halves[k][0]) for k in sorted(halves)]
        self.classes[self.site] = (host.highway_class,)

    def _arcs(self, pieces) -> list[Arc]:
        """Arcs of the given pieces (ascending), in edge order."""
        return [arc for i in pieces for arc in self._arcs_of(i)]

    def _arcs_of(self, i: int) -> tuple[Arc, ...]:
        """Arcs of piece ``i``, as :func:`build_graph` builds them."""
        arcs = self._piece_arcs.get(i)
        if arcs is None:
            w = self._way[i]
            attrs = self._attrs.get(w)
            if attrs is None:
                attrs = self._attrs[w] = _way_attributes(self.raw.ways[w], self.speed_overrides)
            arcs = self._piece_arcs[i] = _segment_arcs(
                self.index, i, self._first[i], self._last[i], attrs
            )
        return arcs

    def _touching(self, row: int) -> list[int]:
        """The pieces that start or end at one of the row's occurrences,
        ascending."""
        index = self.index
        pieces = set()
        lo, hi = index.node_occ[row : row + 2].tolist()
        for k in index.occ_by_node[lo:hi].tolist():
            for ends in (self._first, self._last):
                i = bisect_left(ends, k)
                if i < len(ends) and ends[i] == k:
                    pieces.add(i)
        return sorted(pieces)

    def _fill(self, row: int) -> None:
        out: list[tuple[int, float]] = []
        inn: list[tuple[int, float]] = []
        halves = self._halves
        arcs = self._arcs(self._touching(row))
        for arc in arcs:
            half = halves.get(arc.key)
            if arc.src == row:
                out.append((arc.dst, arc.travel_time_s) if half is None else (self.site, half[0]))
            if arc.dst == row:
                inn.append((arc.src, arc.travel_time_s) if half is None else (self.site, half[1]))
        self.out[row] = out
        self.inn[row] = inn
        self.classes[row] = tuple(arc.highway_class for arc in arcs)


# ---------------------------------------------------------------------------
# CSV on-disk format
# ---------------------------------------------------------------------------
# Floats are written with repr (shortest round-trip form) so that a
# saved graph reloads with bit-identical attributes.

NODES_HEADER = ["node_id", "lat", "lon"]
EDGES_HEADER = ["src", "dst", "length_m", "speed_kph", "travel_time_s", "highway_class", "lanes"]


def graph_to_csv(graph: Crop, config_hash: str | None = None) -> tuple[str, str]:
    """Serialize a graph to (nodes_csv, edges_csv) text."""
    prefix = f"# config_hash={config_hash}\n" if config_hash else ""
    nbuf = io.StringIO()
    nbuf.write(prefix)
    w = csv.writer(nbuf, lineterminator="\n")
    w.writerow(NODES_HEADER)
    for nid in sorted(graph.nodes):
        lat, lon = graph.nodes[nid]
        w.writerow([nid, repr(lat), repr(lon)])

    ebuf = io.StringIO()
    ebuf.write(prefix)
    w = csv.writer(ebuf, lineterminator="\n")
    w.writerow(EDGES_HEADER)
    for e in graph.edges:
        w.writerow(
            [
                e.src,
                e.dst,
                repr(e.length_m),
                repr(e.speed_kph),
                repr(e.travel_time_s),
                e.highway_class.value,
                "" if e.lanes is None else e.lanes,
            ]
        )
    return nbuf.getvalue(), ebuf.getvalue()
