"""OpenStreetMap XML ingestion into a directed road graph.

Stream-parses the XML subset used here (node / way / nd / tag), keeps drivable
road classes only, and assembles edges with per-class free-flow speeds,
haversine lengths and travel times: node by node through a lazy
:class:`RadiusView` of the extract's index, or all at once through
:func:`build_graph`.  Also writes graphs in their CSV on-disk format.
"""
from __future__ import annotations

import csv
import io
import math
import os
import re
from bisect import bisect_left
from xml.parsers import expat
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ArgumentError,
    DomainError,
    FormatError,
    ParseError,
    StructuralError,
    read_bytes,
)
from .geo import EARTH_RADIUS_M, coordinate_problem, haversine_m, haversine_m_array
from .road_graph import Edge, HighwayClass, RoadGraph

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
_KEEP_TAGS = ("highway", "maxspeed", "lanes", "oneway", "name")

_NUM_RE = re.compile(r"[-+]?\d+(?:\.\d+)?")


@dataclass
class Way:
    way_id: str
    node_ids: list[str]
    tags: dict[str, str] = field(default_factory=dict)

    @property
    def highway_class(self) -> HighwayClass:
        return HighwayClass(self.tags["highway"])


@dataclass
class RawRoadData:
    """Parsed extract: every node, plus the drivable ways only.

    ``index`` is a :class:`MapIndex` of the extract, built on first use
    and kept for the object's lifetime, so every :func:`build_graph` call
    and :class:`RadiusView` on one extract shares it.  Treat ``nodes``
    and ``ways`` as read-only once a graph has been built: the index does
    not see later changes.
    """

    nodes: dict[str, tuple[float, float]]
    ways: list[Way]

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

    - ``row``, ``lat``, ``lon``: the extract's nodes as rows (``row``
      maps a node id to its row).  A last extra row at NaN stands for
      node ids no node element defines, so it is never inside a radius.
      A node that :func:`geo.coordinate_problem` objects to (beyond the
      poles or +-180 degrees, NaN or infinite) raises ``FormatError``.
    - ``occ_node``, ``occ_id``, ``way_of``: node row, node id and way of
      each occurrence.
    - ``occ_by_node[node_occ[row]:node_occ[row + 1]]``: the occurrences
      of one node row, in way order.
    - ``pair_len[k]``: ``haversine_m`` from occurrence ``k`` to ``k + 1``
      of the same way (0.0 after a way's last node).  NaN until a crop
      first reads the pair: a :class:`RadiusView` measures the pairs it
      reads that are still NaN, so pairs no crop reaches are never
      measured.
    - ``is_cut[k]``: the occurrence ends a junction-to-junction segment,
      being a way's first or last node or a node of two or more ways.
    - ``lat_order``: the node rows by latitude (NaN last), and
      ``lat_sorted``, ``lon_by_lat`` their coordinates in that order, for
      the latitude band of :meth:`within`.

    The index holds no segments and no edges: each :class:`RadiusView`
    cuts its own in-radius occurrences into pieces with ``way_of`` and
    ``is_cut`` and builds their edges, so views share pair lengths only.
    """

    def __init__(self, raw: RawRoadData):
        self.row = {nid: i for i, nid in enumerate(raw.nodes)}
        missing = len(self.row)
        latlon = np.array(list(raw.nodes.values()) + [(math.nan, math.nan)], dtype=float)
        self.lat = latlon[:, 0].copy()
        self.lon = latlon[:, 1].copy()
        # NaN compares false, so a NaN coordinate is off the globe too
        off_globe = ~((np.abs(self.lat[:-1]) <= 90.0) & (np.abs(self.lon[:-1]) <= 180.0))
        if off_globe.any():
            r = int(off_globe.argmax())
            problem = coordinate_problem(self.lat[r].item(), self.lon[r].item())
            raise FormatError(f"node {list(raw.nodes)[r]}: {problem}")

        self.occ_id = [nid for way in raw.ways for nid in way.node_ids]
        # int32 keeps the per-occurrence tables small: an extract has far
        # fewer than 2**31 nodes or occurrences
        self.occ_node = np.array(
            [self.row.get(nid, missing) for nid in self.occ_id], dtype=np.int32
        )
        self.way_start = np.cumsum([0] + [len(way.node_ids) for way in raw.ways])
        self.way_of = np.repeat(np.arange(len(raw.ways), dtype=np.int32), np.diff(self.way_start))
        # drivable ways through each node, one count per (way, node) pair
        # however often the way repeats the node
        way_node = np.sort(self.way_of.astype(np.int64) * (missing + 1) + self.occ_node)
        distinct = np.ones(way_node.size, dtype=bool)
        distinct[1:] = way_node[1:] != way_node[:-1]
        way_count = np.bincount(way_node[distinct] % (missing + 1), minlength=missing + 1)

        starts, stops = self.way_start[:-1], self.way_start[1:]
        nonempty = stops > starts
        self.is_cut = way_count[self.occ_node] >= 2
        self.is_cut[starts[nonempty]] = True
        self.is_cut[stops[nonempty] - 1] = True

        self.pair_len = np.full(self.occ_node.size, math.nan)
        self.pair_len[stops[nonempty] - 1] = 0.0

        # occurrences of each node row, in way order
        self.occ_by_node = np.argsort(self.occ_node, kind="stable").astype(np.int32)
        self.node_occ = np.zeros(missing + 2, dtype=np.int32)
        np.cumsum(np.bincount(self.occ_node, minlength=missing + 1), out=self.node_occ[1:])

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

    def pair_lengths(self, a: int, b: int) -> list[float]:
        """``pair_len[a:b]`` as a list, measuring the pairs still NaN first.

        The common case, every pair already measured, costs one slice.
        """
        lengths = self.pair_len[a:b].tolist()
        if any(map(math.isnan, lengths)):
            rows = self.occ_node[a : b + 1]
            lat, lon = self.lat[rows].tolist(), self.lon[rows].tolist()
            lengths = [
                haversine_m(lat[j], lon[j], lat[j + 1], lon[j + 1]) if math.isnan(x) else x
                for j, x in enumerate(lengths)
            ]
            self.pair_len[a:b] = lengths
        return lengths


def _as_bytes(source) -> bytes:
    if isinstance(source, bytes):
        return source
    if isinstance(source, (str, os.PathLike)):
        return read_bytes(source, "OSM extract")
    raise ArgumentError(f"unsupported OSM source type: {type(source).__name__}")


def parse_osm_extract(source) -> RawRoadData:
    """Parse OSM XML bytes (or a file path) into :class:`RawRoadData`.

    Reads ``node`` and ``way`` elements that are direct children of the
    root, and the ``nd`` / ``tag`` direct children of each such way;
    namespaced elements and anything nested deeper are ignored.  Keeps
    all nodes and only the ways whose ``highway`` tag is a drivable
    class; non-drivable ways (footways, cycleways, ...) are discarded.
    The document is streamed through expat, never held as a tree.

    Raises ``ParseError`` with the byte index on malformed XML (including
    an entity reference it cannot expand), then ``FormatError`` for the
    first node without a usable id/lat/lon, then ``StructuralError``
    when a retained way references a missing node.
    """
    data = _as_bytes(source)
    nodes: dict[str, tuple[float, float]] = {}
    ways: list[Way] = []
    bad_node = None  # first node error, raised once the whole XML is well formed
    depth = 0  # of the open element; the root is 1
    way = None  # the root-child way being read
    external_entities = set()

    def start(name, attrs):
        nonlocal depth, way, bad_node
        depth += 1
        if depth == 2:
            if name == "node":
                try:
                    nid = attrs["id"]
                    nodes[nid] = (float(attrs["lat"]), float(attrs["lon"]))
                except (KeyError, ValueError) as exc:
                    if bad_node is None:
                        bad_node = exc
            elif name == "way":
                way = Way(way_id=attrs.get("id", ""), node_ids=[], tags={})
        elif depth == 3 and way is not None:
            if name == "nd":
                way.node_ids.append(attrs.get("ref", ""))
            elif name == "tag":
                k = attrs.get("k", "")
                if k in _KEEP_TAGS:
                    way.tags[k] = attrs.get("v", "")

    def end(name):
        nonlocal depth, way
        if depth == 2 and way is not None:
            if way.tags.get("highway") in ACCEPTED_HIGHWAYS:
                ways.append(way)
            way = None
        depth -= 1

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
    if bad_node is not None:
        raise FormatError(f"node element missing id/lat/lon: {bad_node}") from bad_node

    for way in ways:
        for ref in way.node_ids:
            if ref not in nodes:
                raise StructuralError(
                    f"way {way.way_id} references missing node {ref}"
                )
    return RawRoadData(nodes=nodes, ways=ways)


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


def _segment_edges(
    index: MapIndex, a: int, b: int, attrs: tuple, lengths: list[float]
) -> tuple[Edge, ...]:
    """Edges of the way stretch from occurrence ``a`` to ``b``, whose
    pair lengths are ``lengths``.

    Empty for a closed loop back to its start or a zero-length stretch.
    """
    speed, cls, lanes, oneway = attrs
    seg_len = 0.0
    # summed pair by pair, in way order, so every graph of the extract
    # gives a stretch the same float length
    for pair in lengths:
        seg_len += pair
    src, dst = index.occ_id[a], index.occ_id[b]
    if src != dst and seg_len > 0.0:
        travel_time = seg_len / (speed / 3.6)
        forward = Edge(src, dst, seg_len, speed, travel_time, cls, lanes)
        if oneway:
            return (forward,)
        return (forward, Edge(dst, src, seg_len, speed, travel_time, cls, lanes))
    return ()


def build_graph(
    raw: RawRoadData,
    center: tuple[float, float],
    radius_m: float = 2000.0,
    speed_overrides: dict[str, float] | None = None,
) -> RoadGraph:
    """Assemble the directed travel-time graph around ``center``.

    Nodes beyond ``radius_m`` (haversine) are dropped together with the
    way fragments through them.  Ways are split into edges at every node
    shared by two or more drivable ways of the extract; intermediate
    nodes contribute geometry only (their haversine lengths are summed
    into the edge).  Two-way roads produce one edge per direction.

    Every edge of a :class:`RadiusView` of the extract, materialised at
    once: only the in-radius stretches of ways are visited.  Nodes and
    edges come out in way order, as a rescan of the whole extract would
    give them.
    """
    edges = [e for _, e in RadiusView(raw, center, radius_m, speed_overrides).edges()]
    nodes: dict[str, tuple[float, float]] = {}
    for e in edges:
        nodes.setdefault(e.src, raw.nodes[e.src])
        nodes.setdefault(e.dst, raw.nodes[e.dst])
    return RoadGraph(nodes, edges)


# metres added to a near-point query, so that rounding in the box test
# never drops an edge the snap's own projection puts within the bound
_NEAR_MARGIN_M = 1.0


class RadiusView:
    """The radius graph around ``center``, built per node on first read.

    The view's *pieces* are found once, up front, from the in-radius
    occurrences of ``raw.index``: a piece is a maximal in-radius run of
    one junction-to-junction segment holding at least one pair, and
    ``_first[i]`` and ``_last[i]`` are the first and last occurrence of
    piece ``i``, in way order.  A piece's edges are built once, the first
    time it is read, with its pair lengths measured on first need.  A
    node's out- and in-edges are those of the pieces that start or end at
    one of its occurrences.  Edges are keyed by ``(piece start
    occurrence, 0 forward / 1 backward)``, which sorts them in way order;
    :func:`build_graph` materialises them all.

    Reads: ``out_edges(v)`` and ``in_edges(v)`` (lists of ``(key, edge)``
    in edge order), ``coords(v)``, ``has_node(v)`` and
    ``edges_near(lat, lon, max_m)``.
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
        # lists, so that a node read looks its pieces up by bisection
        self._first: list[int] = pairs[starts].tolist()
        self._way: list[int] = index.way_of[pairs[starts]].tolist()
        self._last: list[int] = (pairs[ends] + 1).tolist()
        self._adjacent: dict[str, tuple[list, list]] = {}
        self._piece_edges: dict[int, tuple[Edge, ...]] = {}
        self._attrs: dict[int, tuple] = {}

    def coords(self, node: str) -> tuple[float, float]:
        return self.raw.nodes[node]

    def has_node(self, node: str) -> bool:
        out, inn = self._adjacency(node)
        return bool(out or inn)

    def out_edges(self, node: str) -> list[tuple[tuple[int, int], Edge]]:
        return self._adjacency(node)[0]

    def in_edges(self, node: str) -> list[tuple[tuple[int, int], Edge]]:
        return self._adjacency(node)[1]

    def edges(self) -> list[tuple[tuple[int, int], Edge]]:
        """``(key, edge)`` of every edge, in edge order.

        Raises ``DomainError`` when the radius holds no edge.
        """
        edges = self._keyed_edges(range(len(self._first)))
        if not edges:
            raise DomainError(
                f"no drivable roads within {self.radius_m:.0f} m of "
                f"({self.center[0]:.5f}, {self.center[1]:.5f})"
            )
        return edges

    def edges_near(self, lat: float, lon: float, max_m: float | None):
        """``(key, edge)`` of every edge that may lie within ``max_m`` of
        the position, in edge order; :meth:`edges` when ``max_m`` is None.

        A piece is kept when the box of its chord (the box spanned by its
        two end nodes), in the equirectangular projection around the
        position, comes within ``max_m`` (plus a margin).  Its edges run
        along that chord, which lies inside the box.
        """
        if max_m is None:
            return self.edges()
        index = self.index
        ends = index.occ_node[np.array([self._first, self._last], dtype=np.intp)]
        lat_end, lon_end = index.lat[ends], index.lon[ends]
        kx = math.radians(1.0) * EARTH_RADIUS_M * math.cos(math.radians(lat))
        ky = math.radians(1.0) * EARTH_RADIUS_M
        dx = (np.clip(lon, lon_end.min(axis=0), lon_end.max(axis=0)) - lon) * kx
        dy = (np.clip(lat, lat_end.min(axis=0), lat_end.max(axis=0)) - lat) * ky
        near = np.flatnonzero(dx * dx + dy * dy <= (max_m + _NEAR_MARGIN_M) ** 2)
        return self._keyed_edges(near.tolist())

    def _keyed_edges(self, pieces) -> list[tuple[tuple[int, int], Edge]]:
        """``(key, edge)`` of the given pieces (ascending), in edge order."""
        return [((self._first[i], d), e) for i in pieces for d, e in enumerate(self._edges(i))]

    def _edges(self, i: int) -> tuple[Edge, ...]:
        """Edges of piece ``i``, as :func:`build_graph` builds them."""
        edges = self._piece_edges.get(i)
        if edges is None:
            index = self.index
            a, b = self._first[i], self._last[i]
            w = self._way[i]
            attrs = self._attrs.get(w)
            if attrs is None:
                attrs = self._attrs[w] = _way_attributes(self.raw.ways[w], self.speed_overrides)
            edges = self._piece_edges[i] = _segment_edges(
                index, a, b, attrs, index.pair_lengths(a, b)
            )
        return edges

    def _adjacency(self, node: str) -> tuple[list, list]:
        adjacent = self._adjacent.get(node)
        if adjacent is None:
            index = self.index
            out: list = []
            inn: list = []
            r = index.row.get(node)
            if r is not None:
                # the pieces that start or end at one of the node's occurrences
                pieces = set()
                lo, hi = index.node_occ[r : r + 2].tolist()
                for k in index.occ_by_node[lo:hi].tolist():
                    for ends in (self._first, self._last):
                        i = bisect_left(ends, k)
                        if i < len(ends) and ends[i] == k:
                            pieces.add(i)
                for key, e in self._keyed_edges(sorted(pieces)):
                    if e.src == node:
                        out.append((key, e))
                    if e.dst == node:
                        inn.append((key, e))
            adjacent = self._adjacent[node] = (out, inn)
        return adjacent


# ---------------------------------------------------------------------------
# CSV on-disk format
# ---------------------------------------------------------------------------
# Floats are written with repr (shortest round-trip form) so that a
# saved graph reloads with bit-identical attributes.

NODES_HEADER = ["node_id", "lat", "lon"]
EDGES_HEADER = ["src", "dst", "length_m", "speed_kph", "travel_time_s", "highway_class", "lanes"]


def graph_to_csv(graph: RoadGraph, config_hash: str | None = None) -> tuple[str, str]:
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
