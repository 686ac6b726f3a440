"""OpenStreetMap XML ingestion into a directed road graph.

Stream-parses the XML subset used here (node / way / nd / tag), keeps drivable
road classes only, and assembles edges with per-class free-flow speeds,
haversine lengths and travel times.  Also provides the CSV on-disk
format for graphs.
"""
from __future__ import annotations

import csv
import io
import math
import os
import re
from xml.parsers import expat
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ArgumentError,
    DomainError,
    FormatError,
    InputError,
    ParseError,
    StructuralError,
)
from .geo import haversine_m, haversine_m_array
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
    on one extract shares it.  Treat ``nodes`` and ``ways`` as read-only
    once a graph has been built: the index does not see later changes.
    """

    nodes: dict[str, tuple[float, float]]
    ways: list[Way]

    @cached_property
    def index(self) -> "MapIndex":
        return MapIndex(self)


# the prefilter's numpy haversine is trusted this far from the radius;
# nodes closer to it than this are decided by the scalar haversine_m
_PREFILTER_BAND_M = 1e-3


class MapIndex:
    """What every radius graph of one extract needs, computed once.

    The node lists of all ways are laid end to end as *occurrences*:
    occurrence ``k`` is one node at one position of one way, and
    ``way_start[w]`` is the first occurrence of way ``w``.  The arrays
    over occurrences stand in for a node -> (way, position) map: one
    gather of a per-node mask finds every way position a set of nodes
    covers, in way order.

    - ``node_ids``, ``lat``, ``lon``: the extract's nodes as rows.  A
      last extra row at NaN stands for node ids no node element defines,
      so it is never inside a radius.
    - ``way_count[row]``: how many drivable ways pass through the node.
    - ``occ_node``, ``occ_id``, ``way_of``: node row, node id and way of
      each occurrence.
    - ``pair_len[k]``: ``haversine_m`` from occurrence ``k`` to ``k + 1``
      of the same way (0.0 after a way's last node).  NaN until a crop
      first reads the pair: :func:`build_graph` measures the pairs of
      its radius that are still NaN, so pairs no crop reaches are never
      measured.
    - ``is_cut[k]``: the occurrence ends a junction-to-junction segment,
      being a way's first or last node or a node of two or more ways.

    Edges of whole segments are built on first use and kept, keyed by
    segment and speed, so speeds that differ between calls (through
    ``speed_overrides``) never share an edge.
    """

    def __init__(self, raw: RawRoadData):
        self.node_ids = list(raw.nodes)
        missing = len(self.node_ids)
        latlon = np.array(list(raw.nodes.values()) + [(math.nan, math.nan)], dtype=float)
        self.lat = latlon[:, 0].copy()
        self.lon = latlon[:, 1].copy()

        row = {nid: i for i, nid in enumerate(self.node_ids)}
        self.occ_id = [nid for way in raw.ways for nid in way.node_ids]
        self.occ_node = np.array([row.get(nid, missing) for nid in self.occ_id], dtype=np.int64)
        self.way_start = np.cumsum([0] + [len(way.node_ids) for way in raw.ways])
        self.way_of = np.repeat(np.arange(len(raw.ways)), np.diff(self.way_start))
        # one count per (way, node) pair, however often the way repeats the node
        way_node = np.unique(self.way_of * (missing + 1) + self.occ_node)
        self.way_count = np.bincount(way_node % (missing + 1), minlength=missing + 1)

        starts, stops = self.way_start[:-1], self.way_start[1:]
        nonempty = stops > starts
        self.is_cut = self.way_count[self.occ_node] >= 2
        self.is_cut[starts[nonempty]] = True
        self.is_cut[stops[nonempty] - 1] = True

        self.pair_len = np.full(self.occ_node.size, math.nan)
        self.pair_len[stops[nonempty] - 1] = 0.0
        self._whole_segment_edges: dict[tuple[int, float], tuple[Edge, ...]] = {}

    def within(self, center: tuple[float, float], radius_m: float) -> np.ndarray:
        """Boolean per node row: haversine to ``center`` is ``<= radius_m``."""
        dist = haversine_m_array(center[0], center[1], self.lat, self.lon)
        inside = dist <= radius_m - _PREFILTER_BAND_M
        for r in np.flatnonzero(np.abs(dist - radius_m) <= _PREFILTER_BAND_M).tolist():
            inside[r] = (
                haversine_m(center[0], center[1], self.lat[r].item(), self.lon[r].item())
                <= radius_m
            )
        return inside

    def measure_pairs(self, occ: np.ndarray) -> None:
        """Fill ``pair_len`` from each occurrence in ``occ`` to the next
        one, where still NaN, with one scalar ``haversine_m`` per pair."""
        occ = occ[np.isnan(self.pair_len[occ])]
        if occ.size:
            a, b = self.occ_node[occ], self.occ_node[occ + 1]
            self.pair_len[occ] = list(
                map(haversine_m, self.lat[a].tolist(), self.lon[a].tolist(),
                    self.lat[b].tolist(), self.lon[b].tolist())
            )


def _as_bytes(source) -> bytes:
    if isinstance(source, bytes):
        return source
    if isinstance(source, (str, os.PathLike)):
        try:
            with open(source, "rb") as fh:
                return fh.read()
        except OSError as exc:
            raise InputError(f"cannot read OSM extract: {exc}") from exc
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
    index: MapIndex, a: int, b: int, attrs: tuple
) -> tuple[Edge, ...]:
    """Edges of the way stretch from occurrence ``a`` to ``b``.

    Empty for a closed loop back to its start or a zero-length stretch.
    """
    speed, cls, lanes, oneway = attrs
    seg_len = 0.0
    # summed pair by pair, in way order, so every graph of the extract
    # gives a stretch the same float length
    for pair in index.pair_len[a:b].tolist():
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

    The graph is cropped from ``raw.index`` (see :class:`MapIndex`),
    built by the first call on an extract and reused by every later one:
    only the ways through in-radius nodes are visited, and segments
    wholly inside the radius reuse the edges built for them before.
    Nodes and edges come out in way order, as a rescan of the whole
    extract would give them.
    """
    if radius_m <= 0:
        raise ArgumentError(f"radius must be positive, got {radius_m}")
    index = raw.index
    occ = np.flatnonzero(index.within(center, radius_m)[index.occ_node])

    nodes: dict[str, tuple[float, float]] = {}
    edges: list[Edge] = []
    if occ.size:
        # maximal runs of in-radius occurrences of one way; a segment
        # ends at a run's ends and at every cut inside it
        occ_way = index.way_of[occ]
        run_start = np.ones(occ.size, dtype=bool)
        run_start[1:] = (np.diff(occ) != 1) | (occ_way[1:] != occ_way[:-1])
        run_end = np.roll(run_start, -1)
        is_bound = run_start | run_end | index.is_cut[occ]
        bounds = occ[is_bound]
        seg = np.flatnonzero(~run_start[is_bound][1:])
        starts, stops = bounds[seg], bounds[seg + 1]
        # a segment between two cuts is a whole junction-to-junction
        # segment of the map; the others are clipped by the radius
        whole = index.is_cut[starts] & index.is_cut[stops]
        # every pair a segment sums runs from an occurrence to the next
        # one of its run
        index.measure_pairs(occ[~run_end])

        attrs: dict[int, tuple] = {}
        memo = index._whole_segment_edges
        for a, b, w, is_whole in zip(
            starts.tolist(), stops.tolist(), index.way_of[starts].tolist(), whole.tolist()
        ):
            way_attrs = attrs.get(w)
            if way_attrs is None:
                way_attrs = attrs[w] = _way_attributes(raw.ways[w], speed_overrides)
            if is_whole:
                key = (a, way_attrs[0])
                seg_edges = memo.get(key)
                if seg_edges is None:
                    seg_edges = memo[key] = _segment_edges(index, a, b, way_attrs)
            else:
                seg_edges = _segment_edges(index, a, b, way_attrs)
            if seg_edges:
                src, dst = seg_edges[0].src, seg_edges[0].dst
                nodes[src] = raw.nodes[src]
                nodes[dst] = raw.nodes[dst]
                edges.extend(seg_edges)

    if not edges:
        raise DomainError(
            f"no drivable roads within {radius_m:.0f} m of "
            f"({center[0]:.5f}, {center[1]:.5f})"
        )
    return RoadGraph(nodes, edges)


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


def _strip_comments(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if not l.startswith("#"))


def graph_from_csv(nodes_csv: str, edges_csv: str) -> RoadGraph:
    """Inverse of :func:`graph_to_csv`; leading '#' comment lines are skipped."""
    nodes_csv = _strip_comments(nodes_csv)
    edges_csv = _strip_comments(edges_csv)
    nrows = list(csv.reader(io.StringIO(nodes_csv)))
    if not nrows or nrows[0] != NODES_HEADER:
        raise FormatError(f"bad nodes CSV header: {nrows[0] if nrows else 'empty file'}")
    nodes: dict[str, tuple[float, float]] = {}
    for lineno, row in enumerate(nrows[1:], start=2):
        if len(row) != 3:
            raise FormatError(f"nodes CSV row {lineno}: expected 3 fields, got {len(row)}")
        try:
            nodes[row[0]] = (float(row[1]), float(row[2]))
        except ValueError as exc:
            raise FormatError(f"nodes CSV row {lineno}: {exc}") from exc

    erows = list(csv.reader(io.StringIO(edges_csv)))
    if not erows or erows[0] != EDGES_HEADER:
        raise FormatError(f"bad edges CSV header: {erows[0] if erows else 'empty file'}")
    edges: list[Edge] = []
    for lineno, row in enumerate(erows[1:], start=2):
        if len(row) != 7:
            raise FormatError(f"edges CSV row {lineno}: expected 7 fields, got {len(row)}")
        try:
            edges.append(
                Edge(
                    src=row[0],
                    dst=row[1],
                    length_m=float(row[2]),
                    speed_kph=float(row[3]),
                    travel_time_s=float(row[4]),
                    highway_class=HighwayClass(row[5]),
                    lanes=None if row[6] == "" else int(row[6]),
                )
            )
        except ValueError as exc:
            raise FormatError(f"edges CSV row {lineno}: {exc}") from exc
    return RoadGraph(nodes, edges)
