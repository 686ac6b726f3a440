"""Shared construction helpers for the test suite."""
from __future__ import annotations

import math
import random
from collections import Counter
from datetime import date, timedelta

import numpy as np

from roadtwin.geo import EARTH_RADIUS_M
from roadtwin.road_graph import Edge, IndexGraph
from roadtwin.osm_ingest import HighwayClass, RadiusView, RawRoadData
from roadtwin.embedding import RoadEmbedding
from roadtwin.traffic_data import (
    QUALITY_OBSERVED,
    TrafficSeries,
)

LAT0, LON0 = 40.0, -3.0


class RoadGraph:
    """Directed multigraph of hand-built edges: the graph type of the tests
    and oracles, with string node ids.  Parallel edges are allowed."""

    def __init__(self, nodes: dict[str, tuple[float, float]], edges: list[Edge]):
        self.nodes = dict(nodes)
        self.edges = list(edges)
        self._out: dict[str, list[int]] = {n: [] for n in self.nodes}
        self._in: dict[str, list[int]] = {n: [] for n in self.nodes}
        for i, e in enumerate(self.edges):
            self._out[e.src].append(i)
            self._in[e.dst].append(i)

    def out_edges(self, node: str) -> list[Edge]:
        return [self.edges[i] for i in self._out[node]]

    def in_edges(self, node: str) -> list[Edge]:
        return [self.edges[i] for i in self._in[node]]


def index_graph(graph: RoadGraph, nodes) -> IndexGraph:
    """The subgraph of ``graph`` induced by ``nodes``, in the index form
    Brandes reads: sorted ids, out-edges in edge order."""
    order = sorted(nodes)
    rank = {v: i for i, v in enumerate(order)}
    return IndexGraph(
        order,
        [[(rank[e.dst], e.travel_time_s) for e in graph.out_edges(v) if e.dst in rank]
         for v in order],
    )


def adjacency(graph: RoadGraph) -> tuple[list[str], list[list[tuple[int, float]]]]:
    """``(ids, out)``: a graph on rows, the form ``dijkstra_from`` reads;
    row ``i`` is ``ids[i]``, in the graph's node order."""
    ids = list(graph.nodes)
    row = {v: i for i, v in enumerate(ids)}
    return ids, [[(row[e.dst], e.travel_time_s) for e in graph.out_edges(v)] for v in ids]


def make_graph(triples, cls=HighwayClass.RESIDENTIAL, coords=None) -> RoadGraph:
    """Graph from (src, dst, travel_time_s) triples.

    Length equals travel time (speed fixed at 1 m/s) unless real
    coordinates are supplied via ``coords``.
    """
    names = sorted({u for t in triples for u in t[:2]})
    nodes = {n: (coords[n] if coords else (0.0, 0.0)) for n in names}
    edges = [Edge(u, v, float(w), 3.6, float(w), cls) for u, v, w in triples]
    return RoadGraph(nodes, edges)


def north_of(lat: float, meters: float) -> float:
    """Latitude ``meters`` due north of ``lat``."""
    return lat + math.degrees(meters / EARTH_RADIUS_M)


def east_of(lat: float, lon: float, meters: float) -> float:
    """Longitude ``meters`` due east at latitude ``lat``."""
    return lon + math.degrees(meters / (EARTH_RADIUS_M * math.cos(math.radians(lat))))


def view_of(nodes, ways, radius_m=10_000.0) -> RadiusView:
    """Radius view of the extract of ``nodes`` and ``ways`` (``(refs,
    tags)`` pairs, given way ids 1, 2, ...), centred on the first node."""
    raw = RawRoadData.of(nodes, [(str(i), refs, tags) for i, (refs, tags) in enumerate(ways, 1)])
    return RadiusView(raw, next(iter(nodes.values())), radius_m)


def row_of(view: RadiusView, node_id: str) -> int:
    """The view's row of a node id: its site, or its row in the extract."""
    return view.site if node_id == view.site_id else view.raw.node_ids.index(node_id)


def view_edges(view: RadiusView, nodes, direction="out") -> list[tuple[str, str, float]]:
    """``(src, dst, travel_time_s)`` of the out-edges (or in-edges) of the
    view's nodes ``nodes`` (ids), node by node, in edge order."""
    adjacent = view.out if direction == "out" else view.inn
    edges = []
    for v in nodes:
        for w, t in adjacent[row_of(view, v)]:
            edges.append((v, view.node_id(w), t) if direction == "out" else (view.node_id(w), v, t))
    return edges


def graph_edges(graph: RoadGraph, nodes, direction="out") -> list[tuple[str, str, float]]:
    """:func:`view_edges` of a :class:`RoadGraph`."""
    adjacent = graph.out_edges if direction == "out" else graph.in_edges
    return [(e.src, e.dst, e.travel_time_s) for v in nodes for e in adjacent(v)]


def index_pairs(graph: IndexGraph) -> list[tuple[str, str]]:
    """``(src, dst)`` ids of an index-form graph's edges, per node."""
    return [(graph.nodes[i], graph.nodes[j]) for i, out in enumerate(graph.out) for j, _ in out]


def emb(sensor_id: str, normalized, raw=None) -> RoadEmbedding:
    """Embedding stub with a given normalized vector (for selection tests)."""
    raw = raw if raw is not None else list(normalized)
    return RoadEmbedding(
        sensor_id=sensor_id,
        spbc_central=raw[0],
        spbc_neighbors_max=raw[1],
        spbc_neighbors_median=raw[2],
        travel_time_motorway_s=raw[3],
        travel_time_primary_s=raw[4],
        road_type_code=raw[5],
        lanes=raw[6],
        normalized=tuple(float(v) for v in normalized),
    )


def make_series(days, sensor_id="t", interval_min=15) -> TrafficSeries:
    """Series from {date: values}; values may be a scalar, a full-day
    array, or contain NaN to mark missing slots.  Dates absent from the
    mapping (inside the span) stay entirely missing."""
    dates = sorted(days)
    start, end = dates[0], dates[-1]
    n_days = (end - start).days + 1
    slots = 1440 // interval_min
    flows = np.zeros((n_days, slots))
    quality = np.zeros((n_days, slots), dtype=np.int8)
    for d, vals in days.items():
        i = (d - start).days
        arr = np.asarray(vals, dtype=float)
        if arr.ndim == 0:
            arr = np.full(slots, float(arr))
        if arr.shape != (slots,):
            raise AssertionError(f"day {d}: expected {slots} slots, got {arr.shape}")
        mask = ~np.isnan(arr)
        flows[i][mask] = arr[mask]
        quality[i][mask] = QUALITY_OBSERVED
    return TrafficSeries(sensor_id, interval_min, start, flows, quality)


def week_of(start: date, n: int):
    return [start + timedelta(days=i) for i in range(n)]


MONDAY = date(2019, 1, 7)  # a plain Monday, no 2019 holiday nearby


def osm_doc(nodes, ways):
    """Tiny OSM XML builder: nodes {id: (lat, lon)}, ways [(id, refs, tags)]."""
    parts = ['<?xml version="1.0" encoding="UTF-8"?>', '<osm version="0.6">']
    for nid, (lat, lon) in nodes.items():
        parts.append(f'<node id="{nid}" lat="{lat!r}" lon="{lon!r}"/>')
    for wid, refs, tags in ways:
        parts.append(f'<way id="{wid}">')
        for r in refs:
            parts.append(f'<nd ref="{r}"/>')
        for k, v in tags.items():
            parts.append(f'<tag k="{k}" v="{v}"/>')
        parts.append("</way>")
    parts.append("</osm>")
    return "\n".join(parts).encode("utf-8")


def node_coords(raw: RawRoadData) -> dict[str, tuple[float, float]]:
    """Every node of an extract, id -> ``(lat, lon)``, in file order."""
    return dict(zip(raw.node_ids, zip(raw.lat.tolist(), raw.lon.tolist())))


def way_triples(raw: RawRoadData) -> list[tuple[str, list[str], dict[str, str]]]:
    """``(way_id, node ids, tags)`` of each drivable way, in file order:
    what ``RawRoadData.of`` takes."""
    bounds = raw.way_start.tolist()
    ids = np.array(raw.node_ids, dtype=object)
    return [(w.way_id, ids[raw.occ_node[a:b]].tolist(), w.tags)
            for w, a, b in zip(raw.ways, bounds[:-1], bounds[1:])]


# Rewriters of a parsed canonical extract: each writes the same road
# network as another document, which must give the same features.

def shuffled_ways_doc(raw: RawRoadData, seed=0) -> bytes:
    """The extract with its ways in a seeded random order."""
    ways = way_triples(raw)
    random.Random(seed).shuffle(ways)
    return osm_doc(node_coords(raw), ways)


def split_at_junctions_doc(raw: RawRoadData) -> bytes:
    """The extract with each way cut at every inner node that two or more
    ways pass, one way per junction-to-junction stretch, renumbered."""
    triples = way_triples(raw)
    ways_through = Counter(nid for _, refs, _ in triples for nid in set(refs))
    pieces = []
    for _, refs, tags in triples:
        start = 0
        for k in range(1, len(refs) - 1):
            if ways_through[refs[k]] >= 2:
                pieces.append((refs[start : k + 1], tags))
                start = k
        pieces.append((refs[start:], tags))
    ways = [(str(i), refs, tags) for i, (refs, tags) in enumerate(pieces, 1)]
    return osm_doc(node_coords(raw), ways)


def commented_doc(data: bytes) -> bytes:
    """The document with a comment after its XML declaration, which takes
    it out of canonical form and so through the element handlers."""
    end = data.index(b"?>") + 2
    return data[:end] + b"\n<!-- rewritten -->" + data[end:]


def grid_extract(n=14, spacing_m=110.0, bends=2, seed=7) -> RawRoadData:
    """n x n junction grid of map-spanning ways with bend nodes between junctions.

    Every 5th line is a oneway motorway and every 4th primary (some with
    maxspeed and lanes tags); one vertical line is split into two ways
    meeting mid-grid, and a footway-free residential loop closes on
    itself.
    """
    rng = random.Random(seed)
    nodes: dict[str, tuple[float, float]] = {}

    def point(x_m, y_m):
        lat = north_of(LAT0, y_m + rng.uniform(-3.0, 3.0))
        return lat, east_of(lat, LON0, x_m + rng.uniform(-3.0, 3.0))

    for i in range(n):
        for j in range(n):
            nodes[f"j{i}_{j}"] = point(i * spacing_m, j * spacing_m)

    def line(ids_of, tag):
        refs = []
        for k in range(n):
            refs.append(ids_of(k))
            if k < n - 1:
                for b in range(1, bends + 1):
                    nid = f"{tag}b{k}_{b}"
                    a, c = nodes[ids_of(k)], nodes[ids_of(k + 1)]
                    f = b / (bends + 1)
                    nodes[nid] = (a[0] + f * (c[0] - a[0]) + rng.uniform(-2e-5, 2e-5),
                                  a[1] + f * (c[1] - a[1]) + rng.uniform(-2e-5, 2e-5))
                    refs.append(nid)
        return refs

    def tags(i):
        if i % 5 == 0:
            return {"highway": "motorway", "oneway": "yes", "lanes": "3"}
        if i % 4 == 0:
            return {"highway": "primary", "maxspeed": "60", "lanes": "2"}
        return {"highway": "residential" if i % 2 else "tertiary"}

    ways = []
    for i in range(n):
        ways.append((f"h{i}", line(lambda k, i=i: f"j{k}_{i}", f"h{i}"), tags(i)))
        refs = line(lambda k, i=i: f"j{i}_{k}", f"v{i}")
        if i == 3:
            mid = refs.index(f"j{i}_{n // 2}")
            ways.append(("v3a", refs[: mid + 1], tags(i)))
            ways.append(("v3b", refs[mid:], {"highway": "secondary_link"}))
        else:
            ways.append((f"v{i}", refs, tags(i)))
    loop = ["j2_2", "j2_3", "j3_3", "j3_2", "j2_2"]
    ways.append(("loop", loop, {"highway": "residential"}))
    return RawRoadData.of(nodes, ways)


def tangled_extract() -> RawRoadData:
    """Loops, repeated nodes, zero-length pairs, a single-node way and an
    empty way."""
    nodes = {
        "a": (LAT0, LON0),
        "b": (north_of(LAT0, 200), LON0),
        "c": (north_of(LAT0, 400), LON0),
        "d": (north_of(LAT0, 400), east_of(LAT0, LON0, 250)),
        "e": (LAT0, east_of(LAT0, LON0, 250)),
        "f": (north_of(LAT0, 600), LON0),
        "twin": (north_of(LAT0, 200), LON0),
        "g": (north_of(LAT0, -150), LON0),
        "h": (north_of(LAT0, -300), LON0),
        "i": (north_of(LAT0, -400), east_of(LAT0, LON0, 100)),
        "j": (north_of(LAT0, -400), east_of(LAT0, LON0, -100)),
    }
    ways = [
        ("1", ["a", "b", "c", "d", "e", "a"], {"highway": "tertiary"}),
        ("2", ["b", "twin", "d"], {"highway": "primary", "oneway": "true"}),
        ("3", ["c", "f", "f"], {"highway": "residential", "maxspeed": "20 mph"}),
        ("4", ["e", "d", "e"], {"highway": "residential"}),
        ("5", ["f"], {"highway": "residential"}),
        ("6", [], {"highway": "residential"}),
        # h is on this way only, twice: not a junction
        ("7", ["a", "g", "h", "i", "j", "h", "e"], {"highway": "secondary"}),
    ]
    return RawRoadData.of(nodes, ways)


def shapes_extract():
    """Map shapes a real extract has, laid out in metres around (LAT0, LON0).

    Returns ``(raw, probes)``; ``probes`` maps a name to a (lat, lon)
    position next to the shape it is named after:

    - ``curve``: on the chord of a residential way bending 200 m east of
      it (``curve_apex`` sits on the bend itself, far from the chord,
      and a 230 m radius around ``curve_reentry`` holds both ends of the
      bend but not its apex, so the way leaves the radius and re-enters);
    - ``dual``: midway between the two oneway carriageways of a dual
      secondary road, 5 m from each (equidistant);
    - ``middle``: on a straight way whose only junctions are 1 km away on
      either side, so a small radius keeps its middle alone;
    - ``repeat``: next to a way that passes one of its nodes twice;
    - ``parallel``: on the common chord of two residential ways between
      the same two junctions, over the same geometry (equal lengths);
    - ``near_junction``: 10 m off the primary road, with the foot 0.3 m
      from a junction;
    - ``oneway_in``: 2 m off a tertiary road, with the foot 0.2 m from a
      junction where a oneway residential road leads away south; it can
      only be driven towards the junction;
    - ``hub``: on the primary road in the middle of everything.
    - ``hook``: 40 m from the apex of a residential way that bends 200 m
      north of its chord, so its geometry comes within a 100 m snap
      threshold while its chord stays 160 m away.

    A oneway motorway runs 2.6 km north of the origin: it and the bend of
    its ramp lie more than 2 km from every probe.
    """
    nodes: dict[str, tuple[float, float]] = {}

    def at(nid, x_m, y_m):
        lat = north_of(LAT0, y_m)
        nodes[nid] = (lat, east_of(lat, LON0, x_m))
        return nid

    def pos(x_m, y_m):
        lat = north_of(LAT0, y_m)
        return lat, east_of(lat, LON0, x_m)

    ways = []
    # primary spine along y = 0
    spine = [at(f"p{i}", x, 0.0) for i, x in enumerate((-600.0, -300.0, 0.0, 300.0, 600.0))]
    ways.append(("spine", spine, {"highway": "primary", "lanes": "2"}))
    # a residential way bending east between p2 and c_top (chord along x = 0)
    bend = [at(f"cb{k}", 200.0 * math.sin(math.pi * k / 8), 200.0 - 200.0 * math.cos(math.pi * k / 8))
            for k in range(1, 8)]
    ways.append(("curve", ["p2", *bend, at("c_top", 0.0, 400.0)], {"highway": "residential"}))
    ways.append(("top", ["c_top", at("t_w", -300.0, 400.0), "p1"], {"highway": "tertiary"}))
    # dual carriageway: eastbound at y = -30, westbound at y = -40
    ways.append(("dual_e", [at("de0", -500.0, -30.0), at("de1", 0.0, -30.0), at("de2", 500.0, -30.0)],
                    {"highway": "secondary", "oneway": "yes", "lanes": "2"}))
    ways.append(("dual_w", [at("dw0", 500.0, -40.0), at("dw1", 0.0, -40.0), at("dw2", -500.0, -40.0)],
                    {"highway": "secondary", "oneway": "yes", "lanes": "2"}))
    ways.append(("dual_link_e", ["de2", "p4", "dw0"], {"highway": "secondary_link"}))
    ways.append(("dual_link_w", ["dw2", "p0", "de0"], {"highway": "secondary_link"}))
    # a long straight way, junctions only at its ends
    long_refs = [at(f"l{k}", -1000.0 + 100.0 * k, 700.0) for k in range(21)]
    ways.append(("long", long_refs, {"highway": "residential", "maxspeed": "20 mph"}))
    ways.append(("long_w", ["l0", at("lw", -1000.0, 0.0), "p0"], {"highway": "tertiary"}))
    ways.append(("long_e", ["l20", at("le", 1000.0, 0.0), "p4"], {"highway": "tertiary"}))
    # a way through r1 twice, r1 on no other way
    ways.append(("repeat", ["p1", at("r1", -300.0, -150.0), at("r2", -250.0, -250.0),
                               at("r3", -350.0, -250.0), "r1", at("r4", -300.0, -350.0)],
                    {"highway": "residential"}))
    # two ways between q0 and q1 over the same geometry
    at("q0", 300.0, -150.0)
    at("q1", 300.0, -450.0)
    ways.append(("par_a", ["q0", at("qa", 340.0, -300.0), "q1"], {"highway": "residential"}))
    ways.append(("par_b", ["q0", at("qb", 340.0, -300.0), "q1"], {"highway": "residential"}))
    ways.append(("par_link", ["p3", "q0"], {"highway": "residential"}))
    # a tertiary road to the south, and a oneway leading away south from
    # its junction s0, drivable only towards s0
    ways.append(("south", [at("s_w", -400.0, -1200.0), at("s0", 0.0, -1200.0),
                              at("s_e", 400.0, -1200.0)], {"highway": "tertiary"}))
    ways.append(("oneway_in", [at("o2", 0.0, -1500.0), at("o1", 0.0, -1350.0), "s0"],
                    {"highway": "residential", "oneway": "yes"}))
    # a way from the tertiary road's east end bending north of its chord
    ways.append(("hook", ["s_e", at("hk1", 550.0, -1000.0), at("hk2", 700.0, -1200.0)],
                    {"highway": "residential"}))
    # a motorway far north
    ways.append(("motorway", [at("m0", -1500.0, 2600.0), at("m1", 1500.0, 2600.0)],
                    {"highway": "motorway", "oneway": "yes", "lanes": "3"}))
    ways.append(("m_ramp", ["m1", at("mr", 1500.0, 2200.0), "l20"], {"highway": "motorway_link"}))

    probes = {
        "curve": pos(15.0, 200.0),
        "curve_apex": pos(205.0, 200.0),
        "curve_reentry": pos(-50.0, 200.0),
        "dual": pos(100.0, -35.0),
        "middle": pos(10.0, 690.0),
        "repeat": pos(-290.0, -200.0),
        "parallel": pos(305.0, -300.0),
        "near_junction": pos(0.3, -10.0),
        "oneway_in": pos(0.2, -1198.0),
        "hub": pos(-150.0, 4.0),
        "hook": pos(550.0, -1040.0),
    }
    return RawRoadData.of(nodes, ways), probes
