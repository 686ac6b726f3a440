"""Independent reference implementations used only by the test suite.

Each oracle computes the same quantity as a production routine through a
structurally different algorithm, so agreement between the two is strong
evidence both are right:

* ``enumerate_spbc``        - betweenness by brute-force enumeration of
                              every simple path (tiny graphs only).
* ``pair_count_spbc``       - betweenness from the sigma(s,t) path-count
                              identity on Floyd-Warshall distances.
* ``floyd_warshall``        - all-pairs travel times by dynamic
                              programming (no priority queue anywhere).
* ``chi2_sf_series``        - chi-squared survival function from the
                              regularized incomplete gamma function
                              (series + continued fraction), no scipy.
* ``average_ranks_sorted``  - per-row ascending ranks by sorting, each
                              run of equal values given the mean of its
                              positions.
* ``betweenness_dicts``     - Brandes over dicts keyed by node id, heap
                              ties broken on the ids (the original
                              ``betweenness``).
* ``bfs_hops``              - undirected hop distances by plain BFS.
* ``within_full_scan``      - a map index's in-radius node rows by one
                              haversine over every row (the original
                              ``MapIndex.within``).
* ``build_graph_full_scan`` - radius graph by rescanning every node and
                              way of the extract with scalar haversine
                              (the original ``build_graph``).
* ``embed_position_radius_graph`` - one position's embedding through the
                              whole radius graph: full crop, snap
                              against every edge, full Dijkstra and a
                              scan of every edge (the original path).
* ``parse_osm_extract_etree`` - OSM XML through a whole ``ElementTree``
                              walked child by child (the original
                              ``parse_osm_extract``).
* ``load_traffic_rowwise``  - traffic CSV through ``csv.reader`` and
                              ``datetime.fromisoformat`` one row at a
                              time (the original parser).
* ``clean_series_loop``     - spike removal slot by slot and gap filling
                              by walking the timeline (the original
                              ``clean_series``).
"""
from __future__ import annotations

import csv
import heapq
import io
import math
import xml.etree.ElementTree as ET
from dataclasses import replace
from datetime import datetime
from itertools import count

import numpy as np

from helpers import RoadGraph, index_graph, node_coords, way_triples
from roadtwin.errors import (
    ArgumentError,
    DomainError,
    FormatError,
    ParseError,
    SnapError,
    StructuralError,
)
from roadtwin.geo import haversine_m, haversine_m_array
from roadtwin.osm_ingest import (
    _KEEP_TAGS,
    ACCEPTED_HIGHWAYS,
    RawRoadData,
    default_speed,
    parse_lanes,
    parse_maxspeed_kph,
)
from roadtwin.embedding import (
    DEFAULT_LANES,
    TRAVEL_TIME_CLASSES,
    UNREACHABLE,
    RoadEmbedding,
    betweenness,
    road_type_code,
    summarize_centrality,
)
from roadtwin.geo import LocalProjection, point_segment_projection
from roadtwin.road_graph import (
    JUNCTION_REUSE_M,
    CentralNode,
    Edge,
    HighwayClass,
)
from roadtwin.traffic_data import (
    QUALITY_INTERPOLATED,
    QUALITY_MISSING,
    QUALITY_OBSERVED,
    TRAFFIC_HEADER,
    CleaningStats,
    TrafficSeries,
)

INF = math.inf


# ---------------------------------------------------------------------------
# shortest paths
# ---------------------------------------------------------------------------

def floyd_warshall(graph: RoadGraph) -> dict[tuple[str, str], float]:
    """All-pairs shortest travel times, O(n^3) DP."""
    nodes = sorted(graph.nodes)
    dist = {(u, v): (0.0 if u == v else INF) for u in nodes for v in nodes}
    for e in graph.edges:
        key = (e.src, e.dst)
        if e.travel_time_s < dist[key]:
            dist[key] = e.travel_time_s
    for k in nodes:
        for i in nodes:
            dik = dist[(i, k)]
            if dik == INF:
                continue
            for j in nodes:
                alt = dik + dist[(k, j)]
                if alt < dist[(i, j)]:
                    dist[(i, j)] = alt
    return dist


def _min_edge_times(graph: RoadGraph) -> dict[tuple[str, str], float]:
    """Cheapest direct edge per ordered node pair (parallel edges collapse)."""
    best: dict[tuple[str, str], float] = {}
    for e in graph.edges:
        key = (e.src, e.dst)
        if key not in best or e.travel_time_s < best[key]:
            best[key] = e.travel_time_s
    return best


def _edge_multiplicity(graph: RoadGraph) -> dict[tuple[str, str], int]:
    """How many parallel edges realize the cheapest time of each pair."""
    best = _min_edge_times(graph)
    mult: dict[tuple[str, str], int] = {}
    for e in graph.edges:
        key = (e.src, e.dst)
        if e.travel_time_s == best[key]:
            mult[key] = mult.get(key, 0) + 1
    return mult


def enumerate_spbc(graph: RoadGraph) -> dict[str, float]:
    """Betweenness by enumerating every simple path of every ordered pair.

    Only feasible for graphs of half a dozen nodes.  Parallel edges that
    tie the cheapest direct time multiply the path count, matching how a
    multigraph shortest-path counter sees them.
    """
    nodes = sorted(graph.nodes)
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    times = _min_edge_times(graph)
    mult = _edge_multiplicity(graph)
    for (u, v) in times:
        adj[u].append(v)
    for u in adj:
        adj[u].sort()

    bc = {n: 0.0 for n in nodes}
    for s in nodes:
        for t in nodes:
            if s == t:
                continue
            paths: list[tuple[float, tuple[str, ...], int]] = []

            def dfs(v, time_so_far, visited, path, ways):
                if v == t:
                    paths.append((time_so_far, tuple(path), ways))
                    return
                for w in adj[v]:
                    if w in visited:
                        continue
                    key = (v, w)
                    dfs(
                        w,
                        time_so_far + times[key],
                        visited | {w},
                        path + [w],
                        ways * mult[key],
                    )

            dfs(s, 0.0, {s}, [s], 1)
            if not paths:
                continue
            best_time = min(p[0] for p in paths)
            shortest = [p for p in paths if p[0] == best_time]
            sigma = sum(p[2] for p in shortest)
            for _, path, ways in shortest:
                for w in path[1:-1]:
                    bc[w] += ways / sigma
    return bc


def pair_count_spbc(graph: RoadGraph) -> dict[str, float]:
    """Betweenness from the path-count identity.

    sigma_s(v) is accumulated over nodes in order of distance from s;
    bc(w) = sum over s,t != w of sigma_s(w) * sigma_w(t) / sigma_s(t)
    restricted to pairs whose shortest path runs through w.  Uses
    Floyd-Warshall distances, so nothing is shared with the production
    Brandes implementation.
    """
    nodes = sorted(graph.nodes)
    dist = floyd_warshall(graph)
    times = _min_edge_times(graph)
    mult = _edge_multiplicity(graph)

    sigma: dict[tuple[str, str], int] = {}
    for s in nodes:
        order = sorted(
            (n for n in nodes if dist[(s, n)] < INF),
            key=lambda n: (dist[(s, n)], n),
        )
        counts = {n: 0 for n in nodes}
        counts[s] = 1
        for v in order:
            if v == s:
                continue
            total = 0
            for (u, w), t in times.items():
                if w != v or dist[(s, u)] == INF:
                    continue
                if dist[(s, u)] + t == dist[(s, v)]:
                    total += counts[u] * mult[(u, w)]
            counts[v] = total
        for v in nodes:
            sigma[(s, v)] = counts[v]

    bc = {n: 0.0 for n in nodes}
    for w in nodes:
        for s in nodes:
            if s == w or dist[(s, w)] == INF:
                continue
            for t in nodes:
                if t == w or t == s or dist[(w, t)] == INF:
                    continue
                if dist[(s, t)] == INF:
                    continue
                if dist[(s, w)] + dist[(w, t)] == dist[(s, t)]:
                    if sigma[(s, t)] == 0:
                        raise ValueError(
                            "inconsistent path counts: this oracle relies on exact "
                            "sums, use integer (or exactly representable) travel times"
                        )
                    bc[w] += sigma[(s, w)] * sigma[(w, t)] / sigma[(s, t)]
    return bc


def betweenness_dicts(graph: RoadGraph) -> dict[str, float]:
    """Shortest-path betweenness centrality of every node.

    Travel-time-weighted directed shortest paths; all paths of exactly
    equal time are counted; endpoints are excluded; no normalization.
    Heap entries carry node ids so tie handling is deterministic.
    """
    centrality = {v: 0.0 for v in graph.nodes}
    order = sorted(graph.nodes)
    for s in order:
        dist = {v: math.inf for v in order}
        sigma = {v: 0 for v in order}
        preds: dict[str, list[str]] = {v: [] for v in order}
        dist[s] = 0.0
        sigma[s] = 1
        finished: list[str] = []
        done: set[str] = set()
        heap: list[tuple[float, str]] = [(0.0, s)]
        while heap:
            d, v = heapq.heappop(heap)
            if v in done:
                continue
            done.add(v)
            finished.append(v)
            for i in graph._out[v]:
                e = graph.edges[i]
                nd = d + e.travel_time_s
                if nd < dist[e.dst]:
                    dist[e.dst] = nd
                    sigma[e.dst] = sigma[v]
                    preds[e.dst] = [v]
                    heapq.heappush(heap, (nd, e.dst))
                elif nd == dist[e.dst]:
                    sigma[e.dst] += sigma[v]
                    preds[e.dst].append(v)
        # dependency accumulation, farthest node first
        delta = {v: 0.0 for v in finished}
        for w in reversed(finished):
            if sigma[w] == 0:
                continue
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                centrality[w] += delta[w]
    return centrality


def _neighbors(graph: RoadGraph, v: str) -> list[str]:
    """The other ends of ``v``'s edges in either direction, each once."""
    ends = [e.dst for e in graph.out_edges(v)] + [e.src for e in graph.in_edges(v)]
    return [w for w in dict.fromkeys(ends) if w != v]


def bfs_hops(graph: RoadGraph, src: str) -> dict[str, int]:
    """Undirected hop counts by plain breadth-first search."""
    seen = {src: 0}
    queue = [src]
    while queue:
        nxt = []
        for v in queue:
            for w in _neighbors(graph, v):
                if w not in seen:
                    seen[w] = seen[v] + 1
                    nxt.append(w)
        queue = nxt
    return seen


# ---------------------------------------------------------------------------
# chi-squared survival function
# ---------------------------------------------------------------------------

def _gamma_p_series(a: float, z: float) -> float:
    """Regularized lower incomplete gamma by power series (z < a + 1)."""
    if z == 0.0:
        return 0.0
    term = 1.0 / a
    total = term
    for n in count(1):
        term *= z / (a + n)
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
        if n > 10_000:
            raise RuntimeError("series failed to converge")
    return total * math.exp(-z + a * math.log(z) - math.lgamma(a))


def _gamma_q_contfrac(a: float, z: float) -> float:
    """Regularized upper incomplete gamma by Lentz continued fraction."""
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in count(1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
        if i > 10_000:
            raise RuntimeError("continued fraction failed to converge")
    return h * math.exp(-z + a * math.log(z) - math.lgamma(a))


def chi2_sf_series(x: float, df: int) -> float:
    """Survival function of the chi-squared distribution.

    Q(df/2, x/2) via the regularized incomplete gamma function, computed
    from scratch with the classic series / continued-fraction split.
    """
    if df < 1:
        raise ValueError("df must be >= 1")
    if x <= 0.0:
        return 1.0
    a = df / 2.0
    z = x / 2.0
    if z < a + 1.0:
        return 1.0 - _gamma_p_series(a, z)
    return _gamma_q_contfrac(a, z)


def average_ranks_sorted(errors) -> list[list[float]]:
    """1-based ascending ranks of each row; tied runs share their mean position."""
    out = []
    for row in errors:
        order = sorted(range(len(row)), key=lambda j: row[j])
        ranks = [0.0] * len(row)
        start = 0
        while start < len(order):
            end = start
            while end + 1 < len(order) and row[order[end + 1]] == row[order[start]]:
                end += 1
            for pos in range(start, end + 1):
                ranks[order[pos]] = (start + end) / 2.0 + 1.0
            start = end + 1
        out.append(ranks)
    return out


# ---------------------------------------------------------------------------
# OSM XML
# ---------------------------------------------------------------------------

def _byte_offset(data: bytes, line: int, column: int) -> int:
    """Byte offset of an expat (line, column) position, counting the
    column's characters as bytes and splitting lines on LF only; right
    for ASCII documents with LF line ends."""
    lines = data.split(b"\n")
    return sum(len(l) + 1 for l in lines[: line - 1]) + column


def _ascii_float(text: str) -> float:
    """``float(text)`` for a number written in ASCII without digit
    grouping: ``float`` also reads ``4_0.5`` and non-ASCII digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def parse_osm_extract_etree(data: bytes) -> RawRoadData:
    """``parse_osm_extract`` on a whole ``ElementTree``: build the tree,
    then walk the root's children and each way's children.  The
    production stream parser must give the same nodes (in insertion
    order) and ways, or the same exception type and message."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, col = exc.position
        raise ParseError(
            f"malformed XML at byte {_byte_offset(data, line, col)}: {exc.msg}"
        ) from exc

    nodes: dict[str, tuple[float, float]] = {}
    ways: list[tuple[str, list[str], dict[str, str]]] = []
    for elem in root:
        if elem.tag == "node":
            try:
                nid = elem.attrib["id"]
                lat = _ascii_float(elem.attrib["lat"])
                lon = _ascii_float(elem.attrib["lon"])
            except (KeyError, ValueError) as exc:
                raise FormatError(f"node element missing id/lat/lon: {exc}") from exc
            nodes[nid] = (lat, lon)
        elif elem.tag == "way":
            tags = {}
            refs = []
            for child in elem:
                if child.tag == "nd":
                    refs.append(child.attrib.get("ref", ""))
                elif child.tag == "tag":
                    k = child.attrib.get("k", "")
                    if k in _KEEP_TAGS:
                        tags[k] = child.attrib.get("v", "")
            if tags.get("highway") in ACCEPTED_HIGHWAYS:
                ways.append((elem.attrib.get("id", ""), refs, tags))

    for way_id, refs, _ in ways:
        for ref in refs:
            if ref not in nodes:
                raise StructuralError(
                    f"way {way_id} references missing node {ref}"
                )
    return RawRoadData.of(nodes, ways)


# ---------------------------------------------------------------------------
# radius graph
# ---------------------------------------------------------------------------

def within_full_scan(index, center: tuple[float, float], radius_m: float) -> np.ndarray:
    """``MapIndex.within`` as a numpy haversine over every node row, with
    the scalar ``haversine_m`` deciding the rows within 1e-3 m of the
    radius (the original ``within``)."""
    dist = haversine_m_array(center[0], center[1], index.lat, index.lon)
    inside = dist <= radius_m - 1e-3
    for r in np.flatnonzero(np.abs(dist - radius_m) <= 1e-3).tolist():
        inside[r] = (
            haversine_m(center[0], center[1], index.lat[r].item(), index.lon[r].item())
            <= radius_m
        )
    return inside


def build_graph_full_scan(
    raw: RawRoadData,
    center: tuple[float, float],
    radius_m: float = 2000.0,
    speed_overrides: dict[str, float] | None = None,
) -> RoadGraph:
    """``build_graph`` as a full rescan of the extract on every call.

    Tests every node with scalar haversine, recounts the ways through
    every node, and walks every way pair by pair, re-measuring each
    pair.  The production crop must give the same nodes, edges and
    order.
    """
    if radius_m <= 0:
        raise ArgumentError(f"radius must be positive, got {radius_m}")
    coords = node_coords(raw)
    in_radius = {
        nid
        for nid, (lat, lon) in coords.items()
        if haversine_m(center[0], center[1], lat, lon) <= radius_m
    }

    triples = way_triples(raw)
    way_count: dict[str, int] = {}
    for _, refs, _ in triples:
        for nid in set(refs):
            way_count[nid] = way_count.get(nid, 0) + 1

    nodes: dict[str, tuple[float, float]] = {}
    edges: list[Edge] = []
    for _, refs, tags in triples:
        cls = HighwayClass(tags["highway"])
        speed = parse_maxspeed_kph(tags.get("maxspeed"))
        if speed is None:
            speed = default_speed(cls, speed_overrides)
        lanes = parse_lanes(tags.get("lanes"))
        oneway = tags.get("oneway", "").strip().lower() in ("yes", "true", "1")

        run: list[str] = []
        runs: list[list[str]] = []
        for nid in refs:
            if nid in in_radius:
                run.append(nid)
            else:
                if len(run) >= 2:
                    runs.append(run)
                run = []
        if len(run) >= 2:
            runs.append(run)

        for run in runs:
            seg_start = 0
            seg_len = 0.0
            for i in range(1, len(run)):
                a, b = run[i - 1], run[i]
                seg_len += haversine_m(*coords[a], *coords[b])
                is_cut = i == len(run) - 1 or way_count.get(run[i], 0) >= 2
                if not is_cut:
                    continue
                src, dst = run[seg_start], run[i]
                if src != dst and seg_len > 0.0:
                    travel_time = seg_len / (speed / 3.6)
                    nodes[src] = coords[src]
                    nodes[dst] = coords[dst]
                    edges.append(Edge(src, dst, seg_len, speed, travel_time, cls, lanes))
                    if not oneway:
                        edges.append(Edge(dst, src, seg_len, speed, travel_time, cls, lanes))
                seg_start = i
                seg_len = 0.0

    if not edges:
        raise DomainError(
            f"no drivable roads within {radius_m:.0f} m of "
            f"({center[0]:.5f}, {center[1]:.5f})"
        )
    return RoadGraph(nodes, edges)


# ---------------------------------------------------------------------------
# embedding through a whole radius graph
# ---------------------------------------------------------------------------
# The functions below are the embedding path as it was before positions
# were embedded from the map index node by node: each position crops the
# whole radius graph, snaps against every edge of it, and runs a full
# Dijkstra over it.  Only their names changed, and ``_check_node`` became
# an inline test.

def embed_position_radius_graph(
    raw: RawRoadData,
    cfg,
    sensor_id: str,
    lat: float,
    lon: float,
    road_type_override=None,
    lanes_override=None,
):
    """``pipeline.embed_position`` through a materialised radius graph.

    Returns ``(embedding, central, ego)``, the ego-graph as a RoadGraph.
    The centrality features come from the production ``betweenness``, fed
    the ego-graph's index form; the two travel times from a full
    Dijkstra and a scan of every edge.
    """
    graph = build_graph_full_scan(raw, (lat, lon), cfg.radius_m, cfg.default_speeds or None)
    graph, central = _insert_central_node_scan(
        graph, sensor_id, lat, lon, snap_threshold_m=cfg.snap_threshold_m
    )
    ego = _ego_graph_full(graph, central, cfg.ego_hops)
    f1, f2, f3 = summarize_centrality(betweenness(index_graph(ego, ego.nodes)), central.node_id)
    f4, f5 = _travel_times_full_scan(graph, central, TRAVEL_TIME_CLASSES)
    cls = road_type_override or central.host_edge_class
    lanes = next(n for n in (lanes_override, central.host_edge_lanes, DEFAULT_LANES[cls.base])
                 if n is not None)
    notes = () if len(ego.nodes) > 1 else ("single_node_ego",)
    emb = RoadEmbedding(sensor_id, f1, f2, f3, f4, f5, road_type_code(cls), float(lanes),
                        notes=notes)
    return emb, central, ego


def _dijkstra_full(graph: RoadGraph, src: str) -> dict[str, float]:
    """Travel-time distance from ``src`` to every node (inf if unreachable)."""
    if src not in graph.nodes:
        raise ArgumentError(f"unknown node id: {src!r}")
    dist = {n: math.inf for n in graph.nodes}
    dist[src] = 0.0
    # node id in the heap entry keeps pop order deterministic on ties
    heap: list[tuple[float, str]] = [(0.0, src)]
    done: set[str] = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for i in graph._out[v]:
            e = graph.edges[i]
            nd = d + e.travel_time_s
            if nd < dist[e.dst]:
                dist[e.dst] = nd
                heapq.heappush(heap, (nd, e.dst))
    return dist


def _split_edge(e: Edge, t: float, node_id: str) -> tuple[Edge, Edge]:
    """Split ``e`` at parameter t from src; lengths and times stay proportional."""
    first = replace(e, dst=node_id, length_m=e.length_m * t, travel_time_s=e.travel_time_s * t)
    second = replace(
        e,
        src=node_id,
        length_m=e.length_m * (1.0 - t),
        travel_time_s=e.travel_time_s * (1.0 - t),
    )
    return first, second


def _insert_central_node_scan(
    graph: RoadGraph,
    sensor_id: str,
    lat: float,
    lon: float,
    snap_threshold_m: float = 100.0,
) -> tuple[RoadGraph, CentralNode]:
    """Place a virtual node for a sensor on the nearest edge.

    The sensor position is projected onto every edge (straight segment
    between its endpoints, in a flat projection centred on the position
    itself, so the snap does not depend on where the graph was cropped).
    The host edge is split at the foot of the perpendicular into two
    edges whose lengths sum to the original and whose travel times stay
    proportional; the opposite direction of a two-way road is split
    through the same node.
    A projection landing within ``JUNCTION_REUSE_M`` of an existing
    endpoint reuses that junction instead.

    Raises ``SnapError`` when no edge lies within ``snap_threshold_m``.
    """
    if not graph.edges:
        raise SnapError(f"sensor {sensor_id!r}: graph has no edges to snap to")
    proj = LocalProjection(lat, lon)
    px, py = proj.to_xy(lat, lon)
    xy = {n: proj.to_xy(*graph.nodes[n]) for n in graph.nodes}

    best: tuple[float, tuple[str, str], int, float] | None = None
    for i, e in enumerate(graph.edges):
        ax, ay = xy[e.src]
        bx, by = xy[e.dst]
        t, d = point_segment_projection(px, py, ax, ay, bx, by)
        key = (d, (e.src, e.dst), i, t)
        if best is None or key[:3] < best[:3]:
            best = key
    dist, _, host_idx, t = best
    if dist > snap_threshold_m:
        raise SnapError(
            f"sensor {sensor_id!r}: nearest edge is {dist:.1f} m away, "
            f"beyond the {snap_threshold_m:.1f} m snap threshold"
        )

    host = graph.edges[host_idx]
    ax, ay = xy[host.src]
    bx, by = xy[host.dst]
    fx = ax + t * (bx - ax)
    fy = ay + t * (by - ay)

    # reuse an existing junction when the foot is essentially on it
    for node, (nx, ny) in ((host.src, (ax, ay)), (host.dst, (bx, by))):
        if math.hypot(fx - nx, fy - ny) <= JUNCTION_REUSE_M:
            lat_n, lon_n = graph.nodes[node]
            return graph, CentralNode(
                node, sensor_id, lat_n, lon_n, host.highway_class, host.lanes
            )

    node_id = f"site:{sensor_id}"
    if node_id in graph.nodes:
        raise ArgumentError(f"sensor {sensor_id!r} already inserted in this graph")
    flat, flon = proj.to_latlon(fx, fy)

    # the reverse direction of a two-way host gets split through the same node
    reverse_idx = None
    for i in graph._out[host.dst]:
        e = graph.edges[i]
        if (
            i != host_idx
            and e.dst == host.src
            and e.highway_class == host.highway_class
            and abs(e.length_m - host.length_m) <= 1e-6 * max(e.length_m, host.length_m)
        ):
            reverse_idx = i
            break

    new_edges: list[Edge] = []
    for i, e in enumerate(graph.edges):
        if i == host_idx:
            new_edges.extend(_split_edge(e, t, node_id))
        elif i == reverse_idx:
            new_edges.extend(_split_edge(e, 1.0 - t, node_id))
        else:
            new_edges.append(e)

    nodes = dict(graph.nodes)
    nodes[node_id] = (flat, flon)
    central = CentralNode(node_id, sensor_id, flat, flon, host.highway_class, host.lanes)
    return RoadGraph(nodes, new_edges), central


def _ego_graph_full(graph: RoadGraph, center: CentralNode, hops: int) -> RoadGraph:
    """Induced subgraph of nodes within ``hops`` undirected hops of the center.

    Hop counting ignores edge direction; the induced edges keep theirs.
    """
    if hops < 1:
        raise ArgumentError(f"hop limit must be >= 1, got {hops}")
    if center.node_id not in graph.nodes:
        raise ArgumentError(f"unknown node id: {center.node_id!r}")

    depth = {center.node_id: 0}
    frontier = [center.node_id]
    while frontier:
        nxt: list[str] = []
        for v in frontier:
            if depth[v] == hops:
                continue
            for w in _neighbors(graph, v):
                if w not in depth:
                    depth[w] = depth[v] + 1
                    nxt.append(w)
        frontier = nxt

    keep = set(depth)
    nodes = {n: graph.nodes[n] for n in graph.nodes if n in keep}
    edges = [e for e in graph.edges if e.src in keep and e.dst in keep]
    return RoadGraph(nodes, edges)


def _travel_times_full_scan(
    graph: RoadGraph, center: CentralNode, targets: tuple[HighwayClass, ...]
) -> list[float]:
    """``travel_time_to_class`` for each base class in ``targets``.

    Runs at most one Dijkstra and one scan of the edges for all of them.
    """
    host = center.host_edge_class.base
    times = [0.0 if t == host else UNREACHABLE for t in targets]
    pending = {t: k for k, t in enumerate(targets) if t != host}
    if not pending:
        return times
    dist = _dijkstra_full(graph, center.node_id)
    for e in graph.edges:
        k = pending.get(e.highway_class.base)
        if k is not None:
            cand = min(dist[e.src], dist[e.dst])
            if cand < times[k]:
                times[k] = cand
    return times


# ---------------------------------------------------------------------------
# traffic series
# ---------------------------------------------------------------------------

def load_traffic_rowwise(text: str, interval_min: int = 15) -> dict[str, TrafficSeries]:
    """Traffic CSV text to per-sensor series, validating row by row.

    Every row goes through ``csv.reader`` and ``datetime.fromisoformat``
    and lands in a per-sensor timestamp -> flow dict before the grid is
    filled slot by slot.  The production parser must give the same
    series, and the same exception type and message on bad input.
    """
    if 1440 % interval_min != 0:
        raise ArgumentError(f"interval {interval_min} does not divide 1440 minutes")
    rows = list(csv.reader(io.StringIO(text)))
    rows_nonblank = [(i + 1, r) for i, r in enumerate(rows) if r]
    if not rows_nonblank or [c.strip() for c in rows_nonblank[0][1]] != TRAFFIC_HEADER:
        raise FormatError(f"bad traffic CSV header: expected {','.join(TRAFFIC_HEADER)}")

    by_sensor: dict[str, dict[datetime, float]] = {}
    for lineno, row in rows_nonblank[1:]:
        if len(row) != 3:
            raise FormatError(f"traffic CSV row {lineno}: expected 3 fields, got {len(row)}")
        sid, ts_text, flow_text = row
        if not sid:
            raise FormatError(f"traffic CSV row {lineno}: empty sensor id")
        try:
            ts = datetime.fromisoformat(ts_text)
        except ValueError as exc:
            raise FormatError(f"traffic CSV row {lineno}: {exc}") from exc
        if ts.tzinfo is not None:
            raise FormatError(
                f"traffic CSV row {lineno}: timestamps must be naive local civil time"
            )
        if ts.second or ts.microsecond or (ts.hour * 60 + ts.minute) % interval_min:
            raise FormatError(
                f"traffic CSV row {lineno}: {ts_text} is off the {interval_min}-minute grid"
            )
        try:
            flow = float(flow_text)
        except ValueError as exc:
            raise FormatError(f"traffic CSV row {lineno}: {exc}") from exc
        if not np.isfinite(flow) or flow < 0:
            raise FormatError(
                f"traffic CSV row {lineno}: flow must be finite and non-negative, got {flow_text}"
            )
        records = by_sensor.setdefault(sid, {})
        if ts in records:
            raise FormatError(f"traffic CSV row {lineno}: duplicate timestamp {ts_text}")
        records[ts] = flow
    if not by_sensor:
        raise FormatError("traffic CSV holds no data rows")

    slots = 1440 // interval_min
    series = {}
    for sid, records in sorted(by_sensor.items()):
        first = min(records).date()
        n_days = (max(records).date() - first).days + 1
        flows = np.full((n_days, slots), np.nan)
        quality = np.full((n_days, slots), QUALITY_MISSING, dtype=np.uint8)
        for ts, flow in records.items():
            day = (ts.date() - first).days
            slot = (ts.hour * 60 + ts.minute) // interval_min
            flows[day, slot] = flow
            quality[day, slot] = QUALITY_OBSERVED
        series[sid] = TrafficSeries(sid, interval_min, first, flows, quality)
    return series


def clean_series_loop(
    series: TrafficSeries, spike_factor: float = 5.0, max_gap: int = 4
) -> tuple[TrafficSeries, CleaningStats]:
    """Spike removal one slot column at a time, then gap filling by a walk.

    Each pass takes ``np.median`` of one slot's observed values and
    re-marks values above ``spike_factor`` times it, until a pass removes
    nothing; the walk then finds each missing run on the flattened
    timeline and fills it value by value.
    """
    if spike_factor <= 0:
        raise ArgumentError(f"spike factor must be positive, got {spike_factor}")
    if max_gap < 0:
        raise ArgumentError(f"max gap must be >= 0, got {max_gap}")
    flows = series.flows.copy()
    quality = series.quality.copy()
    slots = series.slots_per_day

    spikes = 0
    while True:
        removed = 0
        for slot in range(slots):
            observed = quality[:, slot] == QUALITY_OBSERVED
            col = flows[observed, slot]
            if col.size == 0:
                continue
            med = float(np.median(col))
            if med <= 0.0:
                continue
            mask = observed & (flows[:, slot] > spike_factor * med)
            n = int(mask.sum())
            if n:
                flows[mask, slot] = np.nan
                quality[mask, slot] = QUALITY_MISSING
                removed += n
        spikes += removed
        if removed == 0:
            break

    flat_flow = flows.reshape(-1)
    flat_q = quality.reshape(-1)
    interpolated = 0
    n = flat_q.size
    i = 0
    while i < n:
        if flat_q[i] != QUALITY_MISSING:
            i += 1
            continue
        j = i
        while j < n and flat_q[j] == QUALITY_MISSING:
            j += 1
        run = j - i
        if 0 < run <= max_gap and i > 0 and j < n:
            left = flat_flow[i - 1]
            right = flat_flow[j]
            for k in range(run):
                frac = (k + 1) / (run + 1)
                flat_flow[i + k] = left + (right - left) * frac
                flat_q[i + k] = QUALITY_INTERPOLATED
            interpolated += run
        i = j

    cleaned = TrafficSeries(
        series.sensor_id, series.interval_min, series.start_date, flows, quality
    )
    stats = CleaningStats(
        spikes_removed=spikes,
        slots_interpolated=interpolated,
        slots_missing=int((quality == QUALITY_MISSING).sum()),
        incomplete_days=sum(
            1 for i in range(cleaned.n_days) if (quality[i] == QUALITY_MISSING).any()
        ),
        total_days=cleaned.n_days,
    )
    return cleaned, stats
