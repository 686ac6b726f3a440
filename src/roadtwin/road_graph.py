"""Directed road graph model and sensor-centric graph surgery.

Holds the graph data model (nodes with coordinates, directed edges with
length / speed / travel time), insertion of a virtual central node at a
sensor position, hop-limited ego-graph extraction, and travel-time
shortest paths.

Insertion, ego-graphs and shortest paths read a graph only through
``out_edges(v)`` / ``in_edges(v)`` (``(key, edge)`` pairs, keys sorting
in edge order), ``coords(v)``, ``has_node(v)`` and
``edges_near(lat, lon, max_m)``.  :class:`RoadGraph` holds every edge;
``osm_ingest.RadiusView`` builds a radius graph node by node as these
reads reach it, so an embedding never materialises more of the map than
its ego-graph and its shortest-path search touch.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from enum import Enum
from operator import itemgetter

from .errors import ArgumentError, SnapError
from .geo import LocalProjection, point_segment_projection

# New nodes created by sensor insertion are within this distance of an
# existing junction -> the junction is reused instead of splitting.
JUNCTION_REUSE_M = 0.5


class HighwayClass(str, Enum):
    """Drivable road classes retained from the map extract."""

    MOTORWAY = "motorway"
    MOTORWAY_LINK = "motorway_link"
    PRIMARY = "primary"
    PRIMARY_LINK = "primary_link"
    SECONDARY = "secondary"
    SECONDARY_LINK = "secondary_link"
    TERTIARY = "tertiary"
    TERTIARY_LINK = "tertiary_link"
    RESIDENTIAL = "residential"

    @property
    def base(self) -> "HighwayClass":
        """Ramp (link) roads count as their base class."""
        if self.value.endswith("_link"):
            return HighwayClass(self.value[: -len("_link")])
        return self


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    length_m: float
    speed_kph: float
    travel_time_s: float
    highway_class: HighwayClass
    lanes: int | None = None


@dataclass(frozen=True)
class CentralNode:
    """Virtual node representing a sensor (or target) position on the graph."""

    node_id: str
    sensor_id: str
    lat: float
    lon: float
    host_edge_class: HighwayClass
    host_edge_lanes: int | None


class RoadGraph:
    """Directed multigraph of road segments.

    Node ids are strings; parallel edges are allowed.  Instances are
    treated as immutable: operations that change topology return a new
    graph.
    """

    def __init__(self, nodes: dict[str, tuple[float, float]], edges: list[Edge]):
        self.nodes = dict(nodes)
        self.edges = list(edges)
        self._out: dict[str, list[int]] = {n: [] for n in self.nodes}
        self._in: dict[str, list[int]] = {n: [] for n in self.nodes}
        for i, e in enumerate(self.edges):
            if e.src not in self.nodes or e.dst not in self.nodes:
                raise ArgumentError(f"edge {e.src}->{e.dst} references unknown node")
            self._out[e.src].append(i)
            self._in[e.dst].append(i)

    def __len__(self) -> int:
        return len(self.nodes)

    def out_edges(self, node: str) -> list[tuple[int, Edge]]:
        return [(i, self.edges[i]) for i in self._out[node]]

    def in_edges(self, node: str) -> list[tuple[int, Edge]]:
        return [(i, self.edges[i]) for i in self._in[node]]

    def coords(self, node: str) -> tuple[float, float]:
        return self.nodes[node]

    def has_node(self, node: str) -> bool:
        return node in self.nodes

    def edges_near(self, lat: float, lon: float, max_m: float | None):
        """Every edge: a RoadGraph keeps no spatial index."""
        return enumerate(self.edges)


class SplitGraph:
    """``base`` with a virtual node splitting one edge and its reverse.

    Each split edge gives way to its two halves in its own place: the
    halves of the edge keyed ``k`` are keyed ``k + (0,)`` (towards the
    virtual node) and ``k + (1,)`` (away from it), so ``base``'s keys must
    be tuples.
    """

    def __init__(self, base, node_id: str, latlon: tuple[float, float], halves: dict):
        self.base = base
        self.node_id = node_id
        self.latlon = latlon
        self._halves = halves
        site_in = sorted(((k + (0,), h[0]) for k, h in halves.items()), key=itemgetter(0))
        site_out = sorted(((k + (1,), h[1]) for k, h in halves.items()), key=itemgetter(0))
        # each node's (out, in) edges, swapped once: the ego-graph and the
        # travel-time search read the same nodes several times
        self._adjacent: dict[str, tuple[list, list]] = {node_id: (site_out, site_in)}

    def _swap(self, keyed, half: int):
        return [
            (k + (half,), self._halves[k][half]) if k in self._halves else (k, e)
            for k, e in keyed
        ]

    def _adjacency(self, node: str) -> tuple[list, list]:
        adjacent = self._adjacent.get(node)
        if adjacent is None:
            adjacent = self._adjacent[node] = (
                self._swap(self.base.out_edges(node), 0),
                self._swap(self.base.in_edges(node), 1),
            )
        return adjacent

    def out_edges(self, node: str) -> list:
        return self._adjacency(node)[0]

    def in_edges(self, node: str) -> list:
        return self._adjacency(node)[1]

    def coords(self, node: str) -> tuple[float, float]:
        return self.latlon if node == self.node_id else self.base.coords(node)

    def has_node(self, node: str) -> bool:
        return node == self.node_id or self.base.has_node(node)

    def edges_near(self, lat: float, lon: float, max_m: float | None):
        near = []
        for k, e in self.base.edges_near(lat, lon, max_m):
            halves = self._halves.get(k)
            near.extend(((k + (0,), halves[0]), (k + (1,), halves[1])) if halves else ((k, e),))
        return near


def _check_node(graph, node: str):
    if not graph.has_node(node):
        raise ArgumentError(f"unknown node id: {node!r}")


def _neighbors_undirected(graph, node: str) -> list[str]:
    seen: dict[str, None] = {}
    for _, e in graph.out_edges(node):
        seen.setdefault(e.dst, None)
    for _, e in graph.in_edges(node):
        seen.setdefault(e.src, None)
    seen.pop(node, None)
    return list(seen)


@dataclass(frozen=True)
class EgoGraph:
    """Induced subgraph of nodes within ``hops`` undirected hops of the center."""

    graph: RoadGraph
    center: CentralNode
    hops: int


def dijkstra_from(graph, src: str, stop=None) -> dict[str, float]:
    """Travel-time distance from ``src`` to each node it reaches, in
    settling order; a node it cannot reach is absent, on any graph.

    ``stop(node, time)`` is asked about each node as it settles, and a
    true answer ends the search: the result then holds the nodes settled
    so far, whose times are final.
    """
    _check_node(graph, src)
    dist: dict[str, float] = {}
    best = {src: 0.0}
    # node id in the heap entry keeps pop order deterministic on ties
    heap: list[tuple[float, str]] = [(0.0, src)]
    inf = math.inf
    while heap:
        d, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        if stop is not None and stop(v, d):
            break
        for _, e in graph.out_edges(v):
            w = e.dst
            nd = d + e.travel_time_s
            if nd < best.get(w, inf):
                best[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def _split_edge(e: Edge, t: float, node_id: str) -> tuple[Edge, Edge]:
    """Split ``e`` at parameter t from src; lengths and times stay proportional."""
    first = replace(
        e,
        dst=node_id,
        length_m=e.length_m * t,
        travel_time_s=e.travel_time_s * t,
    )
    second = replace(
        e,
        src=node_id,
        length_m=e.length_m * (1.0 - t),
        travel_time_s=e.travel_time_s * (1.0 - t),
    )
    return first, second


def _nearest_edge(graph, keyed_edges, proj: LocalProjection, px: float, py: float):
    """``(distance, (src, dst), key, t, edge)`` of the edge nearest to
    (px, py), ties going to the smaller (src, dst) and then the earlier
    edge; None when there is no edge."""
    xy: dict[str, tuple[float, float]] = {}
    best = None
    for k, e in keyed_edges:
        for n in (e.src, e.dst):
            if n not in xy:
                xy[n] = proj.to_xy(*graph.coords(n))
        t, d = point_segment_projection(px, py, *xy[e.src], *xy[e.dst])
        key = (d, (e.src, e.dst), k, t, e)
        if best is None or key[:3] < best[:3]:
            best = key
    return best


def insert_central_node(
    graph,
    sensor_id: str,
    lat: float,
    lon: float,
    snap_threshold_m: float = 100.0,
):
    """Place a virtual node for a sensor on the nearest edge.

    The sensor position is projected onto every edge within
    ``snap_threshold_m`` (straight segment between its endpoints, in a
    flat projection centred on the position itself, so the snap does not
    depend on where the graph was cropped).
    The host edge is split at the foot of the perpendicular into two
    edges whose lengths sum to the original and whose travel times stay
    proportional; the opposite direction of a two-way road is split
    through the same node.
    A projection landing within ``JUNCTION_REUSE_M`` of an existing
    endpoint reuses that junction instead.

    Returns the graph with the node inserted and the node: a new
    :class:`RoadGraph` for a RoadGraph, a :class:`SplitGraph` over any
    other graph.  Raises ``SnapError`` when no edge lies within
    ``snap_threshold_m``.
    """
    proj = LocalProjection(lat, lon)
    px, py = proj.to_xy(lat, lon)
    best = _nearest_edge(graph, graph.edges_near(lat, lon, snap_threshold_m), proj, px, py)
    if best is None or best[0] > snap_threshold_m:
        # the message names the nearest edge of the whole graph
        best = _nearest_edge(graph, graph.edges_near(lat, lon, None), proj, px, py)
        if best is None:
            raise SnapError(f"sensor {sensor_id!r}: graph has no edges to snap to")
        raise SnapError(
            f"sensor {sensor_id!r}: nearest edge is {best[0]:.1f} m away, "
            f"beyond the {snap_threshold_m:.1f} m snap threshold"
        )
    _, (src, dst), host_key, t, host = best
    ax, ay = proj.to_xy(*graph.coords(src))
    bx, by = proj.to_xy(*graph.coords(dst))
    fx = ax + t * (bx - ax)
    fy = ay + t * (by - ay)

    # reuse an existing junction when the foot is essentially on it
    for node, (nx, ny) in ((src, (ax, ay)), (dst, (bx, by))):
        if math.hypot(fx - nx, fy - ny) <= JUNCTION_REUSE_M:
            lat_n, lon_n = graph.coords(node)
            return graph, CentralNode(
                node, sensor_id, lat_n, lon_n, host.highway_class, host.lanes
            )

    node_id = f"site:{sensor_id}"
    if graph.has_node(node_id):
        raise ArgumentError(f"sensor {sensor_id!r} already inserted in this graph")
    latlon = proj.to_latlon(fx, fy)

    # the reverse direction of a two-way host gets split through the same node
    halves = {host_key: _split_edge(host, t, node_id)}
    for k, e in graph.out_edges(dst):
        if (
            k != host_key
            and e.dst == src
            and e.highway_class == host.highway_class
            and abs(e.length_m - host.length_m) <= 1e-6 * max(e.length_m, host.length_m)
        ):
            halves[k] = _split_edge(e, 1.0 - t, node_id)
            break

    central = CentralNode(node_id, sensor_id, *latlon, host.highway_class, host.lanes)
    if isinstance(graph, RoadGraph):
        edges = [h for i, e in enumerate(graph.edges) for h in halves.get(i, (e,))]
        return RoadGraph({**graph.nodes, node_id: latlon}, edges), central
    return SplitGraph(graph, node_id, latlon, halves), central


def ego_graph(graph, center: CentralNode, hops: int) -> EgoGraph:
    """Induced subgraph of nodes within ``hops`` undirected hops of the center.

    Hop counting ignores edge direction; the induced edges keep theirs,
    in the graph's edge order.
    """
    if hops < 1:
        raise ArgumentError(f"hop limit must be >= 1, got {hops}")
    _check_node(graph, center.node_id)

    depth = {center.node_id: 0}
    frontier = [center.node_id]
    while frontier:
        nxt: list[str] = []
        for v in frontier:
            if depth[v] == hops:
                continue
            for w in _neighbors_undirected(graph, v):
                if w not in depth:
                    depth[w] = depth[v] + 1
                    nxt.append(w)
        frontier = nxt

    keyed = [ke for v in depth for ke in graph.out_edges(v) if ke[1].dst in depth]
    keyed.sort(key=itemgetter(0))
    nodes = {v: graph.coords(v) for v in depth}
    return EgoGraph(
        graph=RoadGraph(nodes, [e for _, e in keyed]), center=center, hops=hops
    )
