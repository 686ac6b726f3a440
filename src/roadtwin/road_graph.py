"""Directed road graph model and sensor-centric graph surgery.

Holds the graph data model (nodes with coordinates, directed edges with
length / speed / travel time), insertion of a virtual central node at a
sensor position, hop-limited ego-graph extraction, and travel-time
shortest paths.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from enum import Enum

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

    def neighbors_undirected(self, node: str) -> list[str]:
        """Successors and predecessors, deduplicated, in adjacency order."""
        seen: dict[str, None] = {}
        for i in self._out[node]:
            seen.setdefault(self.edges[i].dst, None)
        for i in self._in[node]:
            seen.setdefault(self.edges[i].src, None)
        seen.pop(node, None)
        return list(seen)

    def _check_node(self, node: str):
        if node not in self.nodes:
            raise ArgumentError(f"unknown node id: {node!r}")


@dataclass(frozen=True)
class EgoGraph:
    """Induced subgraph of nodes within ``hops`` undirected hops of the center."""

    graph: RoadGraph
    center: CentralNode
    hops: int


def dijkstra_from(graph: RoadGraph, src: str) -> dict[str, float]:
    """Travel-time distance from ``src`` to every node (inf if unreachable)."""
    graph._check_node(src)
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


def shortest_travel_time(graph: RoadGraph, src: str, dst: str) -> float:
    """Minimum directed travel time in seconds; ``math.inf`` when unreachable."""
    graph._check_node(src)
    graph._check_node(dst)
    if src == dst:
        return 0.0
    return dijkstra_from(graph, src)[dst]


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


def insert_central_node(
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


def ego_graph(graph: RoadGraph, center: CentralNode, hops: int) -> EgoGraph:
    """Induced subgraph of nodes within ``hops`` undirected hops of the center.

    Hop counting ignores edge direction; the induced edges keep theirs.
    """
    if hops < 1:
        raise ArgumentError(f"hop limit must be >= 1, got {hops}")
    graph._check_node(center.node_id)

    depth = {center.node_id: 0}
    frontier = [center.node_id]
    while frontier:
        nxt: list[str] = []
        for v in frontier:
            if depth[v] == hops:
                continue
            for w in graph.neighbors_undirected(v):
                if w not in depth:
                    depth[w] = depth[v] + 1
                    nxt.append(w)
        frontier = nxt

    keep = set(depth)
    nodes = {n: graph.nodes[n] for n in graph.nodes if n in keep}
    edges = [e for e in graph.edges if e.src in keep and e.dst in keep]
    return EgoGraph(graph=RoadGraph(nodes, edges), center=center, hops=hops)
