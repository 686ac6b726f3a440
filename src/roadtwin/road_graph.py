"""Road classes, edge and central-node records, and sensor-centric graph
surgery on one position's radius view.

A position's graph has one form, from the map index to the features: the
integer node rows of an ``osm_ingest.RadiusView``, whose ``out[v]`` and
``inn[v]`` list the ``(row, travel_time_s)`` pairs of a row's out- and
in-edges in edge order, filled on first read.  :func:`insert_central_node`
snaps a position onto the view's nearest edge and splits it inside the
view, :func:`ego_graph` walks those rows to the :class:`IndexGraph`
Brandes betweenness runs on, and :func:`dijkstra_from` searches them for
travel times.  :class:`Edge` is the on-disk record of ``ingest``'s crop.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
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
    """Virtual node representing a sensor (or target) position on the graph.

    ``row`` is the node's row in the view it was inserted into: the
    view's ``site``, or the reused junction's row (None for a node made
    outside a view).  A row addresses one view only, so it takes no part
    in equality.
    """

    node_id: str
    sensor_id: str
    lat: float
    lon: float
    host_edge_class: HighwayClass
    host_edge_lanes: int | None
    row: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class IndexGraph:
    """A subgraph on integer indices: node ``i`` is ``nodes[i]``, the
    ``i``-th smallest id, and ``out[i]`` holds the ``(j, travel_time_s)``
    pairs of its out-edges within the subgraph, in edge order."""

    nodes: list[str]
    out: list[list[tuple[int, float]]]


@dataclass(frozen=True)
class EgoGraph:
    """Induced subgraph of nodes within the hop limit of the center."""

    graph: IndexGraph
    center: CentralNode


def dijkstra_from(out, src: int, stop=None) -> dict[int, float]:
    """Travel-time distance from row ``src`` to each row it reaches, in
    settling order; ``out[v]`` lists the ``(row, travel_time_s)`` pairs of
    row ``v``'s out-edges.

    Ties settle the smaller row first.  Every travel time is positive, so
    the distances do not depend on that order.  ``stop(row, time)`` is
    asked about each row as it settles, and a true answer ends the
    search: the result then holds the rows settled so far, whose times
    are final.
    """
    dist: dict[int, float] = {}
    best = {src: 0.0}
    heap: list[tuple[float, int]] = [(0.0, src)]
    inf = math.inf
    while heap:
        d, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        if stop is not None and stop(v, d):
            break
        for w, t in out[v]:
            nd = d + t
            if nd < best.get(w, inf):
                best[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def _nearest_edge(view, arcs, proj: LocalProjection, px: float, py: float):
    """``(distance, (src id, dst id), key, t, arc)`` of the arc nearest
    to (px, py), ties going to the smaller (src, dst) ids and then the
    earlier arc; None when there is no arc."""
    xy: dict[int, tuple[float, float]] = {}
    best = None
    for arc in arcs:
        for n in (arc.src, arc.dst):
            if n not in xy:
                xy[n] = proj.to_xy(*view.coords(n))
        t, d = point_segment_projection(px, py, *xy[arc.src], *xy[arc.dst])
        key = (d, (view.node_id(arc.src), view.node_id(arc.dst)), arc.key, t, arc)
        if best is None or key[:3] < best[:3]:
            best = key
    return best


def insert_central_node(
    view,
    sensor_id: str,
    lat: float,
    lon: float,
    snap_threshold_m: float = 100.0,
) -> CentralNode:
    """Place a virtual node for a sensor on the nearest edge of ``view``.

    The sensor position is projected onto every edge within
    ``snap_threshold_m`` (straight segment between its endpoints, in a
    flat projection centred on the position itself, so the snap does not
    depend on where the view was cropped).
    The host edge is split at the foot of the perpendicular into two
    edges whose travel times stay proportional; the opposite direction
    of a two-way road is split through the same node.
    A projection landing within ``JUNCTION_REUSE_M`` of an existing
    endpoint reuses that junction instead.

    The split happens inside the view (``RadiusView.split``), through the
    node ``site:<sensor_id>``.  Returns the central node, which carries
    its row in the view.  Raises ``DomainError`` when the view holds no
    edge and ``SnapError`` when no edge lies within ``snap_threshold_m``.
    """
    proj = LocalProjection(lat, lon)
    px, py = proj.to_xy(lat, lon)
    best = _nearest_edge(view, view.arcs_near(lat, lon, snap_threshold_m), proj, px, py)
    if best is None or best[0] > snap_threshold_m:
        # the message names the nearest edge of the whole view
        best = _nearest_edge(view, view.arcs(), proj, px, py)
        raise SnapError(
            f"sensor {sensor_id!r}: nearest edge is {best[0]:.1f} m away, "
            f"beyond the {snap_threshold_m:.1f} m snap threshold"
        )
    _, _, _, t, host = best
    ax, ay = proj.to_xy(*view.coords(host.src))
    bx, by = proj.to_xy(*view.coords(host.dst))
    fx = ax + t * (bx - ax)
    fy = ay + t * (by - ay)

    # reuse an existing junction when the foot is essentially on it
    for node, (nx, ny) in ((host.src, (ax, ay)), (host.dst, (bx, by))):
        if math.hypot(fx - nx, fy - ny) <= JUNCTION_REUSE_M:
            return CentralNode(view.node_id(node), sensor_id, *view.coords(node),
                               host.highway_class, host.lanes, node)

    node_id = f"site:{sensor_id}"
    view.split(host, t, node_id)
    return CentralNode(node_id, sensor_id, *proj.to_latlon(fx, fy), host.highway_class, host.lanes,
                       view.site)


def ego_graph(view, center: CentralNode, hops: int) -> EgoGraph:
    """Induced subgraph of the view's nodes within ``hops`` undirected
    hops of the center, in index form.

    Hop counting ignores edge direction; the induced edges keep theirs,
    in the view's edge order.  The index order is the id order, which
    sets Brandes' source and tie order, so the ~50 ids of one ego-graph
    are sorted here.

    Ids are the ego-graph's keys from here on, so an OSM node that
    shares the center's ``site:<sensor id>`` and lies within the hop
    limit raises ``ArgumentError``.
    """
    if hops < 1:
        raise ArgumentError(f"hop limit must be >= 1, got {hops}")
    out, inn = view.out, view.inn
    start = center.row
    seen = {start}
    frontier = [start]
    for _ in range(hops):
        nxt: list[int] = []
        for v in frontier:
            for adjacent in (out[v], inn[v]):
                for w, _ in adjacent:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
        frontier = nxt

    named = sorted((view.node_id(v), v) for v in seen)
    if any(a == b for (a, _), (b, _) in zip(named, named[1:])):
        raise ArgumentError(f"sensor {center.sensor_id!r} already inserted in this graph")
    rank = {v: i for i, (_, v) in enumerate(named)}
    graph = IndexGraph(
        [name for name, _ in named],
        [[(rank[w], t) for w, t in out[v] if w in rank] for _, v in named],
    )
    return EgoGraph(graph=graph, center=center)
