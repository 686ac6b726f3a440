"""Road feature embeddings.

Each sensor (or target) position is described by a 7-dimensional vector
computed from its ego-graph and the surrounding road graph:

1. shortest-path betweenness centrality of the central node,
2. maximum centrality over the other ego-graph nodes,
3. median centrality over the other ego-graph nodes,
4. travel time from the center to the closest motorway edge,
5. travel time from the center to the closest primary edge,
6. road type of the hosting edge encoded on [0, 1],
7. lane count of the hosting edge.

Betweenness uses travel-time-weighted shortest paths, counts every
exactly-equal-time path, excludes endpoints and is left unnormalized.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import HighwayClass
from .errors import ArgumentError
from .road_graph import CentralNode, EgoGraph, IndexGraph, dijkstra_from

#: distinguished value for "no such road reachable"
UNREACHABLE = math.inf

EMBEDDING_DIMS = 7

ROAD_TYPE_CODE = {
    HighwayClass.RESIDENTIAL: 0.0,
    HighwayClass.TERTIARY: 0.25,
    HighwayClass.SECONDARY: 0.5,
    HighwayClass.PRIMARY: 0.75,
    HighwayClass.MOTORWAY: 1.0,
}

# sources per array pass of Brandes, which bounds its arrays on a large
# ego-graph
_SOURCE_BLOCK = 128

#: classes of features 4 and 5, in that order
TRAVEL_TIME_CLASSES = (HighwayClass.MOTORWAY, HighwayClass.PRIMARY)

# HighwayClass.base of each class, looked up once per edge the search reads
_BASE_CLASS = {c: c.base for c in HighwayClass}

DEFAULT_LANES = {
    HighwayClass.RESIDENTIAL: 1,
    HighwayClass.TERTIARY: 1,
    HighwayClass.SECONDARY: 2,
    HighwayClass.PRIMARY: 2,
    HighwayClass.MOTORWAY: 3,
}


@dataclass(frozen=True)
class RoadEmbedding:
    """Raw (and optionally normalized) feature vector for one position.

    ``notes`` is the one place a degenerate ego-graph is reported:
    ``"single_node_ego"`` when the ego-graph holds only its center.
    """

    sensor_id: str
    spbc_central: float
    spbc_neighbors_max: float
    spbc_neighbors_median: float
    travel_time_motorway_s: float
    travel_time_primary_s: float
    road_type_code: float
    lanes: float
    normalized: tuple[float, ...] | None = None
    notes: tuple[str, ...] = ()

    def raw_vector(self) -> tuple[float, ...]:
        return (
            self.spbc_central,
            self.spbc_neighbors_max,
            self.spbc_neighbors_median,
            self.travel_time_motorway_s,
            self.travel_time_primary_s,
            self.road_type_code,
            self.lanes,
        )

    @property
    def road_class(self) -> HighwayClass:
        """Base road class that feature 6 encodes (override included)."""
        return next(c for c, code in ROAD_TYPE_CODE.items() if code == self.road_type_code)


def betweenness(graph: IndexGraph) -> dict[str, float]:
    """Shortest-path betweenness centrality of every node, in sorted-id
    order.

    Travel-time-weighted directed shortest paths; all paths of exactly
    equal time are counted; endpoints are excluded; no normalization.

    An ego-graph whose every source is tie-free takes one array pass
    (:func:`_tree_centrality`); any other runs Brandes' loop
    (:func:`_brandes_loop`).  Both give the same floats.
    """
    centrality = _tree_centrality(graph.out)
    if centrality is None:
        centrality = _brandes_loop(graph.out)
    return dict(zip(graph.nodes, centrality))


def _tree_centrality(out: list[list[tuple[int, float]]]) -> list[float] | None:
    """Brandes in array passes, one block of sources at a time, or None
    when some source has a tie.

    - Distances: Bellman-Ford from every source of a block at once.
      Its distances equal Dijkstra's, because both are the minimum over
      paths of the same left-to-right float sums (``d + t`` never falls
      below ``d`` and grows with it).
    - Ties: an arc ``(v, w)`` is *tight* for source ``s`` when
      ``dist[s, v] + t == dist[s, w]``.  A source is tie-free when every
      node it reaches, itself aside, has exactly one tight in-arc.
    - Then every shortest path is unique, each ``sigma`` is 1, and the
      tight arcs form a tree whose dependency of ``v`` is the number of
      nodes below ``v``: an integer, as in the loop, where each float
      sum is exact, so the sum over sources is exact in any order.
    """
    n = len(out)
    src = np.repeat(np.arange(n), [len(adjacent) for adjacent in out])
    if not src.size:
        return [0.0] * n
    dst = np.array([w for adjacent in out for w, _ in adjacent])
    times = np.array([t for adjacent in out for _, t in adjacent])
    # the in-arcs of node into[i] are row i, padded with infinite arcs
    order = np.argsort(dst, kind="stable")
    into, first, degree = np.unique(dst[order], return_index=True, return_counts=True)
    slot = np.arange(degree.max())
    arc = order[np.minimum(first[:, None] + slot, order.size - 1)]
    pad = slot >= degree[:, None]
    tail = np.where(pad, 0, src[arc])
    times = np.where(pad, math.inf, times[arc])[:, :, None]

    counts = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, n, _SOURCE_BLOCK):
        sources = np.arange(lo, min(lo + _SOURCE_BLOCK, n))
        below = _tree_dependencies(n, into, tail, times, sources)
        if below is None:
            return None
        counts += below
    return counts[:n].astype(float).tolist()


def _tree_dependencies(n, into, tail, times, sources) -> np.ndarray | None:
    """Per node (and a last slot to ignore), the sum of its dependencies
    over ``sources``, or None when one of them has a tie; ``into``,
    ``tail`` and ``times`` hold the padded in-arcs of
    :func:`_tree_centrality`."""
    # dist[v, i]: from source sources[i] to v.  A round extends every path
    # by one arc; a shortest path has fewer than n arcs, so round n
    # changes nothing
    dist = np.full((n, sources.size), math.inf)
    dist[sources, np.arange(sources.size)] = 0.0
    for _ in range(n):
        reach = dist[tail] + times
        known = dist[into]
        best = np.minimum(known, reach.min(axis=1))
        if (best == known).all():
            break
        dist[into] = best

    tight = (reach == known[:, None]) & (reach < math.inf) & (into[:, None, None] != sources)
    if (tight.sum(axis=1) != ((known < math.inf) & (into[:, None] != sources))).any():
        return None
    # parent[i, w]: the tail of w's tight arc from sources[i], or n where
    # there is no ancestor to count: for the source itself, the nodes
    # whose tight arc leaves it, the nodes it does not reach and the
    # sentinel column n
    parent = np.full((sources.size, n + 1), n)
    i, j, k = np.nonzero(tight)
    parent[k, into[i]] = tail[i, j]
    parent[parent == sources[:, None]] = n
    # each node adds 1 to the dependency of every ancestor below the source
    counts = np.zeros(n + 1, dtype=np.int64)
    row = np.arange(sources.size)[:, None] * (n + 1)
    up = parent
    for _ in range(n):  # a tree is less than n deep
        counts += np.bincount(up.ravel(), minlength=n + 1)
        up = parent.ravel()[row + up]
        if (up == n).all():
            break
    return counts


def _brandes_loop(out: list[list[tuple[int, float]]]) -> list[float]:
    """Brandes' algorithm, one source at a time: the exact path for any
    graph.

    Heap entries break time ties on the index, which is the order of the
    ids themselves, so nodes settle, predecessors collect and
    dependencies add up in one fixed order.
    """
    n = len(out)
    centrality = [0.0] * n
    heappush, heappop = heapq.heappush, heapq.heappop
    for s in range(n):
        dist = [math.inf] * n
        sigma = [0] * n
        preds: list[tuple[int, ...]] = [()] * n
        dist[s] = 0.0
        sigma[s] = 1
        finished: list[int] = []
        heap: list[tuple[float, int]] = [(0.0, s)]
        while heap:
            d, v = heappop(heap)
            # a node is pushed only at a strictly smaller time, so every
            # entry after its first pop is stale
            if d > dist[v]:
                continue
            finished.append(v)
            sv = sigma[v]
            for w, t in out[v]:
                nd = d + t
                dw = dist[w]
                if nd < dw:
                    dist[w] = nd
                    sigma[w] = sv
                    preds[w] = (v,)
                    heappush(heap, (nd, w))
                elif nd == dw:
                    sigma[w] += sv
                    preds[w] += (v,)
        # dependency accumulation, farthest node first; the source (popped
        # first) is left out, as nothing reads its dependency
        delta = [0.0] * n
        for w in reversed(finished[1:]):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            centrality[w] += delta[w]
    return centrality


def summarize_centrality(
    spbc: dict[str, float], center_id: str
) -> tuple[float, float, float]:
    """(center, max over others, median over others) of a centrality map.

    An even count of others takes the mean of the two central values.
    A map holding only the center yields zeros for the other two.
    """
    if center_id not in spbc:
        raise ArgumentError(f"center {center_id!r} missing from centrality map")
    others = sorted(v for k, v in spbc.items() if k != center_id)
    if not others:
        return spbc[center_id], 0.0, 0.0
    mid = len(others) // 2
    median = others[mid] if len(others) % 2 else (others[mid - 1] + others[mid]) / 2
    return spbc[center_id], others[-1], float(median)


def road_type_code(highway_class: HighwayClass) -> float:
    """Road class encoded on [0, 1]; link classes count as their base."""
    return ROAD_TYPE_CODE[highway_class.base]


def travel_time_to_class(view, center: CentralNode, highway_class: HighwayClass) -> float:
    """Minimum travel time from the center to a road of the given class.

    Measured to the nearer endpoint of any edge of that class (link
    roads count as the base class), by a search from the center that
    stops at the first such endpoint it settles.  Zero when the center
    itself sits on such a road; :data:`UNREACHABLE` when none is
    reachable.
    """
    target = highway_class.base
    if target not in TRAVEL_TIME_CLASSES:
        raise ArgumentError(
            f"travel-time feature is defined for motorway/primary, got {highway_class.value}"
        )
    return _travel_times(view, center, (target,))[0]


def _travel_times(view, center: CentralNode, targets: tuple[HighwayClass, ...]) -> list[float]:
    """:func:`travel_time_to_class` for each base class in ``targets``.

    Runs one Dijkstra for all of them, which stops once each class is
    found.  Dijkstra settles nodes in order of travel time, so the first
    settled node on an edge of a class, in either direction, is the
    nearest endpoint of that class.
    """
    host = center.host_edge_class.base
    times = [0.0 if t == host else UNREACHABLE for t in targets]
    pending = {t: k for k, t in enumerate(targets) if t != host}
    if not pending:
        return times

    classes = view.classes

    def found_all(row: int, time: float) -> bool:
        for cls in classes[row]:
            k = pending.pop(_BASE_CLASS[cls], None)
            if k is not None:
                times[k] = time
        return not pending

    dijkstra_from(view.out, center.row, stop=found_all)
    return times


def build_embedding(
    view,
    ego: EgoGraph,
    center: CentralNode,
    sensor_id: str | None = None,
    road_type_override: HighwayClass | None = None,
    lanes_override: int | None = None,
) -> RoadEmbedding:
    """Assemble the 7-feature embedding for one central node.

    Overrides take precedence over map tags; a missing lane tag falls
    back to a per-class default.
    """
    f1, f2, f3 = summarize_centrality(betweenness(ego.graph), ego.center.node_id)
    f4, f5 = _travel_times(view, center, TRAVEL_TIME_CLASSES)
    cls = road_type_override if road_type_override is not None else center.host_edge_class
    f6 = road_type_code(cls)
    if lanes_override is not None:
        lanes = lanes_override
    elif center.host_edge_lanes is not None:
        lanes = center.host_edge_lanes
    else:
        lanes = DEFAULT_LANES[cls.base]
    notes = () if len(ego.graph.nodes) > 1 else ("single_node_ego",)
    return RoadEmbedding(
        sensor_id=sensor_id if sensor_id is not None else center.sensor_id,
        spbc_central=f1,
        spbc_neighbors_max=f2,
        spbc_neighbors_median=f3,
        travel_time_motorway_s=f4,
        travel_time_primary_s=f5,
        road_type_code=f6,
        lanes=float(lanes),
        notes=notes,
    )


def normalize_pool(embeddings: list[RoadEmbedding]) -> list[RoadEmbedding]:
    """Min-max scale each feature to [0, 1] jointly across the pool.

    Unreachable travel times normalize to 1.0 and do not take part in
    the min/max; a feature constant across the pool maps to 0.0 for
    everyone.  Requires a pool of at least two embeddings.
    """
    if len(embeddings) < 2:
        raise ArgumentError(f"normalization pool needs >= 2 embeddings, got {len(embeddings)}")
    vectors = [e.raw_vector() for e in embeddings]
    columns = list(zip(*vectors))
    scaled: list[list[float]] = [[0.0] * EMBEDDING_DIMS for _ in embeddings]
    for j, col in enumerate(columns):
        finite = [v for v in col if not math.isinf(v)]
        lo = min(finite) if finite else 0.0
        hi = max(finite) if finite else 0.0
        span = hi - lo
        for i, v in enumerate(col):
            if math.isinf(v):
                scaled[i][j] = 1.0
            elif span == 0.0:
                scaled[i][j] = 0.0
            else:
                scaled[i][j] = (v - lo) / span
    return [
        replace(e, normalized=tuple(row)) for e, row in zip(embeddings, scaled)
    ]
