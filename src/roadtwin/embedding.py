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

from .errors import ArgumentError
from .road_graph import CentralNode, EgoGraph, HighwayClass, IndexGraph, dijkstra_from

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

    Heap entries break time ties on the index, which is the order of the
    ids themselves, so nodes settle, predecessors collect and
    dependencies add up in one fixed order.
    """
    out = graph.out
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
    return dict(zip(graph.nodes, centrality))


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
