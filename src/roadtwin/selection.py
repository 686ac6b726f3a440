"""Source segment selection.

Picks the sensed road segment most similar to an unsensed target, either
by distance between normalized feature embeddings or by plain
geographic proximity (the baseline).
"""
from __future__ import annotations

import math

from dataclasses import dataclass, field

from .embedding import EMBEDDING_DIMS, RoadEmbedding
from .errors import ArgumentError
from .geo import haversine_m

DISTANCE_METRICS = ("l2", "l1")


@dataclass(frozen=True)
class SelectionResult:
    target_id: str
    selected_id: str
    distance: float
    similarity_pct: float | None
    method: str
    ranking: list[tuple[str, float]] = field(default_factory=list)


def embedding_distance(u, v, metric: str = "l2") -> float:
    """Distance between two normalized feature vectors.

    ``l2`` is the default; ``l1`` is available behind the config flag.
    """
    u = tuple(float(x) for x in u)
    v = tuple(float(x) for x in v)
    if len(u) != len(v):
        raise ArgumentError(f"dimension mismatch: {len(u)} vs {len(v)}")
    if metric == "l2":
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v)))
    if metric == "l1":
        return sum(abs(a - b) for a, b in zip(u, v))
    raise ArgumentError(f"unknown distance metric {metric!r}; expected one of {DISTANCE_METRICS}")


def similarity_percent(distance: float, dims: int = EMBEDDING_DIMS) -> float:
    """Map an l2 embedding distance onto a 0..100 similarity scale.

    100 means identical vectors; 0 means the maximum possible distance
    between vectors whose components all lie in [0, 1], i.e. sqrt(dims).
    """
    if dims < 1:
        raise ArgumentError(f"dims must be >= 1, got {dims}")
    max_d = math.sqrt(dims)
    if distance < 0.0 or distance > max_d + 1e-9:
        raise ArgumentError(
            f"distance {distance} outside [0, sqrt({dims})] for normalized embeddings"
        )
    pct = 100.0 * (1.0 - distance / max_d)
    return min(100.0, max(0.0, pct))


def _normalized(e: RoadEmbedding) -> tuple[float, ...]:
    if e.normalized is None:
        raise ArgumentError(
            f"embedding {e.sensor_id!r} is not normalized; normalize the pool first"
        )
    return e.normalized


def _rank(target_id, pool, distance, method, dims=None) -> SelectionResult:
    """Rank ``pool``'s ``(sensor_id, candidate)`` pairs by ``distance(candidate)``.

    Ties break toward the lowest sensor id.  With ``dims``, the result
    carries the similarity of the selected distance on that many dims.
    """
    if not pool:
        raise ArgumentError("candidate pool is empty")
    for sensor_id, _ in pool:
        if sensor_id == target_id:
            raise ArgumentError(f"target {target_id!r} present in its own candidate pool")
    ranking = sorted(
        ((sensor_id, distance(cand)) for sensor_id, cand in pool),
        key=lambda item: (item[1], item[0]),
    )
    selected_id, dist = ranking[0]
    return SelectionResult(
        target_id=target_id,
        selected_id=selected_id,
        distance=dist,
        similarity_pct=similarity_percent(dist, dims) if dims is not None else None,
        method=method,
        ranking=ranking,
    )


def select_by_embedding(
    target: RoadEmbedding,
    pool: list[RoadEmbedding],
    metric: str = "l2",
) -> SelectionResult:
    """Most similar sensed segment by embedding distance.

    All embeddings must have been normalized against one shared pool.
    Ties break toward the lowest sensor id; the full ranking is kept in
    the result.  The target itself may not appear in the pool.
    """
    # an empty pool is reported before a target that is not normalized
    tvec = _normalized(target) if pool else ()
    return _rank(
        target.sensor_id,
        [(cand.sensor_id, cand) for cand in pool],
        lambda cand: embedding_distance(tvec, _normalized(cand), metric),
        "embedding",
        len(tvec) if metric == "l2" else None,
    )


def select_by_geography(
    target_id: str,
    target_coords: tuple[float, float],
    pool: list[tuple[str, tuple[float, float]]],
) -> SelectionResult:
    """Geographically nearest sensed segment (haversine), the baseline."""
    return _rank(
        target_id,
        pool,
        lambda c: haversine_m(target_coords[0], target_coords[1], c[0], c[1]),
        "geographic",
    )
