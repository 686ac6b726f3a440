"""Error metrics, benchmarks and non-parametric method comparison.

RMSE and flow-normalized RMSE score generated days against recorded
ones; a leave-one-out benchmark compares embedding-based source
selection with the geographic baseline; the Friedman test plus the
Nemenyi post-hoc procedure rank generation methods over many days.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from datetime import date
from typing import Callable, Mapping, Sequence

import numpy as np

from .embedding import RoadEmbedding
from .errors import ArgumentError, AvailabilityError, DomainError
from .generation import GeneratedDay
from .selection import SelectionResult, select_by_embedding, select_by_geography
from .traffic_data import TrafficProfile, TrafficSeries, slice_day

# critical values of the studentized-range-based Nemenyi statistic at
# alpha = 0.05, by number of compared methods (k = 2 is derived from
# alpha instead); other (k, alpha) pairs must be supplied by the caller
NEMENYI_Q_05 = {3: 2.343}


def rmse(observed: Sequence[float], predicted: Sequence[float]) -> float:
    """Root mean squared error between two equal-length vectors."""
    a = np.asarray(observed, dtype=float)
    b = np.asarray(predicted, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ArgumentError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ArgumentError("rmse of empty vectors is undefined")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def nrmse(observed, predicted, mean_flow: float) -> float:
    """RMSE normalized by the target's mean weekday flow."""
    return normalize_rmse(rmse(observed, predicted), mean_flow)


def normalize_rmse(error: float, mean_flow: float) -> float:
    """An RMSE divided by the target's mean weekday flow, which must be positive."""
    if mean_flow <= 0:
        raise DomainError(f"mean flow must be positive to normalize, got {mean_flow}")
    return error / mean_flow


# ---------------------------------------------------------------------------
# non-parametric method comparison
# ---------------------------------------------------------------------------


def _error_matrix(errors) -> np.ndarray:
    e = np.asarray(errors, dtype=float)
    if e.ndim != 2:
        raise ArgumentError(f"error matrix must be 2-D, got shape {e.shape}")
    n, k = e.shape
    if n < 2 or k < 2:
        raise ArgumentError(f"need >= 2 rows and >= 2 columns, got {e.shape}")
    if np.isnan(e).any():
        raise ArgumentError("error matrix contains absent cells; exclude those rows first")
    return e


def _mean_ranks(e: np.ndarray) -> np.ndarray:
    """Per-column mean of the rows' ascending ranks, ties sharing their mean rank.

    A cell's rank is (cells below it in its row) + (cells equal to it,
    itself included, + 1) / 2: an exact half-integer, so the column means
    do not depend on summation order.
    """
    below = (e[:, None, :] < e[:, :, None]).sum(axis=2)
    equal = (e[:, None, :] == e[:, :, None]).sum(axis=2)
    return (below + (equal + 1) / 2.0).mean(axis=0)


# log of the largest double, Cephes' underflow bound for the incomplete gamma
_MAXLOG = 7.09782712893383996843e2


def _chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function for integer ``df >= 1``, in closed form.

    Even df: ``exp(-x/2) * sum_{i < df/2} (x/2)**i / i!``.  Odd df:
    ``erfc(sqrt(x/2))`` plus ``exp(-x/2) * sum_{i < (df-1)/2}
    (x/2)**(i + 1/2) / Gamma(i + 3/2)``.  Every term is positive, so
    nothing cancels.  Where the leading factor ``z**a exp(-z) / Gamma(a)``
    (``z = x/2``, ``a = df/2``) falls below ``exp(-_MAXLOG)`` the result
    is 0.0, the underflow rule of the Cephes ``igamc`` routine.
    """
    if x <= 0.0:
        return 1.0
    z = x / 2.0
    a = df / 2.0
    if a * math.log(z) - z - math.lgamma(a) < -_MAXLOG:
        return 0.0
    if df % 2 == 0:
        term = math.exp(-z)
        total = term
        for i in range(1, df // 2):
            term *= z / i
            total += term
        return total
    term = math.exp(-z) * math.sqrt(z) * 2.0 / math.sqrt(math.pi)
    total = math.erfc(math.sqrt(z))
    for i in range((df - 1) // 2):
        total += term
        term *= z / (i + 1.5)
    return total


def _friedman(mean_ranks: np.ndarray, n: int) -> tuple[float, float]:
    k = mean_ranks.size
    statistic = 12.0 * n / (k * (k + 1)) * float(np.sum(mean_ranks**2)) - 3.0 * n * (k + 1)
    statistic = max(statistic, 0.0)  # guards float dust on fully tied input
    return statistic, _chi2_sf(statistic, k - 1)


def friedman_test(errors) -> tuple[float, float]:
    """Friedman rank test over an (observations x methods) error matrix.

    Rows are ranked ascending with mean ranks on ties; the classic
    statistic (no tie-variance correction) is referred to the chi-square
    distribution with k-1 degrees of freedom, whose survival function is
    evaluated in closed form: a finite Poisson-type series for even k-1,
    ``erfc`` plus a finite series for odd k-1.
    """
    e = _error_matrix(errors)
    return _friedman(_mean_ranks(e), e.shape[0])


VERDICT_FIRST = "first_better"
VERDICT_SECOND = "second_better"
VERDICT_TIE = "tie"


@dataclass(frozen=True)
class NemenyiResult:
    mean_ranks: tuple[float, ...]
    critical_difference: float
    friedman_statistic: float
    friedman_p: float
    significant: bool
    verdicts: dict[tuple[int, int], str]


def nemenyi_posthoc(
    errors, alpha: float = 0.05, q_crit: float | None = None
) -> NemenyiResult:
    """Pairwise method comparison gated on a significant Friedman test.

    Two methods differ when their mean ranks differ by more than the
    critical difference ``q * sqrt(k (k + 1) / (6 n))``; the one with
    the lower mean rank (lower error) wins.  When the Friedman test is
    not significant at ``alpha`` every pair is a tie.

    Without ``q_crit``, k = 2 uses the normal quantile ``z(1 - alpha/2)``,
    which Nemenyi's q equals for two methods (Demšar 2006), at any alpha;
    k = 3 at alpha = 0.05 uses :data:`NEMENYI_Q_05`.
    """
    e = _error_matrix(errors)
    n, k = e.shape
    if not 0.0 < alpha < 1.0:
        raise ArgumentError(f"alpha must be in (0, 1), got {alpha}")
    if q_crit is None:
        if k == 2:
            q_crit = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)
        elif alpha == 0.05 and k in NEMENYI_Q_05:
            q_crit = NEMENYI_Q_05[k]
        else:
            raise ArgumentError(
                f"no built-in critical value for k={k}, alpha={alpha}; supply q_crit"
            )
    rank_means = _mean_ranks(e)
    statistic, p = _friedman(rank_means, n)
    significant = p < alpha
    mean_ranks = tuple(float(x) for x in rank_means)
    cd = q_crit * math.sqrt(k * (k + 1) / (6.0 * n))
    verdicts: dict[tuple[int, int], str] = {}
    for i in range(k):
        for j in range(i + 1, k):
            if not significant or abs(mean_ranks[i] - mean_ranks[j]) <= cd:
                verdicts[(i, j)] = VERDICT_TIE
            elif mean_ranks[i] < mean_ranks[j]:
                verdicts[(i, j)] = VERDICT_FIRST
            else:
                verdicts[(i, j)] = VERDICT_SECOND
    return NemenyiResult(
        mean_ranks=mean_ranks,
        critical_difference=cd,
        friedman_statistic=statistic,
        friedman_p=p,
        significant=significant,
        verdicts=verdicts,
    )


def best_methods(result: NemenyiResult, labels: Sequence[str]) -> list[str]:
    """Methods statistically indistinguishable from the top-ranked one."""
    if len(labels) != len(result.mean_ranks):
        raise ArgumentError("labels do not match the number of compared methods")
    top = min(result.mean_ranks)
    if not result.significant:
        return list(labels)
    return [
        lab
        for lab, r in zip(labels, result.mean_ranks)
        if r - top <= result.critical_difference
    ]


# ---------------------------------------------------------------------------
# leave-one-out selection benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentRecord:
    """Everything the benchmarks need to know about one sensed segment."""

    sensor_id: str
    coords: tuple[float, float]
    embedding: RoadEmbedding
    profile: TrafficProfile
    mean_weekday_flow: float
    road_type: str = ""


@dataclass(frozen=True)
class SelectionOutcome:
    target_id: str
    embedding_result: SelectionResult
    geographic_result: SelectionResult
    embedding_rmse: float
    geographic_rmse: float
    best_id: str
    best_rmse: float
    mean_weekday_flow: float
    verdict: str  # "embedding" | "geographic" | "tie"


def selection_benchmark(
    segments: Sequence[SegmentRecord], metric: str = "l2"
) -> list[SelectionOutcome]:
    """Leave-one-out comparison of both selection methods.

    Each segment in turn plays the unsensed target; its daily profile is
    compared against the profile of the segment picked by embeddings and
    by geography, plus the best any candidate could have achieved.
    """
    if len(segments) < 3:
        raise ArgumentError(f"benchmark pool needs >= 3 segments, got {len(segments)}")
    ids = [s.sensor_id for s in segments]
    if len(set(ids)) != len(ids):
        raise ArgumentError("duplicate sensor ids in benchmark pool")
    by_id = {s.sensor_id: s for s in segments}
    outcomes: list[SelectionOutcome] = []
    for target in segments:
        others = [s for s in segments if s.sensor_id != target.sensor_id]
        emb_res = select_by_embedding(
            target.embedding, [s.embedding for s in others], metric=metric
        )
        geo_res = select_by_geography(
            target.sensor_id, target.coords, [(s.sensor_id, s.coords) for s in others]
        )
        emb_rmse = rmse(target.profile.values, by_id[emb_res.selected_id].profile.values)
        geo_rmse = rmse(target.profile.values, by_id[geo_res.selected_id].profile.values)
        candidate_rmse = sorted(
            (rmse(target.profile.values, s.profile.values), s.sensor_id) for s in others
        )
        best_rmse, best_id = candidate_rmse[0]
        if emb_rmse < geo_rmse:
            verdict = "embedding"
        elif geo_rmse < emb_rmse:
            verdict = "geographic"
        else:
            verdict = "tie"
        outcomes.append(
            SelectionOutcome(
                target_id=target.sensor_id,
                embedding_result=emb_res,
                geographic_result=geo_res,
                embedding_rmse=emb_rmse,
                geographic_rmse=geo_rmse,
                best_id=best_id,
                best_rmse=best_rmse,
                mean_weekday_flow=target.mean_weekday_flow,
                verdict=verdict,
            )
        )
    return outcomes


def tally_selection(outcomes: Sequence[SelectionOutcome]) -> dict[str, int]:
    return {
        "embedding": sum(1 for o in outcomes if o.verdict == "embedding"),
        "geographic": sum(1 for o in outcomes if o.verdict == "geographic"),
        "tie": sum(1 for o in outcomes if o.verdict == "tie"),
    }


# ---------------------------------------------------------------------------
# per-day generation benchmark
# ---------------------------------------------------------------------------


@dataclass
class GenerationErrorTable:
    """nRMSE of each method on each evaluated day; NaN marks absent cells."""

    target_id: str
    methods: list[str]
    dates: list[date]
    nrmse: np.ndarray

    def complete_mask(self) -> np.ndarray:
        return ~np.isnan(self.nrmse).any(axis=1)

    def complete_matrix(self) -> np.ndarray:
        return self.nrmse[self.complete_mask()]

    def method_mean_std(self) -> dict[str, tuple[float, float]]:
        """Per-method mean and sample stdev over that method's available days."""
        out: dict[str, tuple[float, float]] = {}
        for j, m in enumerate(self.methods):
            col = self.nrmse[:, j]
            col = col[~np.isnan(col)]
            if col.size == 0:
                out[m] = (math.nan, math.nan)
            else:
                std = float(col.std(ddof=1)) if col.size >= 2 else 0.0
                out[m] = (float(col.mean()), std)
        return out


def generation_benchmark(
    target: TrafficSeries,
    mean_flow: float,
    generators: Mapping[str, Callable[[date], GeneratedDay]],
    dates: Sequence[date] | None = None,
) -> GenerationErrorTable:
    """Score every generator on every complete day of the target.

    A generator raising ``AvailabilityError`` for a date leaves an
    absent (NaN) cell; such days are dropped from rank statistics by
    :meth:`GenerationErrorTable.complete_matrix`.
    """
    if not generators:
        raise ArgumentError("no generators to benchmark")
    if dates is None:
        dates = target.complete_days()
    dates = list(dates)
    if not dates:
        raise DomainError(f"target {target.sensor_id!r} has no complete days to score")
    methods = sorted(generators)  # column order independent of caller dict order
    table = np.full((len(dates), len(methods)), np.nan)
    for i, d in enumerate(dates):
        real = slice_day(target, d)
        for j, name in enumerate(methods):
            try:
                generated = generators[name](d)
            except AvailabilityError:
                continue
            table[i, j] = nrmse(real, generated.values, mean_flow)
    return GenerationErrorTable(
        target_id=target.sensor_id, methods=methods, dates=dates, nrmse=table
    )
