"""Daily traffic synthesis from a selected source segment.

Two generators are provided: ``cluster`` learns one representative
pattern per calendar day class (weekday x holiday, 14 classes) as the
slotwise median of the source's complete days; ``copy`` repeats the
source's recorded flow for the very same date.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Callable

import numpy as np

from .errors import ArgumentError, DomainError
from .traffic_data import HolidayCalendar, TrafficSeries, slice_day, slot_median

N_DAY_CLASSES = 14

METHOD_CLUSTER = "cluster"
METHOD_COPY = "copy"
METHODS = (METHOD_CLUSTER, METHOD_COPY)


def day_class(d: date, holidays: HolidayCalendar | None = None) -> int:
    """Calendar day class: weekday index (Mon=0..Sun=6) plus 7 on holidays."""
    holiday = holidays is not None and d in holidays
    return d.weekday() + (7 if holiday else 0)


@dataclass(frozen=True)
class GeneratedDay:
    """One synthesized day of flow values plus generation metadata."""

    target_date: date
    method: str
    values: np.ndarray
    fallback: str = "none"


@dataclass
class ClusterModel:
    """Per-day-class representative patterns learned from one source sensor."""

    sensor_id: str
    interval_min: int
    patterns: dict[int, np.ndarray]
    day_counts: dict[int, int]
    overall_median: np.ndarray

    def __post_init__(self):
        for cls in self.patterns:
            if not 0 <= cls < N_DAY_CLASSES:
                raise ArgumentError(f"day class {cls} outside 0..{N_DAY_CLASSES - 1}")


def fit_cluster_model(
    series: TrafficSeries, holidays: HolidayCalendar | None = None
) -> ClusterModel:
    """Group the source's complete days by day class; median per slot.

    Also keeps the slotwise median over every complete training day as
    the last-resort fallback pattern.
    """
    days = series.complete_days()
    if not days:
        raise DomainError(
            f"sensor {series.sensor_id!r}: no complete days to fit a day-class model"
        )
    groups: dict[int, list[int]] = {}
    for d in days:
        groups.setdefault(day_class(d, holidays), []).append(series.date_index(d))
    patterns = {
        cls: slot_median(series.flows[rows]) for cls, rows in sorted(groups.items())
    }
    all_rows = [series.date_index(d) for d in days]
    return ClusterModel(
        sensor_id=series.sensor_id,
        interval_min=series.interval_min,
        patterns=patterns,
        day_counts={cls: len(rows) for cls, rows in sorted(groups.items())},
        overall_median=slot_median(series.flows[all_rows]),
    )


def generate_cluster(
    model: ClusterModel, d: date, holidays: HolidayCalendar | None = None
) -> GeneratedDay:
    """Representative pattern for the date's day class.

    Unpopulated holiday classes fall back to the same weekday's
    non-holiday class, then to the overall median; the fallback taken is
    recorded on the result.  Works for any date, including future ones.
    """
    cls = day_class(d, holidays)
    if cls in model.patterns:
        return GeneratedDay(d, METHOD_CLUSTER, model.patterns[cls].copy(), "none")
    weekday_cls = cls % 7
    if weekday_cls in model.patterns:
        return GeneratedDay(d, METHOD_CLUSTER, model.patterns[weekday_cls].copy(), "weekday")
    return GeneratedDay(d, METHOD_CLUSTER, model.overall_median.copy(), "overall_median")


def generate_copy(source: TrafficSeries, d: date) -> GeneratedDay:
    """Copy of the source's flow for the same date.

    Raises ``AvailabilityError`` when the source has no complete record
    of that date (which covers all future dates).
    """
    return GeneratedDay(d, METHOD_COPY, slice_day(source, d), "none")


def generator(
    method: str, source: TrafficSeries, holidays: HolidayCalendar | None = None
) -> Callable[[date], GeneratedDay]:
    """Day generator of one method from ``source``, one of :data:`METHODS`.

    The cluster model is fitted here, once, and only for ``cluster``.
    """
    if method == METHOD_CLUSTER:
        model = fit_cluster_model(source, holidays)
        return lambda d: generate_cluster(model, d, holidays)
    if method == METHOD_COPY:
        return lambda d: generate_copy(source, d)
    raise ArgumentError(f"unknown generation method {method!r}; expected one of {METHODS}")
