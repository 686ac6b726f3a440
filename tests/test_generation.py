from datetime import date, timedelta

import numpy as np
import pytest

from helpers import make_series
from roadtwin.config import DECISIONS
from roadtwin.errors import ArgumentError, AvailabilityError, DomainError
from roadtwin.generation import (
    METHODS,
    N_DAY_CLASSES,
    ClusterModel,
    day_class,
    fit_cluster_model,
    generate_cluster,
    generate_copy,
    generator,
)
from roadtwin.traffic_data import HolidayCalendar

MON = date(2019, 1, 7)
TUE = MON + timedelta(days=1)
SAT = MON + timedelta(days=5)
SUN = MON + timedelta(days=6)


# ---------------------------------------------------------------------------
# day classes
# ---------------------------------------------------------------------------

def test_day_class_weekdays():
    for i in range(7):
        assert day_class(MON + timedelta(days=i)) == i


def test_day_class_holiday_shifts_by_seven():
    assert DECISIONS["day_class_encoding"] == "weekday_index_plus_7_on_holidays"
    cal = HolidayCalendar([MON, SUN])
    assert day_class(MON, cal) == 7
    assert day_class(SUN, cal) == 13
    assert day_class(TUE, cal) == 1


def test_day_class_count():
    assert N_DAY_CLASSES == 14
    cal = HolidayCalendar([MON + timedelta(days=i) for i in range(7, 14)])
    seen = {day_class(MON + timedelta(days=i), cal) for i in range(14)}
    assert seen == set(range(14))


# ---------------------------------------------------------------------------
# cluster model
# ---------------------------------------------------------------------------

def three_mondays(values=(1.0, 3.0, 5.0)):
    return make_series({MON + timedelta(days=7 * i): v for i, v in enumerate(values)})


def test_fit_takes_per_class_median():
    model = fit_cluster_model(three_mondays())
    assert set(model.patterns) == {0}
    assert (model.patterns[0] == 3.0).all()
    assert model.day_counts == {0: 3}
    assert (model.overall_median == 3.0).all()


def test_fit_even_count_median_averages():
    model = fit_cluster_model(three_mondays((1.0, 3.0, 5.0, 9.0)))
    assert (model.patterns[0] == 4.0).all()


def test_fit_separates_classes():
    days = {
        MON: 10.0, MON + timedelta(days=7): 20.0,   # Mondays
        TUE: 100.0,                                   # Tuesday
        SAT: 7.0,                                     # Saturday
    }
    model = fit_cluster_model(make_series(days))
    assert (model.patterns[0] == 15.0).all()
    assert (model.patterns[1] == 100.0).all()
    assert (model.patterns[5] == 7.0).all()
    assert model.day_counts == {0: 2, 1: 1, 5: 1}


def test_fit_holiday_classes():
    cal = HolidayCalendar([MON])
    days = {MON: 50.0, MON + timedelta(days=7): 10.0}
    model = fit_cluster_model(make_series(days), cal)
    assert (model.patterns[7] == 50.0).all()
    assert (model.patterns[0] == 10.0).all()


def test_fit_ignores_incomplete_days():
    arr = np.full(96, 100.0)
    arr[0:10] = np.nan
    days = {MON: 10.0, MON + timedelta(days=7): arr}
    model = fit_cluster_model(make_series(days))
    assert model.day_counts == {0: 1}


def test_fit_requires_some_complete_day():
    arr = np.full(96, np.nan)
    arr[0] = 1.0
    with pytest.raises(DomainError, match="no complete days"):
        fit_cluster_model(make_series({MON: arr}))


def test_model_rejects_out_of_range_class():
    with pytest.raises(ArgumentError):
        ClusterModel("s", 15, {14: np.zeros(96)}, {14: 1}, np.zeros(96))


# ---------------------------------------------------------------------------
# cluster generation and fallbacks
# ---------------------------------------------------------------------------

def test_generate_exact_class():
    model = fit_cluster_model(three_mondays())
    out = generate_cluster(model, MON + timedelta(days=70))  # a future Monday
    assert out.method == "cluster"
    assert out.fallback == "none"
    assert (out.values == 3.0).all()
    assert out.target_date == MON + timedelta(days=70)


def test_generate_holiday_falls_back_to_weekday():
    model = fit_cluster_model(three_mondays())  # only class 0 observed
    cal = HolidayCalendar([MON + timedelta(days=70)])
    out = generate_cluster(model, MON + timedelta(days=70), cal)  # class 7 absent
    assert out.fallback == "weekday"
    assert (out.values == 3.0).all()


def test_generate_unseen_class_falls_back_to_overall():
    model = fit_cluster_model(three_mondays())
    out = generate_cluster(model, SAT)  # class 5: no Saturdays, no fallback pair
    assert out.fallback == "overall_median"
    assert (out.values == 3.0).all()


def test_generate_values_are_copies():
    model = fit_cluster_model(three_mondays())
    out1 = generate_cluster(model, MON)
    out1.values[0] = 999.0
    out2 = generate_cluster(model, MON)
    assert out2.values[0] == 3.0


def test_generate_mixed_model_prefers_exact():
    cal = HolidayCalendar([MON])
    days = {MON: 50.0, MON + timedelta(days=7): 10.0}
    model = fit_cluster_model(make_series(days), cal)
    future_holiday_monday = MON + timedelta(days=77)
    out = generate_cluster(model, future_holiday_monday, HolidayCalendar([future_holiday_monday]))
    assert out.fallback == "none"
    assert (out.values == 50.0).all()


# ---------------------------------------------------------------------------
# same-date copying
# ---------------------------------------------------------------------------

def test_copy_reproduces_the_source_day():
    src = make_series({MON: 42.0, TUE: 17.0})
    out = generate_copy(src, TUE)
    assert out.method == "copy"
    assert out.fallback == "none"
    assert (out.values == 17.0).all()


def test_copy_result_is_independent_array():
    src = make_series({MON: 42.0})
    out = generate_copy(src, MON)
    out.values[0] = -1.0
    assert src.flows[0][0] == 42.0


def test_copy_missing_date_raises():
    src = make_series({MON: 42.0})
    with pytest.raises(AvailabilityError):
        generate_copy(src, MON + timedelta(days=30))


def test_copy_incomplete_day_raises():
    arr = np.full(96, 5.0)
    arr[8:20] = np.nan
    src = make_series({MON: arr})
    with pytest.raises(AvailabilityError):
        generate_copy(src, MON)


# ---------------------------------------------------------------------------
# method dispatch
# ---------------------------------------------------------------------------

def test_generator_matches_each_method():
    cal = HolidayCalendar([MON + timedelta(days=70)])
    src = three_mondays()
    model = fit_cluster_model(src, cal)
    assert METHODS == ("cluster", "copy")
    for d in (MON, MON + timedelta(days=70)):
        out = generator("cluster", src, cal)(d)
        want = generate_cluster(model, d, cal)
        assert (out.method, out.fallback) == (want.method, want.fallback)
        assert np.array_equal(out.values, want.values)
    out = generator("copy", src, cal)(MON)
    assert out.method == "copy"
    assert np.array_equal(out.values, generate_copy(src, MON).values)


def test_generator_fits_a_model_only_for_cluster():
    arr = np.full(96, 5.0)
    arr[8:20] = np.nan
    src = make_series({MON: arr})  # no complete day to fit on
    with pytest.raises(DomainError):
        generator("cluster", src)
    with pytest.raises(AvailabilityError):
        generator("copy", src)(MON)


def test_generator_rejects_an_unknown_method():
    with pytest.raises(ArgumentError, match="bogus"):
        generator("bogus", three_mondays())
