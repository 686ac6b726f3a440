import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import make_series
from roadtwin import traffic_data
from roadtwin.config import DECISIONS
from roadtwin.errors import ArgumentError, AvailabilityError, DomainError, FormatError, InputError
from roadtwin.traffic_data import (
    QUALITY_INTERPOLATED,
    QUALITY_MISSING,
    QUALITY_OBSERVED,
    HolidayCalendar,
    clean_series,
    daily_profile,
    is_weekday,
    load_traffic_csv,
    mean_weekday_flow,
    slice_day,
)

D = date(2019, 1, 7)  # Monday


def load_one(source, interval_min=15):
    """The one series of a single-sensor traffic CSV, given as text or a path."""
    if isinstance(source, str):
        source = source.encode()
    (series,) = load_traffic_csv(source, interval_min).values()
    return series


def csv_doc(rows, header="sensor_id,timestamp,flow"):
    return header + "\n" + "\n".join(rows) + "\n"


def day_rows(sid, d, values, interval_min=15, skip=()):
    rows = []
    for slot, v in enumerate(values):
        if slot in skip:
            continue
        h, m = divmod(slot * interval_min, 60)
        rows.append(f"{sid},{d.isoformat()}T{h:02d}:{m:02d}:00,{v}")
    return rows


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def test_load_single_day():
    s = load_one(csv_doc(day_rows("a", D, range(96))))
    assert s.sensor_id == "a"
    assert s.n_days == 1
    assert s.slots_per_day == 96
    assert list(s.flows[0]) == list(range(96))
    assert (s.quality[0] == QUALITY_OBSERVED).all()


def test_load_missing_slots_marked():
    s = load_one(csv_doc(day_rows("a", D, range(96), skip={3, 4})))
    assert s.quality[0][3] == QUALITY_MISSING
    assert s.quality[0][4] == QUALITY_MISSING
    assert s.quality[0][5] == QUALITY_OBSERVED


def test_load_missing_middle_day_is_all_missing():
    rows = day_rows("a", D, [5.0] * 96) + day_rows("a", D + timedelta(days=2), [7.0] * 96)
    s = load_one(csv_doc(rows))
    assert s.n_days == 3
    assert (s.quality[1] == QUALITY_MISSING).all()
    assert s.is_complete_day(D) and not s.is_complete_day(D + timedelta(days=1))


def test_load_bad_header():
    with pytest.raises(FormatError, match="header"):
        load_one(csv_doc(["a,2019-01-07T00:00:00,1"], header="id,when,count"))


def test_load_reports_row_numbers():
    rows = ["a,2019-01-07T00:00:00,1", "a,2019-01-07T00:07:00,2"]  # second row off-grid
    with pytest.raises(FormatError, match="row 3"):
        load_one(csv_doc(rows))


def test_load_rejects_negative_flow():
    with pytest.raises(FormatError, match="row 2"):
        load_one(csv_doc(["a,2019-01-07T00:00:00,-1"]))


def test_load_rejects_non_finite_flow():
    with pytest.raises(FormatError):
        load_one(csv_doc(["a,2019-01-07T00:00:00,nan"]))
    with pytest.raises(FormatError):
        load_one(csv_doc(["a,2019-01-07T00:00:00,inf"]))


def test_load_rejects_bad_timestamp():
    with pytest.raises(FormatError, match="row 2"):
        load_one(csv_doc(["a,07/01/2019 00:00,1"]))


def test_load_rejects_timezone_aware():
    with pytest.raises(FormatError, match="row 2"):
        load_one(csv_doc(["a,2019-01-07T00:00:00+01:00,1"]))


def test_load_rejects_wrong_field_count():
    with pytest.raises(FormatError, match="row 2"):
        load_one(csv_doc(["a,2019-01-07T00:00:00"]))


def test_duplicate_timestamp_is_an_error():
    rows = ["a,2019-01-07T00:00:00,1", "a,2019-01-07T00:00:00,2"]
    with pytest.raises(FormatError, match="duplicate"):
        load_one(csv_doc(rows))


def test_load_traffic_csv_splits_sensors():
    rows = ["b,2019-01-07T00:00:00,2", "a,2019-01-07T00:00:00,1"]
    series = load_traffic_csv(csv_doc(rows).encode())
    assert list(series) == ["a", "b"]
    assert series["a"].flows[0][0] == 1.0
    assert series["b"].flows[0][0] == 2.0


def test_load_five_minute_grid():
    rows = [f"a,2019-01-07T00:{m:02d}:00,1" for m in (0, 5, 10)]
    s = load_one(csv_doc(rows), 5)
    assert s.slots_per_day == 288


def test_load_missing_file_is_input_error(tmp_path):
    with pytest.raises(InputError):
        load_one(tmp_path / "missing.csv")


def test_empty_file_rejected():
    with pytest.raises(FormatError):
        load_one("sensor_id,timestamp,flow\n")


# the canonical form takes the array pass, the short one the row loop
SPAN_FORMS = {"canonical": "T00:15:00", "row loop": "T00:15"}


@pytest.mark.parametrize("form", SPAN_FORMS.values(), ids=SPAN_FORMS.keys())
@pytest.mark.parametrize("last", ["2119-01-07", "9019-01-07"])
def test_span_of_more_than_50_years_rejected(monkeypatch, form, last):
    text = csv_doc(["b,2019-01-07T00:00:00,1", f"a,2019-01-07{form},1", f"a,{last}{form},2"])
    if form == SPAN_FORMS["canonical"]:
        monkeypatch.setattr(traffic_data, "_parse_rows", None)  # array pass only
    else:
        assert traffic_data._parse_canonical(text.encode(), 15) is None
    with pytest.raises(FormatError) as info:
        load_traffic_csv(text.encode())
    assert str(info.value) == f"sensor 'a': rows run from 2019-01-07 to {last}, more than 50 years"


def test_row_errors_come_before_span_errors():
    rows = ["a,2019-01-07T00:00:00,1", "a,2119-01-07T00:00:00,1",
            "b,2019-01-07T00:00:00,1", "b,2019-01-07T00:00:00,2"]
    with pytest.raises(FormatError, match="^traffic CSV row 5: duplicate timestamp"):
        load_traffic_csv(csv_doc(rows).encode())


def test_span_limit_is_exact():
    last = D + timedelta(days=traffic_data.MAX_SPAN_DAYS - 1)
    rows = [f"a,{D.isoformat()}T00:00:00,1", f"a,{last.isoformat()}T00:00:00,2"]
    assert load_one(csv_doc(rows), 1440).n_days == traffic_data.MAX_SPAN_DAYS
    rows[1] = f"a,{(last + timedelta(days=1)).isoformat()}T00:00:00,2"
    with pytest.raises(FormatError, match="more than 50 years"):
        load_one(csv_doc(rows), 1440)


def test_ten_year_span_loads():
    s = load_one(csv_doc(["a,2019-01-07T00:00:00,1", "a,2029-01-07T23:45:00,2"]))
    assert s.n_days == (date(2029, 1, 7) - D).days + 1
    assert s.flows[0][0] == 1.0 and s.flows[-1][-1] == 2.0


# ---------------------------------------------------------------------------
# holidays / weekday logic
# ---------------------------------------------------------------------------

def test_holiday_calendar_from_csv(tmp_path):
    p = tmp_path / "holidays.csv"
    p.write_text("# comment\n2019-01-21\n\n2019-02-14\n")
    cal = HolidayCalendar.from_csv(str(p))
    assert date(2019, 1, 21) in cal
    assert date(2019, 1, 22) not in cal


def test_holiday_calendar_rejects_garbage(tmp_path):
    p = tmp_path / "holidays.csv"
    p.write_text("not-a-date\n")
    with pytest.raises(FormatError, match="line 1"):
        HolidayCalendar.from_csv(str(p))


def test_holiday_calendar_missing_file_is_input_error(tmp_path):
    with pytest.raises(InputError):
        HolidayCalendar.from_csv(str(tmp_path / "absent.csv"))


def test_is_weekday_respects_holidays():
    cal = HolidayCalendar([date(2019, 1, 21)])
    assert is_weekday(date(2019, 1, 21)) is True       # plain Monday
    assert is_weekday(date(2019, 1, 21), cal) is False  # holiday Monday
    assert is_weekday(date(2019, 1, 19), cal) is False  # Saturday


# ---------------------------------------------------------------------------
# cleaning: spikes
# ---------------------------------------------------------------------------

def spike_series(spike_value=600.0, base=100.0, n_days=11):
    days = {D + timedelta(days=i): base for i in range(n_days)}
    arr = np.full(96, base)
    arr[40] = spike_value
    days[D + timedelta(days=5)] = arr
    return make_series(days)


def test_spike_removed_and_interpolated():
    cleaned, stats = clean_series(spike_series())
    assert stats.spikes_removed == 1
    assert stats.slots_interpolated == 1
    assert cleaned.quality[5][40] == QUALITY_INTERPOLATED
    assert cleaned.flows[5][40] == pytest.approx(100.0)


def test_value_at_factor_boundary_stays():
    # exactly factor * median is not "greater than" the threshold
    cleaned, stats = clean_series(spike_series(spike_value=500.0))
    assert stats.spikes_removed == 0
    assert cleaned.flows[5][40] == 500.0


def test_value_just_above_boundary_goes():
    cleaned, stats = clean_series(spike_series(spike_value=500.5))
    assert stats.spikes_removed == 1


def test_zero_median_slot_is_exempt():
    days = {D + timedelta(days=i): 0.0 for i in range(9)}
    arr = np.zeros(96)
    arr[10] = 50.0
    days[D + timedelta(days=4)] = arr
    cleaned, stats = clean_series(make_series(days))
    assert stats.spikes_removed == 0
    assert cleaned.flows[4][10] == 50.0


def test_spike_factor_configurable():
    cleaned, stats = clean_series(spike_series(spike_value=250.0), spike_factor=2.0)
    assert stats.spikes_removed == 1


def test_repeated_cleaning_is_identity():
    cleaned1, stats1 = clean_series(spike_series())
    cleaned2, stats2 = clean_series(cleaned1)
    assert stats2.spikes_removed == 0
    assert stats2.slots_interpolated == 0
    assert np.array_equal(cleaned1.flows, cleaned2.flows)
    assert np.array_equal(cleaned1.quality, cleaned2.quality)


# ---------------------------------------------------------------------------
# cleaning: gaps
# ---------------------------------------------------------------------------

def gap_series(first, count, left=100.0, right=200.0):
    arr = np.full(96, left)
    arr[first + count:] = right
    arr[first:first + count] = np.nan
    flank = np.full(96, left)
    return make_series({D: flank, D + timedelta(days=1): arr, D + timedelta(days=2): flank})


def test_short_gap_linear_interpolation():
    cleaned, stats = clean_series(gap_series(30, 3))
    assert stats.slots_interpolated == 3
    assert list(cleaned.flows[1][30:33]) == [125.0, 150.0, 175.0]
    assert list(cleaned.quality[1][30:33]) == [QUALITY_INTERPOLATED] * 3


def test_gap_longer_than_limit_stays_missing():
    cleaned, stats = clean_series(gap_series(30, 5))
    assert stats.slots_interpolated == 0
    assert stats.slots_missing == 5
    assert (cleaned.quality[1][30:35] == QUALITY_MISSING).all()


def test_gap_limit_configurable():
    cleaned, stats = clean_series(gap_series(30, 5), max_gap=5)
    assert stats.slots_interpolated == 5


def test_gap_across_midnight_is_filled():
    a = np.full(96, 100.0)
    a[94:] = np.nan
    b = np.full(96, 100.0)
    b[0] = np.nan
    b[1:] = 200.0
    cleaned, stats = clean_series(make_series({D: a, D + timedelta(days=1): b}))
    assert stats.slots_interpolated == 3
    assert cleaned.flows[0][94] == pytest.approx(125.0)
    assert cleaned.flows[0][95] == pytest.approx(150.0)
    assert cleaned.flows[1][0] == pytest.approx(175.0)


def test_leading_gap_never_filled():
    arr = np.full(96, 100.0)
    arr[:2] = np.nan
    cleaned, stats = clean_series(make_series({D: arr}))
    assert stats.slots_interpolated == 0
    assert (cleaned.quality[0][:2] == QUALITY_MISSING).all()


def test_trailing_gap_never_filled():
    arr = np.full(96, 100.0)
    arr[-2:] = np.nan
    cleaned, stats = clean_series(make_series({D: arr}))
    assert stats.slots_interpolated == 0


def test_cleaning_keeps_observed_values_untouched():
    s = gap_series(30, 3)
    cleaned, _ = clean_series(s)
    mask = s.quality == QUALITY_OBSERVED
    assert np.array_equal(cleaned.flows[mask], s.flows[mask])


@given(st.data())
def test_cleaning_idempotent_on_random_series(data):
    n_days = data.draw(st.integers(min_value=2, max_value=4))
    flows = data.draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=40), min_size=24, max_size=24),
        min_size=n_days, max_size=n_days))
    missing = data.draw(st.lists(
        st.tuples(st.integers(0, n_days - 1), st.integers(0, 23)),
        max_size=10))
    days = {}
    for i in range(n_days):
        arr = np.array(flows[i], dtype=float)
        days[D + timedelta(days=i)] = arr
    for di, slot in missing:
        days[D + timedelta(days=di)][slot] = np.nan
    s = make_series(days, interval_min=60)
    c1, _ = clean_series(s)
    c2, stats2 = clean_series(c1)
    assert np.array_equal(c1.flows, c2.flows)
    assert np.array_equal(c1.quality, c2.quality)
    assert stats2.spikes_removed == 0
    assert stats2.slots_interpolated == 0


def test_fixture_sensor_cleaning(minicity_dir):
    s = load_one(Path(minicity_dir) / "traffic" / "s3.csv")
    cleaned, stats = clean_series(s)
    assert stats.total_days == 60
    assert stats.spikes_removed == 1
    assert stats.slots_interpolated == 1
    assert stats.incomplete_days == 0
    # spike day becomes interpolated at the injected slot
    idx = cleaned.date_index(date(2019, 1, 16))
    assert cleaned.quality[idx][44] == QUALITY_INTERPOLATED


# ---------------------------------------------------------------------------
# profiles and summaries
# ---------------------------------------------------------------------------

def test_profile_median_of_three_days():
    days = {D: 1.0, D + timedelta(days=1): 2.0, D + timedelta(days=2): 9.0}
    p = daily_profile(make_series(days), "weekdays")
    assert (p.values == 2.0).all()
    assert p.n_days == 3
    assert p.stdev[0] == pytest.approx(math.sqrt(19.0))


def test_profile_median_even_count_averages_central_pair():
    days = {D + timedelta(days=i): float(v) for i, v in enumerate([1, 2, 9, 100])}
    p = daily_profile(make_series(days), "weekdays")
    assert (p.values == 5.5).all()


def test_profile_single_day_has_zero_stdev():
    p = daily_profile(make_series({D: 7.0}), "weekdays")
    assert (p.values == 7.0).all()
    assert (p.stdev == 0.0).all()


def test_profile_skips_incomplete_days():
    assert DECISIONS["profile_days"] == "complete_days_only"
    arr = np.full(96, 50.0)
    arr[10:20] = np.nan
    days = {D: 1.0, D + timedelta(days=1): arr, D + timedelta(days=2): 3.0}
    p = daily_profile(make_series(days), "weekdays")
    assert p.n_days == 2
    assert (p.values == 2.0).all()


def test_profile_weekday_filter_excludes_weekend_and_holiday():
    cal = HolidayCalendar([D + timedelta(days=1)])  # Tuesday holiday
    days = {D + timedelta(days=i): float(i + 1) for i in range(7)}  # Mon..Sun
    p = daily_profile(make_series(days), "weekdays", cal)
    # kept: Mon(1), Wed(3), Thu(4), Fri(5) -> median 3.5
    assert p.n_days == 4
    assert (p.values == 3.5).all()


def test_profile_weekend_filter():
    days = {D + timedelta(days=i): float(i + 1) for i in range(7)}
    p = daily_profile(make_series(days), "weekends")
    # kept: Sat(6), Sun(7) -> median 6.5
    assert p.n_days == 2
    assert (p.values == 6.5).all()


def test_profile_all_filter():
    days = {D + timedelta(days=i): float(i + 1) for i in range(7)}
    p = daily_profile(make_series(days), "all")
    assert p.n_days == 7
    assert (p.values == 4.0).all()


def test_profile_unknown_filter():
    with pytest.raises(ArgumentError):
        daily_profile(make_series({D: 1.0}), "fortnights")


def test_profile_no_matching_days_is_domain_error():
    sat = date(2019, 1, 12)
    with pytest.raises(DomainError, match="no complete days"):
        daily_profile(make_series({sat: 1.0}), "weekdays")


def test_profile_depends_only_on_day_multiset():
    # same multiset of weekday vectors assigned to different calendar
    # days yields the identical profile
    v = [10.0, 20.0, 30.0, 40.0, 50.0]
    days_a = {D + timedelta(days=i): v[i] for i in range(5)}
    days_b = {D + timedelta(days=i): v[4 - i] for i in range(5)}
    pa = daily_profile(make_series(days_a), "weekdays")
    pb = daily_profile(make_series(days_b), "weekdays")
    assert np.array_equal(pa.values, pb.values)
    assert np.array_equal(pa.stdev, pb.stdev)


def test_weekend_mutation_leaves_weekday_profile_bit_identical():
    rng = np.random.default_rng(3)
    days = {D + timedelta(days=i): rng.uniform(10, 500, 96).round() for i in range(14)}
    s1 = make_series(days)
    p1 = daily_profile(s1, "weekdays")
    mutated = dict(days)
    for i in range(14):
        d = D + timedelta(days=i)
        if d.weekday() >= 5:
            mutated[d] = days[d] * 3.0 + 17.0
    p2 = daily_profile(make_series(mutated), "weekdays")
    assert p1.values.tobytes() == p2.values.tobytes()
    assert p1.stdev.tobytes() == p2.stdev.tobytes()


# ---------------------------------------------------------------------------
# slicing and means
# ---------------------------------------------------------------------------

def test_slice_day_returns_copy():
    s = make_series({D: 5.0})
    day = slice_day(s, D)
    day[0] = 999.0
    assert s.flows[0][0] == 5.0


def test_slice_day_incomplete_raises_with_count():
    arr = np.full(96, 5.0)
    arr[3:9] = np.nan
    s = make_series({D: arr})
    with pytest.raises(AvailabilityError, match="6"):
        slice_day(s, D)


def test_slice_day_outside_span():
    s = make_series({D: 5.0})
    with pytest.raises(AvailabilityError):
        slice_day(s, D + timedelta(days=40))


def test_mean_weekday_flow_two_days():
    days = {D: 10.0, D + timedelta(days=1): 30.0}
    assert mean_weekday_flow(make_series(days)) == 20.0


def test_mean_weekday_flow_ignores_weekend_and_holiday():
    cal = HolidayCalendar([D + timedelta(days=1)])
    days = {
        D: 10.0,
        D + timedelta(days=1): 1000.0,  # holiday Tuesday: excluded
        D + timedelta(days=5): 1000.0,  # Saturday: excluded
        D + timedelta(days=7): 30.0,
    }
    assert mean_weekday_flow(make_series(days), cal) == 20.0


def test_mean_weekday_flow_counts_interpolated_values():
    arr = np.full(96, 100.0)
    arr[50] = np.nan
    s = make_series({D: arr, D + timedelta(days=1): 100.0})
    cleaned, _ = clean_series(s)
    assert cleaned.quality[0][50] == QUALITY_INTERPOLATED
    assert mean_weekday_flow(cleaned) == pytest.approx(100.0)


def test_mean_weekday_flow_partial_days_count():
    # observed slots of incomplete days still contribute
    arr = np.full(96, np.nan)
    arr[0] = 50.0
    s = make_series({D: arr, D + timedelta(days=1): 100.0})
    expected = (50.0 + 96 * 100.0) / 97
    assert mean_weekday_flow(s) == pytest.approx(expected)


def test_mean_weekday_flow_no_weekdays_is_domain_error():
    sat = date(2019, 1, 12)
    with pytest.raises(DomainError):
        mean_weekday_flow(make_series({sat: 5.0}))


def test_slot_median_equals_np_median_bit_for_bit():
    rng = np.random.default_rng(23)
    for k in range(3000):
        shape = (int(rng.integers(1, 40)), int(rng.integers(1, 6)))
        kind = k % 3
        if kind == 0:
            block = rng.integers(0, 50, size=shape).astype(float)
        elif kind == 1:
            block = rng.uniform(1e306, 1.7e308, size=shape)
        else:
            block = rng.normal(300.0, 120.0, size=shape)
        with np.errstate(over="ignore"):  # both halve an overflowing sum
            got = traffic_data.slot_median(block)
            want = np.median(block, axis=0)
        assert got.tobytes() == want.tobytes(), (k, block)
