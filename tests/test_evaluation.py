import math
from datetime import timedelta
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import MONDAY, emb, make_series
from oracles import average_ranks_sorted, chi2_sf_series
from roadtwin.config import DECISIONS
from roadtwin.errors import ArgumentError, AvailabilityError, DomainError
from roadtwin.evaluation import (
    NEMENYI_Q_05,
    VERDICT_FIRST,
    VERDICT_SECOND,
    VERDICT_TIE,
    GenerationErrorTable,
    SegmentRecord,
    best_methods,
    friedman_test,
    generation_benchmark,
    nemenyi_posthoc,
    nrmse,
    rmse,
    selection_benchmark,
    tally_selection,
)
from roadtwin.generation import GeneratedDay
from roadtwin.traffic_data import daily_profile, mean_weekday_flow, slice_day

err_matrix = st.lists(
    st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
             min_size=3, max_size=3),
    min_size=2, max_size=20,
)

# k = 2..6 methods (chi-square df 1..5, both parities); a few distinct rows
# repeated up to 400 times reach statistics of about 1,500, where p underflows
wide_err_matrix = st.integers(min_value=2, max_value=6).flatmap(
    lambda k: st.tuples(
        st.lists(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                          min_size=k, max_size=k),
                 min_size=2, max_size=6),
        st.integers(min_value=1, max_value=400),
    ).map(lambda rows_reps: rows_reps[0] * rows_reps[1])
)

# small integer cells, so most rows hold ties
tied_int_matrix = st.integers(min_value=2, max_value=6).flatmap(
    lambda k: st.lists(st.lists(st.integers(min_value=0, max_value=3), min_size=k, max_size=k),
                       min_size=2, max_size=30)
)


def ordered_rows(k, forward, backward=0, tied=0):
    """Rows ranking the k methods 1..k, k..1, or all tied."""
    return ([list(range(k))] * forward + [list(range(k))[::-1]] * backward
            + [[0] * k] * tied)


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------

def test_rmse_hand_example():
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), rel=1e-15)


def test_rmse_identical_is_exactly_zero():
    a = [1.5, 2.5, 9.0]
    assert rmse(a, a) == 0.0


def test_rmse_symmetric():
    assert rmse([1, 2], [3, 5]) == rmse([3, 5], [1, 2])


def test_rmse_shape_mismatch():
    with pytest.raises(ArgumentError):
        rmse([1, 2], [1, 2, 3])
    with pytest.raises(ArgumentError):
        rmse([], [])


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50),
       st.sampled_from([0.5, 2.0, 4.0]))
def test_rmse_scales_linearly(values, k):
    obs = [float(v) for v in values]
    pred = [v + 1.0 for v in obs]
    assert rmse([v * k for v in obs], [v * k for v in pred]) == pytest.approx(
        k * rmse(obs, pred), rel=1e-12)


def test_nrmse_divides_by_mean_flow():
    assert nrmse([0.0, 0.0], [3.0, 4.0], mean_flow=10.0) == pytest.approx(
        math.sqrt(12.5) / 10.0)


def test_nrmse_rejects_nonpositive_mean():
    with pytest.raises(DomainError):
        nrmse([1.0], [2.0], mean_flow=0.0)
    with pytest.raises(DomainError):
        nrmse([1.0], [2.0], mean_flow=-3.0)


# ---------------------------------------------------------------------------
# Friedman test
# ---------------------------------------------------------------------------

def test_friedman_identical_columns():
    stat, p = friedman_test([[1.0, 1.0, 1.0]] * 5)
    assert stat == 0.0
    assert p == 1.0


def test_friedman_strict_order_value():
    # four rows all ranking the columns 1 < 2 < 3 gives exactly 8.0
    errors = [[1.0, 2.0, 3.0]] * 4
    stat, p = friedman_test(errors)
    assert stat == pytest.approx(8.0, abs=1e-12)
    assert p == pytest.approx(chi2_sf_series(8.0, 2), rel=1e-10)


def test_friedman_two_methods():
    errors = [[1.0, 2.0]] * 10
    stat, p = friedman_test(errors)
    # all rows rank (1, 2): mean ranks (1, 2), stat = N = 10
    assert stat == pytest.approx(10.0, abs=1e-12)
    assert p == pytest.approx(chi2_sf_series(10.0, 1), rel=1e-10)


@given(err_matrix)
def test_friedman_p_matches_series_oracle(errors):
    stat, p = friedman_test(errors)
    assert p == pytest.approx(chi2_sf_series(stat, 2), abs=1e-8)
    assert stat >= 0.0
    assert 0.0 <= p <= 1.0


@given(wide_err_matrix)
# statistics of 1,420-1,500 on either side of where p underflows to 0.0
@example(ordered_rows(2, 1420))
@example(ordered_rows(2, 1500))
@example(ordered_rows(3, 714))
@example(ordered_rows(4, 479))
@example(ordered_rows(5, 362))
@example(ordered_rows(6, 290))
def test_friedman_p_matches_series_oracle_for_df_1_to_5(errors):
    stat, p = friedman_test(errors)
    df = len(errors[0]) - 1
    # the oracle's exp(-z + a log z - lgamma(a)) is good to about z * 2.2e-16
    # relative (z <= 750); below 1e-300 both sides are denormal dust or 0.0
    assert p == pytest.approx(chi2_sf_series(stat, df), rel=1e-12, abs=1e-300)
    assert 0.0 <= p <= 1.0


# p-values of scipy.stats.chi2.sf (scipy 1.17.1) at the statistics these
# matrices give, recorded once: (k, forward rows, backward rows, tied rows, p)
SCIPY_CHI2_SF = [
    (2, 3, 0, 0, 0.08326451666355042),
    (2, 9, 4, 0, 0.16551785869746796),
    (2, 40, 25, 5, 0.07299804543011248),
    (2, 700, 0, 0, 2.990226975124623e-154),
    (2, 1450, 0, 0, 0.0),
    (3, 5, 2, 0, 0.27645304662956666),
    (3, 300, 200, 1, 2.145099625223384e-09),
    (4, 6, 1, 2, 0.03960235520756403),
    (4, 60, 0, 0, 8.819945436737102e-39),
    (5, 3, 2, 0, 0.9384480644498935),
    (5, 200, 90, 0, 4.846911120528676e-35),
    (6, 4, 1, 0, 0.1090641579497718),
    (6, 300, 0, 0, 0.0),
]


@pytest.mark.parametrize("k,forward,backward,tied,expected", SCIPY_CHI2_SF)
def test_friedman_p_matches_recorded_scipy_values(k, forward, backward, tied, expected):
    _, p = friedman_test(ordered_rows(k, forward, backward, tied))
    assert p == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_friedman_statistic_omits_tie_correction():
    # scipy.stats.friedmanchisquare divides by 1 - sum(t^3 - t) / (n k (k^2 - 1))
    # and reports 3.7142857142857144 here
    assert DECISIONS["friedman_tie_correction"] == "omitted"
    stat, p = friedman_test([[1, 1, 2], [1, 2, 3]])
    assert stat == 3.25
    assert p == pytest.approx(0.196911675204194, rel=1e-12)


@given(tied_int_matrix)
def test_mean_ranks_match_sorted_oracle(errors):
    k = len(errors[0])
    oracle = average_ranks_sorted(errors)
    expected = tuple(sum(row[j] for row in oracle) / len(oracle) for j in range(k))
    # half-integer ranks sum exactly, so the means agree to the last bit
    assert nemenyi_posthoc(errors, q_crit=1.0).mean_ranks == expected


@given(err_matrix)
def test_friedman_invariant_under_row_permutation(errors):
    stat, p = friedman_test(errors)
    stat2, p2 = friedman_test(list(reversed(errors)))
    assert stat2 == pytest.approx(stat, abs=1e-9)


@given(st.lists(
    st.lists(st.integers(min_value=0, max_value=100), min_size=3, max_size=3),
    min_size=2, max_size=20))
def test_friedman_invariant_under_monotone_transform(errors):
    # integer errors cube exactly, so the transform is strictly monotone
    # with no float collapse and ranks are provably unchanged
    stat, _ = friedman_test([[float(v) for v in row] for row in errors])
    cubed = [[float(v) ** 3 for v in row] for row in errors]
    stat2, _ = friedman_test(cubed)
    assert stat2 == pytest.approx(stat, abs=1e-9)


def test_friedman_rejects_bad_shapes():
    with pytest.raises(ArgumentError):
        friedman_test([[1.0, 2.0]])  # one row
    with pytest.raises(ArgumentError):
        friedman_test([[1.0], [2.0]])  # one column
    with pytest.raises(ArgumentError):
        friedman_test([[1.0, np.nan], [2.0, 3.0]])


# ---------------------------------------------------------------------------
# Nemenyi post-hoc
# ---------------------------------------------------------------------------

def test_critical_difference_for_two_years_of_days():
    errors = [[1.0, 2.0, 3.0]] * 730
    res = nemenyi_posthoc(errors)
    expected = NEMENYI_Q_05[3] * math.sqrt(3 * 4 / (6.0 * 730))
    assert res.critical_difference == pytest.approx(expected, rel=1e-12)
    assert res.critical_difference == pytest.approx(0.12264, abs=1e-5)


def test_nemenyi_identical_columns_all_tie():
    errors = [[2.0, 2.0, 2.0]] * 10
    res = nemenyi_posthoc(errors)
    assert not res.significant
    assert res.friedman_statistic == 0.0
    assert set(res.verdicts.values()) == {VERDICT_TIE}
    assert res.mean_ranks == (2.0, 2.0, 2.0)


def test_nemenyi_clear_winner():
    errors = [[1.0, 5.0, 9.0]] * 200
    res = nemenyi_posthoc(errors)
    assert res.significant
    assert res.verdicts[(0, 1)] == VERDICT_FIRST
    assert res.verdicts[(0, 2)] == VERDICT_FIRST
    assert res.verdicts[(1, 2)] == VERDICT_FIRST
    assert res.mean_ranks == (1.0, 2.0, 3.0)


def test_nemenyi_close_pair_ties_even_when_significant():
    # columns 0 and 1 nearly always tie in rank; column 2 is far worse
    rows = []
    for i in range(100):
        a, b = (1.0, 1.1) if i % 2 == 0 else (1.1, 1.0)
        rows.append([a, b, 9.0])
    res = nemenyi_posthoc(rows)
    assert res.significant
    assert res.verdicts[(0, 1)] == VERDICT_TIE
    assert res.verdicts[(0, 2)] == VERDICT_FIRST
    assert res.verdicts[(1, 2)] == VERDICT_FIRST


def test_nemenyi_not_significant_gates_all_to_tie():
    rows = [[1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [2.0, 1.0, 3.0], [1.0, 3.0, 2.0]]
    res = nemenyi_posthoc(rows)
    assert not res.significant
    assert set(res.verdicts.values()) == {VERDICT_TIE}


@given(err_matrix)
def test_nemenyi_verdicts_antisymmetric_under_column_reversal(errors):
    res = nemenyi_posthoc(errors)
    rev = nemenyi_posthoc([list(reversed(row)) for row in errors])
    k = 3
    for (i, j), v in res.verdicts.items():
        ri, rj = k - 1 - j, k - 1 - i
        mirrored = rev.verdicts[(ri, rj)]
        if v == VERDICT_TIE:
            assert mirrored == VERDICT_TIE
        elif v == VERDICT_FIRST:
            assert mirrored == VERDICT_SECOND
        else:
            assert mirrored == VERDICT_FIRST


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
def test_nemenyi_two_methods_take_q_from_alpha(alpha):
    # for k = 2, Nemenyi's q is the normal quantile z(1 - alpha/2)
    errors = [[1.0, 2.0]] * 9 + [[2.0, 1.0]]
    res = nemenyi_posthoc(errors, alpha=alpha)
    q = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    assert res.critical_difference == pytest.approx(q / math.sqrt(10), rel=1e-12)
    if alpha == 0.05:
        assert q == pytest.approx(1.959964, abs=1e-6)


def test_nemenyi_unsupported_k_needs_explicit_q():
    errors = [[1.0, 2.0, 3.0, 4.0]] * 5
    with pytest.raises(ArgumentError, match="q_crit"):
        nemenyi_posthoc(errors)
    res = nemenyi_posthoc(errors, q_crit=2.569)
    assert res.critical_difference == pytest.approx(2.569 * math.sqrt(4 * 5 / 30.0))


def test_nemenyi_nonstandard_alpha_needs_explicit_q():
    errors = [[1.0, 2.0, 3.0]] * 5
    with pytest.raises(ArgumentError):
        nemenyi_posthoc(errors, alpha=0.01)
    res = nemenyi_posthoc(errors, alpha=0.01, q_crit=2.913)
    assert res.critical_difference > 0


def test_best_methods_with_significance():
    errors = [[1.0, 5.0, 9.0]] * 200
    res = nemenyi_posthoc(errors)
    assert best_methods(res, ["alpha", "beta", "gamma"]) == ["alpha"]


def test_best_methods_includes_all_close_ranks():
    rows = []
    for i in range(100):
        a, b = (1.0, 1.1) if i % 2 == 0 else (1.1, 1.0)
        rows.append([a, b, 9.0])
    res = nemenyi_posthoc(rows)
    assert best_methods(res, ["alpha", "beta", "gamma"]) == ["alpha", "beta"]


def test_best_methods_without_significance_returns_all():
    res = nemenyi_posthoc([[2.0, 2.0, 2.0]] * 10)
    assert best_methods(res, ["a", "b", "c"]) == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# leave-one-out selection benchmark
# ---------------------------------------------------------------------------

def segment(sensor_id, vec, coords, level):
    series = make_series({MONDAY + timedelta(days=i): level for i in range(5)},
                         sensor_id=sensor_id)
    profile = daily_profile(series, "weekdays")
    return SegmentRecord(
        sensor_id=sensor_id,
        coords=coords,
        embedding=emb(sensor_id, vec),
        profile=profile,
        mean_weekday_flow=mean_weekday_flow(series),
    )


def test_selection_benchmark_leave_one_out():
    # embeddings say "a is like b"; geography says "a is near c"
    segs = [
        segment("a", [0.1] * 7, (40.00, -3.0), 100.0),
        segment("b", [0.1] * 7, (40.50, -3.0), 110.0),
        segment("c", [0.9] * 7, (40.01, -3.0), 500.0),
    ]
    outcomes = selection_benchmark(segs)
    by_id = {o.target_id: o for o in outcomes}
    a = by_id["a"]
    assert a.embedding_result.selected_id == "b"
    assert a.geographic_result.selected_id == "c"
    assert a.embedding_rmse == pytest.approx(10.0)
    assert a.geographic_rmse == pytest.approx(400.0)
    assert a.verdict == "embedding"
    assert a.best_id == "b" and a.best_rmse == pytest.approx(10.0)
    tally = tally_selection(outcomes)
    assert tally["embedding"] + tally["geographic"] + tally["tie"] == 3


def test_selection_benchmark_requires_three():
    segs = [segment("a", [0.1] * 7, (40.0, -3.0), 100.0),
            segment("b", [0.2] * 7, (40.1, -3.0), 100.0)]
    with pytest.raises(ArgumentError):
        selection_benchmark(segs)


def test_selection_benchmark_rejects_duplicate_ids():
    segs = [segment("a", [0.1] * 7, (40.0, -3.0), 100.0),
            segment("a", [0.2] * 7, (40.1, -3.0), 100.0),
            segment("b", [0.3] * 7, (40.2, -3.0), 100.0)]
    with pytest.raises(ArgumentError, match="duplicate"):
        selection_benchmark(segs)


def test_selection_benchmark_tie_verdict():
    segs = [
        segment("a", [0.5] * 7, (40.0, -3.0), 100.0),
        segment("b", [0.5] * 7, (40.1, -3.0), 100.0),
        segment("c", [0.5] * 7, (40.2, -3.0), 100.0),
    ]
    outcomes = selection_benchmark(segs)
    assert all(o.verdict == "tie" for o in outcomes)


# ---------------------------------------------------------------------------
# generation benchmark table
# ---------------------------------------------------------------------------

def test_generation_benchmark_with_unavailable_cells():
    assert DECISIONS["generation_rank_days"] == "listwise_complete_rows"
    target = make_series({MONDAY + timedelta(days=i): 100.0 for i in range(4)})

    def perfect(d):
        return GeneratedDay(d, "perfect", np.full(96, 100.0))

    def flaky(d):
        if d == MONDAY + timedelta(days=1):
            raise AvailabilityError("no source data")
        return GeneratedDay(d, "flaky", np.full(96, 110.0))

    table = generation_benchmark(target, 100.0, {"perfect": perfect, "flaky": flaky})
    assert table.methods == ["flaky", "perfect"]
    assert table.dates == [MONDAY + timedelta(days=i) for i in range(4)]
    flaky_col = table.methods.index("flaky")
    perfect_col = table.methods.index("perfect")
    assert np.isnan(table.nrmse[1][flaky_col])
    assert table.nrmse[0][flaky_col] == pytest.approx(0.1)
    assert (table.nrmse[:, perfect_col] == 0.0).all()

    mask = table.complete_mask()
    assert list(mask) == [True, False, True, True]
    complete = table.complete_matrix()
    assert complete.shape == (3, 2)

    stats = table.method_mean_std()
    assert stats["perfect"] == (0.0, 0.0)
    mean, std = stats["flaky"]
    assert mean == pytest.approx(0.1)
    assert std == pytest.approx(0.0, abs=1e-15)


def test_generation_benchmark_dates_default_to_complete_days():
    arr = np.full(96, 50.0)
    arr[3:40] = np.nan
    target = make_series({MONDAY: 100.0, MONDAY + timedelta(days=1): arr})

    def perfect(d):
        return GeneratedDay(d, "m", np.full(96, 100.0))

    table = generation_benchmark(target, 100.0, {"m": perfect})
    assert table.dates == [MONDAY]


def test_generation_benchmark_scores_as_a_per_day_nrmse_loop():
    rng = np.random.default_rng(18)
    days = [MONDAY + timedelta(days=i) for i in range(60)]
    target = make_series({d: rng.uniform(0.0, 900.0, 96) for d in days})
    outputs = {m: {d: rng.uniform(0.0, 900.0, 96) for d in days if rng.random() > 0.2}
               for m in ("a", "b", "c")}

    def gen(m):
        def one(d):
            if d not in outputs[m]:
                raise AvailabilityError("no day")
            return GeneratedDay(d, m, outputs[m][d])
        return one

    mean_flow = 437.3
    table = generation_benchmark(target, mean_flow, {m: gen(m) for m in "cab"})
    want = np.full((len(days), 3), np.nan)
    for i, d in enumerate(days):
        for j, m in enumerate("abc"):
            if d in outputs[m]:
                want[i, j] = nrmse(slice_day(target, d), outputs[m][d], mean_flow)
    assert np.isnan(want).any()
    assert (np.isnan(table.nrmse) == np.isnan(want)).all()
    assert (table.nrmse[~np.isnan(want)] == want[~np.isnan(want)]).all()


def test_generation_benchmark_keeps_the_per_day_errors():
    days = [MONDAY + timedelta(days=i) for i in range(3)]
    target = make_series({d: 100.0 for d in days})

    def short(d):
        return GeneratedDay(d, "short", np.full(95, 100.0))

    def flat(d):
        return GeneratedDay(d, "flat", np.full(96, 100.0))

    with pytest.raises(ArgumentError, match=r"shape mismatch: \(96,\) vs \(95,\)"):
        generation_benchmark(target, 100.0, {"short": short})
    with pytest.raises(DomainError, match="mean flow must be positive"):
        generation_benchmark(target, 0.0, {"flat": flat})
    # the first date the target lacks names itself as slice_day names it
    gappy = make_series({days[0]: 100.0, days[2]: 100.0})
    wanted = days + [days[2] + timedelta(days=1)]
    with pytest.raises(AvailabilityError) as got:
        generation_benchmark(gappy, 100.0, {"flat": flat}, dates=wanted)
    with pytest.raises(AvailabilityError) as direct:
        slice_day(gappy, days[1])
    assert str(got.value) == str(direct.value)
    with pytest.raises(AvailabilityError, match="outside the recorded span"):
        generation_benchmark(gappy, 100.0, {"flat": flat}, dates=[days[0], wanted[-1]])


def test_error_table_all_nan_method_stats():
    t = GenerationErrorTable(
        "x", ["m"], [MONDAY],
        np.array([[np.nan]]),
    )
    mean, std = t.method_mean_std()["m"]
    assert math.isnan(mean) and math.isnan(std)
