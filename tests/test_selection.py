import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from helpers import emb
from roadtwin.errors import ArgumentError
from roadtwin.geo import EARTH_RADIUS_M, haversine_m
from roadtwin.selection import (
    embedding_distance,
    select_by_embedding,
    select_by_geography,
    similarity_percent,
)

SQRT7 = math.sqrt(7.0)

unit_vec = st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                    min_size=7, max_size=7)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_identical_vectors_have_zero_distance():
    assert embedding_distance([0.3] * 7, [0.3] * 7) == 0.0


def test_max_distance_is_sqrt_of_dimensions():
    assert embedding_distance([0.0] * 7, [1.0] * 7) == pytest.approx(SQRT7, abs=1e-15)


def test_l2_known_value():
    u = [0, 0, 0, 0, 0, 0, 0]
    v = [0.3, 0.4, 0, 0, 0, 0, 0]
    assert embedding_distance(u, v) == pytest.approx(0.5, abs=1e-15)


def test_l1_metric():
    u = [0.0] * 7
    v = [0.5] * 7
    assert embedding_distance(u, v, metric="l1") == pytest.approx(3.5, abs=1e-15)


def test_dimension_mismatch_rejected():
    with pytest.raises(ArgumentError):
        embedding_distance([0.0] * 7, [0.0] * 6)


def test_unknown_metric_rejected():
    with pytest.raises(ArgumentError):
        embedding_distance([0.0] * 7, [0.0] * 7, metric="cosine")


@given(unit_vec, unit_vec)
def test_distance_symmetry(u, v):
    assert embedding_distance(u, v) == embedding_distance(v, u)


@given(unit_vec, unit_vec, unit_vec)
def test_distance_triangle_inequality(u, v, w):
    duv = embedding_distance(u, v)
    dvw = embedding_distance(v, w)
    duw = embedding_distance(u, w)
    assert duw <= duv + dvw + 1e-12


@given(unit_vec, unit_vec)
def test_distance_within_unit_cube_bound(u, v):
    assert 0.0 <= embedding_distance(u, v) <= SQRT7 + 1e-12


# ---------------------------------------------------------------------------
# similarity percent
# ---------------------------------------------------------------------------

def test_similarity_endpoints():
    assert similarity_percent(0.0) == 100.0
    assert similarity_percent(SQRT7) == 0.0


def test_similarity_midpoint():
    assert similarity_percent(SQRT7 / 2) == pytest.approx(50.0, abs=1e-12)


def test_similarity_clamps_tiny_overshoot():
    assert similarity_percent(SQRT7 + 1e-10) == 0.0


def test_similarity_rejects_out_of_range():
    with pytest.raises(ArgumentError):
        similarity_percent(SQRT7 + 1e-6)
    with pytest.raises(ArgumentError):
        similarity_percent(-0.1)


@given(st.floats(min_value=0.0, max_value=SQRT7))
def test_similarity_monotone_decreasing(d):
    s = similarity_percent(d)
    assert 0.0 <= s <= 100.0
    if d > 0.01:
        assert similarity_percent(d - 0.01) > s


# ---------------------------------------------------------------------------
# selection by embedding
# ---------------------------------------------------------------------------

def pool_of(vectors):
    return [emb(f"s{i}", v) for i, v in enumerate(vectors)]


def test_select_nearest_by_l2():
    target = emb("t", [0.5] * 7)
    pool = pool_of([[0.5] * 7, [0.0] * 7, [1.0] * 7])
    res = select_by_embedding(target, pool)
    assert res.selected_id == "s0"
    assert res.distance == 0.0
    assert res.similarity_pct == 100.0
    assert res.method == "embedding"
    assert [sid for sid, _ in res.ranking] == ["s0", "s1", "s2"]


def test_select_breaks_ties_by_sensor_id():
    target = emb("t", [0.5] * 7)
    a = emb("zebra", [0.4] * 7)
    b = emb("apple", [0.6] * 7)  # same distance, smaller id
    res = select_by_embedding(target, [a, b])
    assert res.selected_id == "apple"


def test_target_in_its_own_pool_is_a_caller_bug():
    # leave-one-out is the caller's job; a leaked target means the pool
    # was built wrong, and silently skipping would mask that
    target = emb("t", [0.5] * 7)
    decoy = emb("t", [0.5] * 7)
    other = emb("u", [0.6] * 7)
    with pytest.raises(ArgumentError, match="own candidate pool"):
        select_by_embedding(target, [decoy, other])


def test_select_requires_normalalized_vectors():
    target = emb("t", [0.5] * 7)
    bare = emb("u", [0.5] * 7)
    bare = type(bare)(**{**bare.__dict__, "normalized": None})
    with pytest.raises(ArgumentError):
        select_by_embedding(target, [bare])


def test_select_empty_pool_rejected():
    target = emb("t", [0.5] * 7)
    with pytest.raises(ArgumentError):
        select_by_embedding(target, [])
    with pytest.raises(ArgumentError):
        select_by_embedding(target, [emb("t", [0.5] * 7)])  # only itself


def bare(sensor_id):
    return replace(emb(sensor_id, [0.5] * 7), normalized=None)


@pytest.mark.parametrize("target, pool, message", [
    (bare("t"), [], "candidate pool is empty"),
    (bare("t"), [bare("t")], "embedding 't' is not normalized"),
    (emb("t", [0.5] * 7), [bare("u"), emb("t", [0.5] * 7)],
     "target 't' present in its own candidate pool"),
    (emb("t", [0.5] * 7), [emb("s", [0.5] * 7), bare("u")], "embedding 'u' is not normalized"),
], ids=["empty-pool", "target-not-normalized", "target-in-pool", "candidate-not-normalized"])
def test_select_checks_its_input_in_a_fixed_order(target, pool, message):
    # each case also breaks what later rules it can, so only the order picks the message
    with pytest.raises(ArgumentError) as exc:
        select_by_embedding(target, pool)
    assert str(exc.value).startswith(message)


def test_select_l1_has_no_similarity_percent():
    target = emb("t", [0.5] * 7)
    res = select_by_embedding(target, pool_of([[0.4] * 7, [0.1] * 7]), metric="l1")
    assert res.selected_id == "s0"
    assert res.similarity_pct is None


def test_selection_invariant_under_pool_permutation():
    rng = random.Random(5)
    vectors = [[rng.random() for _ in range(7)] for _ in range(8)]
    target = emb("t", [0.5] * 7)
    pool = pool_of(vectors)
    base = select_by_embedding(target, pool)
    for _ in range(5):
        shuffled = pool[:]
        rng.shuffle(shuffled)
        res = select_by_embedding(target, shuffled)
        assert res.selected_id == base.selected_id
        assert res.ranking == base.ranking


# ---------------------------------------------------------------------------
# geographic baseline
# ---------------------------------------------------------------------------

def test_haversine_quarter_meridian():
    # pole to equator along a meridian is a quarter of a great circle
    d = haversine_m(0.0, 0.0, 90.0, 0.0)
    assert d == pytest.approx(math.pi * EARTH_RADIUS_M / 2, rel=1e-12)


def test_haversine_antipodal():
    d = haversine_m(0.0, 0.0, 0.0, 180.0)
    assert d == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-12)


def test_haversine_symmetric_and_zero_on_self():
    assert haversine_m(40.4, -3.7, 40.4, -3.7) == 0.0
    assert haversine_m(40.4, -3.7, 41.0, -3.0) == haversine_m(41.0, -3.0, 40.4, -3.7)


def test_select_by_geography_nearest():
    res = select_by_geography(
        "t", (40.0, -3.0),
        [("far", (41.0, -3.0)), ("near", (40.01, -3.0)), ("mid", (40.1, -3.0))],
    )
    assert res.selected_id == "near"
    assert res.method == "geographic"
    assert res.similarity_pct is None
    assert [sid for sid, _ in res.ranking] == ["near", "mid", "far"]
    assert res.distance == pytest.approx(haversine_m(40.0, -3.0, 40.01, -3.0))


def test_select_by_geography_tie_breaks_by_id():
    res = select_by_geography(
        "t", (40.0, -3.0),
        [("north", (40.01, -3.0)), ("south", (39.99, -3.0))],
    )
    assert res.selected_id == "north"


def test_select_by_geography_rejects_target_in_pool():
    with pytest.raises(ArgumentError, match="own candidate pool"):
        select_by_geography("t", (40.0, -3.0), [("t", (40.0, -3.0)), ("u", (40.5, -3.0))])


def test_select_by_geography_empty_pool():
    with pytest.raises(ArgumentError):
        select_by_geography("t", (40.0, -3.0), [])
