"""Acceptance criteria for the whole system.

Each test checks one externally meaningful guarantee at a stated
tolerance and prints a single ``ACCEPTANCE n: PASS/FAIL`` line that
survives pytest's output capture.  Criteria with a runtime budget
measure it around the computation alone.
"""
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from datetime import date, timedelta

import numpy as np
import pytest

from conftest import FIXTURE_DIR
from helpers import MONDAY, adjacency, emb, index_graph, make_graph, make_series
from oracles import chi2_sf_series, enumerate_spbc, floyd_warshall

from roadtwin.embedding import betweenness
from roadtwin.evaluation import (
    VERDICT_FIRST,
    VERDICT_SECOND,
    VERDICT_TIE,
    friedman_test,
    nemenyi_posthoc,
    rmse,
)
from roadtwin.generation import fit_cluster_model, generate_cluster, generate_copy
from roadtwin.road_graph import dijkstra_from
from roadtwin.selection import embedding_distance, similarity_percent
from roadtwin.traffic_data import (
    QUALITY_OBSERVED,
    TrafficSeries,
    daily_profile,
    slice_day,
)


def _line(capsys, text):
    with capsys.disabled():
        print(text, flush=True)


@contextmanager
def criterion(capsys, n, desc):
    try:
        yield
    except pytest.skip.Exception:
        _line(capsys, f"ACCEPTANCE {n}: SKIP — {desc}")
        raise
    except BaseException:
        _line(capsys, f"ACCEPTANCE {n}: FAIL — {desc}")
        raise
    _line(capsys, f"ACCEPTANCE {n}: PASS — {desc}")


# ---------------------------------------------------------------------------
# 1. centrality against exhaustive path enumeration
# ---------------------------------------------------------------------------

def _random_digraph(rng):
    n = rng.randint(2, 6)
    names = list("abcdef"[:n])
    triples = []
    for u in names:
        for v in names:
            if u != v and rng.random() < 0.45:
                triples.append((u, v, rng.randint(1, 9)))
    if not triples:
        triples.append((names[0], names[1], rng.randint(1, 9)))
    # occasionally duplicate an edge so parallel-edge path counting is hit
    for t in list(triples):
        if rng.random() < 0.15:
            triples.append(t)
    return make_graph(triples)


def test_acceptance_01_centrality_vs_enumeration(capsys):
    desc = "betweenness equals exhaustive path enumeration on 100 random digraphs (<=1e-9, <10s)"
    with criterion(capsys, 1, desc):
        rng = random.Random(0xA1)
        graphs = [_random_digraph(rng) for _ in range(100)]
        worst = 0.0
        t0 = time.perf_counter()
        for g in graphs:
            got = betweenness(index_graph(g, g.nodes))
            want = enumerate_spbc(g)
            assert set(got) == set(want)
            worst = max(worst, max(abs(got[k] - want[k]) for k in got))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-9, f"worst deviation {worst}"
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. shortest travel times against an all-pairs oracle
# ---------------------------------------------------------------------------

def _random_big_graph(rng):
    n = rng.randint(5, 50)
    names = [f"v{i}" for i in range(n)]
    triples = []
    for _ in range(int(2.5 * n)):
        u, v = rng.sample(names, 2)
        triples.append((u, v, rng.randint(1, 99)))
    # make sure every node appears so the node set is exactly `names`
    for i in range(n):
        triples.append((names[i], names[(i + 1) % n], rng.randint(1, 99)))
    return make_graph(triples)


def test_acceptance_02_shortest_paths_vs_floyd_warshall(capsys):
    desc = "single-source travel times match Floyd-Warshall on 50 graphs up to 50 nodes (<1e-9, <5s)"
    with criterion(capsys, 2, desc):
        rng = random.Random(0xB2)
        graphs = [_random_big_graph(rng) for _ in range(50)]
        worst = 0.0
        t0 = time.perf_counter()
        for g in graphs:
            fw = floyd_warshall(g)
            ids, out = adjacency(g)
            for i, src in enumerate(ids):
                dist = {ids[v]: d for v, d in dijkstra_from(out, i).items()}
                assert not any(map(math.isinf, dist.values())), src
                for dst in g.nodes:
                    a = dist.get(dst, math.inf)
                    b = fw[(src, dst)]
                    if math.isinf(a) or math.isinf(b):
                        assert math.isinf(a) and math.isinf(b), (src, dst)
                    else:
                        worst = max(worst, abs(a - b))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-9, f"worst deviation {worst}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 3. embedding distance range and similarity endpoints
# ---------------------------------------------------------------------------

def test_acceptance_03_distance_bounds_and_similarity(capsys):
    desc = "max normalized L2 distance is sqrt(7) (1e-12); similarity endpoints are 100 and 0"
    with criterion(capsys, 3, desc):
        zeros = emb("zero", [0.0] * 7)
        ones = emb("one", [1.0] * 7)
        d = embedding_distance(zeros.normalized, ones.normalized)
        assert abs(d - math.sqrt(7.0)) <= 1e-12
        assert similarity_percent(0.0) == 100.0
        assert similarity_percent(math.sqrt(7.0)) == 0.0
        assert abs(similarity_percent(d)) <= 1e-9


# ---------------------------------------------------------------------------
# 4. same-date copy generation is a perfect self-oracle
# ---------------------------------------------------------------------------

def _two_year_series():
    start = date(2018, 1, 1)
    n_days = (date(2019, 12, 31) - start).days + 1
    rng = np.random.default_rng(20180101)
    flows = np.round(rng.uniform(0.0, 500.0, size=(n_days, 96)))
    quality = np.full((n_days, 96), QUALITY_OBSERVED, dtype=np.int8)
    return TrafficSeries("x", 15, start, flows, quality), n_days


def test_acceptance_04_copy_self_oracle_two_years(capsys):
    desc = "same-date copy reproduces all 730 recorded days with RMSE exactly 0.0 (<2s)"
    with criterion(capsys, 4, desc):
        series, n_days = _two_year_series()
        assert n_days == 730
        t0 = time.perf_counter()
        for i in range(n_days):
            d = series.start_date + timedelta(days=i)
            gen = generate_copy(series, d)
            assert rmse(slice_day(series, d), gen.values) == 0.0
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 5. day-class medians reproduce perfectly periodic traffic
# ---------------------------------------------------------------------------

def test_acceptance_05_cluster_exact_on_periodic_data(capsys):
    desc = "day-class medians reproduce weekly-periodic traffic with RMSE exactly 0.0"
    with criterion(capsys, 5, desc):
        pattern = {wd: np.linspace(10.0 * (wd + 1), 10.0 * (wd + 1) + 50.0, 96) for wd in range(7)}
        days = {
            MONDAY + timedelta(days=i): pattern[(MONDAY + timedelta(days=i)).weekday()]
            for i in range(28)
        }
        series = make_series(days)
        model = fit_cluster_model(series)
        for i in range(7):
            d = MONDAY + timedelta(days=35 + i)  # a week the series never saw
            gen = generate_cluster(model, d)
            assert gen.fallback == "none"
            assert rmse(pattern[d.weekday()], gen.values) == 0.0


# ---------------------------------------------------------------------------
# 6. profile invariances
# ---------------------------------------------------------------------------

def test_acceptance_06_profile_invariances(capsys):
    desc = "weekday profile: medians exactly day-order invariant (stdev to 1e-12), bit-identical under weekend edits"
    with criterion(capsys, 6, desc):
        rng = np.random.default_rng(7)
        dates = [MONDAY + timedelta(days=i) for i in range(28)]
        values = {d: rng.uniform(0, 300, 96) for d in dates}
        base = daily_profile(make_series(values), "weekdays")

        # permute the day arrays among the weekday dates: the median is a
        # sorted-multiset statistic so it must not move at all; the stdev
        # sums squared deviations in day order, so permutation may shift
        # its last ulp
        weekdays = [d for d in dates if d.weekday() < 5]
        shuffled_ids = list(weekdays)
        random.Random(3).shuffle(shuffled_ids)
        permuted = dict(values)
        for d_to, d_from in zip(weekdays, shuffled_ids):
            permuted[d_to] = values[d_from]
        perm = daily_profile(make_series(permuted), "weekdays")
        assert np.array_equal(base.values, perm.values)
        assert np.allclose(base.stdev, perm.stdev, rtol=1e-12, atol=0.0)

        # rewrite every weekend day; the weekday profile must not move a bit
        mutated = dict(values)
        for d in dates:
            if d.weekday() >= 5:
                mutated[d] = values[d] * 3.0 + 17.0
        mut = daily_profile(make_series(mutated), "weekdays")
        assert base.values.tobytes() == mut.values.tobytes()
        assert base.stdev.tobytes() == mut.stdev.tobytes()


# ---------------------------------------------------------------------------
# 7. rank test statistic and p-value
# ---------------------------------------------------------------------------

def test_acceptance_07_friedman_statistic_and_p(capsys):
    desc = "rank test: identical columns -> (0, 1); strict order N=4,k=3 -> 8.0; p matches gamma-series oracle (1e-8)"
    with criterion(capsys, 7, desc):
        stat, p = friedman_test([[1.0, 1.0, 1.0]] * 5)
        assert stat == 0.0 and p == 1.0

        stat, p = friedman_test([[1.0, 2.0, 3.0]] * 4)
        assert stat == 8.0
        assert abs(p - chi2_sf_series(8.0, 2)) <= 1e-8

        rng = random.Random(0xC3)
        for _ in range(20):
            n, k = rng.randint(3, 12), rng.randint(2, 4)
            m = [[float(rng.randint(0, 50)) for _ in range(k)] for _ in range(n)]
            stat, p = friedman_test(m)
            assert abs(p - chi2_sf_series(stat, k - 1)) <= 1e-8


# ---------------------------------------------------------------------------
# 8. post-hoc critical difference and verdict antisymmetry
# ---------------------------------------------------------------------------

def test_acceptance_08_nemenyi_cd_and_antisymmetry(capsys):
    desc = "critical difference for k=3, N=730 is 0.12264 (1e-5); verdicts antisymmetric on 50 random matrices"
    with criterion(capsys, 8, desc):
        rng = np.random.default_rng(11)
        m = np.sort(rng.uniform(0, 1, size=(730, 3)), axis=1)  # column 0 always best
        res = nemenyi_posthoc(m)
        assert res.significant
        assert abs(res.critical_difference - 0.12264) <= 1e-5
        assert res.verdicts[(0, 1)] == VERDICT_FIRST
        assert res.verdicts[(0, 2)] == VERDICT_FIRST

        pyrng = random.Random(0xD4)
        flips = {VERDICT_FIRST: VERDICT_SECOND, VERDICT_SECOND: VERDICT_FIRST, VERDICT_TIE: VERDICT_TIE}
        for _ in range(50):
            mat = np.array(
                [[float(pyrng.randint(0, 9)) for _ in range(2)] for _ in range(20)]
            )
            fwd = nemenyi_posthoc(mat)
            rev = nemenyi_posthoc(mat[:, ::-1])
            assert rev.verdicts[(0, 1)] == flips[fwd.verdicts[(0, 1)]]


# ---------------------------------------------------------------------------
# 9. benchmark outputs are byte-identical across runs
# ---------------------------------------------------------------------------

BENCH_FILES = ["generation_errors.csv", "report.json", "selection.csv", "summary.csv"]


def _run_benchmark_cli(out_dir):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "roadtwin.cli",
            "benchmark",
            "--config",
            os.path.join(FIXTURE_DIR, "config.json"),
            "--output_dir",
            str(out_dir),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return {name: (out_dir / name).read_bytes() for name in BENCH_FILES}


def test_acceptance_09_benchmark_determinism(capsys, tmp_path):
    desc = "benchmark outputs byte-identical across 3 reruns"
    with criterion(capsys, 9, desc):
        runs = [_run_benchmark_cli(tmp_path / f"r{i}") for i in (1, 2, 3)]
        ref = runs[0]
        for other in runs[1:]:
            for name in BENCH_FILES:
                assert other[name] == ref[name], f"{name} differs between runs"
        report = json.loads(ref["report.json"].decode("utf-8"))
        assert len(report["targets"]) == 8


# ---------------------------------------------------------------------------
# 10. optional check against an externally supplied city dataset
# ---------------------------------------------------------------------------

def test_acceptance_10_external_dataset(capsys):
    desc = "external city dataset benchmark (set ROADTWIN_EXTERNAL_DIR to enable)"
    with criterion(capsys, 10, desc):
        ext = os.environ.get("ROADTWIN_EXTERNAL_DIR")
        if not ext:
            pytest.skip("no external dataset configured")
        config = os.path.join(ext, "config.json")
        assert os.path.exists(config), f"{config} not found"
        from roadtwin.config import load_config
        from roadtwin.pipeline import run_benchmark

        result = run_benchmark(load_config(config, {}))
        tally = result["report"]["selection_tally"]
        assert tally["embedding"] >= tally["geographic"], tally
