"""Tests of the benchmark's own parts: inputs, output checks, spans.

Run with: python -m pytest perfbench
"""
from __future__ import annotations

import json
import os
import sys
import types

import pytest

import checks
import gen
import run
import spans

SMALL = gen.CitySpec(grid=8, sensors=5, days=20)
HASH = "ab" * 32


def _tree(root):
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def test_generator_same_seed_same_bytes(tmp_path):
    gen.generate(str(tmp_path / "a"), SMALL, seed=7)
    gen.generate(str(tmp_path / "b"), SMALL, seed=7)
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert {"city.osm", "sensors.csv", "holidays.csv", "inputs.json"} <= set(a)
    assert a == b


def test_generator_other_seed_other_bytes(tmp_path):
    gen.generate(str(tmp_path / "a"), SMALL, seed=7)
    gen.generate(str(tmp_path / "b"), SMALL, seed=8)
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert set(a) == set(b)
    for name in ("city.osm", "sensors.csv", os.path.join("traffic", "s001.csv")):
        assert a[name] != b[name], name


def test_generator_injects_faults_and_road_pattern(tmp_path):
    summary = gen.generate(str(tmp_path), gen.CitySpec(grid=21, sensors=3, days=31), seed=1)
    assert summary["osm_nodes"] == 21 * 21 + 2 * 21 * 20 * gen.GEOMETRY_NODES
    assert [gen.line_class(i) for i in (0, 1, 2, 5, 10, 20)] == [
        "motorway", "residential", "tertiary", "secondary", "primary", "motorway"
    ]
    full = 31 * gen.SLOTS
    with open(tmp_path / "traffic" / "s001.csv", encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    assert len(rows) < full  # gaps and the truncated day drop rows
    assert summary["traffic_rows"] < 3 * full


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _write_csv(path, header, rows, chash=HASH):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(str(v) for v in row) + "\n" for row in rows)


def _embed_out(d, ids):
    rows = [[sid, *([1.5] * 7), *([0.25] * 7)] for sid in ids]
    _write_csv(d / "embeddings.csv", checks.EMBED_HEADER, rows)


def _loo_out(d, ids):
    report = {
        "config_hash": HASH,
        "selection_tally": {"embedding": len(ids) - 1, "geographic": 1, "tie": 0},
        "targets": [{"target_id": sid} for sid in ids],
    }
    with open(d / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    _write_csv(d / "summary.csv", checks.SUMMARY_HEADER,
               [[sid, m, 0.1, 0.01, "primary", "copy"] for sid in ids for m in ("cluster", "copy")])
    _write_csv(d / "generation_errors.csv", checks.DAILY_ERRORS_HEADER,
               [[sid, "2019-01-07", "copy", 0.1] for sid in ids])
    _write_csv(d / "selection.csv", checks.SELECTION_HEADER,
               [[sid, r, o, 0.1, 90, m] for sid in ids for m in ("embedding", "geographic")
                for r, o in enumerate((o for o in ids if o != sid), start=1)])


def _profile_out(d, ids):
    for sid in ids:
        _write_csv(d / f"profile_{sid}.csv", checks.PROFILE_HEADER,
                   [[i, "00:00", 10, 1.5] for i in range(checks.SLOTS)])
        (d / f"profile_{sid}.svg").write_text("<svg>\n</svg>\n", encoding="utf-8")


CASES = [
    (checks.check_embed, _embed_out, "embeddings.csv"),
    (checks.check_loo, _loo_out, "summary.csv"),
    (checks.check_profile, _profile_out, "profile_s2.csv"),
]
IDS = ["s1", "s2", "s3"]


@pytest.mark.parametrize("check,make,_csv", CASES)
def test_checker_accepts_good_outputs(tmp_path, check, make, _csv):
    make(tmp_path, IDS)
    assert check(str(tmp_path), IDS, HASH) == []


@pytest.mark.parametrize("check,make,csv_name", CASES)
def test_checker_rejects_dropped_row(tmp_path, check, make, csv_name):
    make(tmp_path, IDS)
    path = tmp_path / csv_name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")
    assert check(str(tmp_path), IDS, HASH)


@pytest.mark.parametrize("check,make,csv_name", CASES)
def test_checker_rejects_wrong_hash(tmp_path, check, make, csv_name):
    make(tmp_path, IDS)
    assert check(str(tmp_path), IDS, "cd" * 32)


@pytest.mark.parametrize("check,make,csv_name", CASES)
def test_checker_rejects_missing_file(tmp_path, check, make, csv_name):
    make(tmp_path, IDS)
    os.remove(tmp_path / csv_name)
    assert check(str(tmp_path), IDS, HASH)


def test_checker_rejects_normalized_feature_out_of_range(tmp_path):
    _embed_out(tmp_path, IDS)
    path = tmp_path / "embeddings.csv"
    path.write_text(path.read_text(encoding="utf-8").replace("0.25\n", "1.25\n", 1),
                    encoding="utf-8")
    assert checks.check_embed(str(tmp_path), IDS, HASH)


@pytest.mark.parametrize("check,make,csv_name", CASES)
def test_digest_catches_flipped_byte(tmp_path, check, make, csv_name):
    make(tmp_path, IDS)
    before = checks.digest(str(tmp_path))
    path = tmp_path / csv_name
    data = bytearray(path.read_bytes())
    data[-3] ^= 0x01
    path.write_bytes(bytes(data))
    assert checks.digest(str(tmp_path)) != before


def test_loo_checker_rejects_bad_tally(tmp_path):
    _loo_out(tmp_path, IDS)
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    report["selection_tally"]["tie"] = 1
    (tmp_path / "report.json").write_text(json.dumps(report), encoding="utf-8")
    assert checks.check_loo(str(tmp_path), IDS, HASH)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def test_self_time_of_nested_spans():
    fake = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["a.x", 1.5, 2.5, 1, None],
        ["b", 5.0, 9.0, 0, None],
        ["b.y", 5.0, 6.0, 3, None],
        ["b.y", 6.0, 9.0, 3, None],
    ]
    assert spans.self_times(fake) == [3.0, 2.0, 1.0, 0.0, 1.0, 3.0]
    assert spans.self_ms_by_name(fake)["b.y"] == 4000.0


def test_self_time_counts_overlapping_children_once():
    fake = [["p", 0.0, 10.0, -1, None], ["c", 2.0, 6.0, 0, None], ["c", 4.0, 8.0, 0, None]]
    assert spans.self_times(fake)[0] == 4.0


def test_tracer_records_parent_and_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x * 2, counter=lambda a, k, r: {"out": r})
    outer = tracer.wrap("outer", lambda x: inner(x) + 1)
    assert outer(3) == 7
    assert tracer.spans == [["outer", 0.0, 3.0, -1, None], ["inner", 1.0, 2.0, 0, {"out": 6}]]


@pytest.fixture
def fake_module():
    mod = types.ModuleType("perfbench_fake_mod")
    mod.f = lambda: "f"
    mod.g = lambda: "g"
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_install_and_restore_originals(fake_module):
    f, g = fake_module.f, fake_module.g
    tracer = spans.Tracer()
    sites = [(fake_module.__name__, "f", "fake.f", None), (fake_module.__name__, "g", "fake.g", None)]
    saved = spans.install(tracer, sites)
    assert fake_module.f is not f and fake_module.f() == "f"
    spans.restore(saved)
    assert (fake_module.f, fake_module.g) == (f, g)
    assert [s[0] for s in tracer.spans] == ["fake.f"]


def test_install_fails_loudly_on_missing_site(fake_module):
    f = fake_module.f
    sites = [(fake_module.__name__, "f", "fake.f", None), (fake_module.__name__, "gone", "x", None)]
    with pytest.raises(LookupError, match="perfbench_fake_mod.gone"):
        spans.install(spans.Tracer(), sites)
    assert fake_module.f is f  # the sites already wrapped are put back


def test_every_site_exists_in_the_program():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.isdir(os.path.join(src, "roadtwin")):
        pytest.skip("roadtwin sources not present")
    sys.path.insert(0, src)
    try:
        spans.restore(spans.install(spans.Tracer()))
    finally:
        sys.path.remove(src)


def test_layer_metrics_idle_layers_read_zero():
    m = spans.layer_metrics([["cli.main", 0.0, 1.0, -1, None]])
    assert set(m) == set(run.PER_LAYER_NAMES) - {
        "error_rate", "import.roadtwin_cli.ms", "import.scipy_stats.ms", "reference.probe_s",
        "trace.overhead_frac",
    }
    assert m["road_graph.dijkstra_from.calls_per_position"] == 0.0
    assert m["self_ms.cli.main"] == 1000.0


# ---------------------------------------------------------------------------
# import times
# ---------------------------------------------------------------------------

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |       scipy
import time:       200 |        200 |         scipy.special
import time:       300 |        700 |       scipy.stats._stats_py
import time:        50 |         50 |       scipy.stats.mstats
import time:        10 |         10 |         roadtwin.traffic_data
import time:        20 |         30 |       roadtwin.generation
import time:      1000 |       2000 |     roadtwin.evaluation
import time:       500 |       3000 |   roadtwin
import time:       400 |       3500 | roadtwin.cli
"""


def test_parse_importtime():
    assert run.parse_importtime(IMPORTTIME) == (3.5, 0.75)


def test_parse_importtime_without_scipy():
    text = "\n".join(l for l in IMPORTTIME.splitlines() if "scipy" not in l)
    assert run.parse_importtime(text) == (3.5, 0.0)
