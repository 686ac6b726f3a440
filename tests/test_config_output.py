import json
import math
import os

import pytest

from roadtwin.config import DECISIONS, PipelineConfig, load_config
from roadtwin.errors import ArgumentError, InputError
from roadtwin.output import (
    OutputStage,
    check_config_hash,
    fmt,
    read_csv,
    round6,
    write_csv,
    write_json,
)
from roadtwin.svgplot import profile_svg

import numpy as np


# ---------------------------------------------------------------------------
# config dataclass
# ---------------------------------------------------------------------------

def test_defaults_pass_validation():
    cfg = PipelineConfig().validate()
    assert cfg.radius_m == 2000.0
    assert cfg.ego_hops == 5
    assert cfg.snap_threshold_m == 100.0
    assert cfg.interval_min == 15
    assert cfg.spike_factor == 5.0
    assert cfg.max_gap == 4
    assert cfg.distance == "l2"
    assert cfg.alpha == 0.05


@pytest.mark.parametrize("field,value", [
    ("radius_m", -1.0),
    ("radius_m", 0.0),
    ("ego_hops", 0),
    ("snap_threshold_m", 0.0),
    ("interval_min", 7),   # does not divide 1440
    ("interval_min", 0),
    ("spike_factor", 0.0),
    ("max_gap", -1),
    ("distance", "cosine"),
    ("alpha", 0.0),
    ("alpha", 1.0),
    ("radius_m", math.nan),
    ("radius_m", math.inf),
    ("snap_threshold_m", math.nan),
    ("snap_threshold_m", math.inf),
    ("spike_factor", math.nan),
    ("spike_factor", math.inf),
    ("default_speeds", {"primary": "fast"}),
    ("default_speeds", {"primary": None}),
    ("default_speeds", {"primary": True}),
    ("default_speeds", {"primary": math.nan}),
    ("default_speeds", {"primary": math.inf}),
    ("default_speeds", {"primary": 0}),
    ("default_speeds", {"primery": 30}),
    ("default_speeds", {"living_street": 20}),
])
def test_validation_rejects_bad_values(field, value):
    cfg = PipelineConfig(**{field: value})
    with pytest.raises(ArgumentError):
        cfg.validate()


def test_validation_accepts_a_speed_for_every_road_class():
    from roadtwin.road_graph import HighwayClass

    speeds = {c.value: 10 + k + 0.5 * (k % 2) for k, c in enumerate(HighwayClass)}
    assert PipelineConfig(default_speeds=speeds).validate().default_speeds == speeds


def test_decisions_travel_in_snapshot_reports():
    # the decision record is a plain dict ready for report embedding
    assert DECISIONS["ego_hop_reachability"] == "undirected"
    assert DECISIONS["median_even_count"] == "mean_of_central_pair"
    assert len(DECISIONS) == 10


# ---------------------------------------------------------------------------
# config hashing
# ---------------------------------------------------------------------------

def test_hash_is_stable_and_64_hex():
    h1 = PipelineConfig().config_hash()
    h2 = PipelineConfig().config_hash()
    assert h1 == h2
    assert len(h1) == 64
    int(h1, 16)


def test_hash_ignores_output_dir():
    a = PipelineConfig(output_dir="x").config_hash()
    b = PipelineConfig(output_dir="y").config_hash()
    assert a == b
    assert "output_dir" not in PipelineConfig().snapshot()


def test_hash_tracks_analysis_parameters():
    base = PipelineConfig().config_hash()
    assert PipelineConfig(radius_m=1500.0).config_hash() != base
    assert PipelineConfig(ego_hops=4).config_hash() != base
    assert PipelineConfig(distance="l1").config_hash() != base


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_load_config_defaults_without_file():
    cfg = load_config(None)
    assert cfg == PipelineConfig()


def test_load_config_reads_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"radius_m": 900.0, "ego_hops": 3}))
    cfg = load_config(str(p))
    assert cfg.radius_m == 900.0
    assert cfg.ego_hops == 3


def test_load_config_resolves_paths_against_config_dir(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    (sub / "roads.osm").write_text("<osm/>")
    p = sub / "cfg.json"
    p.write_text(json.dumps({"osm_path": "roads.osm"}))
    cfg = load_config(str(p))
    assert cfg.osm_path == str(sub / "roads.osm")


def test_load_config_keeps_a_relative_config_relative(tmp_path, monkeypatch):
    sub = tmp_path / "nested"
    sub.mkdir()
    (sub / "cfg.json").write_text(json.dumps({"osm_path": "maps/../roads.osm"}))
    monkeypatch.chdir(tmp_path)
    assert load_config(os.path.join("nested", "cfg.json")).osm_path == os.path.join(
        "nested", "roads.osm"
    )
    monkeypatch.chdir(sub)
    assert load_config("cfg.json").osm_path == "roads.osm"


def test_load_config_leaves_absolute_paths(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"osm_path": "/data/roads.osm"}))
    assert load_config(str(p)).osm_path == "/data/roads.osm"


def test_load_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"radiu_m": 900.0}))
    with pytest.raises(ArgumentError, match="radiu_m"):
        load_config(str(p))


def test_load_config_overrides_win(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"radius_m": 900.0}))
    cfg = load_config(str(p), overrides={"radius_m": "1200"})
    assert cfg.radius_m == 1200.0


def test_override_type_coercion():
    cfg = load_config(None, overrides={"ego_hops": "4", "spike_factor": "6.5"})
    assert cfg.ego_hops == 4 and isinstance(cfg.ego_hops, int)
    assert cfg.spike_factor == 6.5


def test_override_rejects_fractional_int(tmp_path):
    # 1e400 reads as inf, which no int holds; so does 1e400 in a JSON file
    for value in ("4.5", "nan", "inf", "-inf", "1e400"):
        with pytest.raises(ArgumentError, match="'ego_hops'"):
            load_config(None, overrides={"ego_hops": value})
    p = tmp_path / "cfg.json"
    p.write_text('{"max_gap": 1e400}')
    with pytest.raises(ArgumentError, match="'max_gap': cannot convert float infinity"):
        load_config(str(p))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_config(str(tmp_path / "nope.json"))


def test_load_config_invalid_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not json")
    with pytest.raises(InputError):
        load_config(str(p))


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def test_fmt_six_significant_digits():
    assert fmt(0.123456789) == "0.123457"
    assert fmt(1234567.0) == "1.23457e+06"
    assert fmt(1.0) == "1"
    assert fmt(100.0) == "100"


def test_fmt_non_floats_pass_through():
    assert fmt("abc") == "abc"
    assert fmt(7) == "7"
    assert fmt(None) == ""
    assert fmt(float("nan")) == ""


def test_round6():
    assert round6(0.123456789) == 0.123457
    assert round6(float("nan")) is None
    assert round6(None) is None
    assert round6(True) is True
    assert round6(math.inf) == math.inf


def test_csv_round_trip(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, ["a", "b"], [[1.5, "x"], [float("nan"), "y"]], config_hash="beef")
    h, header, rows, first_line = read_csv(path)
    assert h == "beef"
    assert header == ["a", "b"]
    assert rows == [["1.5", "x"], ["", "y"]]
    assert first_line == 3


def test_csv_without_hash(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, ["a"], [[1]])
    h, header, rows, first_line = read_csv(path)
    assert h is None
    assert rows == [["1"]]
    assert first_line == 2


def test_read_csv_missing_file(tmp_path):
    with pytest.raises(InputError):
        read_csv(str(tmp_path / "gone.csv"))


def test_check_config_hash():
    check_config_hash("abc", "abc", "x.csv")
    with pytest.raises(InputError, match="x.csv"):
        check_config_hash("abc", "def", "x.csv")
    with pytest.raises(InputError):
        check_config_hash(None, "def", "x.csv")


def test_write_json_hash_first_key(tmp_path):
    path = str(tmp_path / "t.json")
    write_json(path, {"z": 1, "a": 2}, config_hash="beef")
    with open(path) as fh:
        doc = json.load(fh)
    assert list(doc) == ["config_hash", "z", "a"]


def test_write_json_rejects_nan(tmp_path):
    path = str(tmp_path / "t.json")
    with pytest.raises(ValueError):
        write_json(path, {"x": float("nan")})


# ---------------------------------------------------------------------------
# staged output directory
# ---------------------------------------------------------------------------

def test_stage_commits_all_files(tmp_path):
    out = tmp_path / "out"
    with OutputStage(str(out)) as stage:
        with open(stage.path("a.txt"), "w") as fh:
            fh.write("A")
        with open(stage.path("b.txt"), "w") as fh:
            fh.write("B")
    assert (out / "a.txt").read_text() == "A"
    assert (out / "b.txt").read_text() == "B"
    assert not [p for p in out.iterdir() if p.name.startswith(".stage-")]


def test_stage_rolls_back_on_error(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(RuntimeError):
        with OutputStage(str(out)) as stage:
            with open(stage.path("a.txt"), "w") as fh:
                fh.write("A")
            raise RuntimeError("boom")
    assert not (out / "a.txt").exists()
    assert not [p for p in out.iterdir() if p.name.startswith(".stage-")]


def test_stage_overwrites_previous_outputs(tmp_path):
    out = tmp_path / "out"
    for content in ("first", "second"):
        with OutputStage(str(out)) as stage:
            with open(stage.path("a.txt"), "w") as fh:
                fh.write(content)
    assert (out / "a.txt").read_text() == "second"


# ---------------------------------------------------------------------------
# svg rendering
# ---------------------------------------------------------------------------

def test_profile_svg_structure():
    values = np.linspace(10, 500, 96)
    stdev = np.full(96, 25.0)
    svg = profile_svg(values, stdev, 15, "sensor s1 weekdays")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "polyline" in svg
    assert "polygon" in svg
    assert "sensor s1 weekdays" in svg
    assert "nan" not in svg.lower()


def test_profile_svg_flat_line():
    values = np.zeros(96)
    svg = profile_svg(values, np.zeros(96), 15, "flat")
    assert "nan" not in svg.lower()
    assert "polyline" in svg


def test_profile_svg_deterministic():
    values = np.linspace(10, 500, 96)
    stdev = np.full(96, 25.0)
    assert profile_svg(values, stdev, 15, "t") == profile_svg(values, stdev, 15, "t")
