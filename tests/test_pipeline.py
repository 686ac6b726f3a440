import os
import re
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest

from roadtwin.config import PipelineConfig
from roadtwin.embedding import normalize_pool, road_type_code
from roadtwin.errors import ArgumentError, FormatError, InputError
from roadtwin.osm_ingest import HighwayClass
from roadtwin.pipeline import (
    TARGET_ID,
    SensorSpec,
    embed_position,
    embed_sensors,
    embed_target,
    load_sensors,
    load_traffic_dir,
    run_benchmark,
)


def fixture_cfg(minicity_dir, **kw):
    return PipelineConfig(
        osm_path=os.path.join(minicity_dir, "minicity.osm"),
        sensors_path=os.path.join(minicity_dir, "sensors.csv"),
        traffic_dir=os.path.join(minicity_dir, "traffic"),
        holidays_path=os.path.join(minicity_dir, "holidays.csv"),
        **kw,
    ).validate()


# ---------------------------------------------------------------------------
# sensors file
# ---------------------------------------------------------------------------

def test_load_fixture_sensors(minicity_dir):
    sensors = load_sensors(os.path.join(minicity_dir, "sensors.csv"))
    assert [s.sensor_id for s in sensors] == [f"s{i}" for i in range(1, 9)]
    by_id = {s.sensor_id: s for s in sensors}
    assert by_id["s4"].road_type_override is HighwayClass.SECONDARY
    assert by_id["s7"].lanes_override == 2
    assert by_id["s1"].road_type_override is None


def test_load_sensors_three_column_variant(tmp_path):
    p = tmp_path / "sensors.csv"
    p.write_text("sensor_id,lat,lon\n# a comment\nx1,40.0,-3.0\n")
    sensors = load_sensors(str(p))
    assert len(sensors) == 1
    assert sensors[0].lanes_override is None


def test_load_sensors_rejects_duplicates(tmp_path):
    p = tmp_path / "sensors.csv"
    p.write_text("sensor_id,lat,lon\nx1,40.0,-3.0\nx1,40.1,-3.0\n")
    with pytest.raises(FormatError, match="duplicate"):
        load_sensors(str(p))


def test_load_sensors_rejects_bad_override(tmp_path):
    p = tmp_path / "sensors.csv"
    p.write_text(
        "sensor_id,lat,lon,road_type_override,lanes_override\nx1,40.0,-3.0,boulevard,\n"
    )
    with pytest.raises(FormatError, match="road class"):
        load_sensors(str(p))


def test_load_sensors_rejects_bad_header(tmp_path):
    p = tmp_path / "sensors.csv"
    p.write_text("id,lat,lon\nx1,40.0,-3.0\n")
    with pytest.raises(FormatError, match="header"):
        load_sensors(str(p))


def test_load_sensors_rejects_a_file_without_sensor_rows(tmp_path):
    p = tmp_path / "sensors.csv"
    p.write_text("sensor_id,lat,lon,road_type_override,lanes_override\n# no sensor yet\n")
    with pytest.raises(FormatError, match="holds no sensor row"):
        load_sensors(str(p))


@pytest.mark.parametrize("lat, lon, bad", [
    ("inf", "-3.0", "latitude inf"),
    ("-inf", "-3.0", "latitude -inf"),
    ("nan", "-3.0", "latitude nan"),
    ("40.0", "nan", "longitude nan"),
    ("95", "-3.0", "latitude 95.0"),
    ("-90.5", "-3.0", "latitude -90.5"),
    ("40.0", "180.25", "longitude 180.25"),
    ("40.0", "-inf", "longitude -inf"),
])
def test_load_sensors_rejects_bad_coordinates(tmp_path, lat, lon, bad):
    p = tmp_path / "sensors.csv"
    p.write_text(f"sensor_id,lat,lon\nx1,40.0,-3.0\nx2,{lat},{lon}\n")
    with pytest.raises(FormatError, match=f"sensors CSV row 3: {bad} is not a finite number"):
        load_sensors(str(p))


@pytest.mark.parametrize("lat", ["4_0.4512", "\u0664\u0660.\u0664\u0665\u0661\u0662"],
                         ids=["underscore", "arabic-indic-digits"])
def test_load_sensors_rejects_a_coordinate_that_is_no_decimal_number(tmp_path, lat):
    # float() reads both as 40.4512
    p = tmp_path / "sensors.csv"
    p.write_text(f"sensor_id,lat,lon\nx1,40.0,-3.0\nx2,{lat},-3.0\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        load_sensors(str(p))
    assert str(exc.value) == f"sensors CSV row 3: could not convert string to float: {lat!r}"


def test_load_sensors_names_the_file_line_of_a_bad_row(tmp_path):
    # a comment and a blank line before the bad row still count as lines
    p = tmp_path / "sensors.csv"
    p.write_text("sensor_id,lat,lon\n# note\n\nx1,40.0,-3.0\nx2,abc,-3.0\n")
    with pytest.raises(FormatError) as exc:
        load_sensors(str(p))
    assert str(exc.value) == "sensors CSV row 5: could not convert string to float: 'abc'"


def test_load_sensors_accepts_the_coordinate_limits(tmp_path):
    p = tmp_path / "sensors.csv"
    p.write_text("sensor_id,lat,lon\nn,90,180\ns,-90,-180\n")
    assert [(s.lat, s.lon) for s in load_sensors(str(p))] == [(90.0, 180.0), (-90.0, -180.0)]


def test_load_sensors_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_sensors(str(tmp_path / "nope.csv"))


# ---------------------------------------------------------------------------
# embedding the fixture sensors
# ---------------------------------------------------------------------------

def test_normalize_pool_round_trip(minicity_raw, minicity_dir):
    cfg = fixture_cfg(minicity_dir)
    sensors = load_sensors(cfg.sensors_path)
    positions = normalize_pool(embed_sensors(minicity_raw, sensors, cfg))
    for p in positions:
        assert p.normalized is not None
        assert all(0.0 <= v <= 1.0 for v in p.normalized)


def test_embed_target_joins_the_sensor_pool(minicity_raw, minicity_dir):
    cfg = fixture_cfg(minicity_dir)
    sensors = load_sensors(cfg.sensors_path)
    s1 = sensors[0]
    target, positions = embed_target(minicity_raw, sensors, cfg, s1.lat, s1.lon)
    assert target.sensor_id == TARGET_ID
    assert [p.sensor_id for p in positions] == [s.sensor_id for s in sensors]
    # s1 carries no override, so a target on its position is its twin
    assert target.normalized == positions[0].normalized


def test_embed_target_rejects_a_sensor_named_like_the_target(minicity_raw, minicity_dir):
    cfg = fixture_cfg(minicity_dir)
    sensors = load_sensors(cfg.sensors_path)
    sensors[1] = SensorSpec(TARGET_ID, sensors[1].lat, sensors[1].lon)
    with pytest.raises(ArgumentError, match="clashes with the target placeholder"):
        embed_target(minicity_raw, sensors, cfg, sensors[0].lat, sensors[0].lon)


def test_load_traffic_dir_cleans_everything(minicity_dir):
    cfg = fixture_cfg(minicity_dir)
    series, stats = load_traffic_dir(cfg)
    assert sorted(series) == [f"s{i}" for i in range(1, 9)]
    assert stats["s3"].spikes_removed == 1
    assert stats["s6"].incomplete_days == 1
    assert stats["s2"].slots_missing == 56


def test_load_traffic_dir_rejects_cross_file_duplicates(tmp_path, minicity_dir):
    import shutil
    tdir = tmp_path / "traffic"
    tdir.mkdir()
    src = os.path.join(minicity_dir, "traffic", "s1.csv")
    shutil.copy(src, tdir / "s1.csv")
    shutil.copy(src, tdir / "s1_copy.csv")
    cfg = PipelineConfig(traffic_dir=str(tdir))
    with pytest.raises(FormatError, match="s1"):
        load_traffic_dir(cfg)


def test_load_traffic_dir_holds_one_file_uncleaned_at_a_time(tmp_path):
    # cleaning every series only after the last file was read held all the
    # raw arrays beside the cleaned ones: about twice the result's bytes
    tdir = tmp_path / "traffic"
    tdir.mkdir()
    start = date(2019, 1, 7)
    for k in reversed(range(40)):
        rows = ["sensor_id,timestamp,flow"]
        for i in range(20):
            day = (start + timedelta(days=i)).isoformat()
            rows.extend(f"s{k:02d},{day}T{m // 60:02d}:{m % 60:02d}:00,{(7 * i + m + k) % 300 + 1}"
                        for m in range(0, 1440, 15))
        (tdir / f"s{k:02d}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    file_bytes = max(os.path.getsize(p) for p in tdir.iterdir())
    tracemalloc.start()
    try:
        series, stats = load_traffic_dir(PipelineConfig(traffic_dir=str(tdir)).validate())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(series) == list(stats) == [f"s{k:02d}" for k in range(40)]
    held = sum(s.flows.nbytes + s.quality.nbytes for s in series.values())
    assert peak < held + 8 * file_bytes


def test_load_traffic_dir_requires_csv_files(tmp_path):
    empty = tmp_path / "traffic"
    empty.mkdir()
    cfg = PipelineConfig(traffic_dir=str(empty))
    with pytest.raises(InputError):
        load_traffic_dir(cfg)


# ---------------------------------------------------------------------------
# full benchmark protocol
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_result(minicity_dir):
    cfg = PipelineConfig(
        osm_path=os.path.join(minicity_dir, "minicity.osm"),
        sensors_path=os.path.join(minicity_dir, "sensors.csv"),
        traffic_dir=os.path.join(minicity_dir, "traffic"),
        holidays_path=os.path.join(minicity_dir, "holidays.csv"),
    ).validate()
    return run_benchmark(cfg)


def test_benchmark_report_structure(benchmark_result):
    report = benchmark_result["report"]
    assert set(report) == {"config", "decisions", "selection_tally", "targets", "cleaning"}
    assert len(report["targets"]) == 8
    tally = report["selection_tally"]
    assert tally["embedding"] + tally["geographic"] + tally["tie"] == 8
    for target in report["targets"]:
        assert set(target) >= {"target_id", "road_type", "mean_weekday_flow", "selection", "generation"}
        gen = target["generation"]
        assert set(gen["methods"]) == {"cluster", "copy"}
        assert gen["friedman"] is None or 0.0 <= gen["friedman"]["p_value"] <= 1.0
        assert set(gen["best_methods"]) <= {"cluster", "copy"}


def test_benchmark_outcomes_consistent(benchmark_result):
    outcomes = benchmark_result["outcomes"]
    for o in outcomes:
        assert o.best_rmse <= o.embedding_rmse + 1e-12
        assert o.best_rmse <= o.geographic_rmse + 1e-12
        if o.verdict == "embedding":
            assert o.embedding_rmse < o.geographic_rmse
        elif o.verdict == "geographic":
            assert o.geographic_rmse < o.embedding_rmse


def test_benchmark_generation_tables(benchmark_result):
    tables = benchmark_result["tables"]
    assert sorted(tables) == [f"s{i}" for i in range(1, 9)]
    for sid, table in tables.items():
        assert table.methods == ["cluster", "copy"]
        assert table.nrmse.shape == (len(table.dates), 2)
        finite = table.nrmse[~np.isnan(table.nrmse)]
        assert (finite >= 0).all()


def test_benchmark_reports_the_road_class_the_embedding_encodes(benchmark_result):
    road_types = {t["target_id"]: t["road_type"] for t in benchmark_result["report"]["targets"]}
    # s4 sits on a tertiary road, and the sensors file overrides it to secondary
    assert road_types["s4"] == "secondary"
    for seg in benchmark_result["segments"]:
        assert road_types[seg.sensor_id] == seg.embedding.road_class.value
        assert road_type_code(HighwayClass(road_types[seg.sensor_id])) == seg.embedding.road_type_code


def test_benchmark_requires_inputs():
    from roadtwin.errors import ArgumentError

    with pytest.raises(ArgumentError, match="osm_path"):
        run_benchmark(PipelineConfig())


def readme_library_blocks(minicity_dir):
    """The ``python`` blocks of README's "Library use" section, in order."""
    with open(os.path.join(minicity_dir, "..", "..", "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)


def test_readme_library_blocks_run_on_minicity(
    monkeypatch, capsys, minicity_dir, minicity_raw, benchmark_result
):
    run_example, embed_example = readme_library_blocks(minicity_dir)
    # the first block names the fixture by paths relative to the repo root
    monkeypatch.chdir(os.path.join(minicity_dir, "..", ".."))
    scope = {}
    exec(run_example, scope)
    assert capsys.readouterr().out == f"{benchmark_result['report']['selection_tally']}\n"
    # the second embeds a position of an extract parsed once, with the
    # first block's cfg
    sensor = load_sensors(os.path.join(minicity_dir, "sensors.csv"))[0]
    scope.update(raw=minicity_raw, lat=sensor.lat, lon=sensor.lon)
    exec(embed_example, scope)
    assert scope["emb"] == embed_position(minicity_raw, scope["cfg"], "target", sensor.lat, sensor.lon)
