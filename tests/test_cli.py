"""Black-box tests for the command-line interface.

Every test invokes ``python -m roadtwin.cli`` as a subprocess against the
small fixture city, then inspects exit codes, the JSON error envelope on
stderr, and the files written to the output directory.
"""
import ast
import gc
import importlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from datetime import date, timedelta
from statistics import NormalDist
from xml.dom import minidom

import pytest

from conftest import FIXTURE_DIR
from helpers import osm_doc
from roadtwin import cli
from roadtwin.traffic_data import MAX_SPAN_DAYS

CONFIG = os.path.join(FIXTURE_DIR, "config.json")


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "roadtwin.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )


def read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def stderr_error(proc):
    return json.loads(proc.stderr)


# ---------------------------------------------------------------------------
# generic behaviour
# ---------------------------------------------------------------------------

def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "ingest" in proc.stdout and "estimate" in proc.stdout


def test_module_alias_runs_the_same_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "roadtwin", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "ingest" in proc.stdout


def main_block(path):
    """The statements under a module's ``if __name__ == "__main__":``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    blocks = [node.body for node in tree.body
              if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert len(blocks) == 1, path
    return [ast.unparse(stmt) for stmt in blocks[0]]


def test_script_and_both_module_entries_run_one_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = os.path.join(FIXTURE_DIR, "..", "..")
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"roadtwin": "roadtwin.cli:entry"}
    package = os.path.join(root, "src", "roadtwin")
    assert main_block(os.path.join(package, "__main__.py")) == ["entry()"]
    assert main_block(os.path.join(package, "cli.py")) == ["entry()"]
    assert importlib.import_module("roadtwin.__main__").entry is cli.entry


OUTPUT_WRITERS = ("OutputStage", "write_csv", "write_json", "open")


def test_only_the_cli_writer_writes_files():
    # every handler hands its files to cli._write, which stamps and stages
    # them; perfbench/spans.py traces writes through cli.write_csv/write_json
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    users = {}
    for top in tree.body:
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in OUTPUT_WRITERS:
                users.setdefault(name, set()).add(getattr(top, "name", "<module>"))
    assert users == {name: {"_write"} for name in OUTPUT_WRITERS}


def test_in_process_main_leaves_the_collector_unfrozen(tmp_path):
    assert gc.get_freeze_count() == 0
    assert cli.main(["profile", "--config", CONFIG, "--output_dir", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


def test_module_entry_error_is_one_json_object_and_exit_2(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "roadtwin", "profile", "--config", str(tmp_path / "none.json"),
         "--output_dir", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert stderr_error(proc)["error"] == "InputError"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["profile", "embed"])
def test_module_entry_writes_the_recorded_bytes(tmp_path, command):
    from test_golden import GOLDEN, content_digest

    root = os.path.join(FIXTURE_DIR, "..", "..")
    argv = readme_command(command, tmp_path, README_CONFIG)
    proc = subprocess.run([sys.executable, "-m", "roadtwin", *argv], cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out_dir = argv[argv.index("--output_dir") + 1]
    got = {f"{command}/{name}": content_digest(os.path.join(out_dir, name))
           for name in os.listdir(out_dir)}
    assert got == {k: v for k, v in GOLDEN.items() if k.startswith(f"{command}/")}


def test_bad_flag_value_exits_2(tmp_path):
    proc = run_cli(
        "ingest", "--config", CONFIG, "--output_dir", str(tmp_path), "--radius_m", "abc"
    )
    assert proc.returncode == 2
    err = stderr_error(proc)
    assert err["error"] == "ArgumentError"
    assert err["exit_code"] == 2
    assert "radius_m" in err["message"]


def test_missing_input_exits_2(tmp_path):
    proc = run_cli(
        "ingest",
        "--osm_path",
        str(tmp_path / "nope.osm"),
        "--sensors_path",
        os.path.join(FIXTURE_DIR, "sensors.csv"),
        "--output_dir",
        str(tmp_path / "out"),
    )
    assert proc.returncode == 2
    assert stderr_error(proc)["error"] == "InputError"
    assert not (tmp_path / "out").exists()


def copy_with_bad_byte(src, dst, at):
    """Copy ``src`` to ``dst`` with byte ``at`` replaced by 0xff, which no UTF-8 text holds."""
    with open(src, "rb") as fh:
        data = fh.read()
    dst.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    return dst


def bad_traffic(tmp_path):
    traffic = tmp_path / "traffic"
    shutil.copytree(os.path.join(FIXTURE_DIR, "traffic"), traffic)
    bad = copy_with_bad_byte(traffic / "s2.csv", traffic / "s2.csv", 40)
    return ("profile", "--config", CONFIG, "--traffic_dir", str(bad.parent)), bad, 40


def bad_fixture_file(name, at, *argv):
    def make(tmp_path):
        bad = copy_with_bad_byte(os.path.join(FIXTURE_DIR, name), tmp_path / name, at)
        return tuple(a.format(bad=bad, config=CONFIG) for a in argv), bad, at
    return make


def bad_generated_days(tmp_path):
    data = b"# config_hash=0\ntarget_id,date,method,slot_index,flow,fallback_used\n\xff\n"
    bad = tmp_path / "generated_days.csv"
    bad.write_bytes(data)
    argv = ("evaluate", "--config", CONFIG, "--generated", str(bad), "--target", "s1")
    return argv, bad, data.index(b"\xff")


NON_UTF8_INPUTS = {
    "traffic CSV": bad_traffic,
    "holidays": bad_fixture_file("holidays.csv", 30, "profile", "--config", "{config}",
                                 "--holidays_path", "{bad}"),
    "sensors CSV": bad_fixture_file("sensors.csv", 60, "ingest", "--config", "{config}",
                                    "--sensors_path", "{bad}"),
    "config JSON": bad_fixture_file("config.json", 5, "ingest", "--config", "{bad}"),
    "generated days": bad_generated_days,
}


@pytest.mark.parametrize("make", NON_UTF8_INPUTS.values(), ids=NON_UTF8_INPUTS.keys())
def test_non_utf8_input_exits_2(tmp_path, make):
    argv, bad, at = make(tmp_path)
    out = tmp_path / "out"
    proc = run_cli(*argv, "--output_dir", str(out))
    assert proc.returncode == 2, proc.stderr
    assert stderr_error(proc) == {
        "error": "ParseError",
        "exit_code": 2,
        "message": f"{bad} is not valid UTF-8 at byte {at}: invalid start byte",
    }
    assert not out.exists()


HUGE = "1" + "0" * 400  # too large for a float: float() reads it as inf
WIDE = "x" * (128 * 1024 + 1)  # one byte over the csv module's field limit


def fixture_text(*parts):
    with open(os.path.join(FIXTURE_DIR, *parts), encoding="utf-8") as fh:
        return fh.read()


def weekend_only_sensor(tmp_path):
    # s1 as recorded, then z1 holding only s1's Saturday 2019-01-12: z1
    # fails after s1's profile is done, and nothing may be written for it
    traffic = tmp_path / "traffic"
    traffic.mkdir()
    s1 = fixture_text("traffic", "s1.csv")
    (traffic / "s1.csv").write_text(s1)
    saturday = [line.replace("s1,", "z1,", 1) for line in s1.splitlines()
                if line.startswith("s1,2019-01-12T")]
    (traffic / "z1.csv").write_text("\n".join(["sensor_id,timestamp,flow", *saturday, ""]))
    return ("profile", "--traffic_dir", str(traffic)), (
        "DomainError", 3, "sensor 'z1': no complete days match filter 'weekdays'")


def sensors_with_row(row, message):
    def make(tmp_path):
        sensors = tmp_path / "sensors.csv"
        sensors.write_text(fixture_text("sensors.csv") + row + "\n")
        return ("embed", "--sensors_path", str(sensors)), (
            "FormatError", 2, message.format(path=sensors))
    return make


def wide_traffic_id(tmp_path):
    # a quoted id sends the file from the array parse to the row loop
    traffic = tmp_path / "traffic"
    traffic.mkdir()
    (traffic / "t.csv").write_text(f'sensor_id,timestamp,flow\n"{WIDE}",2019-01-07T00:00:00,40\n')
    return ("profile", "--traffic_dir", str(traffic)), (
        "FormatError", 2, f"{traffic / 't.csv'} line 2: field larger than field limit (131072)")


def wide_generated_field(tmp_path):
    generated = tmp_path / "generated_days.csv"
    generated.write_text("# config_hash=0\ntarget_id,date,method,slot_index,flow,fallback_used\n"
                         f"{WIDE},2019-01-07,cluster,0,1,False\n")
    return ("evaluate", "--generated", str(generated), "--target", "s1"), (
        "FormatError", 2, f"{generated} line 3: field larger than field limit (131072)")


FAILS_BEFORE_WRITING = {
    "profile-no-complete-weekday": weekend_only_sensor,
    "ego-hops-flag-1e400": lambda tmp_path: (("embed", "--ego_hops", "1e400"), (
        "ArgumentError", 2, "bad value for config key 'ego_hops': "
                            "cannot convert float infinity to integer")),
    "lanes-override-400-digits": sensors_with_row(
        f"s9,40.45,-3.69,,{HUGE}", f"sensors CSV row 10: bad lanes override {HUGE!r}"),
    "sensors-csv-wide-field": sensors_with_row(
        f"{WIDE},40.45,-3.69,,",
        "sensors CSV {path} line 10: field larger than field limit (131072)"),
    "traffic-csv-wide-field": wide_traffic_id,
    "generated-csv-wide-field": wide_generated_field,
}


@pytest.mark.parametrize("make", FAILS_BEFORE_WRITING.values(), ids=FAILS_BEFORE_WRITING.keys())
def test_a_command_that_fails_before_writing_creates_no_output_directory(tmp_path, make):
    argv, (error, exit_code, message) = make(tmp_path)
    out = tmp_path / "out"
    proc = run_cli(*argv, "--config", CONFIG, "--output_dir", str(out))
    assert proc.returncode == exit_code, proc.stderr
    assert stderr_error(proc) == {"error": error, "exit_code": exit_code, "message": message}
    assert not out.exists()


def test_snap_failure_exits_3(tmp_path):
    # ~300 m east of the easternmost fixture road: well inside the graph
    # radius but far beyond the 100 m snap threshold.
    proc = run_cli(
        "select",
        "--config",
        CONFIG,
        "--output_dir",
        str(tmp_path),
        "--lat",
        "40.4500",
        "--lon",
        "-3.6810",
    )
    assert proc.returncode == 3
    err = stderr_error(proc)
    assert err["error"] == "SnapError"
    assert err["exit_code"] == 3
    assert "m" in err["message"]


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def test_ingest_writes_graph_files(tmp_path):
    out = tmp_path / "out"
    proc = run_cli(
        "ingest",
        "--config",
        CONFIG,
        "--output_dir",
        str(out),
        "--center-lat",
        "40.4500",
        "--center-lon",
        "-3.6900",
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(out)) == ["edges.csv", "manifest.json", "nodes.csv"]

    from roadtwin.config import load_config
    from roadtwin.osm_ingest import build_graph, parse_osm_extract

    cfg = load_config(CONFIG, {"output_dir": str(out)})
    chash = cfg.config_hash()

    # The CLI output must equal a direct in-process build byte for byte:
    # nodes sorted by id, edges in crop order, every float in its repr.
    raw = parse_osm_extract(cfg.osm_path)
    graph = build_graph(raw, (40.45, -3.69), cfg.radius_m)
    node_rows = [f"{nid},{lat!r},{lon!r}" for nid, (lat, lon) in sorted(graph.nodes.items())]
    edge_rows = [
        f"{e.src},{e.dst},{e.length_m!r},{e.speed_kph!r},{e.travel_time_s!r},"
        f"{e.highway_class.value},{'' if e.lanes is None else e.lanes}"
        for e in graph.edges
    ]
    assert read_lines(out / "nodes.csv") == [
        f"# config_hash={chash}", "node_id,lat,lon", *node_rows,
    ]
    assert read_lines(out / "edges.csv") == [
        f"# config_hash={chash}",
        "src,dst,length_m,speed_kph,travel_time_s,highway_class,lanes",
        *edge_rows,
    ]
    assert any(e.lanes is not None for e in graph.edges)

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert list(manifest)[0] == "config_hash"
    assert manifest["config_hash"] == chash
    assert manifest["n_nodes"] == len(graph.nodes)
    assert manifest["n_edges"] == len(graph.edges)
    assert manifest["edges_by_class"]["secondary"] == 24


def test_ingest_writes_through_the_one_csv_writer(tmp_path, monkeypatch):
    from roadtwin import cli

    write_csv, written = cli.write_csv, []

    def counting(path, header, rows, config_hash=None):
        written.append(os.path.basename(path))
        return write_csv(path, header, rows, config_hash=config_hash)

    monkeypatch.setattr(cli, "write_csv", counting)
    assert cli.main(["ingest", "--config", CONFIG, "--output_dir", str(tmp_path)]) == 0
    assert written == ["nodes.csv", "edges.csv"]


def test_ingest_defaults_center_to_sensor_centroid(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("ingest", "--config", CONFIG, "--output_dir", str(out))
    assert proc.returncode == 0, proc.stderr

    from roadtwin.output import round6
    from roadtwin.pipeline import load_sensors

    sensors = load_sensors(os.path.join(FIXTURE_DIR, "sensors.csv"))
    lat = sum(s.lat for s in sensors) / len(sensors)
    lon = sum(s.lon for s in sensors) / len(sensors)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["center"] == {"lat": round6(lat), "lon": round6(lon)}


@pytest.mark.parametrize("flag, value", [("--center-lat", "40.44"), ("--center-lon", "-3.69")])
def test_ingest_lone_center_coordinate_exits_2(tmp_path, flag, value):
    out = tmp_path / "out"
    proc = run_cli("ingest", "--config", CONFIG, "--output_dir", str(out), flag, value)
    assert proc.returncode == 2
    err = stderr_error(proc)
    assert err["error"] == "ArgumentError"
    assert "--center-lat and --center-lon" in err["message"]
    assert not out.exists()


def test_ingest_sensors_without_rows_exits_2(tmp_path):
    sensors = tmp_path / "sensors.csv"
    sensors.write_text("sensor_id,lat,lon,road_type_override,lanes_override\n")
    out = tmp_path / "out"
    proc = run_cli(
        "ingest", "--config", CONFIG, "--sensors_path", str(sensors), "--output_dir", str(out)
    )
    assert proc.returncode == 2
    assert stderr_error(proc) == {
        "error": "FormatError",
        "exit_code": 2,
        "message": f"sensors CSV {sensors} holds no sensor row",
    }
    assert not out.exists()


@pytest.mark.parametrize("lat, lon, bad", [
    ("inf", "-3.69", "latitude inf"),
    ("nan", "-3.69", "latitude nan"),
    ("40.45", "nan", "longitude nan"),
    ("95", "-3.69", "latitude 95.0"),
])
def test_sensor_with_bad_coordinates_exits_2(tmp_path, lat, lon, bad):
    sensors = tmp_path / "sensors.csv"
    with open(os.path.join(FIXTURE_DIR, "sensors.csv"), encoding="utf-8") as fh:
        sensors.write_text(fh.read() + f"s9,{lat},{lon},,\n")
    out = tmp_path / "out"
    proc = run_cli(
        "ingest", "--config", CONFIG, "--sensors_path", str(sensors), "--output_dir", str(out)
    )
    assert proc.returncode == 2
    assert stderr_error(proc) == {
        "error": "FormatError",
        "exit_code": 2,
        "message": f"sensors CSV row 10: {bad} is not a finite number in "
                   + ("[-90, 90]" if bad.startswith("lat") else "[-180, 180]"),
    }
    assert not out.exists()


@pytest.mark.parametrize("far_node, bad", [
    ((95.0, 180.0), "latitude 95.0 is not a finite number in [-90, 90]"),
    ((math.nan, 0.0), "latitude nan is not a finite number in [-90, 90]"),
], ids=["beyond-the-poles", "lat-nan"])
def test_osm_node_with_bad_coordinates_exits_2(tmp_path, far_node, bad):
    osm = tmp_path / "extract.osm"
    osm.write_bytes(osm_doc({"1": (85.0, 0.0), "2": far_node, "3": (85.0, 0.002)},
                            [("10", ["1", "2", "3"], {"highway": "residential"})]))
    sensors = tmp_path / "sensors.csv"
    sensors.write_text("sensor_id,lat,lon\ns1,85.0,0.001\ns2,85.0,0.0015\n")
    out = tmp_path / "out"
    proc = run_cli("embed", "--osm_path", str(osm), "--sensors_path", str(sensors),
                   "--output_dir", str(out))
    assert proc.returncode == 2
    assert stderr_error(proc) == {
        "error": "FormatError",
        "exit_code": 2,
        "message": f"node 2: {bad}",
    }
    assert not out.exists()


def test_sensor_coordinate_that_is_no_decimal_number_exits_2(tmp_path):
    # float() reads it as 40.4512
    sensors = tmp_path / "sensors.csv"
    with open(os.path.join(FIXTURE_DIR, "sensors.csv"), encoding="utf-8") as fh:
        sensors.write_text(fh.read() + "s9,4_0.4512,-3.69,,\n")
    out = tmp_path / "out"
    proc = run_cli(
        "ingest", "--config", CONFIG, "--sensors_path", str(sensors), "--output_dir", str(out)
    )
    assert proc.returncode == 2
    assert stderr_error(proc) == {
        "error": "FormatError",
        "exit_code": 2,
        "message": "sensors CSV row 10: could not convert string to float: '4_0.4512'",
    }
    assert not out.exists()


@pytest.mark.parametrize("lat", ["4_0.5", "\u0664\u0660.\u0665"],
                         ids=["underscore", "arabic-indic-digits"])
def test_osm_node_coordinate_that_is_no_decimal_number_exits_2(tmp_path, lat):
    # float() reads both as 40.5
    osm = tmp_path / "extract.osm"
    osm.write_bytes(osm_doc({"1": (40.45, -3.69), "2": (40.4505, -3.69)},
                            [("10", ["1", "2"], {"highway": "residential"})])
                    .replace(b'lat="40.45"', f'lat="{lat}"'.encode("utf-8")))
    sensors = tmp_path / "sensors.csv"
    sensors.write_text("sensor_id,lat,lon\ns1,40.4502,-3.6901\ns2,40.4503,-3.6901\n")
    out = tmp_path / "out"
    proc = run_cli("embed", "--osm_path", str(osm), "--sensors_path", str(sensors),
                   "--output_dir", str(out))
    assert proc.returncode == 2
    assert stderr_error(proc) == {
        "error": "FormatError",
        "exit_code": 2,
        "message": f"node element missing id/lat/lon: could not convert string to float: {lat!r}",
    }
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("select", "--lat", "inf", "--lon", "-3.69"),
     "--lat/--lon: latitude inf is not a finite number in [-90, 90]"),
    (("select", "--lat", "95", "--lon", "-3.69"),
     "--lat/--lon: latitude 95.0 is not a finite number in [-90, 90]"),
    (("estimate", "--lat", "40.45", "--lon", "nan", "--date", "2019-02-01"),
     "--lat/--lon: longitude nan is not a finite number in [-180, 180]"),
    (("ingest", "--center-lat", "inf", "--center-lon", "-3.69"),
     "--center-lat/--center-lon: latitude inf is not a finite number in [-90, 90]"),
    (("ingest", "--center-lat", "nan", "--center-lon", "-3.69"),
     "--center-lat/--center-lon: latitude nan is not a finite number in [-90, 90]"),
    (("ingest", "--center-lat", "40.45", "--center-lon", "-181"),
     "--center-lat/--center-lon: longitude -181.0 is not a finite number in [-180, 180]"),
], ids=["select-lat-inf", "select-lat-95", "estimate-lon-nan", "ingest-lat-inf",
        "ingest-lat-nan", "ingest-lon-181"])
def test_bad_coordinate_flag_exits_2(tmp_path, argv, message):
    out = tmp_path / "out"
    proc = run_cli(*argv, "--config", CONFIG, "--output_dir", str(out))
    assert proc.returncode == 2
    assert stderr_error(proc) == {"error": "ArgumentError", "exit_code": 2, "message": message}
    assert not out.exists()


@pytest.mark.parametrize("argv, text", [
    (("select", "--lat", "4_0.4512", "--lon", "-3.6900"), "4_0.4512"),
    (("ingest", "--center-lat", "40.4512", "--center-lon", "-3.６9"), "-3.６9"),
], ids=["select-lat-underscore", "ingest-lon-fullwidth-digit"])
def test_coordinate_flag_that_is_no_decimal_number_exits_2(tmp_path, argv, text):
    # float() reads them as 40.4512 and -3.69; in a sensors CSV or an OSM
    # node the same text exits 2
    out = tmp_path / "out"
    proc = run_cli(*argv, "--config", CONFIG, "--output_dir", str(out))
    assert proc.returncode == 2
    message = stderr_error(proc)["message"]
    assert f"argument {argv[3] if text == argv[4] else argv[1]}: invalid" in message
    assert repr(text) in message
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("select", "--lat", "4_0.4512", "--lon", "-3.6900"),
     "argument --lat: invalid parse_coordinate value: '4_0.4512'"),
    (("profile", "--day-filter", "bogus"),
     "argument --day-filter: invalid choice: 'bogus' (choose from 'weekdays', 'weekends', 'all')"),
    (("embed", "--no-such-flag", "1"), "unrecognized arguments: --no-such-flag 1"),
], ids=["bad-type", "bad-choice", "unknown-flag"])
def test_flag_argparse_rejects_prints_one_json_error_and_exits_2(tmp_path, argv, message):
    out = tmp_path / "out"
    proc = run_cli(*argv, "--config", CONFIG, "--output_dir", str(out))
    assert proc.returncode == 2
    assert stderr_error(proc) == {"error": "ArgumentError", "exit_code": 2, "message": message}
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--default_speeds", '{"primary": "fast"}', "default speed for 'primary'"),
    ("--default_speeds", '{"primary": null}', "default speed for 'primary'"),
    ("--default_speeds", '{"primery": 30}', "default_speeds key 'primery' is not a road class"),
    ("--radius_m", "nan", "radius_m must be positive and finite"),
], ids=["speed-text", "speed-null", "speed-key-typo", "radius-nan"])
def test_bad_config_value_exits_2(tmp_path, flag, value, message):
    out = tmp_path / "out"
    proc = run_cli("embed", "--config", CONFIG, "--output_dir", str(out), flag, value)
    assert proc.returncode == 2
    err = stderr_error(proc)
    assert (err["error"], err["exit_code"]) == ("ArgumentError", 2)
    assert err["message"].startswith(message)
    assert not out.exists()


# ---------------------------------------------------------------------------
# embed / select
# ---------------------------------------------------------------------------

def test_embed_writes_all_sensor_embeddings(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("embed", "--config", CONFIG, "--output_dir", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = read_lines(out / "embeddings.csv")
    assert lines[0].startswith("# config_hash=")
    header = lines[1].split(",")
    assert header[0] == "sensor_id"
    assert header[1:8] == [f"f{i}" for i in range(1, 8)]
    assert header[8:] == [f"n{i}" for i in range(1, 8)]
    ids = [line.split(",")[0] for line in lines[2:]]
    assert ids == [f"s{i}" for i in range(1, 9)]
    for line in lines[2:]:
        norm = [float(v) for v in line.split(",")[8:]]
        assert all(0.0 <= v <= 1.0 for v in norm)


def test_select_ranks_both_methods(tmp_path):
    out = tmp_path / "out"
    proc = run_cli(
        "select",
        "--config",
        CONFIG,
        "--output_dir",
        str(out),
        "--lat",
        "40.4512",
        "--lon",
        "-3.6900",
    )
    assert proc.returncode == 0, proc.stderr
    lines = read_lines(out / "selection.csv")
    assert lines[1] == "target_id,rank,sensor_id,distance,similarity_pct,method"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 16  # 8 candidates x 2 methods
    emb = [r for r in rows if r[5] == "embedding"]
    geo = [r for r in rows if r[5] == "geographic"]
    assert len(emb) == len(geo) == 8
    assert [r[1] for r in emb] == [str(i) for i in range(1, 9)]
    # embedding rows carry a similarity, geographic rows leave it blank
    assert all(r[4] != "" for r in emb)
    assert all(r[4] == "" for r in geo)
    emb_dists = [float(r[3]) for r in emb]
    assert emb_dists == sorted(emb_dists)
    assert "embedding ->" in proc.stdout and "geographic ->" in proc.stdout


def selection_rows_by_method(path):
    rows = [line.split(",") for line in read_lines(path)[2:]]
    return ([r for r in rows if r[5] == "embedding"], [r for r in rows if r[5] == "geographic"])


@pytest.mark.parametrize("command, extra, n_targets", [
    ("select", ("--lat", "40.4512", "--lon", "-3.6900"), 1),
    ("benchmark", (), 8),
])
def test_l1_distance_leaves_similarity_blank(tmp_path, command, extra, n_targets):
    # l1 distances exceed sqrt(7), so they have no similarity scale
    out = tmp_path / "out"
    proc = run_cli(command, "--config", CONFIG, "--output_dir", str(out), "--distance", "l1",
                   *extra)
    assert proc.returncode == 0, proc.stderr
    emb, geo = selection_rows_by_method(out / "selection.csv")
    assert len(emb) == len(geo) > 0
    assert {r[0] for r in emb} == {r[0] for r in geo} and len({r[0] for r in emb}) == n_targets
    assert all(r[4] == "" for r in emb + geo)
    assert max(float(r[3]) for r in emb) > math.sqrt(7)


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def test_profile_writes_csv_and_svg(tmp_path):
    out = tmp_path / "out"
    proc = run_cli(
        "profile", "--config", CONFIG, "--output_dir", str(out), "--sensor", "s3"
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(out)) == ["profile_s3.csv", "profile_s3.svg"]
    lines = read_lines(out / "profile_s3.csv")
    assert lines[1] == "slot_index,time_of_day,median_flow,stdev"
    assert len(lines) == 2 + 96
    assert lines[2].startswith("0,00:00,")
    assert lines[-1].startswith("95,23:45,")
    svg = (out / "profile_s3.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg") and "polyline" in svg
    assert "nan" not in svg


def traffic_dir_with_ids(tmp_path, ids):
    """A traffic directory holding fixture sensor s1's series once per id."""
    traffic = tmp_path / "traffic"
    traffic.mkdir()
    text = open(os.path.join(FIXTURE_DIR, "traffic", "s1.csv"), encoding="utf-8").read()
    for k, sid in enumerate(ids):
        (traffic / f"t{k}.csv").write_text(text.replace("\ns1,", f"\n{sid},"), encoding="utf-8")
    return traffic


def test_profile_svg_escapes_markup_in_the_sensor_id(tmp_path):
    out = tmp_path / "out"
    traffic = traffic_dir_with_ids(tmp_path, ["a&b<c>", "abc"])
    proc = run_cli("profile", "--config", CONFIG, "--output_dir", str(out),
                   "--traffic_dir", str(traffic))
    assert proc.returncode == 0, proc.stderr
    svg = (out / "profile_a&b<c>.svg").read_text(encoding="utf-8")
    doc = minidom.parseString(svg)
    title = doc.getElementsByTagName("text")[0].firstChild.data
    assert title.startswith("daily profile: a&b<c> (weekdays, ")
    # only the title's escaped id tells the two plots apart
    plain = (out / "profile_abc.svg").read_text(encoding="utf-8")
    assert svg.replace("a&amp;b&lt;c&gt;", "abc") == plain
    assert "&" not in plain and plain.count("<") == plain.count(">")


def test_profile_rejects_a_sensor_id_with_a_path_separator(tmp_path):
    out = tmp_path / "out"
    traffic = traffic_dir_with_ids(tmp_path, ["abc", "x/y"])
    proc = run_cli("profile", "--config", CONFIG, "--output_dir", str(out),
                   "--traffic_dir", str(traffic))
    assert proc.returncode == 2
    assert stderr_error(proc) == {
        "error": "InputError",
        "exit_code": 2,
        "message": "sensor id 'x/y' contains a path separator; it cannot name a profile file",
    }
    assert not out.exists()


def test_profile_rejects_an_empty_sensor_id(tmp_path):
    out = tmp_path / "out"
    traffic = traffic_dir_with_ids(tmp_path, ["abc", ""])
    proc = run_cli("profile", "--config", CONFIG, "--output_dir", str(out),
                   "--traffic_dir", str(traffic))
    assert proc.returncode == 2
    assert stderr_error(proc) == {
        "error": "FormatError",
        "exit_code": 2,
        "message": "traffic CSV row 2: empty sensor id",
    }
    assert not out.exists()


def test_profile_unknown_sensor_exits_2(tmp_path):
    proc = run_cli(
        "profile", "--config", CONFIG, "--output_dir", str(tmp_path / "o"), "--sensor", "zz"
    )
    assert proc.returncode == 2
    assert stderr_error(proc)["error"] == "ArgumentError"


# ---------------------------------------------------------------------------
# synthesize / evaluate
# ---------------------------------------------------------------------------

README_CONFIG = "fixtures/minicity/config.json"


def readme_command(subcommand, out_root, config=CONFIG):
    """argv of the README's ``roadtwin <subcommand>`` example, its ``out*``
    paths under ``out_root`` and its ``--config`` replaced by ``config``."""
    with open(os.path.join(FIXTURE_DIR, "..", "..", "README.md"), encoding="utf-8") as fh:
        text = fh.read().replace("\\\n", " ")
    line = re.search(rf"^roadtwin {subcommand} .*$", text, re.M).group(0)
    return [config if a == README_CONFIG
            else str(out_root / a) if a.startswith("out") else a
            for a in shlex.split(line)[1:]]


def test_readme_synthesize_then_evaluate_example_runs(tmp_path):
    for subcommand in ("synthesize", "evaluate"):
        proc = run_cli(*readme_command(subcommand, tmp_path))
        assert proc.returncode == 0, proc.stderr
    assert os.path.isfile(tmp_path / "out" / "generated_days.csv")
    assert os.listdir(tmp_path / "out2")


def test_two_checkouts_share_a_config_hash(tmp_path, monkeypatch):
    # synthesize in one copy of the fixtures and evaluate in another, each
    # run from its own root with README's relative --config: the configs
    # name the same relative paths, so they hash alike
    from roadtwin import cli

    for copy in ("a", "b"):
        shutil.copytree(os.path.join(FIXTURE_DIR, ".."), tmp_path / copy / "fixtures")
    for copy, subcommand in (("a", "synthesize"), ("b", "evaluate")):
        monkeypatch.chdir(tmp_path / copy)
        assert cli.main(readme_command(subcommand, tmp_path, README_CONFIG)) == 0, subcommand
    assert os.listdir(tmp_path / "out2") == ["errors.csv"]


def test_synthesize_exact_class_no_fallback(tmp_path):
    out = tmp_path / "out"
    proc = run_cli(
        "synthesize",
        "--config",
        CONFIG,
        "--output_dir",
        str(out),
        "--source",
        "s1",
        "--start",
        "2019-12-18",
        "--end",
        "2019-12-19",
    )
    assert proc.returncode == 0, proc.stderr
    lines = read_lines(out / "generated_days.csv")
    assert lines[1] == "target_id,date,method,slot_index,flow,fallback_used"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 2 * 96
    assert {r[1] for r in rows} == {"2019-12-18", "2019-12-19"}
    assert {r[5] for r in rows} == {"none"}


def test_synthesize_falls_back_for_unseen_holiday_class(tmp_path):
    # The fixture holidays fall on a Monday and a Thursday, so the
    # holiday-Wednesday day class was never observed; generating a new
    # holiday Wednesday must fall back to the plain-Wednesday medians.
    holidays = tmp_path / "holidays.csv"
    fixture_holidays = os.path.join(FIXTURE_DIR, "holidays.csv")
    holidays.write_text(
        open(fixture_holidays, encoding="utf-8").read() + "2019-12-25\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    proc = run_cli(
        "synthesize",
        "--config",
        CONFIG,
        "--holidays_path",
        str(holidays),
        "--output_dir",
        str(out),
        "--source",
        "s1",
        "--start",
        "2019-12-25",
        "--end",
        "2019-12-25",
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in read_lines(out / "generated_days.csv")[2:]]
    assert {r[5] for r in rows} == {"weekday"}

    # Fallback values equal the plain-Wednesday generation for the same source.
    plain = tmp_path / "plain"
    proc = run_cli(
        "synthesize",
        "--config",
        CONFIG,
        "--output_dir",
        str(plain),
        "--source",
        "s1",
        "--start",
        "2019-12-18",
        "--end",
        "2019-12-18",
    )
    assert proc.returncode == 0, proc.stderr
    plain_rows = [line.split(",") for line in read_lines(plain / "generated_days.csv")[2:]]
    assert [r[4] for r in rows] == [r[4] for r in plain_rows]


def test_synthesize_copy_outside_recordings_exits_3(tmp_path):
    proc = run_cli(
        "synthesize",
        "--config",
        CONFIG,
        "--output_dir",
        str(tmp_path / "o"),
        "--source",
        "s1",
        "--start",
        "2020-06-01",
        "--end",
        "2020-06-01",
        "--method",
        "copy",
    )
    assert proc.returncode == 3
    assert stderr_error(proc)["error"] == "AvailabilityError"


def test_synthesize_range_over_the_traffic_span_limit_exits_2(tmp_path):
    # one day more than a traffic series may span: a mistyped year
    start = date(2019, 2, 11)
    end = start + timedelta(days=MAX_SPAN_DAYS)
    out = tmp_path / "o"
    proc = run_cli("synthesize", "--config", CONFIG, "--output_dir", str(out),
                   "--source", "s1", "--start", start.isoformat(), "--end", end.isoformat())
    assert proc.returncode == 2
    err = stderr_error(proc)
    assert err["error"] == "ArgumentError"
    assert "more than 50 years" in err["message"]
    assert not out.exists()


def test_evaluate_copy_of_self_scores_zero(tmp_path):
    gen_out = tmp_path / "gen"
    proc = run_cli(
        "synthesize",
        "--config",
        CONFIG,
        "--output_dir",
        str(gen_out),
        "--source",
        "s1",
        "--start",
        "2019-01-08",
        "--end",
        "2019-01-10",
        "--method",
        "copy",
    )
    assert proc.returncode == 0, proc.stderr
    eval_out = tmp_path / "eval"
    proc = run_cli(
        "evaluate",
        "--config",
        CONFIG,
        "--output_dir",
        str(eval_out),
        "--generated",
        str(gen_out / "generated_days.csv"),
        "--target",
        "s1",
    )
    assert proc.returncode == 0, proc.stderr
    lines = read_lines(eval_out / "errors.csv")
    assert lines[1] == "target_id,date,method,rmse,nrmse"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 3
    assert all(r[0] == "s1" and r[2] == "copy" for r in rows)
    assert all(float(r[3]) == 0.0 and float(r[4]) == 0.0 for r in rows)


def test_evaluate_rejects_mismatched_config_hash(tmp_path):
    gen_out = tmp_path / "gen"
    proc = run_cli(
        "synthesize",
        "--config",
        CONFIG,
        "--output_dir",
        str(gen_out),
        "--source",
        "s1",
        "--start",
        "2019-01-08",
        "--end",
        "2019-01-08",
    )
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(
        "evaluate",
        "--config",
        CONFIG,
        "--spike_factor",
        "6.0",  # different cleaning -> different config hash
        "--output_dir",
        str(tmp_path / "eval"),
        "--generated",
        str(gen_out / "generated_days.csv"),
        "--target",
        "s1",
    )
    assert proc.returncode == 2
    err = stderr_error(proc)
    assert err["error"] == "InputError"
    assert "config hash" in err["message"]


def test_evaluate_target_with_zero_mean_flow_exits_3(tmp_path):
    # 14 days of zero flow: the day synthesizes, but its error cannot be
    # normalised by a zero mean weekday flow
    traffic = tmp_path / "traffic"
    traffic.mkdir()
    rows = ["sensor_id,timestamp,flow"] + [
        f"z,2019-01-{day:02d}T{slot // 4:02d}:{slot % 4 * 15:02d}:00,0"
        for day in range(7, 21) for slot in range(96)
    ]
    (traffic / "z.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"traffic_dir": "traffic"}), encoding="utf-8")
    gen_out = tmp_path / "gen"
    proc = run_cli("synthesize", "--config", str(config), "--output_dir", str(gen_out),
                   "--source", "z", "--start", "2019-01-14", "--end", "2019-01-14")
    assert proc.returncode == 0, proc.stderr
    eval_out = tmp_path / "eval"
    proc = run_cli("evaluate", "--config", str(config), "--output_dir", str(eval_out),
                   "--generated", str(gen_out / "generated_days.csv"), "--target", "z")
    assert proc.returncode == 3, proc.stderr
    err = stderr_error(proc)
    assert err["error"] == "DomainError"
    assert err["exit_code"] == 3
    assert "mean flow must be positive" in err["message"]
    assert not eval_out.exists()


def test_evaluate_rejects_a_repeated_slot(tmp_path):
    gen_out = tmp_path / "gen"
    proc = run_cli("synthesize", "--config", CONFIG, "--output_dir", str(gen_out),
                   "--source", "s1", "--start", "2019-02-11", "--end", "2019-02-11")
    assert proc.returncode == 0, proc.stderr
    generated = gen_out / "generated_days.csv"
    lines = read_lines(generated)
    assert lines[2 + 5].startswith("s1,2019-02-11,cluster,5,")
    # a later row for the same (date, method, slot) must not replace the first
    lines.append("s1,2019-02-11,cluster,5,99999,none")
    generated.write_text("\n".join(lines) + "\n", encoding="utf-8")
    eval_out = tmp_path / "eval"
    proc = run_cli("evaluate", "--config", CONFIG, "--output_dir", str(eval_out),
                   "--generated", str(generated), "--target", "s1")
    assert proc.returncode == 2, proc.stderr
    assert stderr_error(proc) == {
        "error": "InputError",
        "exit_code": 2,
        "message": f"{generated} row {len(lines)}: slot 5 of 2019-02-11 (cluster) is repeated",
    }
    assert not eval_out.exists()


@pytest.mark.parametrize("flow, notes, problem", [
    ("nan", 0, "flow must be finite and non-negative, got nan"),
    ("-inf", 0, "flow must be finite and non-negative, got -inf"),
    ("-1", 0, "flow must be finite and non-negative, got -1"),
    ("abc", 2, "could not convert string to float: 'abc'"),
], ids=["nan", "minus-inf", "negative", "text-after-notes"])
def test_evaluate_rejects_a_bad_flow_at_its_file_line(tmp_path, flow, notes, problem):
    gen_out = tmp_path / "gen"
    proc = run_cli("synthesize", "--config", CONFIG, "--output_dir", str(gen_out),
                   "--source", "s1", "--start", "2019-02-11", "--end", "2019-02-11",
                   "--method", "copy")
    assert proc.returncode == 0, proc.stderr
    generated = gen_out / "generated_days.csv"
    lines = read_lines(generated)
    fields = lines[2 + 5].split(",")
    assert fields[:4] == ["s1", "2019-02-11", "copy", "5"]
    fields[4] = flow
    lines[2 + 5] = ",".join(fields)
    # comment lines after the hash line shift every row down
    lines[1:1] = ["# a note"] * notes
    generated.write_text("\n".join(lines) + "\n", encoding="utf-8")
    eval_out = tmp_path / "eval"
    proc = run_cli("evaluate", "--config", CONFIG, "--output_dir", str(eval_out),
                   "--generated", str(generated), "--target", "s2")
    assert proc.returncode == 2, proc.stderr
    assert stderr_error(proc) == {
        "error": "InputError",
        "exit_code": 2,
        "message": f"{generated} row {8 + notes}: {problem}",
    }
    assert not eval_out.exists()


# ---------------------------------------------------------------------------
# estimate (end to end)
# ---------------------------------------------------------------------------

def test_estimate_end_to_end(tmp_path):
    out = tmp_path / "out"
    proc = run_cli(
        "estimate",
        "--config",
        CONFIG,
        "--output_dir",
        str(out),
        "--lat",
        "40.4500",
        "--lon",
        "-3.6900",
        "--date",
        "2019-01-16",
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(out)) == ["estimate.json", "generated_day.csv"]
    doc = json.loads((out / "estimate.json").read_text(encoding="utf-8"))
    assert list(doc)[0] == "config_hash"
    assert doc["selected_source"] in {f"s{i}" for i in range(1, 9)}
    assert doc["method"] == "cluster"
    assert doc["fallback_used"] == "none"
    assert 0.0 <= doc["similarity_pct"] <= 100.0
    rows = [line.split(",") for line in read_lines(out / "generated_day.csv")[2:]]
    assert len(rows) == 96
    assert all(r[0] == "target" and r[1] == "2019-01-16" for r in rows)
    assert all(float(r[4]) >= 0.0 for r in rows)


def test_estimate_bad_date_exits_2(tmp_path):
    proc = run_cli(
        "estimate",
        "--config",
        CONFIG,
        "--output_dir",
        str(tmp_path / "o"),
        "--lat",
        "40.45",
        "--lon",
        "-3.69",
        "--date",
        "not-a-date",
    )
    assert proc.returncode == 2
    assert stderr_error(proc)["error"] == "ArgumentError"


@pytest.mark.parametrize(
    "command", [["select"], ["estimate", "--date", "2019-01-16"]], ids=["select", "estimate"]
)
def test_sensor_named_target_exits_2(tmp_path, command):
    with open(os.path.join(FIXTURE_DIR, "sensors.csv"), encoding="utf-8") as fh:
        text = fh.read()
    assert "\ns3," in text
    sensors = tmp_path / "sensors.csv"
    sensors.write_text(text.replace("\ns3,", "\ntarget,"), encoding="utf-8")
    out = tmp_path / "out"
    proc = run_cli(
        *command,
        "--config",
        CONFIG,
        "--sensors_path",
        str(sensors),
        "--output_dir",
        str(out),
        "--lat",
        "40.4500",
        "--lon",
        "-3.6900",
    )
    assert proc.returncode == 2
    err = stderr_error(proc)
    assert err["error"] == "ArgumentError"
    assert err["message"] == "sensor id 'target' clashes with the target placeholder"
    assert not out.exists()


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def test_benchmark_outputs(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("benchmark", "--config", CONFIG, "--output_dir", str(out))
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(out)) == [
        "generation_errors.csv",
        "report.json",
        "selection.csv",
        "summary.csv",
    ]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert list(report)[0] == "config_hash"
    assert len(report["targets"]) == 8
    summary = read_lines(out / "summary.csv")
    assert summary[1] == "target_id,method,mean_nrmse,std_nrmse,road_type,best_methods"
    assert len(summary) == 2 + 8 * 2  # two methods per target
    assert "benchmark: 8 targets" in proc.stdout


def test_benchmark_alpha_sets_the_critical_difference(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("benchmark", "--config", CONFIG, "--output_dir", str(out), "--alpha", "0.01")
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["config"]["alpha"] == 0.01
    q = NormalDist().inv_cdf(0.995)
    for target in report["targets"]:
        gen = target["generation"]
        cd = gen["nemenyi"]["critical_difference"]
        assert cd == pytest.approx(q / math.sqrt(gen["days_in_rank_test"]), rel=1e-5)


def test_config_with_nemenyi_q_exits_2(tmp_path):
    with open(CONFIG, encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("osm_path", "sensors_path", "traffic_dir", "holidays_path"):
        doc[key] = os.path.join(FIXTURE_DIR, doc[key])
    doc["nemenyi_q"] = {"2": 2.575829}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_cli("benchmark", "--config", str(config), "--output_dir", str(tmp_path / "out"))
    assert proc.returncode == 2
    err = stderr_error(proc)
    assert err["error"] == "ArgumentError"
    assert "nemenyi_q" in err["message"]
    assert not (tmp_path / "out").exists()
