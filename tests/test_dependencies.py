"""The package imports only the stdlib and its declared runtime dependencies."""
import ast
import importlib
import json
import os
import re
import subprocess
import sys
import types

import pytest

from conftest import FIXTURE_DIR

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
PACKAGE_DIR = os.path.join(ROOT, "src", "roadtwin")


CONFIG = os.path.join(FIXTURE_DIR, "config.json")


def run_probe(probe, *argv):
    """Run ``probe`` in a fresh interpreter that imports roadtwin from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def imported_top_level_modules(path):
    """Top-level names of every absolute import in a file, lazy ones included."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_dependencies():
    """Distribution names in pyproject.toml's [project] dependencies."""
    path = os.path.join(ROOT, "pyproject.toml")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.S | re.M).group(1)
        requirements = re.findall(r"[\"']([^\"']+)[\"']", block)
    else:
        with open(path, "rb") as fh:
            requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower().replace("-", "_")
            for r in requirements}


def test_third_party_imports_are_the_declared_dependencies():
    third_party = set()
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            third_party |= imported_top_level_modules(os.path.join(PACKAGE_DIR, name))
    third_party -= set(sys.stdlib_module_names) | {"roadtwin"}
    assert third_party == declared_dependencies() == {"numpy"}


@pytest.mark.parametrize("prelude", ["", "sys.modules['scipy'] = None"],
                         ids=["scipy_importable", "scipy_blocked"])
def test_benchmark_runs_without_loading_scipy(tmp_path, prelude):
    # sys.modules['scipy'] = None makes every later `import scipy` raise
    probe = (
        "import sys\n"
        f"{prelude}\n"
        "from roadtwin.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "loaded = [m for m, mod in sys.modules.items()\n"
        "          if mod is not None and (m == 'scipy' or m.startswith('scipy.'))]\n"
        "print(rc, loaded)\n"
    )
    lines = run_probe(probe, "benchmark", "--config", CONFIG,
                      "--output_dir", str(tmp_path / "out"))
    assert lines[-1] == "0 []"
    assert os.path.isfile(tmp_path / "out" / "report.json")


def test_cli_import_loads_no_element_tree():
    # the OSM extract is stream-parsed with expat; no XML tree module loads
    probe = (
        "import sys\n"
        "import roadtwin.cli\n"
        "print(sorted(m for m in sys.modules if m == 'xml.etree' or m.startswith('xml.etree.')))\n"
    )
    assert run_probe(probe)[-1] == "[]"


@pytest.mark.parametrize("argv", [["embed"], ["profile"], ["benchmark"]], ids=lambda a: a[0])
def test_subcommands_load_no_numpy_ma(tmp_path, argv):
    # np.median and np.unique import numpy.ma on first use, which costs
    # more than the work they do here
    probe = (
        "import sys\n"
        "from roadtwin.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(rc, sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    assert run_probe(probe, *argv, "--config", CONFIG,
                     "--output_dir", str(tmp_path / "out"))[-1] == "0 []"


@pytest.mark.parametrize("argv", [["embed"], ["profile"]], ids=lambda a: a[0])
def test_subcommands_without_rank_tests_load_no_statistics(tmp_path, argv):
    # statistics imports fractions and decimal; only the k = 2 Nemenyi
    # critical value needs it
    probe = (
        "import sys\n"
        "from roadtwin.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(rc, sorted(m for m in ('statistics', 'fractions', 'decimal') if m in sys.modules))\n"
    )
    assert run_probe(probe, *argv, "--config", CONFIG,
                     "--output_dir", str(tmp_path / "out"))[-1] == "0 []"


def _import_roadtwin_report(env_value):
    """OPENBLAS_NUM_THREADS and the thread count of a fresh interpreter after ``import roadtwin``."""
    probe = (
        "import os\n"
        "import roadtwin\n"
        "threads = None\n"
        "if os.path.exists('/proc/self/status'):\n"
        "    with open('/proc/self/status') as fh:\n"
        "        threads = [int(l.split()[1]) for l in fh if l.startswith('Threads:')][0]\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), threads)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("OPENBLAS_NUM_THREADS", None)
    if env_value is not None:
        env["OPENBLAS_NUM_THREADS"] = env_value
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    value, threads = out.stdout.split()
    return value, None if threads == "None" else int(threads)


def test_import_defaults_openblas_to_one_thread():
    value, threads = _import_roadtwin_report(None)
    assert value == "1"
    if threads is not None:
        assert threads == 1


def test_import_keeps_a_user_set_openblas_thread_count():
    value, _ = _import_roadtwin_report("3")
    assert value == "3"


BLAS_NAMES = {"dot", "matmul", "einsum", "inner", "tensordot", "vdot", "linalg"}


def test_package_makes_no_blas_call():
    # the one-thread OpenBLAS default in roadtwin/__init__.py costs nothing
    # only while no code reaches BLAS; a new use has to revisit that default
    found = []
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE_DIR, name)
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.MatMult):
                found.append((name, "@"))
            elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
                found.append((name, node.attr))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                parts = {p for a in node.names for p in a.name.split(".")}
                parts |= set((getattr(node, "module", None) or "").split("."))
                found.extend((name, p) for p in sorted(parts & BLAS_NAMES))
    assert found == []


PUBLIC_NAMES = {
    "__version__",
    "PipelineConfig", "load_config",
    "EMBEDDING_DIMS", "RoadEmbedding", "betweenness", "build_embedding", "normalize_pool",
    "road_type_code", "travel_time_to_class",
    "ArgumentError", "AvailabilityError", "DomainError", "FormatError", "InputError",
    "ParseError", "RoadTwinError", "SnapError", "StructuralError",
    "friedman_test", "generation_benchmark", "nemenyi_posthoc", "nrmse", "rmse",
    "selection_benchmark",
    "ClusterModel", "GeneratedDay", "day_class", "fit_cluster_model", "generate_cluster",
    "generate_copy", "generator",
    "HighwayClass", "RadiusView", "RawRoadData", "build_graph", "default_speed",
    "parse_osm_extract",
    "CentralNode", "Edge", "EgoGraph", "ego_graph", "insert_central_node",
    "SelectionResult", "embedding_distance", "select_by_embedding", "select_by_geography",
    "similarity_percent",
    "HolidayCalendar", "TrafficProfile", "TrafficSeries", "clean_series", "daily_profile",
    "load_traffic_csv", "mean_weekday_flow", "slice_day",
}


def test_public_names_are_the_imported_ones():
    import roadtwin

    assert len(roadtwin.__all__) == len(PUBLIC_NAMES) == 56
    assert set(roadtwin.__all__) == PUBLIC_NAMES
    # each name is its home module's object, not a copy or a module
    homes = {name: home for home, names in roadtwin._HOMES for name in names}
    assert roadtwin.__all__ == ["__version__", *homes]
    for name, home in homes.items():
        module = importlib.import_module(home, "roadtwin")
        assert getattr(roadtwin, name) is getattr(module, name), name
        assert not isinstance(getattr(module, name), types.ModuleType), name
    with pytest.raises(AttributeError, match="no_such_name"):
        roadtwin.no_such_name
    namespace = {}
    exec("from roadtwin import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(roadtwin.__all__)


ROADTWIN_MODULES = (
    "import sys\n"
    "def roadtwin_modules():\n"
    "    return [m for m in sys.modules if m == 'roadtwin' or m.startswith('roadtwin.')]\n"
)


def test_bare_import_loads_no_submodule_and_no_numpy():
    probe = ROADTWIN_MODULES + (
        "import os\n"
        "import roadtwin\n"
        "print(roadtwin_modules(), 'numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    assert run_probe(probe)[-1] == "['roadtwin'] False 1"


GRAPH_LAYER = ("roadtwin.osm_ingest", "roadtwin.road_graph", "roadtwin.embedding",
               "roadtwin.selection", "roadtwin.evaluation", "pyexpat")


def test_profile_and_synthesize_load_no_graph_layer(tmp_path):
    # each argument is one command's argv, as JSON
    probe = (
        "import json, sys\n"
        "from roadtwin.cli import main\n"
        "print([main(json.loads(argv)) for argv in sys.argv[1:]],\n"
        f"      [m for m in {GRAPH_LAYER!r} if m in sys.modules])\n"
    )
    profile = ["profile", "--config", CONFIG, "--output_dir", str(tmp_path / "profile")]
    synthesize = ["synthesize", "--config", CONFIG, "--output_dir", str(tmp_path / "synth"),
                  "--source", "s1", "--start", "2019-12-18", "--end", "2019-12-20"]
    assert run_probe(probe, json.dumps(profile), json.dumps(synthesize))[-1] == "[0, 0] []"
    assert os.listdir(tmp_path / "profile") and os.listdir(tmp_path / "synth")


def test_functions_set_before_the_graph_layer_loads_are_the_ones_called(tmp_path):
    # perfbench/spans.py rebinds cli.parse_osm_extract and pipeline.ego_graph
    # (among others) before cli.main runs; loading the graph layer must not
    # bind the real functions over them
    probe = (
        "import importlib, sys\n"
        "from roadtwin import cli, pipeline\n"
        f"assert not [m for m in {GRAPH_LAYER!r} if m in sys.modules]\n"
        "calls = {}\n"
        "def counting(home, name):\n"
        "    def call(*args, **kwargs):\n"
        "        calls[name] = calls.get(name, 0) + 1\n"
        "        return getattr(importlib.import_module(home), name)(*args, **kwargs)\n"
        "    return call\n"
        "cli.parse_osm_extract = counting('roadtwin.osm_ingest', 'parse_osm_extract')\n"
        "pipeline.ego_graph = counting('roadtwin.road_graph', 'ego_graph')\n"
        "print(cli.main(sys.argv[1:]), calls['parse_osm_extract'], calls['ego_graph'])\n"
    )
    patched, plain = tmp_path / "patched", tmp_path / "plain"
    assert run_probe(probe, "embed", "--config", CONFIG,
                     "--output_dir", str(patched))[-1] == "0 1 8"
    from roadtwin.cli import main

    assert main(["embed", "--config", CONFIG, "--output_dir", str(plain)]) == 0
    with open(patched / "embeddings.csv", "rb") as a, open(plain / "embeddings.csv", "rb") as b:
        assert a.read() == b.read()


def test_cli_import_order_and_no_logging(tmp_path):
    # every module compiles from source when no bytecode cache is written,
    # and peak memory then moves with the order modules first load in; the
    # graph layer loads as one block when a handler that uses it starts
    probe = ROADTWIN_MODULES + (
        "import roadtwin.cli\n"
        "order = roadtwin_modules()\n"
        "rc = roadtwin.cli.main(sys.argv[1:])\n"
        "print(order)\n"
        "print(roadtwin_modules()[len(order):])\n"
        "print(rc, 'logging' in sys.modules)\n"
    )
    lines = run_probe(probe, "benchmark", "--config", CONFIG,
                      "--output_dir", str(tmp_path / "out"))
    order, in_handler, result = lines[-3:]
    assert ast.literal_eval(order) == [
        f"roadtwin.{m}" if m else "roadtwin" for m in (
            "", "errors", "traffic_data", "generation", "config", "geo", "output", "pipeline",
            "svgplot", "cli",
        )
    ]
    assert ast.literal_eval(in_handler) == [
        f"roadtwin.{m}" for m in ("road_graph", "osm_ingest", "embedding", "selection",
                                  "evaluation")
    ]
    assert result == "0 False"
