"""The package imports only the stdlib and its declared runtime dependencies."""
import ast
import os
import re
import subprocess
import sys

import pytest

from conftest import FIXTURE_DIR

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
PACKAGE_DIR = os.path.join(ROOT, "src", "roadtwin")


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", probe, "benchmark",
         "--config", os.path.join(FIXTURE_DIR, "config.json"),
         "--output_dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 []"
    assert os.path.isfile(tmp_path / "out" / "report.json")


def test_cli_import_loads_no_element_tree():
    # the OSM extract is stream-parsed with expat; no XML tree module loads
    probe = (
        "import sys\n"
        "import roadtwin.cli\n"
        "print(sorted(m for m in sys.modules if m == 'xml.etree' or m.startswith('xml.etree.')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv,
         "--config", os.path.join(FIXTURE_DIR, "config.json"),
         "--output_dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 []"


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv,
         "--config", os.path.join(FIXTURE_DIR, "config.json"),
         "--output_dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 []"


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
    "graph_to_csv", "parse_osm_extract",
    "CentralNode", "Edge", "EgoGraph", "ego_graph", "insert_central_node",
    "SelectionResult", "embedding_distance", "select_by_embedding", "select_by_geography",
    "similarity_percent",
    "HolidayCalendar", "TrafficProfile", "TrafficSeries", "clean_series", "daily_profile",
    "load_traffic_csv", "mean_weekday_flow", "slice_day",
}


def test_public_names_are_the_imported_ones():
    import roadtwin

    assert len(roadtwin.__all__) == len(PUBLIC_NAMES) == 57
    assert set(roadtwin.__all__) == PUBLIC_NAMES
    # each name is its home module's object, not a copy or a module
    with open(os.path.join(PACKAGE_DIR, "__init__.py"), "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    homes = {alias.name: node.module for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert set(homes) == PUBLIC_NAMES - {"__version__"}
    for name, module in homes.items():
        home = sys.modules[f"roadtwin.{module}"]
        assert getattr(roadtwin, name) is getattr(home, name), name


def test_cli_import_order_and_no_logging(tmp_path):
    # every module compiles from source when no bytecode cache is written,
    # and peak memory then moves with the order modules first load in
    probe = (
        "import sys\n"
        "import roadtwin.cli\n"
        "order = [m for m in sys.modules if m == 'roadtwin' or m.startswith('roadtwin.')]\n"
        "rc = roadtwin.cli.main(sys.argv[1:])\n"
        "print(order)\n"
        "print(rc, 'logging' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", probe, "benchmark",
         "--config", os.path.join(FIXTURE_DIR, "config.json"),
         "--output_dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    order, result = out.stdout.splitlines()[-2:]
    assert ast.literal_eval(order) == [
        f"roadtwin.{m}" if m else "roadtwin" for m in (
            "errors", "geo", "road_graph", "traffic_data", "osm_ingest", "embedding",
            "selection", "config", "generation", "evaluation", "", "output", "pipeline",
            "svgplot", "cli",
        )
    ]
    assert result == "0 False"
