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
