"""The repository scripts: the fixture generator and the line counter."""
import os
import subprocess
import sys

from conftest import FIXTURE_DIR

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def run_script(name, *args):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args],
                          capture_output=True, text=True, timeout=120, check=True)


def tree_bytes(root):
    """{relative path: file bytes} of every file under ``root``."""
    files = {}
    for parent, _, names in os.walk(root):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def test_make_minicity_regenerates_the_fixture_byte_for_byte(tmp_path):
    run_script("make_minicity.py", str(tmp_path))
    want = tree_bytes(FIXTURE_DIR)
    got = tree_bytes(tmp_path)
    assert sorted(got) == sorted(want)
    assert [name for name in sorted(want) if got[name] != want[name]] == []


SAMPLE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment does not hide code


def f(x):
    """Function docstring."""
    return (x +
            1)


class C:
    """Class docstring."""

    y = """a string that is not the leading one"""
'''


def test_loc_counts_code_lines_only(tmp_path):
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "b.py").write_text("\nx = 1\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    out = run_script("loc.py", str(tmp_path)).stdout.splitlines()
    # import, def, the two lines of the return, class, y
    assert out == [
        f"      6  {tmp_path / 'a.py'}",
        f"      1  {tmp_path / 'b.py'}",
        "      7  total",
    ]


def test_loc_names_splits_each_file_by_top_level_name(tmp_path):
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "import functools\n\n\n@functools.cache\ndef g():\n    return 1\n\n\nx = g()\n",
        encoding="utf-8",
    )
    out = run_script("loc.py", "--names", str(tmp_path)).stdout.splitlines()
    # the per-name counts of a file add up to its plain count
    assert out == [
        f"      3  {tmp_path / 'a.py'}::f",
        f"      2  {tmp_path / 'a.py'}::C",
        f"      1  {tmp_path / 'a.py'}::<module>",
        f"      3  {tmp_path / 'b.py'}::g",
        f"      2  {tmp_path / 'b.py'}::<module>",
        "     11  total",
    ]
