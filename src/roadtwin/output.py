"""Deterministic report writing.

Reports use 6-significant-digit shortest float formatting so repeated
runs diff byte-for-byte; every file carries the config hash (CSV: a
leading ``# config_hash=...`` comment; JSON: a top-level key).  A staging
directory makes writes all-or-nothing: partial outputs of a failed run
never reach the output directory.
"""
from __future__ import annotations

import csv
import json
import math
import os
import shutil
import tempfile

from .errors import FormatError, InputError, read_text


def fmt(x) -> str:
    """Render one value for CSV output (floats at 6 significant digits)."""
    if isinstance(x, float):
        if math.isnan(x):
            return ""
        return format(x, ".6g")
    if x is None:
        return ""
    return str(x)


def round6(x: float) -> float:
    """Float rounded to 6 significant digits (for JSON payloads)."""
    if x is None or isinstance(x, bool):
        return x
    if math.isnan(x):
        return None
    if math.isinf(x):
        return x
    return float(format(x, ".6g"))


def write_csv(path: str, header: list[str], rows, config_hash: str | None = None):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if config_hash:
            fh.write(f"# config_hash={config_hash}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(v) for v in row])


def read_csv(path: str) -> tuple[str | None, list[str], list[list[str]], int]:
    """Read a report CSV back: (config_hash, header, rows, line number of rows[0])."""
    text = read_text(path, path)
    config_hash = None
    lines = text.splitlines()
    body_start = 0
    for i, line in enumerate(lines):
        if line.startswith("#"):
            if line.startswith("# config_hash="):
                config_hash = line.split("=", 1)[1].strip()
            body_start = i + 1
        else:
            break
    rows = list(csv.reader(lines[body_start:]))
    if not rows:
        raise FormatError(f"{path} holds no CSV header")
    return config_hash, rows[0], rows[1:], body_start + 2


def write_json(path: str, payload: dict, config_hash: str | None = None):
    doc = dict(payload)
    if config_hash:
        doc = {"config_hash": config_hash, **payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False, allow_nan=False)
        fh.write("\n")


def check_config_hash(found: str | None, expected: str, source: str):
    if found != expected:
        raise InputError(
            f"{source} was produced under config hash {found}; current config hashes to "
            f"{expected}. Re-run the producing step or adjust the config."
        )


class OutputStage:
    """Stage files in a temp dir; commit moves them into the output dir.

    On error the stage is discarded, leaving previously committed files
    untouched and never exposing partial output.
    """

    def __init__(self, output_dir: str):
        self.output_dir = output_dir
        self._tmp = None

    def __enter__(self) -> "OutputStage":
        os.makedirs(self.output_dir, exist_ok=True)
        self._tmp = tempfile.mkdtemp(prefix=".stage-", dir=self.output_dir)
        return self

    def path(self, name: str) -> str:
        return os.path.join(self._tmp, name)

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                for name in sorted(os.listdir(self._tmp)):
                    os.replace(
                        os.path.join(self._tmp, name), os.path.join(self.output_dir, name)
                    )
        finally:
            shutil.rmtree(self._tmp, ignore_errors=True)
        return False
