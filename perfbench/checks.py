"""Output checks for each workload, written against the file formats alone.

Each checker takes an output directory and the expectations from the
generated inputs and returns a list of problems; an empty list means the
outputs pass.  ``digest`` fingerprints a whole output directory so runs
can be compared byte for byte.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os

EMBED_HEADER = ["sensor_id"] + [f"f{i}" for i in range(1, 8)] + [f"n{i}" for i in range(1, 8)]
PROFILE_HEADER = ["slot_index", "time_of_day", "median_flow", "stdev"]
SUMMARY_HEADER = ["target_id", "method", "mean_nrmse", "std_nrmse", "road_type", "best_methods"]
DAILY_ERRORS_HEADER = ["target_id", "date", "method", "nrmse"]
SELECTION_HEADER = ["target_id", "rank", "sensor_id", "distance", "similarity_pct", "method"]
GENERATION_METHODS = ("cluster", "copy")
SLOTS = 96


def digest(out_dir: str) -> str:
    """SHA-256 over every file name and its bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _files(out_dir: str, expected: set[str]) -> list[str]:
    found = set(os.listdir(out_dir)) if os.path.isdir(out_dir) else set()
    problems = [f"missing {name}" for name in sorted(expected - found)]
    problems += [f"unexpected {name}" for name in sorted(found - expected)]
    return problems


def _read_csv(path: str, header: list[str], config_hash: str, problems: list[str]):
    """Rows of a hash-stamped CSV, or None after recording why it is unusable."""
    name = os.path.basename(path)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            first = fh.readline()
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        problems.append(f"{name}: unreadable ({exc})")
        return None
    if first != f"# config_hash={config_hash}\n":
        problems.append(f"{name}: config hash line {first.strip()!r} != {config_hash}")
        return None
    if not rows or rows[0] != header:
        problems.append(f"{name}: bad header {rows[0] if rows else 'none'}")
        return None
    body = rows[1:]
    for lineno, row in enumerate(body, start=3):
        if len(row) != len(header):
            problems.append(f"{name} line {lineno}: {len(row)} fields, want {len(header)}")
            return None
    return body


def _unit_float(text: str) -> bool:
    try:
        return 0.0 <= float(text) <= 1.0
    except ValueError:
        return False


def check_embed(out_dir: str, sensor_ids: list[str], config_hash: str) -> list[str]:
    """One embedding row per sensor, in id order, with n1..n7 in [0, 1]."""
    problems = _files(out_dir, {"embeddings.csv"})
    if problems:
        return problems
    rows = _read_csv(os.path.join(out_dir, "embeddings.csv"), EMBED_HEADER, config_hash, problems)
    if rows is None:
        return problems
    if [r[0] for r in rows] != sorted(sensor_ids):
        problems.append(f"embeddings.csv: {len(rows)} rows do not match the {len(sensor_ids)} sensors")
    for row in rows:
        if not all(_unit_float(v) for v in row[8:]):
            problems.append(f"embeddings.csv: {row[0]} has a normalized feature outside [0, 1]")
        try:
            [float(v) for v in row[1:8]]
        except ValueError:
            problems.append(f"embeddings.csv: {row[0]} has a non-numeric raw feature")
    return problems


def check_loo(out_dir: str, sensor_ids: list[str], config_hash: str) -> list[str]:
    """Leave-one-out report: every sensor is a target and the tally adds up."""
    names = {"report.json", "summary.csv", "generation_errors.csv", "selection.csv"}
    problems = _files(out_dir, names)
    if problems:
        return problems
    n = len(sensor_ids)
    try:
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"report.json: unreadable ({exc})"]
    if report.get("config_hash") != config_hash:
        problems.append(f"report.json: config_hash {report.get('config_hash')} != {config_hash}")
    targets = report.get("targets", [])
    if [t.get("target_id") for t in targets] != sorted(sensor_ids):
        problems.append(f"report.json: {len(targets)} targets do not match the {n} sensors")
    tally = report.get("selection_tally", {})
    if sum(tally.values()) != n:
        problems.append(f"report.json: selection tally {tally} does not sum to {n}")

    summary = _read_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_HEADER, config_hash, problems)
    if summary is not None and len(summary) != n * len(GENERATION_METHODS):
        problems.append(f"summary.csv: {len(summary)} rows, want {n * len(GENERATION_METHODS)}")
    selection = _read_csv(
        os.path.join(out_dir, "selection.csv"), SELECTION_HEADER, config_hash, problems
    )
    if selection is not None and len(selection) != 2 * n * (n - 1):
        problems.append(f"selection.csv: {len(selection)} rows, want {2 * n * (n - 1)}")
    daily = _read_csv(
        os.path.join(out_dir, "generation_errors.csv"), DAILY_ERRORS_HEADER, config_hash, problems
    )
    if daily is not None and {r[0] for r in daily} != set(sensor_ids):
        problems.append("generation_errors.csv: does not cover every target")
    return problems


def check_profile(out_dir: str, sensor_ids: list[str], config_hash: str) -> list[str]:
    """A 96-slot profile CSV and an SVG plot per sensor."""
    names = {f"profile_{sid}.{ext}" for sid in sensor_ids for ext in ("csv", "svg")}
    problems = _files(out_dir, names)
    if problems:
        return problems
    for sid in sensor_ids:
        rows = _read_csv(
            os.path.join(out_dir, f"profile_{sid}.csv"), PROFILE_HEADER, config_hash, problems
        )
        if rows is not None and [r[0] for r in rows] != [str(i) for i in range(SLOTS)]:
            problems.append(f"profile_{sid}.csv: {len(rows)} rows, want slots 0..{SLOTS - 1}")
        with open(os.path.join(out_dir, f"profile_{sid}.svg"), "rb") as fh:
            svg = fh.read()
        if not (svg.startswith(b"<svg") and svg.rstrip().endswith(b"</svg>")):
            problems.append(f"profile_{sid}.svg: not an SVG document")
    return problems
