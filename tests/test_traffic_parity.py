"""The array-pass traffic parser and cleaner against their loop oracles.

``load_traffic_rowwise`` and ``clean_series_loop`` in ``oracles.py`` are
the former row-by-row parser and slot-by-slot cleaner.  The production
code must give byte-identical series and equal ``CleaningStats``, and
the same exception type and message (row number included) on bad input.
"""
from __future__ import annotations

import os
import subprocess
import sys
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import make_series
from oracles import clean_series_loop, load_traffic_rowwise
from roadtwin import traffic_data
from roadtwin.errors import FormatError
from roadtwin.traffic_data import (
    QUALITY_MISSING,
    TrafficSeries,
    clean_series,
    daily_profile,
    load_traffic_csv,
)

HEADER = "sensor_id,timestamp,flow\n"


def series_bytes(s: TrafficSeries):
    return (s.sensor_id, s.interval_min, s.start_date, s.flows.dtype, s.flows.tobytes(),
            s.quality.dtype, s.quality.tobytes(), s.flows.shape)


def outcome(fn, *args, **kwargs):
    """('ok', comparable result) or (exception type, message)."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # the parity tests compare whatever is raised
        return type(exc), str(exc)
    if isinstance(result, TrafficSeries):
        return "ok", series_bytes(result)
    return "ok", [(sid, series_bytes(s)) for sid, s in result.items()]


def assert_parse_parity(text, interval_min=15):
    got = outcome(load_traffic_csv, text, interval_min)
    want = outcome(load_traffic_rowwise, text, interval_min)
    assert got == want
    return got


def block_fallback(monkeypatch):
    """Make the row loop fail loudly, to prove a text takes the array path."""
    def refuse(*args):
        raise AssertionError("row loop used for a canonical file")

    monkeypatch.setattr(traffic_data, "_parse_rows", refuse)


# ---------------------------------------------------------------------------
# parse: the array path
# ---------------------------------------------------------------------------

def test_fixture_files_take_the_array_path_and_match_the_oracle(minicity_dir, monkeypatch):
    texts = []
    for name in sorted(os.listdir(os.path.join(minicity_dir, "traffic"))):
        with open(os.path.join(minicity_dir, "traffic", name), newline="") as fh:
            texts.append(fh.read())
    want = [outcome(load_traffic_rowwise, t) for t in texts]
    block_fallback(monkeypatch)
    assert [outcome(load_traffic_csv, t) for t in texts] == want
    assert all(w[0] == "ok" for w in want)


def test_combined_file_groups_rows_per_sensor(monkeypatch):
    rows = [
        "b,2019-01-08T00:15:00,4", "a,2019-01-07T23:45:00,1",
        "b,2019-01-07T00:00:00,3", "a,2019-01-09T00:00:00,2",
        "c,2019-01-07T12:00:00,5",
    ]
    text = HEADER + "\n".join(rows) + "\n"
    want = outcome(load_traffic_rowwise, text)
    block_fallback(monkeypatch)
    got = outcome(load_traffic_csv, text)
    assert got == want
    assert [sid for sid, _ in got[1]] == ["a", "b", "c"]


def test_repeated_timestamp_leaves_the_array_path():
    # a's repeat is two rows apart, with b's equal timestamp between them
    rows = ["a,2019-01-07T00:15:00,1", "a,2019-01-07T00:00:00,2",
            "b,2019-01-07T00:15:00,4", "a,2019-01-07T00:15:00,3"]
    text = HEADER + "\n".join(rows)  # no final newline
    assert traffic_data._parse_canonical(text, 15) is None
    got = assert_parse_parity(text)
    assert got == (FormatError, "traffic CSV row 5: duplicate timestamp 2019-01-07T00:15:00")


@given(st.lists(st.dates(min_value=date(1, 1, 1), max_value=date(9999, 12, 31)),
                min_size=1, max_size=40))
def test_day_arithmetic_matches_the_calendar(days):
    # one sensor per date keeps every grid one day long
    rows = [f"s{i},{d.isoformat()}T00:00:00,{i}" for i, d in enumerate(days)]
    got = traffic_data._parse_canonical(HEADER + "\n".join(rows) + "\n", 15)
    assert got is not None
    assert [got[f"s{i}"].start_date for i in range(len(days))] == days


# canonical rows and the non-canonical forms fromisoformat also accepts
TIME_FORMS = [
    lambda t: t.strftime("%Y-%m-%dT%H:%M:%S"),
    lambda t: t.strftime("%Y-%m-%dT%H:%M"),
    lambda t: t.strftime("%Y-%m-%d %H:%M:%S"),
    lambda t: t.strftime("%Y-%m-%dT%H:%M:%S.000"),
    lambda t: t.strftime("%Y%m%dT%H%M%S"),
]
FLOW_FORMS = [str, lambda v: f"{v}.0", lambda v: f"{v}e0", lambda v: f" {v}"]


@st.composite
def traffic_texts(draw, canonical_only=False):
    base = datetime.combine(
        draw(st.dates(min_value=date(1000, 1, 1), max_value=date(9999, 12, 25))),
        datetime.min.time(),
    )
    rows = []
    for _ in range(draw(st.integers(1, 40))):
        sid = draw(st.sampled_from(["a", "b", "sensor-7"]))
        t = base + timedelta(minutes=15 * draw(st.integers(0, 4 * 96)))
        if canonical_only:
            ts, flow = TIME_FORMS[0](t), str(draw(st.integers(0, 500)))
        else:
            ts = draw(st.sampled_from(TIME_FORMS))(t)
            flow = draw(st.sampled_from(FLOW_FORMS))(draw(st.integers(0, 500)))
        rows.append(f"{sid},{ts},{flow}")
    return HEADER + "\n".join(rows) + draw(st.sampled_from(["", "\n", "\n\n"]))


@given(traffic_texts())
def test_mixed_forms_parse_like_the_oracle(text):
    assert_parse_parity(text, 15)


@given(traffic_texts(canonical_only=True), st.sampled_from([15, 30, 60]))
def test_canonical_texts_parse_like_the_oracle(text, interval_min):
    # off-grid rows at 30/60 min and duplicates fall back and raise
    assert_parse_parity(text, interval_min)


# ---------------------------------------------------------------------------
# parse: error parity, row numbers included
# ---------------------------------------------------------------------------

GOOD = "a,2019-01-07T00:00:00,1"

ERROR_CASES = {
    "year 0000": [GOOD, "a,0000-01-07T00:15:00,1"],
    "Feb 29 of a common year": [GOOD, "a,2019-02-29T00:00:00,1"],
    "Feb 29 of a leap year": [GOOD, "a,2020-02-29T00:00:00,1"],
    "Feb 29 of 1900": [GOOD, "a,1900-02-29T00:00:00,1"],
    "Feb 29 and Mar 1 of 2000": ["a,2000-02-29T00:00:00,1", "a,2000-03-01T00:00:00,1"],
    "Mar 1 of 1600 and 2400": ["a,1600-03-01T00:00:00,1", "b,2400-03-01T00:00:00,1"],
    "colon as a year digit": ["a,201:-01-07T00:00:00,1"],
    "letter as a day digit": ["a,2019-01-0aT00:00:00,1"],
    "colon as a minute digit": ["a,2019-01-07T00:1:00,1"],
    "month 13": ["a,2019-13-01T00:00:00,1"],
    "day 32": ["a,2019-01-32T00:00:00,1"],
    "hour 24": [GOOD, "a,2019-01-07T24:00:00,1"],
    "minute 60": ["a,2019-01-07T00:60:00,1"],
    "second 60": ["a,2019-01-07T00:00:60,1"],
    "nonzero second": ["a,2019-01-07T00:15:30,1"],
    "Z suffix": [GOOD, "a,2019-01-07T00:15:00Z,1"],
    "+01:00 suffix": [GOOD, "a,2019-01-07T00:15:00+01:00,1"],
    "unpadded month": ["a,2019-1-07T00:00:00,1"],
    "slash date": ["a,07/01/2019 00:00,1"],
    "flow nan": [GOOD, "a,2019-01-07T00:15:00,nan"],
    "flow inf": [GOOD, "a,2019-01-07T00:15:00,inf"],
    "flow -1": [GOOD, "a,2019-01-07T00:15:00,-1"],
    "flow 1_000": [GOOD, "a,2019-01-07T00:15:00,1_000"],
    "flow with a space": [GOOD, "a,2019-01-07T00:15:00, 12"],
    "flow -0": ["a,2019-01-07T00:15:00,-0"],
    "flow empty": [GOOD, "a,2019-01-07T00:15:00,"],
    "flow word": [GOOD, "a,2019-01-07T00:15:00,many"],
    "2-field row": [GOOD, "a,2019-01-07T00:15:00"],
    "4-field row": [GOOD, "a,2019-01-07T00:15:00,1,2"],
    "fields shifted across rows": ["a,2019-01-07T00:15:00,1,b", "2019-01-07T00:30:00,2"],
    "off-grid minute": [GOOD, "a,2019-01-07T00:07:00,2"],
    "duplicate": [GOOD, "a,2019-01-07T00:15:00,1", GOOD],
    "blank lines then a bad row": [GOOD, "", "", "a,2019-01-07T00:07:00,2"],
    "whitespace-only line": [GOOD, "  ", "a,2019-01-07T00:15:00,2"],
    "empty id": [",2019-01-07T00:15:00,2"],
    "non-ASCII id": ["Zürich,2019-01-07T00:15:00,2"],
    "non-ASCII digit in a flow": ["a,2019-01-07T00:15:00,٣"],
    "non-ASCII digit in a timestamp": ["a,2019-01-0٧T00:15:00,3"],
}


@pytest.mark.parametrize("rows", ERROR_CASES.values(), ids=ERROR_CASES.keys())
# "error": the case alone; "first": the case followed by an off-grid row,
# which must not displace the case's own first error
@pytest.mark.parametrize("trailer", [[], ["a,2019-01-07T00:07:00,9"]], ids=["error", "first"])
def test_error_parity(rows, trailer):
    assert_parse_parity(HEADER + "\n".join(rows + trailer) + "\n")


WHOLE_TEXTS = {
    "CRLF file": HEADER.replace("\n", "\r\n") + GOOD + "\r\na,2019-01-07T00:15:00,2\r\n",
    "CRLF file with an off-grid row": HEADER.replace("\n", "\r\n") + GOOD
    + "\r\na,2019-01-07T00:10:00,2\r\n",
    "quoted file": '"sensor_id","timestamp","flow"\n"a","2019-01-07T00:00:00","1"\n',
    "quoted comma in an id": HEADER + '"a,b",2019-01-07T00:00:00,1\n',
    "bare CR inside a row": HEADER + "a,2019-01-07T00:00:00,1\rx\n",
    "NUL in an id": HEADER + "a\0,2019-01-07T00:00:00,1\n",
    "leading blank line": "\n" + HEADER + GOOD + "\n",
    "header only": HEADER,
    "header and blank lines": HEADER + "\n\n",
    "blank text": "\n",
    "bad header": "id,when,count\n" + GOOD + "\n",
    "padded header": " sensor_id , timestamp,flow\n" + GOOD + "\n",
    "byte-order mark": "﻿" + HEADER + GOOD + "\n",
}


@pytest.mark.parametrize("text", WHOLE_TEXTS.values(), ids=WHOLE_TEXTS.keys())
def test_whole_text_parity(text):
    assert_parse_parity(text)


@pytest.mark.parametrize("rows", [
    ["a,2019-01-07T00:00:00,1", "b,2019-01-07T00:15:00,2"],
    ["b,2019-01-07T00:00:00,1", "a,2019-01-07T00:15:00,2", "c,2019-01-07T00:30:00,3"],
    ["a,2019-01-07T00:00:00,1", "b,2019-01-07T00:07:00,2"],  # row error comes first
], ids=["two ids", "three ids", "mixed ids and an off-grid row"])
def test_mixed_id_parity(rows):
    assert_parse_parity(HEADER + "\n".join(rows) + "\n")


def test_error_message_names_the_row():
    text = HEADER + GOOD + "\n\na,2019-01-07T00:15:00,-1\n"
    with pytest.raises(FormatError, match=r"^traffic CSV row 4: flow must be finite"):
        load_traffic_csv(text)


# ---------------------------------------------------------------------------
# clean
# ---------------------------------------------------------------------------

BASE = date(2019, 1, 7)


@st.composite
def dirty_series(draw):
    interval = draw(st.sampled_from([60, 180]))
    slots = 1440 // interval
    n_days = draw(st.integers(1, 8))
    cell = st.one_of(
        st.integers(0, 40).map(float),          # ordinary counts
        st.integers(150, 5000).map(float),      # spikes
        st.just(np.nan),                        # missing
        st.floats(0.0, 60.0, allow_nan=False),  # fractional counts
    )
    grid = np.array(draw(st.lists(st.lists(cell, min_size=slots, max_size=slots),
                                  min_size=n_days, max_size=n_days)))
    for slot in draw(st.lists(st.integers(0, slots - 1), max_size=3)):
        grid[:, slot] = np.nan                  # a slot never observed
    for slot in draw(st.lists(st.integers(0, slots - 1), max_size=3)):
        seen = np.flatnonzero(~np.isnan(grid[:, slot]))
        grid[seen[: seen.size // 2 + 1], slot] = 0.0  # a zero median above other values
    days = {BASE + timedelta(days=i): grid[i] for i in range(n_days)}
    return make_series(days, interval_min=interval)


def assert_clean_parity(series, spike_factor, max_gap):
    got, got_stats = clean_series(series, spike_factor, max_gap)
    want, want_stats = clean_series_loop(series, spike_factor, max_gap)
    assert got.flows.tobytes() == want.flows.tobytes()
    assert got.quality.tobytes() == want.quality.tobytes()
    assert got_stats == want_stats
    return got


@given(dirty_series(), st.sampled_from([1.5, 2.0, 5.0]), st.integers(0, 6))
def test_cleaning_matches_the_loop_oracle(series, spike_factor, max_gap):
    once = assert_clean_parity(series, spike_factor, max_gap)
    assert_clean_parity(once, spike_factor, max_gap)  # interpolated slots as input


def test_cleaning_near_the_float_limit_matches_the_oracle():
    # an odd count's median is its middle value, never twice it halved
    values = [9.5e307, 9.5e307, 9.5e307, 1.2e308, 1.2e308]
    series = make_series({BASE + timedelta(days=i): v for i, v in enumerate(values)},
                         interval_min=60)
    assert_clean_parity(series, 1.1, 4)
    assert clean_series(series, 1.1, 4)[1].spikes_removed == 48


def test_cleaning_fills_gaps_across_midnight_like_the_oracle():
    first = np.full(24, 10.0)
    first[21:] = np.nan
    second = np.full(24, 30.0)
    second[0] = np.nan
    series = make_series({BASE: first, BASE + timedelta(days=1): second}, interval_min=60)
    cleaned = assert_clean_parity(series, 5.0, 4)
    assert (cleaned.quality != QUALITY_MISSING).all()


def test_fixture_cleaning_matches_the_oracle(minicity_dir):
    for name in sorted(os.listdir(os.path.join(minicity_dir, "traffic"))):
        for series in load_traffic_csv(os.path.join(minicity_dir, "traffic", name)).values():
            assert_clean_parity(series, 5.0, 4)


# ---------------------------------------------------------------------------
# complete days and imports
# ---------------------------------------------------------------------------

@given(dirty_series())
def test_complete_days_match_the_per_day_test(series):
    assert series.complete_days() == [d for d in series.dates() if series.is_complete_day(d)]


def test_profile_uses_complete_days_only():
    gap = np.full(96, 7.0)
    gap[5] = np.nan
    series = make_series({BASE: 1.0, BASE + timedelta(days=1): gap, BASE + timedelta(days=2): 3.0})
    assert series.complete_days() == [BASE, BASE + timedelta(days=2)]
    assert daily_profile(series, "all").n_days == 2


def test_cli_import_leaves_scipy_stats_unloaded():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    probe = "import sys, roadtwin.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"
