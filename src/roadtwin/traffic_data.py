"""Traffic count series: loading, cleaning and daily profiles.

A series is a fixed-interval grid of flow values (vehicles per interval)
spanning whole days.  Every grid slot carries a quality mark: observed,
interpolated (filled by cleaning) or missing.  Timestamps are local
civil time on the interval grid.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import date, datetime, timedelta

import numpy as np

from .errors import (
    ArgumentError,
    AvailabilityError,
    DomainError,
    FormatError,
    read_text,
    source_bytes,
    utf8_text,
)

QUALITY_MISSING = 0
QUALITY_OBSERVED = 1
QUALITY_INTERPOLATED = 2

TRAFFIC_HEADER = ["sensor_id", "timestamp", "flow"]

# A series holds every day from its first row to its last, so one mistyped
# year would allocate the whole gap; longer spans are rejected as input
# errors.
MAX_SPAN_YEARS = 50
MAX_SPAN_DAYS = MAX_SPAN_YEARS * 366


class HolidayCalendar:
    """Set of holiday dates."""

    def __init__(self, dates=()):
        self._dates = frozenset(dates)
        for d in self._dates:
            if not isinstance(d, date):
                raise ArgumentError(f"holiday entries must be dates, got {type(d).__name__}")

    def __contains__(self, d: date) -> bool:
        return d in self._dates

    @classmethod
    def from_csv(cls, path) -> "HolidayCalendar":
        """One ISO date per non-blank line of the file; '#' lines are comments."""
        days = []
        for lineno, line in enumerate(read_text(path, "holiday calendar").splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                days.append(date.fromisoformat(line))
            except ValueError as exc:
                raise FormatError(f"holidays line {lineno}: {exc}") from exc
        return cls(days)


def is_weekday(d: date, holidays: HolidayCalendar | None = None) -> bool:
    """Monday..Friday and not a holiday."""
    return d.weekday() < 5 and not (holidays is not None and d in holidays)


@dataclass
class TrafficSeries:
    """Grid-aligned flow series for one sensor.

    ``flows`` and ``quality`` are (n_days, slots_per_day) arrays; missing
    slots hold NaN flow and quality 0.
    """

    sensor_id: str
    interval_min: int
    start_date: date
    flows: np.ndarray
    quality: np.ndarray

    def __post_init__(self):
        if 1440 % self.interval_min != 0:
            raise ArgumentError(f"interval {self.interval_min} does not divide 1440 minutes")
        if self.flows.shape != self.quality.shape:
            raise ArgumentError("flows and quality arrays must have the same shape")
        if self.flows.ndim != 2 or self.flows.shape[1] != self.slots_per_day:
            raise ArgumentError(
                f"expected (days, {self.slots_per_day}) arrays, got {self.flows.shape}"
            )

    @property
    def slots_per_day(self) -> int:
        return 1440 // self.interval_min

    @property
    def n_days(self) -> int:
        return self.flows.shape[0]

    def dates(self) -> list[date]:
        return [self.start_date + timedelta(days=i) for i in range(self.n_days)]

    def date_index(self, d: date) -> int:
        i = (d - self.start_date).days
        if i < 0 or i >= self.n_days:
            raise AvailabilityError(
                f"sensor {self.sensor_id!r}: {d.isoformat()} outside the recorded span "
                f"{self.start_date.isoformat()}..{self.dates()[-1].isoformat()}"
            )
        return i

    def is_complete_day(self, d: date) -> bool:
        return bool((self.quality[self.date_index(d)] != QUALITY_MISSING).all())

    def complete_days(self) -> list[date]:
        complete = (self.quality != QUALITY_MISSING).all(axis=1)
        return [self.start_date + timedelta(days=int(i)) for i in np.flatnonzero(complete)]


def _grid_series(sensor_id, interval_min, day, slot, flow) -> TrafficSeries:
    """Series holding ``flow[i]`` at (``day[i]``, ``slot[i]``).

    ``day`` holds proleptic Gregorian ordinals; the (day, slot) pairs
    must be distinct.  Grid slots no row names stay missing.  A span of
    more than ``MAX_SPAN_DAYS`` days raises before anything is allocated.
    """
    first = int(day.min())
    n_days = int(day.max()) - first + 1
    if n_days > MAX_SPAN_DAYS:
        raise FormatError(
            f"sensor {sensor_id!r}: rows run from {date.fromordinal(first).isoformat()} "
            f"to {date.fromordinal(first + n_days - 1).isoformat()}, "
            f"more than {MAX_SPAN_YEARS} years"
        )
    flows = np.full((n_days, 1440 // interval_min), np.nan)
    quality = np.full(flows.shape, QUALITY_MISSING, dtype=np.uint8)
    flows[day - first, slot] = flow
    quality[day - first, slot] = QUALITY_OBSERVED
    return TrafficSeries(sensor_id, interval_min, date.fromordinal(first), flows, quality)


def parse_flow(text: str) -> float:
    """A flow field's value; ``ValueError`` unless it is finite and non-negative."""
    flow = float(text)
    if not np.isfinite(flow) or flow < 0:
        raise ValueError(f"flow must be finite and non-negative, got {text}")
    return flow


def _parse_rows(text: str, interval_min: int) -> dict[str, TrafficSeries]:
    """Validate CSV text one row at a time; raises on the first bad row.

    Accepts every ``datetime.fromisoformat`` form on the grid, and is the
    one place that names the failing row.  Rows are read as a stream, and
    each is kept as its flow and its grid slot counted from 0001-01-01.
    """
    per_day = 1440 // interval_min
    rows = ((i, r) for i, r in enumerate(csv.reader(io.StringIO(text)), start=1) if r)
    header = next(rows, None)
    if header is None or [c.strip() for c in header[1]] != TRAFFIC_HEADER:
        raise FormatError(f"bad traffic CSV header: expected {','.join(TRAFFIC_HEADER)}")

    by_sensor: dict[str, dict[int, float]] = {}
    for lineno, row in rows:
        if len(row) != 3:
            raise FormatError(f"traffic CSV row {lineno}: expected 3 fields, got {len(row)}")
        sid, ts_text, flow_text = row
        if not sid:
            raise FormatError(f"traffic CSV row {lineno}: empty sensor id")
        try:
            ts = datetime.fromisoformat(ts_text)
        except ValueError as exc:
            raise FormatError(f"traffic CSV row {lineno}: {exc}") from exc
        if ts.tzinfo is not None:
            raise FormatError(
                f"traffic CSV row {lineno}: timestamps must be naive local civil time"
            )
        if ts.second or ts.microsecond or (ts.hour * 60 + ts.minute) % interval_min:
            raise FormatError(
                f"traffic CSV row {lineno}: {ts_text} is off the {interval_min}-minute grid"
            )
        try:
            flow = parse_flow(flow_text)
        except ValueError as exc:
            raise FormatError(f"traffic CSV row {lineno}: {exc}") from exc
        records = by_sensor.setdefault(sid, {})
        slot = ts.toordinal() * per_day + (ts.hour * 60 + ts.minute) // interval_min
        if slot in records:
            raise FormatError(f"traffic CSV row {lineno}: duplicate timestamp {ts_text}")
        records[slot] = flow
    if not by_sensor:
        raise FormatError("traffic CSV holds no data rows")

    series = {}
    for sid, records in by_sensor.items():
        slots = np.fromiter(records, dtype=np.int64, count=len(records))
        series[sid] = _grid_series(
            sid,
            interval_min,
            slots // per_day,
            slots % per_day,
            np.fromiter(records.values(), dtype=float, count=len(records)),
        )
    return series


# byte columns of the 14 digits and of the 5 separators of a canonical
# ``YYYY-MM-DDTHH:MM:SS`` timestamp
_TS_DIGIT_COLS = np.array([0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18])
_TS_SEP_COLS = np.array([4, 7, 10, 13, 16])
_TS_SEPS = np.frombuffer(b"--T::", dtype=np.uint8)
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_DAYS_BEFORE_MONTH = np.concatenate(([0], np.cumsum(_MONTH_DAYS[:-1])))
_HEADER_BYTES = [name.encode() for name in TRAFFIC_HEADER]
# a plain decimal holds at most 15 digits, so its digits read as one
# integer, and every power of ten it is divided by, are exact in a float64
_MAX_DECIMAL_DIGITS = 15
_POW10 = np.array([float(10**k) for k in range(_MAX_DECIMAL_DIGITS + 1)])
_INT_POW10 = 10 ** np.arange(_MAX_DECIMAL_DIGITS + 1, dtype=np.int64)


def _gather(buf: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """The rows ``buf[at[i] : at[i] + width]``, as an ``(n, width)`` array.

    Each row is gathered as one ``V{width}`` item of a stride-1 void view
    of ``buf``, which numpy copies whole, not byte by byte.  A row that
    would end past ``buf`` raises ``IndexError``; a negative offset would
    count from the end, so callers pass none.
    """
    items = np.lib.stride_tricks.sliding_window_view(buf, width).view(np.dtype((np.void, width)))
    return items[:, 0][at].view(np.uint8).reshape(-1, width)


def _canonical_day_slot(
    ts: np.ndarray, interval_min: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Day ordinals and grid slots of ``(n, 19)`` timestamp bytes.

    None unless every row is a valid ``YYYY-MM-DDTHH:MM:SS`` on the
    interval grid: year 0000, a day past the month's end, hour 24 or a
    nonzero second all give None, as ``fromisoformat`` or the grid check
    would reject them.
    """
    digits = ts[:, _TS_DIGIT_COLS] - np.uint8(ord("0"))  # uint8: non-digits wrap above 9
    if (digits > 9).any() or (ts[:, _TS_SEP_COLS] != _TS_SEPS).any():
        return None
    # each two-digit field fits a uint8; the year is its century and year of century
    century, yy, month, mday, hour, minute, second = (
        digits[:, 0::2] * np.uint8(10) + digits[:, 1::2]
    ).T
    # 100 is a multiple of 4, so the year's remainder mod 4 is yy's
    leap = (yy % 4 == 0) & ((yy != 0) | (century % 4 == 0))
    minute_of_day = hour.astype(np.int16) * 60 + minute
    valid = (
        ((century != 0) | (yy != 0)) & (month >= 1) & (month <= 12) & (mday >= 1)
        & (mday <= _MONTH_DAYS[np.minimum(month, 12)] + (leap & (month == 2)))
        & (hour <= 23) & (minute <= 59) & (second == 0)
        & (minute_of_day % interval_min == 0)
    )
    if not valid.all():
        return None
    y = century.astype(np.int64) * 100 + yy - 1
    day = (y * 365 + y // 4 - y // 100 + y // 400 + _DAYS_BEFORE_MONTH[month]
           + (leap & (month > 2)) + mday)
    return day, minute_of_day // interval_min


def _decimal_fields(buf: np.ndarray, begin: np.ndarray, end: np.ndarray, max_digits: int):
    """Read the fields ``buf[begin[i]:end[i]]`` one byte column at a time.

    Returns ``(mantissa, scale, minus, point, digits, first)``, or None
    unless each field is an optional leading ``-`` and then 1 to
    ``max_digits`` ASCII digits with at most one point among them:
    ``mantissa`` is the digits read as one integer with the point read
    as a 0 digit, ``scale`` the number of digits after the point,
    ``minus`` and ``point`` whether the field holds them, ``digits`` the
    number of digits and ``first`` the field's first byte.  Each field
    is gathered (:func:`_gather`) as the ``width`` bytes that end where
    it ends, ``width`` being the longest field's length; None also when
    those bytes would start before ``buf``, so no offset is negative.
    """
    length = end - begin
    if length.min() < 1 or length.max() > max_digits + 2:
        return None
    width = int(length.max())
    if end.min() < width:
        return None
    n = len(end)
    # column j of every field's gathered bytes, one contiguous row per column
    columns = _gather(buf, end - width, width).T.copy()
    lead = (width - length).astype(np.int8)  # columns before the field
    first = columns[lead, np.arange(n)]
    minus = first == ord("-")
    lead += minus  # columns before the digits
    mantissa = np.zeros(n, dtype=np.int64)
    scale = np.zeros(n, dtype=np.int8)
    point = np.zeros(n, dtype=bool)  # a point seen so far
    bad = np.zeros(n, dtype=bool)
    for j, column in enumerate(columns):
        inside = lead <= j
        digit = column - np.uint8(ord("0"))  # uint8: non-digits wrap above 9
        is_digit = inside & (digit <= 9)
        is_point = inside & (column == ord("."))
        bad |= inside > (is_digit | is_point)
        bad |= point & is_point
        digit *= is_digit  # a point reads as a 0 digit
        mantissa *= 10
        mantissa += digit
        scale += point & is_digit
        point |= is_point
    digits = length - minus - point
    if bad.any() or digits.min() < 1 or digits.max() > max_digits:
        return None
    return mantissa, scale, minus, point, digits, first


def _plain_decimals(buf: np.ndarray, begin: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """Values of the fields ``buf[begin[i]:end[i]]``, or None unless all are plain decimals.

    A plain decimal is an optional leading ``-`` and then 1 to 15 ASCII
    digits with at most one point among them (``5``, ``05``, ``5.``,
    ``.5``, ``-0.25``).  Its value is its digits read as one integer
    divided by ten to the number of digits after the point, negated
    after a ``-``: one correctly rounded division of two exact float64
    values, so it equals ``float(text)`` bit for bit (``-0`` is
    ``-0.0``).  Fields are read by :func:`_decimal_fields`.
    """
    fields = _decimal_fields(buf, begin, end, _MAX_DECIMAL_DIGITS)
    if fields is None:
        return None
    mantissa, scale, minus, point, _, _ = fields
    # the point's 0 digit multiplied the digits before it by ten
    after = mantissa % _INT_POW10[scale]
    mantissa = np.where(point, (mantissa - after) // 10 + after, mantissa)
    value = mantissa / _POW10[scale]
    return np.where(minus, -value, value) if minus.any() else value


def _parse_canonical(data: bytes, interval_min: int) -> dict[str, TrafficSeries] | None:
    """Parse valid UTF-8 CSV bytes in array passes, or None if any row may be invalid.

    Handles files whose rows all read ``sensor,YYYY-MM-DDTHH:MM:SS,flow``
    with a nonempty sensor id, a valid on-grid timestamp and an unsigned
    plain decimal flow (see :func:`_plain_decimals`), that repeat no timestamp
    of a sensor, and that hold no quote, carriage return or NUL.
    Anything else returns None and is left to :func:`_parse_rows`, which
    finds the bad row or parses the other ``fromisoformat`` and
    ``float`` forms.  Every column is read at the separator offsets,
    which are int32, so a file of 2**31 bytes or more returns None too
    (as ``osm_ingest`` declines such an extract); only a file holding
    more than one sensor id makes a Python object per row (its ids).
    Each sensor's rows are taken in file order, and only a sensor whose
    stamps do not strictly increase is sorted to find a repeat.
    """
    if b'"' in data or b"\r" in data or b"\0" in data or len(data) >= 2**31:
        return None
    start = data.find(b"\n") + 1  # the body follows the header line
    end = len(data)
    while end > start and data[end - 1] == ord("\n"):
        end -= 1
    if not start or end == start:
        return None
    if [c.strip() for c in data[: start - 1].split(b",")] != _HEADER_BYTES:
        return None
    body = np.frombuffer(data, dtype=np.uint8)[start:end]
    # the last row's newline went with the trailing ones
    row_end = np.append(np.flatnonzero(body == ord("\n")).astype(np.int32), np.int32(body.size))
    row_start = np.append(np.int32(0), row_end[:-1] + 1)
    commas = np.flatnonzero(body == ord(",")).astype(np.int32)
    c1, c2 = commas[0::2], commas[1::2]
    if commas.size != 2 * row_end.size or (c1 <= row_start).any() or (c2 >= row_end).any():
        return None  # a row without exactly 3 fields, a blank line or an empty id
    if (c2 - c1 != 20).any():
        return None  # a timestamp of other than 19 bytes
    day_slot = _canonical_day_slot(_gather(body, c1 + 1, 19), interval_min)
    if day_slot is None:
        return None
    day, slot = day_slot
    # a row's flow ends at least 21 bytes into the body, past its id and timestamp
    flow = _plain_decimals(body, c2 + 1, row_end)
    if flow is None or np.signbit(flow).any():
        return None  # a signed flow, left to the row loop

    k = int(c1[0])  # the first row's id length
    if (c1 - row_start == k).all() and (_gather(body, row_start, k) == body[:k]).all():
        names, groups = [data[start : start + k].decode()], [slice(None)]
    else:
        ids = [data[a:b] for a, b in zip((row_start + start).tolist(), (c1 + start).tolist())]
        firsts = list(dict.fromkeys(ids))
        names = [sid.decode() for sid in firsts]
        code = np.fromiter(map({sid: i for i, sid in enumerate(firsts)}.__getitem__, ids),
                           dtype=np.intp, count=len(ids))
        order = np.argsort(code, kind="stable")  # rows of one sensor, in file order
        groups = np.split(order, np.flatnonzero(np.diff(code[order])) + 1)
    for rows in groups:
        stamp = day[rows] * (1440 // interval_min) + slot[rows]
        if (stamp[1:] > stamp[:-1]).all():
            continue  # strictly increasing, so no repeat
        # np.sort, not a bare np.unique, which imports numpy.ma
        stamp.sort()
        if (stamp[1:] == stamp[:-1]).any():
            return None  # a repeated timestamp
    # every row is vouched for before any series is built, so a span error
    # is raised only where the row loop would raise it too
    return {
        sid: _grid_series(sid, interval_min, day[rows], slot[rows], flow[rows])
        for sid, rows in zip(names, groups)
    }


def load_traffic_csv(source, interval_min: int = 15) -> dict[str, TrafficSeries]:
    """Load a ``sensor_id,timestamp,flow`` CSV that may combine several sensors.

    ``source`` is a file path or the file's bytes.  Timestamps must be
    naive ISO-8601 on the interval grid; grid slots absent from the file
    become missing.  An empty sensor id or a timestamp repeated for one
    sensor raises ``FormatError`` naming its row; a file that is not
    UTF-8 raises ``ParseError``.  Canonical files are parsed in
    whole-array passes on their bytes; any other file, valid or not,
    goes through the row loop, which keeps every error message and row
    number.
    """
    data = source_bytes(source, "traffic CSV")
    if 1440 % interval_min != 0:
        raise ArgumentError(f"interval {interval_min} does not divide 1440 minutes")
    if not data.isascii():
        # raises on the first byte that is not UTF-8
        utf8_text(data, "traffic CSV" if isinstance(source, bytes) else str(source))
    by_sensor = _parse_canonical(data, interval_min) or _parse_rows(data.decode(), interval_min)
    return dict(sorted(by_sensor.items()))


def _slot_medians(flows: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Per-slot median of the observed values; NaN for a slot with none.

    Equals ``np.median`` of each slot's observed values bit for bit: the
    middle value for an odd count, half the sum of the middle two for an
    even one.  (``np.nanmedian`` halves twice the middle value for an odd
    count, which overflows above 8.9e307.)
    """
    ranked = np.sort(np.where(observed, flows, np.nan), axis=0)  # NaN sorts last
    count = observed.sum(axis=0)
    slot = np.arange(flows.shape[1])
    med = ranked[(count - 1) // 2, slot]
    even = count % 2 == 0
    med[even] = (med[even] + ranked[count[even] // 2, slot[even]]) / 2
    return med


def slot_median(block: np.ndarray) -> np.ndarray:
    """Per-slot median over the rows (days) of a block with no missing value.

    :func:`_slot_medians` with every value observed, so it equals
    ``np.median(block, axis=0)`` bit for bit without loading ``numpy.ma``,
    which ``np.median`` imports on first use.
    """
    return _slot_medians(block, np.ones(block.shape, dtype=bool))


@dataclass
class CleaningStats:
    spikes_removed: int = 0
    slots_interpolated: int = 0
    slots_missing: int = 0
    incomplete_days: int = 0
    total_days: int = 0


def clean_series(
    series: TrafficSeries, spike_factor: float = 5.0, max_gap: int = 4
) -> tuple[TrafficSeries, CleaningStats]:
    """Spike removal followed by short-gap interpolation.

    An observed value above ``spike_factor`` times the per-slot median of
    observed values (over all days) is re-marked missing; removal is
    iterated to a fixed point so cleaning is idempotent.  Slots whose
    median is zero are exempt from the multiplicative rule.  Missing runs
    of at most ``max_gap`` slots bounded by data on both sides are filled
    linearly; longer or unbounded runs stay missing.
    """
    if spike_factor <= 0:
        raise ArgumentError(f"spike factor must be positive, got {spike_factor}")
    if max_gap < 0:
        raise ArgumentError(f"max gap must be >= 0, got {max_gap}")
    flows = series.flows.copy()
    quality = series.quality.copy()

    spikes = 0
    while True:
        observed = quality == QUALITY_OBSERVED
        med = _slot_medians(flows, observed)
        spike = observed & (flows > np.where(med > 0.0, spike_factor * med, np.inf))
        removed = int(spike.sum())
        if removed == 0:
            break
        flows[spike] = np.nan
        quality[spike] = QUALITY_MISSING
        spikes += removed

    # gap filling works on the flattened timeline so runs may span midnight
    flat_flow = flows.reshape(-1)
    flat_q = quality.reshape(-1)
    step = np.diff(np.concatenate(([0], flat_q == QUALITY_MISSING, [0])))
    start = np.flatnonzero(step == 1)
    run = np.flatnonzero(step == -1) - start
    fill = (run <= max_gap) & (start > 0) & (start + run < flat_q.size)
    start, run = start[fill], run[fill]
    offset = np.arange(run.sum()) - np.repeat(np.cumsum(run) - run, run)  # k within its run
    left = np.repeat(flat_flow[start - 1], run)
    right = np.repeat(flat_flow[start + run], run)
    frac = (offset + 1) / (np.repeat(run, run) + 1)
    at = np.repeat(start, run) + offset
    flat_flow[at] = left + (right - left) * frac
    flat_q[at] = QUALITY_INTERPOLATED

    missing = quality == QUALITY_MISSING
    cleaned = TrafficSeries(
        series.sensor_id, series.interval_min, series.start_date, flows, quality
    )
    stats = CleaningStats(
        spikes_removed=spikes,
        slots_interpolated=int(run.sum()),
        slots_missing=int(missing.sum()),
        incomplete_days=int(missing.any(axis=1).sum()),
        total_days=cleaned.n_days,
    )
    return cleaned, stats


@dataclass(frozen=True)
class TrafficProfile:
    """Per-slot median daily flow with its per-slot spread."""

    sensor_id: str
    interval_min: int
    day_filter: str
    n_days: int
    values: np.ndarray
    stdev: np.ndarray


DAY_FILTERS = ("weekdays", "weekends", "all")


def _filter_days(dates, day_filter: str, holidays: HolidayCalendar | None):
    if day_filter == "weekdays":
        return [d for d in dates if is_weekday(d, holidays)]
    if day_filter == "weekends":
        return [d for d in dates if d.weekday() >= 5]
    if day_filter == "all":
        return list(dates)
    raise ArgumentError(f"unknown day filter {day_filter!r}; expected one of {DAY_FILTERS}")


def daily_profile(
    series: TrafficSeries,
    day_filter: str = "weekdays",
    holidays: HolidayCalendar | None = None,
) -> TrafficProfile:
    """Per-slot median over the complete days passing the filter.

    Weekdays are Monday..Friday excluding holidays.  The spread is the
    per-slot sample standard deviation (zero for a single day).  Days
    with any missing slot are left out entirely.
    """
    days = _filter_days(series.complete_days(), day_filter, holidays)
    if not days:
        raise DomainError(
            f"sensor {series.sensor_id!r}: no complete days match filter {day_filter!r}"
        )
    rows = np.array([series.date_index(d) for d in days])
    block = series.flows[rows]
    values = slot_median(block)
    if len(days) >= 2:
        stdev = np.std(block, axis=0, ddof=1)
    else:
        stdev = np.zeros(series.slots_per_day)
    return TrafficProfile(
        sensor_id=series.sensor_id,
        interval_min=series.interval_min,
        day_filter=day_filter,
        n_days=len(days),
        values=values,
        stdev=stdev,
    )


def slice_day(series: TrafficSeries, d: date) -> np.ndarray:
    """Flow vector of one complete day; raises when absent or incomplete."""
    idx = series.date_index(d)
    missing = int((series.quality[idx] == QUALITY_MISSING).sum())
    if missing:
        raise AvailabilityError(
            f"sensor {series.sensor_id!r}: {d.isoformat()} has {missing} missing slots"
        )
    return series.flows[idx].copy()


def slice_days(series: TrafficSeries, dates: list[date]) -> np.ndarray:
    """(days x slots) flows of complete days; raises slice_day's error for the first that is not."""
    rows = np.array([(d - series.start_date).days for d in dates], dtype=np.int64)
    bad = (rows < 0) | (rows >= series.n_days)
    bad[~bad] = (series.quality[rows[~bad]] == QUALITY_MISSING).any(axis=1)
    if bad.any():
        slice_day(series, dates[int(np.argmax(bad))])
    return series.flows[rows]


def mean_weekday_flow(
    series: TrafficSeries, holidays: HolidayCalendar | None = None
) -> float:
    """Mean of every observed or interpolated flow on non-holiday weekdays."""
    rows = [
        series.date_index(d) for d in series.dates() if is_weekday(d, holidays)
    ]
    if rows:
        block_q = series.quality[rows]
        block_f = series.flows[rows]
        vals = block_f[block_q != QUALITY_MISSING]
        if vals.size:
            return float(vals.mean())
    raise DomainError(
        f"sensor {series.sensor_id!r}: no weekday flow values to average"
    )
