"""End-to-end orchestration shared by the CLI subcommands.

Sensor loading, the one embedding path for sensors and targets (open a
lazy radius view of the map index, snap the position, take its
ego-graph, build its features, then min-max normalise the joint pool),
traffic loading and cleaning, and the full leave-one-out benchmark.
"""
from __future__ import annotations

import csv
import io
import os
from dataclasses import asdict, dataclass

from . import evaluation, generation
from .config import DECISIONS, PipelineConfig
from .embedding import RoadEmbedding, build_embedding, normalize_pool
from .errors import ArgumentError, FormatError, InputError, read_text
from .geo import coordinate_problem, parse_coordinate
# build_graph is not called here; perfbench/spans.py rebinds it by this name
from .osm_ingest import RadiusView, RawRoadData, build_graph, parse_lanes  # noqa: F401
from .road_graph import HighwayClass, ego_graph, insert_central_node
from .output import round6
from .traffic_data import (
    CleaningStats,
    HolidayCalendar,
    TrafficSeries,
    clean_series,
    daily_profile,
    load_traffic_csv,
    mean_weekday_flow,
)

# ---------------------------------------------------------------------------
# sensors
# ---------------------------------------------------------------------------

SENSORS_HEADER = ["sensor_id", "lat", "lon", "road_type_override", "lanes_override"]


@dataclass(frozen=True)
class SensorSpec:
    sensor_id: str
    lat: float
    lon: float
    road_type_override: HighwayClass | None = None
    lanes_override: int | None = None


def load_sensors(path) -> list[SensorSpec]:
    """Sensor positions CSV; the two override columns are optional.

    Raises ``FormatError`` for a file without sensor rows and for a row
    whose position is not a valid latitude and longitude.
    """
    text = read_text(path, f"sensors CSV {path}")
    reader = csv.reader(io.StringIO(text, newline=""))
    # line_num is the file line the row just read ends on
    rows = [(reader.line_num, r) for r in reader if r and not r[0].startswith("#")]
    if not rows:
        raise FormatError(f"sensors CSV {path} is empty")
    header = [c.strip() for c in rows[0][1]]
    if header not in (SENSORS_HEADER, SENSORS_HEADER[:3]):
        raise FormatError(
            f"bad sensors CSV header: expected {','.join(SENSORS_HEADER)} "
            f"(override columns optional)"
        )
    sensors: list[SensorSpec] = []
    seen: set[str] = set()
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise FormatError(
                f"sensors CSV row {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        sid = row[0].strip()
        if not sid:
            raise FormatError(f"sensors CSV row {lineno}: empty sensor id")
        if sid in seen:
            raise FormatError(f"sensors CSV row {lineno}: duplicate sensor id {sid!r}")
        seen.add(sid)
        try:
            lat, lon = parse_coordinate(row[1]), parse_coordinate(row[2])
        except ValueError as exc:
            raise FormatError(f"sensors CSV row {lineno}: {exc}") from exc
        problem = coordinate_problem(lat, lon)
        if problem:
            raise FormatError(f"sensors CSV row {lineno}: {problem}")
        rt_override = None
        lanes_override = None
        if len(header) == 5:
            if row[3].strip():
                try:
                    rt_override = HighwayClass(row[3].strip())
                except ValueError as exc:
                    raise FormatError(
                        f"sensors CSV row {lineno}: unknown road class {row[3]!r}"
                    ) from exc
            if row[4].strip():
                lanes_override = parse_lanes(row[4])
                if lanes_override is None:
                    raise FormatError(
                        f"sensors CSV row {lineno}: bad lanes override {row[4]!r}"
                    )
        sensors.append(SensorSpec(sid, lat, lon, rt_override, lanes_override))
    if not sensors:
        raise FormatError(f"sensors CSV {path} holds no sensor row")
    return sensors


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


def embed_position(
    raw: RawRoadData,
    cfg: PipelineConfig,
    sensor_id: str,
    lat: float,
    lon: float,
    road_type_override: HighwayClass | None = None,
    lanes_override: int | None = None,
) -> RoadEmbedding:
    """Embedding of one position, through its central node and ego-graph.

    The radius graph around the position is read from the extract's
    index row by row (:class:`RadiusView`), so every embedding sees the
    same radius of context regardless of other sensors, and only the
    rows the snap, the ego-graph and the travel-time search reach are
    built.
    """
    view = RadiusView(raw, (lat, lon), cfg.radius_m, cfg.default_speeds or None)
    central = insert_central_node(
        view, sensor_id, lat, lon, snap_threshold_m=cfg.snap_threshold_m
    )
    ego = ego_graph(view, central, cfg.ego_hops)
    return build_embedding(
        view,
        ego,
        central,
        sensor_id=sensor_id,
        road_type_override=road_type_override,
        lanes_override=lanes_override,
    )


def embed_sensors(
    raw: RawRoadData, sensors: list[SensorSpec], cfg: PipelineConfig
) -> list[RoadEmbedding]:
    """Raw embedding of each sensor, in the order of ``sensors``."""
    return [
        embed_position(raw, cfg, s.sensor_id, s.lat, s.lon, s.road_type_override, s.lanes_override)
        for s in sensors
    ]


TARGET_ID = "target"


def embed_target(
    raw: RawRoadData, sensors: list[SensorSpec], cfg: PipelineConfig, lat: float, lon: float
) -> tuple[RoadEmbedding, list[RoadEmbedding]]:
    """Normalised target and sensors, from one pool of sensors plus target.

    The target is embedded under the id ``TARGET_ID``, which no sensor may
    carry.
    """
    if any(s.sensor_id == TARGET_ID for s in sensors):
        raise ArgumentError(f"sensor id {TARGET_ID!r} clashes with the target placeholder")
    target = embed_position(raw, cfg, TARGET_ID, lat, lon)
    pool = normalize_pool(embed_sensors(raw, sensors, cfg) + [target])
    return pool[-1], pool[:-1]


# ---------------------------------------------------------------------------
# traffic
# ---------------------------------------------------------------------------


def load_traffic_dir(
    cfg: PipelineConfig,
) -> tuple[dict[str, TrafficSeries], dict[str, CleaningStats]]:
    """Load and clean every series found under the traffic directory."""
    cfg.require("traffic_dir")
    try:
        names = sorted(n for n in os.listdir(cfg.traffic_dir) if n.endswith(".csv"))
    except OSError as exc:
        raise InputError(f"cannot list traffic dir {cfg.traffic_dir}: {exc}") from exc
    if not names:
        raise InputError(f"no .csv files under {cfg.traffic_dir}")
    series: dict[str, TrafficSeries] = {}
    stats: dict[str, CleaningStats] = {}
    for name in names:
        part = load_traffic_csv(os.path.join(cfg.traffic_dir, name), cfg.interval_min)
        for sid in part:
            if sid in series:
                raise FormatError(f"sensor {sid!r} appears in more than one traffic file")
        # each file is cleaned as soon as it is read, so at most two files'
        # raw series are held beside the cleaned ones.  A file's raw series
        # go when the next file's replace them in `part`: freeing them before
        # that parse made the allocator return memory and fault it back in
        # (12 files of 365 days: 19.8k minor faults against 12.4k)
        for sid, s in part.items():
            series[sid], stats[sid] = clean_series(s, cfg.spike_factor, cfg.max_gap)
    order = sorted(series)
    return {sid: series[sid] for sid in order}, {sid: stats[sid] for sid in order}


def load_holidays(cfg: PipelineConfig) -> HolidayCalendar:
    if not cfg.holidays_path:
        return HolidayCalendar()
    return HolidayCalendar.from_csv(cfg.holidays_path)


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


def build_segment_records(
    sensors: list[SensorSpec],
    embeddings: list[RoadEmbedding],
    series: dict[str, TrafficSeries],
    holidays: HolidayCalendar,
) -> list[evaluation.SegmentRecord]:
    """One record per sensor, in sensor id order; ``embeddings`` are the
    sensors' own, in the order of ``sensors``."""
    records = []
    pairs = sorted(zip(sensors, embeddings, strict=True), key=lambda pair: pair[0].sensor_id)
    for spec, emb in pairs:
        if spec.sensor_id not in series:
            raise InputError(f"sensor {spec.sensor_id!r} has no traffic series")
        s = series[spec.sensor_id]
        records.append(
            evaluation.SegmentRecord(
                sensor_id=spec.sensor_id,
                coords=(spec.lat, spec.lon),
                embedding=emb,
                profile=daily_profile(s, "weekdays", holidays),
                mean_weekday_flow=mean_weekday_flow(s, holidays),
            )
        )
    return records


def _rank_tests(table: evaluation.GenerationErrorTable, alpha: float) -> dict:
    """A target's day counts, Friedman test, Nemenyi post-hoc and best
    methods; the tests need at least two days with every method scored."""
    block: dict = {
        "days_evaluated": len(table.dates),
        "days_in_rank_test": int(table.complete_mask().sum()),
        "friedman": None,
        "nemenyi": None,
        "best_methods": list(table.methods),
    }
    complete = table.complete_matrix()
    if complete.shape[0] >= 2:
        nem = evaluation.nemenyi_posthoc(complete, alpha=alpha)
        block["friedman"] = {
            "statistic": round6(nem.friedman_statistic),
            "p_value": round6(nem.friedman_p),
            "significant": nem.significant,
        }
        block["nemenyi"] = {
            "critical_difference": round6(nem.critical_difference),
            "mean_ranks": {m: round6(r) for m, r in zip(table.methods, nem.mean_ranks)},
            "verdicts": {
                f"{table.methods[i]}|{table.methods[j]}": v
                for (i, j), v in sorted(nem.verdicts.items())
            },
        }
        block["best_methods"] = evaluation.best_methods(nem, table.methods)
    return block


def run_benchmark(cfg: PipelineConfig) -> dict:
    """Full leave-one-out study; returns a JSON-ready report dict.

    For every sensed segment in turn: hide its traffic, select a source
    by embeddings and by geography, score the selection against the
    per-candidate optimum, then score per-day generation (day-class
    medians and same-date copy) from the embedding-selected source.
    """
    cfg.require("osm_path", "sensors_path", "traffic_dir")
    from .osm_ingest import parse_osm_extract

    raw = parse_osm_extract(cfg.osm_path)
    sensors = load_sensors(cfg.sensors_path)
    holidays = load_holidays(cfg)
    embeddings = normalize_pool(embed_sensors(raw, sensors, cfg))
    # nothing reads the map again: free it and its index before the traffic loads
    del raw
    series, cleaning = load_traffic_dir(cfg)
    segments = build_segment_records(sensors, embeddings, series, holidays)

    outcomes = evaluation.selection_benchmark(segments, metric=cfg.distance)
    generators_by_source: dict[str, dict] = {}  # several targets pick the same source
    tables = {}
    report_targets = []
    for seg, o in zip(segments, outcomes):
        source_id = o.embedding_result.selected_id
        if source_id not in generators_by_source:
            generators_by_source[source_id] = {
                m: generation.generator(m, series[source_id], holidays)
                for m in generation.METHODS
            }
        table = evaluation.generation_benchmark(
            series[o.target_id], o.mean_weekday_flow, generators_by_source[source_id]
        )
        tables[o.target_id] = table
        report_targets.append(
            {
                "target_id": o.target_id,
                "road_type": seg.embedding.road_class.value,
                "mean_weekday_flow": round6(o.mean_weekday_flow),
                "selection": {
                    "embedding": {
                        "selected": o.embedding_result.selected_id,
                        "distance": round6(o.embedding_result.distance),
                        "similarity_pct": round6(o.embedding_result.similarity_pct),
                        "profile_rmse": round6(o.embedding_rmse),
                    },
                    "geographic": {
                        "selected": o.geographic_result.selected_id,
                        "distance_m": round6(o.geographic_result.distance),
                        "profile_rmse": round6(o.geographic_rmse),
                    },
                    "best_candidate": {
                        "selected": o.best_id,
                        "profile_rmse": round6(o.best_rmse),
                    },
                    "verdict": o.verdict,
                },
                "generation": {
                    "source": source_id,
                    "methods": {
                        m: {"mean_nrmse": round6(mu), "std_nrmse": round6(sd)}
                        for m, (mu, sd) in table.method_mean_std().items()
                    },
                    **_rank_tests(table, cfg.alpha),
                },
            }
        )

    report = {
        "config": cfg.snapshot(),
        "decisions": dict(DECISIONS),
        "selection_tally": evaluation.tally_selection(outcomes),
        "targets": report_targets,
        "cleaning": {sid: asdict(st) for sid, st in sorted(cleaning.items())},
    }
    # segments, and so tables, are in target id order
    return {"report": report, "outcomes": outcomes, "tables": tables, "segments": segments}
