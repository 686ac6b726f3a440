"""Command-line interface.

Subcommands cover the pipeline end to end: ``ingest`` (map extract to
graph CSVs), ``embed`` (feature vectors per sensor), ``select`` (source
segment for a target position), ``profile`` (daily profiles as CSV +
SVG), ``synthesize`` (generated days), ``evaluate`` (generated vs real),
``benchmark`` (leave-one-out study) and ``estimate`` (coordinate + date
to a generated day, end to end).

Configuration comes from an optional JSON file plus ``--key=value``
flags (flags win).  Outputs are deterministic byte-for-byte for a fixed
config.  Every handler computes all it writes first and then hands its
files to :func:`_write`, the one writer: it stamps each file with the
config hash and commits them all-or-nothing, so a command that fails
before writing creates no output directory.

The module imports only what the parser and every handler need.  The
graph layer (``osm_ingest``, ``road_graph``, ``embedding``, ``selection``
and ``evaluation``) loads as one block in ``main``, once the arguments
and the config are checked and before any input is read, for every
command but ``profile`` and ``synthesize``.  ``evaluate`` needs it for
``evaluation``'s error metrics, since that module imports the selectors.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections import Counter
from dataclasses import fields
from datetime import date, timedelta

from . import _lazy_names, generation, pipeline
from .config import PipelineConfig, load_config
from .errors import ArgumentError, InputError, RoadTwinError
from .geo import coordinate_problem, parse_coordinate
from .output import OutputStage, check_config_hash, read_csv, round6, write_csv, write_json
from .svgplot import profile_svg, slot_label
from .traffic_data import (
    DAY_FILTERS, MAX_SPAN_DAYS, MAX_SPAN_YEARS, daily_profile, mean_weekday_flow, parse_flow,
    slice_day,
)

# The graph layer, loaded as one block by ``main`` for every command that
# uses it; perfbench/spans.py rebinds parse_osm_extract by this name.
_graph_layer, __getattr__ = _lazy_names(globals(), (
    (".osm_ingest", ("build_graph", "parse_osm_extract")),
    (".embedding", ("EMBEDDING_DIMS", "normalize_pool")),
    (".selection", ("select_by_embedding", "select_by_geography", "similarity_percent")),
    (".", ("evaluation",)),
))

NODES_HEADER = ["node_id", "lat", "lon"]
EDGES_HEADER = ["src", "dst", "length_m", "speed_kph", "travel_time_s", "highway_class", "lanes"]
SELECTION_HEADER = ["target_id", "rank", "sensor_id", "distance", "similarity_pct", "method"]
PROFILE_HEADER = ["slot_index", "time_of_day", "median_flow", "stdev"]
GENERATED_HEADER = ["target_id", "date", "method", "slot_index", "flow", "fallback_used"]
ERRORS_HEADER = ["target_id", "date", "method", "rmse", "nrmse"]
SUMMARY_HEADER = ["target_id", "method", "mean_nrmse", "std_nrmse", "road_type", "best_methods"]
DAILY_ERRORS_HEADER = ["target_id", "date", "method", "nrmse"]


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="JSON config file")
    for f in fields(PipelineConfig):
        parser.add_argument(f"--{f.name}", dest=f"cfg_{f.name}", metavar="VALUE")


def _parse_date(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError as exc:
        raise ArgumentError(f"bad date {text!r}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """An argument parser, and the class of its subparsers, that raises
    ``ArgumentError`` where argparse would print usage and exit: ``main``
    reports it as every other error, one JSON object and exit code 2."""

    def error(self, message):
        raise ArgumentError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="roadtwin",
        description="Estimate daily traffic profiles for unsensed road segments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a map extract into graph CSVs")
    _add_config_flags(p)
    p.add_argument("--center-lat", type=parse_coordinate,
                   help="graph center (default: sensor centroid)")
    p.add_argument("--center-lon", type=parse_coordinate)

    p = sub.add_parser("embed", help="compute feature embeddings for every sensor")
    _add_config_flags(p)

    p = sub.add_parser("select", help="pick the source segment for a target position")
    _add_config_flags(p)
    p.add_argument("--lat", type=parse_coordinate, required=True)
    p.add_argument("--lon", type=parse_coordinate, required=True)

    p = sub.add_parser("profile", help="daily profiles as CSV and SVG")
    _add_config_flags(p)
    p.add_argument("--sensor", help="restrict to one sensor id")
    p.add_argument("--day-filter", default="weekdays", choices=DAY_FILTERS)

    p = sub.add_parser("synthesize", help="generate daily traffic for a date range")
    _add_config_flags(p)
    p.add_argument("--source", required=True, help="source sensor id")
    p.add_argument("--start", required=True, help="first date (ISO)")
    p.add_argument("--end", required=True, help="last date (ISO, inclusive)")
    p.add_argument("--method", default=generation.METHOD_CLUSTER, choices=generation.METHODS)
    p.add_argument("--target-id", help="id written on output rows (default: source id)")

    p = sub.add_parser("evaluate", help="score generated days against recorded ones")
    _add_config_flags(p)
    p.add_argument("--generated", required=True, help="CSV written by synthesize/estimate")
    p.add_argument("--target", required=True, help="sensor id holding the real data")

    p = sub.add_parser("benchmark", help="leave-one-out study over all sensors")
    _add_config_flags(p)

    p = sub.add_parser("estimate", help="end-to-end: coordinates + date to a generated day")
    _add_config_flags(p)
    p.add_argument("--lat", type=parse_coordinate, required=True)
    p.add_argument("--lon", type=parse_coordinate, required=True)
    p.add_argument("--date", required=True, help="date to generate (ISO)")
    p.add_argument("--method", default=generation.METHOD_CLUSTER, choices=generation.METHODS)
    return parser


def _config_from_args(args) -> PipelineConfig:
    overrides = {
        f.name: getattr(args, f"cfg_{f.name}")
        for f in fields(PipelineConfig)
        if getattr(args, f"cfg_{f.name}", None) is not None
    }
    return load_config(args.config, overrides)


def _check_positions(args):
    """Reject a non-finite or out-of-range ``--lat``/``--lon`` or
    ``--center-lat``/``--center-lon``."""
    for lat_flag, lon_flag in (("lat", "lon"), ("center_lat", "center_lon")):
        problem = coordinate_problem(getattr(args, lat_flag, None), getattr(args, lon_flag, None))
        if problem:
            flags = "/".join(f"--{f.replace('_', '-')}" for f in (lat_flag, lon_flag))
            raise ArgumentError(f"{flags}: {problem}")


def _write(cfg: PipelineConfig, files: dict):
    """Write one command's files into ``cfg.output_dir``, all or none.

    ``files`` maps each file name to its content by the name's extension:
    a ``.csv`` name to ``(header, rows)``, a ``.json`` name to a payload,
    and any other name to text written as is.  CSV and JSON files carry
    the config hash.  The files are staged and move into the output
    directory together, which this call creates.  ``write_csv`` and
    ``write_json`` are looked up in this module at call time, where
    perfbench/spans.py rebinds them to trace each write.
    """
    chash = cfg.config_hash()
    with OutputStage(cfg.output_dir) as stage:
        for name, content in files.items():
            path = stage.path(name)
            if name.endswith(".csv"):
                write_csv(path, *content, config_hash=chash)
            elif name.endswith(".json"):
                write_json(path, content, config_hash=chash)
            else:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(content)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_ingest(args, cfg: PipelineConfig):
    cfg.require("osm_path")
    if (args.center_lat is None) != (args.center_lon is None):
        raise ArgumentError("--center-lat and --center-lon must be given together")
    raw = parse_osm_extract(cfg.osm_path)
    if args.center_lat is not None:
        center = (args.center_lat, args.center_lon)
    else:
        cfg.require("sensors_path")
        sensors = pipeline.load_sensors(cfg.sensors_path)
        center = (
            sum(s.lat for s in sensors) / len(sensors),
            sum(s.lon for s in sensors) / len(sensors),
        )
    graph = build_graph(raw, center, cfg.radius_m, cfg.default_speeds or None)
    class_counts = Counter(e.highway_class.value for e in graph.edges)
    # floats are written with repr (shortest round-trip form), which fmt
    # passes through, so a saved graph reloads with bit-identical attributes
    node_rows = ([nid, repr(lat), repr(lon)] for nid, (lat, lon) in sorted(graph.nodes.items()))
    edge_rows = ([e.src, e.dst, repr(e.length_m), repr(e.speed_kph), repr(e.travel_time_s),
                  e.highway_class.value, e.lanes] for e in graph.edges)
    _write(cfg, {
        "nodes.csv": (NODES_HEADER, node_rows),
        "edges.csv": (EDGES_HEADER, edge_rows),
        "manifest.json": {
            "center": {"lat": round6(center[0]), "lon": round6(center[1])},
            "radius_m": cfg.radius_m,
            "n_nodes": len(graph.nodes),
            "n_edges": len(graph.edges),
            "edges_by_class": dict(sorted(class_counts.items())),
            "config": cfg.snapshot(),
        },
    })
    print(f"ingest: {len(graph.nodes)} nodes, {len(graph.edges)} edges -> {cfg.output_dir}")


def _embedding_rows(embeddings):
    for e in sorted(embeddings, key=lambda e: e.sensor_id):
        yield [e.sensor_id, *e.raw_vector(), *e.normalized]


def cmd_embed(args, cfg: PipelineConfig):
    cfg.require("osm_path", "sensors_path")
    raw = parse_osm_extract(cfg.osm_path)
    sensors = pipeline.load_sensors(cfg.sensors_path)
    embeddings = normalize_pool(pipeline.embed_sensors(raw, sensors, cfg))
    header = ["sensor_id"] + [f"{p}{i}" for p in "fn" for i in range(1, EMBEDDING_DIMS + 1)]
    _write(cfg, {"embeddings.csv": (header, _embedding_rows(embeddings))})
    print(f"embed: {len(embeddings)} embeddings -> {cfg.output_dir}/embeddings.csv")


def _selection_rows(result):
    # only an l2 embedding result has a similarity scale
    sim_known = result.similarity_pct is not None
    for rank, (sid, dist) in enumerate(result.ranking, start=1):
        sim = similarity_percent(dist) if sim_known else None
        yield [result.target_id, rank, sid, dist, sim, result.method]


def cmd_select(args, cfg: PipelineConfig):
    cfg.require("osm_path", "sensors_path")
    raw = parse_osm_extract(cfg.osm_path)
    sensors = pipeline.load_sensors(cfg.sensors_path)
    target, embeddings = pipeline.embed_target(raw, sensors, cfg, args.lat, args.lon)
    emb_res = select_by_embedding(target, embeddings, metric=cfg.distance)
    geo_res = select_by_geography(
        target.sensor_id, (args.lat, args.lon), [(s.sensor_id, (s.lat, s.lon)) for s in sensors]
    )
    rows = list(_selection_rows(emb_res)) + list(_selection_rows(geo_res))
    _write(cfg, {"selection.csv": (SELECTION_HEADER, rows)})
    print(
        f"select: embedding -> {emb_res.selected_id}, geographic -> {geo_res.selected_id} "
        f"({cfg.output_dir}/selection.csv)"
    )


def cmd_profile(args, cfg: PipelineConfig):
    series, _stats = pipeline.load_traffic_dir(cfg)
    holidays = pipeline.load_holidays(cfg)
    ids = sorted(series)
    if args.sensor:
        if args.sensor not in series:
            raise ArgumentError(f"no traffic series for sensor {args.sensor!r}")
        ids = [args.sensor]
    # each id names two output files, so it must not reach another directory
    for sid in ids:
        if any(sep and sep in sid for sep in (os.sep, os.altsep)):
            raise InputError(
                f"sensor id {sid!r} contains a path separator; it cannot name a profile file"
            )
    files = {}
    for sid in ids:
        prof = daily_profile(series[sid], args.day_filter, holidays)
        files[f"profile_{sid}.csv"] = (PROFILE_HEADER, [
            [i, slot_label(i, prof.interval_min), float(v), float(s)]
            for i, (v, s) in enumerate(zip(prof.values, prof.stdev))
        ])
        files[f"profile_{sid}.svg"] = profile_svg(
            prof.values,
            prof.stdev,
            prof.interval_min,
            f"daily profile: {sid} ({args.day_filter}, {prof.n_days} days)",
        )
    _write(cfg, files)
    print(f"profile: {len(ids)} sensor(s) -> {cfg.output_dir}")


def _generated_rows(target_id: str, gen_days):
    for g in gen_days:
        for slot, flow in enumerate(g.values):
            yield [target_id, g.target_date.isoformat(), g.method, slot, float(flow), g.fallback]


def cmd_synthesize(args, cfg: PipelineConfig):
    series, _stats = pipeline.load_traffic_dir(cfg)
    holidays = pipeline.load_holidays(cfg)
    if args.source not in series:
        raise ArgumentError(f"no traffic series for source sensor {args.source!r}")
    start = _parse_date(args.start)
    end = _parse_date(args.end)
    if end < start:
        raise ArgumentError(f"end date {args.end} before start date {args.start}")
    if (end - start).days >= MAX_SPAN_DAYS:
        raise ArgumentError(f"{args.start}..{args.end} spans more than {MAX_SPAN_YEARS} years")
    dates = [start + timedelta(days=i) for i in range((end - start).days + 1)]
    generate = generation.generator(args.method, series[args.source], holidays)
    out_days = [generate(d) for d in dates]
    target_id = args.target_id or args.source
    _write(cfg, {"generated_days.csv": (GENERATED_HEADER, _generated_rows(target_id, out_days))})
    print(
        f"synthesize: {len(out_days)} day(s) via {args.method} -> "
        f"{cfg.output_dir}/generated_days.csv"
    )


def cmd_evaluate(args, cfg: PipelineConfig):
    cfg.require("traffic_dir")
    found_hash, header, rows, first_line = read_csv(args.generated)
    check_config_hash(found_hash, cfg.config_hash(), args.generated)
    if header != GENERATED_HEADER:
        raise InputError(f"{args.generated} is not a generated-days CSV")
    series, _stats = pipeline.load_traffic_dir(cfg)
    if args.target not in series:
        raise ArgumentError(f"no traffic series for target sensor {args.target!r}")
    target = series[args.target]
    holidays = pipeline.load_holidays(cfg)
    mean_flow = mean_weekday_flow(target, holidays)

    grouped: dict[tuple[str, str], dict[int, float]] = {}
    for lineno, row in enumerate(rows, start=first_line):
        if len(row) != len(GENERATED_HEADER):
            raise InputError(f"{args.generated} row {lineno}: bad field count")
        _tid, d_text, method, slot_text, flow_text, _fb = row
        try:
            flow, slot = parse_flow(flow_text), int(slot_text)
        except ValueError as exc:
            raise InputError(f"{args.generated} row {lineno}: {exc}") from exc
        slots = grouped.setdefault((d_text, method), {})
        if slot in slots:
            raise InputError(
                f"{args.generated} row {lineno}: slot {slot} of {d_text} ({method}) is repeated"
            )
        slots[slot] = flow

    out_rows = []
    for (d_text, method), slots in sorted(grouped.items()):
        d = _parse_date(d_text)
        if sorted(slots) != list(range(target.slots_per_day)):
            raise InputError(
                f"{args.generated}: day {d_text} ({method}) does not cover every slot"
            )
        generated = [slots[i] for i in range(target.slots_per_day)]
        real = slice_day(target, d)
        r = evaluation.rmse(real, generated)
        out_rows.append([args.target, d_text, method, r, evaluation.normalize_rmse(r, mean_flow)])
    _write(cfg, {"errors.csv": (ERRORS_HEADER, out_rows)})
    print(f"evaluate: {len(out_rows)} day(s) scored -> {cfg.output_dir}/errors.csv")


def cmd_benchmark(args, cfg: PipelineConfig):
    result = pipeline.run_benchmark(cfg)
    report = result["report"]

    summary_rows = []
    for tgt in report["targets"]:
        for method, ms in sorted(tgt["generation"]["methods"].items()):
            summary_rows.append(
                [
                    tgt["target_id"],
                    method,
                    ms["mean_nrmse"],
                    ms["std_nrmse"],
                    tgt["road_type"],
                    "+".join(tgt["generation"]["best_methods"]),
                ]
            )

    daily_rows = []
    for tid in sorted(result["tables"]):
        table = result["tables"][tid]
        for i, d in enumerate(table.dates):
            for j, m in enumerate(table.methods):
                v = table.nrmse[i, j]
                daily_rows.append([tid, d.isoformat(), m, float(v)])

    selection_rows = []
    for o in result["outcomes"]:
        selection_rows.extend(_selection_rows(o.embedding_result))
        selection_rows.extend(_selection_rows(o.geographic_result))

    _write(cfg, {
        "report.json": report,
        "summary.csv": (SUMMARY_HEADER, summary_rows),
        "generation_errors.csv": (DAILY_ERRORS_HEADER, daily_rows),
        "selection.csv": (SELECTION_HEADER, selection_rows),
    })
    t = report["selection_tally"]
    print(
        f"benchmark: {len(report['targets'])} targets; selection "
        f"embedding {t['embedding']} / geographic {t['geographic']} / ties {t['tie']} "
        f"-> {cfg.output_dir}"
    )


def cmd_estimate(args, cfg: PipelineConfig):
    cfg.require("osm_path", "sensors_path", "traffic_dir")
    d = _parse_date(args.date)
    raw = parse_osm_extract(cfg.osm_path)
    sensors = pipeline.load_sensors(cfg.sensors_path)
    target, embeddings = pipeline.embed_target(raw, sensors, cfg, args.lat, args.lon)
    emb_res = select_by_embedding(target, embeddings, metric=cfg.distance)
    series, _stats = pipeline.load_traffic_dir(cfg)
    if emb_res.selected_id not in series:
        raise InputError(f"selected sensor {emb_res.selected_id!r} has no traffic series")
    holidays = pipeline.load_holidays(cfg)
    gen = generation.generator(args.method, series[emb_res.selected_id], holidays)(d)
    _write(cfg, {
        "generated_day.csv": (GENERATED_HEADER, _generated_rows(target.sensor_id, [gen])),
        "estimate.json": {
            "target": {"lat": args.lat, "lon": args.lon, "date": args.date},
            "selected_source": emb_res.selected_id,
            "selection_distance": round6(emb_res.distance),
            "similarity_pct": round6(emb_res.similarity_pct),
            "method": args.method,
            "fallback_used": gen.fallback,
            "config": cfg.snapshot(),
        },
    })
    print(
        f"estimate: source {emb_res.selected_id}, method {args.method} -> "
        f"{cfg.output_dir}/generated_day.csv"
    )


HANDLERS = {
    "ingest": cmd_ingest,
    "embed": cmd_embed,
    "select": cmd_select,
    "profile": cmd_profile,
    "synthesize": cmd_synthesize,
    "evaluate": cmd_evaluate,
    "benchmark": cmd_benchmark,
    "estimate": cmd_estimate,
}


def _emit_error(exc: BaseException, exit_code: int):
    doc = {
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": exit_code,
    }
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        _check_positions(args)
        if args.command not in ("profile", "synthesize"):
            _graph_layer()
        HANDLERS[args.command](args, cfg)
        return 0
    except RoadTwinError as exc:
        _emit_error(exc, exc.exit_code)
        return exc.exit_code
    except Exception as exc:  # internal invariant violation
        _emit_error(exc, 4)
        return 4


def entry():
    """Run :func:`main` as the whole process, then exit with its code.

    The one entry of the ``roadtwin`` script, ``python -m roadtwin`` and
    ``python -m roadtwin.cli``.  It freezes the garbage collector before
    exiting: at exit the interpreter runs full collections over every
    tracked object, about 20 ms once numpy is loaded, to free memory the
    exit returns anyway; frozen objects are left out of them.  It does
    not call ``os._exit``, which would skip ``atexit`` handlers (where
    coverage.py saves its data) and the flush of stdout and stderr.
    :func:`main` itself does not freeze, so in-process callers keep
    normal collection.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
