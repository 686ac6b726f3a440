"""Span recording around roadtwin's public functions, from outside the package.

``SITES`` lists the call sites the traced run rebinds: the module
attribute a caller looks up at call time, the span name (``module.fn`` of
the function's home module) and an optional counter that reads work
counts off the call's arguments and return value.  Spans live in memory
as ``[name, start, end, parent_index, counts]`` lists; ``traced_cli.py``
writes them out when the command ends.

The program is pinned to one thread while traced, so one stack of open
spans is enough to find each span's parent.
"""
from __future__ import annotations

import functools
import importlib
import os
import statistics
import time

QUALITY_OBSERVED = 1  # roadtwin.traffic_data.QUALITY_OBSERVED


def _graph_counts(args, kwargs, result):
    return {"raw_nodes": len(args[0].nodes), "nodes": len(result.nodes), "edges": len(result.edges)}


def _ego_counts(args, kwargs, result):
    return {"nodes": len(result.graph.nodes)}


def _traffic_counts(args, kwargs, result):
    return {"rows": sum(int((s.quality == QUALITY_OBSERVED).sum()) for s in result.values())}


def _cleaning_counts(args, kwargs, result):
    stats = result[1]
    return {"spikes": stats.spikes_removed, "interpolated": stats.slots_interpolated}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, counter); one function may be looked up
# at more than one site, and every site gets the same span name.
SITES = [
    ("roadtwin.cli", "parse_osm_extract", "osm_ingest.parse_osm_extract", None),
    ("roadtwin.osm_ingest", "parse_osm_extract", "osm_ingest.parse_osm_extract", None),
    ("roadtwin.pipeline", "build_graph", "osm_ingest.build_graph", _graph_counts),
    ("roadtwin.pipeline", "insert_central_node", "road_graph.insert_central_node", None),
    ("roadtwin.pipeline", "ego_graph", "road_graph.ego_graph", _ego_counts),
    ("roadtwin.embedding", "dijkstra_from", "road_graph.dijkstra_from", None),
    ("roadtwin.pipeline", "build_embedding", "embedding.build_embedding", None),
    ("roadtwin.embedding", "betweenness", "embedding.betweenness", None),
    ("roadtwin.embedding", "travel_time_to_class", "embedding.travel_time_to_class", None),
    ("roadtwin.pipeline", "load_sensors", "pipeline.load_sensors", None),
    ("roadtwin.pipeline", "embed_position", "pipeline.embed_position", None),
    ("roadtwin.pipeline", "embed_sensors", "pipeline.embed_sensors", None),
    ("roadtwin.pipeline", "load_traffic_dir", "pipeline.load_traffic_dir", None),
    ("roadtwin.pipeline", "run_benchmark", "pipeline.run_benchmark", None),
    ("roadtwin.pipeline", "load_traffic_csv", "traffic_data.load_traffic_csv", _traffic_counts),
    ("roadtwin.pipeline", "clean_series", "traffic_data.clean_series", _cleaning_counts),
    ("roadtwin.cli", "daily_profile", "traffic_data.daily_profile", None),
    ("roadtwin.pipeline", "daily_profile", "traffic_data.daily_profile", None),
    ("roadtwin.evaluation", "selection_benchmark", "evaluation.selection_benchmark", None),
    ("roadtwin.evaluation", "select_by_embedding", "selection.select_by_embedding", None),
    ("roadtwin.evaluation", "select_by_geography", "selection.select_by_geography", None),
    ("roadtwin.generation", "fit_cluster_model", "generation.fit_cluster_model", None),
    ("roadtwin.evaluation", "generation_benchmark", "evaluation.generation_benchmark", None),
    ("roadtwin.evaluation", "nemenyi_posthoc", "evaluation.nemenyi_posthoc", None),
    ("roadtwin.cli", "write_csv", "output.write_csv", _bytes_written),
    ("roadtwin.cli", "write_json", "output.write_json", _bytes_written),
    ("roadtwin.cli", "profile_svg", "svgplot.profile_svg", None),
]
ROOT_SPAN = "cli.main"
SPAN_NAMES = [ROOT_SPAN] + sorted({site[2] for site in SITES})


class Tracer:
    """In-memory span recorder."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None, counter=None):
        kwargs = kwargs or {}
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = self.clock()
            self._open.pop()
        if counter is not None:
            span[4] = counter(args, kwargs, result)
        return result

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return traced


def install(tracer: Tracer, sites=SITES) -> list[tuple]:
    """Rebind every site to a span-recording wrapper; returns what to restore.

    A site whose attribute is gone raises, so a renamed function cannot
    silently report zero calls.
    """
    saved = []
    try:
        for module_name, attr, name, counter in sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                raise LookupError(f"trace site {module_name}.{attr} no longer exists")
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, counter))
    except BaseException:
        restore(saved)
        raise
    return saved


def restore(saved: list[tuple]):
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)
    for module, attr, original in saved:
        if getattr(module, attr) is not original:
            raise RuntimeError(f"could not restore {module.__name__}.{attr}")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for cs, ce in sorted(children.get(i, [])):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def self_ms_by_name(spans) -> dict[str, float]:
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        out[span[0]] = out.get(span[0], 0.0) + own * 1000.0
    return out


def _quantile(values, q: float) -> float:
    """Linear-interpolated quantile; 0 for no values."""
    if not values:
        return 0.0
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (zero where a layer is idle)."""
    ms: dict[str, list[float]] = {}
    counts: dict[str, list[dict]] = {}
    for name, start, end, _parent, c in spans:
        ms.setdefault(name, []).append((end - start) * 1000.0)
        if c is not None:
            counts.setdefault(name, []).append(c)

    def total(name):
        return sum(ms.get(name, []))

    def per_call(name):
        calls = ms.get(name, [])
        return sum(calls) / len(calls) if calls else 0.0

    def count_sum(name, key):
        return sum(c[key] for c in counts.get(name, []))

    graphs = counts.get("osm_ingest.build_graph", [])
    positions = len(ms.get("pipeline.embed_position", []))
    rows = count_sum("traffic_data.load_traffic_csv", "rows")
    targets = len(ms.get("evaluation.generation_benchmark", []))
    m = {
        "osm_ingest.parse_osm_extract.ms": total("osm_ingest.parse_osm_extract"),
        "osm_ingest.build_graph.ms_per_call": per_call("osm_ingest.build_graph"),
        "osm_ingest.build_graph.radius_node_share": _quantile(
            [g["nodes"] / g["raw_nodes"] for g in graphs], 0.5
        ),
        "road_graph.radius_graph.edges_p50": _quantile([g["edges"] for g in graphs], 0.5),
        "road_graph.insert_central_node.ms_per_call": per_call("road_graph.insert_central_node"),
        "road_graph.ego_graph.ms_per_call": per_call("road_graph.ego_graph"),
        "road_graph.ego_graph.nodes_p50": _quantile(
            [c["nodes"] for c in counts.get("road_graph.ego_graph", [])], 0.5
        ),
        "road_graph.dijkstra_from.ms_per_call": per_call("road_graph.dijkstra_from"),
        "road_graph.dijkstra_from.calls_per_position": (
            len(ms.get("road_graph.dijkstra_from", [])) / positions if positions else 0.0
        ),
        "embedding.betweenness.ms_per_call": per_call("embedding.betweenness"),
        "embedding.travel_time_to_class.ms_per_call": per_call("embedding.travel_time_to_class"),
        "pipeline.embed_position.ms_p50": _quantile(ms.get("pipeline.embed_position", []), 0.5),
        "pipeline.embed_position.ms_p75": _quantile(ms.get("pipeline.embed_position", []), 0.75),
        "pipeline.embed_sensors.ms": total("pipeline.embed_sensors"),
        "pipeline.load_traffic_dir.ms": total("pipeline.load_traffic_dir"),
        "traffic_data.load_traffic_csv.rows": float(rows),
        "traffic_data.load_traffic_csv.ms_per_krow": (
            total("traffic_data.load_traffic_csv") / (rows / 1000.0) if rows else 0.0
        ),
        "traffic_data.clean_series.ms_per_series": per_call("traffic_data.clean_series"),
        "traffic_data.clean_series.spikes_removed": float(count_sum("traffic_data.clean_series", "spikes")),
        "traffic_data.clean_series.slots_interpolated": float(
            count_sum("traffic_data.clean_series", "interpolated")
        ),
        "traffic_data.daily_profile.ms_per_call": per_call("traffic_data.daily_profile"),
        "evaluation.selection_benchmark.ms": total("evaluation.selection_benchmark"),
        "selection.select_by_embedding.calls": float(len(ms.get("selection.select_by_embedding", []))),
        "generation.fit_cluster_model.ms_per_call": per_call("generation.fit_cluster_model"),
        "evaluation.generation_benchmark.ms_per_target": (
            total("evaluation.generation_benchmark") / targets if targets else 0.0
        ),
        "evaluation.nemenyi_posthoc.ms_per_call": per_call("evaluation.nemenyi_posthoc"),
        "output.write_csv.ms": total("output.write_csv"),
        "output.bytes_written": float(
            count_sum("output.write_csv", "bytes") + count_sum("output.write_json", "bytes")
        ),
        "svgplot.profile_svg.ms_per_call": per_call("svgplot.profile_svg"),
    }
    own = self_ms_by_name(spans)
    for name in SPAN_NAMES:
        m[f"self_ms.{name}"] = own.get(name, 0.0)
    return m


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
