"""Pipeline configuration: one dataclass, JSON file loading, flag overrides.

Every key can be set in a JSON config file and overridden by a
``--key=value`` CLI flag.  The canonical snapshot (and its SHA-256 hash)
is embedded in every output so mixed-config artifacts can be rejected.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields

from .errors import ArgumentError, FormatError, read_text
from .osm_ingest import ACCEPTED_HIGHWAYS
from .selection import DISTANCE_METRICS

# Tie-break and convention choices that shape the numbers, recorded in
# every report so results stay interpretable.
DECISIONS = {
    "ego_hop_reachability": "undirected",
    "spbc_convention": "unnormalized_endpoint_excluded_all_equal_paths",
    "centrality_neighbor_scope": "all_ego_nodes_except_center",
    "unreachable_travel_time": "normalizes_to_1",
    "feature_scaling": "min_max_over_joint_pool",
    "median_even_count": "mean_of_central_pair",
    "profile_days": "complete_days_only",
    "day_class_encoding": "weekday_index_plus_7_on_holidays",
    "friedman_tie_correction": "omitted",
    "generation_rank_days": "listwise_complete_rows",
}

_PATH_FIELDS = ("osm_path", "sensors_path", "traffic_dir", "holidays_path", "output_dir")


@dataclass
class PipelineConfig:
    # input / output locations
    osm_path: str | None = None
    sensors_path: str | None = None
    traffic_dir: str | None = None
    holidays_path: str | None = None
    output_dir: str = "out"
    # graph construction
    radius_m: float = 2000.0
    ego_hops: int = 5
    snap_threshold_m: float = 100.0
    default_speeds: dict = field(default_factory=dict)
    # traffic series
    interval_min: int = 15
    spike_factor: float = 5.0
    max_gap: int = 4
    # selection and statistics
    distance: str = "l2"
    alpha: float = 0.05

    def validate(self) -> "PipelineConfig":
        for name in ("radius_m", "snap_threshold_m", "spike_factor"):
            value = getattr(self, name)
            # false for NaN as well
            if not 0 < value < math.inf:
                raise ArgumentError(f"{name} must be positive and finite, got {value}")
        if self.ego_hops < 1:
            raise ArgumentError(f"ego_hops must be >= 1, got {self.ego_hops}")
        if self.interval_min < 1 or 1440 % self.interval_min != 0:
            raise ArgumentError(
                f"interval_min must divide 1440 minutes, got {self.interval_min}"
            )
        if self.max_gap < 0:
            raise ArgumentError(f"max_gap must be >= 0, got {self.max_gap}")
        if self.distance not in DISTANCE_METRICS:
            raise ArgumentError(f"distance must be 'l2' or 'l1', got {self.distance!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ArgumentError(f"alpha must be in (0, 1), got {self.alpha}")
        for k, v in self.default_speeds.items():
            if k not in ACCEPTED_HIGHWAYS:
                raise ArgumentError(
                    f"default_speeds key {k!r} is not a road class "
                    f"({', '.join(sorted(ACCEPTED_HIGHWAYS))})"
                )
            # a JSON number: bool is an int subclass, but true is no speed
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v < math.inf:
                raise ArgumentError(
                    f"default speed for {k!r} must be a positive finite number, got {v!r}"
                )
        return self

    def require(self, *keys: str) -> None:
        """Raise ``ArgumentError`` for the first of ``keys`` left unset."""
        for key in keys:
            if not getattr(self, key):
                raise ArgumentError(f"config key {key!r} is required for this command")

    def snapshot(self) -> dict:
        """Canonical JSON-ready view of the configuration.

        ``output_dir`` is excluded: it decides where results are written,
        not what they contain, so it must not perturb the config hash.
        """
        snap = dataclasses.asdict(self)
        del snap["output_dir"]
        return snap

    def config_hash(self) -> str:
        canon = json.dumps(self.snapshot(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _coerce(name: str, kind, raw):
    if raw is None:
        return None
    try:
        if kind is float:
            return float(raw)
        if kind is int:
            # reject silent truncation of e.g. ego_hops=2.5
            f = float(raw)
            i = int(f)
            if i != f:
                raise ValueError(f"{raw!r} is not an integer")
            return i
        if kind is dict:
            return dict(json.loads(raw)) if isinstance(raw, str) else dict(raw)
        return str(raw)
    except (TypeError, ValueError) as exc:
        raise ArgumentError(f"bad value for config key {name!r}: {exc}") from exc


# ``from __future__ import annotations`` leaves each field's type as its
# annotation text; ``str | None`` coerces like ``str`` (``None`` stays None)
_ANNOTATION_TYPES = {"str | None": str, "str": str, "float": float, "int": int, "dict": dict}

FIELD_TYPES = {f.name: _ANNOTATION_TYPES[f.type] for f in fields(PipelineConfig)}


def load_config(path: str | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Config from a JSON file plus flag overrides (flags win).

    Relative paths inside the file resolve against the file's directory;
    unknown keys are rejected.
    """
    values: dict = {}
    base_dir = None
    if path is not None:
        text = read_text(path, f"config {path}")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise FormatError(f"config {path} must hold a JSON object")
        base_dir = os.path.dirname(os.path.abspath(path))
        values.update(data)

    unknown = set(values) - set(FIELD_TYPES)
    if unknown:
        raise ArgumentError(f"unknown config keys: {', '.join(sorted(unknown))}")
    coerced = {k: _coerce(k, FIELD_TYPES[k], v) for k, v in values.items()}
    if base_dir:
        for k in _PATH_FIELDS:
            if coerced.get(k) and not os.path.isabs(coerced[k]):
                coerced[k] = os.path.normpath(os.path.join(base_dir, coerced[k]))

    for k, v in (overrides or {}).items():
        if k not in FIELD_TYPES:
            raise ArgumentError(f"unknown config key {k!r}")
        if v is not None:
            coerced[k] = _coerce(k, FIELD_TYPES[k], v)

    return PipelineConfig(**coerced).validate()
