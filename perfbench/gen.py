"""Seeded inputs for the benchmark workloads.

The synthetic "bench city" is a square grid of junctions about 110 m
apart, with 3 geometry nodes on every block side.  Line ``i`` of either
direction is a oneway motorway when ``i % 20 == 0``, primary when
``i % 10 == 0``, secondary when ``i % 5 == 0``, tertiary when even and
residential otherwise; a few footways are added for the class filter to
drop.  Sensors sit 6-15 m off distinct block sides.  Traffic is 15-minute
counts with injected spikes, short gaps (interpolated by cleaning), long
gaps and truncated days (left incomplete), plus a holiday calendar.

The seed moves node jitter, sensor sites, noise and faults; the road
pattern and sizes are fixed per workload.  One seed gives byte-identical
files.  Paths in the written config are relative to the input directory,
so the program's outputs do not depend on where the checkout lives.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

EARTH_RADIUS_M = 6371008.8
CENTER = (40.4500, -3.6900)
SPACING_M = 110.0
GEOMETRY_NODES = 3
SLOTS = 96  # 15-minute grid
START = date(2019, 1, 7)  # a Monday

_CLASS_AMPLITUDE = {
    "motorway": 900.0,
    "primary": 600.0,
    "secondary": 420.0,
    "tertiary": 250.0,
    "residential": 110.0,
}


@dataclass(frozen=True)
class CitySpec:
    """Sizes of one generated input set."""

    grid: int  # junctions per side; 0 = no map
    sensors: int
    days: int  # 0 = no traffic
    sensor_margin_m: float = SPACING_M  # keep sensors this far inside the map


def line_class(i: int) -> str:
    if i % 20 == 0:
        return "motorway"
    if i % 10 == 0:
        return "primary"
    if i % 5 == 0:
        return "secondary"
    if i % 2 == 0:
        return "tertiary"
    return "residential"


def _latlon(x: float, y: float) -> tuple[float, float]:
    """Equirectangular inverse around CENTER; (x, y) in metres."""
    lat = CENTER[0] + math.degrees(y / EARTH_RADIUS_M)
    lon = CENTER[1] + math.degrees(x / (EARTH_RADIUS_M * math.cos(math.radians(CENTER[0]))))
    return lat, lon


def _line_tags(i: int, vertical: bool) -> dict[str, str]:
    cls = line_class(i)
    tags = {"highway": cls, "name": f"{'Avenue' if vertical else 'Street'} {i}"}
    if cls == "motorway":
        tags.update(oneway="yes", lanes="3", maxspeed="90")
    elif cls == "primary":
        tags.update(lanes="2", maxspeed="50")
    elif cls == "secondary":
        tags.update(lanes="2")
    elif cls == "tertiary" and i % 4 == 0:
        tags.update(maxspeed="30 mph")
    return tags


def write_city(path: str, grid: int, rng: np.random.Generator) -> dict:
    """Write the OSM XML grid; returns the geometry needed to place sensors."""
    half = (grid - 1) * SPACING_M / 2.0
    jx = rng.uniform(-4.0, 4.0, size=(grid, grid))
    jy = rng.uniform(-4.0, 4.0, size=(grid, grid))
    junction = {}  # (row, col) -> (id, x, y)
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', '<osm version="0.6" generator="perfbench">']
    next_id = 1

    def node(x: float, y: float) -> int:
        nonlocal next_id
        lat, lon = _latlon(x, y)
        lines.append(f'  <node id="{next_id}" lat="{lat:.7f}" lon="{lon:.7f}"/>')
        next_id += 1
        return next_id - 1

    for r in range(grid):
        for c in range(grid):
            x = c * SPACING_M - half + jx[r, c]
            y = r * SPACING_M - half + jy[r, c]
            junction[r, c] = (node(x, y), x, y)

    def chain(ends: list[tuple[int, int]]) -> list[int]:
        """Junction ids of a line with the geometry nodes of each block side."""
        ids = [junction[ends[0]][0]]
        for a, b in zip(ends, ends[1:]):
            _, ax, ay = junction[a]
            _, bx, by = junction[b]
            for k in range(1, GEOMETRY_NODES + 1):
                t = k / (GEOMETRY_NODES + 1)
                wobble = rng.uniform(-3.0, 3.0, size=2)
                ids.append(node(ax + t * (bx - ax) + wobble[0], ay + t * (by - ay) + wobble[1]))
            ids.append(junction[b][0])
        return ids

    ways = []
    for i in range(grid):
        row = [(i, c) for c in range(grid)]
        col = [(r, i) for r in range(grid)]
        for ends, vertical in ((row, False), (col, True)):
            if line_class(i) == "motorway" and (i // 20) % 2:
                ends = ends[::-1]
            ways.append((chain(ends), _line_tags(i, vertical)))
    # footways across every 10th block: parsed, then dropped by the class filter
    for r in range(0, grid - 1, 10):
        for c in range(5, grid - 1, 10):
            ways.append(([junction[r, c][0], junction[r + 1, c + 1][0]], {"highway": "footway"}))

    for way_id, (refs, tags) in enumerate(ways, start=1):
        lines.append(f'  <way id="{way_id}">')
        lines.extend(f'    <nd ref="{ref}"/>' for ref in refs)
        lines.extend(f'    <tag k="{k}" v="{tags[k]}"/>' for k in sorted(tags))
        lines.append("  </way>")
    lines.append("</osm>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return {"junction": junction, "nodes": next_id - 1, "half": half}


def place_sensors(city: dict, spec: CitySpec, rng: np.random.Generator) -> list[tuple]:
    """(sensor_id, lat, lon, host class) just off distinct block sides."""
    junction, half = city["junction"], city["half"]
    grid = spec.grid
    sides = []
    for r in range(grid):
        for c in range(grid):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < grid and c + dc < grid:
                    _, ax, ay = junction[r, c]
                    _, bx, by = junction[r + dr, c + dc]
                    lim = half - spec.sensor_margin_m
                    if max(abs(ax), abs(ay), abs(bx), abs(by)) <= lim:
                        sides.append((r, c, dr, dc))
    picks = rng.choice(len(sides), size=spec.sensors, replace=False)
    sensors = []
    for n, k in enumerate(sorted(picks), start=1):
        r, c, dr, dc = sides[k]
        _, ax, ay = junction[r, c]
        _, bx, by = junction[r + dr, c + dc]
        t = rng.uniform(0.25, 0.75)
        offset = rng.uniform(6.0, 15.0) * rng.choice([-1.0, 1.0])
        dx, dy = bx - ax, by - ay
        norm = math.hypot(dx, dy)
        x = ax + t * dx - offset * dy / norm
        y = ay + t * dy + offset * dx / norm
        lat, lon = _latlon(x, y)
        host = line_class(r if dr == 0 else c)
        sensors.append((f"s{n:03d}", lat, lon, host))
    return sensors


def _day_shape(phase: float) -> np.ndarray:
    t = np.arange(SLOTS) * 0.25
    gauss = lambda mu, sigma: np.exp(-0.5 * ((t - mu) / sigma) ** 2)  # noqa: E731
    return (
        0.07
        + 0.90 * gauss(8.0 + phase, 1.4)
        + 0.75 * gauss(18.4 + phase, 1.9)
        + 0.18 * gauss(13.0, 3.5)
    )


def holidays_for(days: int, rng: np.random.Generator) -> list[date]:
    """About one holiday a month, on seed-chosen weekdays."""
    out = []
    for month_start in range(0, days, 30):
        d = START + timedelta(days=int(month_start + rng.integers(0, min(30, days - month_start))))
        if d.weekday() < 5:
            out.append(d)
    return sorted(set(out))


def write_traffic(path: str, sid: str, host: str, days: int, holidays: set,
                  rng: np.random.Generator) -> int:
    """One sensor's CSV; returns its data row count."""
    amp = _CLASS_AMPLITUDE[host] * rng.uniform(0.8, 1.2)
    shape = _day_shape(rng.uniform(-0.5, 0.5))
    dates = [START + timedelta(days=i) for i in range(days)]
    scale = np.array([0.5 if d in holidays else 0.6 if d.weekday() >= 5 else 1.0 for d in dates])
    flows = amp * scale[:, None] * shape[None, :] + rng.normal(0.0, 0.04 * amp, (days, SLOTS))
    flows = np.maximum(flows, 1.0).round()
    keep = np.ones((days, SLOTS), dtype=bool)

    n_faults = max(1, days // 30)
    spike_days = rng.choice(days, size=n_faults, replace=False)
    for d in spike_days:
        s = int(rng.integers(24, 84))
        flows[d, s] = round(flows[d, s] * rng.uniform(7.0, 10.0))
    for d in rng.choice(days, size=n_faults, replace=False):  # short gap, interpolated
        s = int(rng.integers(4, 88))
        keep[d, s:s + int(rng.integers(1, 5))] = False
    for d in rng.choice(days, size=max(1, n_faults // 2), replace=False):  # long gap
        s = int(rng.integers(10, 70))
        keep[d, s:s + int(rng.integers(8, 20))] = False
    truncated = int(rng.integers(1, days - 1))
    keep[truncated, int(rng.integers(40, 80)):] = False

    times = [f"T{m // 60:02d}:{m % 60:02d}:00" for m in range(0, 1440, 15)]
    rows = ["sensor_id,timestamp,flow"]
    for i, d in enumerate(dates):
        day = d.isoformat()
        rows.extend(
            f"{sid},{day}{times[s]},{int(flows[i, s])}" for s in range(SLOTS) if keep[i, s]
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    return len(rows) - 1


def generate(out_dir: str, spec: CitySpec, seed: int) -> dict:
    """Write every input for ``spec`` under ``out_dir``; returns a summary."""
    os.makedirs(out_dir, exist_ok=True)
    root = np.random.SeedSequence([seed, spec.grid, spec.sensors, spec.days])
    map_rng, sensor_rng, day_rng, *traffic_seeds = (
        np.random.default_rng(s) for s in root.spawn(3 + spec.sensors)
    )
    config = {}
    summary = {"seed": seed, "sensors": spec.sensors, "days": spec.days}

    if spec.grid:
        city = write_city(os.path.join(out_dir, "city.osm"), spec.grid, map_rng)
        sensors = place_sensors(city, spec, sensor_rng)
        with open(os.path.join(out_dir, "sensors.csv"), "w", encoding="utf-8") as fh:
            fh.write("sensor_id,lat,lon\n")
            fh.writelines(f"{sid},{lat:.7f},{lon:.7f}\n" for sid, lat, lon, _ in sensors)
        config.update(osm_path="city.osm", sensors_path="sensors.csv")
        summary.update(osm_nodes=city["nodes"], osm_bytes=os.path.getsize(os.path.join(out_dir, "city.osm")))
    else:
        hosts = [line_class(int(i)) for i in sensor_rng.integers(0, 40, size=spec.sensors)]
        sensors = [(f"s{n:03d}", None, None, h) for n, h in enumerate(hosts, start=1)]

    if spec.days:
        holidays = holidays_for(spec.days, day_rng)
        with open(os.path.join(out_dir, "holidays.csv"), "w", encoding="utf-8") as fh:
            fh.write("# bench city public holidays\n")
            fh.writelines(d.isoformat() + "\n" for d in holidays)
        traffic_dir = os.path.join(out_dir, "traffic")
        os.makedirs(traffic_dir, exist_ok=True)
        rows = sum(
            write_traffic(os.path.join(traffic_dir, f"{sid}.csv"), sid, host, spec.days,
                          set(holidays), rng)
            for (sid, _lat, _lon, host), rng in zip(sensors, traffic_seeds)
        )
        config.update(traffic_dir="traffic", holidays_path="holidays.csv")
        summary.update(traffic_rows=rows, holidays=len(holidays))

    summary["sensor_ids"] = [s[0] for s in sensors]
    summary["config"] = config
    with open(os.path.join(out_dir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return summary
