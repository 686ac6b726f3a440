"""Shared construction helpers for the test suite."""
from __future__ import annotations

import math
import random
from datetime import date, timedelta

import numpy as np

from roadtwin.geo import EARTH_RADIUS_M
from roadtwin.road_graph import Edge, RoadGraph
from roadtwin.osm_ingest import HighwayClass, RawRoadData, Way
from roadtwin.embedding import RoadEmbedding
from roadtwin.traffic_data import (
    QUALITY_OBSERVED,
    TrafficSeries,
)

LAT0, LON0 = 40.0, -3.0


def make_graph(triples, cls=HighwayClass.RESIDENTIAL, coords=None) -> RoadGraph:
    """Graph from (src, dst, travel_time_s) triples.

    Length equals travel time (speed fixed at 1 m/s) unless real
    coordinates are supplied via ``coords``.
    """
    names = sorted({u for t in triples for u in t[:2]})
    nodes = {n: (coords[n] if coords else (0.0, 0.0)) for n in names}
    edges = [Edge(u, v, float(w), 3.6, float(w), cls) for u, v, w in triples]
    return RoadGraph(nodes, edges)


def north_of(lat: float, meters: float) -> float:
    """Latitude ``meters`` due north of ``lat``."""
    return lat + math.degrees(meters / EARTH_RADIUS_M)


def east_of(lat: float, lon: float, meters: float) -> float:
    """Longitude ``meters`` due east at latitude ``lat``."""
    return lon + math.degrees(meters / (EARTH_RADIUS_M * math.cos(math.radians(lat))))


def geo_edge(src, dst, nodes, cls=HighwayClass.RESIDENTIAL, speed_kph=30.0, lanes=None) -> Edge:
    """Edge whose length is the haversine distance between its endpoints."""
    from roadtwin.geo import haversine_m

    length = haversine_m(*nodes[src], *nodes[dst])
    tt = length / (speed_kph / 3.6)
    return Edge(src, dst, length, speed_kph, tt, cls, lanes)


def geo_graph(nodes, links, cls=HighwayClass.RESIDENTIAL, speed_kph=30.0, two_way=True) -> RoadGraph:
    """Graph over real coordinates; links are (src, dst) pairs."""
    edges = []
    for src, dst in links:
        edges.append(geo_edge(src, dst, nodes, cls, speed_kph))
        if two_way:
            edges.append(geo_edge(dst, src, nodes, cls, speed_kph))
    return RoadGraph(nodes, edges)


def emb(sensor_id: str, normalized, raw=None) -> RoadEmbedding:
    """Embedding stub with a given normalized vector (for selection tests)."""
    raw = raw if raw is not None else list(normalized)
    return RoadEmbedding(
        sensor_id=sensor_id,
        spbc_central=raw[0],
        spbc_neighbors_max=raw[1],
        spbc_neighbors_median=raw[2],
        travel_time_motorway_s=raw[3],
        travel_time_primary_s=raw[4],
        road_type_code=raw[5],
        lanes=raw[6],
        normalized=tuple(float(v) for v in normalized),
    )


def make_series(days, sensor_id="t", interval_min=15) -> TrafficSeries:
    """Series from {date: values}; values may be a scalar, a full-day
    array, or contain NaN to mark missing slots.  Dates absent from the
    mapping (inside the span) stay entirely missing."""
    dates = sorted(days)
    start, end = dates[0], dates[-1]
    n_days = (end - start).days + 1
    slots = 1440 // interval_min
    flows = np.zeros((n_days, slots))
    quality = np.zeros((n_days, slots), dtype=np.int8)
    for d, vals in days.items():
        i = (d - start).days
        arr = np.asarray(vals, dtype=float)
        if arr.ndim == 0:
            arr = np.full(slots, float(arr))
        if arr.shape != (slots,):
            raise AssertionError(f"day {d}: expected {slots} slots, got {arr.shape}")
        mask = ~np.isnan(arr)
        flows[i][mask] = arr[mask]
        quality[i][mask] = QUALITY_OBSERVED
    return TrafficSeries(sensor_id, interval_min, start, flows, quality)


def week_of(start: date, n: int):
    return [start + timedelta(days=i) for i in range(n)]


MONDAY = date(2019, 1, 7)  # a plain Monday, no 2019 holiday nearby


def osm_doc(nodes, ways):
    """Tiny OSM XML builder: nodes {id: (lat, lon)}, ways [(id, refs, tags)]."""
    parts = ['<?xml version="1.0" encoding="UTF-8"?>', '<osm version="0.6">']
    for nid, (lat, lon) in nodes.items():
        parts.append(f'<node id="{nid}" lat="{lat!r}" lon="{lon!r}"/>')
    for wid, refs, tags in ways:
        parts.append(f'<way id="{wid}">')
        for r in refs:
            parts.append(f'<nd ref="{r}"/>')
        for k, v in tags.items():
            parts.append(f'<tag k="{k}" v="{v}"/>')
        parts.append("</way>")
    parts.append("</osm>")
    return "\n".join(parts).encode("utf-8")


def grid_extract(n=14, spacing_m=110.0, bends=2, seed=7) -> RawRoadData:
    """n x n junction grid of map-spanning ways with bend nodes between junctions.

    Every 5th line is a oneway motorway and every 4th primary (some with
    maxspeed and lanes tags); one vertical line is split into two ways
    meeting mid-grid, and a footway-free residential loop closes on
    itself.
    """
    rng = random.Random(seed)
    nodes: dict[str, tuple[float, float]] = {}

    def point(x_m, y_m):
        lat = north_of(LAT0, y_m + rng.uniform(-3.0, 3.0))
        return lat, east_of(lat, LON0, x_m + rng.uniform(-3.0, 3.0))

    for i in range(n):
        for j in range(n):
            nodes[f"j{i}_{j}"] = point(i * spacing_m, j * spacing_m)

    def line(ids_of, tag):
        refs = []
        for k in range(n):
            refs.append(ids_of(k))
            if k < n - 1:
                for b in range(1, bends + 1):
                    nid = f"{tag}b{k}_{b}"
                    a, c = nodes[ids_of(k)], nodes[ids_of(k + 1)]
                    f = b / (bends + 1)
                    nodes[nid] = (a[0] + f * (c[0] - a[0]) + rng.uniform(-2e-5, 2e-5),
                                  a[1] + f * (c[1] - a[1]) + rng.uniform(-2e-5, 2e-5))
                    refs.append(nid)
        return refs

    def tags(i):
        if i % 5 == 0:
            return {"highway": "motorway", "oneway": "yes", "lanes": "3"}
        if i % 4 == 0:
            return {"highway": "primary", "maxspeed": "60", "lanes": "2"}
        return {"highway": "residential" if i % 2 else "tertiary"}

    ways = []
    for i in range(n):
        ways.append(Way(f"h{i}", line(lambda k, i=i: f"j{k}_{i}", f"h{i}"), tags(i)))
        refs = line(lambda k, i=i: f"j{i}_{k}", f"v{i}")
        if i == 3:
            mid = refs.index(f"j{i}_{n // 2}")
            ways.append(Way("v3a", refs[: mid + 1], tags(i)))
            ways.append(Way("v3b", refs[mid:], {"highway": "secondary_link"}))
        else:
            ways.append(Way(f"v{i}", refs, tags(i)))
    loop = ["j2_2", "j2_3", "j3_3", "j3_2", "j2_2"]
    ways.append(Way("loop", loop, {"highway": "residential"}))
    return RawRoadData(nodes=nodes, ways=ways)
