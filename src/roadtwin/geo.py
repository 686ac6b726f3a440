"""Geodesic helpers: haversine distance and a local flat projection.

All coordinates are WGS84 degrees (lat, lon).  The projection is a plain
equirectangular mapping around a reference point, which is accurate to
well under a metre at the few-kilometre scale this package works on.
"""
from __future__ import annotations

import math

import numpy as np

EARTH_RADIUS_M = 6371008.8  # IUGG mean Earth radius


def coordinate_problem(lat: float | None, lon: float | None) -> str | None:
    """Why ``lat`` or ``lon`` is no valid coordinate, or None.

    A latitude must be finite and in [-90, 90], a longitude finite and in
    [-180, 180].  A side given as None is not checked.
    """
    for name, value, limit in (("latitude", lat, 90.0), ("longitude", lon, 180.0)):
        # false for NaN as well
        if value is not None and not -limit <= value <= limit:
            return f"{name} {value} is not a finite number in [{-limit:g}, {limit:g}]"
    return None


def parse_coordinate(text: str) -> float:
    """``float(text)``, refusing what ``float`` reads beyond ASCII
    numbers: underscores between digits and non-ASCII digits or spaces."""
    if "_" in text or not text.isascii():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in metres between two points."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    # clamp guards rounding noise on antipodal / identical points
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def haversine_m_array(lat0: float | np.ndarray, lon0: float | np.ndarray, lats: np.ndarray,
                      lons: np.ndarray) -> np.ndarray:
    """:func:`haversine_m` from ``(lat0, lon0)`` to arrays of points,
    vectorised; ``lat0`` and ``lon0`` may be arrays too, pair by pair.

    Same formula, but numpy's sin/cos/arcsin may differ from the math
    module's in the last bits, and so may the distances.
    """
    phi1 = np.radians(lat0)
    phi2 = np.radians(lats)
    dphi = phi2 - phi1
    dlam = np.radians(lons - lon0)
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.minimum(1.0, a)))


class LocalProjection:
    """Equirectangular projection centred on (lat0, lon0), in metres."""

    def __init__(self, lat0: float, lon0: float):
        self.lat0 = float(lat0)
        self.lon0 = float(lon0)
        self._coslat = math.cos(math.radians(lat0))

    def to_xy(self, lat: float, lon: float) -> tuple[float, float]:
        x = math.radians(lon - self.lon0) * EARTH_RADIUS_M * self._coslat
        y = math.radians(lat - self.lat0) * EARTH_RADIUS_M
        return x, y

    def to_latlon(self, x: float, y: float) -> tuple[float, float]:
        lat = self.lat0 + math.degrees(y / EARTH_RADIUS_M)
        lon = self.lon0 + math.degrees(x / (EARTH_RADIUS_M * self._coslat))
        return lat, lon


def point_segment_projection(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> tuple[float, float]:
    """Project point P onto segment AB.

    Returns ``(t, dist)`` where ``t`` is the clamped parameter in [0, 1]
    of the closest point ``A + t*(B - A)`` and ``dist`` the distance from
    P to that point.
    """
    dx = bx - ax
    dy = by - ay
    seg2 = dx * dx + dy * dy
    if seg2 <= 0.0:
        t = 0.0
    else:
        t = ((px - ax) * dx + (py - ay) * dy) / seg2
        t = min(1.0, max(0.0, t))
    cx = ax + t * dx
    cy = ay + t * dy
    return t, math.hypot(px - cx, py - cy)
