"""Fixed reference workload: the yardstick for the machine's current speed.

run.py starts this script in a fresh interpreter alongside the CLI
invocations it times and divides their median times by this script's
median time.  On a shared machine whose speed drifts by tens of percent
over minutes, the ratio stays put while raw seconds do not.  The work
mirrors the program's hot paths (string-keyed Dijkstra, haversine
arithmetic, ISO timestamp and CSV field parsing) and uses the standard
library only, so it costs the same whatever the program under test does.
Do not change it: doing so rescales every end-to-end time.
"""
from __future__ import annotations

import heapq
import math
from datetime import datetime, timedelta


def dijkstra_part(n: int = 16000) -> float:
    adj = {
        f"n{i}": [
            (f"n{(i * 7 + 1) % n}", 1.0 + (i % 5) * 0.37),
            (f"n{(i * 13 + 5) % n}", 2.0 + (i % 3) * 0.11),
            (f"n{(i + 1) % n}", 0.5 + math.sin(i) ** 2),
        ]
        for i in range(n)
    }
    total = 0.0
    for src in ("n0", "n17", "n123", "n4242", "n777", "n9001"):
        dist = {src: 0.0}
        heap = [(0.0, src)]
        done = set()
        while heap:
            d, v = heapq.heappop(heap)
            if v in done:
                continue
            done.add(v)
            for w, c in adj[v]:
                nd = d + c
                if nd < dist.get(w, math.inf):
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        total += max(dist.values())
    return total


def haversine_part(n: int = 240000) -> float:
    total = 0.0
    lat0, lon0 = math.radians(40.45), math.radians(-3.69)
    for i in range(n):
        lat = lat0 + (i % 401) * 1e-5
        lon = lon0 + (i % 397) * 1e-5
        a = math.sin((lat - lat0) / 2) ** 2 + math.cos(lat0) * math.cos(lat) * math.sin((lon - lon0) / 2) ** 2
        total += 2.0 * 6371008.8 * math.asin(min(1.0, math.sqrt(a)))
    return total


def parse_part(rows: int = 80000) -> float:
    start = datetime(2019, 1, 7)
    lines = [f"s1,{(start + timedelta(minutes=15 * i)).isoformat()},{i % 997}" for i in range(rows)]
    total = 0.0
    for line in lines:
        _sid, ts, flow = line.split(",")
        t = datetime.fromisoformat(ts)
        total += float(flow) * (t.hour + 1)
    return total


if __name__ == "__main__":
    print(round(dijkstra_part() + haversine_part() + parse_part(), 3))
