"""Positions are embedded straight from the map index: ``RadiusView``
builds the radius graph node by node as the snap, the ego-graph and the
travel-time search read it.  Every embedding, central node, ego-graph and
error must equal those of the whole-radius-graph path
(``oracles.embed_position_radius_graph``).  Ego-graphs are compared in
both forms: the index form Brandes reads, and the ids and travel time
of every ego edge, node by node in edge order."""
import math
import random

import pytest

from helpers import (
    LAT0, LON0, RoadGraph, east_of, graph_edges, grid_extract, index_graph, node_coords,
    north_of, row_of, shapes_extract, tangled_extract, view_edges, way_triples,
)
from oracles import (
    _insert_central_node_scan, build_graph_full_scan, embed_position_radius_graph,
)
from roadtwin import osm_ingest, pipeline
from roadtwin.config import DECISIONS, PipelineConfig
from roadtwin.embedding import UNREACHABLE, build_embedding, normalize_pool
from roadtwin.errors import RoadTwinError
from roadtwin.geo import EARTH_RADIUS_M, LocalProjection, point_segment_projection
from roadtwin.osm_ingest import RadiusView, RawRoadData, build_graph
from roadtwin.pipeline import SensorSpec, embed_position, embed_sensors
from roadtwin.road_graph import Edge, dijkstra_from, ego_graph, insert_central_node

from test_graph_crop import MINICITY_CENTERS
from test_road_graph import MINICITY_SENSORS

SPEEDS = {"residential": 45.0, "primary": 70.0, "motorway_link": 60.0}


def ego_edges(edges, nodes) -> list[tuple[str, str, float]]:
    """The ``(src, dst, travel_time_s)`` edges whose ends are both in ``nodes``."""
    keep = set(nodes)
    return [e for e in edges if e[0] in keep and e[1] in keep]


def arc_edges(view, arcs) -> list[Edge]:
    """A view's arcs as edges named by node id, as build_graph names them."""
    return [Edge(view.node_id(a.src), view.node_id(a.dst), *a[3:]) for a in arcs]


def via_index(raw, cfg, sensor_id, lat, lon, **overrides):
    """(embedding, central, ego-graph, ego edges) through RadiusView, or
    the error's (type, message)."""
    try:
        view = RadiusView(raw, (lat, lon), cfg.radius_m, cfg.default_speeds or None)
        central = insert_central_node(
            view, sensor_id, lat, lon, snap_threshold_m=cfg.snap_threshold_m
        )
        ego = ego_graph(view, central, cfg.ego_hops)
        emb = build_embedding(view, ego, central, sensor_id=sensor_id, **overrides)
        position = embed_position(raw, cfg, sensor_id, lat, lon, **overrides)
    except RoadTwinError as exc:
        return type(exc).__name__, str(exc)
    assert position == emb
    assert view.node_id(central.row) == central.node_id
    nodes = ego.graph.nodes
    return emb, central, ego.graph, ego_edges(view_edges(view, nodes), nodes)


def via_radius_graph(raw, cfg, sensor_id, lat, lon, **overrides):
    try:
        emb, central, ego = embed_position_radius_graph(raw, cfg, sensor_id, lat, lon, **overrides)
    except RoadTwinError as exc:
        return type(exc).__name__, str(exc)
    nodes = sorted(ego.nodes)
    return emb, central, index_graph(ego, ego.nodes), ego_edges(graph_edges(ego, nodes), nodes)


def assert_same_embedding(raw, cfg, sensor_id, lat, lon, **overrides):
    got = via_index(raw, cfg, sensor_id, lat, lon, **overrides)
    assert got == via_radius_graph(raw, cfg, sensor_id, lat, lon, **overrides)
    return got


def random_positions(raw, n, seed):
    rng = random.Random(seed)
    lats, lons = raw.lat.tolist(), raw.lon.tolist()
    return [(rng.uniform(min(lats), max(lats)), rng.uniform(min(lons), max(lons))) for _ in range(n)]


# ---------------------------------------------------------------------------
# differential: index path against the whole radius graph
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sensor", MINICITY_SENSORS, ids=lambda s: s.sensor_id)
def test_minicity_sensors(minicity_raw, sensor):
    got = assert_same_embedding(
        minicity_raw, PipelineConfig(), sensor.sensor_id, sensor.lat, sensor.lon,
        road_type_override=sensor.road_type_override, lanes_override=sensor.lanes_override,
    )
    assert not isinstance(got[0], str)


@pytest.mark.parametrize("center", MINICITY_CENTERS)
@pytest.mark.parametrize("radius_m", [150.0, 400.0, 800.0, 2000.0])
def test_minicity_positions_at_radii(minicity_raw, center, radius_m):
    for hops in (1, 3, 5):
        cfg = PipelineConfig(radius_m=radius_m, ego_hops=hops)
        assert_same_embedding(minicity_raw, cfg, "target", *center)


@pytest.mark.parametrize("seed", range(4))
def test_random_positions_on_the_generated_grid(seed):
    raw = grid_extract(seed=seed)
    rng = random.Random(seed)
    outcomes = set()
    for k, (lat, lon) in enumerate(random_positions(raw, 12, seed)):
        cfg = PipelineConfig(
            radius_m=rng.choice([150.0, 250.0, 400.0, 700.0, 1200.0, 2000.0]),
            ego_hops=rng.randint(1, 5),
            snap_threshold_m=rng.choice([30.0, 100.0]),
            default_speeds=rng.choice([{}, SPEEDS]),
        )
        got = assert_same_embedding(raw, cfg, f"p{k}", lat, lon)
        outcomes.add(got[0] if isinstance(got[0], str) else "ok")
    assert "ok" in outcomes


@pytest.mark.parametrize("speeds", [{}, SPEEDS], ids=["default-speeds", "overrides"])
@pytest.mark.parametrize("radius_m", [150.0, 230.0, 400.0, 1000.0, 2000.0, 4000.0])
def test_shapes(speeds, radius_m):
    raw, probes = shapes_extract()
    for name, (lat, lon) in probes.items():
        for threshold in (100.0, 300.0):
            cfg = PipelineConfig(radius_m=radius_m, snap_threshold_m=threshold,
                                 default_speeds=speeds)
            assert_same_embedding(raw, cfg, name, lat, lon)


def test_shapes_exercise_their_case():
    raw, probes = shapes_extract()
    cfg = PipelineConfig()

    def run(name, **kw):
        return via_index(raw, PipelineConfig(**kw) if kw else cfg, name, *probes[name])

    # the equidistant carriageways: the smaller (src, dst) hosts the sensor
    emb, central, ego, edges = run("dual")
    assert {(src, dst) for src, dst, _ in edges if central.node_id in (src, dst)} == {
        ("de0", "site:dual"), ("site:dual", "de2")}
    # equal parallel ways: one way's two directions are split, the
    # other's stay whole
    emb, central, ego, edges = run("parallel")
    assert len([e for e in edges if central.node_id in e[:2]]) == 4
    assert sorted(e[:2] for e in edges if set(e[:2]) == {"q0", "q1"}) == [("q0", "q1"), ("q1", "q0")]
    # the foot within 0.5 m of a junction reuses it
    assert run("near_junction")[1].node_id == "p2"
    # only the middle of the long way lies in a 250 m radius
    emb, central, ego, edges = run("middle", radius_m=250.0)
    assert {"l8", "l12"} <= set(ego.nodes) and not {"l7", "l13"} & set(ego.nodes)
    # the bend leaves a 230 m radius and re-enters it: two pieces
    view = RadiusView(raw, probes["curve_reentry"], 230.0)
    assert [dst for _, dst, _ in view_edges(view, ["p2"])] == ["cb1"]
    assert [src for src, _, _ in view_edges(view, ["c_top"], "in")] == ["cb7"]
    assert run("curve_reentry", radius_m=230.0)[0] == "SnapError"
    assert run("curve_reentry", radius_m=230.0, snap_threshold_m=300.0)[1].host_edge_class.value == "residential"
    # the apex is far from every chord, and the error names the nearest one
    assert run("curve_apex") == (
        "SnapError",
        "sensor 'curve_apex': nearest edge is 200.0 m away, beyond the 100.0 m snap threshold",
    )


def test_errors_keep_their_order_and_messages():
    raw, probes = shapes_extract()
    # no drivable edge in the radius: DomainError comes before any snap
    lat, lon = probes["curve"]
    assert via_index(raw, PipelineConfig(radius_m=150.0, snap_threshold_m=1.0), "x", lat, lon) == (
        "DomainError", f"no drivable roads within 150 m of ({lat:.5f}, {lon:.5f})")
    # a radius with in-radius occurrences but only zero-length or looped
    # pieces has no edge either
    tangled = tangled_extract()
    coords = node_coords(tangled)
    for center in (coords["f"], coords["h"]):
        for radius_m in (20.0, 150.0):
            assert_same_embedding(tangled, PipelineConfig(radius_m=radius_m), "x", *center)
    # an OSM node whose id is the virtual node's is already in the graph
    grid = grid_extract()
    coords = node_coords(grid)
    (lat_a, lon_a), (lat_b, lon_b) = coords["j4_4"], coords["j4_5"]
    coords["site:s"] = coords.pop("j4_4")
    grid = RawRoadData.of(coords, [(way_id, ["site:s" if n == "j4_4" else n for n in refs], tags)
                                   for way_id, refs, tags in way_triples(grid)])
    got = assert_same_embedding(grid, PipelineConfig(), "s", (lat_a + lat_b) / 2, (lon_a + lon_b) / 2)
    assert got == ("ArgumentError", "sensor 's' already inserted in this graph")


# ---------------------------------------------------------------------------
# the lazy view against build_graph
# ---------------------------------------------------------------------------

def classes(graph: RoadGraph, v: str) -> set:
    return {e.highway_class for e in graph.out_edges(v) + graph.in_edges(v)}


def assert_view_reads_the_crop(raw, center, radius_m, speeds=None):
    """Every row fill and arc of a view equals the oracle's crop, rows
    read before the whole radius is; returns the crop, or None when the
    radius holds no edge."""
    try:
        graph = build_graph_full_scan(raw, center, radius_m, speeds)
    except RoadTwinError:
        with pytest.raises(RoadTwinError):
            RadiusView(raw, center, radius_m, speeds).arcs()
        return None
    view = RadiusView(raw, center, radius_m, speeds)
    for v in list(graph.nodes)[::-1]:
        assert view.coords(row_of(view, v)) == graph.nodes[v]
        assert view_edges(view, [v]) == graph_edges(graph, [v])
        assert view_edges(view, [v], "in") == graph_edges(graph, [v], "in")
        assert set(view.classes[row_of(view, v)]) == classes(graph, v)
    assert arc_edges(view, view.arcs()) == graph.edges
    # a row off the radius graph has no edge
    for v in set(raw.node_ids) - set(graph.nodes):
        assert view.out[row_of(view, v)] == view.inn[row_of(view, v)] == []
    return graph


@pytest.mark.parametrize("extract", ["grid", "shapes", "tangled", "minicity"])
def test_view_reads_what_build_graph_builds(minicity_raw, extract):
    raw = {"grid": grid_extract, "shapes": lambda: shapes_extract()[0],
           "tangled": tangled_extract, "minicity": lambda: minicity_raw}[extract]()
    for k, center in enumerate(random_positions(raw, 6, seed=5)):
        radius_m = [120.0, 300.0, 900.0, 5000.0][k % 4]
        assert_view_reads_the_crop(raw, center, radius_m, [None, SPEEDS][k % 2])


def cut_segments(monkeypatch) -> list:
    """The segments a view decides node by node (its radius cuts them),
    recorded as the rows ``MapIndex.within`` is asked about."""
    calls = []
    within = osm_ingest.MapIndex.within

    def recording(index, center, radius_m, rows=None):
        if rows is not None:
            calls.append(rows)
        return within(index, center, radius_m, rows)

    monkeypatch.setattr(osm_ingest.MapIndex, "within", recording)
    return calls


@pytest.mark.parametrize("radius_m", [55.0, 130.0, 200.0, 260.0])
def test_view_reads_the_crop_where_its_radius_cuts_a_segment(monkeypatch, radius_m):
    # junctions 110 m apart with two bends between: each radius ends
    # between the nodes of a segment
    raw = grid_extract()
    coords = node_coords(raw)
    cut = cut_segments(monkeypatch)
    for center in (coords["j6_6"], coords["j2_9"], coords["j0_0"]):
        graph = assert_view_reads_the_crop(raw, center, radius_m)
        # some edge ends at a bend node, where the radius cut its segment
        assert any("b" in edge.src + edge.dst for edge in graph.edges)
    assert cut


def polar_grid(lat0: float, lon0: float, spacing_m=60.0) -> RawRoadData:
    """A 5 x 5 residential grid around ``(lat0, lon0)``, three bend nodes
    between junctions, longitudes wrapped into [-180, 180)."""
    nodes = {}

    def point(x_m, y_m):
        lat = north_of(lat0, y_m)
        return lat, (east_of(lat, lon0, x_m) + 180.0) % 360.0 - 180.0

    ways = []
    for line in range(5):
        for tag, at in (("h", lambda k: (k, line)), ("v", lambda k: (line, k))):
            refs = []
            for k in range(5):
                i, j = at(k)
                refs.append(f"j{i}_{j}")
                nodes[refs[-1]] = point((i - 2) * spacing_m, (j - 2) * spacing_m)
                if k < 4:
                    for b in range(1, 4):
                        (i0, j0), (i1, j1) = at(k), at(k + 1)
                        refs.append(f"{tag}{line}_{k}_{b}")
                        nodes[refs[-1]] = point((i0 + (i1 - i0) * b / 4 - 2) * spacing_m,
                                                (j0 + (j1 - j0) * b / 4 - 2) * spacing_m)
            ways.append((f"{tag}{line}", refs, {"highway": "residential"}))
    return RawRoadData.of(nodes, ways)


@pytest.mark.parametrize("lat0, lon0", [(89.9, 0.0), (-89.9, 120.0), (0.0, 180.0),
                                        (45.0, -179.9995), (-60.0, 179.9999)])
def test_view_reads_the_crop_near_the_poles_and_across_the_antimeridian(lat0, lon0):
    raw = polar_grid(lat0, lon0)
    coords = node_coords(raw)
    crops = [assert_view_reads_the_crop(raw, coords[nid], radius_m)
             for nid in ("j2_2", "j0_4", "h1_2_2") for radius_m in (20.0, 70.0, 130.0, 400.0)]
    assert all(crops[1:4]) and crops[-1] is not None


@pytest.mark.parametrize("radius_m", [1.0, 2.5, 4.0, 7.5])
def test_view_reads_the_crop_of_a_radius_of_a_few_metres(radius_m):
    # a way with nodes 2 m apart crossing another at its middle
    nodes, refs = {}, []
    for k in range(-5, 6):
        refs.append(f"a{k}")
        nodes[refs[-1]] = (LAT0, east_of(LAT0, LON0, 2.0 * k))
    nodes["n"], nodes["s"] = (north_of(LAT0, 30.0), LON0), (north_of(LAT0, -30.0), LON0)
    raw = RawRoadData.of(nodes, [("1", refs, {"highway": "residential"}),
                                 ("2", ["n", "a0", "s"], {"highway": "primary"})])
    crops = [assert_view_reads_the_crop(raw, center, radius_m)
             for center in ((LAT0, LON0), (LAT0, east_of(LAT0, LON0, 1.0)),
                            (north_of(LAT0, 1.5), east_of(LAT0, LON0, 3.0)))]
    assert (crops[0] is not None) == (radius_m >= 2.0)


def test_split_view_reads_what_the_split_graph_holds():
    # the split inside the view reads what the oracle's materialised
    # split holds
    raw, probes = shapes_extract()
    for name, (lat, lon) in probes.items():
        whole = RoadGraph(*build_graph(raw, (lat, lon), 2000.0))
        try:
            split, central = _insert_central_node_scan(whole, name, lat, lon)
        except RoadTwinError:
            continue
        view = RadiusView(raw, (lat, lon), 2000.0)
        assert insert_central_node(view, name, lat, lon) == central
        for v in split.nodes:
            if v != view.site_id:
                assert view.coords(row_of(view, v)) == split.nodes[v]
            assert view_edges(view, [v]) == graph_edges(split, [v])
            assert view_edges(view, [v], "in") == graph_edges(split, [v], "in")
            assert set(view.classes[row_of(view, v)]) == classes(split, v)


def test_near_query_keeps_every_edge_within_reach():
    raw = grid_extract()
    for k, (lat, lon) in enumerate(random_positions(raw, 30, seed=9)):
        try:
            graph = build_graph(raw, (lat, lon), 600.0)
        except RoadTwinError:
            continue
        view = RadiusView(raw, (lat, lon), 600.0)
        proj = LocalProjection(lat, lon)
        reach = [20.0, 60.0, 100.0, 250.0][k % 4]
        near = arc_edges(view, view.arcs_near(lat, lon, reach))
        for e in graph.edges:
            d = point_segment_projection(0.0, 0.0, *proj.to_xy(*graph.nodes[e.src]),
                                         *proj.to_xy(*graph.nodes[e.dst]))[1]
            if d <= reach:
                assert e in near
        assert len(near) < len(graph.edges)


def test_a_row_reads_exactly_the_arcs_that_start_or_end_at_it():
    # around curve_reentry the radius cuts the bend into two pieces, so
    # the bend's segment through p2 also holds arcs that do not touch p2
    raw, probes = shapes_extract()
    cases = [(probes["curve_reentry"], 230.0)] + [
        (position, 333.0) for position in random_positions(grid_extract(), 5, seed=4)]
    for k, (center, radius_m) in enumerate(cases):
        extract = raw if k == 0 else grid_extract()
        arcs = RadiusView(extract, center, radius_m).arcs()
        view = RadiusView(extract, center, radius_m)
        for row in sorted({r for arc in arcs for r in (arc.src, arc.dst)}):
            touching = [arc for arc in arcs if row in (arc.src, arc.dst)]
            assert view.classes[row] == tuple(arc.highway_class for arc in touching)
            assert view.out[row] == [(arc.dst, arc.travel_time_s) for arc in touching
                                     if arc.src == row]
            assert view.inn[row] == [(arc.src, arc.travel_time_s) for arc in touching
                                     if arc.dst == row]
    pieces = {}  # of each segment of the first view
    for arc in RadiusView(raw, *cases[0]).arcs():
        pieces.setdefault(raw.index.seg_of_pair.item(arc.key[0]), set()).add(arc.key[:2])
    assert max(len(p) for p in pieces.values()) == 2


@pytest.mark.parametrize("extract", ["grid", "shapes"])
def test_near_query_keeps_the_arcs_of_every_segment_box_within_reach(extract):
    # brute force: each segment's node box from its own nodes, tested in
    # scalar arithmetic; the query keeps every arc of the segments it
    # passes (those the radius holds), and no other; the shapes' probes
    # include the hook, whose bend comes within reach before its chord
    raw, probes = (grid_extract(), {}) if extract == "grid" else shapes_extract()
    index = raw.index
    boxes = []
    for first, last in zip(index.seg_first.tolist(), index.seg_last.tolist()):
        rows = index.occ_node[first : last + 1].tolist()
        lats, lons = [raw.lat.item(r) for r in rows], [raw.lon.item(r) for r in rows]
        boxes.append((first, last, min(lats), max(lats), min(lons), max(lons)))
    kept = 0
    positions = random_positions(raw, 40, seed=29) + list(probes.values())
    for k, (lat, lon) in enumerate(positions):
        radius_m = [300.0, 900.0, 2500.0][k % 3]
        reach = [20.0, 60.0, 100.0, 250.0, 400.0][k % 5] + osm_ingest._NEAR_MARGIN_M
        kx = math.radians(1.0) * EARTH_RADIUS_M * math.cos(math.radians(lat))
        ky = math.radians(1.0) * EARTH_RADIUS_M
        passing = []
        for first, last, lat_lo, lat_hi, lon_lo, lon_hi in boxes:
            dx = (min(max(lon, lon_lo), lon_hi) - lon) * kx
            dy = (min(max(lat, lat_lo), lat_hi) - lat) * ky
            if dx * dx + dy * dy <= reach * reach:
                passing.append((first, last))
        try:
            every = RadiusView(raw, (lat, lon), radius_m).arcs()
        except RoadTwinError:
            every = []
        expected = [arc for arc in every
                    if any(first <= arc.key[0] < last for first, last in passing)]
        assert RadiusView(raw, (lat, lon), radius_m).arcs_near(lat, lon, reach - 1.0) == expected
        kept += len(expected)
    assert kept


# ---------------------------------------------------------------------------
# DECISIONS pinned on the index path
# ---------------------------------------------------------------------------

def test_ego_hops_are_undirected_on_the_index_path():
    assert DECISIONS["ego_hop_reachability"] == "undirected"
    raw, probes = shapes_extract()
    lat, lon = probes["oneway_in"]
    view = RadiusView(raw, (lat, lon))
    central = insert_central_node(view, "x", lat, lon)
    assert central.node_id == "s0"
    # the oneway can only be driven towards s0: no search from s0 reaches o2
    assert row_of(view, "o2") not in dijkstra_from(view.out, row_of(view, "s0"))
    ego = ego_graph(view, central, 1)
    assert set(ego.graph.nodes) == {"s0", "s_w", "s_e", "o2"}
    nodes = ego.graph.nodes
    assert [e[:2] for e in ego_edges(view_edges(view, nodes), nodes) if "o2" in e[:2]] == [
        ("o2", "s0")]


def test_motorway_beyond_the_radius_normalizes_to_1():
    assert DECISIONS["unreachable_travel_time"] == "normalizes_to_1"
    raw, probes = shapes_extract()
    for radius_m, reachable in ((2000.0, False), (4000.0, True)):
        cfg = PipelineConfig(radius_m=radius_m)
        pool = normalize_pool(
            [embed_position(raw, cfg, name, *probes[name]) for name in ("hub", "middle", "dual")]
        )
        f4 = [p.travel_time_motorway_s for p in pool]
        if reachable:
            assert all(math.isfinite(t) for t in f4)
        else:
            assert f4 == [UNREACHABLE] * 3
            assert [p.normalized[3] for p in pool] == [1.0] * 3


# ---------------------------------------------------------------------------
# guard: embedding never builds the radius graph
# ---------------------------------------------------------------------------

def test_embed_builds_no_graph_beyond_the_ego_graph(monkeypatch):
    raw = grid_extract()
    coords = node_coords(raw)
    sensors = [SensorSpec(f"s{k}", lat + 1e-4, lon)
               for k, (lat, lon) in enumerate(coords[f"j{i}_{j}"] for i, j in
                                              ((2, 3), (6, 6), (9, 4), (11, 11), (4, 12)))]

    def forbidden(*args, **kwargs):
        raise AssertionError("an embedding built the whole radius graph")

    monkeypatch.setattr(osm_ingest, "build_graph", forbidden)
    monkeypatch.setattr(pipeline, "build_graph", forbidden)
    built = []
    segment_arcs = osm_ingest._segment_arcs

    def counting_segment_arcs(*args):
        built.append(args[1:3])
        return segment_arcs(*args)

    monkeypatch.setattr(osm_ingest, "_segment_arcs", counting_segment_arcs)
    egos = []
    real_ego_graph = pipeline.ego_graph

    def recording_ego_graph(*args):
        egos.append(real_ego_graph(*args))
        return egos[-1]

    monkeypatch.setattr(pipeline, "ego_graph", recording_ego_graph)
    positions = normalize_pool(embed_sensors(raw, sensors, PipelineConfig()))
    assert len(positions) == len(egos) == len(sensors)
    # an embedding builds the arcs of part of its radius's pieces (here
    # 477 of 1,840), and its ego-graphs stay small; the radius's pieces
    # are counted from its arc keys, without the spy
    monkeypatch.setattr(osm_ingest, "_segment_arcs", segment_arcs)
    pieces = sum(len({arc.key[:2] for arc in RadiusView(raw, (s.lat, s.lon)).arcs()})
                 for s in sensors)
    assert 0 < len(built) < pieces / 2
    assert max(len(ego.graph.nodes) for ego in egos) < len(raw.node_ids) / 4
