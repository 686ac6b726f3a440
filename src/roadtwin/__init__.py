"""roadtwin: daily traffic profiles for road segments without sensors.

Given a map extract, the positions of permanent traffic sensors and
their count series, the package picks the sensed segment most similar
to an unsensed target (by road-network feature embeddings) and
synthesizes the target's daily flow from it.

Each public name loads its home module the first time it is read, so
``import roadtwin`` alone imports no submodule.
"""

import importlib
import os

# No roadtwin code makes a BLAS call (tests/test_dependencies.py scans for
# one), yet OpenBLAS starts one worker thread per CPU when numpy loads.
# With one thread a fresh `import roadtwin.cli` took 179 ms instead of
# 244 ms (medians of 30 alternated runs on 2 shared x86-64 vCPUs, numpy
# 2.4; the CPU time saved is steady, the wall time saved varies with the
# machine's load). This must run before any submodule imports numpy; a
# value the user has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _lazy_names(namespace: dict, homes):
    """Bind names into a module's ``namespace`` when they are first used.

    ``homes`` pairs a module of this package (``".osm_ingest"``) with the
    names it gives; the home ``"."`` gives submodules themselves.  Returns
    ``(load, __getattr__)``: ``load()`` binds every name, in order, and
    the PEP 562 ``__getattr__`` binds one name read from outside the
    module.  A name already bound is never replaced, so a function set on
    the module before its home loads (a trace span, a test's monkeypatch)
    stays the one the module's code calls.
    """
    home_of = {name: home for home, names in homes for name in names}

    def bind(name):
        home = home_of[name]
        if home == ".":
            value = importlib.import_module("." + name, __name__)
        else:
            value = getattr(importlib.import_module(home, __name__), name)
        return namespace.setdefault(name, value)

    def load():
        for name in home_of:
            if name not in namespace:
                bind(name)

    def __getattr__(name):
        if name not in home_of:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        return bind(name)

    return load, __getattr__


_HOMES = (
    (".config", ("PipelineConfig", "load_config")),
    (".embedding", (
        "EMBEDDING_DIMS", "RoadEmbedding", "betweenness", "build_embedding", "normalize_pool",
        "road_type_code", "travel_time_to_class",
    )),
    (".errors", (
        "ArgumentError", "AvailabilityError", "DomainError", "FormatError", "InputError",
        "ParseError", "RoadTwinError", "SnapError", "StructuralError",
    )),
    (".evaluation", (
        "friedman_test", "generation_benchmark", "nemenyi_posthoc", "nrmse", "rmse",
        "selection_benchmark",
    )),
    (".generation", (
        "ClusterModel", "GeneratedDay", "day_class", "fit_cluster_model", "generate_cluster",
        "generate_copy", "generator",
    )),
    # the road classes are config's, which checks default_speeds keys against them
    (".config", ("HighwayClass",)),
    (".osm_ingest", (
        "RadiusView", "RawRoadData", "build_graph", "default_speed", "parse_osm_extract",
    )),
    (".road_graph", ("CentralNode", "Edge", "EgoGraph", "ego_graph", "insert_central_node")),
    (".selection", (
        "SelectionResult", "embedding_distance", "select_by_embedding", "select_by_geography",
        "similarity_percent",
    )),
    (".traffic_data", (
        "HolidayCalendar", "TrafficProfile", "TrafficSeries", "clean_series", "daily_profile",
        "load_traffic_csv", "mean_weekday_flow", "slice_day",
    )),
)

__version__ = "0.1.0"

__all__ = ["__version__"] + [name for _home, names in _HOMES for name in names]

__getattr__ = _lazy_names(globals(), _HOMES)[1]
