"""roadtwin: daily traffic profiles for road segments without sensors.

Given a map extract, the positions of permanent traffic sensors and
their count series, the package picks the sensed segment most similar
to an unsensed target (by road-network feature embeddings) and
synthesizes the target's daily flow from it.
"""

import os

# No roadtwin code makes a BLAS call (tests/test_dependencies.py scans for
# one), yet OpenBLAS starts one worker thread per CPU when numpy loads.
# With one thread a fresh `import roadtwin.cli` took 179 ms instead of
# 244 ms (medians of 30 alternated runs on 2 shared x86-64 vCPUs, numpy
# 2.4; the CPU time saved is steady, the wall time saved varies with the
# machine's load). This must run before any submodule imports numpy; a
# value the user has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import PipelineConfig, load_config
from .embedding import (
    EMBEDDING_DIMS,
    RoadEmbedding,
    betweenness,
    build_embedding,
    normalize_pool,
    road_type_code,
    travel_time_to_class,
)
from .errors import (
    ArgumentError,
    AvailabilityError,
    DomainError,
    FormatError,
    InputError,
    ParseError,
    RoadTwinError,
    SnapError,
    StructuralError,
)
from .evaluation import (
    friedman_test,
    generation_benchmark,
    nemenyi_posthoc,
    nrmse,
    rmse,
    selection_benchmark,
)
from .generation import (
    ClusterModel,
    GeneratedDay,
    day_class,
    fit_cluster_model,
    generate_cluster,
    generate_copy,
    generator,
)
from .osm_ingest import (
    HighwayClass,
    RadiusView,
    RawRoadData,
    build_graph,
    default_speed,
    graph_to_csv,
    parse_osm_extract,
)
from .road_graph import (
    CentralNode,
    Edge,
    EgoGraph,
    ego_graph,
    insert_central_node,
)
from .selection import (
    SelectionResult,
    embedding_distance,
    select_by_embedding,
    select_by_geography,
    similarity_percent,
)
from .traffic_data import (
    HolidayCalendar,
    TrafficProfile,
    TrafficSeries,
    clean_series,
    daily_profile,
    load_traffic_csv,
    mean_weekday_flow,
    slice_day,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # config
    "PipelineConfig",
    "load_config",
    # embedding
    "EMBEDDING_DIMS",
    "RoadEmbedding",
    "betweenness",
    "build_embedding",
    "normalize_pool",
    "road_type_code",
    "travel_time_to_class",
    # errors
    "ArgumentError",
    "AvailabilityError",
    "DomainError",
    "FormatError",
    "InputError",
    "ParseError",
    "RoadTwinError",
    "SnapError",
    "StructuralError",
    # evaluation
    "friedman_test",
    "generation_benchmark",
    "nemenyi_posthoc",
    "nrmse",
    "rmse",
    "selection_benchmark",
    # generation
    "ClusterModel",
    "GeneratedDay",
    "day_class",
    "fit_cluster_model",
    "generate_cluster",
    "generate_copy",
    "generator",
    # map ingestion
    "HighwayClass",
    "RadiusView",
    "RawRoadData",
    "build_graph",
    "default_speed",
    "graph_to_csv",
    "parse_osm_extract",
    # road graph
    "CentralNode",
    "Edge",
    "EgoGraph",
    "ego_graph",
    "insert_central_node",
    # selection
    "SelectionResult",
    "embedding_distance",
    "select_by_embedding",
    "select_by_geography",
    "similarity_percent",
    # traffic data
    "HolidayCalendar",
    "TrafficProfile",
    "TrafficSeries",
    "clean_series",
    "daily_profile",
    "load_traffic_csv",
    "mean_weekday_flow",
    "slice_day",
]
