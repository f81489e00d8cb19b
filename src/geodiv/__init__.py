"""Geographic diversity analysis of traceroute-measured Internet routes.

Pipeline: parse traceroute records, localize hops via a CSV snapshot,
filter trivial endpoint pairs, cluster geographically equivalent routes,
and score each pair's route set with the Geographic Diversity Index (GDI)
and its hypothetical maximum (MGDI).
"""

from .cluster import Cluster, cluster_pair_routes, delta_vector, geo_equal
from .diversity import (
    DiversityConfig,
    DiversityReport,
    compression_ratio,
    diversity_from_delta,
    gdi,
    mgdi,
    pair_diversity,
)
from .errors import (
    DuplicateCidr,
    EmptyPath,
    GeodivError,
    InvalidAddress,
    InvalidCounts,
    InvalidGeometry,
    ParseError,
)
from .geodesy import (
    EARTH_RADIUS_KM,
    Coordinate,
    great_circle_distance,
    path_length,
    point_to_path_distance,
)
from .geolocate import (
    FilterStats,
    GeoDb,
    GeoPath,
    filter_pairs,
    load_geodb,
    route_to_geopath,
)
from .pipeline import (
    PipelineSummary,
    ecdf,
    emit_report,
    run_pipeline,
    score_pair,
)
from .traces import (
    UNRESPONSIVE,
    RouteSet,
    TraceRecord,
    group_by_pair,
    parse_trace_file,
    parse_trace_line,
)

__version__ = "0.1.0"

__all__ = [
    "EARTH_RADIUS_KM",
    "UNRESPONSIVE",
    "Cluster",
    "Coordinate",
    "DiversityConfig",
    "DiversityReport",
    "DuplicateCidr",
    "EmptyPath",
    "FilterStats",
    "GeoDb",
    "GeoPath",
    "GeodivError",
    "InvalidAddress",
    "InvalidCounts",
    "InvalidGeometry",
    "ParseError",
    "PipelineSummary",
    "RouteSet",
    "TraceRecord",
    "cluster_pair_routes",
    "compression_ratio",
    "delta_vector",
    "diversity_from_delta",
    "ecdf",
    "emit_report",
    "filter_pairs",
    "gdi",
    "geo_equal",
    "great_circle_distance",
    "group_by_pair",
    "load_geodb",
    "mgdi",
    "pair_diversity",
    "parse_trace_file",
    "parse_trace_line",
    "path_length",
    "point_to_path_distance",
    "route_to_geopath",
    "run_pipeline",
    "score_pair",
]
