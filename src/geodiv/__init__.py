"""Geographic diversity analysis of traceroute-measured Internet routes.

Pipeline: parse traceroute records, localize hops via a CSV snapshot,
filter trivial endpoint pairs, cluster geographically equivalent routes,
and score each pair's route set with the Geographic Diversity Index (GDI)
and its hypothetical maximum (MGDI). Everything else is imported from its
submodule.
"""

from .cluster import cluster_pair_routes, geo_equal
from .diversity import DiversityConfig, DiversityReport, gdi, mgdi, pair_diversity
from .errors import GeodivError, ParseError
from .geodesy import Coordinate
from .geolocate import FilterStats, GeoPath, filter_pairs, load_geodb
from .pipeline import emit_report, run_pipeline
from .traces import group_by_pair, parse_trace_file

__version__ = "0.1.0"

__all__ = [
    "parse_trace_file",
    "group_by_pair",
    "load_geodb",
    "filter_pairs",
    "cluster_pair_routes",
    "geo_equal",
    "pair_diversity",
    "gdi",
    "mgdi",
    "Coordinate",
    "GeoPath",
    "DiversityConfig",
    "DiversityReport",
    "FilterStats",
    "run_pipeline",
    "emit_report",
    "GeodivError",
    "ParseError",
]
