"""Geographic equality between geo-paths and per-pair route clustering.

Two geo-paths are geographically equal at a threshold when no node of
either path lies farther than the threshold from the other path's
polyline. Clustering is first-fit with complete linkage: a path joins the
lowest-id cluster whose every member it equals, otherwise it founds a new
cluster.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .geodesy import EARTH_RADIUS_KM, _check_positive
from .geolocate import GeoPath


class Cluster(NamedTuple):
    """Set of pairwise geographically equal geo-paths; ids follow creation order."""

    id: int
    members: tuple[GeoPath, ...]

    @property
    def representative(self) -> GeoPath:
        return min(self.members, key=GeoPath.sort_key)


def delta_vector(p: GeoPath, l: GeoPath, radius_km: float = EARTH_RADIUS_KM) -> tuple[float, ...]:
    """All node-to-opposite-path distances between two geo-paths, in km:
    each node of ``p`` against ``l``'s polyline, then each node of ``l``
    against ``p``'s. Equal, entry for entry, to ``point_to_path_distance``
    of each node against the other path's nodes."""
    _check_positive("radius_km", radius_km)
    pp, lp = p.prepared, l.prepared
    values = [lp.distance(u, radius_km) for u in pp.points]
    values += [pp.distance(u, radius_km) for u in lp.points]
    return tuple(values)


def geo_equal(p: GeoPath, l: GeoPath, threshold_km: float, radius_km: float = EARTH_RADIUS_KM) -> bool:
    """True iff max(delta_vector(p, l)) <= threshold_km (inclusive).

    Chord bounds decide most nodes without the spherical kernel
    (``PreparedPath.covers``), and the test fails at the first node that
    is not within the threshold.
    """
    _check_positive("threshold_km", threshold_km)
    _check_positive("radius_km", radius_km)
    pp, lp = p.prepared, l.prepared
    return lp.covers(pp.points, threshold_km, radius_km) and pp.covers(lp.points, threshold_km, radius_km)


def cluster_pair_routes(
    paths: Iterable[GeoPath], threshold_km: float, radius_km: float = EARTH_RADIUS_KM
) -> tuple[Cluster, ...]:
    """Partition one endpoint pair's geo-paths into equivalence clusters.

    Paths are first put in canonical (lexicographic coordinate) order so
    the order-sensitive first-fit assignment is reproducible.
    """
    ordered = sorted(paths, key=GeoPath.sort_key)
    groups: list[list[GeoPath]] = []
    for path in ordered:
        for members in groups:
            if all(geo_equal(path, member, threshold_km, radius_km) for member in members):
                members.append(path)
                break
        else:
            groups.append([path])
    return tuple(
        Cluster(id=i, members=tuple(members)) for i, members in enumerate(groups)
    )
