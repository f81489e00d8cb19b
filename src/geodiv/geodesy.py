"""Spherical-Earth distance primitives.

Everything here treats the Earth as a sphere of radius ``EARTH_RADIUS_KM``
(configurable per call) and each node as its unit vector. Segments between
consecutive route nodes are great-circle arcs; point-to-segment distance is
the cross-track distance when the perpendicular foot falls inside the arc,
and the distance to the nearer endpoint otherwise. Node to node, the angle
is ``atan2(|p x q|, p . q)`` (:func:`_angle`, after Kahan 2014), good to
~1e-16 rad at every distance, the antipode included.
"""

from __future__ import annotations

import math
from functools import total_ordering
from typing import Sequence

EARTH_RADIUS_KM = 6371.0

# Below this, the two segment endpoints are treated as coincident/antipodal
# and the great circle through them is undefined.
_DEGENERATE_NORM = 1e-12

# PreparedPath's chord bounds skip only arcs with |a x b| at least this: a
# computed normal is off the plane of its arc by up to ~4e-16 / |a x b|,
# so by at most 4e-11 here. The margin, on the unit sphere, is 25 times
# that, and far above the ~1e-16 rad of `_angle` and the unit vectors.
_MIN_DECIDED_NORM = 1e-5
_CHORD_MARGIN = 1e-9

# Text round-tripping of coordinates is absorbed by comparing keys at this
# precision.
_KEY_DECIMALS = 6


def _normalize_lon(lon: float) -> float:
    if -180.0 <= lon < 180.0:
        return lon
    return ((lon + 180.0) % 360.0) - 180.0


@total_ordering
class Coordinate:
    """Geographic position in decimal degrees, lon normalized to [-180, 180).

    ``key`` is the position rounded to 1e-6 degrees (~0.1 m); equal keys
    mean the same place when collapsing duplicates and deduplicating
    paths. A longitude that rounds to 180 is folded onto -180, the same
    meridian, so points a hair apart across the antimeridian compare
    equal.
    """

    __slots__ = ("lat", "lon", "key")

    def __init__(self, lat: float, lon: float) -> None:
        if not math.isfinite(lat) or not (-90.0 <= lat <= 90.0):
            raise ValueError(f"latitude must be in [-90, 90], got {lat}")
        if not math.isfinite(lon):
            raise ValueError(f"longitude must be finite, got {lon}")
        lon = _normalize_lon(lon)
        key_lon = round(lon, _KEY_DECIMALS)
        object.__setattr__(self, "lat", lat)
        object.__setattr__(self, "lon", lon)
        object.__setattr__(self, "key", (round(lat, _KEY_DECIMALS), -180.0 if key_lon == 180.0 else key_lon))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and (self.lat, self.lon) == (other.lat, other.lon)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lat, self.lon) < (other.lat, other.lon)

    def __hash__(self) -> int:
        return hash((self.lat, self.lon))

    def __repr__(self) -> str:
        return f"Coordinate(lat={self.lat!r}, lon={self.lon!r})"

    def __reduce__(self) -> tuple[type[Coordinate], tuple[float, float]]:
        return Coordinate, (self.lat, self.lon)


# One node as the distance kernels need it: its unit vector (x, y, z).
PreparedPoint = tuple[float, float, float]


def _prepare_point(c: Coordinate) -> PreparedPoint:
    phi = math.radians(c.lat)
    lam = math.radians(c.lon)
    cos_phi = math.cos(phi)
    return (cos_phi * math.cos(lam), cos_phi * math.sin(lam), math.sin(phi))


def _angle(p: PreparedPoint, q: PreparedPoint) -> float:
    """The angle in radians between unit vectors ``p`` and ``q``."""
    px, py, pz = p
    qx, qy, qz = q
    cx, cy, cz = py * qz - pz * qy, pz * qx - px * qz, px * qy - py * qx
    return math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz), px * qx + py * qy + pz * qz)


def great_circle_distance(a: Coordinate, b: Coordinate, radius_km: float = EARTH_RADIUS_KM) -> float:
    """Great-circle distance in kilometers, by :func:`_angle`; 0 when
    ``a == b``, and coordinates under ~1e-16 rad apart can also read 0."""
    _check_positive("radius_km", radius_km)
    return radius_km * _angle(_prepare_point(a), _prepare_point(b))


def _cross_track(
    p: PreparedPoint,
    a: PreparedPoint,
    b: PreparedPoint,
    normal: tuple[float, float, float],
    radius_km: float,
) -> float | None:
    """Distance from ``p`` to the great circle of the arc from ``a`` to
    ``b`` (unit normal ``normal``) when the perpendicular foot falls inside
    the arc; None otherwise."""
    nx, ny, nz = normal
    px, py, pz = p
    # Signed sine of the cross-track angle.
    s = px * nx + py * ny + pz * nz
    qx, qy, qz = px - s * nx, py - s * ny, pz - s * nz
    qn = math.sqrt(qx * qx + qy * qy + qz * qz)
    if qn < _DEGENERATE_NORM:
        # p sits at a pole of the great circle: equidistant from the whole arc.
        return None
    fx, fy, fz = qx / qn, qy / qn, qz / qn
    # The foot is inside the arc when a x foot and foot x b both point
    # along the normal.
    ax, ay, az = a
    if (ay * fz - az * fy) * nx + (az * fx - ax * fz) * ny + (ax * fy - ay * fx) * nz < -_DEGENERATE_NORM:
        return None
    bx, by, bz = b
    if (fy * bz - fz * by) * nx + (fz * bx - fx * bz) * ny + (fx * by - fy * bx) * nz < -_DEGENERATE_NORM:
        return None
    return radius_km * math.atan2(abs(s), qn)


class PreparedPath:
    """A polyline's trigonometry, computed once for any number of
    point-to-path queries.

    ``points`` holds each node as a :data:`PreparedPoint`; ``normals``
    holds each arc's great-circle unit normal, or None when the endpoints
    are equal, coincident or antipodal and no unique great circle exists.
    Every value comes from the same operations, in the same order, as a
    from-scratch evaluation of each arc with :func:`_angle` and the
    cross-track ``atan2``, so distances are the same bits.

    ``caps`` holds, for each arc that the chord bounds may skip, the unit
    vector of its midpoint and the chord ``r`` from there to its
    endpoints, ``(mx, my, mz, r)``; every point of the arc lies within
    chord ``r`` of the midpoint. It is None for an arc of 90 degrees or
    more, and for one with ``|a x b| < _MIN_DECIDED_NORM`` (shorter than
    ~1e-5 rad, or nearly antipodal), whose normal carries too much
    rounding error. ``anchors`` holds the points of the nodes that end at
    least one such arc; only :meth:`covers` reads them.
    """

    __slots__ = ("points", "normals", "caps", "anchors")

    def __init__(self, nodes: Sequence[Coordinate]):
        self.points = points = tuple(_prepare_point(c) for c in nodes)
        normals: list[tuple[float, float, float] | None] = []
        caps: list[tuple[float, float, float, float] | None] = []
        anchors: list[PreparedPoint] = []
        for a, b in zip(points, points[1:]):
            ax, ay, az = a
            bx, by, bz = b
            nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
            nn = math.sqrt(nx * nx + ny * ny + nz * nz)
            normals.append(None if nn < _DEGENERATE_NORM else (nx / nn, ny / nn, nz / nn))
            if nn < _MIN_DECIDED_NORM or ax * bx + ay * by + az * bz <= 0.0:
                caps.append(None)
                continue
            mx, my, mz = ax + bx, ay + by, az + bz
            mn = math.sqrt(mx * mx + my * my + mz * mz)
            mx, my, mz = mx / mn, my / mn, mz / mn
            dx, dy, dz = ax - mx, ay - my, az - mz
            caps.append((mx, my, mz, math.sqrt(dx * dx + dy * dy + dz * dz)))
            if not anchors or anchors[-1] is not a:
                anchors.append(a)
            anchors.append(b)
        self.normals = tuple(normals)
        self.caps = tuple(caps)
        self.anchors = tuple(anchors)

    def distance(self, p: PreparedPoint, radius_km: float, within_km: float = -1.0) -> float:
        """Minimum distance from ``p`` to the polyline; with ``within_km``
        not negative, the first arc distance found that is at most it.

        A node of the path is 0 away, and no arc is scanned for it. An arc's
        distance is otherwise the cross-track distance when the
        perpendicular foot falls inside it, and the distance to the nearer
        endpoint when not. An arc with a cap is skipped, as farther than
        any answer, when the point's chord to its midpoint exceeds
        ``r + x + _CHORD_MARGIN``, with ``x`` the smaller of ``within_km``
        and the best distance so far, over the radius. Each node's distance
        from ``p`` is computed at most once, and only when an arc needs it.
        """
        # Equal unit vectors (-0.0 == 0.0 included) are 0.0 apart by
        # _angle too; every arc distance is at least 0.0.
        if p in self.points:
            return 0.0
        points = self.points
        a = points[0]
        if len(points) == 1:
            return radius_km * _angle(p, a)
        px, py, pz = p
        best = math.inf
        x = within_km / radius_km if within_km >= 0.0 else math.inf
        d_a = None
        for b, normal, cap in zip(points[1:], self.normals, self.caps):
            if cap is not None:
                dx, dy, dz = px - cap[0], py - cap[1], pz - cap[2]
                reach = cap[3] + x + _CHORD_MARGIN
                if dx * dx + dy * dy + dz * dz > reach * reach:
                    a, d_a = b, None
                    continue
            d_b = None
            d = None if normal is None else _cross_track(p, a, b, normal, radius_km)
            if d is None:
                if d_a is None:
                    d_a = radius_km * _angle(p, a)
                d_b = radius_km * _angle(p, b)
                d = min(d_a, d_b)
            if d <= within_km:
                return d
            if d < best:
                best = d
                x = min(x, d / radius_km)
            a, d_a = b, d_b
        return best

    def covers(self, points: Sequence[PreparedPoint], threshold_km: float, radius_km: float) -> bool:
        """Whether ``self.distance(p, radius_km) <= threshold_km`` for every
        point, with the same answer bit for bit.

        A point is within the threshold when its chord to an anchor is
        below ``sin(x) - _CHORD_MARGIN``, at ``x = threshold_km /
        radius_km``; the margin covers the kernel's error on the arcs that
        have caps, and past ``x = 1`` this bound decides nothing. Every
        other point goes to :meth:`distance`, which stops at the first arc
        within the threshold.
        """
        x = threshold_km / radius_km
        accept = math.sin(x) - _CHORD_MARGIN if x <= 1.0 else 0.0
        accept_sq = accept * accept if accept > 0.0 else -1.0
        anchors = self.anchors
        count = len(points)
        for i, p in enumerate(points):
            px, py, pz = p
            if anchors:
                # A node is nearly always accepted by the anchor at its own
                # relative position along the path, so that one goes first.
                vx, vy, vz = anchors[i * len(anchors) // count]
                dx, dy, dz = px - vx, py - vy, pz - vz
                if dx * dx + dy * dy + dz * dz < accept_sq:
                    continue
            for vx, vy, vz in anchors:
                dx, dy, dz = px - vx, py - vy, pz - vz
                if dx * dx + dy * dy + dz * dz < accept_sq:
                    break
            else:
                if self.distance(p, radius_km, threshold_km) > threshold_km:
                    return False
        return True


def _check_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def point_to_path_distance(
    p: Coordinate, nodes: Sequence[Coordinate], radius_km: float = EARTH_RADIUS_KM
) -> float:
    """Minimum distance from ``p`` to the polyline through ``nodes``.

    A single-node path degenerates to point-to-point distance.
    """
    if len(nodes) == 0:
        raise ValueError("path has no nodes")
    _check_positive("radius_km", radius_km)
    return PreparedPath(nodes).distance(_prepare_point(p), radius_km)


def path_length(nodes: Sequence[Coordinate], radius_km: float = EARTH_RADIUS_KM) -> float:
    """Total great-circle length of the polyline through ``nodes``."""
    if len(nodes) == 0:
        raise ValueError("path has no nodes")
    _check_positive("radius_km", radius_km)
    points = [_prepare_point(c) for c in nodes]
    return math.fsum(radius_km * _angle(p, q) for p, q in zip(points, points[1:]))
