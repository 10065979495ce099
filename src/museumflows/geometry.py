"""Coordinate handling, distances, polygon predicates and grid snapping.

All planar work happens in a local equirectangular frame anchored at a
reference coordinate: at city scale the projection error stays well below
0.5% of distance, which is accurate enough for buffer filters and grid
generalization without dragging in a geodesy library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidCoordinateError, InvalidGeometryError

# IUGG mean Earth radius; fixed so results are bit-reproducible.
EARTH_RADIUS_KM = 6371.0088
EARTH_RADIUS_M = 6371008.8

# Maximum separation (degrees) between a point and the frame reference for
# the local projection to stay city-scale valid.
MAX_FRAME_DEGREES = 5.0

# Side of a generalization grid cell: homes are modal 100 m cells.
GRID_RESOLUTION_M = 100.0

# Absolute tolerance (m^2 on the cross product) for deciding a point sits
# exactly on a polygon edge.
_EDGE_EPS = 1e-9


@dataclass(frozen=True)
class GeoPoint:
    """WGS84 coordinate in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise InvalidCoordinateError(f"non-finite coordinate ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise InvalidCoordinateError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise InvalidCoordinateError(f"longitude {self.lon} outside [-180, 180]")


@dataclass(frozen=True)
class PlanarPoint:
    """Position in meters east/north of the local frame origin."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidCoordinateError(f"non-finite planar point ({self.x}, {self.y})")


@dataclass(frozen=True)
class GridCell:
    """One square cell, GRID_RESOLUTION_M on a side, of the generalization grid."""

    ix: int
    iy: int

    def center(self) -> PlanarPoint:
        return PlanarPoint((self.ix + 0.5) * GRID_RESOLUTION_M, (self.iy + 0.5) * GRID_RESOLUTION_M)


@dataclass(frozen=True)
class PolygonM:
    """Planar polygon: one exterior ring plus optional holes, meters.

    Rings are implicitly closed; vertices are stored without repeating the
    first one. Validity repair is out of scope: rings are trusted to be
    simple.
    """

    exterior: tuple[PlanarPoint, ...]
    holes: tuple[tuple[PlanarPoint, ...], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "exterior", tuple(self.exterior))
        object.__setattr__(self, "holes", tuple(tuple(h) for h in self.holes))
        if len(self.exterior) < 3:
            raise InvalidGeometryError(f"exterior ring needs >=3 vertices, got {len(self.exterior)}")
        for i, hole in enumerate(self.holes):
            if len(hole) < 3:
                raise InvalidGeometryError(f"hole {i} needs >=3 vertices, got {len(hole)}")

    def rings(self):
        yield self.exterior
        yield from self.holes


def project(p: GeoPoint, ref: GeoPoint) -> PlanarPoint:
    """Equirectangular projection of ``p`` into the frame anchored at ``ref``.

    x = R * cos(ref.lat) * dlon, y = R * dlat (radians). Valid only within
    a few degrees of the reference.
    """
    if abs(p.lat - ref.lat) > MAX_FRAME_DEGREES or abs(p.lon - ref.lon) > MAX_FRAME_DEGREES:
        raise InvalidCoordinateError(
            f"point ({p.lat}, {p.lon}) more than {MAX_FRAME_DEGREES} degrees "
            f"from frame reference ({ref.lat}, {ref.lon})"
        )
    x = EARTH_RADIUS_M * math.cos(math.radians(ref.lat)) * math.radians(p.lon - ref.lon)
    y = EARTH_RADIUS_M * math.radians(p.lat - ref.lat)
    return PlanarPoint(x, y)


def planar_polygon(rings, ref: GeoPoint) -> PolygonM:
    """The polygon of GeoPoint ``rings`` (exterior first, then holes) projected into the frame at ``ref``."""
    projected = tuple(tuple(project(p, ref) for p in ring) for ring in rings)
    return PolygonM(exterior=projected[0], holes=projected[1:])


def project_arrays(lat, lon, ref: GeoPoint):
    """:func:`project` for arrays of latitudes and longitudes; returns (x, y).

    The operations are those of :func:`project`, in the same order, so each
    point lands bit for bit where the scalar function puts it. Raises, through
    :func:`project`, for the first point outside the frame.
    """
    dlat = np.asarray(lat, dtype=np.float64) - ref.lat
    dlon = np.asarray(lon, dtype=np.float64) - ref.lon
    far = (np.abs(dlat) > MAX_FRAME_DEGREES) | (np.abs(dlon) > MAX_FRAME_DEGREES)
    if far.any():
        k = int(np.argmax(far))
        project(GeoPoint(float(lat[k]), float(lon[k])), ref)
    # in place: x *= c is c * x, as multiplication commutes bit for bit
    x = np.radians(dlon, out=dlon)
    x *= EARTH_RADIUS_M * math.cos(math.radians(ref.lat))
    y = np.radians(dlat, out=dlat)
    y *= EARTH_RADIUS_M
    return x, y


def unproject(q: PlanarPoint, ref: GeoPoint) -> GeoPoint:
    """Inverse of :func:`project` for the same reference point."""
    lat = ref.lat + math.degrees(q.y / EARTH_RADIUS_M)
    lon = ref.lon + math.degrees(q.x / (EARTH_RADIUS_M * math.cos(math.radians(ref.lat))))
    return GeoPoint(lat, lon)


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in kilometers."""
    lat1 = math.radians(a.lat)
    lat2 = math.radians(b.lat)
    dlat = math.radians(b.lat - a.lat)
    dlon = math.radians(b.lon - a.lon)
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def haversine_km_arrays(lat, lon, b: GeoPoint) -> np.ndarray:
    """:func:`haversine_km` from arrays of points to one point ``b``.

    Same formula and order of operations; numpy's sin, cos and arcsin may
    round differently from the math module's in the last place.
    """
    lat1 = np.radians(lat)
    lat2 = math.radians(b.lat)
    dlat = np.radians(b.lat - lat)
    dlon = np.radians(b.lon - lon)
    h = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * math.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def _on_segment(p: PlanarPoint, a: PlanarPoint, b: PlanarPoint) -> bool:
    dx, dy = b.x - a.x, b.y - a.y
    cross = dx * (p.y - a.y) - dy * (p.x - a.x)
    if abs(cross) > _EDGE_EPS:
        return False
    if dx == 0.0 and dy == 0.0:
        # a repeated vertex: the zero-length edge holds only that vertex
        return p.x == a.x and p.y == a.y
    dot = (p.x - a.x) * dx + (p.y - a.y) * dy
    return -_EDGE_EPS <= dot <= dx ** 2 + dy ** 2 + _EDGE_EPS


def point_on_boundary(p: PlanarPoint, poly: PolygonM) -> bool:
    """True when ``p`` lies on any ring edge of the polygon."""
    for ring in poly.rings():
        n = len(ring)
        for i in range(n):
            if _on_segment(p, ring[i], ring[(i + 1) % n]):
                return True
    return False


def point_in_polygon(p: PlanarPoint, poly: PolygonM) -> bool:
    """Even-odd containment test; points on any ring edge count as inside."""
    inside = False
    for ring in poly.rings():
        n = len(ring)
        for i in range(n):
            a, b = ring[i], ring[(i + 1) % n]
            if _on_segment(p, a, b):
                return True
            if (a.y > p.y) != (b.y > p.y):
                x_cross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
                if p.x < x_cross:
                    inside = not inside
    return inside


def _on_segment_arrays(x, y, a: PlanarPoint, b: PlanarPoint) -> np.ndarray:
    dx, dy = b.x - a.x, b.y - a.y
    on = np.abs(dx * (y - a.y) - dy * (x - a.x)) <= _EDGE_EPS
    if dx == 0.0 and dy == 0.0:
        return on & (x == a.x) & (y == a.y)
    dot = (x - a.x) * dx + (y - a.y) * dy
    return on & (-_EDGE_EPS <= dot) & (dot <= dx ** 2 + dy ** 2 + _EDGE_EPS)


def point_in_polygon_arrays(x, y, poly: PolygonM) -> np.ndarray:
    """:func:`point_in_polygon` for arrays of planar coordinates.

    Only +, -, *, / and comparisons act on each point, in the scalar
    function's order, so every answer is the scalar one bit for bit.
    """
    on_edge = np.zeros(len(x), dtype=bool)
    inside = np.zeros(len(x), dtype=bool)
    for ring in poly.rings():
        n = len(ring)
        for i in range(n):
            a, b = ring[i], ring[(i + 1) % n]
            on_edge |= _on_segment_arrays(x, y, a, b)
            rows = np.flatnonzero((a.y > y) != (b.y > y))
            x_cross = a.x + (y[rows] - a.y) * (b.x - a.x) / (b.y - a.y)
            inside[rows] ^= x[rows] < x_cross
    return on_edge | inside


def containment_box(poly: PolygonM) -> tuple[float, float, float, float]:
    """(xmin, ymin, xmax, ymax) outside which :func:`point_in_polygon` is False.

    The box spans every ring, since the even-odd test counts holes too. It
    is padded to hold every point the edge tolerance accepts: an edge of
    length L accepts points up to d = _EDGE_EPS / L across it and beyond
    its ends, a rectangle whose corners stick out of the edge's own box by
    at most sqrt(2) * d. The pad is 2 * d for the shortest edge, plus some
    ulps of the coordinate magnitude for the rounding of the cross, dot and
    crossing computations.
    """
    xs = [v.x for ring in poly.rings() for v in ring]
    ys = [v.y for ring in poly.rings() for v in ring]
    tolerance = 0.0
    for ring in poly.rings():
        n = len(ring)
        for i in range(n):
            a, b = ring[i], ring[(i + 1) % n]
            length = math.hypot(b.x - a.x, b.y - a.y)
            if length > 0.0:
                tolerance = max(tolerance, _EDGE_EPS / length)
    xmin, ymin, xmax, ymax = min(xs), min(ys), max(xs), max(ys)
    pad = 2.0 * tolerance + 64.0 * math.ulp(max(-xmin, xmax, -ymin, ymax, 1.0))
    return xmin - pad, ymin - pad, xmax + pad, ymax + pad


def _point_segment_distance(p: PlanarPoint, a: PlanarPoint, b: PlanarPoint) -> float:
    dx, dy = b.x - a.x, b.y - a.y
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        return math.hypot(p.x - a.x, p.y - a.y)
    t = ((p.x - a.x) * dx + (p.y - a.y) * dy) / seg2
    t = max(0.0, min(1.0, t))
    return math.hypot(p.x - (a.x + t * dx), p.y - (a.y + t * dy))


def distance_to_polygon_m(p: PlanarPoint, poly: PolygonM) -> float:
    """0 for contained points, else the distance to the nearest ring edge."""
    if point_in_polygon(p, poly):
        return 0.0
    best = math.inf
    for ring in poly.rings():
        n = len(ring)
        for i in range(n):
            best = min(best, _point_segment_distance(p, ring[i], ring[(i + 1) % n]))
    return best


def edge_distance_m_arrays(x, y, poly: PolygonM) -> np.ndarray:
    """Distance from each point to the nearest ring edge of ``poly``.

    :func:`distance_to_polygon_m` of an uncontained point, with the scalar
    arithmetic except ``np.hypot``, which may differ from ``math.hypot`` in
    the last place.
    """
    best = np.full(len(x), math.inf)
    for ring in poly.rings():
        n = len(ring)
        for i in range(n):
            a, b = ring[i], ring[(i + 1) % n]
            dx, dy = b.x - a.x, b.y - a.y
            seg2 = dx * dx + dy * dy
            if seg2 == 0.0:
                d = np.hypot(x - a.x, y - a.y)
            else:
                t = ((x - a.x) * dx + (y - a.y) * dy) / seg2
                t = np.maximum(0.0, np.minimum(1.0, t))
                d = np.hypot(x - (a.x + t * dx), y - (a.y + t * dy))
            np.minimum(best, d, out=best)
    return best


def _ring_signed_area_centroid(ring) -> tuple[float, float, float]:
    """Signed shoelace area and (unnormalized) centroid accumulators."""
    a = cx = cy = 0.0
    n = len(ring)
    for i in range(n):
        p, q = ring[i], ring[(i + 1) % n]
        w = p.x * q.y - q.x * p.y
        a += w
        cx += (p.x + q.x) * w
        cy += (p.y + q.y) * w
    return a / 2.0, cx / 6.0, cy / 6.0


def polygon_centroid_area(poly: PolygonM) -> tuple[PlanarPoint, float]:
    """Area-weighted centroid and area in m^2, holes subtracted."""
    area = cx = cy = 0.0
    a0, x0, y0 = _ring_signed_area_centroid(poly.exterior)
    sign = 1.0 if a0 >= 0 else -1.0
    area += sign * a0
    cx += sign * x0
    cy += sign * y0
    for hole in poly.holes:
        ah, xh, yh = _ring_signed_area_centroid(hole)
        hsign = 1.0 if ah >= 0 else -1.0
        area -= hsign * ah
        cx -= hsign * xh
        cy -= hsign * yh
    if area <= 0.0:
        raise InvalidGeometryError(f"polygon area must be positive, got {area}")
    return PlanarPoint(cx / area, cy / area), area


def snap_to_grid(p: PlanarPoint) -> GridCell:
    """Cell containing ``p``; floor-based so cells partition the plane."""
    return GridCell(math.floor(p.x / GRID_RESOLUTION_M), math.floor(p.y / GRID_RESOLUTION_M))
