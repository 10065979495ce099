"""Coordinate handling, distances, polygon predicates and grid snapping.

All planar work happens in a local equirectangular frame anchored at a
reference coordinate: at city scale the projection error stays well below
0.5% of distance, which is accurate enough for buffer filters and grid
generalization without dragging in a geodesy library.

Every polygon predicate (containment, on-edge, distance) reduces one
elementwise kernel over (edge, point) pairs, :func:`edge_tests`.
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

# The most (point, edge) pairs polygons_contain sends through the kernel at once: a few MB of temporaries.
_PAIR_EDGES = 1 << 16


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


def outside_frame(delta) -> np.ndarray:
    """``abs(delta) > MAX_FRAME_DEGREES``, :func:`project`'s test of coordinate differences, NaN too: bool arrays only."""
    far = delta > MAX_FRAME_DEGREES
    return np.logical_or(far, delta < -MAX_FRAME_DEGREES, out=far)


def project_arrays(lat, lon, ref: GeoPoint):
    """:func:`project` for arrays of latitudes and longitudes; returns (x, y).

    The operations are those of :func:`project`, in the same order, so each
    point lands bit for bit where the scalar function puts it. Raises, through
    :func:`project`, for the first point outside the frame.
    """
    dlat = np.asarray(lat, dtype=np.float64) - ref.lat
    dlon = np.asarray(lon, dtype=np.float64) - ref.lon
    far = outside_frame(dlat) | outside_frame(dlon)
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


def ring_edges(polys):
    """(ax, ay, bx, by, n_edges): the closed ring edges a -> b of each polygon in turn, and each one's edge count."""
    rings = [ring for poly in polys for ring in poly.rings()]
    x, y = np.array([[v.x for ring in rings for v in ring], [v.y for ring in rings for v in ring]])
    ends = np.cumsum([len(ring) for ring in rings], dtype=np.intp)
    nxt = np.arange(1, len(x) + 1)
    nxt[ends - 1] = np.append(0, ends[:-1])  # each ring's last vertex runs to its first
    n_edges = np.array([sum(map(len, poly.rings())) for poly in polys], dtype=np.intp)
    return x, y, x[nxt], y[nxt], n_edges


def edge_tests(ax, ay, bx, by, x, y):
    """The polygon edge kernel: (on, crosses, ex, ey) for each edge a -> b and point (x, y).

    Edges lie along axis 0 and points along axis 1, or pair up one to one.
    ``on``: the point is on the edge within ``_EDGE_EPS``; a zero-length edge
    holds only its vertex. ``crosses``: the point's rightward ray crosses the
    edge; a point is in a polygon when it is on an edge or crosses an odd
    number of them (even-odd rule, Haines 1994). (ex, ey): the point's offset
    from the edge's nearest point. Only +, -, *, / and comparisons act, in
    one fixed order, so no answer depends on the shapes. The on-edge bound
    squares with ``np.float_power``, the C ``pow`` that Python's ``**`` calls.
    """
    dx, dy = bx - ax, by - ay
    px, py = x - ax, y - ay
    dot = px * dx + py * dy
    seg2 = dx * dx + dy * dy
    bound = np.float_power(dx, 2.0) + np.float_power(dy, 2.0) + _EDGE_EPS
    along = np.where((dx == 0.0) & (dy == 0.0), (x == ax) & (y == ay), (-_EDGE_EPS <= dot) & (dot <= bound))
    on = (np.abs(dx * py - dy * px) <= _EDGE_EPS) & along
    with np.errstate(divide="ignore", invalid="ignore"):  # dy == 0 never straddles; seg2 == 0 takes t = 0
        crosses = ((ay > y) != (by > y)) & (x < ax + py * dx / dy)
        t = np.where(seg2 == 0.0, 0.0, np.clip(dot / seg2, 0.0, 1.0))
    return on, crosses, x - (ax + t * dx), y - (ay + t * dy)


def polygons_contain(x, y, edges, which) -> tuple[np.ndarray, np.ndarray]:
    """(inside, on_edge) of each point (x[k], y[k]) in polygon ``which[k]`` of ``edges = ring_edges(polys)``.

    On an edge is inside. The (point, edge) pairs go through
    :func:`edge_tests` in slices of at most ``_PAIR_EDGES`` pairs (or one
    point), whatever the vertex counts.
    """
    inside, on_edge = np.zeros((2, len(which)), dtype=bool)
    ax, ay, bx, by, n_edges = edges
    first_edge = np.cumsum(n_edges) - n_edges
    step = max(1, _PAIR_EDGES // int(n_edges.max(initial=1)))
    for s in range(0, len(which), step):
        counts = n_edges[which[s: s + step]]
        starts = np.cumsum(counts) - counts
        point = np.repeat(np.arange(s, s + len(counts)), counts)
        edge = np.arange(counts.sum()) + np.repeat(first_edge[which[s: s + step]] - starts, counts)
        on, crosses, _, _ = edge_tests(ax[edge], ay[edge], bx[edge], by[edge], x[point], y[point])
        on_edge[s: s + step] = np.logical_or.reduceat(on, starts)
        inside[s: s + step] = on_edge[s: s + step] | (np.add.reduceat(crosses, starts, dtype=np.intp) % 2 == 1)
    return inside, on_edge


def point_in_polygon(p: PlanarPoint, poly: PolygonM) -> bool:
    """:func:`polygons_contain` for one point: even-odd, and on any ring edge is inside."""
    return bool(polygons_contain(np.array([p.x]), np.array([p.y]), ring_edges([poly]), np.zeros(1, np.intp))[0][0])


def containment_boxes(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(xmin, ymin, xmax, ymax), one entry per polygon of ``edges = ring_edges(polys)``: no point outside is in it.

    The box spans every ring, since the even-odd test counts holes too. It
    is padded to hold every point the edge tolerance accepts: an edge of
    length L accepts points up to d = _EDGE_EPS / L across it and beyond
    its ends, a rectangle whose corners stick out of the edge's own box by
    at most sqrt(2) * d. The pad is 2 * d for the shortest edge, plus some
    ulps of the coordinate magnitude for the rounding of the cross, dot and
    crossing computations.
    """
    ax, ay, bx, by, n_edges = edges
    first = np.cumsum(n_edges) - n_edges
    length = np.hypot(bx - ax, by - ay)
    tolerance = np.maximum.reduceat(_EDGE_EPS / np.where(length > 0.0, length, np.inf), first)
    xmin, ymin = np.minimum.reduceat(ax, first), np.minimum.reduceat(ay, first)
    xmax, ymax = np.maximum.reduceat(ax, first), np.maximum.reduceat(ay, first)
    pad = 2.0 * tolerance + 64.0 * np.spacing(np.max([-xmin, xmax, -ymin, ymax, np.ones_like(xmin)], axis=0))
    return xmin - pad, ymin - pad, xmax + pad, ymax + pad


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
    for k, ring in enumerate(poly.rings()):
        a, x, y = _ring_signed_area_centroid(ring)
        # the ring's orientation, negated for a hole: adding -s * a is subtracting s * a, bit for bit
        sign = (1.0 if a >= 0 else -1.0) * (1.0 if k == 0 else -1.0)
        area += sign * a
        cx += sign * x
        cy += sign * y
    if area <= 0.0:
        raise InvalidGeometryError(f"polygon area must be positive, got {area}")
    return PlanarPoint(cx / area, cy / area), area


def snap_to_grid(p: PlanarPoint) -> GridCell:
    """Cell containing ``p``; floor-based so cells partition the plane."""
    return GridCell(math.floor(p.x / GRID_RESOLUTION_M), math.floor(p.y / GRID_RESOLUTION_M))
