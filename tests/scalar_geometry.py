"""The scalar polygon predicates that ``museumflows.geometry.edge_tests`` replaced.

They are kept as differential oracles: one Python loop per ring edge, on
:class:`PlanarPoint` values, with the package's edge tolerance. The
:func:`point_in_polygon` here is the scalar loop, not the package's
function of that name, which reduces the edge kernel. ``_zone_containing``
is the per-cell zone resolution ``assign_home_zone`` made before it tested
every (cell, zone) pair at once.
"""

import math

from museumflows.errors import AmbiguousZoneError
from museumflows.geometry import _EDGE_EPS, PlanarPoint, PolygonM


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


def _zone_containing(center: PlanarPoint, candidates, user_id: str) -> int:
    """Index of the zone holding ``center`` among the (index, zone) candidates, in zone order; -1 for none."""
    containing = [(k, z) for k, z in candidates if point_in_polygon(center, z.boundary)]
    if not containing:
        return -1
    if len(containing) == 1 or any(point_on_boundary(center, z.boundary) for _, z in containing):
        return containing[0][0]
    ids = [z.id for _, z in containing]
    raise AmbiguousZoneError(f"home of {user_id} strictly inside zones {ids}")
