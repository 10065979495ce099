"""Geometry tests.

Derived expectations come from independent re-implementations: an atan2
great-circle form, a crossing test cast along a different axis, a convex
half-plane test, and a fan triangulation. None of them share code with the
functions under test. The edge kernel is also held to the scalar
predicates it replaced, kept in ``scalar_geometry``.
"""

import math

import numpy as np
import pytest
from conftest import assert_same_outcome, containment_box, kernel_edge_distance, outcome
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scalar_geometry import distance_to_polygon_m, point_on_boundary
from scalar_geometry import point_in_polygon as scalar_point_in_polygon
from scalar_geometry import polygon_centroid_area as scalar_polygon_centroid_area

from museumflows.errors import InvalidCoordinateError, InvalidGeometryError
from museumflows.geometry import (
    EARTH_RADIUS_KM,
    GeoPoint,
    GridCell,
    PlanarPoint,
    PolygonM,
    edge_tests,
    haversine_km,
    haversine_km_arrays,
    point_in_polygon,
    polygon_centroid_area,
    polygons_contain,
    project,
    project_arrays,
    ring_edges,
    snap_to_grid,
    unproject,
)

LEEDS = GeoPoint(53.7919, -1.5323)


def greatcircle_km_atan2(a: GeoPoint, b: GeoPoint) -> float:
    """Oracle: great-circle distance via the atan2 form, not half angles."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    dlon = lon2 - lon1
    num = math.hypot(
        math.cos(lat2) * math.sin(dlon),
        math.cos(lat1) * math.sin(lat2) - math.sin(lat1) * math.cos(lat2) * math.cos(dlon),
    )
    den = math.sin(lat1) * math.sin(lat2) + math.cos(lat1) * math.cos(lat2) * math.cos(dlon)
    return EARTH_RADIUS_KM * math.atan2(num, den)


def raycast_down_contains(p: PlanarPoint, ring) -> bool:
    """Oracle: ray cast along -y, crossing arithmetic written independently."""
    crossings = 0
    n = len(ring)
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        if (a.x > p.x) != (b.x > p.x):
            y_cross = a.y + (p.x - a.x) * (b.y - a.y) / (b.x - a.x)
            if y_cross < p.y:
                crossings += 1
    return crossings % 2 == 1


def halfplane_contains(p: PlanarPoint, ring) -> bool:
    """Oracle for convex counterclockwise rings: inside iff left of every edge."""
    n = len(ring)
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        if (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x) < 0:
            return False
    return True


def fan_centroid_area(ring):
    """Oracle: fan triangulation from vertex 0 (ring must be star-shaped there)."""
    area = cx = cy = 0.0
    o = ring[0]
    for i in range(1, len(ring) - 1):
        a, b = ring[i], ring[i + 1]
        t = ((a.x - o.x) * (b.y - o.y) - (b.x - o.x) * (a.y - o.y)) / 2.0
        area += t
        cx += t * (o.x + a.x + b.x) / 3.0
        cy += t * (o.y + a.y + b.y) / 3.0
    return PlanarPoint(cx / area, cy / area), area


def random_convex_ring(rng, n_vertices=6, radius=50.0):
    """Points on a shared circle sorted by angle: convex, counterclockwise."""
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=n_vertices))
    cx, cy = rng.uniform(-100.0, 100.0, size=2)
    r = rng.uniform(radius * 0.5, radius)
    return tuple(
        PlanarPoint(cx + r * math.cos(t), cy + r * math.sin(t)) for t in angles
    )


def square(x0=0.0, y0=0.0, side=1.0):
    return PolygonM(
        exterior=(
            PlanarPoint(x0, y0),
            PlanarPoint(x0 + side, y0),
            PlanarPoint(x0 + side, y0 + side),
            PlanarPoint(x0, y0 + side),
        )
    )


def test_geopoint_bounds():
    with pytest.raises(InvalidCoordinateError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(InvalidCoordinateError):
        GeoPoint(0.0, 180.5)
    with pytest.raises(InvalidCoordinateError):
        GeoPoint(float("nan"), 0.0)
    with pytest.raises(InvalidCoordinateError):
        PlanarPoint(float("inf"), 0.0)


def test_project_identity_is_origin():
    q = project(LEEDS, LEEDS)
    assert q.x == 0.0 and q.y == 0.0


def test_project_small_latitude_step():
    # 0.001 degrees of latitude is 1/360000 of the meridian circle:
    # 2*pi*6371008.8 / 360000 = 111.1949 m.
    q = project(GeoPoint(LEEDS.lat + 0.001, LEEDS.lon), LEEDS)
    assert q.x == pytest.approx(0.0, abs=1e-9)
    assert q.y == pytest.approx(111.1949, abs=1e-3)


def test_project_round_trip():
    rng = np.random.default_rng(42)
    for _ in range(200):
        p = GeoPoint(LEEDS.lat + rng.uniform(-4.9, 4.9), LEEDS.lon + rng.uniform(-4.9, 4.9))
        back = unproject(project(p, LEEDS), LEEDS)
        assert back.lat == pytest.approx(p.lat, abs=1e-6)
        assert back.lon == pytest.approx(p.lon, abs=1e-6)


def test_project_round_trip_metric_at_ref():
    near = GeoPoint(LEEDS.lat + 1e-4, LEEDS.lon - 1e-4)
    q = project(near, LEEDS)
    q2 = project(unproject(q, LEEDS), LEEDS)
    assert math.hypot(q2.x - q.x, q2.y - q.y) < 1e-6


def test_project_rejects_far_points():
    with pytest.raises(InvalidCoordinateError):
        project(GeoPoint(LEEDS.lat + 6.0, LEEDS.lon), LEEDS)


def test_haversine_zero_and_symmetry():
    assert haversine_km(LEEDS, LEEDS) == 0.0
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))
        b = GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a), rel=1e-15)
        assert haversine_km(a, b) >= 0.0


def test_haversine_against_atan2_oracle():
    a = GeoPoint(53.7997, -1.5492)
    b = GeoPoint(53.7960, -1.7594)
    assert haversine_km(a, b) == pytest.approx(greatcircle_km_atan2(a, b), rel=1e-9)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p = GeoPoint(rng.uniform(-85, 85), rng.uniform(-180, 180))
        q = GeoPoint(rng.uniform(-85, 85), rng.uniform(-180, 180))
        assert haversine_km(p, q) == pytest.approx(greatcircle_km_atan2(p, q), rel=1e-9, abs=1e-12)


def test_haversine_triangle_inequality():
    rng = np.random.default_rng(13)
    for _ in range(300):
        pts = [GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179)) for _ in range(3)]
        a, b, c = pts
        assert haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-9


def test_planar_distance_tracks_haversine_near_ref():
    rng = np.random.default_rng(17)
    for _ in range(300):
        # ~20 km box around the reference
        a = GeoPoint(LEEDS.lat + rng.uniform(-0.18, 0.18), LEEDS.lon + rng.uniform(-0.3, 0.3))
        b = GeoPoint(LEEDS.lat + rng.uniform(-0.18, 0.18), LEEDS.lon + rng.uniform(-0.3, 0.3))
        km = haversine_km(a, b)
        if km < 0.05:
            continue
        pa, pb = project(a, LEEDS), project(b, LEEDS)
        planar = math.hypot(pb.x - pa.x, pb.y - pa.y)
        assert abs(planar - 1000.0 * km) / (1000.0 * km) < 0.005


def test_point_in_polygon_basics():
    sq = square()
    assert point_in_polygon(PlanarPoint(0.5, 0.5), sq)
    assert not point_in_polygon(PlanarPoint(10.0, 10.0), sq)


def test_point_in_polygon_boundary_is_inside():
    sq = square()
    assert point_in_polygon(PlanarPoint(0.0, 0.0), sq)  # vertex
    assert point_in_polygon(PlanarPoint(0.5, 0.0), sq)  # edge midpoint
    assert point_in_polygon(PlanarPoint(1.0, 0.25), sq)  # vertical edge


def test_point_on_boundary():
    sq = square()
    assert point_on_boundary(PlanarPoint(0.5, 0.0), sq)
    assert point_on_boundary(PlanarPoint(1.0, 1.0), sq)
    assert not point_on_boundary(PlanarPoint(0.5, 0.5), sq)
    assert not point_on_boundary(PlanarPoint(2.0, 2.0), sq)
    holed = PolygonM(exterior=square(0, 0, 10).exterior, holes=(square(4, 4, 2).exterior,))
    assert point_on_boundary(PlanarPoint(5.0, 4.0), holed)


def test_point_in_polygon_hole():
    annulus = PolygonM(
        exterior=square(0, 0, 10).exterior,
        holes=(square(4, 4, 2).exterior,),
    )
    assert not point_in_polygon(PlanarPoint(5.0, 5.0), annulus)  # inside the hole
    assert point_in_polygon(PlanarPoint(5.0, 2.0), annulus)
    assert point_in_polygon(PlanarPoint(5.0, 4.0), annulus)  # hole edge counts as inside


def test_point_in_polygon_degenerate_ring():
    with pytest.raises(InvalidGeometryError):
        PolygonM(exterior=(PlanarPoint(0, 0), PlanarPoint(1, 0)))
    with pytest.raises(InvalidGeometryError):
        PolygonM(exterior=square().exterior, holes=((PlanarPoint(0, 0),),))


def test_repeated_vertex_edge_holds_only_its_vertex():
    # exported rings often repeat a vertex; the zero-length edge it makes
    # must not claim the whole plane
    a, b, c, d = square().exterior
    repeated = PolygonM(exterior=(a, b, b, c, d))
    far = PlanarPoint(500.0, -300.0)
    assert not point_in_polygon(far, repeated)
    assert not point_on_boundary(far, repeated)
    assert distance_to_polygon_m(far, repeated) == pytest.approx(math.hypot(499.0, 300.0))
    assert point_on_boundary(PlanarPoint(1.0, 0.0), repeated)
    rng = np.random.default_rng(29)
    for x, y in rng.uniform(-2.0, 3.0, size=(200, 2)):
        p = PlanarPoint(x, y)
        assert point_in_polygon(p, repeated) == point_in_polygon(p, square())
        assert point_on_boundary(p, repeated) == point_on_boundary(p, square())


def _in_box(p, box):
    xmin, ymin, xmax, ymax = box
    return xmin <= p.x <= xmax and ymin <= p.y <= ymax


def test_containment_box_spans_every_ring_and_the_edge_tolerance():
    # a "hole" outside the exterior still counts under the even-odd rule
    stray = PolygonM(exterior=square().exterior, holes=(square(5.0, 5.0).exterior,))
    assert point_in_polygon(PlanarPoint(5.5, 5.5), stray)
    assert _in_box(PlanarPoint(5.5, 5.5), containment_box(stray))

    # 5e-13 m beyond a 1 km edge is within its tolerance, outside its vertices
    big = square(0.0, 0.0, 1000.0)
    beyond = PlanarPoint(1000.0 + 5e-13, 500.0)
    assert beyond.x > 1000.0 and point_in_polygon(beyond, big)
    assert _in_box(beyond, containment_box(big))

    # a 1 um edge accepts points up to 1 mm past its ends
    sliver = PolygonM(exterior=(PlanarPoint(0.0, 0.0), PlanarPoint(1e-6, 0.0), PlanarPoint(0.0, 10.0)))
    before = PlanarPoint(-5e-4, 0.0)
    assert point_in_polygon(before, sliver)
    assert _in_box(before, containment_box(sliver))


def test_containment_box_holds_every_point_in_polygon_accepts():
    rng = np.random.default_rng(31)
    outside_vertices = 0
    for _ in range(200):
        ring = list(random_convex_ring(rng, n_vertices=int(rng.integers(3, 8))))
        k = int(rng.integers(len(ring)))
        if rng.random() < 0.3:  # a repeated vertex
            ring.insert(k, ring[k])
        elif rng.random() < 0.3:  # a very short edge, at any angle
            step = 10.0 ** rng.uniform(-9.0, -5.0)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            ring.insert(k + 1, PlanarPoint(ring[k].x + step * math.cos(angle),
                                           ring[k].y + step * math.sin(angle)))
        poly = PolygonM(exterior=tuple(ring))
        box = containment_box(poly)
        vertex_box = (min(v.x for v in ring), min(v.y for v in ring),
                      max(v.x for v in ring), max(v.y for v in ring))
        for i in range(len(ring)):
            a, b = ring[i], ring[(i + 1) % len(ring)]
            length = math.hypot(b.x - a.x, b.y - a.y)
            if length == 0.0:
                continue
            reach = 1e-9 / length  # the edge tolerance across and beyond the ends
            ux, uy = (b.x - a.x) / length, (b.y - a.y) / length
            for _ in range(10):
                along = rng.uniform(-2.0 * reach, length + 2.0 * reach)
                across = rng.uniform(-2.0 * reach, 2.0 * reach)
                p = PlanarPoint(a.x + along * ux - across * uy, a.y + along * uy + across * ux)
                if point_in_polygon(p, poly):
                    assert _in_box(p, box)
                    outside_vertices += not _in_box(p, vertex_box)
    assert outside_vertices > 0  # the tolerance region was reached


def test_array_geometry_matches_the_scalar_functions():
    # polygons with holes, repeated vertices and very short edges; points on
    # vertices, inside the edge tolerance and anywhere around
    rng = np.random.default_rng(41)
    on_edges = 0
    for _ in range(150):
        ring = list(random_convex_ring(rng, n_vertices=int(rng.integers(3, 8))))
        k = int(rng.integers(len(ring)))
        if rng.random() < 0.3:
            ring.insert(k, ring[k])
        elif rng.random() < 0.3:
            ring.insert(k + 1, PlanarPoint(ring[k].x + 1e-7, ring[k].y - 3e-8))
        holes = (square(-5.0, -5.0, 10.0).exterior,) if rng.random() < 0.3 else ()
        poly = PolygonM(exterior=tuple(ring), holes=holes)
        points = [PlanarPoint(*rng.uniform(-160.0, 160.0, size=2)) for _ in range(30)]
        points += [v for r in poly.rings() for v in r]
        for i in range(len(ring)):
            a, b = ring[i], ring[(i + 1) % len(ring)]
            t, across = rng.uniform(0.0, 1.0), rng.uniform(-2e-12, 2e-12)
            points.append(PlanarPoint(a.x + t * (b.x - a.x) + across, a.y + t * (b.y - a.y) - across))
        x = np.array([p.x for p in points])
        y = np.array([p.y for p in points])
        inside = [scalar_point_in_polygon(p, poly) for p in points]
        assert polygons_contain(x, y, ring_edges([poly]), np.zeros(len(points), dtype=np.intp))[0].tolist() == inside
        on_edges += sum(point_on_boundary(p, poly) for p in points)
        edge = kernel_edge_distance(x, y, poly)
        for p, got, contained in zip(points, edge.tolist(), inside):
            if not contained:  # the scalar distance of a contained point is 0
                assert got == pytest.approx(distance_to_polygon_m(p, poly), rel=1e-15, abs=0.0)
    assert on_edges > 150

    ref = GeoPoint(53.5, -2.5)
    geo = [GeoPoint(ref.lat + dy, ref.lon + dx) for dy, dx in rng.uniform(-4.99, 4.99, size=(500, 2))]
    lat, lon = np.array([g.lat for g in geo]), np.array([g.lon for g in geo])
    x, y = project_arrays(lat, lon, ref)
    assert [(a, b) for a, b in zip(x.tolist(), y.tolist())] == [(q.x, q.y) for q in (project(g, ref) for g in geo)]
    km = haversine_km_arrays(lat, lon, LEEDS)
    np.testing.assert_allclose(km, [haversine_km(g, LEEDS) for g in geo], rtol=1e-14, atol=0)
    with pytest.raises(InvalidCoordinateError, match="more than 5.0 degrees"):
        project_arrays(np.array([ref.lat, ref.lat + 5.5]), np.array([ref.lon, ref.lon]), ref)


COORD = st.floats(-200.0, 200.0).map(lambda v: round(v, 6))  # no edge so short that dx / dy overflows
VERTEX = st.tuples(COORD, COORD).map(lambda v: PlanarPoint(*v))


@st.composite
def polygons_and_points(draw):
    """A ring, free or with a repeated vertex or all its vertices on one spot, up to two holes, and
    points anywhere, on every vertex and on or 2e-12 m across every edge."""
    kind = draw(st.sampled_from(("free", "repeated", "coincident")))
    if kind == "coincident":
        exterior = [draw(VERTEX)] * draw(st.integers(3, 5))
    else:
        exterior = draw(st.lists(VERTEX, min_size=3, max_size=7))
        if kind == "repeated":
            k = draw(st.integers(0, len(exterior) - 1))
            exterior.insert(k, exterior[k])
    holes = draw(st.lists(st.lists(VERTEX, min_size=3, max_size=5), max_size=2))
    poly = PolygonM(exterior=tuple(exterior), holes=tuple(tuple(h) for h in holes))
    points = draw(st.lists(VERTEX, max_size=4)) + [v for ring in poly.rings() for v in ring]
    for ring in poly.rings():
        for a, b in zip(ring, ring[1:] + ring[:1]):
            t = draw(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0))
            across = draw(st.sampled_from((-2e-12, 0.0, 2e-12)))
            points.append(PlanarPoint(a.x + t * (b.x - a.x) + across, a.y + t * (b.y - a.y) - across))
    return poly, points


@settings(max_examples=300, deadline=None)
@given(polygons_and_points())
def test_edge_kernel_matches_the_scalar_predicates(case):
    poly, points = case
    x, y = np.array([p.x for p in points]), np.array([p.y for p in points])
    inside, on_edge = polygons_contain(x, y, ring_edges([poly]), np.zeros(len(points), dtype=np.intp))
    assert inside.tolist() == [scalar_point_in_polygon(p, poly) for p in points]
    assert on_edge.tolist() == [point_on_boundary(p, poly) for p in points]
    ax, ay, bx, by = (v[:, None] for v in ring_edges([poly])[:4])
    _, _, ex, ey = edge_tests(ax, ay, bx, by, x, y)
    for k, (p, contained) in enumerate(zip(points, inside.tolist())):
        if not contained:  # the scalar distance of a contained point is 0
            assert min(map(math.hypot, ex[:, k].tolist(), ey[:, k].tolist())) == distance_to_polygon_m(p, poly)


def test_point_in_polygon_matches_oracles_on_random_convex():
    rng = np.random.default_rng(19)
    for _ in range(1000):
        ring = random_convex_ring(rng)
        poly = PolygonM(exterior=ring)
        p = PlanarPoint(rng.uniform(-160, 160), rng.uniform(-160, 160))
        got = point_in_polygon(p, poly)
        assert got == raycast_down_contains(p, ring)
        assert got == halfplane_contains(p, ring)


def test_distance_to_polygon_inside_is_zero():
    sq = square(0, 0, 10)
    assert distance_to_polygon_m(PlanarPoint(3.0, 7.0), sq) == 0.0
    assert distance_to_polygon_m(PlanarPoint(10.0, 5.0), sq) == 0.0  # boundary


def test_distance_to_polygon_outside():
    sq = square(0, 0, 10)
    assert distance_to_polygon_m(PlanarPoint(15.0, 5.0), sq) == pytest.approx(5.0)
    # 3-4-5 triangle to the nearest corner; both adjacent edges give the
    # same clamped distance
    assert distance_to_polygon_m(PlanarPoint(-3.0, -4.0), sq) == pytest.approx(5.0)


def test_distance_zero_iff_inside():
    rng = np.random.default_rng(23)
    for _ in range(500):
        poly = PolygonM(exterior=random_convex_ring(rng))
        p = PlanarPoint(rng.uniform(-160, 160), rng.uniform(-160, 160))
        d = distance_to_polygon_m(p, poly)
        assert (d == 0.0) == point_in_polygon(p, poly)


def test_centroid_area_unit_square():
    c, a = polygon_centroid_area(square())
    assert (c.x, c.y) == pytest.approx((0.5, 0.5))
    assert a == pytest.approx(1.0)


def test_centroid_area_translation():
    c, a = polygon_centroid_area(square(10.0, 0.0))
    assert (c.x, c.y) == pytest.approx((10.5, 0.5))
    assert a == pytest.approx(1.0)


def test_centroid_area_orientation_independent():
    cw = PolygonM(exterior=tuple(reversed(square().exterior)))
    c, a = polygon_centroid_area(cw)
    assert (c.x, c.y) == pytest.approx((0.5, 0.5))
    assert a == pytest.approx(1.0)


def test_centroid_area_l_shape_against_fan_oracle():
    ring = (
        PlanarPoint(0, 0),
        PlanarPoint(2, 0),
        PlanarPoint(2, 1),
        PlanarPoint(1, 1),
        PlanarPoint(1, 2),
        PlanarPoint(0, 2),
    )
    c, a = polygon_centroid_area(PolygonM(exterior=ring))
    oc, oa = fan_centroid_area(ring)
    assert a == pytest.approx(oa, rel=1e-12)
    assert (c.x, c.y) == pytest.approx((oc.x, oc.y), rel=1e-12)
    # decomposition into 2x1 and 1x1 rectangles gives (2.5/3, 2.5/3), area 3
    assert a == pytest.approx(3.0)
    assert (c.x, c.y) == pytest.approx((2.5 / 3.0, 2.5 / 3.0))


def test_centroid_area_random_convex_against_fan_oracle():
    rng = np.random.default_rng(29)
    for _ in range(200):
        ring = random_convex_ring(rng)
        c, a = polygon_centroid_area(PolygonM(exterior=ring))
        oc, oa = fan_centroid_area(ring)
        assert a == pytest.approx(oa, rel=1e-9)
        assert (c.x, c.y) == pytest.approx((oc.x, oc.y), rel=1e-9, abs=1e-9)


def test_centroid_area_subtracts_holes():
    annulus = PolygonM(
        exterior=square(0, 0, 10).exterior,
        holes=(square(4, 4, 2).exterior,),
    )
    c, a = polygon_centroid_area(annulus)
    assert a == pytest.approx(96.0)
    assert (c.x, c.y) == pytest.approx((5.0, 5.0))


def test_centroid_area_zero_area_rejected():
    flat = PolygonM(exterior=(PlanarPoint(0, 0), PlanarPoint(1, 1), PlanarPoint(2, 2)))
    with pytest.raises(InvalidGeometryError):
        polygon_centroid_area(flat)


# small integers make exactly zero and exactly cancelling areas likely; wide floats round
coordinate = st.one_of(st.integers(-4, 4).map(float), st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False))
# each ring as drawn or reversed, so Hypothesis tries both windings of one ring
ring_either_way = st.tuples(
    st.lists(st.builds(PlanarPoint, coordinate, coordinate), min_size=3, max_size=6), st.booleans()
).map(lambda drawn: tuple(reversed(drawn[0])) if drawn[1] else tuple(drawn[0]))


@settings(max_examples=400, deadline=None)
@given(ring_either_way, st.lists(ring_either_way, max_size=3))
@example(  # the centroid's y overflows: both sides raise InvalidCoordinateError
    tuple(PlanarPoint(x, y) for x, y in ((3.0, 1.0), (0.0, 4.0), (3.0, 0.0), (2.2250738585072014e-308, 0.0))), []
)
def test_centroid_area_matches_the_exterior_then_holes_oracle_bit_for_bit(exterior, holes):
    poly = PolygonM(exterior=exterior, holes=tuple(holes))
    got, expected = outcome(polygon_centroid_area, poly), outcome(scalar_polygon_centroid_area, poly)
    if not assert_same_outcome(got, expected):
        return
    (c, a), (oc, oa) = got[1], expected[1]
    assert (c.x, c.y, a) == (oc.x, oc.y, oa)
    assert [v.hex() for v in (c.x, c.y, a)] == [v.hex() for v in (oc.x, oc.y, oa)]  # signed zeros too


def test_snap_to_grid_examples():
    assert snap_to_grid(PlanarPoint(0.0, 0.0)) == GridCell(0, 0)
    assert snap_to_grid(PlanarPoint(99.99, 100.01)) == GridCell(0, 1)
    assert snap_to_grid(PlanarPoint(-0.01, 0.0)) == GridCell(-1, 0)


def test_snap_to_grid_idempotent_on_centers():
    rng = np.random.default_rng(31)
    for _ in range(200):
        p = PlanarPoint(rng.uniform(-5000, 5000), rng.uniform(-5000, 5000))
        cell = snap_to_grid(p)
        assert snap_to_grid(cell.center()) == cell
