"""Home location: the array modal-cell inference and the per-cell zone
assignment, each against a scalar oracle kept here.

The oracles are the per-tweet and per-zone loops the fast paths replaced:
``project`` + ``snap_to_grid`` + a dict of cells per user, and every home
tested against every zone with no box and no cache.
"""

import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from conftest import make_zone
from hypothesis import given, settings
from hypothesis import strategies as st

from museumflows.errors import AmbiguousZoneError, InvalidCoordinateError
from museumflows.geometry import (
    EARTH_RADIUS_M,
    GeoPoint,
    GridCell,
    PlanarPoint,
    PolygonM,
    point_in_polygon,
    point_on_boundary,
    project,
    snap_to_grid,
)
from museumflows.pipeline import Tweet, UserHome, assign_home_zone, infer_home_locations

REF = GeoPoint(53.5, -2.5)
EPOCH = datetime(2013, 6, 1, 12, 0, 0, tzinfo=timezone.utc)
METERS_PER_DEG_LON = EARTH_RADIUS_M * math.cos(math.radians(REF.lat)) * math.pi / 180.0
METERS_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0


def oracle_homes(corpus, ref, resolution=100.0):
    """Scalar modal cell per user; ties to the earliest (timestamp, id)."""
    by_user = {}
    for t in corpus:
        by_user.setdefault(t.user_id, []).append(t)
    homes = []
    for user_id, tweets in by_user.items():
        cells = {}
        for t in tweets:
            cells.setdefault(snap_to_grid(project(t.location, ref), resolution), []).append(t)
        top = max(len(ts) for ts in cells.values())
        tied = [cell for cell, ts in cells.items() if len(ts) == top]
        best = min(tied, key=lambda cell: min((t.timestamp, t.id) for t in cells[cell]))
        homes.append(UserHome(user_id, best, top))
    return sorted(homes, key=lambda h: h.user_id)


def oracle_zones(homes, zones):
    """Every home against every zone, in input order."""
    out = []
    for home in homes:
        center = home.cell.center()
        containing = [z for z in zones if point_in_polygon(center, z.boundary)]
        if not containing:
            zone_id = None
        elif len(containing) == 1 or any(point_on_boundary(center, z.boundary) for z in containing):
            zone_id = containing[0].id
        else:
            raise AmbiguousZoneError(
                f"home of {home.user_id} strictly inside zones {[z.id for z in containing]}"
            )
        out.append(UserHome(home.user_id, home.cell, home.tweet_count_at_cell, zone_id))
    return out


def random_corpus(rng, n_users=25, n_tweets=400):
    """Tweets on both sides of the frame origin, many on or next to cell edges.

    Coordinates are drawn from a few hundred metres around the reference,
    half of them moved onto a cell edge and nudged by up to two ulps.
    Timestamps come from a handful of minutes and counts per cell are
    small, so ties in count and in timestamp are common.
    """
    tweets = []
    for k in range(n_tweets):
        x, y = rng.uniform(-450.0, 450.0, size=2)
        if rng.random() < 0.5:
            x = 100.0 * round(x / 100.0)
        if rng.random() < 0.5:
            y = 100.0 * round(y / 100.0)
        lon = REF.lon + x / METERS_PER_DEG_LON
        lat = REF.lat + y / METERS_PER_DEG_LAT
        for _ in range(int(rng.integers(0, 3))):
            lon = math.nextafter(lon, math.inf if rng.random() < 0.5 else -math.inf)
            lat = math.nextafter(lat, math.inf if rng.random() < 0.5 else -math.inf)
        tweets.append(
            Tweet(
                id=f"t{int(rng.integers(10**6)):06d}-{k}",
                user_id=f"u{int(rng.integers(n_users))}",
                timestamp=EPOCH + timedelta(minutes=int(rng.integers(6))),
                location=GeoPoint(lat, lon),
                text="x",
            )
        )
    return tweets


def tied_users(corpus):
    """Users whose top count is shared by more than one cell."""
    counts = {}
    for t in corpus:
        key = (t.user_id, snap_to_grid(project(t.location, REF)))
        counts[key] = counts.get(key, 0) + 1
    top = {}
    for (user, _), n in counts.items():
        top[user] = max(top.get(user, 0), n)
    at_top = [user for (user, _), n in counts.items() if n == top[user]]
    return {user for user in at_top if at_top.count(user) > 1}


def test_infer_home_matches_scalar_oracle_on_random_corpora():
    rng = np.random.default_rng(37)
    ties = 0
    for _ in range(40):
        corpus = random_corpus(rng)
        assert infer_home_locations(corpus, REF) == oracle_homes(corpus, REF)
        ties += len(tied_users(corpus))
    assert ties > 100  # the tie rule ran
    for resolution in (1.0, 37.5, 250.0):
        corpus = random_corpus(rng)
        assert infer_home_locations(corpus, REF, resolution) == oracle_homes(corpus, REF, resolution)


def test_infer_home_cells_match_scalar_cells_next_to_edges():
    # One tweet per user, so each home is that tweet's cell. Walking the
    # coordinate ulp by ulp across every cell edge near a frame origin at
    # longitude or latitude 0 (where the coordinate steps are finer than
    # the planar ulp) reaches points within an ulp of the edge on both
    # sides, where any other order of operations changes some cells.
    for ref in (GeoPoint(53.5, 0.0), GeoPoint(-33.9, 0.0), GeoPoint(0.0, 0.0)):
        m_per_deg_lon = EARTH_RADIUS_M * math.cos(math.radians(ref.lat)) * math.pi / 180.0
        m_per_deg_lat = EARTH_RADIUS_M * math.pi / 180.0
        for resolution in (100.0, 37.5):
            corpus = []
            for k in range(-20, 21):
                for direction in (math.inf, -math.inf):
                    lon = ref.lon + resolution * k / m_per_deg_lon
                    lat = ref.lat - resolution * k / m_per_deg_lat
                    for _ in range(40):
                        corpus.append(
                            Tweet(f"t{len(corpus)}", f"u{len(corpus)}", EPOCH, GeoPoint(lat, lon), "x")
                        )
                        lon = math.nextafter(lon, direction)
                        lat = math.nextafter(lat, -direction)
            homes = infer_home_locations(corpus, ref, resolution)
            assert homes == oracle_homes(corpus, ref, resolution)
            assert {h.cell.ix for h in homes} >= set(range(-21, 21))


def test_infer_home_timestamp_tie_goes_to_smaller_id():
    # two cells tie at one tweet each, posted in the same minute
    corpus = [
        Tweet("id-2", "u", EPOCH, GeoPoint(REF.lat + 0.005, REF.lon + 0.005), "x"),
        Tweet("id-1", "u", EPOCH, GeoPoint(REF.lat + 0.010, REF.lon + 0.010), "x"),
    ]
    (home,) = infer_home_locations(corpus, REF)
    assert home == oracle_homes(corpus, REF)[0]
    assert home.cell == snap_to_grid(project(corpus[1].location, REF))


def test_infer_home_rejects_out_of_frame_tweet():
    corpus = [
        Tweet("a", "u", EPOCH, GeoPoint(REF.lat, REF.lon), "x"),
        Tweet("b", "v", EPOCH, GeoPoint(REF.lat + 6.0, REF.lon), "x"),
    ]
    with pytest.raises(InvalidCoordinateError):
        infer_home_locations(corpus, REF)


def box(zid, x0, x1, y0, y1, holes=()):
    ring = (PlanarPoint(x0, y0), PlanarPoint(x1, y0), PlanarPoint(x1, y1), PlanarPoint(x0, y1))
    return make_zone(zid, 53.8, -1.5, boundary=PolygonM(exterior=ring, holes=holes))


def zone_system():
    """Zones whose edges pass through cell centres (x, y = 100 k + 50).

    A 3 x 2 block of squares shares edges and vertices at centres; one
    square has a hole holding one centre; one zone's right edge sits 5e-12 m
    short of a centre column (outside its vertices, within the 1e-9 m^2
    edge tolerance of a 100 m edge); one repeats a vertex.
    """
    zones = [
        box(f"b{i}{j}", 50.0 + 200.0 * i, 250.0 + 200.0 * i, 50.0 + 200.0 * j, 250.0 + 200.0 * j)
        for j in range(2)
        for i in range(3)
    ]
    hole = (PlanarPoint(1020.0, 120.0), PlanarPoint(1080.0, 120.0),
            PlanarPoint(1080.0, 180.0), PlanarPoint(1020.0, 180.0))
    zones.append(box("holed", 950.0, 1150.0, 50.0, 250.0, holes=(hole,)))
    edge = 1450.0 - 5e-12
    zones.append(box("short", 1250.0, edge, 100.0, 200.0))
    repeated = (PlanarPoint(1550.0, 50.0), PlanarPoint(1750.0, 50.0), PlanarPoint(1750.0, 50.0),
                PlanarPoint(1750.0, 250.0), PlanarPoint(1550.0, 250.0))
    zones.append(make_zone("repeated", 53.8, -1.5, boundary=PolygonM(exterior=repeated)))
    return zones


def test_assign_home_zone_matches_brute_force():
    zones = zone_system()
    short_center = GridCell(14, 1).center()
    assert short_center.x > max(v.x for v in zones[7].boundary.exterior)
    assert point_in_polygon(short_center, zones[7].boundary)

    rng = np.random.default_rng(41)
    cells = [GridCell(int(ix), int(iy)) for ix, iy in rng.integers(-2, 20, size=(60, 2))]
    cells += [GridCell(ix, iy) for ix in (0, 2, 4, 6, 10, 14, 15, 17, 18, 30) for iy in (0, 1, 2, 4)]
    homes = [
        UserHome(f"u{k:03d}", cells[int(rng.integers(len(cells)))], int(rng.integers(1, 5)))
        for k in range(400)
    ]
    homes += [UserHome(f"c{k:03d}", cell, 1) for k, cell in enumerate(cells)]
    got = assign_home_zone(homes, zones)
    assert got == oracle_zones(homes, zones)
    zone_of = {h.cell: h.zone_id for h in got}
    assert zone_of[GridCell(14, 1)] == "short"
    assert zone_of[GridCell(10, 1)] is None  # in the hole
    assert zone_of[GridCell(2, 2)] == "b00"  # a vertex shared by four squares
    assert zone_of[GridCell(30, 4)] is None  # outside every zone
    assert zone_of[GridCell(17, 0)] == "repeated"
    assert zone_of[GridCell(15, 4)] is None


def test_assign_home_zone_ambiguity_names_first_offending_user():
    zones = [box("a", 0.0, 400.0, 0.0, 300.0), box("b", 250.0, 600.0, 0.0, 300.0)]
    homes = [
        UserHome("first", GridCell(0, 1), 1),  # only in a
        UserHome("second", GridCell(3, 1), 2),  # strictly inside both
        UserHome("third", GridCell(3, 1), 1),
        UserHome("fourth", GridCell(2, 1), 1),  # on b's edge, inside a
    ]
    with pytest.raises(AmbiguousZoneError) as expected:
        oracle_zones(homes, zones)
    with pytest.raises(AmbiguousZoneError) as got:
        assign_home_zone(homes, zones)
    assert str(got.value) == str(expected.value)
    assert "second" in str(got.value)
    assert assign_home_zone([homes[0], homes[3]], zones) == oracle_zones([homes[0], homes[3]], zones)


PERMUTED_CORPUS = random_corpus(np.random.default_rng(43), n_users=12, n_tweets=120)
PERMUTED_ZONES = zone_system()
PERMUTED_HOMES = assign_home_zone(infer_home_locations(PERMUTED_CORPUS, REF), PERMUTED_ZONES)


@settings(max_examples=25, deadline=None)
@given(st.permutations(PERMUTED_CORPUS))
def test_homes_are_invariant_to_corpus_order(corpus):
    homes = assign_home_zone(infer_home_locations(corpus, REF), PERMUTED_ZONES)
    assert homes == PERMUTED_HOMES
