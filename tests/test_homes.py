"""Home location: the array modal-cell inference and the zone assignment,
each against scalar oracles.

The oracles are the per-tweet and per-zone loops the fast paths replaced:
``project`` + ``snap_to_grid`` + a dict of cells per user, every home
tested against every zone with no box and no cache, and the per-cell
resolution through ``scalar_geometry._zone_containing``.
"""

import math
import sys
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from conftest import assert_same_outcome, containment_box, home_rows, make_homes, make_museum, make_zone, outcome
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scalar_geometry import _zone_containing, point_in_polygon, point_on_boundary

from museumflows import pipeline
from museumflows.errors import AmbiguousZoneError, InvalidCoordinateError, InvalidParameterError
from museumflows.geometry import (
    EARTH_RADIUS_M,
    GRID_RESOLUTION_M,
    MAX_FRAME_DEGREES,
    GeoPoint,
    GridCell,
    PlanarPoint,
    PolygonM,
    project,
    project_arrays,
    snap_to_grid,
)
from museumflows.pipeline import (
    DEFAULT_KEYWORDS,
    Corpus,
    Homes,
    StageCount,
    Tweet,
    UserHome,
    assign_home_zone,
    build_observed_matrix,
    infer_home_locations,
    run_pipeline,
)
from museumflows.fileio import read_tweets, write_tweets
from museumflows.sim import Deterrence, ModelSpec
from museumflows.synth import SynthConfig, demo_region, generate_corpus

REF = GeoPoint(53.5, -2.5)
EPOCH = datetime(2013, 6, 1, 12, 0, 0, tzinfo=timezone.utc)
METERS_PER_DEG_LON = EARTH_RADIUS_M * math.cos(math.radians(REF.lat)) * math.pi / 180.0
METERS_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0


def oracle_homes(corpus, ref):
    """Scalar modal cell per user; ties to the earliest (timestamp, id)."""
    by_user = {}
    for t in corpus:
        by_user.setdefault(t.user_id, []).append(t)
    homes = []
    for user_id, tweets in by_user.items():
        cells = {}
        for t in tweets:
            cells.setdefault(snap_to_grid(project(t.location, ref)), []).append(t)
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


def oracle_zones_by_cell(homes, zones):
    """The per-cell resolution: each distinct cell once, in the order of its first home, against the
    zones whose containment box holds its center, by the scalar ``_zone_containing``."""
    boxes = [(k, z, containment_box(z.boundary)) for k, z in enumerate(zones)]
    zone_of = {}
    for home in homes:
        if home.cell not in zone_of:
            c = home.cell.center()
            in_box = [(k, z) for k, z, (x0, y0, x1, y1) in boxes if x0 <= c.x <= x1 and y0 <= c.y <= y1]
            zone_of[home.cell] = _zone_containing(c, in_box, home.user_id)
    return [
        UserHome(h.user_id, h.cell, h.tweet_count_at_cell, None if zone_of[h.cell] < 0 else zones[zone_of[h.cell]].id)
        for h in homes
    ]


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
    return Corpus.from_tweets(tweets)


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
        assert list(infer_home_locations(corpus, REF)) == oracle_homes(corpus, REF)
        ties += len(tied_users(corpus))
    assert ties > 100  # the tie rule ran


def test_infer_home_cells_match_scalar_cells_next_to_edges():
    # One tweet per user, so each home is that tweet's cell. Walking the
    # coordinate ulp by ulp across every cell edge near a frame origin at
    # longitude or latitude 0 (where the coordinate steps are finer than
    # the planar ulp) reaches points within an ulp of the edge on both
    # sides, where any other order of operations changes some cells.
    for ref in (GeoPoint(53.5, 0.0), GeoPoint(-33.9, 0.0), GeoPoint(0.0, 0.0)):
        m_per_deg_lon = EARTH_RADIUS_M * math.cos(math.radians(ref.lat)) * math.pi / 180.0
        m_per_deg_lat = EARTH_RADIUS_M * math.pi / 180.0
        corpus = []
        for k in range(-20, 21):
            for direction in (math.inf, -math.inf):
                lon = ref.lon + GRID_RESOLUTION_M * k / m_per_deg_lon
                lat = ref.lat - GRID_RESOLUTION_M * k / m_per_deg_lat
                for _ in range(40):
                    corpus.append(
                        Tweet(f"t{len(corpus)}", f"u{len(corpus)}", EPOCH, GeoPoint(lat, lon), "x")
                    )
                    lon = math.nextafter(lon, direction)
                    lat = math.nextafter(lat, -direction)
        homes = infer_home_locations(Corpus.from_tweets(corpus), ref)
        assert list(homes) == oracle_homes(corpus, ref)
        assert {h.cell.ix for h in homes} >= set(range(-21, 21))


def test_infer_home_timestamp_tie_goes_to_smaller_id():
    # two cells tie at one tweet each, posted in the same minute
    corpus = Corpus.from_tweets([
        Tweet("id-2", "u", EPOCH, GeoPoint(REF.lat + 0.005, REF.lon + 0.005), "x"),
        Tweet("id-1", "u", EPOCH, GeoPoint(REF.lat + 0.010, REF.lon + 0.010), "x"),
    ])
    (home,) = infer_home_locations(corpus, REF)
    assert home == oracle_homes(corpus, REF)[0]
    assert home.cell == snap_to_grid(project(GeoPoint(corpus.lat[1], corpus.lon[1]), REF))


def test_infer_home_rejects_out_of_frame_tweet():
    corpus = Corpus.from_tweets([
        Tweet("a", "u", EPOCH, GeoPoint(REF.lat, REF.lon), "x"),
        Tweet("b", "v", EPOCH, GeoPoint(REF.lat + 6.0, REF.lon), "x"),
    ])
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
    got = assign_home_zone(make_homes(homes), zones)
    assert list(got) == oracle_zones(homes, zones)
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
        assign_home_zone(make_homes(homes), zones)
    assert str(got.value) == str(expected.value)
    assert "second" in str(got.value)
    unambiguous = [homes[0], homes[3]]
    assert list(assign_home_zone(make_homes(unambiguous), zones)) == oracle_zones(unambiguous, zones)
    # the first user in an ambiguous cell is named, whatever the cells' order
    later_cell = [UserHome("early", GridCell(3, 2), 1)] + homes  # after (3, 1) in (ix, iy) order
    with pytest.raises(AmbiguousZoneError, match="home of early strictly"):
        assign_home_zone(make_homes(later_cell), zones)


RECTS = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 4), st.integers(1, 4), st.sampled_from((0.0, 25.0)))


@settings(max_examples=150, deadline=None)
@given(st.lists(RECTS, min_size=1, max_size=5), st.lists(st.tuples(st.integers(-1, 10), st.integers(-1, 10)), min_size=1, max_size=40))
@example([(0, 0, 5, 5, 0.0), (1, 1, 5, 5, 0.0)], [(9, 9), (4, 2), (2, 4), (1, 1)])  # u01 named, not u02
def test_assign_home_zone_matches_the_per_cell_resolution(rects, cells):
    # overlapping rectangles whose edges run through cell centres or 25 m off
    # them: shared edges, strict overlaps and centres outside every zone
    zones = [
        box(f"r{k}", 50.0 + 100.0 * i + off, 50.0 + 100.0 * (i + w), 50.0 + 100.0 * j + off, 50.0 + 100.0 * (j + h))
        for k, (i, j, w, h, off) in enumerate(rects)
    ]
    homes = [UserHome(f"u{k:02d}", GridCell(ix, iy), 1) for k, (ix, iy) in enumerate(cells)]
    got = outcome(lambda: list(assign_home_zone(make_homes(homes), zones)))
    expected = outcome(oracle_zones_by_cell, homes, zones)
    if assert_same_outcome(got, expected):
        assert got[1] == expected[1]


PERMUTED_CORPUS = random_corpus(np.random.default_rng(43), n_users=12, n_tweets=120)
PERMUTED_ZONES = zone_system()
PERMUTED_HOMES = assign_home_zone(infer_home_locations(PERMUTED_CORPUS, REF), PERMUTED_ZONES)


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(PERMUTED_CORPUS)))
def test_homes_are_invariant_to_corpus_order(tweets):
    # built anew, so user codes follow each order
    homes = assign_home_zone(infer_home_locations(Corpus.from_tweets(tweets), REF), PERMUTED_ZONES)
    assert home_rows(homes) == home_rows(PERMUTED_HOMES)


def cell_center(ix, iy):
    """A point that projects to the centre of cell (ix, iy) of the 100 m grid."""
    return GeoPoint(REF.lat + (iy + 0.5) * 100.0 / METERS_PER_DEG_LAT, REF.lon + (ix + 0.5) * 100.0 / METERS_PER_DEG_LON)


# (user, cell, minutes after EPOCH). Users first appear out of name order,
# non-ASCII names sorting after "z"; "b" ties two cells at the same minute
# (the smaller id wins) and "ö" at different minutes (the earlier wins, in
# the cell of the "short" zone); (2, 1) and (4, 2) sit on shared zone
# edges, (30, 4) outside every zone.
HOME_PLAN = [
    ("zoë", (1, 1), 0), ("b", (2, 1), 0), ("Ärzte", (30, 4), 0), ("a", (4, 2), 3), ("b", (1, 3), 0),
    ("zoë", (1, 1), 1), ("a", (2, 1), 5), ("ö", (6, 1), 9), ("ö", (14, 1), 2), ("a", (4, 2), 4),
]
HOME_CORPUS = Corpus.from_tweets([
    Tweet(f"t{k}", user, EPOCH + timedelta(minutes=minute), cell_center(*cell), "museum")
    for k, (user, cell, minute) in enumerate(HOME_PLAN)
])


def test_homes_rows_are_the_scalar_oracles_rows():
    zones = zone_system()
    homes = assign_home_zone(infer_home_locations(HOME_CORPUS, REF), zones)
    assert isinstance(homes, Homes) and homes.users is HOME_CORPUS.users
    assert list(HOME_CORPUS.users) != sorted(HOME_CORPUS.users)  # codes out of name order
    expected = oracle_zones(oracle_homes(HOME_CORPUS, REF), zones)
    assert list(homes) == expected
    assert [h.user_id for h in homes] == ["a", "b", "zoë", "Ärzte", "ö"]
    zone_of = {h.user_id: h.zone_id for h in homes}
    assert zone_of == {"a": "b10", "b": "b00", "zoë": "b00", "Ärzte": None, "ö": "short"}
    zone_ids = [z.id for z in zones]
    assert homes.zone.tolist() == [zone_ids.index(zone_of[h.user_id]) if zone_of[h.user_id] else -1 for h in homes]


def test_observed_matrix_needs_homes_over_the_corpus_users_table(tmp_path):
    zones = zone_system()
    museums = [make_museum("m0", REF.lat + 0.001, REF.lon + 0.002), make_museum("m1", REF.lat + 0.003, REF.lon + 0.02)]
    homes = assign_home_zone(infer_home_locations(HOME_CORPUS, REF), zones)
    museum_rows = [0, 1, 2, 3, 6, 7]
    matrix, entry = build_observed_matrix(HOME_CORPUS.take(museum_rows), homes, zones, museums)
    assert matrix.total() == 5  # Ärzte has no zone
    # the same rows read twice: equal tables, so the codes mean the same users
    path = tmp_path / "corpus.ndjson"
    write_tweets(HOME_CORPUS, path)
    first, second = read_tweets(path), read_tweets(path)
    assert first.users is not second.users
    again, again_entry = build_observed_matrix(
        second.take(museum_rows), assign_home_zone(infer_home_locations(first, REF), zones), zones, museums
    )
    assert np.array_equal(again.values, matrix.values) and again_entry == entry
    # the same rows in another order: another table, where a code names another user
    write_tweets(HOME_CORPUS.take(np.arange(len(HOME_CORPUS))[::-1]), path)
    reordered = read_tweets(path)
    assert reordered.users != HOME_CORPUS.users
    with pytest.raises(InvalidParameterError, match="users table"):
        build_observed_matrix(reordered, homes, zones, museums)


def test_a_home_in_a_zone_left_out_of_the_aggregate_counts_but_fills_no_cell():
    zones = zone_system()
    three = [zones[0], zones[1], zones[7]]  # b00, b10 and short
    museums = [make_museum("m0", REF.lat + 0.001, REF.lon + 0.002), make_museum("m1", REF.lat + 0.003, REF.lon + 0.02)]
    homes = assign_home_zone(infer_home_locations(HOME_CORPUS, REF), three)
    assert {h.user_id: h.zone_id for h in homes}["ö"] == "short"
    full, full_entry = build_observed_matrix(HOME_CORPUS, homes, three, museums)
    matrix, entry = build_observed_matrix(HOME_CORPUS, homes, three[:2], museums)
    assert full.values[2].sum() == 2  # ö's two tweets
    assert matrix.origin_ids == ("b00", "b10") and np.array_equal(matrix.values, full.values[:2])
    # ö and its tweets count in the stage entry as they do over all three zones
    zoned = [h.user_id for h in homes if h.zone_id is not None]
    assert "ö" in zoned
    assert entry == full_entry == StageCount("aggregate", len(HOME_CORPUS), full.total(), len(zoned))
    assert entry.tweets_out == matrix.total() + 2


def frame_corner_tweets(rng, n_users):
    """Tweets within 300 m of the four corners of the 5-degree frame, half of them on a cell edge nudged by ulps.

    Each of ``n_users`` users tweets at several corners, in a handful of
    minutes, so counts and timestamps tie, and each user's cells span the
    frame: the packed (user, cell) key takes its widest values.
    """
    tweets = []
    for k in range(600):
        slat, slon = rng.choice([-1.0, 1.0], size=2)
        x = slon * (MAX_FRAME_DEGREES * METERS_PER_DEG_LON - rng.uniform(0.0, 300.0))
        y = slat * (MAX_FRAME_DEGREES * METERS_PER_DEG_LAT - rng.uniform(0.0, 300.0))
        if rng.random() < 0.5:
            x = 100.0 * math.trunc(x / 100.0)
        if rng.random() < 0.5:
            y = 100.0 * math.trunc(y / 100.0)
        lon, lat = REF.lon + x / METERS_PER_DEG_LON, REF.lat + y / METERS_PER_DEG_LAT
        for _ in range(int(rng.integers(0, 3))):
            lon = math.nextafter(lon, math.inf if rng.random() < 0.5 else -math.inf)
            lat = math.nextafter(lat, math.inf if rng.random() < 0.5 else -math.inf)
        while abs(lon - REF.lon) > MAX_FRAME_DEGREES:
            lon = math.nextafter(lon, REF.lon)
        while abs(lat - REF.lat) > MAX_FRAME_DEGREES:
            lat = math.nextafter(lat, REF.lat)
        minute = timedelta(minutes=int(rng.integers(4)))
        tweets.append(Tweet(f"c{k:03d}", f"corner{int(rng.integers(n_users))}", EPOCH + minute, GeoPoint(lat, lon), "x"))
    return tweets


def test_packed_cell_keys_hold_at_the_frame_corners():
    # Users first seen after 3,000 others, so their codes are in the thousands,
    # with cells at the corners of the frame, where the cell indices are widest.
    rng = np.random.default_rng(53)
    fillers = [Tweet(f"f{k}", f"filler{k:04d}", EPOCH, cell_center(k % 60, k // 60), "x") for k in range(3000)]
    corpus = Corpus.from_tweets(fillers + frame_corner_tweets(rng, 40))
    homes = infer_home_locations(corpus, REF)
    assert list(homes) == oracle_homes(corpus, REF)
    corner = homes.user >= 3000
    assert corner.sum() == 40
    assert np.ptp(homes.ix[corner]) > 2 * MAX_FRAME_DEGREES * METERS_PER_DEG_LON / GRID_RESOLUTION_M - 10
    assert np.ptp(homes.iy[corner]) > 2 * MAX_FRAME_DEGREES * METERS_PER_DEG_LAT / GRID_RESOLUTION_M - 10
    # 3 x 3 squares at each corner, their edges through cell centres, and a
    # home in every cell whose centre they hold, the frame's extreme cells too
    zones, every_cell = [], []
    for ix0 in (homes.ix[corner].min() - 1, homes.ix[corner].max() - 4):
        for iy0 in (homes.iy[corner].min() - 1, homes.iy[corner].max() - 4):
            zones += [
                box(f"z{ix0}/{iy0}/{i}{j}", 50.0 + 100.0 * (ix0 + 2 * i), 50.0 + 100.0 * (ix0 + 2 * i + 2),
                    50.0 + 100.0 * (iy0 + 2 * j), 50.0 + 100.0 * (iy0 + 2 * j + 2))
                for i in range(3) for j in range(3)
            ]
            every_cell += [GridCell(int(ix0) + i, int(iy0) + j) for i in range(7) for j in range(7)]
    got = list(assign_home_zone(homes, zones))
    assert got == oracle_zones_by_cell(list(homes), zones)
    assert sum(h.zone_id is not None for h in got) > 30
    dense = [UserHome(f"d{k:03d}", cell, 1) for k, cell in enumerate(every_cell)]
    assert list(assign_home_zone(make_homes(dense), zones)) == oracle_zones_by_cell(dense, zones)


@pytest.mark.parametrize("cells", [
    [(4, iy) for iy in range(-3, 4)],
    [(ix, -6) for ix in range(-3, 4)],
    [(2, 5)],
    [(ix, iy) for ix in range(-9, -6) for iy in range(-8, -5)],
], ids=["one-column", "one-row-of-cells", "one-cell", "west-and-south-of-the-reference"])
def test_packed_cell_keys_decode_at_degenerate_spans(cells):
    # Home cells are read back from packed (user, cell) keys over the box of
    # every cell: a box one cell wide, one high, or both, and cells of
    # negative index, each over a corpus of 60 rows and of its first row only.
    rng = np.random.default_rng(len(cells))
    tweets = [
        Tweet(f"t{k:02d}", f"u{int(rng.integers(6))}", EPOCH + timedelta(minutes=int(rng.integers(3))),
              cell_center(*cells[int(rng.integers(len(cells)))]), "x")
        for k in range(60)
    ]
    for corpus in (Corpus.from_tweets(tweets), Corpus.from_tweets(tweets[:1])):
        assert list(infer_home_locations(corpus, REF)) == oracle_homes(corpus, REF)


@pytest.fixture(scope="module")
def generated_corpus(tmp_path_factory):
    """The 20,000-row generated file of the reader's memory guard, and its region."""
    region = demo_region(20, 5, seed=7)
    cfg = SynthConfig(true_spec=ModelSpec(deterrence=Deterrence("exponential", 0.95)), n_trips=5000, noise=0.2, seed=3)
    corpus, _ = generate_corpus(region.zones, region.museums, cfg, region.ref)
    path = tmp_path_factory.mktemp("generated") / "t.ndjson"
    write_tweets(corpus.take(np.arange(20_000)), path)
    return path, region


def traced(fn, *args):
    """(result, memory held after, peak): what ``fn(*args)`` allocated, traced, over what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_home_inference_holds_little_beside_the_corpus(generated_corpus):
    # The cells are folded into the packed key in place, the row-sized sorted
    # key goes once the runs are read, and the homes are read back from the
    # run keys: the peak stays a small share of the corpus, as flows reads it.
    path, region = generated_corpus
    corpus, kept, _ = traced(read_tweets, path, DEFAULT_KEYWORDS)
    _, _, peak = traced(infer_home_locations, corpus, region.ref)
    assert peak <= 0.3 * kept, (peak, kept)


def test_the_frame_test_allocates_no_float_column_beside_the_projection(generated_corpus):
    # project_arrays holds two difference columns, which become x and y. The
    # frame test compares them into bool arrays; np.abs of each made a float
    # column of its own, for a peak of 3.25 row columns where 2.38 remain.
    path, region = generated_corpus
    corpus = read_tweets(path, DEFAULT_KEYWORDS)
    _, _, peak = traced(project_arrays, corpus.lat, corpus.lon, region.ref)
    assert peak <= 2.5 * corpus.lat.nbytes, peak / corpus.lat.nbytes


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before 3.11 the caller's evaluation stack holds a call's arguments until the call returns",
)
def test_the_stages_after_the_semantic_one_hold_no_row_it_dropped(generated_corpus, monkeypatch):
    # A corpus no caller names is named only by run_pipeline, which rebinds
    # that name to each stage's survivors: once the semantic stage returns,
    # the rows it dropped are freed before dedup, the next stage here, runs.
    path, region = generated_corpus
    _, kept, _ = traced(read_tweets, path, DEFAULT_KEYWORDS)
    at_dedup, dedup = [], pipeline.dedup
    monkeypatch.setattr(pipeline, "dedup", lambda corpus: at_dedup.append(tracemalloc.get_traced_memory()[0]) or dedup(corpus))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_pipeline(read_tweets(path, DEFAULT_KEYWORDS), region.zones, region.museums, region.ref)
    finally:
        tracemalloc.stop()
    assert at_dedup[0] - before < 0.5 * kept, (at_dedup[0] - before, kept)
