"""Corpus pipeline tests.

Fixtures are small enough that every expected count in here was tallied by
hand; the nearest-museum assignment is also checked against an exhaustive
scan oracle.
"""

import math
from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest
from conftest import corpus_columns, home_rows, make_homes, make_museum, make_zone

from museumflows.errors import (
    AmbiguousZoneError,
    EmptyInputError,
    InvalidAttributeError,
    InvalidCoordinateError,
    InvalidGeometryError,
    InvalidParameterError,
)
from museumflows.geometry import (
    GeoPoint,
    GridCell,
    PlanarPoint,
    PolygonM,
    haversine_km,
    project,
    unproject,
)
from museumflows import pipeline
from museumflows.pipeline import (
    Corpus,
    StageCount,
    TaggedFeature,
    Tweet,
    UserHome,
    assign_home_zone,
    build_observed_matrix,
    corpus_frame,
    dedup,
    extract_museums,
    infer_home_locations,
    remove_automated_accounts,
    remove_checkins,
    run_pipeline,
    semantic_filter,
    spatial_filter,
    tokenize,
)
from museumflows.sim import Zone

REF = GeoPoint(53.5, -2.5)
EPOCH = datetime(2013, 6, 1, 12, 0, 0, tzinfo=timezone.utc)

_seq = iter(range(10**6))


def tw(user, lat, lon, text, minute=None, source=None, tid=None):
    k = next(_seq)
    return Tweet(
        id=tid or f"tw{k:06d}",
        user_id=user,
        timestamp=EPOCH + timedelta(minutes=k if minute is None else minute),
        location=GeoPoint(lat, lon),
        text=text,
        source=source,
    )


def at_planar(user, x, y, text, **kw):
    p = unproject(PlanarPoint(x, y), REF)
    return tw(user, p.lat, p.lon, text, **kw)


def box_zone(zid, lat0, lat1, lon0, lon1, population=1000.0):
    ring = tuple(
        project(GeoPoint(la, lo), REF)
        for la, lo in ((lat0, lon0), (lat0, lon1), (lat1, lon1), (lat1, lon0))
    )
    return Zone(
        id=zid,
        name=f"zone {zid}",
        centroid=GeoPoint((lat0 + lat1) / 2, (lon0 + lon1) / 2),
        population=population,
        boundary=PolygonM(exterior=ring),
    )


def planar_zone(zid, x0, x1, y0, y1):
    ring = (PlanarPoint(x0, y0), PlanarPoint(x1, y0), PlanarPoint(x1, y1), PlanarPoint(x0, y1))
    return Zone(
        id=zid,
        name=f"zone {zid}",
        centroid=unproject(PlanarPoint((x0 + x1) / 2, (y0 + y1) / 2), REF),
        population=1000.0,
        boundary=PolygonM(exterior=ring),
    )


def square_at(x, y, half):
    return PolygonM(
        exterior=(
            PlanarPoint(x - half, y - half),
            PlanarPoint(x + half, y - half),
            PlanarPoint(x + half, y + half),
            PlanarPoint(x - half, y + half),
        )
    )


def test_tokenize():
    assert tokenize("Joust time!") == ["Joust", "time"]
    assert tokenize("at a museum; great") == ["museum", "great"]
    assert tokenize("") == []
    assert tokenize("a.bb,ccc!dd?eee:f;gg hi jkl") == ["ccc", "eee", "jkl"]
    assert tokenize("MiXeD CaSe KePt") == ["MiXeD", "CaSe", "KePt"]


def test_tweet_validation():
    with pytest.raises(InvalidAttributeError):
        tw("", 53.8, -1.5, "hello museum")
    with pytest.raises(InvalidAttributeError):
        tw("u1", 53.8, -1.5, "x" * 281)
    with pytest.raises(InvalidAttributeError):
        StageCount("s", 5, 6, 1)
    with pytest.raises(InvalidAttributeError):
        UserHome("u", GridCell(0, 0), 0)


def test_message_fields_that_are_not_strings_are_rejected():
    # an int id or source used to be written as a JSON number, and read back as a string
    for user, text, tid, source in [
        ("u1", "hi", 5, None), (7, "hi", "t1", None), ("u1", b"hi", "t1", None), ("u1", "hi", "t1", 7), ("u1", "hi", "t1", b"web"),
    ]:
        with pytest.raises(InvalidAttributeError, match="must be str"):
            tw(user, 53.8, -1.5, text, tid=tid, source=source)
    assert tw("u1", 53.8, -1.5, "hi", source="").source == ""


def test_remove_automated_accounts():
    static = [at_planar("bot", 500.0, 500.0, f"update {i}") for i in range(12)]
    roaming = [at_planar("roamer", 500.0 * i, 0.0, f"hello {i} museum") for i in range(12)]
    quiet = [at_planar("quiet", 500.0, 500.0, f"note {i}") for i in range(5)]
    corpus = Corpus.from_tweets(static + roaming + quiet)
    with mock.patch.object(pipeline, "ACTIVITY_THRESHOLD", 10):
        out, entry = remove_automated_accounts(corpus, REF)
    assert {t.user_id for t in out} == {"roamer", "quiet"}
    assert entry.stage == "bot-removal"
    assert (entry.tweets_in, entry.tweets_out, entry.users_remaining) == (29, 17, 2)


def test_remove_automated_accounts_default_threshold():
    heavy = [at_planar("h", 100.0, 100.0, f"n {i}") for i in range(1001)]
    light = [at_planar("l", 100.0, 100.0, "only one")]
    out, _ = remove_automated_accounts(Corpus.from_tweets(heavy + light), REF)
    assert {t.user_id for t in out} == {"l"}


def test_semantic_filter():
    kept1 = tw("u1", 53.8, -1.5, "Visited the museum today")
    kept2 = tw("u1", 53.8, -1.5, "Two MUSEUMS in one day")
    kept3 = tw("u2", 53.8, -1.5, "new exhibitions opening")
    dropped1 = tw("u2", 53.8, -1.5, "amusement park rides")
    dropped2 = tw("u3", 53.8, -1.5, "nothing relevant here")
    out, entry = semantic_filter(Corpus.from_tweets([kept1, dropped1, kept2, kept3, dropped2]))
    assert [t.id for t in out] == [kept1.id, kept2.id, kept3.id]
    assert (entry.tweets_in, entry.tweets_out, entry.users_remaining) == (5, 3, 2)
    with pytest.raises(InvalidParameterError):
        semantic_filter(Corpus.from_tweets([kept1]), keywords=())


def test_spatial_filter():
    museum = make_museum("m0", *_geo_of(1000.0, 1000.0))
    footprint = square_at(1000.0, 1000.0, 10.0)
    inside = at_planar("u", 1000.0, 1000.0, "at the museum")
    near = at_planar("u", 1019.0, 1000.0, "9 m out")
    far = at_planar("u", 1021.0, 1000.0, "11 m out")
    out, entry = spatial_filter(Corpus.from_tweets([inside, near, far]), [(museum, footprint)], REF, buffer_m=10.0)
    assert [t.id for t in out] == [inside.id, near.id]
    assert entry.stage == "spatial"
    with pytest.raises(InvalidParameterError):
        spatial_filter(Corpus.from_tweets([]), [(museum, footprint)], REF, buffer_m=-1.0)


def _geo_of(x, y):
    p = unproject(PlanarPoint(x, y), REF)
    return p.lat, p.lon


def test_dedup_exact_and_url_variants():
    a1 = tw("u1", 53.8, -1.5, "Lovely museum day", minute=0)
    a2 = tw("u1", 53.8, -1.5, "Lovely museum day", minute=5)
    a3 = tw("u1", 53.8, -1.5, "Lovely museum day http://t.co/abc123", minute=3)
    b1 = tw("u2", 53.8, -1.5, "Lovely museum day", minute=1)
    out, entry = dedup(Corpus.from_tweets([a2, a3, a1, b1]))
    # u1 collapses to the earliest (a1); u2 keeps its own copy
    assert {t.id for t in out} == {a1.id, b1.id}
    assert (entry.tweets_in, entry.tweets_out) == (4, 2)


def test_dedup_preserves_order_and_is_idempotent():
    tweets = [
        tw("u1", 53.8, -1.5, "first museum", minute=0),
        tw("u2", 53.8, -1.5, "second gallery", minute=1),
        tw("u1", 53.8, -1.5, "first museum https://t.co/x", minute=2),
        tw("u1", 53.8, -1.5, "third exhibit", minute=3),
    ]
    once, _ = dedup(Corpus.from_tweets(tweets))
    assert [t.id for t in once] == [tweets[0].id, tweets[1].id, tweets[3].id]
    twice, entry = dedup(once)
    assert [t.id for t in twice] == [t.id for t in once]
    assert entry.tweets_in == entry.tweets_out


def test_remove_checkins():
    hit_text = tw("u1", 53.8, -1.5, "Joust time! (@ Royal Armouries) http://4sq.com/abc")
    hit_source = tw("u2", 53.8, -1.5, "at the museum", source="FourSquare for iPhone")
    clean = tw("u3", 53.8, -1.5, "I love this museum")
    out, entry = remove_checkins(Corpus.from_tweets([hit_text, hit_source, clean]))
    assert [t.id for t in out] == [clean.id]
    assert (entry.tweets_in, entry.tweets_out) == (3, 1)


def test_remove_checkins_tests_text_and_source_apart():
    # joined as "text source", the pattern "foursquare" would match across the seam
    split = tw("u1", 53.8, -1.5, "museum four", source="square")
    inside = tw("u2", 53.8, -1.5, "a foursquare page")
    out, entry = remove_checkins(Corpus.from_tweets([split, inside]))
    assert [t.id for t in out] == [split.id]
    assert (entry.tweets_in, entry.tweets_out) == (2, 1)


def test_filters_commute():
    corpus = Corpus.from_tweets([
        tw("u1", 53.8, -1.5, "museum day http://4sq.com/x"),
        tw("u1", 53.8, -1.5, "museum day again"),
        tw("u2", 53.8, -1.5, "lunch break", source="foursquare"),
        tw("u2", 53.8, -1.5, "gallery opening"),
    ])
    a, _ = semantic_filter(corpus)
    a, _ = remove_checkins(a)
    b, _ = remove_checkins(corpus)
    b, _ = semantic_filter(b)
    assert [t.id for t in a] == [t.id for t in b]


def test_infer_home_strict_mode():
    tweets = [at_planar("u", 150.0, 150.0, f"home {i}") for i in range(5)]
    tweets += [at_planar("u", 950.0, 950.0, f"away {i}") for i in range(3)]
    (home,) = infer_home_locations(Corpus.from_tweets(tweets), REF)
    assert (home.cell.ix, home.cell.iy) == (1, 1)
    assert home.tweet_count_at_cell == 5


def test_infer_home_of_an_empty_corpus_is_no_home():
    homes = infer_home_locations(Corpus.from_tweets([]), REF)
    assert len(homes) == 0 and homes.users == () and list(homes) == []


def test_infer_home_tie_earliest_among_tied():
    # cells A and B tie at 2; cell C holds the overall earliest tweet but is
    # not tied, so it cannot win
    c = at_planar("u", 950.0, 950.0, "earliest overall", minute=0)
    a1 = at_planar("u", 150.0, 150.0, "a first", minute=10)
    b1 = at_planar("u", 550.0, 550.0, "b first", minute=20)
    b2 = at_planar("u", 550.0, 550.0, "b second", minute=30)
    a2 = at_planar("u", 150.0, 150.0, "a second", minute=40)
    (home,) = infer_home_locations(Corpus.from_tweets([c, a1, b1, b2, a2]), REF)
    assert (home.cell.ix, home.cell.iy) == (1, 1)  # cell A holds minute-10
    assert home.tweet_count_at_cell == 2


def test_infer_home_singleton_and_permutation_invariance():
    single = [at_planar("solo", 250.0, 350.0, "one museum tweet")]
    (home,) = infer_home_locations(Corpus.from_tweets(single), REF)
    assert (home.cell.ix, home.cell.iy) == (2, 3)

    tweets = [
        at_planar("u1", 150.0, 150.0, "x", minute=0),
        at_planar("u1", 150.0, 150.0, "y", minute=1),
        at_planar("u2", 750.0, 150.0, "z", minute=2),
        at_planar("u1", 950.0, 950.0, "w", minute=3),
    ]
    forward = infer_home_locations(Corpus.from_tweets(tweets), REF)
    backward = infer_home_locations(Corpus.from_tweets(tweets[::-1]), REF)
    assert home_rows(forward) == home_rows(backward)


def test_assign_home_zone():
    z1 = planar_zone("z1", -100.0, 150.0, 0.0, 300.0)
    z2 = planar_zone("z2", 150.0, 400.0, 0.0, 300.0)
    homes = make_homes([
        UserHome("interior1", GridCell(0, 1), 1),   # center (50, 150) in z1
        UserHome("boundary", GridCell(1, 1), 1),    # center (150, 150) on the shared edge
        UserHome("interior2", GridCell(2, 1), 1),   # center (250, 150) in z2
        UserHome("outside", GridCell(9, 9), 1),     # center (950, 950) in neither
    ])
    out = assign_home_zone(homes, [z1, z2])
    assert [h.zone_id for h in out] == ["z1", "z1", "z2", None]

    overlapping = [planar_zone("a", 0.0, 200.0, 0.0, 300.0), planar_zone("b", 100.0, 300.0, 0.0, 300.0)]
    with pytest.raises(AmbiguousZoneError):
        assign_home_zone(make_homes([UserHome("deep", GridCell(1, 1), 1)]), overlapping)

    bare = make_zone("nb", 53.8, -1.5)
    with pytest.raises(InvalidGeometryError):
        assign_home_zone(homes, [bare])


def test_assign_nearest_museum():
    m_far = make_museum("aa", 53.90, -1.90)
    m_near = make_museum("bb", 53.80, -1.50)
    here = GeoPoint(53.80, -1.50)
    assert pipeline._nearest_museum(here, [m_far, m_near]) == "bb"

    # exactly symmetric longitude offsets tie; the smaller id wins
    left = make_museum("mB", 53.80, -1.75)
    right = make_museum("mA", 53.80, -1.25)
    assert pipeline._nearest_museum(here, [left, right]) == "mA"

    with pytest.raises(EmptyInputError):
        pipeline._nearest_museum(here, [])


def test_assign_nearest_museum_against_scan_oracle():
    museums = [make_museum(f"m{j}", 53.7 + 0.03 * j, -1.6 + 0.05 * j) for j in range(3)]
    probes = [GeoPoint(53.7 + 0.01 * k, -1.6 + 0.02 * k) for k in range(12)]
    for p in probes:
        dists = [haversine_km(p, m.location) for m in museums]
        expected = museums[dists.index(min(dists))].id
        assert pipeline._nearest_museum(p, museums) == expected


def test_build_observed_matrix():
    zones = [planar_zone("z1", 0.0, 200.0, 0.0, 200.0), planar_zone("z2", 200.0, 400.0, 0.0, 200.0)]
    museums = [make_museum("m1", 53.80, -1.50), make_museum("m2", 53.85, -1.00)]
    tweets = Corpus.from_tweets([
        tw("u1", 53.80, -1.50, "museum a"),
        tw("u1", 53.80, -1.50, "museum b"),
        tw("u2", 53.85, -1.00, "museum c"),
        tw("u3", 53.80, -1.50, "museum d"),  # unzoned home: reported, not counted
    ])
    homes = make_homes([
        UserHome("u1", GridCell(0, 0), 3, zone_id="z1"),
        UserHome("u2", GridCell(2, 0), 2, zone_id="z2"),
        UserHome("u3", GridCell(9, 9), 1, zone_id=None),
    ], tweets.users)
    matrix, entry = build_observed_matrix(tweets, homes, zones, museums)
    assert matrix.origin_ids == ("z1", "z2")
    assert matrix.destination_ids == ("m1", "m2")
    assert matrix.values.tolist() == [[2.0, 0.0], [0.0, 1.0]]
    assert matrix.total() == 3.0
    assert (entry.tweets_in, entry.tweets_out, entry.users_remaining) == (4, 3, 2)

    empty, entry0 = build_observed_matrix(tweets.take([]), homes, zones, museums)
    assert empty.total() == 0.0
    assert entry0.tweets_out == 0


def test_build_observed_matrix_without_museums():
    zones = [planar_zone("z1", 0.0, 200.0, 0.0, 200.0)]
    tweets = Corpus.from_tweets([tw("u1", 53.80, -1.50, "museum a"), tw("u2", 53.80, -1.50, "museum b")])
    zoned = make_homes([
        UserHome("u1", GridCell(0, 0), 3, zone_id="z1"),
        UserHome("u2", GridCell(9, 9), 1, zone_id=None),
    ], tweets.users)
    with pytest.raises(EmptyInputError, match="^no museums to assign$"):
        build_observed_matrix(tweets, zoned, zones, [])

    # no tweet has a zoned home, so none needs a museum
    unzoned = make_homes([
        UserHome("u1", GridCell(0, 0), 3, zone_id=None),
        UserHome("u2", GridCell(9, 9), 1, zone_id=None),
    ], tweets.users)
    matrix, entry = build_observed_matrix(tweets, unzoned, zones, [])
    assert (matrix.origin_ids, matrix.destination_ids, matrix.shape) == (("z1",), (), (1, 0))
    assert entry == StageCount("aggregate", 2, 0, 0)


def geo_ring(lat, lon, half_deg):
    return (
        GeoPoint(lat - half_deg, lon - half_deg),
        GeoPoint(lat - half_deg, lon + half_deg),
        GeoPoint(lat + half_deg, lon + half_deg),
        GeoPoint(lat + half_deg, lon - half_deg),
    )


def test_tagged_feature_needs_exactly_one_geometry_and_rings_of_three_vertices():
    ring = geo_ring(53.80, -1.50, 0.0005)
    for point, rings in ((GeoPoint(53.8, -1.5), (ring,)), (None, None)):
        with pytest.raises(InvalidGeometryError, match="^feature needs exactly one of point or rings$"):
            TaggedFeature(tags={}, point=point, rings=rings)
    for rings in ((ring[:2],), (ring, ring[:2]), ()):
        with pytest.raises(InvalidGeometryError, match="^polygon feature needs rings of >=3 vertices$"):
            TaggedFeature(tags={}, rings=rings)


def test_extract_museums_point_duplicating_polygon():
    poly = TaggedFeature(
        tags={"name": "City Museum", "tourism": "museum", "id": "cm"},
        rings=(geo_ring(53.80, -1.50, 0.0005),),
    )
    dup_point = TaggedFeature(tags={"name": "City Museum"}, point=GeoPoint(53.80, -1.50))
    hotel = TaggedFeature(tags={"name": "Grand Hotel", "tourism": "hotel"}, point=GeoPoint(53.81, -1.51))
    museums = extract_museums([poly, dup_point, hotel])
    assert len(museums) == 1
    assert museums[0].id == "cm"
    # equirectangular area of a ~0.001 x 0.001 degree box at this latitude
    side_m = 111194.9266 * 0.001
    expected = side_m * (side_m * math.cos(math.radians(53.80)))
    assert museums[0].floor_area_m2 == pytest.approx(expected, rel=0.01)


def test_extract_museums_merges_same_name_cluster():
    # five buildings of one museum, centroids about 40 m apart: a chain that
    # merges transitively within the 100 m radius
    parts = [
        TaggedFeature(
            tags={"name": "Industrial Museum", "tourism": "museum", "media_mentions": k},
            rings=(geo_ring(53.80, -1.50 + k * 0.0006, 0.0002),),
        )
        for k in range(5)
    ]
    museums = extract_museums(parts)
    assert len(museums) == 1
    assert museums[0].media_mentions == 4.0
    single = extract_museums([parts[0]])
    assert museums[0].floor_area_m2 == pytest.approx(5 * single[0].floor_area_m2, rel=1e-6)
    # far-apart namesakes stay separate
    far = TaggedFeature(
        tags={"name": "Industrial Museum", "tourism": "museum"},
        rings=(geo_ring(53.90, -1.50, 0.0002),),
    )
    assert len(extract_museums(parts + [far])) == 2


def test_extract_museums_gives_sites_in_the_order_of_their_first_feature():
    # D joins A and C, 160 m apart, into one chain; B is far from all three
    a = GeoPoint(53.80, -1.50)
    c, d = (unproject(PlanarPoint(x, 0.0), a) for x in (160.0, 80.0))
    b = GeoPoint(53.80, -1.40)
    features = [TaggedFeature(tags={"name": "Mill Museum"}, point=p) for p in (a, b, c, d)]
    assert haversine_km(a, c) > 0.1 >= max(haversine_km(a, d), haversine_km(c, d))
    first, second = extract_museums(features, merge_radius_m=100.0)
    assert (first.id, second.id) == ("museum-0", "museum-1")
    assert first.location == GeoPoint((a.lat + c.lat + d.lat) / 3, (a.lon + c.lon + d.lon) / 3)
    assert second.location == b


def test_extract_museums_rejects_a_tag_that_is_not_a_number():
    for tags in ({"media_mentions": "lots"}, {"floor_area_m2": "big"}, {"media_mentions": None}):
        feature = TaggedFeature(tags={"name": "City Museum", "id": "cm", **tags}, point=GeoPoint(53.8, -1.5))
        (key, value), = tags.items()
        with pytest.raises(InvalidAttributeError, match=f"^museum cm: {key} {value!r} is not a number$"):
            extract_museums([feature])


def test_extract_museums_checks_the_floor_area_tag_of_a_polygon_site():
    ring = geo_ring(53.80, -1.50, 0.0005)
    bad = TaggedFeature(tags={"name": "Coal Museum", "id": "c", "floor_area_m2": "big"}, rings=(ring,))
    with pytest.raises(InvalidAttributeError, match="^museum c: floor_area_m2 'big' is not a number$"):
        extract_museums([bad])
    # a numeric tag still gives way to the polygon's computed area
    tagged = TaggedFeature(tags={"name": "Coal Museum", "id": "c", "floor_area_m2": "5"}, rings=(ring,))
    (untagged,) = extract_museums([TaggedFeature(tags={"name": "Coal Museum", "id": "c"}, rings=(ring,))])
    assert extract_museums([tagged])[0].floor_area_m2 == untagged.floor_area_m2 != 5.0


def test_extract_museums_names_the_polygon_that_fails_its_frame_or_area_check():
    # named as read_tagged_features names the feature: by its id tag, else its index in the list
    point = TaggedFeature(tags={"tourism": "museum"}, point=GeoPoint(53.8, -1.5))
    flat = (GeoPoint(53.8, -1.5), GeoPoint(53.8, -1.49), GeoPoint(53.8, -1.48))
    wide = (GeoPoint(53.8, -1.5), GeoPoint(53.8, -1.49), GeoPoint(61.8, -1.49))
    with pytest.raises(InvalidGeometryError, match=r"^feature 'n1': polygon area must be positive, got 0\.0$"):
        extract_museums([TaggedFeature(tags={"tourism": "museum", "id": "n1"}, rings=(flat,))])
    with pytest.raises(InvalidCoordinateError, match=r"^feature 1: point \(61\.8, -1\.49\) more than 5\.0 degrees"):
        extract_museums([point, TaggedFeature(tags={"name": "Wide Museum"}, rings=(wide,))])


@pytest.mark.parametrize("bad", [math.nan, -1.0])
def test_nan_and_negative_parameters_are_rejected(bad):
    museum = make_museum("m0", *_geo_of(1000.0, 1000.0))
    corpus = Corpus.from_tweets([at_planar("u", 1000.0, 1000.0, "at the museum")])
    with pytest.raises(InvalidParameterError, match="buffer"):
        spatial_filter(corpus, [(museum, square_at(2000.0, 2000.0, 10.0))], REF, buffer_m=bad)
    with pytest.raises(InvalidParameterError, match="merge radius"):
        extract_museums([], merge_radius_m=bad)


def test_infinite_buffer_and_merge_radius_keep_everything_and_merge_all_namesakes():
    museum = make_museum("m0", *_geo_of(1000.0, 1000.0))
    corpus = Corpus.from_tweets([at_planar("u", 1000.0 + 10.0**k, 1000.0, f"{k}") for k in range(6)])
    out, _ = spatial_filter(corpus, [(museum, square_at(1000.0, 1000.0, 10.0))], REF, buffer_m=math.inf)
    assert corpus_columns(out) == corpus_columns(corpus)
    far = [TaggedFeature(tags={"name": "Far Museum"}, point=GeoPoint(53.0 + k, -1.5)) for k in range(3)]
    assert len(extract_museums(far, merge_radius_m=math.inf)) == 1


def test_extract_museums_name_keyword_and_tag_fallbacks():
    named = TaggedFeature(
        tags={"name": "Abbey House Museum", "id": "ah", "floor_area_m2": "1072", "media_mentions": "2"},
        point=GeoPoint(53.82, -1.60),
    )
    untagged = TaggedFeature(tags={"name": "Sculpture Gallery"}, point=GeoPoint(53.83, -1.61))
    museums = extract_museums([named, untagged])
    assert [m.id for m in museums] == ["ah"]  # "gallery" name alone does not qualify
    assert museums[0].floor_area_m2 == 1072.0
    assert museums[0].media_mentions == 2.0

    bare = TaggedFeature(tags={"name": "Tiny Museum"}, point=GeoPoint(53.84, -1.62))
    (m,) = extract_museums([bare])
    assert m.floor_area_m2 == 1.0  # fallback floor area
    assert m.location == GeoPoint(53.84, -1.62)


def test_run_pipeline_end_to_end():
    z_a = box_zone("zA", 53.70, 53.90, -1.20, -0.80)
    z_b = box_zone("zB", 53.70, 53.90, -1.70, -1.30)
    m1 = make_museum("m1", 53.80, -1.50)
    m2 = make_museum("m2", 53.80, -1.00)
    footprints = [
        (m1, square_at(*_planar_of(53.80, -1.50), 30.0)),
        (m2, square_at(*_planar_of(53.80, -1.00), 30.0)),
    ]
    corpus = []
    corpus += [at_planar("bot", 5000.0, 5000.0, f"auto {i}") for i in range(1001)]
    corpus += [tw("alice", 53.85, -0.90, f"home {i}", minute=i) for i in range(3)]
    corpus.append(tw("alice", 53.80, -1.50, "Lovely museum day", minute=10))
    corpus.append(tw("alice", 53.80, -1.50, "Lovely museum day http://t.co/zz", minute=11))
    corpus.append(tw("alice", 53.80, -1.00, "at the Museum (@ somewhere) http://4sq.com/q", minute=12))
    corpus += [tw("bob", 53.75, -1.60, f"tea {i}", minute=i) for i in range(2)]
    corpus.append(tw("bob", 53.80, -1.00, "great exhibition tonight", minute=20))
    corpus += [tw("carol", 53.95, -1.00, f"north {i}", minute=i) for i in range(2)]
    corpus.append(tw("carol", 53.80, -1.50, "gallery visit", minute=30))

    result = run_pipeline(
        corpus,
        [z_a, z_b],
        [m1, m2],
        REF,
        footprints=footprints,
    )
    stages = [s.stage for s in result.report.stages]
    assert stages == ["bot-removal", "semantic", "spatial", "dedup", "checkin-removal", "aggregate"]
    outs = [s.tweets_out for s in result.report.stages]
    assert outs == [12, 5, 5, 4, 3, 2]
    zone_of = {h.user_id: h.zone_id for h in result.homes}
    assert zone_of == {"alice": "zA", "bob": "zB", "carol": None}
    got = {
        (z, m): result.matrix.values[i, j]
        for i, z in enumerate(result.matrix.origin_ids)
        for j, m in enumerate(result.matrix.destination_ids)
    }
    assert got == {("zA", "m1"): 1.0, ("zA", "m2"): 0.0, ("zB", "m1"): 0.0, ("zB", "m2"): 1.0}
    assert result.matrix.total() == 2.0
    # every surviving museum tweet is a member of the input corpus
    corpus_ids = {t.id for t in corpus}
    assert all(t.id in corpus_ids for t in result.museum_tweets)


def _planar_of(lat, lon):
    p = project(GeoPoint(lat, lon), REF)
    return p.x, p.y


def test_run_pipeline_without_footprints_skips_spatial_stage():
    z = box_zone("z", 53.70, 53.90, -1.70, -0.80)
    m = make_museum("m", 53.80, -1.50)
    corpus = [
        tw("u", 53.80, -1.40, "home base", minute=0),
        tw("u", 53.80, -1.40, "more home", minute=1),
        tw("u", 53.80, -1.50, "museum trip", minute=2),
    ]
    result = run_pipeline(corpus, [z], [m], REF)
    assert [s.stage for s in result.report.stages] == [
        "bot-removal",
        "semantic",
        "dedup",
        "checkin-removal",
        "aggregate",
    ]
    assert result.matrix.total() == 1.0


def test_corpus_frame_is_order_independent():
    tweets = [
        tw("u", 53.9, -1.2, "a"),
        tw("u", 53.7, -1.6, "b"),
        tw("u", 53.8, -1.8, "c"),
    ]
    assert corpus_frame(Corpus.from_tweets(tweets)) == GeoPoint(53.7, -1.8)
    assert corpus_frame(Corpus.from_tweets(tweets[::-1])) == GeoPoint(53.7, -1.8)
    with pytest.raises(EmptyInputError):
        corpus_frame(Corpus.from_tweets([]))


def test_stage_monotonicity():
    corpus = Corpus.from_tweets([
        tw("u1", 53.8, -1.5, "museum and gallery"),
        tw("u1", 53.8, -1.5, "museum and gallery http://4sq.com/z"),
        tw("u2", 53.8, -1.5, "plain chatter"),
        tw("u2", 53.8, -1.5, "exhibit hall"),
    ])
    ids = {t.id for t in corpus}
    for fn in (
        lambda c: semantic_filter(c),
        lambda c: dedup(c),
        lambda c: remove_checkins(c),
        lambda c: remove_automated_accounts(c, REF),
    ):
        out, entry = fn(corpus)
        assert {t.id for t in out} <= ids
        assert entry.tweets_out <= entry.tweets_in
