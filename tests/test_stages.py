"""Corpus stages against the per-message loops they replaced.

Each ``oracle_*`` below is a scalar stage as it stood before the columnar
corpus, a loop over :class:`Tweet` objects calling the scalar geometry
(check-in removal tests text and source apart, as the stage now does).
Hypothesis draws small corpora built to sit on the decisions: points
exactly ``buffer_m`` from a footprint edge and on its vertices, museums
tied bit for bit or one ulp apart, texts whose case folding changes their
length or keeps it, tokens of two characters or fewer, keywords holding a
separator, the empty keyword, link variants, equal instants under
different UTC offsets, one-tweet users and repeated users, and a tweet
from abroad. Every stage gets the tweets as a :class:`Corpus`; the oracles
loop over them as a list. The text stages run again with their scans cut
into slices of one and of two texts, so every slice edge is crossed.

``oracle_extract_museums`` is the museum extraction as it stood before each
site got one group label, the index of its group's first site, in place of
a union-find whose roots ordered the output and named untagged sites.
"""

import dataclasses
import math
import os
import re
import sys
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from conftest import assert_same_outcome, home_rows, kernel_edge_distance, make_homes, make_museum, make_zone, outcome
from full_dedup import dedup as full_dedup
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scalar_geometry import distance_to_polygon_m, point_in_polygon

from museumflows import pipeline
from museumflows.errors import InvalidAttributeError, InvalidCoordinateError, InvalidParameterError
from museumflows.fileio import read_tweets
from museumflows.geometry import (
    GeoPoint,
    GridCell,
    PlanarPoint,
    PolygonM,
    haversine_km,
    polygon_centroid_area,
    project,
    snap_to_grid,
    unproject,
)
from museumflows.pipeline import (
    CHECKIN_PATTERNS,
    DEFAULT_FLOOR_AREA_M2,
    DEFAULT_KEYWORDS,
    DEFAULT_MERGE_RADIUS_M,
    Corpus,
    StageCount,
    TaggedFeature,
    Tweet,
    UserHome,
    _tag_number,
    build_observed_matrix,
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
from museumflows.synth import SynthConfig, demo_region, generate_corpus
from museumflows.sim import Deterrence, ModelSpec, Museum

REF = GeoPoint(53.5, -2.0)
LAT0, LON0 = 53.5045, -2.0
OFF = 0.001953125  # dyadic: LON0 -/+ OFF are exact, so the two distances tie bit for bit
UP = math.nextafter(LON0 + OFF, math.inf)  # one ulp further east
BASE = datetime(2013, 6, 1, 12, 0, 0, tzinfo=timezone.utc)
ZONES_OF_DAY = (
    timezone.utc,
    timezone(timedelta(hours=2)),
    timezone(-timedelta(hours=5, minutes=30)),
)
URL = re.compile(r"\S+://\S+|\bt\.co/\S+", re.IGNORECASE)


def planar(x, y):
    return unproject(PlanarPoint(x, y), REF)


POINTS = (
    GeoPoint(LAT0, LON0),
    GeoPoint(LAT0, LON0 - OFF),
    GeoPoint(LAT0, LON0 + OFF),
    GeoPoint(LAT0, UP),
    planar(150.0, 150.0),
    planar(100.0, 100.0),  # on a cell corner, give or take the round trip
    planar(199.99999999, 250.0),
    planar(523.0, 517.5),
)
ABROAD = (GeoPoint(LAT0 + 6.0, LON0), GeoPoint(LAT0, LON0 - 7.5))  # outside the 5 degree frame
TEXTS = (
    "Lovely museum day",
    "Lovely museum day http://t.co/abc",
    "Lovely   museum day https://x.org/p?q=1",
    "lovely museum day T.CO/xyz",
    "MUSEUMS!",
    "amusement park",
    "Straße gallery.",
    "İstanbul exhibit",
    "ﬁne ﬁ art",
    "ex mu ga",
    "museum day 4sq.com/x",
    "at the FourSquare museum",
    "nothing to see",
    "",
    "STRASSE next to Straße",
    "musée ☕ museum",
    "ﬁx it",  # tokenize drops "ﬁx", whose fold "fix" has three code points
    "the art gallery, museum. now",
    "a://b museum",
    "see T.Co/x museum",
    "c++ club at the (Art) museum",  # regex metacharacters, which the searches must escape
    "vote a|b (4sq)",
    "xc++ x(art) xa|b: cafe, artful, apps",  # each keyword inside a token; unescaped, they would match the next three
)
SOURCES = (None, "", "web", "Foursquare for iPhone", "day web")
KEYWORD_SETS = (
    DEFAULT_KEYWORDS,
    ("strasse", "fi", "i̇st"),
    ("MUSE", "ex"),
    ("ﬁne",),
    ("art gallery", "museum."),  # each holds a separator, so no token starts with one
    ("art gallery", "musé"),
    ("",),
    ("mu",),
    ("c++", "(art)", "a|b"),
)


@st.composite
def corpora(draw, abroad=False):
    """1-12 tweets with unique ids in a drawn order; one-tweet or repeated users."""
    n = draw(st.integers(1, 12))
    repeated = draw(st.booleans())
    ids = draw(st.permutations([f"t{k:02d}" for k in range(n)]))
    points = POINTS + (ABROAD if abroad else ())
    tweets = []
    for k in range(n):
        instant = BASE + timedelta(minutes=draw(st.integers(0, 2)), microseconds=draw(st.sampled_from((0, 1))))
        tweets.append(
            Tweet(
                id=ids[k],
                user_id=draw(st.sampled_from(("u0", "u1", "u2"))) if repeated else f"solo{k}",
                timestamp=instant.astimezone(draw(st.sampled_from(ZONES_OF_DAY))),
                location=draw(st.sampled_from(points)),
                text=draw(st.sampled_from(TEXTS)),
                source=draw(st.sampled_from(SOURCES)),
            )
        )
    return tweets


# --- the scalar loops ---


def users_of(tweets):
    return len({t.user_id for t in tweets})


def by_user(tweets):
    groups = {}
    for t in tweets:
        groups.setdefault(t.user_id, []).append(t)
    return groups


def oracle_remove_automated_accounts(corpus, ref, activity_threshold, static_fraction):
    dropped = set()
    for user_id, tweets in by_user(corpus).items():
        if len(tweets) <= activity_threshold:
            continue
        cells = {}
        for t in tweets:
            cell = snap_to_grid(project(t.location, ref))
            cells[cell] = cells.get(cell, 0) + 1
        if max(cells.values()) >= static_fraction * len(tweets):
            dropped.add(user_id)
    return [t for t in corpus if t.user_id not in dropped]


def oracle_semantic_filter(corpus, keywords):
    keywords = tuple(k.casefold() for k in keywords)
    return [t for t in corpus if any(tok.casefold().startswith(keywords) for tok in tokenize(t.text))]


def oracle_spatial_filter(corpus, footprints, ref, buffer_m):
    polys = [poly for _, poly in footprints]
    out = []
    for t in corpus:
        p = project(t.location, ref)
        if any(distance_to_polygon_m(p, poly) <= buffer_m for poly in polys):
            out.append(t)
    return out


def oracle_dedup(corpus):
    keep = set()
    for tweets in by_user(corpus).values():
        seen = set()
        for t in sorted(tweets, key=lambda t: (t.timestamp, t.id)):
            normalized = " ".join(URL.sub(" ", t.text).split())
            if normalized not in seen:
                seen.add(normalized)
                keep.add(t.id)
    return [t for t in corpus if t.id in keep]


def oracle_remove_checkins(corpus, patterns):
    patterns = tuple(p.casefold() for p in patterns)

    def hit(t):
        return any(p in t.text.casefold() or p in (t.source or "").casefold() for p in patterns)

    return [t for t in corpus if not hit(t)]


def oracle_observed_matrix(museum_tweets, homes, zones, museums):
    zone_of = {h.user_id: h.zone_id for h in homes}
    counts = {}
    contributors = set()
    for t in museum_tweets:
        zone_id = zone_of.get(t.user_id)
        if zone_id is None:
            continue
        museum_id = min(museums, key=lambda m: (haversine_km(t.location, m.location), m.id)).id
        counts[(zone_id, museum_id)] = counts.get((zone_id, museum_id), 0) + 1
        contributors.add(t.user_id)
    values = [[float(counts.get((z.id, m.id), 0)) for m in museums] for z in zones]
    return values, sum(counts.values()), len(contributors)


def oracle_extract_museums(features, merge_radius_m=DEFAULT_MERGE_RADIUS_M):
    """The museum extraction with a union-find over the kept features, whose roots order the output."""
    if not merge_radius_m >= 0:
        raise InvalidParameterError(f"merge radius {merge_radius_m} must be >= 0")

    def wanted(tags) -> bool:
        if str(tags.get("tourism", "")).strip().casefold() == "museum":
            return True
        return "museum" in str(tags.get("name", "")).casefold()

    records = []  # (feature, norm_name, location, area or None, planar poly or None, its ref)
    for feat in features:
        if not wanted(feat.tags):
            continue
        name = str(feat.tags.get("name", "")).strip()
        norm = name.casefold()
        if feat.rings is not None:
            local_ref = feat.rings[0][0]
            planar = PolygonM(
                exterior=tuple(project(v, local_ref) for v in feat.rings[0]),
                holes=tuple(tuple(project(v, local_ref) for v in ring) for ring in feat.rings[1:]),
            )
            centroid, area = polygon_centroid_area(planar)
            records.append((feat, norm, unproject(centroid, local_ref), area, planar, local_ref))
        else:
            records.append((feat, norm, feat.point, None, None, None))

    # a point inside a kept polygon of the same name duplicates that polygon
    kept = []
    for rec in records:
        feat, norm, location, area, _, _ = rec
        if area is None:
            duplicate = any(
                other_norm == norm
                and point_in_polygon(project(location, other_ref), other_poly)
                for _, other_norm, _, other_area, other_poly, other_ref in records
                if other_area is not None
            )
            if duplicate:
                continue
        kept.append(rec)

    # merge same-name records within the radius, transitively
    parent = list(range(len(kept)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            if kept[i][1] != kept[j][1]:
                continue
            if haversine_km(kept[i][2], kept[j][2]) * 1000.0 <= merge_radius_m:
                parent[find(j)] = find(i)

    groups: dict[int, list] = {}
    for i, rec in enumerate(kept):
        groups.setdefault(find(i), []).append(rec)

    museums = []
    for root in sorted(groups):
        members = groups[root]
        first_tags = members[0][0].tags
        ids = [str(m[0].tags["id"]) for m in members if "id" in m[0].tags]
        mid = ids[0] if ids else f"museum-{root}"
        name = str(first_tags.get("name", mid)).strip() or mid

        areas = [(loc, area) for _, _, loc, area, _, _ in members if area is not None]
        if areas:
            total = sum(a for _, a in areas)
            lat = sum(loc.lat * a for loc, a in areas) / total
            lon = sum(loc.lon * a for loc, a in areas) / total
            floor_area = total
        else:
            locs = [loc for _, _, loc, _, _, _ in members]
            lat = sum(p.lat for p in locs) / len(locs)
            lon = sum(p.lon for p in locs) / len(locs)
            tagged = [
                _tag_number(mid, m[0].tags, "floor_area_m2") for m in members if m[0].tags.get("floor_area_m2") is not None
            ]
            floor_area = tagged[0] if tagged else DEFAULT_FLOOR_AREA_M2
        mentions = max(_tag_number(mid, m[0].tags, "media_mentions", 0.0) for m in members)
        museums.append(
            Museum(
                id=mid,
                name=name,
                location=GeoPoint(lat, lon),
                floor_area_m2=floor_area,
                media_mentions=mentions,
            )
        )
    return museums


def rows(tweets):
    """Everything a row carries, the timestamp's UTC offset included."""
    return [(t.id, t.user_id, t.timestamp.isoformat(), t.location, t.text, t.source) for t in tweets]


# The text scans' slice size as shipped, then slice edges at every text and at every other one
SLICES = (pipeline._TEXT_SLICE, 1, 2)


def check_in_slices(stage, oracle, corpus, name):
    """:func:`check_stage` with the text scans cut into slices of each size in ``SLICES``."""
    for size in SLICES:
        with mock.patch.object(pipeline, "_TEXT_SLICE", size):
            check_stage(stage, oracle, corpus, name)


def check_stage(stage, oracle, corpus, name):
    """Run the stage on the tweets as a Corpus and compare with the oracle's loop over them."""
    got = outcome(lambda: stage(Corpus.from_tweets(corpus)))
    expected = outcome(oracle, corpus)
    if not assert_same_outcome(got, expected):
        return
    (out, entry), expected = got[1], expected[1]
    assert isinstance(out, Corpus)
    assert rows(out) == rows(expected)
    assert list(out) == expected
    assert entry == StageCount(name, len(corpus), len(expected), users_of(expected))


# --- differential tests ---


@settings(max_examples=60, deadline=None)
@given(corpora(abroad=True), st.integers(1, 4), st.sampled_from((0.3, 0.5, 2 / 3, 1.0)))
@example(  # every tweet of the heavy user in one cell: exactly the static fraction 1.0
    [Tweet(f"b{k}", "bot", BASE + timedelta(minutes=k), POINTS[4], "museum") for k in range(3)]
    + [Tweet("h", "human", BASE, POINTS[4], "museum")],
    2,
    1.0,
)
def test_bot_removal_matches_scalar_loop(corpus, threshold, fraction):
    with mock.patch.object(pipeline, "ACTIVITY_THRESHOLD", threshold), mock.patch.object(pipeline, "STATIC_FRACTION", fraction):
        check_stage(
            lambda c: remove_automated_accounts(c, REF),
            lambda c: oracle_remove_automated_accounts(c, REF, threshold, fraction),
            corpus,
            "bot-removal",
        )


@settings(max_examples=60, deadline=None)
@given(corpora(), st.sampled_from(KEYWORD_SETS))
def test_semantic_filter_matches_scalar_loop(corpus, keywords):
    check_in_slices(
        lambda c: semantic_filter(c, keywords),
        lambda c: oracle_semantic_filter(c, keywords),
        corpus,
        "semantic",
    )


@pytest.mark.parametrize("keywords", KEYWORD_SETS)
def test_semantic_filter_matches_scalar_loop_on_every_text(keywords):
    corpus = [Tweet(f"t{k:02d}", "u", BASE, POINTS[0], text) for k, text in enumerate(TEXTS)]
    check_in_slices(
        lambda c: semantic_filter(c, keywords),
        lambda c: oracle_semantic_filter(c, keywords),
        corpus,
        "semantic",
    )


def test_semantic_filter_searches_texts_whose_fold_keeps_their_length_without_tokenizing():
    corpus = Corpus.from_tweets(
        [Tweet("a", "u", BASE, POINTS[0], "musée ☕ museum"), Tweet("b", "u", BASE, POINTS[0], "amusement")]
    )
    with mock.patch.object(pipeline, "tokenize", side_effect=AssertionError("tokenized")):
        out, _ = semantic_filter(corpus)
    assert [t.id for t in out] == ["a"]
    with mock.patch.object(pipeline, "tokenize", wraps=tokenize) as tokenized:
        out, _ = semantic_filter(Corpus.from_tweets([Tweet("c", "u", BASE, POINTS[0], "Straße museum")]))
    assert [t.id for t in out] == ["c"] and tokenized.call_count == 1


def stage_texts(stage, texts, size=pipeline._TEXT_SLICE):
    """The texts a stage keeps of one user's tweets holding ``texts``, its text scans cut into slices of ``size``."""
    corpus = Corpus.from_tweets([Tweet(f"t{k:02d}", "u", BASE, POINTS[0], text) for k, text in enumerate(texts)])
    with mock.patch.object(pipeline, "_TEXT_SLICE", size):
        out, _ = stage(corpus)
    return [t.text for t in out]


@pytest.mark.parametrize("size", SLICES)
def test_a_newline_in_a_text_starts_a_token_as_the_joiner_does(size):
    texts = ["x\nmuseum", "xmuseum", "x\n", "museum", "amuse\nment"]
    assert stage_texts(semantic_filter, texts, size) == ["x\nmuseum", "museum"]


@pytest.mark.parametrize("size", SLICES)
def test_a_two_code_point_keyword_needs_a_third_code_point_before_the_texts_end(size):
    texts = ["see mu", "seum", "mus", "a mu.", "mu", "ok mu\nsic"]
    assert stage_texts(lambda c: semantic_filter(c, ("mu",)), texts, size) == ["mus"]


@pytest.mark.parametrize("size", SLICES)
def test_the_empty_keyword_keeps_every_text_with_a_token(size):
    texts = ["ab cd", "abc", "", "ﬁx", "x\nyz", "ab.cde"]
    for keywords in (("",), ("", "museum"), ("art gallery", "")):
        assert stage_texts(lambda c: semantic_filter(c, keywords), texts, size) == ["abc", "ab.cde"]


@pytest.mark.parametrize("size", SLICES)
def test_a_text_holding_the_checkin_joiner_moves_no_boundary(size):
    # no check-in pattern holds U+0000, which folds to itself: it joins the slices
    assert pipeline._CHECKIN_JOINER == "\x00"
    texts = ["a\x00", "\x00\x004sq.com", "\x00", "nothing", "FOURSQUARE\x00"]
    assert stage_texts(remove_checkins, texts, size) == ["a\x00", "\x00", "nothing"]


@pytest.mark.parametrize("size", SLICES)
def test_only_the_text_whose_fold_changes_length_is_tokenized(size):
    # "museum" starts past the second text's length but inside its fold: placed by
    # the unfolded lengths, it would land in "amusement"
    texts = ["museum a", "Straßßßßßßßßße museum", "amusement", "gallery visit"]
    with mock.patch.object(pipeline, "tokenize", wraps=tokenize) as tokenized:
        assert stage_texts(semantic_filter, texts, size) == [texts[0], texts[1], texts[3]]
    assert tokenized.call_count == 1


DEMO_CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "data", "demo", "corpus.ndjson")


def test_a_keyword_read_answers_its_own_keywords_unscanned_and_refuses_others():
    # A read with keep_text blanks every text its keywords do not keep, so the
    # semantic stage cannot answer other keywords: ("gallery",) on a read kept
    # for ("museum",) used to keep 0 rows where a plain read keeps 198, and
    # ("museum", "gallery") 216 where it keeps 414. Now both raise, and the
    # read's own keywords, folded, reordered or repeated, take the blanks'
    # verdict without a scan.
    plain = read_tweets(DEMO_CORPUS)
    museum = read_tweets(DEMO_CORPUS, ("museum",))
    assert museum.keep_text == ("museum",) and plain.keep_text is None
    for keywords in (("gallery",), ("museum", "gallery")):
        with pytest.raises(InvalidParameterError) as info:
            semantic_filter(museum, keywords)
        assert str(info.value) == f"semantic filter keywords {keywords} differ from ('museum',), those the texts were kept for"
    both = read_tweets(DEMO_CORPUS, ("museum", "gallery"))
    cases = [(museum, ("MUSEUM",), ("museum",)), (museum, ("museum", "Museum"), ("museum",)),
             (both, ("Gallery", "museum", "gallery"), ("museum", "gallery"))]
    for corpus, keywords, plain_keywords in cases:
        with mock.patch.object(pipeline, "_keyword_texts", side_effect=AssertionError("scanned")):
            got, count = semantic_filter(corpus, keywords)
        want, want_count = semantic_filter(plain, plain_keywords)
        assert (count, got.ids.tolist()) == (want_count, want.ids.tolist())
        assert got.texts.tolist() == want.texts.tolist() and got.keep_text == corpus.keep_text
    assert [len(semantic_filter(plain, k)[0]) for k in (("gallery",), ("museum", "gallery"))] == [198, 414]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(st.characters(exclude_categories=()))), st.characters(exclude_categories=()))
@example(["Straße", "ﬁx", "İstanbul", "ΣΑΣ"], "\n")
def test_casefold_of_a_join_is_the_join_of_the_folds(parts, joiner):
    # The text scans rest on this, for the Unicode database of the Python
    # running them: str.casefold folds each code point alone, whatever its
    # neighbours, so a slice is folded in one call
    assert joiner.join(parts).casefold() == joiner.casefold().join(p.casefold() for p in parts)


def test_casefold_keeps_each_code_point_on_its_side_of_the_separators():
    # The semantic filter's search rests on this, for the Unicode database
    # of the Python running it: no code point folds to nothing, and one that
    # folds to one code point is a token separator exactly when its fold is.
    separator = pipeline._TOKEN_SPLIT.match
    crossing = []
    for c in map(chr, range(sys.maxunicode + 1)):
        folded = c.casefold()
        assert folded, f"U+{ord(c):04X} folds to nothing"
        if len(folded) == 1 and (separator(c) is None) != (separator(folded) is None):
            crossing.append(f"U+{ord(c):04X}")
    assert crossing == []


def test_out_of_frame_error_names_the_tweet_a_per_user_loop_meets_first():
    # u1 appears first but posts from abroad after u2 does: a loop over
    # users in order of appearance meets u1's far tweet first
    def at(tid, user, where):
        return Tweet(tid, user, BASE, where, "museum")

    tweets = [at("a", "u1", POINTS[0]), at("b", "u2", ABROAD[1]), at("c", "u2", POINTS[0]), at("d", "u1", ABROAD[0])]
    with pytest.raises(InvalidCoordinateError) as expected:
        oracle_remove_automated_accounts(tweets, REF, 1, 0.5)
    assert f"({ABROAD[0].lat}," in str(expected.value)
    corpus = Corpus.from_tweets(tweets)
    with mock.patch.object(pipeline, "ACTIVITY_THRESHOLD", 1), mock.patch.object(pipeline, "STATIC_FRACTION", 0.5):
        with pytest.raises(InvalidCoordinateError) as got:
            remove_automated_accounts(corpus, REF)
    assert str(got.value) == str(expected.value)
    with pytest.raises(InvalidCoordinateError) as got:
        infer_home_locations(corpus, REF)
    assert str(got.value) == str(expected.value)
    # the spatial filter meets tweets in corpus order
    with pytest.raises(InvalidCoordinateError, match=rf"\({ABROAD[1].lat}, {ABROAD[1].lon}\)"):
        spatial_filter(corpus, [], REF)


@pytest.mark.parametrize("static", [6, 5])
def test_bot_removal_of_a_heavy_user_whose_cells_share_one_column(static):
    # Every cell of the heavy user is in column 3, so the packed cell keys
    # span one column; with 10 tweets over a threshold of 8 and a fraction
    # of 0.6, they go with 6 tweets in one cell and stay with 5.
    def at(k, user, iy):
        return Tweet(f"{user}{k}", user, BASE + timedelta(minutes=k), unproject(PlanarPoint(350.0, 100.0 * iy + 50.0), REF), "museum")

    others = [-2, -1, 1, 2, 3][: 10 - static]
    tweets = [at(k, "bot", 0) for k in range(static)] + [at(static + k, "bot", iy) for k, iy in enumerate(others)]
    tweets.append(at(0, "human", 0))
    expected = oracle_remove_automated_accounts(tweets, REF, 8, 0.6)
    assert len(expected) == (1 if static == 6 else 11)
    with mock.patch.object(pipeline, "ACTIVITY_THRESHOLD", 8), mock.patch.object(pipeline, "STATIC_FRACTION", 0.6):
        check_stage(lambda c: remove_automated_accounts(c, REF), lambda c: oracle_remove_automated_accounts(c, REF, 8, 0.6),
                    tweets, "bot-removal")


def test_bot_removal_projects_only_the_heavy_users_rows():
    # u0, light, appears first with its one tweet abroad; u1 is heavy and
    # has a far tweet too: bot removal meets only u1's, home inference u0's
    def at(tid, user, where):
        return Tweet(tid, user, BASE, where, "museum")

    tweets = [at("a", "u0", ABROAD[0]), at("b", "u1", POINTS[0]), at("c", "u1", ABROAD[1])]
    corpus = Corpus.from_tweets(tweets)
    with pytest.raises(InvalidCoordinateError) as bots:
        oracle_remove_automated_accounts(tweets, REF, 1, 0.5)
    with pytest.raises(InvalidCoordinateError) as everyone:  # a loop that projects every user's tweets
        oracle_remove_automated_accounts(tweets, REF, 0, 0.5)
    assert f"({ABROAD[1].lat}," in str(bots.value) and f"({ABROAD[0].lat}," in str(everyone.value)
    with mock.patch.object(pipeline, "ACTIVITY_THRESHOLD", 1), mock.patch.object(pipeline, "STATIC_FRACTION", 0.5):
        with pytest.raises(InvalidCoordinateError) as got:
            remove_automated_accounts(corpus, REF)
    assert str(got.value) == str(bots.value)
    with pytest.raises(InvalidCoordinateError) as got:
        infer_home_locations(corpus, REF)
    assert str(got.value) == str(everyone.value)


def square(x0, y0, x1, y1):
    return PolygonM(exterior=(PlanarPoint(x0, y0), PlanarPoint(x1, y0), PlanarPoint(x1, y1), PlanarPoint(x0, y1)))


@settings(max_examples=60, deadline=None)
@given(corpora(abroad=True), st.integers(0, 4), st.floats(0.5, 40.0))
def test_spatial_filter_matches_scalar_loop(corpus, buffer_choice, gap):
    # footprint A has a vertex on the first tweet; footprint B's west edge
    # lies `gap` metres east of the last tweet, whose scalar distance d is
    # then the buffer itself or one ulp either side of it
    first, last = corpus[0].location, corpus[-1].location
    if first in ABROAD or last in ABROAD:
        first = last = POINTS[0]
    p, q = project(first, REF), project(last, REF)
    museum = make_museum("m0", LAT0, LON0)
    a = square(p.x, p.y, p.x + 30.0, p.y + 30.0)
    b = square(q.x + gap, q.y - 10.0, q.x + gap + 25.0, q.y + 10.0)
    d = distance_to_polygon_m(q, b)
    buffer_m = (d, math.nextafter(d, 0.0), math.nextafter(d, math.inf), 0.0, 10.0)[buffer_choice]
    footprints = [(museum, a), (museum, b)]
    check_stage(
        lambda c: spatial_filter(c, footprints, REF, buffer_m),
        lambda c: oracle_spatial_filter(c, footprints, REF, buffer_m),
        corpus,
        "spatial",
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.floats(-25.0, 55.0), st.floats(-25.0, 55.0)), min_size=1, max_size=12),
    st.integers(0, 5),
)
@example([(-6.0, -8.0), (36.0, 38.0), (-10.0, 15.0), (-10.00000001, 15.0), (-7.1, -7.1)], 2)
@example([(-6.0, -8.0), (36.0, 38.0), (-10.0, 15.0), (-10.00000001, 15.0), (-7.1, -7.1)], 1)
def test_spatial_filter_box_prefilter_matches_scalar_loop(offsets, buffer_choice):
    # tweets around a 30 m footprint, many beyond its corners; the buffer is
    # 0, 10, or the first tweet's scalar distance to it (a corner distance
    # when the tweet lies beyond a corner), one ulp either side, or twice it
    museum = make_museum("m0", LAT0, LON0)
    o = project(POINTS[4], REF)
    a = square(o.x, o.y, o.x + 30.0, o.y + 30.0)
    far = square(o.x + 500.0, o.y, o.x + 530.0, o.y + 30.0)
    tweets = [
        Tweet(f"t{k:02d}", f"u{k}", BASE, unproject(PlanarPoint(o.x + dx, o.y + dy), REF), "museum")
        for k, (dx, dy) in enumerate(offsets)
    ]
    d = distance_to_polygon_m(project(tweets[0].location, REF), a)
    buffer_m = (0.0, 10.0, d, math.nextafter(d, 0.0), math.nextafter(d, math.inf), 2.0 * d)[buffer_choice]
    footprints = [(museum, far), (museum, a)]
    check_stage(
        lambda c: spatial_filter(c, footprints, REF, buffer_m),
        lambda c: oracle_spatial_filter(c, footprints, REF, buffer_m),
        tweets,
        "spatial",
    )


@settings(max_examples=60, deadline=None)
@given(corpora())
@example(  # two rows of one user at one microsecond, their ids in the opposite order to the rows
    [
        Tweet("t2", "u0", BASE, POINTS[0], "Lovely museum day http://t.co/abc"),
        Tweet("t1", "u1", BASE, POINTS[0], "Lovely museum day"),
        Tweet("t0", "u0", BASE.astimezone(ZONES_OF_DAY[2]), POINTS[1], "Lovely museum day"),
        Tweet("t3", "u0", BASE - timedelta(microseconds=1), POINTS[0], "a://b museum"),
        Tweet("t4", "u0", BASE, POINTS[0], "see T.Co/x museum"),
        Tweet("t5", "u0", BASE + timedelta(minutes=1), POINTS[0], "see  museum"),
    ]
)
def test_dedup_matches_scalar_loop(corpus):
    check_stage(dedup, oracle_dedup, corpus, "dedup")


REPOSTS = ("museum day", "museum day http://t.co/a", "museum  day t.co/b", "Museum day https://x.org/p", "gallery")


@st.composite
def dedup_corpora(draw):
    """0-30 rows: users with one row beside users with several, reposts that differ by a link, equal stamps and ids.

    About none, a third or two thirds of the rows have a user of their own.
    """
    solo = draw(st.integers(0, 2))
    tweets = []
    for k in range(draw(st.integers(0, 30))):
        instant = BASE + timedelta(minutes=draw(st.integers(0, 1)), microseconds=draw(st.sampled_from((0, 1))))
        tweets.append(Tweet(
            id=draw(st.sampled_from(("t0", "t1"))) if draw(st.integers(0, 3)) == 0 else f"t{k:02d}",
            user_id=f"solo{k}" if draw(st.integers(0, 2)) < solo else draw(st.sampled_from(("u0", "u1"))),
            timestamp=instant.astimezone(draw(st.sampled_from(ZONES_OF_DAY))),
            location=POINTS[0],
            text=draw(st.sampled_from(REPOSTS + TEXTS)),
        ))
    return tweets


@settings(max_examples=200, deadline=None)
@given(dedup_corpora())
def test_dedup_keeps_the_rows_the_dedup_normalizing_every_text_keeps(tweets):
    corpus = Corpus.from_tweets(tweets)
    (out, entry), (expected, expected_entry) = dedup(corpus), full_dedup(corpus)
    assert list(out) == list(expected)
    assert entry == expected_entry


@settings(max_examples=60, deadline=None)
@given(corpora())
def test_checkin_removal_matches_scalar_loop(corpus):
    check_in_slices(remove_checkins, lambda c: oracle_remove_checkins(c, CHECKIN_PATTERNS), corpus, "checkin-removal")


def test_spatial_filter_decides_hypot_rounding_like_the_scalar_distance():
    # a footprint corner north-east of the tweet, placed where np.hypot and
    # math.hypot round the corner distance apart
    tweet = Tweet("t", "u", BASE, POINTS[4], "museum")
    p = project(tweet.location, REF)
    museum = make_museum("m0", LAT0, LON0)
    rng = np.random.default_rng(11)
    for _ in range(20_000):
        gx, gy = rng.uniform(1.0, 20.0, size=2)
        poly = square(p.x + gx, p.y + gy, p.x + gx + 30.0, p.y + gy + 30.0)
        d = distance_to_polygon_m(p, poly)
        e = float(kernel_edge_distance([p.x], [p.y], poly)[0])
        if e != d:
            break
    else:
        pytest.fail("no rounding difference found")
    for buffer_m in (d, e, math.nextafter(d, 0.0), math.nextafter(d, math.inf)):
        out, _ = spatial_filter(Corpus.from_tweets([tweet]), [(museum, poly)], REF, buffer_m)
        assert len(out) == (d <= buffer_m)


MUSEUM_SETS = (
    # LON0 -/+ OFF tie bit for bit at (LAT0, LON0); the smaller id must win
    (make_museum("mB", LAT0, LON0 - OFF), make_museum("mA", LAT0, LON0 + OFF)),
    # one ulp apart, and a third museum due north
    (make_museum("m1", LAT0, LON0 - OFF), make_museum("m0", LAT0, UP), make_museum("m2", LAT0 + OFF, LON0)),
    # two museums on one spot
    (make_museum("x", LAT0, LON0 + OFF), make_museum("w", LAT0, LON0 + OFF)),
    (make_museum("solo", LAT0 + OFF, LON0),),
)


@settings(max_examples=60, deadline=None)
@given(corpora(abroad=True), st.sampled_from(MUSEUM_SETS), st.data())
def test_aggregate_matches_scalar_loop(corpus, museums, data):
    # each user has a home in z0, in z1 or in no zone, or no home row at all
    zones = [make_zone("z0", LAT0, LON0), make_zone("z1", LAT0, LON0)]
    given = Corpus.from_tweets(corpus)
    homes = []
    for user in sorted(given.users):
        zone = data.draw(st.sampled_from(("z0", "z1", None, "no home")))
        if zone != "no home":
            homes.append(UserHome(user, GridCell(0, 0), 1, zone))
    values, contributing, contributors = oracle_observed_matrix(corpus, homes, zones, museums)
    matrix, entry = build_observed_matrix(given, make_homes(homes, given.users), zones, museums)
    assert matrix.values.tolist() == values
    assert matrix.origin_ids == ("z0", "z1")
    assert matrix.destination_ids == tuple(m.id for m in museums)
    assert entry == StageCount("aggregate", len(corpus), contributing, contributors)


def test_aggregate_tie_goes_to_smaller_id_whatever_the_order():
    zones = [make_zone("z0", LAT0, LON0)]
    corpus = Corpus.from_tweets([Tweet("t", "u", BASE, GeoPoint(LAT0, LON0), "museum")])
    homes = make_homes([UserHome("u", GridCell(0, 0), 1, "z0")], corpus.users)
    for museums in (MUSEUM_SETS[0], MUSEUM_SETS[0][::-1]):
        matrix, _ = build_observed_matrix(corpus, homes, zones, museums)
        assert matrix.values[0, [m.id for m in museums].index("mA")] == 1.0
        assert pipeline._nearest_museum(GeoPoint(LAT0, LON0), museums) == "mA"


# names that fold alike, or apart; a name without "museum" is kept only by its tourism tag
MAP_NAMES = (None, "", "City Museum", " city museum", "CITY MUSEUM", "Straße Museum", "STRASSE MUSEUM", "Town Hall")
# 80 m steps east, so a merge radius of 100 m chains sites that 50 m keeps apart
CENTRES = ((0.0, 0.0), (80.0, 0.0), (160.0, 0.0), (240.0, 0.0), (40.0, 60.0), (400.0, 300.0))


def planar_ring(x, y, half):
    return tuple(planar(x + dx, y + dy) for dx, dy in ((-half, -half), (half, -half), (half, half), (-half, half)))


@st.composite
def map_features(draw):
    """A point or a square (holed or not) a few hundred metres from REF; a tag drawn as None is left out."""
    tags = {}
    for key, values in (
        ("tourism", ("museum", " Museum", "hotel", None)),
        ("name", MAP_NAMES),
        ("id", ("a", "b") + (None,) * 6),
        ("floor_area_m2", ("120", 250.0, None)),
        ("media_mentions", (0, 3.5, "7", None)),
    ):
        value = draw(st.sampled_from(values))
        if value is not None:
            tags[key] = value
    x, y = draw(st.sampled_from(CENTRES))
    if draw(st.booleans()):
        dx, dy = draw(st.sampled_from(((0.0, 0.0), (25.0, 0.0), (25.0, 25.0), (60.0, 10.0), (-30.0, 0.0))))
        return TaggedFeature(tags=tags, point=planar(x + dx, y + dy))
    half = draw(st.sampled_from((25.0, 60.0)))
    rings = (planar_ring(x, y, half),) + ((planar_ring(x, y, 10.0),) if draw(st.booleans()) else ())
    return TaggedFeature(tags=tags, rings=rings)


def fallback_index(mid):
    return int(mid.removeprefix("museum-")) if mid.startswith("museum-") else None


def without_fallback(m):
    """The museum with a fallback id, and a name that fell back to it, stripped of the index."""
    if fallback_index(m.id) is None:
        return m
    return dataclasses.replace(m, id="museum-*", name="museum-*" if m.name == m.id else m.name)


# nameless, so the name falls back to the id as well
A_CHAIN = [TaggedFeature(tags={"tourism": "museum"}, point=planar(x, 0.0)) for x in (0.0, 400.0, 160.0, 80.0)]


@settings(max_examples=200, deadline=None)
@given(st.lists(map_features(), max_size=10), st.sampled_from((0.0, 50.0, 100.0, math.inf)))
@example(A_CHAIN, 100.0)  # the chain's union-find root is its third site
def test_extract_museums_matches_the_union_find_loop(features, merge_radius_m):
    expected = oracle_extract_museums(features, merge_radius_m)
    ids = [m.id for m in expected]
    if len(set(ids)) < len(ids):
        repeated = ", ".join(sorted({i for i in ids if ids.count(i) > 1}))
        with pytest.raises(InvalidAttributeError, match=f"^repeated museum ids: {repeated}$"):
            extract_museums(features, merge_radius_m)
        return
    got = extract_museums(features, merge_radius_m)
    old_of = {without_fallback(m): m for m in expected}
    assert len(got) == len(old_of) == len(expected)
    assert {without_fallback(m) for m in got} == set(old_of)
    for new in got:
        old = old_of[without_fallback(new)]
        # a fallback id names the group's first site; the oracle's union-find root may come later
        assert new == old or fallback_index(new.id) < fallback_index(old.id)


# --- the whole chain ---


def permutation_fixture():
    """A small synthetic corpus plus duplicates, check-ins and equal instants."""
    region = demo_region(4, 3, seed=3)
    cfg = SynthConfig(true_spec=ModelSpec(deterrence=Deterrence("exponential", 0.9)), n_trips=40, noise=0.3, seed=5)
    corpus = list(generate_corpus(region.zones, region.museums, cfg, region.ref)[0])
    extra = []
    for k, t in enumerate(corpus[:60]):
        if k % 3 == 0:  # a link variant at the same instant in another UTC offset
            extra.append(Tweet(f"{t.id}-link", t.user_id, t.timestamp.astimezone(ZONES_OF_DAY[1]), t.location, t.text + " http://t.co/x"))
        elif k % 3 == 1:  # a check-in relay
            extra.append(Tweet(f"{t.id}-4sq", t.user_id, t.timestamp, t.location, t.text + " (@ x)", source="foursquare"))
        else:  # a keyword tweet far from every footprint
            extra.append(Tweet(f"{t.id}-off", t.user_id, t.timestamp, region.zones[0].centroid, "museum talk"))
    return region, corpus + extra


PERM_REGION, PERM_CORPUS = permutation_fixture()


def run_perm(corpus):
    region = PERM_REGION
    return run_pipeline(corpus, region.zones, region.museums, region.ref, footprints=region.footprints, buffer_m=25.0)


PERM_RESULT = run_perm(PERM_CORPUS)


@settings(max_examples=15, deadline=None)
@given(st.permutations(range(len(PERM_CORPUS))))
def test_run_pipeline_is_invariant_to_corpus_order(order):
    result = run_perm([PERM_CORPUS[i] for i in order])
    assert result.matrix.origin_ids == PERM_RESULT.matrix.origin_ids
    assert result.matrix.destination_ids == PERM_RESULT.matrix.destination_ids
    assert np.array_equal(result.matrix.values, PERM_RESULT.matrix.values)
    assert result.report == PERM_RESULT.report
    assert home_rows(result.homes) == home_rows(PERM_RESULT.homes)
    assert sorted(t.id for t in result.museum_tweets) == sorted(t.id for t in PERM_RESULT.museum_tweets)


def test_permutation_fixture_exercises_every_stage():
    stages = {s.stage: s for s in PERM_RESULT.report.stages}
    for name in ("semantic", "spatial", "dedup", "checkin-removal", "aggregate"):
        assert stages[name].tweets_in > 0
    assert stages["spatial"].tweets_out < stages["spatial"].tweets_in
    assert stages["dedup"].tweets_out < stages["dedup"].tweets_in
    assert stages["checkin-removal"].tweets_out < stages["checkin-removal"].tweets_in
    assert PERM_RESULT.matrix.total() > 0
