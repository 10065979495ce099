"""On-disk format round-trips and parse diagnostics."""

import csv
import json
import math
from datetime import datetime, timezone

import numpy as np
import pytest

from conftest import make_homes, make_museum, make_zone

from museumflows.calibration import BetaGrid, sweep_beta
from museumflows.errors import DataFormatError, InvalidGeometryError
from museumflows.fileio import (
    format_report,
    read_footprints,
    read_matrix_csv,
    read_museums,
    read_report_json,
    read_tagged_features,
    read_tweets,
    read_zones,
    write_flow_lines,
    write_homes_csv,
    write_matrix_csv,
    write_museums,
    write_report_json,
    write_sweep_csv,
    write_sweep_json,
    write_tweets,
    write_zones,
)
from museumflows.geometry import GeoPoint, GridCell
from museumflows.pipeline import Corpus, PipelineReport, StageCount, UserHome, run_pipeline
from museumflows.sim import Deterrence, FlowMatrix, ModelSpec, unconstrained_flows
from museumflows.synth import SynthConfig, demo_region, generate_corpus


def dump(doc, path):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def zone_feature(zid, lon0, lat0, side_deg=0.02, population=1000.0, **extra):
    ring = [
        [lon0, lat0],
        [lon0 + side_deg, lat0],
        [lon0 + side_deg, lat0 + side_deg],
        [lon0, lat0 + side_deg],
        [lon0, lat0],
    ]
    props = {"id": zid, "name": f"Zone {zid}", "population": population, **extra}
    return {"type": "Feature", "properties": props, "geometry": {"type": "Polygon", "coordinates": [ring]}}


# --- tweets ---


def make_tweet(tid, user, stamp, lat, lon, text, source=None):
    from museumflows.pipeline import Tweet

    return Tweet(
        id=tid,
        user_id=user,
        timestamp=datetime.fromisoformat(stamp.replace("Z", "+00:00")),
        location=GeoPoint(lat, lon),
        text=text,
        source=source,
    )


def test_tweets_round_trip(tmp_path):
    tweets = [
        make_tweet("a", "u1", "2013-06-01T12:00:00Z", 53.8, -1.55, "at the museum"),
        make_tweet("b", "u2", "2013-06-01T14:00:00+02:00", 53.81, -1.56, "same instant", source="web"),
        make_tweet("e", "u2", "2013-06-01T12:05:00+01:00", 53.81, -1.56, "home", source="web"),
        make_tweet("c", "u1", "2013-06-01T06:30:00.000001-05:30", 53.82, -1.57, "a microsecond on"),
        make_tweet("d", "u3", "2013-06-01T17:45:00+05:45", 53.83, -1.58, "Straße ﬁ İ"),
    ]
    path = tmp_path / "tweets.ndjson"
    write_tweets(Corpus.from_tweets(tweets), path)
    back = read_tweets(path)
    assert isinstance(back, Corpus)
    assert list(back) == tweets
    assert [t.timestamp.isoformat() for t in back] == [t.timestamp.isoformat() for t in tweets]
    a, b, e, c, _ = back.stamp_us.tolist()
    assert (b, e, c) == (a, a - 3_300_000_000, a + 1)  # b the same instant, e 55 min before, c 1 us after
    again = tmp_path / "again.ndjson"
    write_tweets(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_tweets_z_suffix_and_naive_timestamps(tmp_path):
    path = tmp_path / "t.ndjson"
    lines = [
        {"id": "1", "user_id": "u", "timestamp": "2013-06-01T12:00:00Z", "lat": 53.8, "lon": -1.5, "text": "hi"},
        {"id": "2", "user_id": "u", "timestamp": "2013-06-01T13:00:00", "lat": 53.8, "lon": -1.5, "text": "hi"},
    ]
    path.write_text("\r\n".join(json.dumps(x) for x in lines) + "\r\n\r\n", encoding="utf-8")  # CRLF endings
    a, b = read_tweets(path)
    assert a.timestamp == datetime(2013, 6, 1, 12, 0, tzinfo=timezone.utc)
    assert b.timestamp == datetime(2013, 6, 1, 13, 0, tzinfo=timezone.utc)
    assert b.timestamp > a.timestamp


def test_tweet_errors_name_file_and_line(tmp_path):
    path = tmp_path / "bad.ndjson"
    good = {"id": "1", "user_id": "u", "timestamp": "2013-06-01T12:00:00Z", "lat": 53.8, "lon": -1.5, "text": "hi"}
    path.write_text(json.dumps(good) + "\n{not json\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"bad\.ndjson:2"):
        read_tweets(path)

    missing = dict(good)
    del missing["text"]
    path.write_text(json.dumps(good) + "\n" + json.dumps(missing | {"id": "2"}) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"bad\.ndjson:2.*text"):
        read_tweets(path)

    path.write_text(json.dumps(good) + "\n" + json.dumps(good) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"bad\.ndjson:2.*duplicate"):
        read_tweets(path)

    bad_stamp = dict(good, id="2", timestamp="yesterday")
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad_stamp) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"bad\.ndjson:2.*timestamp"):
        read_tweets(path)


def test_first_bad_line_wins_whatever_the_check(tmp_path):
    # each line is checked as it is read: the report names the first bad
    # line, and a line's bad coordinate comes before its own later faults
    path = tmp_path / "bad.ndjson"
    good = {"id": "1", "user_id": "u", "timestamp": "2013-06-01T12:00:00Z", "lat": 53.8, "lon": -1.5, "text": "hi"}

    def write(*objs):
        path.write_text("\n".join(o if isinstance(o, str) else json.dumps(o) for o in objs) + "\n", encoding="utf-8")

    cases = [
        ((good, dict(good, id="2", lat=91.0), "{not json"), r"bad\.ndjson:2: latitude 91\.0 outside"),
        ((good, dict(good, id="2", lon=-180.5, text="x" * 300)), r"bad\.ndjson:2: longitude -180\.5 outside"),
        ((good, dict(good, id="1", lat=math.inf)), r"bad\.ndjson:2: non-finite coordinate"),
        ((good, dict(good, id="2", text="x" * 300), dict(good, id="3", lat=-91.0)), r"bad\.ndjson:2: tweet 2: text has 300"),
        ((good, dict(good, id="2", user_id=""), dict(good, id="3", lat=-91.0)), r"bad\.ndjson:2: tweet id and user_id"),
        ((good, good, dict(good, id="3", lat=-91.0)), r"bad\.ndjson:2: duplicate tweet id '1'"),
        ((good, dict(good, id="2", lat="north")), r"bad\.ndjson:2: could not convert"),
        ((good, "", dict(good, id="2", lat=99.0)), r"bad\.ndjson:3: latitude 99\.0"),
        ((good, dict(good, id="2", timestamp=5)), r"^[^:]*bad\.ndjson:2: timestamp must be"),
        ((good, json.dumps(dict(good, id="2")) + " {}"), r"bad\.ndjson:2: invalid JSON: Extra data"),
        ((good, "\ufeff" + json.dumps(dict(good, id="2"))), r"bad\.ndjson:2: invalid JSON: Unexpected UTF-8 BOM"),
        ((good, " [1, 2] "), r"bad\.ndjson:2: expected a JSON object"),
    ]
    for lines, message in cases:
        write(*lines)
        with pytest.raises(DataFormatError, match=message):
            read_tweets(path)


def test_non_utf8_input_names_file_and_line(tmp_path):
    good = json.dumps({"id": "1", "user_id": "u", "timestamp": "2013-06-01T12:00:00Z", "lat": 53.8, "lon": -1.5, "text": "hi"})
    bad_text = json.dumps({"id": "2", "user_id": "u", "timestamp": "2013-06-01T12:00:00Z", "lat": 53.8, "lon": -1.5, "text": "caf@"})
    path = tmp_path / "bad.ndjson"
    path.write_bytes((good + "\n" + bad_text + "\n").encode("utf-8").replace(b"@", b"\xe9"))
    with pytest.raises(DataFormatError, match=r"bad\.ndjson:2: not valid UTF-8: byte 0xe9"):
        read_tweets(path)
    path.write_bytes(b"{not json\n" + (bad_text + "\n").encode("utf-8").replace(b"@", b"\xe9"))
    with pytest.raises(DataFormatError, match=r"bad\.ndjson:1: invalid JSON"):  # the first bad line wins
        read_tweets(path)

    zones = tmp_path / "zones.geojson"
    doc = {"type": "FeatureCollection", "features": [zone_feature("z@", -1.60, 53.78)]}
    zones.write_bytes(json.dumps(doc).encode("utf-8").replace(b"@", b"\xe9"))
    with pytest.raises(DataFormatError, match=r"zones\.geojson: not valid UTF-8: byte 0xe9"):
        read_zones(zones)

    matrix = tmp_path / "m.csv"
    matrix.write_bytes(b"zone_id,m\xe9\nz1,1.0\n")
    with pytest.raises(DataFormatError, match=r"m\.csv: not valid UTF-8: byte 0xe9"):
        read_matrix_csv(matrix)


# --- zones ---


def test_read_zones_frame_and_centroid(tmp_path):
    doc = {
        "type": "FeatureCollection",
        "features": [
            zone_feature("zA", -1.60, 53.78, arts_share=0.2, earnings_proxy=5.0),
            zone_feature("zB", -1.58, 53.78),
        ],
    }
    zones, ref = read_zones(dump(doc, tmp_path / "zones.geojson"))
    assert ref == GeoPoint(53.78, -1.60)
    assert [z.id for z in zones] == ["zA", "zB"]
    assert zones[0].arts_share == 0.2 and zones[0].earnings_proxy == 5.0
    assert zones[1].arts_share == 0.0
    assert zones[0].centroid.lat == pytest.approx(53.79, abs=1e-9)
    assert zones[0].centroid.lon == pytest.approx(-1.59, abs=1e-9)
    assert zones[0].boundary is not None


def test_read_zones_missing_property_names_feature(tmp_path):
    feat = zone_feature("zA", -1.60, 53.78)
    del feat["properties"]["population"]
    doc = {"type": "FeatureCollection", "features": [feat]}
    with pytest.raises(DataFormatError, match=r"zones\.geojson.*'zA'.*population"):
        read_zones(dump(doc, tmp_path / "zones.geojson"))


def test_zones_write_read_round_trip(tmp_path):
    region = demo_region(6, 2, seed=0)
    path = tmp_path / "zones.geojson"
    write_zones(region.zones, region.ref, path)
    back, ref = read_zones(path)
    assert ref.lat == pytest.approx(region.ref.lat, abs=1e-9)
    assert ref.lon == pytest.approx(region.ref.lon, abs=1e-9)
    assert [z.id for z in back] == [z.id for z in region.zones]
    for a, b in zip(back, region.zones):
        assert a.population == b.population and a.arts_share == b.arts_share
        assert a.centroid.lat == pytest.approx(b.centroid.lat, abs=1e-9)
        assert a.centroid.lon == pytest.approx(b.centroid.lon, abs=1e-9)
    with pytest.raises(InvalidGeometryError, match="^zone 'z0' has no boundary polygon to write$"):
        write_zones([make_zone("z0", 53.7, -1.6)], region.ref, path)


def test_zone_file_must_be_feature_collection(tmp_path):
    with pytest.raises(DataFormatError, match="FeatureCollection"):
        read_zones(dump({"type": "Feature"}, tmp_path / "z.geojson"))
    bad = tmp_path / "trunc.geojson"
    bad.write_text('{"type": "FeatureCollection",\n "features": [', encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"trunc\.geojson:\d+"):
        read_zones(bad)


# --- museums and footprints ---


def test_museums_round_trip(tmp_path):
    museums = [
        make_museum("m1", 53.80, -1.55, floor_area_m2=1072.0, media_mentions=2.0),
        make_museum("m2", 53.81, -1.56, floor_area_m2=3211.0, media_mentions=252.0),
    ]
    path = tmp_path / "museums.geojson"
    write_museums(museums, path)
    assert read_museums(path) == museums


def test_read_museums_requires_floor_area(tmp_path):
    doc = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"id": "m1", "name": "City Museum"},
                "geometry": {"type": "Point", "coordinates": [-1.55, 53.80]},
            }
        ],
    }
    with pytest.raises(DataFormatError, match=r"'m1'.*floor_area_m2"):
        read_museums(dump(doc, tmp_path / "m.geojson"))


def test_read_footprints_matches_museum_ids(tmp_path):
    museums = [make_museum("m1", 53.7801, -1.5899)]
    ring = [[-1.59, 53.78], [-1.589, 53.78], [-1.589, 53.7805], [-1.59, 53.7805], [-1.59, 53.78]]
    doc = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"museum_id": "m1"},
                "geometry": {"type": "Polygon", "coordinates": [ring]},
            }
        ],
    }
    path = dump(doc, tmp_path / "fp.geojson")
    ref = GeoPoint(53.78, -1.59)
    footprints = read_footprints(path, museums, ref)
    assert len(footprints) == 1
    museum, poly = footprints[0]
    assert museum.id == "m1"
    assert len(poly.exterior) == 4  # closing vertex dropped

    doc["features"][0]["properties"]["museum_id"] = "ghost"
    with pytest.raises(DataFormatError, match="'ghost'"):
        read_footprints(dump(doc, tmp_path / "fp2.geojson"), museums, ref)


def test_read_tagged_features(tmp_path):
    ring = [[-1.59, 53.78], [-1.589, 53.78], [-1.589, 53.7805], [-1.59, 53.78]]
    doc = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"id": "n1", "tourism": "museum", "name": "Royal Armouries"},
                "geometry": {"type": "Point", "coordinates": [-1.53, 53.79]},
            },
            {
                "type": "Feature",
                "properties": {"name": "City Museum"},
                "geometry": {"type": "Polygon", "coordinates": [ring]},
            },
        ],
    }
    feats = read_tagged_features(dump(doc, tmp_path / "raw.geojson"))
    assert feats[0].point == GeoPoint(53.79, -1.53)
    assert feats[0].tags["tourism"] == "museum"
    assert feats[1].rings is not None and len(feats[1].rings[0]) == 3

    doc["features"][0]["geometry"] = {"type": "MultiPolygon", "coordinates": []}
    with pytest.raises(DataFormatError, match="MultiPolygon"):
        read_tagged_features(dump(doc, tmp_path / "raw2.geojson"))


def read_leeds_footprints(path):
    return read_footprints(path, [make_museum("m1", 53.7801, -1.5899)], GeoPoint(53.78, -1.60))


POINT = {"type": "Point", "coordinates": [-1.55, 53.80]}
SQUARE = zone_feature("zA", -1.60, 53.78)["geometry"]
SLIVER = {"type": "Polygon", "coordinates": [[[-1.59, 53.78], [-1.58, 53.78], [-1.59, 53.78]]]}
FLAT = {"type": "Polygon", "coordinates": [[[-1.59, 53.78], [-1.58, 53.78], [-1.57, 53.78], [-1.59, 53.78]]]}
NORTH = zone_feature("zB", -1.60, 61.78)["geometry"]  # 8 degrees north of SQUARE
# reader, a valid feature's properties and geometry
GEOJSON_READERS = {
    "zones": (read_zones, {"id": "zA", "name": "Zone zA", "population": 1000.0}, SQUARE),
    "museums": (read_museums, {"id": "m1", "name": "City Museum", "floor_area_m2": 1000.0}, POINT),
    "footprints": (read_leeds_footprints, {"museum_id": "m1"}, SQUARE),
    "features": (read_tagged_features, {"id": "n1", "tourism": "museum"}, POINT),
}


def feature(reader, drop=(), geometry=None, **props):
    """The reader's valid Feature, less the ``drop`` properties, with ``props`` and ``geometry`` in place."""
    _, base, geom = GEOJSON_READERS[reader]
    kept = {k: v for k, v in base.items() if k not in drop}
    return {"type": "Feature", "properties": {**kept, **props}, "geometry": geometry or geom}


def collection(*features):
    return {"type": "FeatureCollection", "features": list(features)}


# (reader, document, message after "<path>: ")
GEOJSON_ERRORS = [
    *[(r, {"type": "Feature"}, "expected a GeoJSON FeatureCollection") for r in GEOJSON_READERS],
    *[(r, {"type": "FeatureCollection", "features": {}}, "expected a GeoJSON FeatureCollection") for r in GEOJSON_READERS],
    *[(r, collection(feature(r), "Feature"), "feature 1 is not a GeoJSON Feature") for r in GEOJSON_READERS],
    *[(r, collection({"type": "Feature", "properties": {}}), "feature 0 lacks properties or geometry")
      for r in GEOJSON_READERS],
    *[(r, collection({"type": "Feature", "properties": ["id"], "geometry": POINT}), "feature 0 lacks properties or geometry")
      for r in GEOJSON_READERS],
    ("zones", collection(feature("zones", drop=("id",))), "zone feature 0: missing properties id"),
    ("zones", collection(feature("zones", drop=("name",))), "zone feature 'zA': missing properties name"),
    ("zones", collection(feature("zones", drop=("population",))), "zone feature 'zA': missing properties population"),
    ("zones", collection({"type": "Feature", "properties": None, "geometry": SQUARE}),
     "zone feature 0: missing properties id, name, population"),
    ("museums", collection(feature("museums", drop=("id",))), "museum feature 0: missing properties id"),
    ("museums", collection(feature("museums", drop=("name",))), "museum feature 'm1': missing properties name"),
    ("museums", collection(feature("museums", drop=("floor_area_m2",))),
     "museum feature 'm1': missing properties floor_area_m2"),
    ("footprints", collection(feature("footprints", drop=("museum_id",), id="f1")),
     "footprint feature 0: missing properties museum_id"),
    ("zones", collection(feature("zones", geometry={"type": "MultiPolygon", "coordinates": []})),
     "zone feature 'zA': expected Polygon geometry, got 'MultiPolygon'"),
    ("zones", collection(feature("zones", geometry=POINT)), "zone feature 'zA': expected Polygon geometry, got 'Point'"),
    ("museums", collection(feature("museums", geometry=SQUARE)),
     "museum feature 'm1': expected Point geometry, got 'Polygon'"),
    ("museums", collection(feature("museums", geometry={"type": "MultiPoint", "coordinates": []})),
     "museum feature 'm1': expected Point geometry, got 'MultiPoint'"),
    ("footprints", collection(feature("footprints", geometry={"type": "MultiPolygon", "coordinates": []})),
     "footprint feature 0: expected Polygon geometry, got 'MultiPolygon'"),
    ("features", collection(feature("features", geometry={"type": "MultiPolygon", "coordinates": []})),
     "feature 'n1': unsupported geometry type 'MultiPolygon'"),
    ("features", collection(feature("features", drop=("id",), geometry={"type": "LineString", "coordinates": []})),
     "feature 0: unsupported geometry type 'LineString'"),
    ("zones", collection(feature("zones", geometry={"type": "Polygon", "coordinates": []})),
     "zone feature 'zA': Polygon needs at least one ring"),
    ("zones", collection(feature("zones", geometry=SLIVER)), "zone feature 'zA': ring has fewer than 3 distinct vertices"),
    ("footprints", collection(feature("footprints", geometry=SLIVER)),
     "footprint feature 0: ring has fewer than 3 distinct vertices"),
    ("features", collection(feature("features", geometry=SLIVER)),
     "feature 'n1': ring has fewer than 3 distinct vertices"),
    ("zones", collection(feature("zones", geometry={"type": "Polygon", "coordinates": [[[-1.6, 53.78], [-1.5, 95]]]})),
     "zone feature 'zA': bad ring coordinates: latitude 95.0 outside [-90, 90]"),
    ("features", collection(feature("features", geometry={"type": "Polygon", "coordinates": [[[-1.6, 53.78], [1]]]})),
     "feature 'n1': bad ring coordinates: list index out of range"),
    ("museums", collection(feature("museums", geometry={"type": "Point", "coordinates": [-1.55]})),
     "museum feature 'm1': bad Point coordinates"),
    ("features", collection(feature("features", geometry={"type": "Point", "coordinates": "here"})),
     "feature 'n1': bad Point coordinates"),
    ("museums", collection(feature("museums", geometry={"type": "Point", "coordinates": [-1.55, 95]})),
     "museum feature 'm1': latitude 95.0 outside [-90, 90]"),
    ("features", collection(feature("features", geometry={"type": "Point", "coordinates": [-1.55, 95]})),
     "feature 'n1': latitude 95.0 outside [-90, 90]"),
    ("museums", collection(feature("museums", geometry={"type": "Point", "coordinates": [181, 53.8]})),
     "museum feature 'm1': longitude 181.0 outside [-180, 180]"),
    ("museums", collection(feature("museums", floor_area_m2="big")),
     "museum feature 'm1': could not convert string to float: 'big'"),
    ("zones", collection(feature("zones", population="many")), "zone feature 'zA': could not convert string to float: 'many'"),
    ("footprints", collection(feature("footprints", museum_id="ghost", id="f1")),
     "footprint feature 0: unknown museum id 'ghost'"),
    ("zones", collection(feature("zones"), feature("zones", name="again"), feature("zones", id=7), feature("zones", id=7)),
     "repeated zone ids: 7, zA"),
    ("museums", collection(feature("museums"), feature("museums")), "repeated museum ids: m1"),
    ("zones", collection(), "no zone features"),
    # only an absent member or null means no properties (RFC 7946)
    *[(r, collection({"type": "Feature", "properties": bad, "geometry": GEOJSON_READERS[r][2]}),
       "feature 0 lacks properties or geometry") for bad in (0, [], "", False) for r in GEOJSON_READERS],
    # a polygon outside the frame or of no area used to name neither file nor feature
    ("zones", collection(feature("zones"), feature("zones", id="zB", geometry=NORTH)),
     "zone feature 'zB': point (61.78, -1.6) more than 5.0 degrees from frame reference (53.78, -1.6)"),
    ("zones", collection(feature("zones", geometry=FLAT)), "zone feature 'zA': polygon area must be positive, got 0.0"),
    ("footprints", collection(feature("footprints", geometry=NORTH)),
     "footprint feature 0: point (61.78, -1.6) more than 5.0 degrees from frame reference (53.78, -1.6)"),
]


@pytest.mark.parametrize(
    "reader, doc, message", GEOJSON_ERRORS, ids=[f"{r}-{i}" for i, (r, *_) in enumerate(GEOJSON_ERRORS)]
)
def test_geojson_errors_name_the_file_and_the_feature(tmp_path, reader, doc, message):
    path = dump(doc, tmp_path / "in.geojson")
    with pytest.raises(DataFormatError) as info:
        GEOJSON_READERS[reader][0](path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("doc, message", [
    # each feature's structure and ring coordinates come before repeated ids,
    # and those before any zone's attributes
    (collection(feature("zones", population="many"),
                feature("zones", id="zB", geometry={"type": "Polygon", "coordinates": [[[-1.6, 53.78], [-1.5, 95]]]})),
     "zone feature 'zB': bad ring coordinates: latitude 95.0 outside [-90, 90]"),
    (collection(feature("zones", population="many"), feature("zones")), "repeated zone ids: zA"),
], ids=["ring-before-attributes", "repeated-id-before-attributes"])
def test_zone_checks_run_in_the_documented_order(tmp_path, doc, message):
    path = dump(doc, tmp_path / "zones.geojson")
    with pytest.raises(DataFormatError) as info:
        read_zones(path)
    assert str(info.value) == f"{path}: {message}"


HUGE = "9" * 400  # an int no float holds
LONG = "9" * 4301  # more digits than int() takes from a string
DEEP = "[" * 100_000 + "]" * 100_000  # nested deeper than json.loads goes
TWEET = '{"id": "%s", "user_id": "u", "timestamp": "2013-06-01T12:00:00Z", "lat": %s, "lon": -1.5, "text": "hi"%s}'
ZONE_DOC = json.dumps(collection(feature("zones", population=0.5)))
MUSEUM_DOC = json.dumps(collection(feature("museums", floor_area_m2=0.5)))
REPORT_DOC = '{"stages": [{"stage": "input", "tweets_in": 0.5, "tweets_out": 1, "users_remaining": 1}]}'
# (reader, file text, the message after "<path>"), each a traceback before
# these numbers were caught: OverflowError, ValueError or RecursionError
MALFORMED_NUMBERS = [
    (read_tweets, TWEET % ("1", 53.8, "") + "\n" + TWEET % ("2", HUGE, ""), ":2: int too large to convert to float"),
    (read_tweets, TWEET % ("1", 53.8, "") + "\n" + TWEET % ("2", LONG, ""), ":2: invalid JSON: "),
    (read_tweets, TWEET % ("1", 53.8, "") + "\n" + TWEET % ("2", 53.8, ', "source": ' + DEEP), ":2: invalid JSON: "),
    (read_zones, ZONE_DOC.replace("0.5", HUGE), ": zone feature 'zA': int too large to convert to float"),
    (read_zones, ZONE_DOC.replace("-1.6", HUGE, 1), ": zone feature 'zA': bad ring coordinates: int too large"),
    (read_zones, ZONE_DOC.replace("0.5", LONG), ": invalid JSON: "),
    (read_zones, ZONE_DOC.replace("0.5", DEEP), ": invalid JSON: "),
    (read_museums, MUSEUM_DOC.replace("0.5", HUGE), ": museum feature 'm1': int too large to convert to float"),
    (read_museums, MUSEUM_DOC.replace("-1.55", HUGE), ": museum feature 'm1': bad Point coordinates"),
    (read_report_json, REPORT_DOC.replace("0.5", "Infinity"), ": stage entry 0: cannot convert float infinity to integer"),
    (read_report_json, REPORT_DOC.replace("0.5", LONG), ": invalid JSON: "),
]


@pytest.mark.parametrize("reader, text, message", MALFORMED_NUMBERS, ids=[f"{r.__name__}-{i}" for i, (r, *_) in enumerate(MALFORMED_NUMBERS)])
def test_malformed_numbers_are_reported_with_the_file(tmp_path, reader, text, message):
    path = tmp_path / "in.json"
    path.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as info:
        reader(path)
    assert str(info.value).startswith(f"{path}{message}")


# --- matrices ---


def test_matrix_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(17)
    values = rng.uniform(0.0, 50.0, size=(7, 4))
    values[0, 0] = 1.2345678901234567e-12
    values[1, 1] = 9.87654321e8
    matrix = FlowMatrix(
        tuple(f"z{i}" for i in range(7)), tuple(f"m{j}" for j in range(4)), values
    )
    path = tmp_path / "matrix.csv"
    write_matrix_csv(matrix, path)
    back = read_matrix_csv(path)
    assert back.origin_ids == matrix.origin_ids
    assert back.destination_ids == matrix.destination_ids
    assert np.array_equal(back.values, matrix.values)

    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header.split(",")[0] == "zone_id"
    assert header.split(",")[1:] == ["m0", "m1", "m2", "m3"]


def test_matrix_csv_errors_name_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("zone_id,m1,m2\nz1,1.0\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"m\.csv:2.*expected 3 cells"):
        read_matrix_csv(path)
    path.write_text("zone_id,m1\nz1,abc\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"m\.csv:2"):
        read_matrix_csv(path)
    path.write_text("not,a,matrix\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"m\.csv:1"):
        read_matrix_csv(path)
    path.write_text("zone_id,m1\nz1,1.0\nz2,2.0\nz1,3.0\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"m\.csv: repeated origin ids: z1$"):
        read_matrix_csv(path)
    path.write_text("zone_id\nz1\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"m\.csv:1: no museum columns$"):
        read_matrix_csv(path)
    path.write_text("zone_id,m1\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"m\.csv: no zone rows$"):
        read_matrix_csv(path)


# --- sweeps ---


def sweep_fixture():
    zones = [make_zone(f"z{i}", 53.70 + 0.02 * i, -1.60, population=1000.0) for i in range(3)]
    museums = [make_museum("m1", 53.70, -1.55), make_museum("m2", 53.76, -1.55)]
    spec = ModelSpec(deterrence=Deterrence("exponential", 0.5))
    observed = unconstrained_flows(zones, museums, spec)
    return zones, museums, observed


def test_sweep_csv_and_json(tmp_path):
    zones, museums, observed = sweep_fixture()
    # beta 0 on equal populations gives a constant matrix, so r is undefined there
    sweep = sweep_beta(zones, museums, observed, ModelSpec(), grid=BetaGrid(0.0, 0.25, 5))
    assert math.isnan(sweep.r_values[0])

    csv_path = tmp_path / "sweep.csv"
    write_sweep_csv(sweep, csv_path)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["beta", "r", "rms", "spec"]
    assert len(rows) == 6
    assert math.isnan(float(rows[1][1]))
    assert float(rows[3][0]) == pytest.approx(0.5)
    assert rows[1][3] == "baseline"

    json_path = tmp_path / "sweep.json"
    write_sweep_json(sweep, json_path)
    doc = json.loads(json_path.read_text(encoding="utf-8"))
    assert doc["spec"] == "baseline"
    assert doc["best_beta"] == pytest.approx(sweep.best_beta)
    assert doc["points"][0]["r"] is None
    assert len(doc["points"]) == 5


# --- reports and homes ---


def test_report_round_trip_and_formatting(tmp_path):
    report = PipelineReport(
        (
            StageCount("bot-removal", 100, 90, 9),
            StageCount("semantic", 90, 30, 8),
        )
    )
    path = tmp_path / "report.json"
    write_report_json(report, path)
    assert read_report_json(path) == report
    text = format_report(report)
    assert "bot-removal" in text and "semantic" in text
    assert "90.0%" in text and "33.3%" in text


@pytest.mark.parametrize("doc", [[], {}, {"stages": {}}, {"stages": None}])
def test_a_report_without_a_stages_list_names_the_file(tmp_path, doc):
    path = dump(doc, tmp_path / "report.json")
    with pytest.raises(DataFormatError) as info:
        read_report_json(path)
    assert str(info.value) == f"{path}: expected an object with a 'stages' list"


def test_homes_csv(tmp_path):
    homes = make_homes([
        UserHome("alice", GridCell(5, 7), 4, zone_id="zA"),
        UserHome("bob", GridCell(-1, 0), 2, zone_id=None),
    ])
    path = tmp_path / "homes.csv"
    write_homes_csv(homes, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["user_id", "cell_ix", "cell_iy", "tweet_count_at_cell", "zone_id"]
    assert rows[1] == ["alice", "5", "7", "4", "zA"]
    assert rows[2] == ["bob", "-1", "0", "2", ""]


# --- flow lines ---


def test_flow_lines_skip_zeros_and_use_lon_lat(tmp_path):
    zones = [make_zone("zA", 53.70, -1.60), make_zone("zB", 53.72, -1.60)]
    museums = [make_museum("m1", 53.71, -1.55), make_museum("m2", 53.73, -1.55)]
    matrix = FlowMatrix(("zA", "zB"), ("m1", "m2"), [[2.0, 0.0], [0.0, 1.0]])
    path = tmp_path / "flows.geojson"
    write_flow_lines(matrix, zones, museums, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["type"] == "FeatureCollection"
    assert len(doc["features"]) == 2
    counts = sorted(f["properties"]["count"] for f in doc["features"])
    assert counts == [1, 2]
    first = next(f for f in doc["features"] if f["properties"]["origin"] == "zA")
    assert first["properties"]["destination"] == "m1"
    assert first["geometry"]["coordinates"][0] == [-1.60, 53.70]
    assert first["geometry"]["coordinates"][1] == [-1.55, 53.71]

    orphan = FlowMatrix(("zX",), ("m1",), [[1.0]])
    with pytest.raises(DataFormatError, match="'zX'"):
        write_flow_lines(orphan, zones, museums, path)
    orphan = FlowMatrix(("zA",), ("m1", "mX"), [[1.0, 0.0]])  # named though its only cell is zero
    with pytest.raises(DataFormatError, match="^flow matrix references unknown museum id 'mX'$"):
        write_flow_lines(orphan, zones, museums, path)


# --- synthetic corpus through the file layer ---


def test_synthetic_corpus_survives_serialization(tmp_path):
    region = demo_region(6, 3, seed=1)
    cfg = SynthConfig(
        true_spec=ModelSpec(deterrence=Deterrence("exponential", 0.95)), n_trips=120, seed=4
    )
    corpus, truth = generate_corpus(region.zones, region.museums, cfg, region.ref)

    tweets_path = tmp_path / "corpus.ndjson"
    write_tweets(corpus, tweets_path)
    zones_path = tmp_path / "zones.geojson"
    write_zones(region.zones, region.ref, zones_path)
    museums_path = tmp_path / "museums.geojson"
    write_museums(region.museums, museums_path)

    tweets = read_tweets(tweets_path)
    zones, ref = read_zones(zones_path)
    museums = read_museums(museums_path)
    result = run_pipeline(tweets, zones, museums, ref)
    assert np.array_equal(result.matrix.values, truth.values)

    matrix_path = tmp_path / "truth.csv"
    write_matrix_csv(truth, matrix_path)
    assert np.array_equal(read_matrix_csv(matrix_path).values, truth.values)
