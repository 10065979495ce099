"""The column NDJSON writer against the per-row encoder it replaced.

``row_writer`` below is that writer as it stood: each row of the corpus
rebuilt as a :class:`Tweet`, its stamp given by ``isoformat`` with a zero
offset written ``Z``, and the row dict encoded by
``json.JSONEncoder(sort_keys=True, ensure_ascii=False)``. The column writer
must write the same bytes for any corpus. Hypothesis builds corpora over
every stamp form (strict UTC to the second and to the microsecond, fixed
offsets, naive stamps, a zero-offset zone that is not ``timezone.utc``,
years 0001 and 9999), strings json has to escape and coordinates at their
limits; the slice size is patched down so that slices hold mixed rows.

flows.geojson and sweep.json are written from one f-string per feature or
point. Their oracle is the payload the writers built before, encoded as
``_dump_json`` still encodes the small files: every byte must match, and a
value the encoder refuses must raise as it did, before any file is made.
"""

import dataclasses
import json
import math
import os
import tempfile
from types import SimpleNamespace
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from conftest import make_museum, make_zone
from hypothesis import example, given, settings
from hypothesis import strategies as st

from museumflows import fileio
from museumflows.calibration import SweepResult, spec_name
from museumflows.fileio import read_tweets, write_flow_lines, write_sweep_json, write_tweets
from museumflows.geometry import GeoPoint
from museumflows.pipeline import Corpus, Tweet, _CorpusBuilder
from museumflows.sim import FlowMatrix, ModelSpec

ENCODE = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
GMT = timezone(timedelta(0), "GMT")
ZERO_ZONES = [timezone.utc, GMT, None]
ZONES = ZERO_ZONES + [timezone(timedelta(hours=5, minutes=45)), timezone(-timedelta(hours=5, minutes=30))]


def row_writer(tweets, path):
    with open(path, "w", encoding="utf-8") as fh:
        for t in Corpus.from_tweets(tweets):
            obj = {
                "id": t.id,
                "user_id": t.user_id,
                "timestamp": t.timestamp.isoformat().replace("+00:00", "Z"),
                "lat": t.location.lat,
                "lon": t.location.lon,
                "text": t.text,
            }
            if t.source is not None:
                obj["source"] = t.source
            fh.write(ENCODE(obj) + "\n")


def written(writer, tweets) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.ndjson")
        writer(tweets, path)
        with open(path, "rb") as fh:
            return fh.read()


# quotes, backslashes, control characters, U+2028 and U+2029, non-BMP
TRICKY = '"\\/\x00\x01\x1f\x7f\b\f\n\r\t  é☕\U0001F600\U0010FFFF'
strings = st.text(st.one_of(st.sampled_from(TRICKY), st.characters(exclude_categories=("Cs",))), max_size=12)

# local wall times whose UTC instant stays inside datetime's range in every zone
wall = st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30))
stamps = st.one_of(
    st.tuples(st.one_of(wall, wall.map(lambda d: d.replace(microsecond=0))), st.sampled_from(ZONES)),
    st.tuples(
        st.sampled_from([
            datetime(1, 1, 1), datetime(1, 1, 1, microsecond=1),
            datetime(9999, 12, 31, 23, 59, 59), datetime(9999, 12, 31, 23, 59, 59, 999999),
        ]),
        st.sampled_from(ZERO_ZONES),
    ),
).map(lambda pair: pair[0].replace(tzinfo=pair[1]))


def limits(bound):
    return st.one_of(
        st.floats(-bound, bound),
        st.sampled_from([-0.0, 0.0, bound, -bound, 5e-324, -5e-324, 2.2250738585072014e-308 / 3]),
    )


@st.composite
def tweets(draw):
    ids = draw(st.lists(st.text(st.sampled_from(TRICKY + "ab1"), min_size=1, max_size=6), unique=True, max_size=24))
    users = st.sampled_from(["u", "v", 'q"\\', "\U0001F600"])
    return [
        Tweet(tid, draw(users), draw(stamps), GeoPoint(draw(limits(90.0)), draw(limits(180.0))), draw(strings),
              draw(st.one_of(st.none(), strings)))
        for tid in ids
    ]


@settings(max_examples=200, deadline=None)
@given(tweets(), st.integers(1, 6))
@example(
    [
        Tweet("a", "u", datetime(2013, 6, 1, 12, tzinfo=timezone.utc), GeoPoint(-0.0, 180.0), "", None),
        Tweet("b", "u", datetime(2013, 6, 1, 12, 0, 0, 5, tzinfo=GMT), GeoPoint(90.0, -180.0), " \"\\", "web"),
        Tweet("c", "v", datetime(1, 1, 1), GeoPoint(5e-324, -0.0), "\U0001F600\x00", None),
        Tweet("d", "v", datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc), GeoPoint(-90.0, 0.0), "x", ""),
        Tweet("e", "u", datetime(2013, 6, 1, 17, 45, tzinfo=ZONES[3]), GeoPoint(53.8, -1.55), "y", "app"),
    ],
    2,
)
def test_column_writer_matches_the_row_writer(rows, slice_rows):
    with mock.patch.object(fileio, "_WRITE_ROWS", slice_rows):
        got = written(write_tweets, Corpus.from_tweets(rows))
    assert got == written(row_writer, rows)
    # a naive stamp reads back as UTC and gains its Z; every other stamp keeps its bytes
    aware = [t if t.timestamp.tzinfo else Tweet(t.id, t.user_id, t.timestamp.replace(tzinfo=timezone.utc), t.location,
                                                  t.text, t.source) for t in rows]
    with tempfile.TemporaryDirectory() as tmp:
        first, again = os.path.join(tmp, "first.ndjson"), os.path.join(tmp, "again.ndjson")
        write_tweets(Corpus.from_tweets(aware), first)
        write_tweets(read_tweets(first), again)
        with open(first, "rb") as a, open(again, "rb") as b:
            assert b.read() == a.read()


def test_a_corpus_longer_than_a_slice_matches_the_row_writer():
    rng = np.random.default_rng(8)
    n = 3 * fileio._WRITE_ROWS + 17
    stamp_us = 1_370_000_000_000_000 + rng.integers(0, 10**12, n)
    stamp_us -= np.where(rng.random(n) < 0.7, stamp_us % 1_000_000, 0)  # mostly whole seconds
    rows = _CorpusBuilder()
    rows.extend(
        [f"t{k}" for k in range(n)], [f"u{k % 97}" for k in range(n)], stamp_us,
        [ZONES[k] for k in rng.integers(0, len(ZONES), n)],
        rng.uniform(-90.0, 90.0, n), rng.uniform(-180.0, 180.0, n),
        [f"msg {k} ☕" for k in range(n)], [None if k % 3 else "web" for k in range(n)],
    )
    corpus = rows.corpus()
    assert written(write_tweets, corpus) == written(row_writer, list(corpus))


# --- flows.geojson and sweep.json ---


def encoded(payload) -> bytes:
    """The bytes ``_dump_json`` writes for a payload."""
    return (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, ensure_ascii=False) + "\n").encode("utf-8")


def flow_payload(matrix, zones, museums):
    """The flows.geojson payload as the per-cell loop built it."""
    zone_by_id, museum_by_id = {z.id: z for z in zones}, {m.id: m for m in museums}
    features = []
    for i, zid in enumerate(matrix.origin_ids):
        for j, mid in enumerate(matrix.destination_ids):
            count = float(matrix.values[i, j])
            if count <= 0.0:
                continue
            z, m = zone_by_id[zid], museum_by_id[mid]
            line = [[z.centroid.lon, z.centroid.lat], [m.location.lon, m.location.lat]]
            props = {"origin": zid, "destination": mid, "count": int(count) if count.is_integer() else count}
            features.append({"type": "Feature", "properties": props, "geometry": {"type": "LineString", "coordinates": line}})
    return {"type": "FeatureCollection", "features": features}


def sweep_payload(sweep):
    """The sweep.json payload as it was built, a NaN r as None."""
    return {
        "spec": spec_name(sweep.spec),
        "best_beta": sweep.best_beta,
        "best_r": sweep.best_r,
        "best_rms": sweep.best_rms,
        "points": [
            {"beta": b, "r": None if math.isnan(r) else r, "rms": rms}
            for b, r, rms in zip(sweep.betas, sweep.r_values, sweep.rms_values)
        ],
    }


def template_written(writer, *args):
    """(bytes, None, True): the file ``writer(*args, path)`` wrote; or (None, its ValueError, whether a file was made)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        try:
            writer(*args, path)
        except ValueError as exc:
            return None, exc, os.path.exists(path)
        with open(path, "rb") as fh:
            return fh.read(), None, True


IDS = st.text(st.sampled_from(TRICKY + "zm09"), min_size=1, max_size=6)
COUNTS = st.one_of(
    st.just(0.0), st.integers(0, 10**6).map(float), st.floats(0.0, 1e22, allow_nan=False), st.just(1e20), st.just(2.5)
)


@st.composite
def flow_inputs(draw):
    """Zones, museums and a matrix over some of them: tricky ids, coordinates anywhere, counts of every kind."""
    zone_ids = draw(st.lists(IDS, max_size=4, unique=True))
    museum_ids = draw(st.lists(IDS, max_size=4, unique=True))
    lat, lon = st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)
    zones = [make_zone(zid, draw(lat), draw(lon)) for zid in zone_ids]
    museums = [make_museum(mid, draw(lat), draw(lon)) for mid in museum_ids]
    values = [[draw(COUNTS) for _ in museum_ids] for _ in zone_ids]
    matrix = FlowMatrix(tuple(zone_ids), tuple(museum_ids), np.array(values, dtype=float).reshape(len(zone_ids), len(museum_ids)))
    return matrix, zones, museums


@settings(max_examples=200, deadline=None)
@given(flow_inputs())
@example((FlowMatrix(("z",), ("m",), [[0.0]]), [make_zone("z", 53.7, -1.8)], [make_museum("m", 53.7, -1.7)]))
@example((FlowMatrix(("z\"\u2028é",), ("m\x00☕",), [[1e20]]), [make_zone("z\"\u2028é", -90.0, 180.0)],
          [make_museum("m\x00☕", 5e-324, -0.0)]))
def test_flow_lines_are_the_bytes_the_encoder_wrote(drawn):
    matrix, zones, museums = drawn
    got, error, _ = template_written(write_flow_lines, matrix, zones, museums)
    assert error is None
    assert got == encoded(flow_payload(matrix, zones, museums))


SWEEP_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def sweeps(draw):
    """A sweep of any length, NaN r included, over every spec name."""
    n = draw(st.integers(0, 8))
    spec = ModelSpec(use_attractiveness=draw(st.booleans()), use_demand=draw(st.booleans()))
    return SweepResult(
        betas=tuple(draw(SWEEP_FLOATS) for _ in range(n)),
        r_values=tuple(draw(st.one_of(st.floats(-1.0, 1.0), st.just(math.nan))) for _ in range(n)),
        rms_values=tuple(draw(SWEEP_FLOATS) for _ in range(n)),
        best_beta=draw(SWEEP_FLOATS), best_r=draw(st.floats(-1.0, 1.0)), best_rms=draw(SWEEP_FLOATS), spec=spec,
    )


@settings(max_examples=200, deadline=None)
@given(sweeps())
def test_sweep_json_is_the_bytes_the_encoder_wrote(sweep):
    got, error, _ = template_written(write_sweep_json, sweep)
    assert error is None
    assert got == encoded(sweep_payload(sweep))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_value_the_encoder_refuses_raises_and_writes_no_file(bad):
    zones, museums = [make_zone("z", 53.7, -1.8)], [make_museum("m", 53.7, -1.7), make_museum("n", 53.8, -1.7)]
    unchecked = SimpleNamespace(origin_ids=("z",), destination_ids=("m", "n"), values=np.array([[1.0, bad]]))
    _, error, made = template_written(write_flow_lines, unchecked, zones, museums)
    if bad < 0:  # a count at or below zero is no flow
        assert error is None and made
    else:
        assert isinstance(error, ValueError) and not made
    sweep = SweepResult((0.5, 1.0), (0.9, 0.8), (1.0, 2.0), 0.5, 0.9, 1.0, ModelSpec())
    fields = [("betas", (0.5, bad)), ("rms_values", (1.0, bad)), ("best_beta", bad), ("best_r", bad), ("best_rms", bad)]
    if not math.isnan(bad):
        fields.append(("r_values", (0.9, bad)))  # a NaN r is null
    for name, value in fields:
        _, error, made = template_written(write_sweep_json, dataclasses.replace(sweep, **{name: value}))
        assert isinstance(error, ValueError) and not made, name
