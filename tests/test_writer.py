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
"""

import json
import os
import tempfile
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from museumflows import fileio
from museumflows.fileio import read_tweets, write_tweets
from museumflows.geometry import GeoPoint
from museumflows.pipeline import Corpus, Tweet, _CorpusBuilder

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
