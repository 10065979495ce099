"""The chunked NDJSON reader against the per-line reader it replaced.

``line_reader`` below is that reader as it stood: each line decoded,
parsed with ``json.loads`` and converted into a :class:`Tweet` on its own,
so the first bad line raises, and the Tweets encoded by
``Corpus.from_tweets``. It has since learnt two rules: a stamp whose UTC
instant a ``datetime`` cannot hold is a bad line, and so is a line with a
number or a nesting that ``json.loads`` or ``float`` cannot take. The
chunked reader must give the same columns, or raise the same message, on
any input. Hypothesis builds files from valid records, records with every
value the per-line reader converts or rejects, and raw lines that are not
records; the chunk size is patched down so that chunk boundaries fall
between (and around) them. The last tests read with ``keep_text``, which
blanks the texts the semantic filter would drop: every check must still
see the real text, the pipeline's outputs must not change, and the semantic
stage, which takes such a read's verdict from its blanks, must keep the rows
and counts its scan of a plain read keeps.
"""

import json
import os
import re
import tempfile
import tracemalloc
from contextlib import nullcontext
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from conftest import assert_same_outcome, corpus_columns, home_rows, outcome
from hypothesis import example, given, settings
from hypothesis import strategies as st

from museumflows import fileio, pipeline
from museumflows.errors import DataFormatError, InvalidAttributeError
from museumflows.fileio import read_tweets, write_tweets
from museumflows.geometry import GeoPoint
from museumflows.pipeline import DEFAULT_KEYWORDS, Corpus, Tweet, _CorpusBuilder, _located_homes, _utc_us, run_pipeline, semantic_filter
from museumflows.sim import Deterrence, ModelSpec
from museumflows.synth import SynthConfig, demo_region, generate_corpus

FIELDS = ("id", "user_id", "timestamp", "lat", "lon", "text")


def parse_timestamp(raw, path, line_no):
    if not isinstance(raw, str):
        raise DataFormatError(f"{path}:{line_no}: timestamp must be an ISO-8601 string")
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError as exc:
        raise DataFormatError(f"{path}:{line_no}: bad timestamp {raw!r}") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    try:
        stamp.astimezone(timezone.utc)  # the row could not be rebuilt
    except OverflowError as exc:
        raise DataFormatError(
            f"{path}:{line_no}: timestamp {raw!r} is outside 0001-01-01T00:00:00Z .. 9999-12-31T23:59:59.999999Z"
        ) from exc
    return stamp


def line_reader(path):
    rows = []
    seen = set()
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                where = f"{path}:{line_no}"
                raise DataFormatError(
                    f"{where}: not valid UTF-8: byte 0x{exc.object[exc.start]:02x}, {exc.reason}"
                ) from exc
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path}:{line_no}: invalid JSON: {exc.msg}") from exc
            except (ValueError, RecursionError) as exc:
                raise DataFormatError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise DataFormatError(f"{path}:{line_no}: expected a JSON object")
            if not obj.keys() >= set(FIELDS):
                missing = [k for k in FIELDS if k not in obj]
                raise DataFormatError(f"{path}:{line_no}: missing fields {', '.join(missing)}")
            tid, source = str(obj["id"]), obj.get("source")
            stamp = parse_timestamp(obj["timestamp"], path, line_no)
            try:
                lat, lon = float(obj["lat"]), float(obj["lon"])
                rows.append(Tweet(tid, str(obj["user_id"]), stamp, GeoPoint(lat, lon), str(obj["text"]),
                                  None if source is None else str(source)))
            except (TypeError, ValueError, OverflowError) as exc:
                raise DataFormatError(f"{path}:{line_no}: {exc}") from exc
            if tid in seen:
                raise DataFormatError(f"{path}:{line_no}: duplicate tweet id {tid!r}")
            seen.add(tid)
    return Corpus.from_tweets(rows)


def assert_same_read(got, expected, *context):
    """Two readers' outcomes agree: the same error field by field, or Corpora with the same columns."""
    if assert_same_outcome(got, expected, *context):
        assert corpus_columns(got[1]) == corpus_columns(expected[1]), context


def check_same(data: bytes, chunk_bytes: int):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.ndjson")
        with open(path, "wb") as fh:
            fh.write(data)
        with mock.patch.object(fileio, "_CHUNK_BYTES", chunk_bytes):
            got = outcome(read_tweets, path)
        expected = outcome(line_reader, path)
    assert_same_read(got, expected)
    return got


def record(tid="1", user="u", stamp="2013-06-01T12:00:00Z", lat=53.8, lon=-1.5, text="hi", **extra):
    return json.dumps({"id": tid, "user_id": user, "timestamp": stamp, "lat": lat, "lon": lon, "text": text, **extra})


GOOD = record()

# A pair of lines each not JSON on its own, which one json.loads over the
# lines, each wrapped in an array, would take for two valid records.
BRACKET_PAIR = (
    record("p1")[:-1] + ', "k": 1}], [{"k": [[{"a": 1}',
    '{"b": 2}]], ' + record("p2")[1:],
)
# The same trick without brackets, for a join that wraps nothing.
BRACE_PAIR = (record("q1") + ", " + record("q2")[:-1], '"extra": 1}')

STAMPS = (
    "2013-06-01T12:00:00Z",
    "2013-06-01T12:00:00z",
    "2013-06-01T12:00:00+00:00",
    "2013-06-01T12:00:00.000001Z",
    "2013-06-01T12:00:00.123456+00:00",
    "2013-06-01T12:00:00.5Z",
    "2013-06-01T14:00:00+02:00",
    "2013-06-01T06:30:00-05:30",
    "2013-06-01T12:00:00",
    "2013-06-01",
    " 2013-06-01T12:00:00Z ",
    "2013-06-01T12:00:00Z\n",
    "0000-06-01T12:00:00Z",
    "0001-01-01T00:00:00Z",
    "9999-12-31T23:59:59.999999Z",
    "9999-12-31T23:00:00-05:30",
    "0001-01-01T00:30:00+01:00",
    "0001-01-01T00:00:00-00:01",
    "1969-12-31T23:59:59.999999Z",
    "2012-02-29T12:00:00Z",
    "2013-02-29T12:00:00Z",
    "2013-02-30T12:00:00Z",
    "2013-04-31T12:00:00Z",
    "2013-13-01T12:00:00Z",
    "2013-06-01T24:00:00Z",
    "2013-06-01T23:59:60Z",
    "2013-06-01 12:00:00Z",
    "２０１３-06-01T12:00:00Z",
    "yesterday",
    "",
    "2013-06-01T13:00:00+01:00",
    "2013-06-01T12:00:00.250000-05:30",
    "2013-06-01T12:00:00-00:00",
    "2013-06-02T11:59:00+23:59",
    "2013-06-01T12:00:00+24:00",
    "2013-06-01T12:00:00+01:60",
    "0000-12-31T23:00:00-05:30",
    "2013+06-01T12:00:00+01:00",
    "2013-06-01T12:00:00Z\n2013-06-01T12:00:00Z",
)

# Stamps for runs of records: strict UTC in each of its four shapes, which
# a chunk may mix and stay in bulk, and two more that send it by line.
RUN_STAMPS = (
    "2013-06-01T12:00:00Z",
    "2013-06-01T12:00:00.250000Z",
    "2013-06-01T12:00:00+00:00",
    "2013-06-01T12:00:00.000001+00:00",
    "2013-06-01T13:00:00+01:00",
    "0000-06-01T12:00:00+00:00",
)


def sometimes(draw, odds=5):
    return draw(st.integers(0, odds - 1)) == 0


def coordinate(draw, valid):
    if not sometimes(draw):
        return draw(st.one_of(st.floats(valid - 0.01, valid + 0.01), st.sampled_from([valid, -0.0, 90.0, -180.0])))
    return draw(st.one_of(
        st.floats(-200.0, 200.0),
        st.sampled_from([90.5, -180.5, float("nan"), float("inf"), float("-inf")]),
        st.integers(-100, 100),
        st.sampled_from(["53.8", "north", True, False, None, "nan"]),
    ))


@st.composite
def records(draw, stamps=STAMPS[:12]):
    """A line holding a record; each field is now and then one the per-line reader converts or rejects."""
    text = st.one_of(
        st.sampled_from(["hi", "museum [day] out", "a ] b", "Straße ☕", "x" * 280, "tab\there"]),
        st.text(max_size=12),
    )
    fields = {
        "id": draw(st.sampled_from(["1", "2"])) if sometimes(draw) else str(draw(st.integers(3, 10**9))),
        "user_id": draw(st.sampled_from(["u", "v", "é"])),
        "timestamp": draw(st.sampled_from(stamps)),
        "lat": coordinate(draw, 53.8),
        "lon": coordinate(draw, -1.5),
        "text": draw(text),
    }
    if sometimes(draw):
        fields[draw(st.sampled_from(FIELDS))] = draw(st.one_of(
            st.integers(0, 6), st.none(), st.just(""), st.sampled_from(STAMPS), st.just("x" * 281)
        ))
    source = draw(st.sampled_from(["absent", "absent", None, "web", "4sq [app]", 7]))
    if source != "absent":
        fields["source"] = source
    if sometimes(draw, 8):
        del fields[draw(st.sampled_from(FIELDS))]
    keys = draw(st.permutations(list(fields)))
    line = "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(fields[k])}" for k in keys) + "}"
    if sometimes(draw):  # a repeated key: the last one counts
        key = draw(st.sampled_from(FIELDS))
        value = draw(st.sampled_from(["7", 53.5, "2013-06-01T12:00:00Z"]))
        line = line[:-1] + f", {json.dumps(key)}: {json.dumps(value)}}}"
    return line


def unique_records(n):
    return [record(f"r{k}", f"u{k % 3}", text=f"t{k}") for k in range(n)]


raw_lines = st.sampled_from([
    "", "   ", "\t", "\x0c", "\u3000", "\ufeff" + GOOD, GOOD + " {}", "[1, 2]", " [" + GOOD + "] ", "{not json",
    '"a string"', "7", "null", "{}", GOOD.replace("53.8", "NaN"), GOOD.replace("53.8", "Infinity"),
    GOOD.replace("53.8", "-Infinity"), '{"k": ' * 40 + "1" + "}" * 40, b"\xe9t\xe9", b"\xff" + GOOD.encode(),
    record("two1") + ", " + record("two2"),
    GOOD.replace("53.8", "9" * 400),  # no float holds it
    GOOD.replace("53.8", "9" * 4301),  # more digits than int() takes from a string
    GOOD[:-1] + ', "source": ' + "[" * 2000 + "]" * 2000 + "}",  # nested deeper than json.loads goes
    GOOD[:-1] + ', "source": ' + '{"k": ' * 2000 + "1" + "}" * 2001,
])

# one item is one line, a pair of lines that go together, or a run of
# records whose stamps are strict UTC most of the time
items = st.one_of(
    records().map(lambda line: [line]),
    records().map(lambda line: [line]),
    records().map(lambda line: [line]),
    raw_lines.map(lambda line: [line]),
    st.sampled_from(unique_records(8)).map(lambda line: [line]),
    st.sampled_from([list(BRACKET_PAIR), list(BRACE_PAIR)]),
    st.lists(records(RUN_STAMPS[:4]), min_size=1, max_size=6),
    st.lists(records(RUN_STAMPS), min_size=1, max_size=6),
)


def assemble(parts, endings, tail=b""):
    data = b""
    for part, ending in zip(parts, endings):
        data += (part if isinstance(part, bytes) else part.encode("utf-8")) + ending
    return data + tail


@settings(max_examples=400, deadline=None)
@given(st.lists(items, max_size=10), st.data(), st.integers(1, 400))
@example([list(BRACKET_PAIR)], None, 1 << 20)
@example([list(BRACE_PAIR)], None, 1 << 20)
@example([[record("a", stamp=RUN_STAMPS[1]), record("b", stamp=RUN_STAMPS[2], text="[pic]"),
           record("c", stamp=RUN_STAMPS[3])]], None, 1 << 20)
@example([[record("a", stamp=RUN_STAMPS[2]), record("b", stamp=RUN_STAMPS[-1]), " [1, 2]", "{broken"]],
         None, 1 << 20)
def test_chunked_reader_matches_the_line_reader(items, data, chunk_bytes):
    parts = [line for item in items for line in item]
    if data is None:
        endings, tail = [b"\n"] * len(parts), b""
    else:
        endings = data.draw(st.lists(st.sampled_from([b"\n", b"\r\n"]), min_size=len(parts), max_size=len(parts)))
        tail = data.draw(st.sampled_from([b"", b"\n", GOOD.encode("utf-8"), b"\r"]))
    check_same(assemble(parts, endings, tail), chunk_bytes)


FAULTS = {
    "dup": record("r0", text="again"),  # the id of the first line
    "bad": record("late", lat=91.0),
    "bom": "\ufeff" + record("bom"),
    "not utf-8": b"\xff" + record("x").encode(),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_fault_right_after_a_chunk_boundary_is_reported_at_its_line(fault):
    good = unique_records(30)
    for k in (1, 7, 29):
        parts = good[:k] + [FAULTS[fault]] + good[k:]
        first_chunk = len(assemble(good[:k], [b"\n"] * k))  # the first block ends with line k's newline
        got = check_same(assemble(parts, [b"\n"] * len(parts)), first_chunk)
        assert got[0] == "error" and f"t.ndjson:{k + 1}: " in got[2]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(1, 600), st.sampled_from(sorted(FAULTS) + ["none"]))
def test_a_fault_anywhere_is_reported_at_its_line(k, chunk_bytes, fault):
    good = unique_records(30)
    parts = good[:k] + [FAULTS.get(fault, record("fine"))] + good[k:]
    got = check_same(assemble(parts, [b"\n"] * len(parts)), chunk_bytes)
    assert (got[0] == "ok") == (fault == "none")
    if fault != "none":
        assert f"t.ndjson:{k + 1}: " in got[2]


# Small files read at every block size from one byte up, so that a block
# edge falls at every offset: inside a line longer than a block, between a
# \r and its \n, and after a last line with no newline. "clean" files must
# stay in bulk at every edge. The last two fail after other chunks went
# in: one repeats an id of a chunk read by line, which only the check after
# the last chunk finds; in the other a column check fails in the chunk
# after the ids. Each is reported at its line by the second, per-line read
# of the file. The last keeps its name from the set of ids seen that the
# reader once kept.
BLOCK_EDGE_FILES = {
    "a line longer than a block": ([record("1"), record("long", text="x" * 280), record("3")], b"\n", "clean"),
    "crlf": ([record("1"), record("2", source="web"), record("3")], b"\r\n", "clean"),
    "a lone cr": ([record("1")[:-1] + "\r}", "\r" + record("2").replace(", ", ",\r"), record("3")], b"\n", "clean"),
    "a bad line after a lone cr": ([record("1")[:-1] + "\r}", record("2"), "{broken"], b"\n", "invalid JSON"),
    "a repeated id in the chunk after one that fell back": (
        [record("a", stamp="2013-06-01T12:00:00", text="x" * 200), record("b"), record("a")], b"\n",
        "duplicate tweet id 'a'",
    ),
    "a column check failing after the ids went into seen": (
        [record("a"), record("b"), record("c", text="x" * 281)], b"\n", "tweet c: text has 281 code points"
    ),
}


@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("name", sorted(BLOCK_EDGE_FILES))
def test_every_block_edge_reads_as_the_line_reader_reads(tmp_path, name, final_newline):
    lines, ending, expect = BLOCK_EDGE_FILES[name]
    data = ending.join(line.encode("utf-8") for line in lines) + (ending if final_newline else b"")
    path = tmp_path / "t.ndjson"
    path.write_bytes(data)
    expected = outcome(line_reader, path)
    if expect == "clean":
        assert expected[0] == "ok"
    else:
        assert expected[0] == "error" and f"t.ndjson:3: {expect}" in expected[2]
    for chunk_bytes in range(1, len(data) + 2):
        with mock.patch.object(fileio, "_CHUNK_BYTES", chunk_bytes), bulk_only() if expect == "clean" else nullcontext():
            assert_same_read(outcome(read_tweets, path), expected, chunk_bytes)


class SameHash(str):
    """A str whose hash is one constant, so that distinct ids collide."""

    def __hash__(self):
        return 7


def test_repeats_tells_equal_ids_from_ids_that_share_a_hash():
    assert not fileio._repeats([])
    assert not fileio._repeats(["a"])
    assert not fileio._repeats([SameHash("a"), SameHash("b")])
    assert fileio._repeats([SameHash("a"), "b", SameHash("a")])
    assert fileio._repeats(["a", "b", "c", "b"])
    assert not fileio._repeats([f"id{k}" for k in range(1000)])


def test_a_repeat_across_chunks_is_reported_at_its_later_line():
    good = unique_records(40)
    parts = good[:30] + [record("r3", text="again")] + good[30:]
    got = check_same(assemble(parts, [b"\n"] * len(parts)), 200)  # a few lines per chunk
    assert got[0] == "error" and got[2].endswith("t.ndjson:31: duplicate tweet id 'r3'")


def test_a_repeat_before_a_bad_line_in_a_later_chunk_is_the_one_reported():
    good = unique_records(40)
    parts = good[:20] + [record("r1", text="again")] + good[20:] + [record("late", lat=91.0)]
    got = check_same(assemble(parts, [b"\n"] * len(parts)), 200)
    assert got[0] == "error" and got[2].endswith("t.ndjson:21: duplicate tweet id 'r1'")


def test_a_repeat_between_a_bulk_chunk_and_an_offset_chunk_is_reported():
    bulk = unique_records(10)
    offset = [record(tid, stamp="2013-06-01T13:00:00+01:00") for tid in ("o1", "o2", "o3", "o4", "o5", "r2", "o6")]
    parts = bulk + offset
    first_chunk = len(assemble(bulk, [b"\n"] * len(bulk)))  # the bulk lines fill the first block
    with by_line_watched() as by_line:
        got = check_same(assemble(parts, [b"\n"] * len(parts)), first_chunk)
    assert by_line.called
    assert got[0] == "error" and got[2].endswith("t.ndjson:16: duplicate tweet id 'r2'")


def read_from_pipe(data: bytes):
    """``read_tweets`` on a pipe that holds ``data``, as ``--tweets <(zcat ...)`` gives one."""
    r, w = os.pipe()
    try:
        os.write(w, data)  # small enough for the pipe's buffer, so no writer thread is needed
        os.close(w)
        w = None
        with mock.patch.object(fileio, "_CHUNK_BYTES", 200):
            return outcome(read_tweets, f"/dev/fd/{r}")
    finally:
        os.close(r)
        if w is not None:
            os.close(w)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to open a pipe by path")
@pytest.mark.parametrize("at", [40, 20], ids=["repeat-at-the-end", "bad-line-mid-stream"])
def test_a_pipe_with_a_bad_line_or_a_repeat_raises_rather_than_read_on(at):
    # A pipe opened again goes on where it stopped: a second pass would read
    # only the rest of the stream, so a stream that cannot seek raises.
    good = unique_records(40)
    bad = record("r1", text="again") if at == 40 else record("late", lat=91.0)
    parts = good[:at] + [bad] + good[at:]
    got = read_from_pipe(assemble(parts, [b"\n"] * len(parts)))
    assert got[0] == "error" and got[1] is DataFormatError
    assert "cannot seek" in got[2]
    clean = assemble(good, [b"\n"] * len(good))
    assert_same_read(read_from_pipe(clean), check_same(clean, 200))


def test_reading_holds_little_beyond_the_corpus_it_keeps(tmp_path):
    # The reader keeps no set of the ids seen, and the builder hands its
    # object columns over one at a time: the peak stays near what is kept.
    region = demo_region(20, 5, seed=7)
    cfg = SynthConfig(true_spec=ModelSpec(deterrence=Deterrence("exponential", 0.95)), n_trips=5000, noise=0.2, seed=3)
    corpus, _ = generate_corpus(region.zones, region.museums, cfg, region.ref)
    path = tmp_path / "t.ndjson"
    write_tweets(corpus.take(np.arange(20_000)), path)
    del corpus
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = read_tweets(path)
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(corpus) == 20_000
    assert peak <= 1.3 * kept, (peak, kept)


def test_bracket_pair_is_an_error_at_its_first_line(tmp_path):
    path = tmp_path / "t.ndjson"
    path.write_text(GOOD + "\n" + "\n".join(BRACKET_PAIR) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"t\.ndjson:2: invalid JSON: Extra data"):
        read_tweets(path)
    path.write_text("\n".join(BRACE_PAIR) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"t\.ndjson:1: invalid JSON"):
        read_tweets(path)


def bulk_only():
    """Patch the per-line reader to fail: the chunk must pass the column checks."""
    return mock.patch.object(fileio, "_extend_by_line", side_effect=AssertionError("chunk fell back"))


def by_line_watched():
    """Watch the per-line reader: its mock records each chunk sent to it."""
    return mock.patch.object(fileio, "_extend_by_line", wraps=fileio._extend_by_line)


# The stamps a chunk may hold and stay in bulk: digits in the strict UTC
# form, from year 0001 on (fields out of range fall back on their own).
STRICT_UTC = {
    s for s in STAMPS
    if re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]{6})?(Z|\+00:00)", s)
    and not s.startswith("0000")
}


def test_strict_utc_stamps_are_read_in_bulk_and_the_rest_by_line(tmp_path):
    assert {"2013-06-01T12:00:00.123456+00:00", "0001-01-01T00:00:00Z", "2013-06-01T24:00:00Z"} <= STRICT_UTC
    assert not {"2013-06-01T12:00:00z", "2013-06-01T12:00:00.5Z", "2013-06-01T14:00:00+02:00"} & STRICT_UTC
    assert not {"2013-06-01T12:00:00-00:00", "2013-06-01T13:00:00+01:00"} & STRICT_UTC
    path = tmp_path / "t.ndjson"
    for stamp in STAMPS:
        for second in (stamp, "2013-06-01T12:00:00Z"):  # one stamp shape, then mixed unless the stamp is plain Z
            path.write_text(record(stamp=stamp) + "\n" + record("2", stamp=second) + "\n", encoding="utf-8")
            expected = outcome(line_reader, path)
            with by_line_watched() as by_line:
                assert_same_read(outcome(read_tweets, path), expected, stamp, second)
            assert by_line.called == (stamp not in STRICT_UTC or expected[0] == "error"), (stamp, second)
    rejected = {s for s in STAMPS if outcome(line_reader, _with_stamp(tmp_path, s))[0] == "error"}
    assert {"0000-06-01T12:00:00Z", "2013-02-30T12:00:00Z", "2013-06-01T23:59:60Z"} <= rejected
    assert {"9999-12-31T23:00:00-05:30", "0001-01-01T00:30:00+01:00"} <= rejected  # outside datetime in UTC
    assert {"2013-06-01T12:00:00+24:00", "0000-12-31T23:00:00-05:30"} <= rejected  # in UTC, 0001-01-01T04:30
    assert "0001-01-01T00:00:00-00:01" not in rejected
    assert "2013-06-01T12:00:00.123456+00:00" not in rejected


def _with_stamp(tmp_path, stamp):
    path = tmp_path / "s.ndjson"
    path.write_text(record(stamp=stamp) + "\n", encoding="utf-8")
    return path


def test_conversions_blank_lines_and_crlf_stay_in_bulk(tmp_path):
    lines = [
        record("1", text="museum day out"), "", record("2", source="4sq app"), "  ", record("3"),
        record(4, 5, lat="53.8", lon=-1, text=6, source=7), record("6", lat=True, lon=False, source=None),
    ]
    path = tmp_path / "t.ndjson"
    path.write_bytes("\r\n".join(lines).encode("utf-8") + b"\r\n")
    expected = outcome(line_reader, path)
    assert expected[0] == "ok"
    with bulk_only():
        assert_same_read(outcome(read_tweets, path), expected)


def test_a_chunk_holding_brackets_stays_in_bulk(tmp_path):
    lines = [
        record("1"), record("2", text="museum [day] out"), record("3"), record("4", source="4sq]"),
        record("5", text="[pic]", source="[app]"), record("6", text="a [ b"),
    ]
    path = tmp_path / "t.ndjson"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = outcome(line_reader, path)
    assert expected[0] == "ok"
    for chunk_bytes in (1, 1 << 16):  # a line per chunk, then one chunk
        with mock.patch.object(fileio, "_CHUNK_BYTES", chunk_bytes), bulk_only():
            assert_same_read(outcome(read_tweets, path), expected)


def test_a_chunk_of_blank_lines_stays_in_bulk(tmp_path):
    # with one-line chunks, each blank line between records is a chunk of its own
    lines = [record("1"), "", record("2"), "  ", "", record("3"), "\t"]
    path = tmp_path / "t.ndjson"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = outcome(line_reader, path)
    assert expected[0] == "ok"
    with mock.patch.object(fileio, "_CHUNK_BYTES", 1), bulk_only():
        assert_same_read(outcome(read_tweets, path), expected)


def test_a_chunk_of_mixed_utc_shapes_stays_in_bulk(tmp_path):
    stamps = ("2013-06-01T12:00:00Z", "2013-06-01T12:00:00.250000+00:00", "2013-06-01T12:00:01+00:00",
              "2013-06-01T12:00:00.000001Z")
    path = tmp_path / "t.ndjson"
    path.write_text("\n".join(record(str(k), stamp=stamps[k % 4]) for k in range(12)) + "\n", encoding="utf-8")
    expected = outcome(line_reader, path)
    assert expected[0] == "ok"
    with bulk_only():
        assert_same_read(outcome(read_tweets, path), expected)


def test_a_chunk_of_offset_stamps_is_read_by_line_and_keeps_its_bytes(tmp_path):
    stamps = ("2013-06-01T12:00:00+00:00", "2013-06-01T13:00:00+01:00", "2013-06-01T06:30:00-05:30")
    lines = [record(str(k), stamp=stamp) for k, stamp in enumerate(stamps + stamps[1:])]
    path = tmp_path / "t.ndjson"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = outcome(line_reader, path)
    assert expected[0] == "ok"
    with by_line_watched() as by_line:
        corpus = read_tweets(path)
    assert by_line.called
    assert corpus_columns(corpus) == corpus_columns(expected[1])
    assert corpus.tzinfos == (timezone.utc, timezone(timedelta(hours=1)), timezone(-timedelta(hours=5, minutes=30)))
    again, last = tmp_path / "again.ndjson", tmp_path / "last.ndjson"
    fileio.write_tweets(corpus, again)
    assert [json.loads(line)["timestamp"] for line in again.read_text().splitlines()] == [
        "2013-06-01T12:00:00Z", *stamps[1:], *stamps[1:]
    ]
    fileio.write_tweets(read_tweets(again), last)
    assert last.read_bytes() == again.read_bytes()


def test_a_row_needing_conversion_keeps_its_chunk_in_bulk(tmp_path):
    clean = [record(str(k)) for k in range(5)]
    path = tmp_path / "t.ndjson"
    for odd in (record(6), record("6", lat="53.8"), record("6", lon=-2), record("6", source="web"), record("6", source=7),
                record("6", user=8), record("6", text=9)):
        path.write_text("\n".join(clean[:2] + [odd] + clean[2:]) + "\n", encoding="utf-8")
        expected = outcome(line_reader, path)
        assert expected[0] == "ok"
        with bulk_only():
            assert_same_read(outcome(read_tweets, path), expected, odd)


def test_bulk_columns_equal_the_line_reader_on_a_large_clean_file(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "t.ndjson"
    with open(path, "w", encoding="utf-8") as fh:
        for k in range(3000):
            stamp = f"2013-06-{1 + k % 28:02d}T{k % 24:02d}:{k % 60:02d}:{(7 * k) % 60:02d}" + ("Z", ".000250Z", "+00:00")[k % 3]
            lat, lon = 53.8 + rng.normal(0, 0.05), -1.5 + rng.normal(0, 0.05)
            fh.write(record(f"id{k}", f"user{k % 97}", stamp, lat, lon, f"text {k}", **({"source": "web"} if k % 5 else {})) + "\n")
    with bulk_only():
        got = check_same(path.read_bytes(), 1 << 12)
    assert got[0] == "ok" and len(got[1]) == 3000


def test_extend_checks_as_a_tweet_does_and_appends_nothing_on_a_fault():
    stamp = datetime(2013, 6, 1, 12, tzinfo=timezone.utc)
    good = ("a", "u", stamp, 53.8, -1.5, "hi", None)
    later = ("c", "w", stamp, -91.0, -1.5, "hi", "web")  # bad as well, but after
    for bad in (
        ("b", "v", stamp, 91.0, -1.5, "x" * 300, None),  # the coordinate is reported, not the text
        ("b", "", stamp, 53.8, -1.5, "hi", None),
        ("b", "v", stamp, 53.8, float("nan"), "hi", None),
        ("b", "v", stamp, 53.8, -1.5, "x" * 281, None),
        ("b", "v", datetime(9999, 12, 31, 23, tzinfo=timezone(-timedelta(hours=5, minutes=30))), 53.8, -1.5, "hi", None),
        ("b", "v", datetime(1, 1, 1, 0, 30, tzinfo=timezone(timedelta(hours=1))), 53.8, -1.5, "hi", None),
    ):
        expected = outcome(tweet, *bad)
        assert expected[0] == "error"
        for keep_text in (None, DEFAULT_KEYWORDS, ()):  # the checks see the real texts, kept or not
            rows = _CorpusBuilder(keep_text)
            extend(rows, good)
            before = corpus_columns(rows.corpus())
            for after in ((later,), ()):
                assert_same_outcome(outcome(extend, rows, good, bad, *after), expected, keep_text)
                assert corpus_columns(rows.corpus()) == before

    plus_two = timezone(timedelta(hours=2))
    rows = _CorpusBuilder()
    extend(rows, good, ("c", "w", stamp.replace(tzinfo=plus_two), 53.0, -1.5, "hé", "web"))
    extend(rows, ("d", "u", stamp.replace(tzinfo=None), -90.0, 180.0, "x" * 280, None))
    noon_us = 1370088000 * 10**6  # 2013-06-01T12:00:00Z
    assert corpus_columns(rows.corpus()) == (
        ["a", "c", "d"], ("u", "w"), [0, 1, 0], [noon_us, noon_us - 7200 * 10**6, noon_us],
        (timezone.utc, plus_two, None), [0, 1, 2], np.array([53.8, 53.0, -90.0]).tobytes(),
        np.array([-1.5, -1.5, 180.0]).tobytes(), ["hi", "hé", "x" * 280], [None, "web", None],
    )


@pytest.mark.parametrize("bad", [
    ("b", "v", 53.8, -1.5, "hi", 7),
    (5, "v", 53.8, -1.5, "hi", None),
    ("b", 5, 53.8, -1.5, "hi", None),
    ("b", "v", 53.8, -1.5, b"hi", None),
], ids=["int-source", "int-id", "int-user-id", "bytes-text"])
def test_extend_rejects_a_field_that_is_not_a_str_as_a_tweet_does(bad):
    # Every other check of these rows passes, so only a test of each column's
    # type keeps them out; a source column mixing str and None is no fault.
    stamp = datetime(2013, 6, 1, 12, tzinfo=timezone.utc)
    tid, user, lat, lon, text, source = bad
    expected = outcome(tweet, tid, user, stamp, lat, lon, text, source)
    assert expected[:2] == ("error", InvalidAttributeError)
    good = [("a", "u", stamp, 53.8, -1.5, "hi", None), ("c", "w", stamp, 53.0, -1.5, "museum", "web")]
    for keep_text in (None, DEFAULT_KEYWORDS, ()):
        rows = _CorpusBuilder(keep_text)
        extend(rows, *good)
        before = corpus_columns(rows.corpus())
        for rest in ((), (good[1],)):
            assert_same_outcome(outcome(extend, rows, good[0], (tid, user, stamp, lat, lon, text, source), *rest), expected, keep_text)
            assert corpus_columns(rows.corpus()) == before


def tweet(tid, user, stamp, lat, lon, text, source):
    return Tweet(tid, user, stamp, GeoPoint(lat, lon), text, source)


def extend(rows, *tweet_rows):
    tids, users, stamps, lat, lon, texts, sources = zip(*tweet_rows)
    rows.extend(tids, users, [_utc_us(s) for s in stamps], [s.tzinfo for s in stamps], lat, lon, texts, sources)


# --- reading with keep_text ---

# Rows whose text holds no keyword, each with one fault that a plain read
# reports at line 3. A source that is not a string is no fault: the reader
# converts it with str before any check, as the line reader does, so that
# row must read as in a plain read, its source blanked with its text.
NON_KEYWORD_FAULTS = {
    "a 281-code-point text": (record("long", text="x" * 281), "t.ndjson:3: tweet long: text has 281 code points, limit is 280"),
    "an empty id": (record("", text="rain again"), "t.ndjson:3: tweet id and user_id must be non-empty"),
    "a repeated id": (record("r1", text="rain again"), "t.ndjson:3: duplicate tweet id 'r1'"),
    "a source that is not a string": (record("s", text="rain again", source=7), None),
}


def blanked(corpus, keeps):
    """The columns of ``corpus`` with the text and source of each row whose id is not in ``keeps`` blanked."""
    columns = corpus_columns(corpus)
    kept = [tid in keeps for tid in columns[0]]
    texts = [text if k else "" for text, k in zip(columns[8], kept)]
    return columns[:8] + (texts, [source if k else None for source, k in zip(columns[9], kept)])


@pytest.mark.parametrize("stamp", ["2013-06-01T12:00:00Z", "2013-06-01T13:00:00+01:00"], ids=["bulk", "by-line"])
@pytest.mark.parametrize("fault", sorted(NON_KEYWORD_FAULTS))
def test_a_read_that_blanks_texts_checks_every_row_first(tmp_path, fault, stamp):
    line, message = NON_KEYWORD_FAULTS[fault]
    lines = [record("r0", stamp=stamp, text="Museum day", source="web"), record("r1", text="rain"), line,
             record("r2", text="the gallery", source="app")]
    path = tmp_path / "t.ndjson"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    plain = outcome(read_tweets, path)
    assert plain[0] == ("ok" if message is None else "error")
    for keep_text, keeps in ((DEFAULT_KEYWORDS, {"r0", "r2"}), ((), set())):
        with by_line_watched() as by_line:
            got = outcome(read_tweets, path, keep_text)
        assert by_line.called == (stamp.endswith("+01:00") or message is not None)
        if assert_same_outcome(got, plain, keep_text):
            assert corpus_columns(got[1]) == blanked(plain[1], keeps)
        else:
            assert got[2].endswith(message), got


FOLD_TEXTS = (
    "Straße museum", "STRASSE day", "İstanbul exhibit", "ﬁne ﬁ art", "ﬁx", "art gallery, now", "museum.", "",
    "amusement", "musée ☕ Museum", "ab cd", "a://b museum", "rain", "Gallery! 4sq.com/x", "ßß gallery ß",
)
FOLD_KEYWORDS = (
    DEFAULT_KEYWORDS, ("strasse", "ﬁ", "i̇st"), ("ﬁne", "STRASSE"), ("",), ("", "museum"), ("art gallery", "musé"),
    ("art gallery",), ("mu", "gallery"),
)
TZ = (timezone.utc, timezone(timedelta(hours=1)))


@st.composite
def fold_corpora(draw):
    """A small corpus in a 2 x 2 zone region: texts that fold to other lengths, users with several rows, repeats."""
    region = demo_region(4, 2, seed=7)
    places = [z.centroid for z in region.zones] + [m.location for m in region.museums] + [GeoPoint(53.9, -1.2)]
    tweets = []
    for k in range(draw(st.integers(1, 30))):
        at = draw(st.sampled_from(places))
        text = draw(st.one_of(st.sampled_from(FOLD_TEXTS), st.text(st.sampled_from("aßİﬁ mgy .,"), max_size=12)))
        stamp = datetime(2013, 6, 1, 12, tzinfo=timezone.utc) + timedelta(minutes=draw(st.integers(0, 3)))
        tweets.append(Tweet(
            f"t{k}", f"u{draw(st.integers(0, 4))}", stamp.astimezone(draw(st.sampled_from(TZ))),
            GeoPoint(at.lat + draw(st.sampled_from((0.0, 0.0004))), at.lon), text,
            draw(st.sampled_from((None, "web", "foursquare"))),
        ))
    return region, tweets


@settings(max_examples=60, deadline=None)
@given(fold_corpora(), st.sampled_from(FOLD_KEYWORDS), st.booleans(), st.sampled_from((1 << 16, 300)))
def test_a_read_that_blanks_texts_gives_the_outputs_of_a_plain_read(tmp_path_factory, drawn, keywords, spatial, chunk_bytes):
    region, tweets = drawn
    path = tmp_path_factory.mktemp("blank") / "t.ndjson"
    write_tweets(Corpus.from_tweets(tweets), path)
    footprints = list(region.footprints) if spatial else None
    with mock.patch.object(fileio, "_CHUNK_BYTES", chunk_bytes):
        plain, read = read_tweets(path), read_tweets(path, keywords)
        no_text = read_tweets(path, ())
    assert set(read.texts.tolist()) <= set(plain.texts.tolist()) | {""}
    assert set(no_text.texts.tolist()) <= {""} and set(no_text.sources.tolist()) <= {None}
    want, got = (run_pipeline(c, region.zones, region.museums, region.ref, footprints, keywords) for c in (plain, read))
    assert got.report == want.report
    assert (got.matrix.origin_ids, got.matrix.destination_ids) == (want.matrix.origin_ids, want.matrix.destination_ids)
    assert got.matrix.values.tobytes() == want.matrix.values.tobytes()
    assert corpus_columns(got.museum_tweets) == corpus_columns(want.museum_tweets)
    assert home_rows(_located_homes(no_text, region.zones, region.ref)[2]) == home_rows(want.homes)


@settings(max_examples=60, deadline=None)
@given(fold_corpora(), st.sampled_from(FOLD_KEYWORDS), st.sampled_from((1 << 16, 300)))
def test_the_semantic_stage_keeps_of_a_keyword_read_what_its_scan_keeps_of_a_plain_read(
    tmp_path_factory, drawn, keywords, chunk_bytes
):
    # The keyword read records its keywords, and the semantic stage keeps its
    # nonempty texts without a scan: the same rows, columns and StageCount as
    # the scan of a plain read, texts whose fold changes length and the empty
    # keyword included.
    _, tweets = drawn
    path = tmp_path_factory.mktemp("verdict") / "t.ndjson"
    write_tweets(Corpus.from_tweets(tweets), path)
    with mock.patch.object(fileio, "_CHUNK_BYTES", chunk_bytes):
        plain, read = read_tweets(path), read_tweets(path, keywords)
    assert (plain.keep_text, read.keep_text) == (None, keywords)
    want, want_count = semantic_filter(plain, keywords)
    with mock.patch.object(pipeline, "_keyword_texts", side_effect=AssertionError("scanned")):
        got, count = semantic_filter(read, keywords)
    assert count == want_count
    assert corpus_columns(got) == corpus_columns(want)


def test_only_a_keyword_read_records_keywords_and_take_carries_them(tmp_path):
    region = demo_region(4, 2, seed=7)
    cfg = SynthConfig(true_spec=ModelSpec(deterrence=Deterrence("exponential", 0.95)), n_trips=40, noise=0.2, seed=3)
    generated, _ = generate_corpus(region.zones, region.museums, cfg, region.ref)
    path = tmp_path / "t.ndjson"
    write_tweets(generated, path)
    for whole in (generated, Corpus.from_tweets(generated), read_tweets(path), read_tweets(path).take([3, 1])):
        assert whole.keep_text is None
    for keep_text in (DEFAULT_KEYWORDS, ("",), ()):
        read = read_tweets(path, keep_text)
        assert read.keep_text == keep_text and read.take([3, 1]).take([1]).keep_text == keep_text
