"""From a raw geotagged-message corpus to the observed flow matrix.

The chain: drop automated accounts, infer each user's home cell from their
full activity, filter the corpus down to museum-visit evidence (keywords,
optionally building footprints), deduplicate, drop check-in relays, then
count (home zone, nearest museum) pairs. It is written once:
:func:`run_pipeline` and the CLI's filter and homes verbs share one home
step (:func:`_located_homes`) and one filter runner (:func:`_run_filters`,
stages in :data:`FILTER_STAGES` order). Both stay private, so a tracer that
wraps the public stage functions sees each stage and no extra layer.

The corpus is a :class:`Corpus`, a struct of arrays with one row per
message: user codes, coordinates, UTC microsecond timestamps, ids, texts
and sources. Rows are encoded in one place, a column appender that the
NDJSON reader, the synthetic generator and :meth:`Corpus.from_tweets` feed.
Every stage takes a Corpus, works on the columns with numpy, and keeps
its rows, in their input order, through one keep mask handed to
:func:`_kept`, as aggregation does too; helpers take a whole Corpus. Only
:func:`run_pipeline` also takes a sequence of :class:`Tweet`, which it
turns into a Corpus once. Text stages make one scan each, in slices joined
by a newline, case-folded once and searched by ``str.find``; only a text
whose fold changes its length is tokenized alone. Where numpy may round
differently from the math module (``hypot``, ``arcsin``), rows within a hair
of a decision are re-decided with the math module (a footprint distance by
``math.hypot`` of the edge kernel's own offsets), so every result is the one
a per-message loop gives. Homes are a :class:`Homes`, a struct of arrays
with one row per user, whose zones are resolved once per distinct cell;
every cell is a square ``GRID_RESOLUTION_M`` (100 m) on a side.

Every planar step shares one local frame; its reference coordinate is a
required argument wherever grid cells or footprint distances are involved,
so results cannot silently depend on corpus order.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone, tzinfo
from functools import lru_cache, partial
from operator import is_not

import numpy as np

from .errors import (
    AmbiguousZoneError,
    EmptyInputError,
    FlowModelError,
    InvalidAttributeError,
    InvalidGeometryError,
    InvalidParameterError,
)
from .geometry import (
    GRID_RESOLUTION_M,
    MAX_FRAME_DEGREES,
    GeoPoint,
    GridCell,
    containment_boxes,
    edge_tests,
    haversine_km,
    haversine_km_arrays,
    outside_frame,
    planar_polygon,
    point_in_polygon,
    polygon_centroid_area,
    polygons_contain,
    project,
    project_arrays,
    ring_edges,
    unproject,
)
from .sim import FlowMatrix, Museum, Zone, repeated_ids

MAX_TEXT_CODEPOINTS = 280
DEFAULT_KEYWORDS = ("museum", "gallery", "exhibition", "exhibit")
CHECKIN_PATTERNS = ("4sq.com", "foursquare")  # case-folded; a check-in relay holds one in its text or source
DEFAULT_BUFFER_M = 10.0
ACTIVITY_THRESHOLD = 1000  # a bot posts more tweets than this,
STATIC_FRACTION = 0.95  # and at least this share of them from one 100 m cell
DEFAULT_MERGE_RADIUS_M = 100.0
DEFAULT_FLOOR_AREA_M2 = 1.0
FILTER_STAGES = ("semantic", "spatial", "dedup", "checkin")  # the order the filter stages run in

# Relative width of the band around a decision inside which the math module
# re-decides: far wider than the last-place rounding of numpy's
# hypot, sin and arcsin, far narrower than any real difference.
_TIE_BAND = 1e-9

_SEPARATORS = r"\s.,!?:;"  # what splits tokens, as a character class body
_TOKEN_SPLIT = re.compile(f"[{_SEPARATORS}]+")
# A token start followed by three non-separators: where a keyword must sit in a folded text
_TOKEN_START = re.compile(f"(?:^|(?<=[{_SEPARATORS}]))(?=[^{_SEPARATORS}]{{3}})").match
_TEXT_SLICE = 1 << 14  # texts joined and case-folded at a time: bounds the joined strings
_URL = re.compile(r"\S+://\S+|\bt\.co/\S+", re.IGNORECASE)
_URL_HINT = re.compile(r"://|t\.co/", re.IGNORECASE)  # every _URL match holds one of these

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_NAIVE_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)


def _check_row(
    tid: str, user_id: str, lat: float, lon: float, text: str, source: str | None = None, stamp_us: int = 0
) -> None:
    """The rules of one message: coordinate ranges first, raising through :class:`GeoPoint`, then the fields.

    ``stamp_us`` is the stamp as :func:`_utc_us` gives it; its UTC instant
    must be one a ``datetime`` holds, or the row could not be rebuilt.
    """
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        GeoPoint(lat, lon)  # raises: out of range or not finite
    if not all(isinstance(field, str) for field in (tid, user_id, text, "" if source is None else source)):
        raise InvalidAttributeError(f"tweet {tid!r}: id, user_id, text and source must be str (source may be None)")
    if not tid or not user_id:
        raise InvalidAttributeError("tweet id and user_id must be non-empty")
    if len(text) > MAX_TEXT_CODEPOINTS:
        raise InvalidAttributeError(
            f"tweet {tid}: text has {len(text)} code points, limit is {MAX_TEXT_CODEPOINTS}"
        )
    if not _FIRST_US <= stamp_us <= _LAST_US:
        raise InvalidAttributeError(f"tweet {tid}: timestamp {_STAMP_RANGE}")


@dataclass(frozen=True)
class Tweet:
    """One geotagged message."""

    id: str
    user_id: str
    timestamp: datetime
    location: GeoPoint
    text: str
    source: str | None = None

    def __post_init__(self):
        loc = self.location
        _check_row(self.id, self.user_id, loc.lat, loc.lon, self.text, self.source, _utc_us(self.timestamp))


def _datetime(us: int, zone) -> datetime:
    """The stamp a (microseconds, time zone) pair encodes; a None zone is naive."""
    if zone is None:
        return _NAIVE_EPOCH + timedelta(microseconds=us)
    return (_EPOCH + timedelta(microseconds=us)).astimezone(zone)


def _objects(values) -> np.ndarray:
    """The values as an object array; an array as it is."""
    if isinstance(values, np.ndarray):
        return values
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


class Corpus:
    """A message corpus as a struct of arrays, one row per message.

    Columns: ``user`` (int64 codes into the ``users`` names), ``lat`` and
    ``lon`` (float64 degrees), ``stamp_us`` (int64 microseconds since the
    epoch, UTC, for ordering), ``tz`` (int codes into ``tzinfos``, the
    stamps' own time zones), and object arrays ``ids``, ``texts`` and
    ``sources``. Every producer (the reader, the generator,
    :meth:`from_tweets`) appends its columns through one appender that
    makes the checks of :class:`Tweet`, so they hold valid messages only.

    Iteration gives :class:`Tweet` rows, each timestamp rebuilt in its own
    zone, so they equal the tweets the corpus was read or built from. There
    is no indexing: one row's point for a scalar decision is
    ``GeoPoint(corpus.lat[i], corpus.lon[i])``. :meth:`take` selects rows;
    the names table is shared, so a user code means the same user in every
    corpus taken from one source. ``keep_text``, which :meth:`take` carries, is None when every text is
    whole, or the keywords ``read_tweets(path, keep_text)`` kept texts for: :func:`semantic_filter` answers only those.
    """

    __slots__ = ("ids", "users", "user", "lat", "lon", "stamp_us", "tzinfos", "tz", "texts", "sources", "keep_text")

    def __init__(self, ids, users, user, lat, lon, stamp_us, tzinfos, tz, texts, sources, keep_text=None):
        self.ids = _objects(ids)
        self.users = tuple(users)
        self.user = np.asarray(user, dtype=np.int64)
        self.lat = np.asarray(lat, dtype=np.float64)
        self.lon = np.asarray(lon, dtype=np.float64)
        self.stamp_us = np.asarray(stamp_us, dtype=np.int64)
        self.tzinfos = tuple(tzinfos)
        self.tz = np.asarray(tz, dtype=np.int64)
        self.texts = _objects(texts)
        self.sources = _objects(sources)
        self.keep_text = keep_text

    @classmethod
    def from_tweets(cls, tweets) -> "Corpus":
        found = [
            (t.id, t.user_id, _utc_us(t.timestamp), t.timestamp.tzinfo, t.location.lat, t.location.lon, t.text, t.source)
            for t in tweets
        ]
        rows = _CorpusBuilder()
        rows.extend(*(tuple(zip(*found)) or ((),) * 8))
        return rows.corpus()

    def take(self, rows) -> "Corpus":
        """The given rows (an index array), in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return Corpus(
            self.ids[rows], self.users, self.user[rows], self.lat[rows], self.lon[rows],
            self.stamp_us[rows], self.tzinfos, self.tz[rows], self.texts[rows], self.sources[rows], self.keep_text,
        )

    def user_count(self) -> int:
        """Number of distinct users with at least one row."""
        return int(np.count_nonzero(np.bincount(self.user, minlength=len(self.users))))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        columns = (self.ids, self.user, self.stamp_us, self.tz, self.lat, self.lon, self.texts, self.sources)
        for tid, code, us, tz, lat, lon, text, source in zip(*(c.tolist() for c in columns)):
            yield Tweet(tid, self.users[code], _datetime(us, self.tzinfos[tz]), GeoPoint(lat, lon), text, source)


def _utc_us(stamp: datetime) -> int:
    """Microseconds since 1970-01-01 UTC; a naive stamp counts as UTC."""
    return (stamp - (_NAIVE_EPOCH if stamp.tzinfo is None else _EPOCH)) // _MICROSECOND


# The UTC instants a datetime can hold, as _utc_us gives them.
_FIRST_US = _utc_us(datetime.min)
_LAST_US = _utc_us(datetime.max)
_STAMP_RANGE = "is outside 0001-01-01T00:00:00Z .. 9999-12-31T23:59:59.999999Z"


def _all_str(values) -> bool:
    """Whether every value is a str, as one C-level join tells."""
    try:
        "".join(values)
    except TypeError:
        return False
    return True


def _codes(table: dict, keys) -> list:
    """Each key's code in ``table``; a key not yet there gets the next code, in first-seen order."""
    return [table.setdefault(key, len(table)) for key in keys]


class _CorpusBuilder:
    """Appends messages to the columns of a :class:`Corpus`.

    The one place messages become rows: :meth:`extend` takes them as
    columns, checks them as :class:`Tweet` does, and assigns their user
    and time-zone codes. Every producer feeds it: the NDJSON reader, once
    per chunk, :meth:`Corpus.from_tweets` and the synthetic generator.
    Given ``keep_text`` keywords, a row :func:`_keyword_texts` rejects gets ``""`` as its text and None as its source.
    """

    __slots__ = ("ids", "users", "user", "lat", "lon", "stamp_us", "tzinfos", "tz", "texts", "sources", "keep_text")

    def __init__(self, keep_text=None):
        self.keep_text, self.ids, self.texts, self.sources = keep_text, [], [], []
        self.users: dict[str, int] = {}
        self.tzinfos: dict = {}
        self.user, self.stamp_us, self.tz = array("q"), array("q"), array("q")
        self.lat, self.lon = array("d"), array("d")

    def extend(self, ids, user_ids, stamp_us, zones, lat, lon, texts, sources):
        """Append rows given as columns, one sequence per field.

        ``stamp_us`` holds each stamp as :func:`_utc_us` gives it (naive
        counts as UTC). ``zones`` holds each row's own time zone, or is one
        time zone for every row (a ``tzinfo``, or None for naive), coded
        once. Should any row fail a check, the first such row raises as
        :func:`_check_row` does, and nothing is appended.
        """
        lat, lon = np.asarray(lat, dtype=np.float64), np.asarray(lon, dtype=np.float64)
        stamp_us = np.asarray(stamp_us, dtype=np.int64)
        in_range = (-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= lon) & (lon <= 180.0)
        in_range &= (_FIRST_US <= stamp_us) & (stamp_us <= _LAST_US)
        # one C-level test of each str column first, so no later test meets another type; a source may be None
        sources_ok = _all_str(sources) or sources.count(None) == len(sources) or _all_str(filter(partial(is_not, None), sources))
        if not (all(map(_all_str, (ids, user_ids, texts))) and sources_ok and in_range.all() and all(ids) and all(user_ids)
                and max(map(len, texts), default=0) <= MAX_TEXT_CODEPOINTS):
            for row in zip(ids, user_ids, lat.tolist(), lon.tolist(), texts, sources, stamp_us.tolist()):
                _check_row(*row)
        if self.keep_text is not None and not all(keep := _keyword_texts(texts, self.keep_text).tolist()):
            texts = [text if k else "" for text, k in zip(texts, keep)]  # after the checks; the blanks share one ""
            sources = [s if k else None for s, k in zip(sources, keep)] if sources.count(None) < len(sources) else sources
        self.ids.extend(ids)
        self.user.extend(_codes(self.users, user_ids))
        self.stamp_us.frombytes(stamp_us.tobytes())
        if zones is not None and not isinstance(zones, tzinfo):
            self.tz.extend(_codes(self.tzinfos, zones))
        elif len(ids):  # a zone that no row holds gets no code
            self.tz.extend(array("q", _codes(self.tzinfos, [zones])) * len(ids))
        self.lat.frombytes(lat.tobytes())
        self.lon.frombytes(lon.tobytes())
        self.texts.extend(texts)
        self.sources.extend(sources)

    def corpus(self) -> Corpus:
        """The rows as a Corpus, which takes over the columns: a spent builder is not extended again."""
        for name in ("ids", "texts", "sources"):  # each list is dropped before the next is copied
            setattr(self, name, _objects(getattr(self, name)))
        return Corpus(
            self.ids, self.users, self.user, self.lat, self.lon,
            self.stamp_us, self.tzinfos, self.tz, self.texts, self.sources, self.keep_text,
        )


def _kept(stage: str, corpus: Corpus, keep):
    """The rows where ``keep`` is True (the corpus itself when that is all), and the stage's count."""
    out = corpus if keep.all() else corpus.take(np.flatnonzero(keep))
    return out, StageCount(stage, len(corpus), len(out), out.user_count())


@dataclass(frozen=True)
class UserHome:
    """A user's modal 100 m cell and, once assigned, its zone."""

    user_id: str
    cell: GridCell
    tweet_count_at_cell: int
    zone_id: str | None = None

    def __post_init__(self):
        if self.tweet_count_at_cell < 1:
            raise InvalidAttributeError("home cell must contain at least one tweet")


class Homes:
    """Users' homes as a struct of arrays, one row per home.

    Columns: ``user`` (int64 codes into the ``users`` names, the table of
    the corpus the homes came from), ``ix`` and ``iy`` (int64 cell indices),
    ``count`` (the user's tweets in that cell) and ``zone`` (int64 index
    into ``zone_ids``, -1 for none). Every cell is a 100 m
    :class:`~museumflows.geometry.GridCell`. :func:`infer_home_locations`
    gives rows sorted by user id.

    Iteration gives :class:`UserHome` rows.
    """

    __slots__ = ("users", "user", "ix", "iy", "count", "zone_ids", "zone")

    def __init__(self, users, user, ix, iy, count, zone_ids=(), zone=None):
        self.users = tuple(users)
        self.user = np.asarray(user, dtype=np.int64)
        self.ix = np.asarray(ix, dtype=np.int64)
        self.iy = np.asarray(iy, dtype=np.int64)
        self.count = np.asarray(count, dtype=np.int64)
        self.zone_ids = tuple(zone_ids)
        self.zone = np.full(len(self.user), -1, dtype=np.int64) if zone is None else np.asarray(zone, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.user)

    def __iter__(self):
        users, zone_ids = self.users, self.zone_ids + (None,)
        columns = (self.user, self.ix, self.iy, self.count, self.zone)
        for code, ix, iy, count, zone in zip(*(c.tolist() for c in columns)):
            yield UserHome(users[code], GridCell(ix, iy), count, zone_ids[zone])


@dataclass(frozen=True)
class StageCount:
    """What one pipeline stage did to the corpus."""

    stage: str
    tweets_in: int
    tweets_out: int
    users_remaining: int

    def __post_init__(self):
        if self.tweets_out > self.tweets_in:
            raise InvalidAttributeError(
                f"stage {self.stage}: output {self.tweets_out} exceeds input {self.tweets_in}"
            )


@dataclass(frozen=True)
class PipelineReport:
    stages: tuple[StageCount, ...] = ()


@dataclass(frozen=True)
class TaggedFeature:
    """Raw map feature: a point or a polygon (rings of GeoPoint) plus tags."""

    tags: dict
    point: GeoPoint | None = None
    rings: tuple[tuple[GeoPoint, ...], ...] | None = None

    def __post_init__(self):
        if (self.point is None) == (self.rings is None):
            raise InvalidGeometryError("feature needs exactly one of point or rings")
        if self.rings is not None:
            object.__setattr__(self, "rings", tuple(tuple(r) for r in self.rings))
            if not self.rings or any(len(r) < 3 for r in self.rings):
                raise InvalidGeometryError("polygon feature needs rings of >=3 vertices")


@dataclass(frozen=True)
class PipelineResult:
    """Everything the full run produces."""

    matrix: FlowMatrix
    report: PipelineReport
    homes: Homes
    museum_tweets: Corpus


def corpus_frame(corpus) -> GeoPoint:
    """Frame reference for a bare corpus: its minimum latitude/longitude.

    Order-independent, so every permutation of the corpus grids identically.
    Prefer the zone-derived reference when a zone system is loaded.
    """
    if not len(corpus):
        raise EmptyInputError("cannot derive a frame from an empty corpus")
    return GeoPoint(float(corpus.lat.min()), float(corpus.lon.min()))


def tokenize(text: str) -> list[str]:
    """Split on whitespace and sentence punctuation; drop tokens of <=2 chars."""
    return [tok for tok in _TOKEN_SPLIT.split(text) if len(tok) > 2]


def _scan_texts(texts: list, needles, accept=None):
    """(hit, changed) per text: a needle in its fold where ``accept(folded, at)`` holds (None: anywhere); a fold of another length.

    Texts are joined by a newline, which folds to itself and is in no
    needle, ``_TEXT_SLICE`` at a time, and each slice is case-folded once:
    str.casefold folds code point by code point, so the fold of a join is
    the join of the folds. ``str.find`` finds each needle, none empty, and
    ``np.searchsorted`` over the folded texts' cumulative lengths places
    each occurrence in its text; the newline is never searched for, so a
    text holding one moves no boundary. Per-text folds are taken only in a
    slice whose fold changes its length.
    """
    hit = np.zeros(len(texts), dtype=bool)
    changed = np.zeros(len(texts), dtype=bool)
    for first in range(0, len(texts), _TEXT_SLICE):
        part = texts[first : first + _TEXT_SLICE]
        joined = "\n".join(part)
        folded = joined.casefold()
        lengths = np.fromiter(map(len, part), np.int64, len(part))
        if len(folded) != len(joined):
            folds = np.fromiter(map(len, map(str.casefold, part)), np.int64, len(part))
            changed[first : first + len(part)] = folds != lengths
            lengths = folds
        found = []
        for needle in needles:
            at = folded.find(needle)
            while at >= 0:
                if accept is None or accept(folded, at):
                    found.append(at)
                at = folded.find(needle, at + 1)
        hit[first + np.searchsorted(np.cumsum(lengths + 1), found, side="right")] = True
    return hit, changed


def _grid_cells(corpus: Corpus, ref: GeoPoint):
    """(ix, iy) of every row, bit for bit :func:`project` + :func:`snap_to_grid`.

    Each projected column is divided and floored in place, then cast. An out-of-frame
    row raises through :func:`project`: the first such row of the user who appears first.
    """
    lat, lon = corpus.lat, corpus.lon
    far = np.flatnonzero(outside_frame(lat - ref.lat) | outside_frame(lon - ref.lon))  # one difference column at a time
    if far.size:
        first = np.full(len(corpus.users), len(corpus))
        np.minimum.at(first, corpus.user, np.arange(len(corpus)))
        row = far[np.argmin(first[corpus.user[far]])]
        project(GeoPoint(lat[row], lon[row]), ref)
    x, y = project_arrays(lat, lon, ref)
    x = np.floor(np.divide(x, GRID_RESOLUTION_M, out=x), out=x).astype(np.int64)
    return x, np.floor(np.divide(y, GRID_RESOLUTION_M, out=y), out=y).astype(np.int64)


def _cell_runs(corpus: Corpus, ref: GeoPoint):
    """Runs of equal (user, cell) in one sort of the rows, grouped by user.

    Folds the cells of :func:`_grid_cells` in place into one int64 key,
    ``user * size + (ix - x0) * ny + (iy - y0)`` over the box of every cell
    (least indices x0, y0; ny rows; size cells), then drops them, and the
    sorted key once each run's bounds and key are read. Returns (order,
    bounds, first, users, top, cells): the sort order, run r's rows
    ``order[bounds[r]: bounds[r + 1]]``, each user's first run, code
    (``key // size``) and longest run, and ``cells(runs)``, their (ix, iy)
    read back by exact integer arithmetic (``key % size // ny + x0``, ...).
    """
    key, iy = _grid_cells(corpus, ref)
    x0, y0 = key.min(), iy.min()
    ny = iy.max() - y0 + 1
    size = (key.max() - x0 + 1) * ny  # user * size < 2**63 for fewer than 7e10 users: nx, ny <= 11,121 in the frame
    key *= ny
    key += iy
    key += np.multiply(corpus.user, size, out=iy) - (x0 * ny + y0)
    del iy
    order = np.argsort(key)  # not stable: a run is read as the set of its members, or as any one of them
    key = key[order]
    bounds = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1], [True])))
    key = key[bounds[:-1]]
    first = np.flatnonzero(np.diff(key // size, prepend=-1))

    def cells(runs):
        return key[runs] % size // ny + x0, key[runs] % size % ny + y0
    return order, bounds, first, key[first] // size, np.maximum.reduceat(np.diff(bounds), first), cells


def remove_automated_accounts(corpus, ref: GeoPoint):
    """Drop users that post heavily from a single 100 m cell.

    A user goes when they have more than :data:`ACTIVITY_THRESHOLD` tweets
    AND at least :data:`STATIC_FRACTION` of them fall into one cell. Only
    those heavy users' tweets are taken and projected.
    """
    tweets_per_user = np.bincount(corpus.user, minlength=len(corpus.users))
    heavy = np.flatnonzero((tweets_per_user > ACTIVITY_THRESHOLD)[corpus.user])
    dropped = np.zeros(len(corpus.users), dtype=bool)
    if heavy.size:
        suspects = corpus.take(heavy)  # each heavy user's rows, all of them in order: no user's first row moves
        _, _, _, users, top, _ = _cell_runs(suspects, ref)
        dropped[users[top >= STATIC_FRACTION * tweets_per_user[users]]] = True
    return _kept("bot-removal", corpus, ~dropped[corpus.user])


@lru_cache(maxsize=16)
def _needles(keywords: tuple):
    """(folded keywords, needles): the folded keywords with no separator, less any that starts with another; once per tuple."""
    usable = {k for k in map(str.casefold, keywords) if not _TOKEN_SPLIT.search(k)}
    return tuple(map(str.casefold, keywords)), tuple(k for k in usable if not k.startswith(tuple(usable - {k})))


def _keyword_texts(texts, keywords) -> np.ndarray:
    """Each text's keep under :func:`semantic_filter`'s rule; no text is scanned when no keyword can start a token."""
    keywords, needles = _needles(tuple(keywords))
    if "" in keywords:  # every token starts with it
        return np.fromiter(map(bool, map(tokenize, texts)), bool, len(texts))
    if not needles:
        return np.zeros(len(texts), dtype=bool)
    keep, changed = _scan_texts(texts, needles, _TOKEN_START)
    redo = [texts[i] for i in np.flatnonzero(changed).tolist()]
    keep[changed] = [any(tok.casefold().startswith(keywords) for tok in tokenize(t)) for t in redo]
    return keep


def semantic_filter(corpus, keywords=DEFAULT_KEYWORDS):
    """Keep tweets with a token starting with any keyword, case-folded, by :func:`_keyword_texts`, the reader's rule too.

    Prefix matching keeps plurals ("museums") without letting substrings
    like "amusement" through. Texts are scanned in slices, each joined by
    a newline and case-folded once (:func:`_scan_texts`). A text whose fold
    is as long as the text is kept when a keyword occurs in the folded
    slice at a token start followed by three non-separators: no code point
    folds to nothing, so then every code point folds to one, tokens keep
    their positions and lengths, and no fold of one code point crosses the
    separator class (the premise tests in ``tests/test_stages.py`` check
    every code point). The newline is a separator, so each text's tokens end
    at its bounds. Keywords holding a separator are left out, as no token
    holds one, and so is one that starts with another keyword. Texts whose
    fold changes length, such as "Straße" or "ﬁ", are tokenized and each
    token folded. The empty keyword keeps every text with a token. A corpus
    read with ``keep_text`` keywords keeps its nonempty texts, unscanned: the reader kept each text this rule keeps
    for them, which holds a token, and blanked the rest. Keywords whose set of folds differs from theirs raise
    :class:`InvalidParameterError`, as the texts they need are gone.
    """
    if not (keywords := tuple(keywords)):
        raise InvalidParameterError("semantic filter needs at least one keyword")
    if (kept_for := corpus.keep_text) is not None and set(_needles(keywords)[0]) != set(_needles(tuple(kept_for))[0]):
        raise InvalidParameterError(f"semantic filter keywords {keywords} differ from {kept_for}, those the texts were kept for")
    return _kept("semantic", corpus, _keyword_texts(corpus.texts.tolist(), keywords) if kept_for is None else corpus.texts != "")


def _check_distance(name: str, metres: float) -> None:
    """Raise InvalidParameterError unless ``metres`` is >= 0 (NaN is not)."""
    if not metres >= 0:
        raise InvalidParameterError(f"{name} {metres} must be >= 0")


def spatial_filter(corpus, footprints, ref: GeoPoint, buffer_m: float = DEFAULT_BUFFER_M):
    """Keep tweets within buffer_m of any footprint polygon.

    Footprint polygons must be planar in the frame anchored at ref. Each
    footprint runs :func:`edge_tests` on the rows in its containment box
    widened by buffer_m and the tie band, as no other row is within
    buffer_m. Containment is exact; a distance within a hair of buffer_m is
    re-decided by ``math.hypot`` of the kernel's own offsets.
    """
    _check_distance("buffer", buffer_m)
    x, y = project_arrays(corpus.lat, corpus.lon, ref)
    keep = np.zeros(len(corpus), dtype=bool)
    band = _TIE_BAND * max(buffer_m, 1.0)
    reach = buffer_m + band
    edges = ring_edges([poly for _, poly in footprints])
    ends = np.cumsum(edges[4])
    for end, n, xmin, ymin, xmax, ymax in zip(ends.tolist(), edges[4].tolist(), *containment_boxes(edges)):
        rows = np.flatnonzero((xmin - reach <= x) & (x <= xmax + reach) & (ymin - reach <= y) & (y <= ymax + reach))
        ax, ay, bx, by = (v[end - n: end, None] for v in edges[:4])
        on, crosses, ex, ey = edge_tests(ax, ay, bx, by, x[rows], y[rows])
        inside = on.any(axis=0) | (np.count_nonzero(crosses, axis=0) % 2 == 1)
        edge = np.hypot(ex, ey).min(axis=0)
        close = ~inside & (np.abs(edge - buffer_m) <= band)
        keep[rows] |= inside | ((edge <= buffer_m) & ~close)
        for k in np.flatnonzero(close).tolist():
            keep[rows[k]] |= min(map(math.hypot, ex[:, k].tolist(), ey[:, k].tolist())) <= buffer_m
    return _kept("spatial", corpus, keep)


def _normalized_text(text: str) -> str:
    if _URL_HINT.search(text):
        text = _URL.sub(" ", text)
    return " ".join(text.split())


def dedup(corpus):
    """Within each user, keep the earliest tweet per normalized text.

    Normalization strips URL-shaped substrings and collapses whitespace, so
    reposts that differ only in an embedded link collapse to one tweet.
    Only the texts of users with two or more rows are normalized: a user's
    only row is kept whatever its text. The URL pattern runs only on texts
    holding ``://`` or ``t.co/`` (any case), where each of its matches
    lies. Earliest is by (timestamp, id): rows are sorted by (user,
    microsecond), stably, and only the runs of equal (user, microsecond)
    are then put in id order, by a stable sort of their ids, so equal ids
    keep their row order.
    """
    n = len(corpus)
    many = np.bincount(corpus.user)[corpus.user] > 1
    text_code: dict[str, int] = {}
    texts = np.zeros(n, dtype=np.int64)  # one code for every only row, whose user holds no other
    texts[many] = _codes(text_code, map(_normalized_text, corpus.texts[many].tolist()))
    order = np.lexsort((corpus.stamp_us, corpus.user))
    user, stamp_us = corpus.user[order], corpus.stamp_us[order]
    tied = (user[1:] == user[:-1]) & (stamp_us[1:] == stamp_us[:-1])  # position k + 1 ties with k
    in_run = np.flatnonzero(np.append(tied, False) | np.insert(tied, 0, False))
    run = np.cumsum(np.insert(~tied, 0, True))[in_run]
    members = order[in_run]
    id_rank = np.empty(len(members), dtype=np.int64)
    id_rank[np.argsort(corpus.ids[members], kind="stable")] = np.arange(len(members))
    order[in_run] = members[np.lexsort((id_rank, run))]  # users stay where they were
    _, first = np.unique(user * max(len(text_code), 1) + texts[order], return_index=True)
    keep = np.zeros(n, dtype=bool)
    keep[order[first]] = True
    return _kept("dedup", corpus, keep)


def remove_checkins(corpus):
    """Drop check-in relay tweets: a :data:`CHECKIN_PATTERNS` substring in the case-folded text or source.

    Texts, then sources, are scanned as one list (:func:`_scan_texts`), so
    no pattern, which lies inside one entry, matches across a text and its
    source or across two rows; a row goes when either of its halves is hit.
    """
    hit = _scan_texts(corpus.texts.tolist() + [s or "" for s in corpus.sources.tolist()], CHECKIN_PATTERNS)[0]
    return _kept("checkin-removal", corpus, ~(hit[: len(corpus)] | hit[len(corpus) :]))


def infer_home_locations(corpus, ref: GeoPoint):
    """Each user's modal 100 m grid cell over their full activity.

    Tied cells resolve to the one holding the user's earliest tweet among
    the tied cells. The result is a :class:`Homes` sorted by user id, with
    no zones yet.

    Cells are computed for the whole corpus at once, with the operations of
    :func:`project` and :func:`snap_to_grid` in the same order, so each is
    bit for bit the cell the scalar functions give, grouped by one packed key
    (:func:`_cell_runs`) and read back from a run's key; the sort order, read
    only for users whose top count ties, goes before the homes are built.
    """
    if not len(corpus):
        return Homes(corpus.users, [], [], [], [])
    order, bounds, first, users, top, cells = _cell_runs(corpus, ref)
    top_runs = np.flatnonzero(np.diff(bounds) == np.repeat(top, np.diff(first, append=len(bounds) - 1)))
    first_top = np.searchsorted(top_runs, np.append(first, len(bounds) - 1))  # user g's top runs: top_runs[first_top[g]: first_top[g + 1]]
    best_run = top_runs[first_top[:-1]]

    def earliest(run):
        # a cell's earliest (timestamp, id); an exact tie goes to the cell seen first
        members = order[bounds[run]: bounds[run + 1]].tolist()
        return min((corpus.stamp_us[i], corpus.ids[i]) for i in members), min(members)

    for g in np.flatnonzero(np.diff(first_top) > 1).tolist():
        best_run[g] = min(top_runs[first_top[g]: first_top[g + 1]].tolist(), key=earliest)
    del order, bounds, top_runs
    named = np.fromiter(sorted(users.tolist(), key=corpus.users.__getitem__), np.int64, len(users))  # the codes, by name
    at = np.empty(len(corpus.users), dtype=np.int64)
    at[users] = np.arange(len(users))
    by_name = at[named]
    return Homes(corpus.users, named, *cells(best_run[by_name]), top[by_name])


def _distinct_cells(homes: Homes):
    """(first, inverse): each distinct (ix, iy) cell's first row, and each row's distinct cell."""
    _, x = np.unique(homes.ix, return_inverse=True)
    ys, y = np.unique(homes.iy, return_inverse=True)
    key = x.ravel() * len(ys) + y.ravel()  # < homes**2
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse.ravel()


def assign_home_zone(homes, zones):
    """Resolve each home cell center to the zone polygon containing it.

    Homes outside every zone get no zone. A center claimed by several zones
    goes to the first zone in input order when it sits on a shared
    boundary; strict interior overlap is an error in the zone system itself.
    Takes a :class:`Homes` and returns a Homes of the same rows whose zone
    column indexes ``zones``.

    Resolution is per distinct cell, against the zones whose containment box
    holds its center: every such (cell, zone) pair is tested in one call of
    :func:`polygons_contain`. An ambiguous zone system names the first user
    whose home is in an ambiguous cell.
    """
    for z in zones:
        if z.boundary is None:
            raise InvalidGeometryError(f"zone {z.id} has no boundary polygon")
    first, inverse = _distinct_cells(homes)
    x = (homes.ix[first] + 0.5) * GRID_RESOLUTION_M  # GridCell.center, bit for bit
    y = (homes.iy[first] + 0.5) * GRID_RESOLUTION_M
    edges = ring_edges([z.boundary for z in zones])
    xmin, ymin, xmax, ymax = containment_boxes(edges)
    cell, zone = np.nonzero((xmin <= x[:, None]) & (x[:, None] <= xmax) & (ymin <= y[:, None]) & (y[:, None] <= ymax))
    inside, on_edge = polygons_contain(x[cell], y[cell], edges, zone)
    cell, zone, on_edge = cell[inside], zone[inside], on_edge[inside]  # by cell, then in zone order
    shared = np.bincount(cell, minlength=len(first)) > 1
    ambiguous = np.flatnonzero(shared & (np.bincount(cell[on_edge], minlength=len(first)) == 0))
    if ambiguous.size:
        c = ambiguous[np.argmin(first[ambiguous])]
        ids = [zones[k].id for k in zone[cell == c].tolist()]
        raise AmbiguousZoneError(f"home of {homes.users[homes.user[first[c]]]} strictly inside zones {ids}")
    first_zone = np.flatnonzero(np.diff(cell, prepend=-1))  # each containing cell's first zone
    zone_of_cell = np.full(len(first), -1, dtype=np.int64)
    zone_of_cell[cell[first_zone]] = zone[first_zone]
    return Homes(homes.users, homes.user, homes.ix, homes.iy, homes.count, [z.id for z in zones], zone_of_cell[inverse])


def _nearest_museum(point: GeoPoint, museums) -> str:
    """Id of the museum closest to ``point``; ties go to the smaller id."""
    if not museums:
        raise EmptyInputError("no museums to assign")
    return min(museums, key=lambda m: (haversine_km(point, m.location), m.id)).id


def _nearest_museums(corpus: Corpus, museums) -> np.ndarray:
    """Index into museums of :func:`_nearest_museum` for every row.

    A vectorised haversine argmin; rows whose two nearest museums lie
    within a hair of each other are re-decided by the scalar rule.
    """
    lat, lon = corpus.lat, corpus.lon
    best = np.full(len(corpus), math.inf)
    runner_up = np.full(len(corpus), math.inf)
    nearest = np.zeros(len(corpus), dtype=np.int64)
    for j, m in enumerate(museums):
        d = haversine_km_arrays(lat, lon, m.location)
        closer = d < best
        runner_up = np.where(closer, best, np.minimum(runner_up, d))
        best = np.where(closer, d, best)
        nearest[closer] = j
    position = {m.id: j for j, m in reversed(list(enumerate(museums)))}
    close = np.isfinite(runner_up) & (runner_up - best <= _TIE_BAND * runner_up)
    for k in np.flatnonzero(close).tolist():
        nearest[k] = position[_nearest_museum(GeoPoint(lat[k], lon[k]), museums)]
    return nearest


def build_observed_matrix(corpus, homes, zones, museums):
    """Count (home zone, nearest museum) pairs into a matrix over all labels.

    ``corpus`` holds the museum tweets and ``homes`` is a :class:`Homes`
    inferred from the same source, so both share one users table; homes
    with another table raise. The tweets of users with a zoned home are kept
    through :func:`_kept`, as a stage keeps its rows, and the returned stage
    entry counts them; a home whose zone id is not among ``zones`` counts
    there too but lands in no cell of the matrix.
    """
    if homes.users != corpus.users:
        raise InvalidParameterError("homes and museum tweets must share one users table")
    zone_ids = [z.id for z in zones]
    museum_ids = [m.id for m in museums]
    zone_row = {z: i for i, z in enumerate(zone_ids)}  # a zone id outside the zone list gets the spare last row
    row_of_zone = np.array([zone_row.get(z, len(zone_ids)) for z in homes.zone_ids] + [-1], dtype=np.int64)
    home_row = np.full(len(corpus.users), -1, dtype=np.int64)
    home_row[homes.user] = row_of_zone[homes.zone]
    corpus, entry = _kept("aggregate", corpus, home_row[corpus.user] >= 0)
    if len(corpus) and not museums:
        raise EmptyInputError("no museums to assign")
    cells = home_row[corpus.user] * max(len(museums), 1) + _nearest_museums(corpus, museums)
    counts = np.bincount(cells, minlength=(len(zone_ids) + 1) * len(museums))
    counts = counts.reshape(len(zone_ids) + 1, len(museums)).astype(float)
    return FlowMatrix(zone_ids, museum_ids, counts[:-1]), entry  # ShapeError: a repeated zone or museum id


def _tag_number(museum_id: str, tags: dict, key: str, default=None) -> float:
    """A numeric tag's value (``default`` when absent); a value that is not a number raises."""
    value = tags.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvalidAttributeError(f"museum {museum_id}: {key} {value!r} is not a number") from None


def extract_museums(features, merge_radius_m: float = DEFAULT_MERGE_RADIUS_M):
    """Distill raw map features into one Museum per site, in the order of each site's first feature.

    Keeps features tagged tourism=museum or named *museum*, drops a point in a
    polygon of the same case-folded name and merges same-name features within
    merge_radius_m, transitively. A site's location and floor area are its
    polygons' area-weighted centroid and total area, else its points' mean and
    first floor_area_m2 tag; a member's floor_area_m2 that is not a number
    raises InvalidAttributeError. A polygon wider than its frame or of no area
    raises its own error, naming the feature by its id tag, else its index.
    Its id is its first id tag, else museum-<k>, k the index of its first
    kept feature; a repeated id raises InvalidAttributeError too.
    """
    _check_distance("merge radius", merge_radius_m)
    sites = []  # (tags, folded name, location, area, planar polygon, its frame); the last three None for a point
    for k, feat in enumerate(features):
        norm = str(feat.tags.get("name", "")).strip().casefold()
        if str(feat.tags.get("tourism", "")).strip().casefold() != "museum" and "museum" not in norm:
            continue
        if feat.rings is None:
            sites.append((feat.tags, norm, feat.point, None, None, None))
            continue
        ref = feat.rings[0][0]
        try:
            planar = planar_polygon(feat.rings, ref)
            centroid, area = polygon_centroid_area(planar)
        except FlowModelError as exc:  # named as the features reader names it: by its id tag, else its index
            raise type(exc)(f"feature {feat.tags.get('id', k)!r}: {exc}") from exc
        sites.append((feat.tags, norm, unproject(centroid, ref), area, planar, ref))
    polygons = [(norm, planar, ref) for _, norm, _, _, planar, ref in sites if planar is not None]
    sites = [
        (tags, norm, p, area)
        for tags, norm, p, area, _, _ in sites
        if area is not None
        or not any(  # a point outside a frame's box is outside its polygon: every vertex is inside the box
            name == norm
            and max(abs(p.lat - ref.lat), abs(p.lon - ref.lon)) <= MAX_FRAME_DEGREES
            and point_in_polygon(project(p, ref), planar)
            for name, planar, ref in polygons
        )
    ]
    group = list(range(len(sites)))  # each site's group label: the index of the group's first site
    for j, (_, norm, location, _) in enumerate(sites):
        for i, (_, other_norm, other, _) in enumerate(sites[:j]):
            if group[i] != group[j] and other_norm == norm and haversine_km(other, location) * 1000.0 <= merge_radius_m:
                group = [min(group[i], group[j]) if g in (group[i], group[j]) else g for g in group]
    museums = []
    for first in sorted(set(group)):
        members = [site for site, g in zip(sites, group) if g == first]
        mid = next((str(tags["id"]) for tags, *_ in members if "id" in tags), f"museum-{first}")
        areas = [(p, area) for _, _, p, area in members if area is not None]
        weighted = areas or [(p, 1.0) for _, _, p, _ in members]  # weight 1.0: the plain mean, bit for bit
        total = sum(w for _, w in weighted)
        tagged = [_tag_number(mid, t, "floor_area_m2") for t, *_ in members if t.get("floor_area_m2") is not None]
        floor_area = total if areas else tagged[0] if tagged else DEFAULT_FLOOR_AREA_M2
        location = GeoPoint(sum(p.lat * w for p, w in weighted) / total, sum(p.lon * w for p, w in weighted) / total)
        name = str(members[0][0].get("name", mid)).strip() or mid
        mentions = max(_tag_number(mid, t, "media_mentions", 0.0) for t, *_ in members)
        museums.append(Museum(id=mid, name=name, location=location, floor_area_m2=floor_area, media_mentions=mentions))
    if repeated := repeated_ids([m.id for m in museums]):
        raise InvalidAttributeError(f"repeated museum ids: {repeated}")
    return museums


def _run_filters(corpus, ref: GeoPoint, stages, footprints, keywords, buffer_m: float):
    """Run the chosen filter stages in :data:`FILTER_STAGES` order, yielding each one's survivors and count.

    ``stages`` None runs every stage, the spatial one only when footprints
    are given. Each stage function is looked up by its module-level name as
    it runs, so a name rebound after import (a tracer's wrapper) is the one
    called. A caller that rebinds its name for the rows to each yield holds
    no row a stage dropped while the next stage runs.
    """
    if stages is None:
        stages = [s for s in FILTER_STAGES if s != "spatial" or footprints is not None]
    run = {
        "semantic": lambda c: semantic_filter(c, keywords),
        "spatial": lambda c: spatial_filter(c, footprints, ref, buffer_m),
        "dedup": lambda c: dedup(c),
        "checkin": lambda c: remove_checkins(c),
    }
    for stage in FILTER_STAGES:
        if stage in stages:
            corpus, entry = run[stage](corpus)
            yield corpus, entry


def _located_homes(corpus: Corpus, zones, ref: GeoPoint):
    """Bot removal, then each survivor's home cell and zone: (survivors, the bot-removal count, :class:`Homes`)."""
    corpus, bots = remove_automated_accounts(corpus, ref)
    return corpus, bots, assign_home_zone(infer_home_locations(corpus, ref), zones)


def run_pipeline(
    tweets,
    zones,
    museums,
    ref: GeoPoint,
    footprints=None,
    keywords=DEFAULT_KEYWORDS,
    buffer_m: float = DEFAULT_BUFFER_M,
) -> PipelineResult:
    """Run the full chain and aggregate the observed matrix.

    Homes are inferred from the complete post-cleaning corpus before any
    content filtering (:func:`_located_homes`, shared with the ``homes``
    verb); the filter stages then run through :func:`_run_filters`, shared
    with the ``filter`` verb, the spatial one only when footprints are
    given. Zone boundaries and footprints must be planar in the frame
    anchored at ref. ``tweets`` is a :class:`Corpus` or any sequence of
    :class:`Tweet`; this is the one place a sequence becomes a Corpus.
    It is this frame's one name for the rows, rebound to each stage's output:
    rows the semantic stage drops from a corpus no caller names (``flows``) go
    before the next stage, except on 3.10, whose callers hold their arguments.
    """
    tweets, bots, homes = _located_homes(tweets if isinstance(tweets, Corpus) else Corpus.from_tweets(tweets), zones, ref)
    stages = [bots]
    for tweets, entry in _run_filters(tweets, ref, None, footprints, keywords, buffer_m):
        stages.append(entry)
    matrix, aggregate = build_observed_matrix(tweets, homes, zones, museums)
    return PipelineResult(matrix=matrix, report=PipelineReport((*stages, aggregate)), homes=homes, museum_tweets=tweets)
