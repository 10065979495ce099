"""Readers and writers for the on-disk formats.

Tweets travel as NDJSON (one object per line), geography as GeoJSON
FeatureCollections with [lon, lat] coordinates, matrices as CSV with
museum ids across the first row and zone ids down the first column.
Floats are written with repr so a write/read cycle is lossless. All
writers emit deterministic bytes: sorted keys, fixed field order, no
timestamps of their own. Every GeoJSON reader takes its features from
:func:`_features`, which checks the collection, each Feature and its
required properties, and every GeoJSON writer hands (properties,
geometry) pairs to :func:`_write_features`.

:func:`read_tweets` reads the NDJSON file in chunks of about 64 KB of
lines into the columns of a :class:`~museumflows.pipeline.Corpus`, one
call of the column appender per chunk; no Tweet object is built. Each
chunk is parsed with one ``json.loads`` and checked column by column. A
chunk that holds ``[`` or ``]`` anywhere (a bracket could merge a line
with its neighbours), a stamp that is not strict UTC, or a line that
fails any step goes through the per-line reader, which checks each line
alone, so the first bad line is reported as ``path:line`` with its usual
message. :func:`write_tweets` writes from those columns in slices of
4,096 rows, one f-string per row; stamps in a zero-offset ``timezone``
come from numpy, the rest from ``isoformat``, each in its own UTC
offset, so a read/write cycle keeps the bytes. Every reader reports
input that is not UTF-8 as a :class:`DataFormatError` naming the file
(and, for NDJSON, the line).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import DataFormatError, FlowModelError, InvalidGeometryError
from .geometry import GeoPoint, planar_polygon, polygon_centroid_area, unproject
from .pipeline import Corpus, Homes, PipelineReport, StageCount, TaggedFeature, _check_row, _CorpusBuilder, _datetime, _utc_us
from .pipeline import _FIRST_US, _LAST_US, _STAMP_RANGE
from .sim import FlowMatrix, Museum, Zone, repeated_ids
from .calibration import SweepResult, spec_name
from .synth import RecoveryReport


# --- tweets (NDJSON) ---

_TWEET_FIELDS = ("id", "user_id", "timestamp", "lat", "lon", "text")
_TWEET_KEYS = frozenset(_TWEET_FIELDS)


def _parse_timestamp(raw, path, line_no) -> datetime:
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
    if not _FIRST_US <= _utc_us(stamp) <= _LAST_US:  # such as 9999-12-31T23:00:00-05:30
        raise DataFormatError(f"{path}:{line_no}: timestamp {raw!r} {_STAMP_RANGE}")
    return stamp


def _not_utf8(where, exc: UnicodeDecodeError) -> DataFormatError:
    return DataFormatError(f"{where}: not valid UTF-8: byte 0x{exc.object[exc.start]:02x}, {exc.reason}")


# Bytes of lines read, parsed and checked together. A chunk's parsed
# objects take about ten times its bytes; kept this small they stay in
# cache, and peak memory stays near the per-line reader's.
_CHUNK_BYTES = 1 << 16

# The stamps numpy's datetime64 parses as datetime.fromisoformat does, once
# the UTC suffix is cut off: digits zeroed, each has one of these shapes.
# numpy raises on a month, day, hour, minute or second out of range, as
# datetime does; it takes year 0000, which datetime does not, and which the
# column appender then rejects.
_UTC_SHAPES = frozenset(
    "0000-00-00T00:00:00" + fraction + suffix for fraction in ("", ".000000") for suffix in ("Z", "+00:00")
)
_ZERO_DIGITS = str.maketrans("123456789", "000000000")


def _json_values(text: str):
    """The JSON value of each non-blank line of ``text``, which holds no bracket.

    The lines are parsed in one ``json.loads``, each wrapped in an array of
    its own. A string cannot hold the raw newline of the separator, and
    without brackets no line can open an array to take the separator in,
    so each wrapper holds exactly its own line: nothing for a blank line,
    one element for a line that is one JSON value. Raises ValueError where
    a line is not one JSON value.
    """
    wrapped = json.loads("[[" + "]\n,[".join(text.split("\n")) + "]]")
    return [value for (value,) in filter(None, wrapped)]  # ValueError: a line of several values


def _utc_stamp_us(stamps):
    """Each stamp's µs since 1970 UTC, read by one numpy conversion; None unless every stamp is strict UTC."""
    joined = "\n".join(stamps) + "\n"
    shapes = joined.translate(_ZERO_DIGITS).split("\n")[:-1]
    utc = joined.count("Z\n") + joined.count("+00:00\n")  # the shapes also take other offsets
    if len(shapes) != utc or utc != len(stamps) or not _UTC_SHAPES.issuperset(shapes):
        return None
    naive = joined.replace("Z\n", "\n").replace("+00:00\n", "\n").split("\n")[:-1]
    return np.array(naive, dtype="datetime64[us]").astype(np.int64)  # ValueError: a field out of range


def _extend_from_chunk(rows: _CorpusBuilder, seen: set, chunk) -> bool:
    """Append a chunk of raw lines, converted and checked column by column.

    Each value is converted as the per-line reader converts it (``str`` or
    ``float``). Returns False, having appended nothing, when the chunk
    holds a bracket, a stamp that is not strict UTC, or a line that fails
    any step: then the per-line reader reads it, and tells which line to
    report.
    """
    try:
        text = b"".join(chunk).decode("utf-8")
        if "[" in text or "]" in text:
            return False  # a bracket could merge a line with its neighbours in one parse
        objs = _json_values(text)
        if not objs or set(map(type, objs)) != {dict}:
            return False
        ids, user_ids, stamps, lat, lon, texts = ([obj[key] for obj in objs] for key in _TWEET_FIELDS)
        ids, user_ids, texts = list(map(str, ids)), list(map(str, user_ids)), list(map(str, texts))
        lat, lon = list(map(float, lat)), list(map(float, lon))
        sources = [None if source is None else str(source) for source in (obj.get("source") for obj in objs)]
        fresh = set(ids)
        if len(fresh) < len(ids) or not seen.isdisjoint(fresh):
            return False
        stamp_us = _utc_stamp_us(stamps)
        if stamp_us is None:
            return False
        rows.extend(ids, user_ids, stamp_us, [timezone.utc] * len(ids), lat, lon, texts, sources)
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError):
        return False  # UnicodeDecodeError, JSONDecodeError and the checks' own errors are ValueErrors
    seen |= fresh
    return True


def _extend_by_line(rows: _CorpusBuilder, seen: set, chunk, path, lines_before: int) -> None:
    """Append a chunk of raw lines, each checked on its own, the first bad line raising as ``path:line``."""
    found = []
    for line_no, raw in enumerate(chunk, start=lines_before + 1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _not_utf8(f"{path}:{line_no}", exc) from exc
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}:{line_no}: invalid JSON: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise DataFormatError(f"{path}:{line_no}: expected a JSON object")
        if not obj.keys() >= _TWEET_KEYS:
            missing = [k for k in _TWEET_FIELDS if k not in obj]
            raise DataFormatError(f"{path}:{line_no}: missing fields {', '.join(missing)}")
        tid, source = str(obj["id"]), obj.get("source")
        stamp = _parse_timestamp(obj["timestamp"], path, line_no)
        try:
            lat, lon = float(obj["lat"]), float(obj["lon"])
            user_id, text, source = str(obj["user_id"]), str(obj["text"]), None if source is None else str(source)
            _check_row(tid, user_id, lat, lon, text)
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}:{line_no}: {exc}") from exc
        if tid in seen:
            raise DataFormatError(f"{path}:{line_no}: duplicate tweet id {tid!r}")
        seen.add(tid)
        found.append((tid, user_id, _utc_us(stamp), stamp.tzinfo, lat, lon, text, source))
    rows.extend(*(tuple(zip(*found)) or ((),) * 8))


def read_tweets(path) -> Corpus:
    """Read an NDJSON file into a :class:`Corpus`, about 64 KB of lines at a time.

    Lines end at ``\\n``. Each chunk is decoded and parsed at once, then
    converted and checked column by column, with the checks a
    :class:`Tweet` makes and unique ids; its stamps are read by one numpy
    conversion when all are strict UTC (``YYYY-MM-DDTHH:MM:SS[.ffffff]``
    and ``Z`` or ``+00:00``). A chunk that holds ``[`` or ``]``, another
    stamp form, or a line that fails any of this goes through the per-line
    reader instead, which appends its lines one at a time: so the first bad
    line in the file is the one reported, as ``path:line``, whatever chunk
    it falls in.
    """
    rows = _CorpusBuilder()
    seen: set[str] = set()
    line_no = 0
    with open(path, "rb") as fh:
        while chunk := fh.readlines(_CHUNK_BYTES):
            if not _extend_from_chunk(rows, seen, chunk):
                _extend_by_line(rows, seen, chunk, path, line_no)
            line_no += len(chunk)
    return rows.corpus()


_WRITE_ROWS = 4096  # rows formatted and written together, so a slice's strings stay small beside the corpus
_json_str = json.encoder.encode_basestring  # as json.dumps(..., ensure_ascii=False) writes a str


def _iso_stamps(stamp_us, tz, zones, zulu) -> list:
    """Each stamp as isoformat writes it in its own zone, ``+00:00`` as ``Z``; by numpy where ``zulu[tz]``."""
    stamps = np.empty(len(stamp_us), dtype=object)
    fast, whole = zulu[tz], stamp_us % 1_000_000 == 0
    for unit, rows in (("s", fast & whole), ("us", fast & ~whole)):  # isoformat drops a zero fraction
        stamps[rows] = [s + "Z" for s in np.datetime_as_string(stamp_us[rows].astype("M8[us]"), unit=unit).tolist()]
    for i in np.flatnonzero(~fast).tolist():  # naive stamps and other zones
        stamps[i] = _datetime(int(stamp_us[i]), zones[tz[i]]).isoformat().replace("+00:00", "Z")
    return stamps.tolist()


def write_tweets(corpus: Corpus, path) -> None:
    """Write a Corpus as NDJSON from the columns, :data:`_WRITE_ROWS` rows at a time.

    Stamps in a zero-offset ``timezone`` come from numpy, the rest from ``isoformat``. Each line is one
    f-string holding what ``json.dumps(row, sort_keys=True, ensure_ascii=False)`` gives.
    """
    users = [_json_str(user) for user in corpus.users]
    zulu = np.array([isinstance(z, timezone) and z.utcoffset(None) == timedelta(0) for z in corpus.tzinfos], dtype=bool)
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(corpus), _WRITE_ROWS):
            part = slice(start, start + _WRITE_ROWS)
            stamps = _iso_stamps(corpus.stamp_us[part], corpus.tz[part], corpus.tzinfos, zulu)
            sources = ["" if s is None else f'"source": {_json_str(s)}, ' for s in corpus.sources[part].tolist()]
            columns = (corpus.ids[part], corpus.user[part], corpus.lat[part], corpus.lon[part], corpus.texts[part])
            fh.writelines(
                f'{{"id": {_json_str(tid)}, "lat": {lat!r}, "lon": {lon!r}, {source}"text": {_json_str(text)}, '
                f'"timestamp": "{stamp}", "user_id": {users[code]}}}\n'
                for tid, code, lat, lon, text, stamp, source in zip(*(c.tolist() for c in columns), stamps, sources)
            )


# --- GeoJSON plumbing ---


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc


def _features(path, noun, required):
    """Check a GeoJSON FeatureCollection file; yield (properties, geometry, label) for each Feature.

    ``label`` names the feature in messages: ``<noun> feature`` and the repr
    of its ``id`` property, or of its index where it has none; footprints,
    which may share a museum, by index alone. A Feature must hold every
    ``required`` property.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection" or not isinstance(doc.get("features"), list):
        raise DataFormatError(f"{path}: expected a GeoJSON FeatureCollection")
    for idx, feat in enumerate(doc["features"]):
        if not isinstance(feat, dict) or feat.get("type") != "Feature":
            raise DataFormatError(f"{path}: feature {idx} is not a GeoJSON Feature")
        props, geom = feat.get("properties"), feat.get("geometry")
        props = {} if props is None else props  # RFC 7946: an object or null
        if not isinstance(props, dict) or not isinstance(geom, dict):
            raise DataFormatError(f"{path}: feature {idx} lacks properties or geometry")
        label = f"{noun} feature {idx if noun == 'footprint' else props.get('id', idx)!r}".lstrip()
        if missing := [k for k in required if k not in props]:
            raise DataFormatError(f"{path}: {label}: missing properties {', '.join(missing)}")
        yield props, geom, label


def _write_features(pairs, path) -> None:
    """Write (properties, geometry) pairs as a GeoJSON FeatureCollection."""
    features = [{"type": "Feature", "properties": props, "geometry": geom} for props, geom in pairs]
    _dump_json({"type": "FeatureCollection", "features": features}, path)


def _geo_point(geom, path, label) -> GeoPoint:
    if geom.get("type") != "Point":
        raise DataFormatError(f"{path}: {label}: expected Point geometry, got {geom.get('type')!r}")
    coords = geom.get("coordinates")
    try:
        lon, lat = float(coords[0]), float(coords[1])
    except (TypeError, ValueError, IndexError) as exc:
        raise DataFormatError(f"{path}: {label}: bad Point coordinates") from exc
    try:
        return GeoPoint(lat, lon)
    except FlowModelError as exc:
        raise DataFormatError(f"{path}: {label}: {exc}") from exc


def _geo_rings(geom, path, label):
    """Polygon geometry as tuples of GeoPoint, closing vertices dropped."""
    if geom.get("type") != "Polygon":
        raise DataFormatError(f"{path}: {label}: expected Polygon geometry, got {geom.get('type')!r}")
    raw_rings = geom.get("coordinates")
    if not isinstance(raw_rings, list) or not raw_rings:
        raise DataFormatError(f"{path}: {label}: Polygon needs at least one ring")
    rings = []
    for ring in raw_rings:
        try:
            pts = [GeoPoint(float(pos[1]), float(pos[0])) for pos in ring]
        except (TypeError, ValueError, IndexError, FlowModelError) as exc:
            raise DataFormatError(f"{path}: {label}: bad ring coordinates: {exc}") from exc
        if len(pts) >= 2 and pts[0] == pts[-1]:
            pts = pts[:-1]
        if len(pts) < 3:
            raise DataFormatError(f"{path}: {label}: ring has fewer than 3 distinct vertices")
        rings.append(tuple(pts))
    return tuple(rings)


def _check_unique_ids(ids, path, kind) -> None:
    """Raise for the ids that repeat in one file, naming the file."""
    if repeated := repeated_ids(ids):
        raise DataFormatError(f"{path}: repeated {kind} ids: {repeated}")


# --- zones ---


def read_zones(path):
    """Parse zone polygons; returns (zones, ref).

    The shared planar frame is anchored at the corpus-independent corner
    (min latitude, min longitude) over every zone vertex, so any file
    describing the same zones yields the same frame.
    """
    parsed = []
    for props, geom, label in _features(path, "zone", ("id", "name", "population")):
        rings = _geo_rings(geom, path, label)
        try:
            parsed.append(
                (
                    str(props["id"]),
                    str(props["name"]),
                    float(props["population"]),
                    float(props.get("arts_share", 0.0)),
                    float(props.get("earnings_proxy", 0.0)),
                    rings,
                )
            )
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: {label}: {exc}") from exc
    if not parsed:
        raise DataFormatError(f"{path}: no zone features")
    _check_unique_ids([zid for zid, *_ in parsed], path, "zone")
    ref = GeoPoint(
        min(p.lat for *_, rings in parsed for ring in rings for p in ring),
        min(p.lon for *_, rings in parsed for ring in rings for p in ring),
    )
    zones = []
    for zid, name, population, arts, earnings, rings in parsed:
        boundary = planar_polygon(rings, ref)
        centroid, _ = polygon_centroid_area(boundary)
        try:
            zones.append(
                Zone(
                    id=zid,
                    name=name,
                    centroid=unproject(centroid, ref),
                    population=population,
                    arts_share=arts,
                    earnings_proxy=earnings,
                    boundary=boundary,
                )
            )
        except FlowModelError as exc:
            raise DataFormatError(f"{path}: zone feature {zid!r}: {exc}") from exc
    return zones, ref


def write_zones(zones, ref, path) -> None:
    pairs = []
    for z in zones:
        if z.boundary is None:
            raise InvalidGeometryError(f"zone {z.id!r} has no boundary polygon to write")
        coords = []
        for ring in z.boundary.rings():
            geo = [unproject(q, ref) for q in ring]
            coords.append([[p.lon, p.lat] for p in geo] + [[geo[0].lon, geo[0].lat]])
        props = {"id": z.id, "name": z.name, "population": z.population, "arts_share": z.arts_share,
                 "earnings_proxy": z.earnings_proxy}
        pairs.append((props, {"type": "Polygon", "coordinates": coords}))
    _write_features(pairs, path)


# --- museums and footprints ---


def read_museums(path) -> list[Museum]:
    museums = []
    for props, geom, label in _features(path, "museum", ("id", "name", "floor_area_m2")):
        location = _geo_point(geom, path, label)
        try:
            museums.append(
                Museum(
                    id=str(props["id"]),
                    name=str(props["name"]),
                    location=location,
                    floor_area_m2=float(props["floor_area_m2"]),
                    media_mentions=float(props.get("media_mentions", 0.0)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: {label}: {exc}") from exc
    _check_unique_ids([m.id for m in museums], path, "museum")
    return museums


def write_museums(museums, path) -> None:
    pairs = [({"id": m.id, "name": m.name, "floor_area_m2": m.floor_area_m2, "media_mentions": m.media_mentions},
              {"type": "Point", "coordinates": [m.location.lon, m.location.lat]}) for m in museums]
    _write_features(pairs, path)


def read_footprints(path, museums, ref):
    """Polygon features keyed by `museum_id`, projected into the shared frame."""
    by_id = {m.id: m for m in museums}
    footprints = []
    for props, geom, label in _features(path, "footprint", ("museum_id",)):
        mid = str(props["museum_id"])
        if mid not in by_id:
            raise DataFormatError(f"{path}: {label}: unknown museum id {mid!r}")
        rings = _geo_rings(geom, path, label)
        footprints.append((by_id[mid], planar_polygon(rings, ref)))
    return footprints


def read_tagged_features(path) -> list[TaggedFeature]:
    """Raw map features (points or polygons) with their property tags."""
    out = []
    for props, geom, label in _features(path, "", ()):
        kind = geom.get("type")
        if kind == "Point":
            out.append(TaggedFeature(tags=props, point=_geo_point(geom, path, label)))
        elif kind == "Polygon":
            out.append(TaggedFeature(tags=props, rings=_geo_rings(geom, path, label)))
        else:
            raise DataFormatError(f"{path}: {label}: unsupported geometry type {kind!r}")
    return out


# --- matrices (CSV) ---


def write_matrix_csv(matrix: FlowMatrix, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["zone_id", *matrix.destination_ids])
        for zid, row in zip(matrix.origin_ids, matrix.values):
            writer.writerow([zid, *[repr(float(v)) for v in row]])


def read_matrix_csv(path) -> FlowMatrix:
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc
    if not rows or not rows[0] or rows[0][0] != "zone_id":
        raise DataFormatError(f"{path}:1: expected a header row starting with 'zone_id'")
    destinations = tuple(rows[0][1:])
    if not destinations:
        raise DataFormatError(f"{path}:1: no museum columns")
    origins = []
    values = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(destinations) + 1:
            raise DataFormatError(
                f"{path}:{line_no}: expected {len(destinations) + 1} cells, got {len(row)}"
            )
        origins.append(row[0])
        try:
            values.append([float(cell) for cell in row[1:]])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{line_no}: non-numeric cell: {exc}") from exc
    if not origins:
        raise DataFormatError(f"{path}: no zone rows")
    try:
        return FlowMatrix(tuple(origins), destinations, values)
    except FlowModelError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


# --- sweep results ---


def write_sweep_csv(sweep: SweepResult, path) -> None:
    name = spec_name(sweep.spec)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "r", "rms", "spec"])
        for beta, r, rms in zip(sweep.betas, sweep.r_values, sweep.rms_values):
            writer.writerow([repr(beta), repr(r), repr(rms), name])


def write_sweep_json(sweep: SweepResult, path) -> None:
    def clean(x):
        return None if math.isnan(x) else x

    payload = {
        "spec": spec_name(sweep.spec),
        "best_beta": sweep.best_beta,
        "best_r": sweep.best_r,
        "best_rms": sweep.best_rms,
        "points": [
            {"beta": b, "r": clean(r), "rms": rms}
            for b, r, rms in zip(sweep.betas, sweep.r_values, sweep.rms_values)
        ],
    }
    _dump_json(payload, path)


def write_recovery_json(report: RecoveryReport, path) -> None:
    payload = {"best_beta": report.best_beta, "true_beta": report.true_beta, "abs_error": report.abs_error}
    _dump_json(payload, path)


# --- pipeline reports ---


def write_report_json(report: PipelineReport, path) -> None:
    _dump_json({"stages": [asdict(s) for s in report.stages]}, path)


def read_report_json(path) -> PipelineReport:
    doc = _load_json(path)
    stages = doc.get("stages") if isinstance(doc, dict) else None
    if not isinstance(stages, list):
        raise DataFormatError(f"{path}: expected an object with a 'stages' list")
    parsed = []
    for idx, entry in enumerate(stages):
        try:
            parsed.append(
                StageCount(
                    stage=str(entry["stage"]),
                    tweets_in=int(entry["tweets_in"]),
                    tweets_out=int(entry["tweets_out"]),
                    users_remaining=int(entry["users_remaining"]),
                )
            )
        except (TypeError, KeyError, ValueError) as exc:
            raise DataFormatError(f"{path}: stage entry {idx}: {exc}") from exc
    return PipelineReport(tuple(parsed))


def format_report(report: PipelineReport) -> str:
    """Fixed-width stage table for terminal display."""
    header = f"{'stage':<16} {'in':>8} {'out':>8} {'users':>8} {'kept':>7}"
    lines = [header, "-" * len(header)]
    for s in report.stages:
        kept = f"{100.0 * s.tweets_out / s.tweets_in:.1f}%" if s.tweets_in else "-"
        lines.append(
            f"{s.stage:<16} {s.tweets_in:>8} {s.tweets_out:>8} {s.users_remaining:>8} {kept:>7}"
        )
    return "\n".join(lines)


# --- flow map ---


def write_flow_lines(matrix: FlowMatrix, zones, museums, path) -> None:
    """One straight LineString per nonzero cell, zone centroid to museum."""
    zone_by_id = {z.id: z for z in zones}
    museum_by_id = {m.id: m for m in museums}
    pairs = []
    for i, zid in enumerate(matrix.origin_ids):
        if zid not in zone_by_id:
            raise DataFormatError(f"flow matrix references unknown zone id {zid!r}")
        for j, mid in enumerate(matrix.destination_ids):
            if mid not in museum_by_id:
                raise DataFormatError(f"flow matrix references unknown museum id {mid!r}")
            count = float(matrix.values[i, j])
            if count <= 0.0:
                continue
            z, m = zone_by_id[zid], museum_by_id[mid]
            line = [[z.centroid.lon, z.centroid.lat], [m.location.lon, m.location.lat]]
            props = {"origin": zid, "destination": mid, "count": int(count) if count.is_integer() else count}
            pairs.append((props, {"type": "LineString", "coordinates": line}))
    _write_features(pairs, path)


# --- user homes ---


def write_homes_csv(homes: Homes, path) -> None:
    """Write a Homes from the columns; no zone is an empty cell."""
    users, zone_ids = homes.users, [z or "" for z in homes.zone_ids] + [""]
    columns = (homes.user, homes.ix, homes.iy, homes.count, homes.zone)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "cell_ix", "cell_iy", "tweet_count_at_cell", "zone_id"])
        writer.writerows(
            [users[code], ix, iy, count, zone_ids[zone]] for code, ix, iy, count, zone in zip(*(c.tolist() for c in columns))
        )


def _dump_json(payload, path) -> None:
    """Serialize any JSON-safe payload with deterministic bytes, in one ``json.dumps`` and one write."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, ensure_ascii=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
