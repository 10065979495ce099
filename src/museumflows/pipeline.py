"""From a raw geotagged-message corpus to the observed flow matrix.

The chain: drop automated accounts, infer each user's home cell from their
full activity, filter the corpus down to museum-visit evidence (keywords,
optionally building footprints), deduplicate, drop check-in relays, then
count (home zone, nearest museum) pairs.

Every planar step shares one local frame; its reference coordinate is a
required argument wherever grid cells or footprint distances are involved,
so results cannot silently depend on corpus order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import (
    AmbiguousZoneError,
    EmptyInputError,
    InvalidAttributeError,
    InvalidGeometryError,
    InvalidParameterError,
)
from .geometry import (
    EARTH_RADIUS_M,
    MAX_FRAME_DEGREES,
    GeoPoint,
    GridCell,
    PlanarPoint,
    PolygonM,
    containment_box,
    distance_to_polygon_m,
    haversine_km,
    point_in_polygon,
    point_on_boundary,
    polygon_centroid_area,
    project,
    snap_to_grid,
    unproject,
)
from .sim import FlowMatrix, Museum, Zone

MAX_TEXT_CODEPOINTS = 280
DEFAULT_KEYWORDS = ("museum", "gallery", "exhibition", "exhibit")
DEFAULT_CHECKIN_PATTERNS = ("4sq.com", "foursquare")
DEFAULT_BUFFER_M = 10.0
DEFAULT_ACTIVITY_THRESHOLD = 1000
DEFAULT_STATIC_FRACTION = 0.95
DEFAULT_MERGE_RADIUS_M = 100.0
DEFAULT_FLOOR_AREA_M2 = 1.0
GRID_RESOLUTION_M = 100.0

_TOKEN_SPLIT = re.compile(r"[\s.,!?:;]+")
_URL = re.compile(r"\S+://\S+|\bt\.co/\S+", re.IGNORECASE)


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
        if not self.id or not self.user_id:
            raise InvalidAttributeError("tweet id and user_id must be non-empty")
        if len(self.text) > MAX_TEXT_CODEPOINTS:
            raise InvalidAttributeError(
                f"tweet {self.id}: text has {len(self.text)} code points, "
                f"limit is {MAX_TEXT_CODEPOINTS}"
            )


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

    def extended(self, entry: StageCount) -> "PipelineReport":
        return PipelineReport(self.stages + (entry,))


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
    homes: tuple[UserHome, ...]
    museum_tweets: tuple[Tweet, ...]


def _users(corpus) -> int:
    return len({t.user_id for t in corpus})


def _by_user(corpus) -> dict:
    groups: dict[str, list[Tweet]] = {}
    for t in corpus:
        groups.setdefault(t.user_id, []).append(t)
    return groups


def corpus_frame(corpus) -> GeoPoint:
    """Frame reference for a bare corpus: its minimum latitude/longitude.

    Order-independent, so every permutation of the corpus grids identically.
    Prefer the zone-derived reference when a zone system is loaded.
    """
    if not corpus:
        raise EmptyInputError("cannot derive a frame from an empty corpus")
    return GeoPoint(min(t.location.lat for t in corpus), min(t.location.lon for t in corpus))


def tokenize(text: str) -> list[str]:
    """Split on whitespace and sentence punctuation; drop tokens of <=2 chars."""
    return [tok for tok in _TOKEN_SPLIT.split(text) if len(tok) > 2]


def remove_automated_accounts(
    corpus,
    ref: GeoPoint,
    activity_threshold: int = DEFAULT_ACTIVITY_THRESHOLD,
    static_fraction: float = DEFAULT_STATIC_FRACTION,
):
    """Drop users that post heavily from a single 100 m cell.

    A user goes when they have more than activity_threshold tweets AND at
    least static_fraction of them fall into one cell.
    """
    if activity_threshold < 1:
        raise InvalidParameterError(f"activity threshold {activity_threshold} must be >= 1")
    if not 0.0 < static_fraction <= 1.0:
        raise InvalidParameterError(f"static fraction {static_fraction} outside (0, 1]")
    dropped = set()
    for user_id, tweets in _by_user(corpus).items():
        if len(tweets) <= activity_threshold:
            continue
        cells: dict[GridCell, int] = {}
        for t in tweets:
            cell = snap_to_grid(project(t.location, ref), GRID_RESOLUTION_M)
            cells[cell] = cells.get(cell, 0) + 1
        if max(cells.values()) >= static_fraction * len(tweets):
            dropped.add(user_id)
    out = [t for t in corpus if t.user_id not in dropped]
    return out, StageCount("bot-removal", len(corpus), len(out), _users(out))


def semantic_filter(corpus, keywords=DEFAULT_KEYWORDS):
    """Keep tweets with a token starting with any keyword, case-folded.

    Prefix matching keeps plurals ("museums") without letting substrings
    like "amusement" through.
    """
    keywords = tuple(k.casefold() for k in keywords)
    if not keywords:
        raise InvalidParameterError("semantic filter needs at least one keyword")
    out = [
        t
        for t in corpus
        if any(tok.casefold().startswith(keywords) for tok in tokenize(t.text))
    ]
    return out, StageCount("semantic", len(corpus), len(out), _users(out))


def spatial_filter(corpus, footprints, ref: GeoPoint, buffer_m: float = DEFAULT_BUFFER_M):
    """Keep tweets within buffer_m of any footprint polygon.

    Footprint polygons must be planar in the frame anchored at ref.
    """
    if buffer_m < 0:
        raise InvalidParameterError(f"buffer {buffer_m} must be >= 0")
    polys = [poly for _, poly in footprints]
    out = []
    for t in corpus:
        p = project(t.location, ref)
        if any(distance_to_polygon_m(p, poly) <= buffer_m for poly in polys):
            out.append(t)
    return out, StageCount("spatial", len(corpus), len(out), _users(out))


def _normalized_text(text: str) -> str:
    return " ".join(_URL.sub(" ", text).split())


def dedup(corpus):
    """Within each user, keep the earliest tweet per normalized text.

    Normalization strips URL-shaped substrings and collapses whitespace, so
    reposts that differ only in an embedded link collapse to one tweet.
    """
    keep: set[str] = set()
    for _, tweets in _by_user(corpus).items():
        seen: set[str] = set()
        for t in sorted(tweets, key=lambda t: (t.timestamp, t.id)):
            normalized = _normalized_text(t.text)
            if normalized not in seen:
                seen.add(normalized)
                keep.add(t.id)
    out = [t for t in corpus if t.id in keep]
    return out, StageCount("dedup", len(corpus), len(out), _users(out))


def remove_checkins(corpus, patterns=DEFAULT_CHECKIN_PATTERNS):
    """Drop check-in relay tweets matched by substring in text or source."""
    patterns = tuple(p.casefold() for p in patterns)
    if not patterns:
        raise InvalidParameterError("check-in removal needs at least one pattern")

    def hit(t: Tweet) -> bool:
        hay = t.text.casefold() + " " + (t.source or "").casefold()
        return any(p in hay for p in patterns)

    out = [t for t in corpus if not hit(t)]
    return out, StageCount("checkin-removal", len(corpus), len(out), _users(out))


def infer_home_locations(corpus, ref: GeoPoint, resolution: float = GRID_RESOLUTION_M):
    """Each user's modal grid cell over their full activity.

    Tied cells resolve to the one holding the user's earliest tweet among
    the tied cells; result is sorted by user id.

    Cells are computed for the whole corpus at once, with the operations of
    :func:`project` and :func:`snap_to_grid` in the same order, so each is
    bit for bit the cell the scalar functions give.
    """
    if not corpus:
        return []
    if not (math.isfinite(resolution) and resolution > 0):
        raise InvalidParameterError(f"grid resolution must be positive, got {resolution}")
    n = len(corpus)
    user_codes: dict[str, int] = {}
    codes = np.fromiter(
        (user_codes.setdefault(t.user_id, len(user_codes)) for t in corpus), np.int64, n
    )
    dlat = np.fromiter((t.location.lat for t in corpus), np.float64, n) - ref.lat
    dlon = np.fromiter((t.location.lon for t in corpus), np.float64, n) - ref.lon
    far = np.flatnonzero((np.abs(dlat) > MAX_FRAME_DEGREES) | (np.abs(dlon) > MAX_FRAME_DEGREES))
    if far.size:
        # raise for the first such tweet in user order, as a per-user loop meets it
        project(corpus[far[np.argmin(codes[far])]].location, ref)
    ix = np.floor(
        (EARTH_RADIUS_M * math.cos(math.radians(ref.lat))) * np.radians(dlon) / resolution
    ).astype(np.int64)
    iy = np.floor(EARTH_RADIUS_M * np.radians(dlat) / resolution).astype(np.int64)
    del dlat, dlon

    # one run of equal (user, ix, iy) per cell a user tweeted from
    order = np.lexsort((iy, ix, codes))
    codes, ix, iy = codes[order], ix[order], iy[order]
    change = (codes[1:] != codes[:-1]) | (ix[1:] != ix[:-1]) | (iy[1:] != iy[:-1])
    starts = np.flatnonzero(np.concatenate(([True], change)))
    counts = np.diff(np.append(starts, n))
    run_user = codes[starts]
    user_first_run = np.flatnonzero(np.concatenate(([True], run_user[1:] != run_user[:-1])))
    top = np.maximum.reduceat(counts, user_first_run)
    top_runs = np.flatnonzero(counts == top[run_user])
    # each user's top runs are top_runs[first_top[user]: first_top[user + 1]]
    first_top = np.searchsorted(run_user[top_runs], np.arange(len(user_codes) + 1))
    best_run = top_runs[first_top[:-1]]

    def earliest(run):
        # a cell's earliest (timestamp, id); an exact tie goes to the cell seen first
        members = order[starts[run]: starts[run] + counts[run]].tolist()
        return min((corpus[i].timestamp, corpus[i].id) for i in members), min(members)

    for user in np.flatnonzero(np.diff(first_top) > 1).tolist():
        best_run[user] = min(top_runs[first_top[user]: first_top[user + 1]].tolist(), key=earliest)

    names = list(user_codes)
    homes = [
        UserHome(names[user], GridCell(cx, cy, resolution), count)
        for user, (cx, cy, count) in enumerate(
            zip(ix[starts[best_run]].tolist(), iy[starts[best_run]].tolist(), top.tolist())
        )
    ]
    homes.sort(key=lambda h: h.user_id)
    return homes


def assign_home_zone(homes, zones):
    """Resolve each home cell center to the zone polygon containing it.

    Homes outside every zone keep zone_id None. A center claimed by several
    zones goes to the first zone in input order when it sits on a shared
    boundary; strict interior overlap is an error in the zone system itself.

    Resolution is per distinct cell: each cell is resolved once, for the
    first home in it, and only against the zones whose containment box holds
    its center; every later home in that cell reuses the result.
    """
    for z in zones:
        if z.boundary is None:
            raise InvalidGeometryError(f"zone {z.id} has no boundary polygon")
    boxed = [(z, containment_box(z.boundary)) for z in zones]
    zone_of_cell: dict[GridCell, str | None] = {}
    out = []
    for home in homes:
        cell = home.cell
        if cell not in zone_of_cell:
            zone_of_cell[cell] = _zone_containing(cell.center(), boxed, home.user_id)
        out.append(UserHome(home.user_id, cell, home.tweet_count_at_cell, zone_of_cell[cell]))
    return out


def _zone_containing(center: PlanarPoint, boxed, user_id: str) -> str | None:
    containing = [
        z
        for z, (xmin, ymin, xmax, ymax) in boxed
        if xmin <= center.x <= xmax
        and ymin <= center.y <= ymax
        and point_in_polygon(center, z.boundary)
    ]
    if not containing:
        return None
    if len(containing) == 1 or any(point_on_boundary(center, z.boundary) for z in containing):
        return containing[0].id
    ids = [z.id for z in containing]
    raise AmbiguousZoneError(f"home of {user_id} strictly inside zones {ids}")


def assign_nearest_museum(t: Tweet, museums) -> str:
    """Id of the closest museum; ties go to the smaller id."""
    if not museums:
        raise EmptyInputError("no museums to assign")
    return min(museums, key=lambda m: (haversine_km(t.location, m.location), m.id)).id


def build_observed_matrix(museum_tweets, homes, zones, museums):
    """Count (home zone, nearest museum) pairs into a matrix over all labels.

    Tweets of users with no zoned home contribute nothing to the matrix;
    the returned stage entry records how many tweets made it in.
    """
    zone_ids = [z.id for z in zones]
    museum_ids = [m.id for m in museums]
    zone_of = {h.user_id: h.zone_id for h in homes}
    counts = {}
    contributing = 0
    contributors = set()
    for t in museum_tweets:
        zone_id = zone_of.get(t.user_id)
        if zone_id is None:
            continue
        museum_id = assign_nearest_museum(t, museums)
        counts[(zone_id, museum_id)] = counts.get((zone_id, museum_id), 0) + 1
        contributing += 1
        contributors.add(t.user_id)
    values = [[float(counts.get((z, m), 0)) for m in museum_ids] for z in zone_ids]
    matrix = FlowMatrix(zone_ids, museum_ids, values)
    entry = StageCount("aggregate", len(museum_tweets), contributing, len(contributors))
    return matrix, entry


def extract_museums(features, merge_radius_m: float = DEFAULT_MERGE_RADIUS_M):
    """Distill raw map features into one Museum per site.

    Keeps features tagged tourism=museum or named *museum*; drops points
    duplicating a same-name polygon; merges same-name features within
    merge_radius_m; polygons contribute their computed area to floor area.
    """
    if merge_radius_m < 0:
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
            tagged = [m[0].tags.get("floor_area_m2") for m in members]
            tagged = [float(v) for v in tagged if v is not None]
            floor_area = tagged[0] if tagged else DEFAULT_FLOOR_AREA_M2
        mentions = max((float(m[0].tags.get("media_mentions", 0.0)) for m in members), default=0.0)
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


def run_pipeline(
    tweets,
    zones,
    museums,
    ref: GeoPoint,
    footprints=None,
    keywords=DEFAULT_KEYWORDS,
    buffer_m: float = DEFAULT_BUFFER_M,
    activity_threshold: int = DEFAULT_ACTIVITY_THRESHOLD,
    static_fraction: float = DEFAULT_STATIC_FRACTION,
    checkin_patterns=DEFAULT_CHECKIN_PATTERNS,
) -> PipelineResult:
    """Run the full chain and aggregate the observed matrix.

    Homes are inferred from the complete post-cleaning corpus before any
    content filtering; the spatial filter runs only when footprints are
    given. Zone boundaries and footprints must be planar in the frame
    anchored at ref.
    """
    report = PipelineReport()

    corpus, entry = remove_automated_accounts(tweets, ref, activity_threshold, static_fraction)
    report = report.extended(entry)

    homes = infer_home_locations(corpus, ref)
    homes = assign_home_zone(homes, zones)

    corpus, entry = semantic_filter(corpus, keywords)
    report = report.extended(entry)

    if footprints is not None:
        corpus, entry = spatial_filter(corpus, footprints, ref, buffer_m)
        report = report.extended(entry)

    corpus, entry = dedup(corpus)
    report = report.extended(entry)

    corpus, entry = remove_checkins(corpus, checkin_patterns)
    report = report.extended(entry)

    matrix, entry = build_observed_matrix(corpus, homes, zones, museums)
    report = report.extended(entry)

    return PipelineResult(
        matrix=matrix,
        report=report,
        homes=tuple(homes),
        museum_tweets=tuple(corpus),
    )
