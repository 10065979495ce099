"""Synthetic corpora sampled from a known ground-truth model.

Trips are drawn multinomially from the model's flow matrix. Every trip gets
its own user: a burst of keyword-free tweets pinned to the origin zone (so
home inference must land there) plus one keyword tweet at the museum point.
Decoy users add keyword-free chatter at random locations. Messages are
built as columns (stamps as integer microseconds) and go into a Corpus
through the column appender the NDJSON reader uses: one call for the
trips and one for the decoys.

All randomness comes from numpy's default_rng (PCG64) seeded from the
config, which keeps corpora byte-identical across platforms and runs. The
stream is that of one scalar ``rng.integers`` call per trip draw, and the
bytes of every corpus, ``data/demo`` and the benchmark inputs pin it, so
the trip draws are made as arrays that reproduce it bit for bit: one block
of raw 32-bit values, decoded as numpy's bounded integers decode them
(:func:`_lemire`) and walked trip by trip, then drawn again, as many as
were used, so that every later draw sees the state it saw. The decoys keep
their scalar calls: ``uniform`` computes ``low + range * u`` in C, which a
compiler may contract into a fused multiply-add, so an array form of it
could not be shown to give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .calibration import SweepResult, sweep_beta
from .errors import DegenerateModelError, InvalidParameterError
from .geometry import (
    GeoPoint,
    PlanarPoint,
    PolygonM,
    polygons_contain,
    project,
    ring_edges,
    snap_to_grid,
    unproject,
)
from .pipeline import Corpus, _CorpusBuilder, _utc_us, run_pipeline
from .sim import FlowMatrix, ModelSpec, Museum, Zone, unconstrained_flows

EPOCH = datetime(2013, 6, 1, 8, 0, 0, tzinfo=timezone.utc)

# Each synthetic user posts this many home tweets (inclusive range). At least
# two, so the home cell outvotes the user's single museum tweet.
HOME_TWEETS_PER_USER = (2, 4)

MUSEUM_TEXTS = (
    "Lovely day at the museum",
    "gallery visit with friends",
    "new exhibition opening tonight",
    "what an exhibit that was",
)
HOME_TEXTS = (
    "morning coffee first",
    "back home at last",
    "quiet evening in tonight",
    "weekend plans sorted",
)
DECOY_TEXTS = (
    "sunny walk in the park",
    "match day at the ground",
    "train delayed yet again",
    "lunch down by the river",
)


def _check_seed(seed: int):
    """numpy's default_rng takes no negative seed."""
    if seed < 0:
        raise InvalidParameterError(f"seed {seed} must be >= 0")


@dataclass(frozen=True)
class SynthConfig:
    """Ground truth and sampling parameters for one synthetic corpus.

    Each trip's user posts a number of home tweets drawn from
    ``HOME_TWEETS_PER_USER`` and one museum tweet. ``noise`` is the share
    of decoy users, each posting one keyword-free message, among all users.
    """

    true_spec: ModelSpec
    n_trips: int
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_trips < 1:
            raise InvalidParameterError(f"n_trips {self.n_trips} must be >= 1")
        if not 0.0 <= self.noise < 1.0:
            raise InvalidParameterError(f"noise {self.noise} outside [0, 1)")
        if self.true_spec.constraint != "unconstrained":
            raise InvalidParameterError("synthetic trips sample from the unconstrained model")
        _check_seed(self.seed)


@dataclass(frozen=True)
class RecoveryReport:
    """Did the sweep find the beta the corpus was generated with?

    Carries the corpus it generated, the very Corpus the pipeline ran on,
    and its exact trip-count matrix.
    """

    best_beta: float
    true_beta: float
    abs_error: float
    sweep: SweepResult
    corpus: Corpus
    truth: FlowMatrix


@dataclass(frozen=True)
class DemoRegion:
    """A self-contained square-grid study area for experiments."""

    zones: tuple[Zone, ...]
    museums: tuple[Museum, ...]
    footprints: tuple[tuple[Museum, PolygonM], ...]
    ref: GeoPoint


def _home_points(zones, ref: GeoPoint) -> list[GeoPoint]:
    """Where each zone's synthetic users live: the center of its centroid's grid cell.

    Cell-center placement keeps the inferred home cell's center inside the
    zone polygon; a zone so thin that the snapped center escapes it keeps
    its raw centroid.
    """
    centers = [snap_to_grid(project(z.centroid, ref)).center() for z in zones]
    x, y = np.array([(c.x, c.y) for c in centers]).reshape(-1, 2).T
    bounded = [k for k, z in enumerate(zones) if z.boundary is not None]
    held = np.ones(len(zones), dtype=bool)
    edges = ring_edges([zones[k].boundary for k in bounded])
    held[bounded] = polygons_contain(x[bounded], y[bounded], edges, np.arange(len(bounded)))[0]
    return [unproject(c, ref) if h else z.centroid for z, c, h in zip(zones, centers, held.tolist())]


def _lemire(raw, n: int):
    """Decode raw 32-bit draws into [0, n) as numpy's bounded integers do.

    numpy maps a raw value u to (u * n) >> 32 and rejects it, taking the
    next raw value instead, where (u * n) mod 2**32 < (2**32 - n) mod n
    (Lemire, ACM TOMACS 2019). Returns each raw value's decoded value and
    whether it is rejected. Holds for 2 <= n <= 2**32; numpy draws nothing
    for n = 1.
    """
    m = raw.astype(np.uint64) * np.uint64(n)
    return (m >> np.uint64(32)).astype(np.intp), (m & np.uint64(0xFFFFFFFF)) < (2**32 - n) % n


def _orbit(nxt, n: int):
    """The first n points of 0, nxt[0], nxt[nxt[0]], ...; each pass doubles the points found and the jump."""
    points, jump = np.zeros(1, dtype=np.intp), nxt
    while len(points) < n:
        points = np.concatenate([points, jump[points]])
        jump = jump[jump]
    return points[:n]


def _trip_draws(rng, n_trips: int, lo: int, hi: int, n_texts: int):
    """The draws of n_trips trips, each made as scalar calls would make them.

    A trip draws its home-tweet count ``rng.integers(lo, hi + 1)``, then
    count + 1 texts ``rng.integers(n_texts)``: its home tweets' and its
    museum tweet's. Returns each trip's count, each text's index within its
    trip, and the texts, trip by trip; ``rng`` is left as those calls would
    leave it. The calls are decoded from one block of raw draws, walked trip
    by trip; the state is then rewound and exactly the raw draws used are
    drawn again.
    """
    state = rng.bit_generator.state
    cap = (hi + 2) * n_trips  # enough raw draws unless some are rejected
    while True:
        raw = rng.integers(0, 2**32, size=cap, dtype=np.uint32)
        rng.bit_generator.state = state
        count, rejected = _lemire(raw, hi - lo + 1)
        count_at = np.flatnonzero(~rejected)
        text, rejected = _lemire(raw, n_texts)
        text_at = np.flatnonzero(~rejected)
        # a trip whose count lands at raw position count_at[i] draws its texts
        # at text_at[first[i]] to text_at[last[i]]; the next trip's count lands
        # at count_at[nxt[i]], and nxt is len(count_at) past the block's end
        n_home = lo + count[count_at]
        first = np.searchsorted(text_at, count_at, side="right")
        last = first + n_home
        ends = np.append(text_at, cap)[np.minimum(last, len(text_at))] + 1
        nxt = np.append(np.searchsorted(count_at, ends), len(count_at))
        trips = _orbit(nxt, n_trips)
        if trips[-1] < len(count_at) and last[trips[-1]] < len(text_at):
            break
        cap *= 2
    rng.integers(0, 2**32, size=text_at[last[trips[-1]]] + 1, dtype=np.uint32)
    n_home = n_home[trips]
    sizes = n_home + 1
    k = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return n_home, k, text[text_at[np.repeat(first[trips], sizes) + k]]


def _trip_rows(rng, counts, zones, museums, ref: GeoPoint):
    """Users, hours, minutes, lat, lon and texts of every trip's rows.

    Trips run over the trip-count matrix ``counts`` in row-major order. Trip
    t's user posts at hour t: n_home home tweets, then its museum tweet.
    """
    lo, hi = HOME_TWEETS_PER_USER
    n_trips = int(counts.sum())
    n_home, minute, drawn = _trip_draws(rng, n_trips, lo, hi, len(HOME_TEXTS))  # MUSEUM_TEXTS is as long
    trip = np.repeat(np.arange(n_trips), n_home + 1)
    at_museum = minute == n_home[trip]
    zone, museum = np.divmod(np.repeat(np.arange(counts.size), counts.ravel())[trip], len(museums))
    homes = _home_points(zones, ref)
    return (
        np.array([f"t{t:05d}" for t in range(n_trips)], dtype=object)[trip],
        trip,
        minute,
        np.where(at_museum, np.array([m.location.lat for m in museums])[museum], np.array([h.lat for h in homes])[zone]),
        np.where(at_museum, np.array([m.location.lon for m in museums])[museum], np.array([h.lon for h in homes])[zone]),
        np.where(at_museum, np.array(MUSEUM_TEXTS, dtype=object)[drawn], np.array(HOME_TEXTS, dtype=object)[drawn]),
    )


def _decoy_rows(rng, n_decoys: int, n_trips: int, zones):
    """Users, hours, minutes, lat, lon and texts of the decoys' rows.

    Decoy d posts once, at hour n_trips and minute d, from a uniform point in
    the box of the zone centroids.
    """
    lat_lo, lat_hi = min(z.centroid.lat for z in zones), max(z.centroid.lat for z in zones)
    lon_lo, lon_hi = min(z.centroid.lon for z in zones), max(z.centroid.lon for z in zones)
    lat, lon, drawn = np.empty(n_decoys), np.empty(n_decoys), np.empty(n_decoys, dtype=np.intp)
    for d in range(n_decoys):
        lat[d] = rng.uniform(lat_lo, lat_hi)
        lon[d] = rng.uniform(lon_lo, lon_hi)
        drawn[d] = rng.integers(len(DECOY_TEXTS))
    users = np.array([f"d{d:05d}" for d in range(n_decoys)], dtype=object)
    return users, n_trips, np.arange(n_decoys), lat, lon, np.array(DECOY_TEXTS, dtype=object)[drawn]


def generate_corpus(zones, museums, cfg: SynthConfig, ref: GeoPoint):
    """Sample a corpus and return it, as a shuffled Corpus, with the exact trip-count matrix."""
    truth_model = unconstrained_flows(zones, museums, cfg.true_spec)
    total = truth_model.total()
    if total <= 0.0:
        raise DegenerateModelError("ground-truth model has zero total flow; nothing to sample")
    rng = np.random.default_rng(cfg.seed)
    counts = rng.multinomial(cfg.n_trips, truth_model.values.ravel() / total)
    counts = counts.reshape(truth_model.shape)
    truth = FlowMatrix(truth_model.origin_ids, truth_model.destination_ids, counts.astype(float))

    epoch_us = _utc_us(EPOCH)
    rows = _CorpusBuilder()

    def add(users, hours, minutes, lat, lon, texts):
        n, done = len(users), len(rows.ids)
        ids = [f"syn{k:07d}" for k in range(done + 1, done + n + 1)]
        stamp_us = epoch_us + hours * 3_600_000_000 + minutes * 60_000_000
        rows.extend(ids, users, stamp_us, EPOCH.tzinfo, lat, lon, texts, [None] * n)

    add(*_trip_rows(rng, counts, zones, museums, ref))
    n_decoys = int(round(cfg.n_trips * cfg.noise / (1.0 - cfg.noise)))
    add(*_decoy_rows(rng, n_decoys, cfg.n_trips, zones))
    corpus = rows.corpus()
    return corpus.take(rng.permutation(len(corpus))), truth


def recovery_report(zones, museums, cfg: SynthConfig, ref: GeoPoint, grid=None) -> RecoveryReport:
    """Generate, run the full pipeline, sweep, and compare against beta*."""
    corpus, truth = generate_corpus(zones, museums, cfg, ref)
    result = run_pipeline(corpus, zones, museums, ref)
    sweep = sweep_beta(zones, museums, result.matrix, cfg.true_spec, grid)
    true_beta = cfg.true_spec.deterrence.beta
    return RecoveryReport(
        best_beta=sweep.best_beta,
        true_beta=true_beta,
        abs_error=abs(sweep.best_beta - true_beta),
        sweep=sweep,
        corpus=corpus,
        truth=truth,
    )


def _rectangle(x0: float, y0: float, x1: float, y1: float) -> PolygonM:
    """The axis-aligned rectangle with corners (x0, y0) and (x1, y1), counter-clockwise from (x0, y0)."""
    return PolygonM(exterior=(PlanarPoint(x0, y0), PlanarPoint(x1, y0), PlanarPoint(x1, y1), PlanarPoint(x0, y1)))


def demo_region(n_zones: int = 20, n_museums: int = 5, seed: int = 0) -> DemoRegion:
    """Square-grid zones (2 km sides) with scattered museums and footprints."""
    if n_zones < 1 or n_museums < 1:
        raise InvalidParameterError("demo region needs at least one zone and one museum")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    ref = GeoPoint(53.70, -1.80)
    side = 2000.0
    cols = max(1, math.ceil(math.sqrt(n_zones)))

    zones = []
    for k in range(n_zones):
        r, c = divmod(k, cols)
        x0, y0 = c * side, r * side
        zones.append(
            Zone(
                id=f"z{k:03d}",
                name=f"Zone {k}",
                centroid=unproject(PlanarPoint(x0 + side / 2, y0 + side / 2), ref),
                population=float(rng.uniform(500.0, 5000.0)),
                arts_share=float(rng.uniform(0.0, 0.5)),
                earnings_proxy=float(rng.uniform(0.0, 20.0)),
                boundary=_rectangle(x0, y0, x0 + side, y0 + side),
            )
        )

    rows = math.ceil(n_zones / cols)
    extent_x, extent_y = cols * side, rows * side
    museums = []
    footprints = []
    for j in range(n_museums):
        x = float(rng.uniform(0.1 * extent_x, 0.9 * extent_x))
        y = float(rng.uniform(0.1 * extent_y, 0.9 * extent_y))
        museum = Museum(
            id=f"m{j:02d}",
            name=f"Museum {j}",
            location=unproject(PlanarPoint(x, y), ref),
            floor_area_m2=float(rng.uniform(300.0, 8000.0)),
            media_mentions=float(rng.integers(0, 300)),
        )
        half = 30.0
        museums.append(museum)
        footprints.append((museum, _rectangle(x - half, y - half, x + half, y + half)))

    return DemoRegion(tuple(zones), tuple(museums), tuple(footprints), ref)
