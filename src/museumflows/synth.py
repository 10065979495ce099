"""Synthetic corpora sampled from a known ground-truth model.

Trips are drawn multinomially from the model's flow matrix. Every trip gets
its own user: a burst of keyword-free tweets pinned to the origin zone (so
home inference must land there) plus one keyword tweet at the museum point.
Decoy users add keyword-free chatter at random locations. Messages are
collected as columns (stamps as integer microseconds) and go into a Corpus
in one call of the column appender the NDJSON reader uses.

All randomness comes from numpy's default_rng (PCG64) seeded from the
config, which keeps corpora byte-identical across platforms and runs.
"""

from __future__ import annotations

import math
from array import array
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

    lo, hi = HOME_TWEETS_PER_USER
    epoch_us = _utc_us(EPOCH)
    users, texts = [], []
    stamp_us, lat_col, lon_col = array("q"), array("d"), array("d")

    def emit(user, hours, minutes, lat, lon, text):
        users.append(user)
        stamp_us.append(epoch_us + hours * 3_600_000_000 + minutes * 60_000_000)
        lat_col.append(lat)
        lon_col.append(lon)
        texts.append(text)

    trip = 0
    for i, home in enumerate(_home_points(zones, ref)):
        for j, museum in enumerate(museums):
            for _ in range(int(counts[i, j])):
                user = f"t{trip:05d}"
                n_home = int(rng.integers(lo, hi + 1))
                for k in range(n_home):
                    text = HOME_TEXTS[int(rng.integers(len(HOME_TEXTS)))]
                    emit(user, trip, k, home.lat, home.lon, text)
                text = MUSEUM_TEXTS[int(rng.integers(len(MUSEUM_TEXTS)))]
                emit(user, trip, n_home, museum.location.lat, museum.location.lon, text)
                trip += 1

    if cfg.noise > 0.0:
        n_decoys = int(round(cfg.n_trips * cfg.noise / (1.0 - cfg.noise)))
        lat_lo, lat_hi = min(z.centroid.lat for z in zones), max(z.centroid.lat for z in zones)
        lon_lo, lon_hi = min(z.centroid.lon for z in zones), max(z.centroid.lon for z in zones)
        for d in range(n_decoys):
            lat = float(rng.uniform(lat_lo, lat_hi))
            lon = float(rng.uniform(lon_lo, lon_hi))
            text = DECOY_TEXTS[int(rng.integers(len(DECOY_TEXTS)))]
            emit(f"d{d:05d}", trip, d, lat, lon, text)

    n = len(users)
    rows = _CorpusBuilder()
    rows.extend([f"syn{k:07d}" for k in range(1, n + 1)], users, stamp_us, [EPOCH.tzinfo] * n, lat_col, lon_col, texts, [None] * n)
    del users, texts, stamp_us, lat_col, lon_col  # copied into rows; not kept through the shuffled copy
    return rows.corpus().take(rng.permutation(n)), truth


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
