"""The synthetic corpus generator as it was before its trip draws became array draws.

It is kept as a differential oracle: one scalar ``rng.integers`` call per
draw, in the order the trips are written, and one ``emit`` per row. The
package's ``generate_corpus`` decodes the same draws from one block of raw
32-bit values, so the two must give the same Corpus, bit for bit, and the
same trip-count matrix.
"""

from array import array

import numpy as np

from museumflows.errors import DegenerateModelError
from museumflows.geometry import GeoPoint
from museumflows.pipeline import _CorpusBuilder, _utc_us
from museumflows.sim import FlowMatrix, unconstrained_flows
from museumflows.synth import (
    DECOY_TEXTS,
    EPOCH,
    HOME_TEXTS,
    HOME_TWEETS_PER_USER,
    MUSEUM_TEXTS,
    SynthConfig,
    _home_points,
)


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
