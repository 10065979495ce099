"""Synthetic corpus generation and parameter recovery."""

import functools

import numpy as np
import pytest
from scipy import stats

from museumflows.calibration import BetaGrid
from museumflows.errors import DegenerateModelError, InvalidParameterError
from museumflows.geometry import GeoPoint, project, snap_to_grid, point_in_polygon
from museumflows.pipeline import DEFAULT_KEYWORDS, Corpus, run_pipeline, tokenize
from museumflows.sim import Deterrence, ModelSpec, Zone, unconstrained_flows
from museumflows.synth import (
    DECOY_TEXTS,
    HOME_TEXTS,
    SynthConfig,
    _lemire,
    _trip_draws,
    demo_region,
    generate_corpus,
    recovery_report,
)
from conftest import corpus_columns
from scalar_synth import generate_corpus as scalar_generate_corpus

SPEC = ModelSpec(deterrence=Deterrence("exponential", 0.95))


def tweet_key(t):
    return (t.id, t.user_id, t.timestamp, t.location.lat, t.location.lon, t.text, t.source)


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        SynthConfig(true_spec=SPEC, n_trips=0)
    with pytest.raises(InvalidParameterError):
        SynthConfig(true_spec=SPEC, n_trips=10, noise=1.0)
    with pytest.raises(InvalidParameterError):
        SynthConfig(true_spec=SPEC, n_trips=10, noise=-0.1)
    constrained = ModelSpec(deterrence=Deterrence("exponential", 0.95), constraint="doubly")
    with pytest.raises(InvalidParameterError):
        SynthConfig(true_spec=constrained, n_trips=10)
    with pytest.raises(InvalidParameterError, match=r"seed -1 must be >= 0"):
        SynthConfig(true_spec=SPEC, n_trips=10, seed=-1)


def test_same_seed_same_corpus():
    region = demo_region(6, 3, seed=1)
    cfg = SynthConfig(true_spec=SPEC, n_trips=200, noise=0.25, seed=77)
    a_corpus, a_truth = generate_corpus(region.zones, region.museums, cfg, region.ref)
    b_corpus, b_truth = generate_corpus(region.zones, region.museums, cfg, region.ref)
    assert [tweet_key(t) for t in a_corpus] == [tweet_key(t) for t in b_corpus]
    assert np.array_equal(a_truth.values, b_truth.values)


def row_columns(corpus):
    """A Corpus's columns with codes resolved to names and zones, floats by their bits."""
    return (
        [corpus.users[c] for c in corpus.user.tolist()], corpus.stamp_us.tolist(),
        [corpus.tzinfos[c] for c in corpus.tz.tolist()], corpus.lat.tobytes(), corpus.lon.tobytes(),
        corpus.ids.tolist(), corpus.texts.tolist(), corpus.sources.tolist(),
    )


@pytest.mark.parametrize(
    "n_zones, n_museums, region_seed, n_trips, noise, seed",
    [(6, 3, 1, 300, 0.4, 77), (12, 4, 20130601, 800, 0.1, 20130601)],  # noisy; data/demo
)
def test_generated_corpus_equals_the_corpus_of_its_tweets(n_zones, n_museums, region_seed, n_trips, noise, seed):
    region = demo_region(n_zones, n_museums, seed=region_seed)
    cfg = SynthConfig(true_spec=SPEC, n_trips=n_trips, noise=noise, seed=seed)
    corpus, _ = generate_corpus(region.zones, region.museums, cfg, region.ref)
    assert row_columns(corpus) == row_columns(Corpus.from_tweets(list(corpus)))


def test_generated_corpus_is_the_corpus_recovery_reports():
    region = demo_region(6, 3, seed=1)
    cfg = SynthConfig(true_spec=SPEC, n_trips=150, noise=0.2, seed=8)
    corpus, _ = generate_corpus(region.zones, region.museums, cfg, region.ref)
    assert isinstance(corpus, Corpus)
    report = recovery_report(region.zones, region.museums, cfg, region.ref, BetaGrid(0.5, 0.05, 20))
    assert isinstance(report.corpus, Corpus)
    assert corpus_columns(report.corpus) == corpus_columns(corpus)


def test_different_seed_different_corpus():
    region = demo_region(6, 3, seed=1)
    a = generate_corpus(region.zones, region.museums, SynthConfig(SPEC, 200, seed=1), region.ref)
    b = generate_corpus(region.zones, region.museums, SynthConfig(SPEC, 200, seed=2), region.ref)
    assert [tweet_key(t) for t in a[0]] != [tweet_key(t) for t in b[0]]


def test_truth_total_is_trip_count():
    region = demo_region(9, 4, seed=2)
    for n in (1, 17, 500):
        _, truth = generate_corpus(region.zones, region.museums, SynthConfig(SPEC, n, seed=3), region.ref)
        assert truth.total() == float(n)
        assert np.all(truth.values == np.round(truth.values))


def test_single_trip_yields_single_observed_cell():
    region = demo_region(6, 3, seed=4)
    cfg = SynthConfig(true_spec=SPEC, n_trips=1, seed=5)
    corpus, truth = generate_corpus(region.zones, region.museums, cfg, region.ref)
    result = run_pipeline(corpus, region.zones, region.museums, region.ref)
    assert result.matrix.total() == 1.0
    assert np.count_nonzero(result.matrix.values) == 1
    assert np.array_equal(result.matrix.values, truth.values)


def test_noiseless_pipeline_reproduces_truth_exactly():
    region = demo_region(20, 5, seed=7)
    cfg = SynthConfig(true_spec=SPEC, n_trips=300, seed=9)
    corpus, truth = generate_corpus(region.zones, region.museums, cfg, region.ref)
    result = run_pipeline(corpus, region.zones, region.museums, region.ref)
    assert result.matrix.origin_ids == truth.origin_ids
    assert result.matrix.destination_ids == truth.destination_ids
    assert np.array_equal(result.matrix.values, truth.values)


def test_decoys_do_not_contaminate_the_matrix():
    region = demo_region(20, 5, seed=7)
    cfg = SynthConfig(true_spec=SPEC, n_trips=300, noise=0.3, seed=9)
    corpus, truth = generate_corpus(region.zones, region.museums, cfg, region.ref)
    decoy_users = {t.user_id for t in corpus if t.user_id.startswith("d")}
    assert len(decoy_users) == round(300 * 0.3 / 0.7)
    result = run_pipeline(corpus, region.zones, region.museums, region.ref)
    assert np.array_equal(result.matrix.values, truth.values)


def test_filler_texts_carry_no_keywords():
    prefixes = tuple(k.casefold() for k in DEFAULT_KEYWORDS)
    for text in HOME_TEXTS + DECOY_TEXTS:
        for token in tokenize(text):
            assert not token.casefold().startswith(prefixes)


def test_home_cell_centers_sit_inside_their_zones():
    region = demo_region(20, 5, seed=7)
    for zone in region.zones:
        cell = snap_to_grid(project(zone.centroid, region.ref))
        assert point_in_polygon(cell.center(), zone.boundary)


def test_zero_flow_model_is_rejected():
    region = demo_region(4, 2, seed=8)
    dead = tuple(
        Zone(z.id, z.name, z.centroid, population=0.0, boundary=z.boundary)
        for z in region.zones
    )
    with pytest.raises(DegenerateModelError):
        generate_corpus(dead, region.museums, SynthConfig(SPEC, 100, seed=1), region.ref)


def test_trip_counts_match_model_distribution():
    # chi-square goodness of fit of sampled counts against the model cells
    region = demo_region(6, 3, seed=3)
    cfg = SynthConfig(true_spec=SPEC, n_trips=50_000, seed=5)
    _, truth = generate_corpus(region.zones, region.museums, cfg, region.ref)
    model = unconstrained_flows(region.zones, region.museums, SPEC)
    expected = model.values.ravel() / model.total() * cfg.n_trips
    observed = truth.values.ravel()
    keep = expected >= 5.0
    if not keep.all():
        observed = np.append(observed[keep], observed[~keep].sum())
        expected = np.append(expected[keep], expected[~keep].sum())
    _, p = stats.chisquare(observed, expected)
    assert p > 0.001


def test_recovery_large_noiseless_sample_is_on_grid():
    region = demo_region(20, 5, seed=7)
    cfg = SynthConfig(true_spec=SPEC, n_trips=50_000, seed=11)
    report = recovery_report(region.zones, region.museums, cfg, region.ref)
    assert report.true_beta == 0.95
    assert report.abs_error <= 0.01
    assert report.best_beta == pytest.approx(0.95)


def test_recovery_moderate_noisy_sample():
    region = demo_region(20, 5, seed=7)
    cfg = SynthConfig(true_spec=SPEC, n_trips=5000, noise=0.2, seed=42)
    report = recovery_report(region.zones, region.museums, cfg, region.ref)
    assert report.abs_error <= 0.05


def test_recovery_grid_excluding_truth_picks_nearest_edge():
    region = demo_region(20, 5, seed=7)
    cfg = SynthConfig(true_spec=SPEC, n_trips=50_000, seed=11)
    grid = BetaGrid(start=0.5, step=0.05, count=9)  # tops out at 0.90
    report = recovery_report(region.zones, region.museums, cfg, region.ref, grid=grid)
    assert report.best_beta == pytest.approx(0.90)


def test_demo_region_shape_and_determinism():
    a = demo_region(12, 4, seed=6)
    b = demo_region(12, 4, seed=6)
    assert len(a.zones) == 12 and len(a.museums) == 4 and len(a.footprints) == 4
    assert a == b
    c = demo_region(12, 4, seed=60)
    assert c != a
    with pytest.raises(InvalidParameterError):
        demo_region(0, 4)
    with pytest.raises(InvalidParameterError, match=r"seed -1 must be >= 0"):
        demo_region(12, 4, seed=-1)


@functools.lru_cache(maxsize=None)
def region_of(n_zones, n_museums, region_seed):
    return demo_region(n_zones, n_museums, seed=region_seed)


# (zones, museums, region seed): a small region, data/demo's and the calibrate-paper workload's
@pytest.mark.parametrize("region", [(6, 3, 1), (12, 4, 20130601), (179, 15, 11)], ids=["6x3", "demo", "paper"])
@pytest.mark.parametrize("noise", [0.0, 0.1, 0.2])
@pytest.mark.parametrize("n_trips", [1, 37, 5000])
def test_generate_corpus_matches_the_scalar_generator(region, noise, n_trips):
    r = region_of(*region)
    zones, museums, ref = r.zones, r.museums, r.ref
    for seed in (0, 77, 20130601):
        cfg = SynthConfig(true_spec=SPEC, n_trips=n_trips, noise=noise, seed=seed)
        corpus, truth = generate_corpus(zones, museums, cfg, ref)
        want_corpus, want_truth = scalar_generate_corpus(zones, museums, cfg, ref)
        assert corpus_columns(corpus) == corpus_columns(want_corpus), seed
        assert truth.origin_ids == want_truth.origin_ids and truth.destination_ids == want_truth.destination_ids
        assert truth.values.tobytes() == want_truth.values.tobytes(), seed


# 3 and 4 are the generator's own ranges and almost never reject; 2**31 + 1
# rejects about half of all raw values, 5 and 2**32 - 1 a few in 2**32
@pytest.mark.parametrize("n", [3, 4, 5, 2**31 + 1, 2**32 - 1])
@pytest.mark.parametrize("seed", [0, 1, 2013])
def test_lemire_decodes_raw_draws_as_numpy_draws_bounded_integers(n, seed):
    scalar, block = np.random.default_rng(seed), np.random.default_rng(seed)
    scalar.integers(2), block.integers(2)  # start with half a 64-bit value cached
    want = [int(scalar.integers(n)) for _ in range(500)]
    state = block.bit_generator.state
    value, rejected = _lemire(block.integers(0, 2**32, size=2000, dtype=np.uint32), n)
    kept = np.flatnonzero(~rejected)[:500]
    assert value[kept].tolist() == want
    block.bit_generator.state = state
    block.integers(0, 2**32, size=kept[-1] + 1, dtype=np.uint32)
    assert block.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("n_texts", [4, 2**31 + 1])
@pytest.mark.parametrize("n_trips", [1, 2, 300])
def test_trip_draws_make_the_scalar_calls_draws(n_texts, n_trips):
    # 2**31 + 1 texts reject about half of all raw values, which puts gaps
    # between the text draws and runs the first block of raw values out
    lo, hi = 2, 4
    for seed in range(5):
        scalar, block = np.random.default_rng(seed), np.random.default_rng(seed)
        want_counts, want_texts = [], []
        for _ in range(n_trips):
            want_counts.append(int(scalar.integers(lo, hi + 1)))
            want_texts += [int(scalar.integers(n_texts)) for _ in range(want_counts[-1] + 1)]
        counts, within, texts = _trip_draws(block, n_trips, lo, hi, n_texts)
        assert counts.tolist() == want_counts and texts.tolist() == want_texts
        assert within.tolist() == [k for c in want_counts for k in range(c + 1)]
        assert block.bit_generator.state == scalar.bit_generator.state
        assert block.integers(2**40) == scalar.integers(2**40)
