"""Fit statistic and sweep tests.

pearson_r is checked against a sum-by-sum covariance oracle written in plain
Python; the fit at one beta (a one-point sweep) against hand-flattened
vectors; the sweep and the one-point fit against model matrices built in the
tests from numpy formulas, with the IPF oracle for the doubly constrained
regime. The doubly sweep at paper scale is also run with the SVD
least-squares Newton step that the gauge-fixed step replaced.
"""

import math

import numpy as np
import pytest
from conftest import ipf_oracle, make_museum, make_zone

from museumflows import sim
from museumflows.calibration import (
    BetaGrid,
    SweepResult,
    compare_specifications,
    pearson_r,
    rms_error,
    spec_name,
    sweep_beta,
)
from museumflows.errors import (
    DegenerateVarianceError,
    InvalidParameterError,
    ShapeError,
)
from museumflows.geometry import haversine_km
from museumflows.sim import (
    Deterrence,
    FlowMatrix,
    ModelSpec,
    attractiveness_weights,
    demand_weights,
    model_inputs,
    model_matrix,
    model_values,
    unconstrained_flows,
)
from museumflows.synth import SynthConfig, demo_region, generate_corpus


def pearson_oracle(xs, ys):
    """Oracle: textbook covariance over stddev product, plain Python sums."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / n
    vx = sum((a - mx) ** 2 for a in xs) / n
    vy = sum((b - my) ** 2 for b in ys) / n
    return cov / math.sqrt(vx * vy)


def small_world(beta=0.7, attract=False, demand=False):
    zones = [
        make_zone("z0", 53.80, -1.55, 1200.0, arts_share=0.2, earnings_proxy=4.0),
        make_zone("z1", 53.75, -1.62, 800.0, arts_share=0.05, earnings_proxy=9.0),
        make_zone("z2", 53.86, -1.48, 1500.0),
    ]
    museums = [make_museum("m0", 53.79, -1.53, 2500.0, 40.0), make_museum("m1", 53.82, -1.50, 600.0, 3.0)]
    spec = ModelSpec(
        deterrence=Deterrence("exponential", beta),
        use_attractiveness=attract,
        use_demand=demand,
    )
    return zones, museums, spec


def test_pearson_examples():
    assert pearson_r([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0, abs=1e-15)
    assert pearson_r([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0, abs=1e-15)
    # hand arithmetic: covariance 1, stddevs sqrt(5)/2 each, r = 4/5
    assert pearson_r([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_pearson_against_oracle():
    rng = np.random.default_rng(211)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        x = rng.normal(0.0, 10.0, size=n)
        y = rng.normal(5.0, 3.0, size=n) + 0.3 * x
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue
        assert pearson_r(x, y) == pytest.approx(pearson_oracle(list(x), list(y)), abs=1e-12)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(223)
    for _ in range(100):
        x = rng.uniform(-5, 5, size=30)
        y = rng.uniform(-5, 5, size=30)
        a, b = float(rng.uniform(0.1, 9.0)), float(rng.uniform(-20, 20))
        assert pearson_r(a * x + b, y) == pytest.approx(pearson_r(x, y), abs=1e-12)
        assert pearson_r(-x, y) == pytest.approx(-pearson_r(x, y), abs=1e-12)


def test_pearson_bounds_and_errors():
    rng = np.random.default_rng(227)
    for _ in range(100):
        x = rng.uniform(0, 1, size=10)
        y = rng.uniform(0, 1, size=10)
        assert -1.0 <= pearson_r(x, y) <= 1.0
    with pytest.raises(DegenerateVarianceError):
        pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateVarianceError):
        pearson_r([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    with pytest.raises(ShapeError):
        pearson_r([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ShapeError):
        pearson_r([1.0], [2.0])


def test_rms_examples():
    x = [3.0, -1.0, 4.0]
    assert rms_error(x, x) == 0.0
    # hand arithmetic: (9 + 16) / 2 = 12.5
    assert rms_error([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)
    assert rms_error([0.0, 0.0], [3.0, 4.0]) == pytest.approx(3.5355, abs=1e-4)
    rng = np.random.default_rng(229)
    for _ in range(50):
        a = rng.uniform(-5, 5, size=12)
        b = rng.uniform(-5, 5, size=12)
        assert rms_error(a, b) == pytest.approx(rms_error(b, a), rel=1e-15)
    with pytest.raises(ShapeError):
        rms_error([1.0], [1.0, 2.0])
    with pytest.raises(ShapeError):
        rms_error([], [])


def test_fit_at_beta_self_fit():
    zones, museums, spec = small_world(beta=0.7)
    observed = unconstrained_flows(zones, museums, spec)
    fit = sweep_beta(zones, museums, observed, spec, [0.7])
    assert fit.best_r == pytest.approx(1.0, abs=1e-12)
    assert fit.best_rms == pytest.approx(0.0, abs=1e-12)


def test_fit_at_beta_manual_flattening_oracle():
    zones, museums, spec = small_world(beta=0.5)
    model = unconstrained_flows(zones, museums, spec)
    obs_rows = [[4.0, 1.0], [2.0, 2.0], [9.0, 3.0]]
    observed = FlowMatrix(("z0", "z1", "z2"), ("m0", "m1"), obs_rows)
    fit = sweep_beta(zones, museums, observed, spec, [0.5])
    model_flat = [model.values[i, j] for i in range(3) for j in range(2)]
    obs_flat = [obs_rows[i][j] for i in range(3) for j in range(2)]
    assert fit.best_r == pytest.approx(pearson_oracle(model_flat, obs_flat), abs=1e-12)
    assert fit.best_rms == pytest.approx(rms_error(model_flat, obs_flat), abs=1e-12)


def test_fit_at_beta_label_alignment():
    zones, museums, spec = small_world(beta=0.9)
    observed = FlowMatrix(("z0", "z1", "z2"), ("m0", "m1"), [[4.0, 1.0], [2.0, 2.0], [9.0, 3.0]])
    base = sweep_beta(zones, museums, observed, spec, [0.9])
    # permute the zone list and the observed rows together
    perm_zones = [zones[2], zones[0], zones[1]]
    perm_obs = FlowMatrix(("z2", "z0", "z1"), ("m1", "m0"), [[3.0, 9.0], [1.0, 4.0], [2.0, 2.0]])
    perm = sweep_beta(perm_zones, museums, perm_obs, spec, [0.9])
    assert perm.best_r == pytest.approx(base.best_r, abs=1e-12)
    assert perm.best_rms == pytest.approx(base.best_rms, abs=1e-12)


def test_fit_at_beta_population_scale_invariance():
    zones, museums, spec = small_world(beta=0.6)
    observed = FlowMatrix(("z0", "z1", "z2"), ("m0", "m1"), [[4.0, 1.0], [2.0, 2.0], [9.0, 3.0]])
    base = sweep_beta(zones, museums, observed, spec, [0.6])
    scaled = [
        make_zone(z.id, z.centroid.lat, z.centroid.lon, z.population * 7.5, z.arts_share, z.earnings_proxy)
        for z in zones
    ]
    assert sweep_beta(scaled, museums, observed, spec, [0.6]).best_r == pytest.approx(
        base.best_r, abs=1e-12
    )


def test_fit_at_beta_errors():
    zones, museums, spec = small_world()
    wrong_labels = FlowMatrix(("z0", "z1", "zX"), ("m0", "m1"), np.ones((3, 2)))
    with pytest.raises(ShapeError):
        sweep_beta(zones, museums, wrong_labels, spec, [0.5])
    # equal populations and a flat kernel make the model constant
    flat_zones = [make_zone(f"z{i}", 53.8 - 0.02 * i, -1.5, 1000.0) for i in range(3)]
    observed = FlowMatrix(
        tuple(z.id for z in flat_zones), ("m0", "m1"), [[1.0, 0.0], [2.0, 1.0], [0.0, 3.0]]
    )
    with pytest.raises(DegenerateVarianceError):
        sweep_beta(flat_zones, museums, observed, spec, [0.0])
    with pytest.raises(InvalidParameterError, match="^beta grid must be a non-empty 1-D sequence$"):
        sweep_beta(flat_zones, museums, observed, spec, [])


def test_beta_grid():
    grid = BetaGrid()
    betas = grid.betas()
    assert betas.size == 200
    assert betas[0] == pytest.approx(0.01)
    assert betas[-1] == pytest.approx(2.00)
    with pytest.raises(InvalidParameterError):
        BetaGrid(step=0.0)
    with pytest.raises(InvalidParameterError):
        BetaGrid(count=0)
    with pytest.raises(InvalidParameterError):
        BetaGrid(start=-0.5)
    with pytest.raises(InvalidParameterError, match=r"^grid start 1e\+308 step 1e\+308 count 3 overflows$"):
        BetaGrid(1e308, 1e308, 3)
    assert BetaGrid(1e308, 1e308, 1).betas().tolist() == [1e308]
    # a count too large for a float used to raise a bare OverflowError
    with pytest.raises(InvalidParameterError, match=r"^grid start 0\.01 step 0\.01 count 10{400} overflows$"):
        BetaGrid(0.01, 0.01, 10**400)


def test_sweep_recovers_exact_grid_point():
    zones, museums, spec = small_world(beta=0.95, attract=True)
    observed = unconstrained_flows(zones, museums, spec)
    result = sweep_beta(zones, museums, observed, spec)
    assert result.best_beta == pytest.approx(0.95, abs=1e-12)
    assert result.best_r == pytest.approx(1.0, abs=1e-12)
    # strictly the maximum: every other grid point fits worse
    best_idx = int(np.argmax(result.r_values))
    for k, r in enumerate(result.r_values):
        if k != best_idx:
            assert r < result.best_r
    assert result.best_r == max(result.r_values)
    assert result.best_rms == result.rms_values[best_idx]


def test_sweep_singleton_grid():
    zones, museums, spec = small_world(beta=0.4)
    observed = unconstrained_flows(zones, museums, spec)
    result = sweep_beta(zones, museums, observed, spec, BetaGrid(start=0.17, step=0.01, count=1))
    assert result.best_beta == pytest.approx(0.17)
    assert len(result.r_values) == 1


def test_sweep_order_independent():
    zones, museums, spec = small_world(beta=0.6)
    observed = unconstrained_flows(zones, museums, spec)
    forward = sweep_beta(zones, museums, observed, spec, BetaGrid(0.1, 0.05, 30))
    backward = sweep_beta(zones, museums, observed, spec, list(BetaGrid(0.1, 0.05, 30).betas())[::-1])
    assert backward.best_beta == pytest.approx(forward.best_beta, abs=1e-15)
    assert backward.best_r == pytest.approx(forward.best_r, abs=1e-15)


def test_sweep_skips_degenerate_points():
    museums = [make_museum("m0", 53.79, -1.53), make_museum("m1", 53.82, -1.50)]
    zones = [make_zone(f"z{i}", 53.80 - 0.03 * i, -1.56 + 0.02 * i, 1000.0) for i in range(3)]
    observed = FlowMatrix(
        tuple(z.id for z in zones), ("m0", "m1"), [[5.0, 1.0], [3.0, 2.0], [1.0, 4.0]]
    )
    spec = ModelSpec()
    # equal populations: beta = 0 collapses the model to a constant matrix
    result = sweep_beta(zones, museums, observed, spec, [0.0, 0.3, 0.6, 0.9])
    assert math.isnan(result.r_values[0])
    assert not math.isnan(result.rms_values[0])
    assert result.best_beta in (0.3, 0.6, 0.9)
    # coincident zones *and* coincident museums: every distance is equal,
    # so the model is constant at every beta
    same_zones = [make_zone(f"z{i}", 53.80, -1.56, 1000.0) for i in range(3)]
    same_museums = [make_museum("m0", 53.79, -1.53), make_museum("m1", 53.79, -1.53)]
    obs2 = FlowMatrix(
        tuple(z.id for z in same_zones), ("m0", "m1"), [[5.0, 1.0], [3.0, 2.0], [1.0, 4.0]]
    )
    with pytest.raises(DegenerateVarianceError):
        sweep_beta(same_zones, same_museums, obs2, spec, [0.5])


def test_sweep_and_fit_at_beta_match_numpy_models_per_constraint():
    zones, museums, _ = small_world()
    observed = FlowMatrix(("z0", "z1", "z2"), ("m0", "m1"), [[6.0, 1.0], [2.0, 3.0], [8.0, 2.0]])
    obs = observed.values
    O, D = obs.sum(axis=1), obs.sum(axis=0)
    dmat = np.array([[haversine_km(z.centroid, m.location) for m in museums] for z in zones])
    production = demand_weights(zones) * np.array([z.population for z in zones])
    w = attractiveness_weights(museums)

    def expected_model(constraint, beta):
        f = np.exp(-beta * dmat)
        if constraint == "unconstrained":
            return production[:, None] * w[None, :] * f
        if constraint == "origin":
            return O[:, None] * (w * f) / (w * f).sum(axis=1, keepdims=True)
        return ipf_oracle(O, D, f)

    grid = BetaGrid(0.05, 0.25, 6)
    for constraint in ("unconstrained", "origin", "doubly"):
        spec = ModelSpec(constraint=constraint, use_attractiveness=True, use_demand=True)
        result = sweep_beta(zones, museums, observed, spec, grid)
        fits = [(k, result.r_values[k], result.rms_values[k]) for k in range(grid.count)]
        fit = sweep_beta(zones, museums, observed, spec, [0.42])
        fits.append((None, fit.best_r, fit.best_rms))
        # closed forms agree to rounding; the doubly solve to its 1e-8 margin tolerance
        tol = 1e-7 if constraint == "doubly" else 1e-12
        for k, r, rms in fits:
            beta = 0.42 if k is None else float(grid.betas()[k])
            model = expected_model(constraint, beta).ravel()
            assert r == pytest.approx(pearson_oracle(list(model), list(obs.ravel())), abs=tol)
            assert rms == pytest.approx(math.sqrt(np.mean((model - obs.ravel()) ** 2)), rel=tol)


def test_sweep_scores_every_point_as_pearson_r_and_rms_error_do():
    # the sweep centres the observed side once; each point must still be
    # bit-identical to scoring the model matrix with the public functions
    zones, museums, _ = small_world()
    observed = FlowMatrix(("z0", "z1", "z2"), ("m0", "m1"), [[6.0, 1.0], [2.0, 3.0], [8.0, 2.0]])
    grid = BetaGrid(0.05, 0.25, 8)
    for constraint in ("unconstrained", "origin", "doubly"):
        spec = ModelSpec(constraint=constraint, use_attractiveness=True, use_demand=True)
        result = sweep_beta(zones, museums, observed, spec, grid)
        inputs = model_inputs(zones, museums, spec, observed)
        for beta, r, rms in zip(result.betas, result.r_values, result.rms_values):
            values = model_values(inputs, [beta])[0]
            assert r == pearson_r(values, observed.values)
            assert rms == rms_error(values, observed.values)


def test_sweep_rejects_an_observed_matrix_of_one_cell():
    zones, museums, spec = small_world()
    observed = FlowMatrix(("z0",), ("m0",), [[4.0]])
    with pytest.raises(ShapeError, match="at least 2 values"):
        sweep_beta(zones[:1], museums[:1], observed, spec, [0.5])


@pytest.fixture(scope="module")
def paper_scale():
    """179 zones x 15 museums and 5000 trips, as in the paper."""
    region = demo_region(179, 15, seed=11)
    truth_spec = ModelSpec(deterrence=Deterrence("exponential", 0.95))
    cfg = SynthConfig(true_spec=truth_spec, n_trips=5000, seed=11)
    _, truth = generate_corpus(region.zones, region.museums, cfg, region.ref)
    return region, truth


def test_doubly_sweep_at_paper_scale_holds_margins_at_every_beta(paper_scale):
    # the trip matrix has empty zone rows, and every beta must still converge
    region, truth = paper_scale
    assert np.any(truth.row_sums() == 0)
    spec = ModelSpec(constraint="doubly")
    result = sweep_beta(region.zones, region.museums, truth, spec)
    assert len(result.r_values) == 200
    assert np.all(np.isfinite(result.r_values))
    for beta in result.betas:
        at_beta = ModelSpec(deterrence=Deterrence("exponential", beta), constraint="doubly")
        model = model_matrix(region.zones, region.museums, at_beta, truth)
        np.testing.assert_allclose(model.row_sums(), truth.row_sums(), rtol=1e-6, atol=0)
        np.testing.assert_allclose(model.col_sums(), truth.col_sums(), rtol=1e-6, atol=0)


@pytest.mark.parametrize("use_attractiveness", [False, True])
def test_doubly_sweep_at_paper_scale_matches_the_lstsq_step_oracle(paper_scale, use_attractiveness, monkeypatch):
    # the gauge-fixed Newton step against the SVD least-squares step it
    # replaced: the curve may move by rounding only, and at this scale the
    # fast path must be the one that runs
    region, truth = paper_scale
    spec = ModelSpec(constraint="doubly", use_attractiveness=use_attractiveness)
    lstsq = np.linalg.lstsq
    fallbacks = []

    def counted_lstsq(*args, **kwargs):
        fallbacks.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    fast = sweep_beta(region.zones, region.museums, truth, spec)
    assert not fallbacks
    monkeypatch.setattr(sim, "_newton_step", lambda J, rhs: np.array([lstsq(j, r, rcond=None)[0] for j, r in zip(J, rhs)]))
    oracle = sweep_beta(region.zones, region.museums, truth, spec)
    np.testing.assert_allclose(fast.r_values, oracle.r_values, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fast.rms_values, oracle.rms_values, rtol=1e-12, atol=0)
    assert fast.best_beta == oracle.best_beta


def test_sweep_recovers_beta_from_multinomial_sample():
    rng = np.random.default_rng(233)
    zones = [
        make_zone(f"z{i}", 53.70 + 0.015 * (i % 5), -1.70 + 0.02 * (i // 5), float(rng.integers(500, 3000)))
        for i in range(20)
    ]
    museums = [
        make_museum(f"m{j}", 53.72 + 0.013 * j, -1.66 + 0.015 * j, float(rng.integers(400, 5000)), float(rng.integers(1, 200)))
        for j in range(5)
    ]
    spec = ModelSpec(deterrence=Deterrence("exponential", 0.95), use_attractiveness=True)
    truth = unconstrained_flows(zones, museums, spec)
    probs = truth.values.ravel() / truth.total()
    counts = rng.multinomial(5000, probs).reshape(truth.shape)
    observed = FlowMatrix(truth.origin_ids, truth.destination_ids, counts.astype(float))
    result = sweep_beta(zones, museums, observed, spec)
    assert 0.90 <= result.best_beta <= 1.00


def test_compare_specifications_order_and_gain():
    zones, museums, _ = small_world()
    generating = ModelSpec(deterrence=Deterrence("exponential", 0.8), use_attractiveness=True)
    observed = unconstrained_flows(zones, museums, generating)
    results = compare_specifications(zones, museums, observed, BetaGrid(0.1, 0.1, 15))
    assert [spec_name(r.spec) for r in results] == ["baseline", "attract", "attract-demand"]
    assert results[1].best_r == pytest.approx(1.0, abs=1e-12)
    assert results[1].best_r >= results[0].best_r
    assert all(isinstance(r, SweepResult) for r in results)
