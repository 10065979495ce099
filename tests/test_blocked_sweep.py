"""The blocked sweep against a per-beta loop over the scalar kernel.

``sweep_beta`` solves its grid in blocks of ``_BETA_BLOCK`` betas, one
stacked kernel per block. ``scalar_sim`` keeps the kernel that evaluated one
beta at a time; a loop over it, scored as the sweep scores each point, is
the oracle. Every r and rms must be equal, not close, and a grid that fails
must raise what the loop raises first: the same type, message and residual.
The premise under the equality is that a stacked ``@`` or ``solve`` gives
each slice the bits of the call on that slice alone.
"""

import math
import time
from unittest import mock

import numpy as np
import pytest
import scalar_sim
from conftest import assert_same_outcome, make_museum, make_zone, outcome
from hypothesis import example, given, settings
from hypothesis import strategies as st

from museumflows import sim
from museumflows.calibration import _BETA_BLOCK, SPEC_FLAGS, BetaGrid, _centred, _correlation, _rms, sweep_beta
from museumflows.errors import (
    ConvergenceError,
    DegenerateVarianceError,
    InvalidParameterError,
    UnreachableOriginError,
)
from museumflows.sim import Deterrence, FlowMatrix, ModelSpec, model_inputs
from museumflows.synth import SynthConfig, demo_region, generate_corpus


def scalar_sweep(zones, museums, observed, spec, betas):
    """The r and rms of each beta, one kernel matrix at a time, as sweep_beta scores them."""
    inputs = model_inputs(zones, museums, spec, observed)
    obs_flat = observed.reindex(inputs.origin_ids, inputs.destination_ids).flat()
    obs_dev, obs_norm = _centred(obs_flat)
    r_values, rms_values = [], []
    for beta in betas:
        values = scalar_sim.model_values(inputs, float(beta)).ravel()
        rms_values.append(_rms(values - obs_flat))
        try:
            r_values.append(_correlation(*_centred(values), obs_dev, obs_norm))
        except DegenerateVarianceError:
            r_values.append(math.nan)
    if np.all(np.isnan(r_values)):
        raise DegenerateVarianceError("model matrix constant at every grid point")
    return r_values, rms_values


def blocked_sweep(zones, museums, observed, spec, betas):
    result = sweep_beta(zones, museums, observed, spec, list(betas))
    return result.r_values, result.rms_values


def assert_same_sweep(zones, museums, observed, spec, betas):
    """The blocked sweep equals the per-beta loop bit for bit, or raises what it raises; returns the outcome."""
    got = outcome(blocked_sweep, zones, museums, observed, spec, betas)
    expected = outcome(scalar_sweep, zones, museums, observed, spec, betas)
    if assert_same_outcome(got, expected):
        for have, want in zip(got[1], expected[1]):  # r, then rms
            np.testing.assert_array_equal(have, want)  # ==, NaN where the oracle has NaN
    return got


@pytest.fixture(scope="module")
def paper_scale():
    """179 zones x 15 museums and 5000 trips, as in the paper; the trip matrix has empty zone rows."""
    region = demo_region(179, 15, seed=11)
    truth_spec = ModelSpec(deterrence=Deterrence("exponential", 0.95))
    cfg = SynthConfig(true_spec=truth_spec, n_trips=5000, seed=11)
    _, truth = generate_corpus(region.zones, region.museums, cfg, region.ref)
    return region, truth


@pytest.mark.parametrize("kind", ["exponential", "power"])
@pytest.mark.parametrize("constraint", ["unconstrained", "origin", "doubly"])
def test_blocked_sweep_equals_the_per_beta_loop_at_paper_scale(paper_scale, constraint, kind):
    region, truth = paper_scale
    betas = BetaGrid().betas()
    for attract, demand in SPEC_FLAGS.values():
        spec = ModelSpec(Deterrence(kind), attract, demand, constraint)
        assert assert_same_sweep(region.zones, region.museums, truth, spec, betas)[0] == "ok"


def test_a_power_grid_through_beta_one_equals_the_per_beta_loop(paper_scale):
    # d ** -1.0 takes numpy's reciprocal shortcut, which a stacked power would not
    region, truth = paper_scale
    betas = BetaGrid(0.5, 0.25, 5).betas()
    assert 1.0 in betas.tolist()
    for constraint in ("unconstrained", "origin", "doubly"):
        spec = ModelSpec(Deterrence("power"), constraint=constraint)
        assert assert_same_sweep(region.zones, region.museums, truth, spec, betas)[0] == "ok"


@st.composite
def small_worlds(draw):
    """(zones, museums, observed, spec, betas): a few zones and museums within about 100 km.

    Observed counts are sparse, so rows and columns are often empty, and
    grids reach betas where exp underflows between the far points.
    """
    n, m = draw(st.integers(2, 7)), draw(st.integers(2, 5))
    spot = st.tuples(st.floats(53.0, 54.0), st.floats(-2.5, -1.0))
    size = st.floats(100.0, 5000.0)
    zones = [make_zone(f"z{i}", *draw(spot), draw(size), draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 20.0)))
             for i in range(n)]
    museums = [make_museum(f"m{j}", *draw(spot), draw(size), draw(st.floats(0.0, 100.0))) for j in range(m)]
    counts = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0, 7.0]), min_size=n * m, max_size=n * m))
    observed = FlowMatrix([z.id for z in zones], [mu.id for mu in museums], np.reshape(counts, (n, m)))
    kind = draw(st.sampled_from(["exponential", "power"]))
    attract, demand = draw(st.sampled_from(list(SPEC_FLAGS.values())))
    spec = ModelSpec(Deterrence(kind), attract, demand, draw(st.sampled_from(["unconstrained", "origin", "doubly"])))
    count = draw(st.sampled_from([1, _BETA_BLOCK - 1, _BETA_BLOCK, _BETA_BLOCK + 1, 2 * _BETA_BLOCK + 1]))
    top = draw(st.sampled_from([2.0, 10.0]) if kind == "exponential" else st.just(2.0))
    betas = BetaGrid(draw(st.floats(0.0, top)), draw(st.floats(0.01, top / 10)), count).betas()
    return zones, museums, observed, spec, betas


# Both sides raise the same ConvergenceError, whose last residual is NaN.
NAN_RESIDUAL_WORLD = (
    [make_zone("z0", 53.0, -2.0, 100.0), make_zone("z1", 53.0, -1.0, 100.0), make_zone("z2", 53.0, -1.0, 100.0)],
    [make_museum(f"m{j}", 53.0, -2.0 if j == 2 else -1.0, 100.0, 0.0) for j in range(4)],
    FlowMatrix(["z0", "z1", "z2"], ["m0", "m1", "m2", "m3"], [[0.0, 0.0, 1.0, 7.0], [0.0] * 4, [0.0] * 4]),
    ModelSpec(Deterrence("exponential"), constraint="doubly"),
    BetaGrid(0.0, 1.0, 24).betas(),
)


@settings(max_examples=150, deadline=None)
@given(small_worlds())
@example(NAN_RESIDUAL_WORLD)
def test_blocked_sweep_equals_the_per_beta_loop_on_small_worlds(world):
    zones, museums, observed, *_ = world
    if np.all(observed.values == observed.values.flat[0]):
        return  # no curve: the sweep and the loop both refuse a constant observed matrix
    # Both sides run under a cap of 100 steps, which keeps grids whose betas
    # run out of Newton steps short.
    with mock.patch.object(sim, "_MAX_STEPS", 100), mock.patch.object(scalar_sim, "_MAX_STEPS", 100):
        assert_same_sweep(*world)


def test_a_residual_that_is_not_finite_stops_the_balancing_at_once():
    # NaN never recovers (the fallback sweep makes u NaN), so the solve
    # raises at once rather than after _MAX_STEPS steps
    start = time.perf_counter()
    got = outcome(blocked_sweep, *NAN_RESIDUAL_WORLD)
    seconds = time.perf_counter() - start
    assert_same_sweep(*NAN_RESIDUAL_WORLD)
    assert got[:2] == ("error", ConvergenceError) and math.isnan(got[3])
    assert seconds <= 0.05


def two_clusters(far_km=111.0):
    """Two zones and two museums per cluster, the clusters ``far_km`` apart; trips only within a cluster."""
    step = far_km / 111.2
    zones = [make_zone(f"z{i}", 53.8 + step * (i // 2) + 0.01 * i, -1.5 + 0.02 * i, 1000.0 + 100 * i) for i in range(4)]
    museums = [make_museum(f"m{j}", 53.805 + step * (j // 2) + 0.01 * j, -1.51 + 0.03 * j) for j in range(4)]
    counts = [[5.0, 1.0, 0.0, 0.0], [2.0, 4.0, 0.0, 0.0], [0.0, 0.0, 3.0, 6.0], [0.0, 0.0, 1.0, 1.0]]
    return zones, museums, FlowMatrix([z.id for z in zones], [m.id for m in museums], counts)


def test_a_support_cut_by_underflow_takes_lstsq_in_a_block_of_fast_steps(monkeypatch):
    # past beta ~ 6.7 the kernel between the clusters underflows to 0, so the
    # Jacobian splits into blocks: those slices take the lstsq step in the
    # same stacked call as slices that take the fast one
    zones, museums, observed = two_clusters()
    newton_step = sim._newton_step
    connected = []

    def watched(J, rhs):
        connected.append(J.all(axis=(1, 2)))
        return newton_step(J, rhs)

    monkeypatch.setattr(sim, "_newton_step", watched)
    betas = np.linspace(0.5, 12.0, _BETA_BLOCK)
    for attract, demand in SPEC_FLAGS.values():
        spec = ModelSpec(Deterrence(), attract, demand, "doubly")
        assert assert_same_sweep(zones, museums, observed, spec, betas)[0] == "ok"
    assert any(c.any() and not c.all() for c in connected)


def test_zero_rows_and_columns_equal_the_per_beta_loop():
    zones, museums, observed = two_clusters(far_km=20.0)
    values = observed.values.copy()
    values[1] = 0.0
    values[:, 2] = 0.0
    observed = FlowMatrix(observed.origin_ids, observed.destination_ids, values)
    betas = BetaGrid(0.05, 0.05, 2 * _BETA_BLOCK + 1).betas()
    for constraint in ("unconstrained", "origin", "doubly"):
        for kind in ("exponential", "power"):
            spec = ModelSpec(Deterrence(kind), True, True, constraint)
            assert assert_same_sweep(zones, museums, observed, spec, betas)[0] == "ok"


def test_a_beta_out_of_steps_raises_before_a_later_unreachable_one(monkeypatch):
    # beta 0.5 needs more than one Newton step; at beta 10 the far zone's
    # kernel underflows to 0, so it reaches no museum, which the solver finds
    # before its first step: the blocked sweep must still raise for 0.5
    zones, museums, observed = two_clusters(far_km=20.0)
    zones = zones + [make_zone("far", 55.6, -1.5)]
    counts = np.vstack([observed.values, [[1.0, 0.0, 0.0, 1.0]]])
    observed = FlowMatrix([z.id for z in zones], observed.destination_ids, counts)
    spec = ModelSpec(constraint="doubly")
    with pytest.raises(UnreachableOriginError, match=r"origins \[4\]"):
        sweep_beta(zones, museums, observed, spec, [10.0])
    for module in (sim, scalar_sim):
        monkeypatch.setattr(module, "_MAX_STEPS", 1)
    got = assert_same_sweep(zones, museums, observed, spec, [0.5, 10.0])
    assert got[:2] == ("error", ConvergenceError) and "in 1 Newton steps" in got[2] and got[3] > 0


def test_an_invalid_beta_raises_after_the_betas_before_it(monkeypatch):
    zones, museums, observed = two_clusters(far_km=20.0)
    spec = ModelSpec(constraint="doubly")
    assert assert_same_sweep(zones, museums, observed, spec, [0.5, -1.0])[:2] == ("error", InvalidParameterError)
    for module in (sim, scalar_sim):
        monkeypatch.setattr(module, "_MAX_STEPS", 1)
    assert assert_same_sweep(zones, museums, observed, spec, [0.5, -1.0])[:2] == ("error", ConvergenceError)


def test_the_origin_regime_names_the_dead_origins_of_the_first_dead_beta():
    # zone 1 is ~100 km from every museum and zone 2 ~160 km: zone 2's kernel
    # underflows from beta ~4.7 on, zone 1's from ~7.5 on
    museums = [make_museum("m0", 53.80, -1.50), make_museum("m1", 53.81, -1.52)]
    zones = [make_zone("z0", 53.80, -1.51), make_zone("z1", 54.70, -1.50), make_zone("z2", 55.24, -1.50)]
    observed = FlowMatrix([z.id for z in zones], [m.id for m in museums], [[3.0, 1.0], [1.0, 2.0], [2.0, 2.0]])
    spec = ModelSpec(constraint="origin")
    got = assert_same_sweep(zones, museums, observed, spec, [1.0, 5.0, 8.0])
    assert got[:2] == ("error", UnreachableOriginError) and got[2].startswith("origins [2] ")
    with pytest.raises(UnreachableOriginError, match=r"origins \[1, 2\]"):
        sweep_beta(zones, museums, observed, spec, [8.0])
