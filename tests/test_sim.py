"""Model family tests.

The doubly constrained solver is checked against a raw iterative
proportional fitting oracle (``conftest.ipf_oracle``) that rescales the
kernel matrix directly, a different algorithm from the Newton solve for
destination weights inside the implementation. Its gauge-fixed Newton step
is checked against ``np.linalg.lstsq``, the step it replaced, and its
fallback on block-diagonal Jacobians against ``np.linalg.pinv`` block by
block. Attractiveness and demand weights are checked against
element-by-element arithmetic written out in the tests.
"""

import math
import warnings

import numpy as np
import pytest
from conftest import ANCHOR, deg_for_km, ipf_oracle, make_museum, make_zone
from hypothesis import example, given, settings
from hypothesis import strategies as st

from museumflows.errors import (
    ConvergenceError,
    DegenerateFactorError,
    EmptyInputError,
    InvalidAttributeError,
    InvalidParameterError,
    MarginalMismatchError,
    ShapeError,
    SingularDistanceError,
    UnreachableOriginError,
)
from museumflows.geometry import GeoPoint, haversine_km
from museumflows import sim
from museumflows.sim import (
    DETERRENCE_KINDS,
    Deterrence,
    FlowMatrix,
    ModelSpec,
    Museum,
    Zone,
    attractiveness_weights,
    demand_weights,
    deterrence_matrix,
    distance_matrix,
    doubly_constrained_flows,
    model_matrix,
    unconstrained_flows,
)


def test_zone_and_museum_validation():
    with pytest.raises(InvalidAttributeError):
        make_zone("z", 53.8, -1.5, population=-1.0)
    with pytest.raises(InvalidAttributeError):
        make_zone("z", 53.8, -1.5, arts_share=1.2)
    with pytest.raises(InvalidAttributeError):
        make_zone("z", 53.8, -1.5, earnings_proxy=-0.5)
    with pytest.raises(InvalidAttributeError):
        make_museum("m", 53.8, -1.5, floor_area_m2=0.0)
    with pytest.raises(InvalidAttributeError):
        make_museum("m", 53.8, -1.5, media_mentions=-1.0)


def test_flow_matrix_validation_and_access():
    fm = FlowMatrix(("a", "b"), ("x", "y"), [[1.0, 2.0], [3.0, 4.0]])
    assert fm.shape == (2, 2)
    assert fm.total() == 10.0
    assert fm.row_sums().tolist() == [3.0, 7.0]
    assert fm.col_sums().tolist() == [4.0, 6.0]
    assert fm.flat().tolist() == [1.0, 2.0, 3.0, 4.0]  # row-major
    with pytest.raises(ShapeError):
        FlowMatrix(("a",), ("x", "y"), [[1.0]])
    with pytest.raises(ShapeError):
        FlowMatrix(("a",), ("x",), [[-1.0]])
    with pytest.raises(ShapeError):
        FlowMatrix(("a",), ("x",), [[float("nan")]])
    with pytest.raises(ShapeError, match="repeated origin ids: a$"):
        FlowMatrix(("a", "b", "a"), ("x",), [[1.0], [2.0], [3.0]])
    with pytest.raises(ShapeError, match="repeated destination ids: x, y$"):
        FlowMatrix(("a",), ("y", "x", "z", "y", "x"), [[1.0, 2.0, 3.0, 4.0, 5.0]])


def test_flow_matrix_values_read_only():
    fm = FlowMatrix(("a",), ("x", "y"), [[1.0, 2.0]])
    with pytest.raises(ValueError):
        fm.values[0, 0] = 5.0


def test_flow_matrix_reindex():
    fm = FlowMatrix(("a", "b"), ("x", "y"), [[1.0, 2.0], [3.0, 4.0]])
    flipped = fm.reindex(("b", "a"), ("y", "x"))
    assert flipped.values.tolist() == [[4.0, 3.0], [2.0, 1.0]]
    assert flipped.reindex(("a", "b"), ("x", "y")).values.tolist() == fm.values.tolist()
    # each axis names itself; a repeated id has the same set but not the same length
    cases = [
        ((("a", "q"), ("x", "y")), "origin ids do not match; differing ids: ['b', 'q']"),
        ((("a",), ("q",)), "origin ids do not match; differing ids: ['b']"),
        ((("a", "b"), ("y", "z")), "destination ids do not match; differing ids: ['x', 'z']"),
        ((("a", "b", "a"), ("x", "y")), "origin ids do not match; differing ids: []"),
        ((("b", "a"), ("x", "y", "y")), "destination ids do not match; differing ids: []"),
    ]
    for args, message in cases:
        with pytest.raises(ShapeError) as info:
            fm.reindex(*args)
        assert str(info.value) == message


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.randoms(use_true_random=False))
def test_flow_matrix_reindex_matches_a_list_index_oracle(n_rows, n_cols, rnd):
    origins = [f"z{k}" for k in range(n_rows)]
    destinations = [f"m{k}" for k in range(n_cols)]
    rnd.shuffle(origins)
    rnd.shuffle(destinations)
    fm = FlowMatrix(origins, destinations, np.arange(n_rows * n_cols, dtype=float).reshape(n_rows, n_cols))
    rows, cols = rnd.sample(origins, n_rows), rnd.sample(destinations, n_cols)
    expected = [[fm.values[origins.index(o), destinations.index(d)] for d in cols] for o in rows]
    for got in (fm.reindex(rows, cols), fm.reindex((o for o in rows), (d for d in cols))):
        assert (got.origin_ids, got.destination_ids) == (tuple(rows), tuple(cols))
        assert got.values.tolist() == expected


def test_distance_matrix_against_pairwise_oracle():
    zones = [
        make_zone("z0", 53.80, -1.55),
        make_zone("z1", 53.75, -1.60),
        make_zone("z2", 53.85, -1.45),
    ]
    museums = [make_museum("m0", 53.79, -1.53), make_museum("m1", 53.82, -1.50)]
    dmat = distance_matrix(zones, museums)
    assert dmat.shape == (3, 2)
    for i, z in enumerate(zones):
        for j, m in enumerate(museums):
            assert dmat[i, j] == pytest.approx(haversine_km(z.centroid, m.location), rel=1e-12)


def test_distance_matrix_zero_and_shape():
    z = make_zone("z", 53.8, -1.5)
    m = make_museum("m", 53.8, -1.5)
    dmat = distance_matrix([z], [m])
    assert dmat.shape == (1, 1)
    assert dmat[0, 0] == 0.0
    with pytest.raises(EmptyInputError):
        distance_matrix([], [m])
    with pytest.raises(EmptyInputError):
        distance_matrix([z], [])


def test_deterrence_values():
    assert deterrence_matrix(np.array([0.0]), Deterrence("exponential", 2.0)).tolist() == [1.0]
    # e^-0.95, evaluated separately and frozen
    assert deterrence_matrix(np.array([1.0]), Deterrence("exponential", 0.95))[0] == pytest.approx(
        0.3867410235, abs=1e-9
    )
    assert deterrence_matrix(np.array([2.0]), Deterrence("power", 1.0)).tolist() == [0.5]
    with pytest.raises(SingularDistanceError):
        deterrence_matrix(np.array([2.0, 0.0]), Deterrence("power", 1.0))
    with pytest.raises(InvalidParameterError):
        Deterrence("exponential", -0.5)
    with pytest.raises(InvalidParameterError):
        Deterrence("logistic", 1.0)


def test_deterrence_strictly_decreasing():
    distances = np.array([0.5, 1.0, 2.0, 5.0, 20.0])
    for det in (Deterrence("exponential", 0.8), Deterrence("power", 0.8)):
        values = deterrence_matrix(distances, det)
        assert np.all(values[:-1] > values[1:])


def test_attractiveness_identical_museums():
    museums = [make_museum(f"m{i}", 53.8, -1.5 + 0.01 * i, 2000.0, 30.0) for i in range(4)]
    w = attractiveness_weights(museums)
    assert w == pytest.approx(np.ones(4), abs=1e-12)


def test_attractiveness_raw_score_at_factor_means():
    # museum "a" sits exactly at both factor means, so before the final
    # normalization its score is 0.5 * 1 + 0.3 * 1 = 0.8
    museums = [
        make_museum("a", 53.8, -1.50, 1000.0, 10.0),
        make_museum("b", 53.8, -1.51, 500.0, 5.0),
        make_museum("c", 53.8, -1.52, 1500.0, 15.0),
    ]
    raw = [
        0.5 * math.sqrt(fa / 1000.0) + 0.3 * math.sqrt(mm / 10.0)
        for fa, mm in ((1000.0, 10.0), (500.0, 5.0), (1500.0, 15.0))
    ]
    assert raw[0] == pytest.approx(0.8, abs=1e-15)
    w = attractiveness_weights(museums)
    raw_mean = sum(raw) / 3.0
    assert w == pytest.approx([r / raw_mean for r in raw], rel=1e-12)


def test_attractiveness_three_museum_fixture():
    fas = (1072.0, 3211.0, 1731.0)
    mms = (2.0, 252.0, 7.0)
    museums = [
        make_museum(f"m{i}", 53.8, -1.5 + 0.01 * i, fa, mm)
        for i, (fa, mm) in enumerate(zip(fas, mms))
    ]
    w = attractiveness_weights(museums)
    # spreadsheet-style oracle, element by element
    fa_mean = sum(fas) / 3.0
    mm_mean = sum(mms) / 3.0
    raw = [0.5 * math.sqrt(fa / fa_mean) + 0.3 * math.sqrt(mm / mm_mean) for fa, mm in zip(fas, mms)]
    raw_mean = sum(raw) / 3.0
    assert w == pytest.approx([r / raw_mean for r in raw], rel=1e-12)
    assert w.mean() == pytest.approx(1.0, abs=1e-12)


def test_attractiveness_mean_one_on_random_fixtures():
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        museums = [
            make_museum(
                f"m{i}",
                53.8,
                -1.5 + 0.001 * i,
                float(rng.uniform(100, 9000)),
                float(rng.integers(0, 300)),
            )
            for i in range(n)
        ]
        if all(m.media_mentions == 0 for m in museums):
            continue
        assert attractiveness_weights(museums).mean() == pytest.approx(1.0, abs=1e-12)


def test_attractiveness_degenerate_and_empty_input():
    museums = [make_museum("a", 53.8, -1.5, 1000.0, 0.0), make_museum("b", 53.8, -1.4, 900.0, 0.0)]
    with pytest.raises(DegenerateFactorError):
        attractiveness_weights(museums)  # media mentions all zero
    with pytest.raises(EmptyInputError):
        attractiveness_weights([])


def test_demand_weights():
    flat = [make_zone(f"z{i}", 53.8, -1.5 + 0.01 * i) for i in range(3)]
    assert demand_weights(flat) == pytest.approx(np.ones(3), abs=1e-15)
    assert demand_weights([make_zone("z", 53.8, -1.5, arts_share=0.4, earnings_proxy=7.0)]) == (
        pytest.approx([1.0])
    )
    # raw scores 0.1 + 0.2 + 0.03*10 = 0.6 and 0.1; mean 0.35
    pair = [
        make_zone("a", 53.8, -1.5, arts_share=0.2, earnings_proxy=10.0),
        make_zone("b", 53.8, -1.4),
    ]
    assert demand_weights(pair) == pytest.approx([0.6 / 0.35, 0.1 / 0.35], rel=1e-12)
    assert demand_weights(pair).mean() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(EmptyInputError):
        demand_weights([])


def test_unconstrained_flat_kernel_returns_population():
    zones = [make_zone("z0", 53.80, -1.55, 1200.0), make_zone("z1", 53.75, -1.60, 800.0)]
    museums = [make_museum("m0", 53.79, -1.53), make_museum("m1", 53.82, -1.50)]
    spec = ModelSpec(deterrence=Deterrence("exponential", 0.0))
    fm = unconstrained_flows(zones, museums, spec)
    assert fm.values == pytest.approx(np.array([[1200.0, 1200.0], [800.0, 800.0]]))


def test_unconstrained_single_pair_value():
    # museum exactly 1 km due north; 1000 * e^-0.95 = 386.7410235
    z = make_zone("z", 53.80, -1.55, 1000.0)
    m = make_museum("m", 53.80 + deg_for_km(1.0), -1.55)
    fm = unconstrained_flows([z], [m], ModelSpec(deterrence=Deterrence("exponential", 0.95)))
    assert fm.values[0, 0] == pytest.approx(386.7410235, abs=1e-6)


def test_unconstrained_linear_in_population():
    zones = [make_zone("z0", 53.80, -1.55, 1200.0), make_zone("z1", 53.75, -1.60, 800.0)]
    doubled = [make_zone(z.id, z.centroid.lat, z.centroid.lon, z.population * 2) for z in zones]
    museums = [make_museum("m0", 53.79, -1.53), make_museum("m1", 53.82, -1.50)]
    spec = ModelSpec(deterrence=Deterrence("exponential", 0.9))
    a = unconstrained_flows(zones, museums, spec)
    b = unconstrained_flows(doubled, museums, spec)
    assert b.values == pytest.approx(2.0 * a.values, rel=1e-15)


def test_unconstrained_monotone_in_beta():
    zones = [make_zone("z0", 53.80, -1.55), make_zone("z1", 53.75, -1.60)]
    museums = [make_museum("m0", 53.79, -1.53), make_museum("m1", 53.82, -1.50)]
    low = unconstrained_flows(zones, museums, ModelSpec(deterrence=Deterrence("exponential", 0.5)))
    high = unconstrained_flows(zones, museums, ModelSpec(deterrence=Deterrence("exponential", 0.9)))
    assert np.all(high.values < low.values)


def test_unconstrained_weighting_terms():
    zones = [
        make_zone("z0", 53.80, -1.55, 1000.0, arts_share=0.3, earnings_proxy=5.0),
        make_zone("z1", 53.75, -1.60, 1000.0),
    ]
    museums = [make_museum("m0", 53.79, -1.53, 3000.0, 40.0), make_museum("m1", 53.82, -1.50, 500.0, 1.0)]
    base = unconstrained_flows(zones, museums, ModelSpec(deterrence=Deterrence("exponential", 0.7)))
    full = unconstrained_flows(
        zones,
        museums,
        ModelSpec(deterrence=Deterrence("exponential", 0.7), use_attractiveness=True, use_demand=True),
    )
    inc = demand_weights(zones)
    w = attractiveness_weights(museums)
    assert full.values == pytest.approx(base.values * inc[:, None] * w[None, :], rel=1e-12)


def test_doubly_constrained_symmetric_case():
    fm = doubly_constrained_flows(
        (10.0, 10.0), (10.0, 10.0), np.full((2, 2), 3.0), Deterrence("exponential", 0.7)
    )
    assert fm.values == pytest.approx(np.full((2, 2), 5.0), rel=1e-9)


def test_doubly_constrained_margins_reproduced():
    rng = np.random.default_rng(103)
    for _ in range(20):
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 7))
        O = rng.uniform(1.0, 50.0, size=n)
        D = rng.uniform(1.0, 50.0, size=m)
        D *= O.sum() / D.sum()
        dmat = rng.uniform(0.5, 25.0, size=(n, m))
        fm = doubly_constrained_flows(O, D, dmat, Deterrence("exponential", 0.4))
        np.testing.assert_allclose(fm.row_sums(), O, rtol=1e-9)
        np.testing.assert_allclose(fm.col_sums(), D, rtol=1e-8)


def test_doubly_constrained_against_ipf_oracle():
    rng = np.random.default_rng(107)
    for kind, beta in (("exponential", 0.6), ("power", 1.3)):
        for _ in range(10):
            O = rng.uniform(5.0, 40.0, size=3)
            D = rng.uniform(5.0, 40.0, size=3)
            D *= O.sum() / D.sum()
            dmat = rng.uniform(1.0, 15.0, size=(3, 3))
            det = Deterrence(kind, beta)
            fm = doubly_constrained_flows(O, D, dmat, det)
            f = np.exp(-beta * dmat) if kind == "exponential" else dmat ** (-beta)
            np.testing.assert_allclose(fm.values, ipf_oracle(O, D, f), rtol=1e-6, atol=1e-9)


@st.composite
def sparse_doubly_instances(draw):
    """Margins of a random sparse count matrix, with whole rows and columns zeroed."""
    n = draw(st.integers(2, 8))
    m = draw(st.integers(2, 6))
    counts = np.array(draw(st.lists(st.integers(0, 30), min_size=n * m, max_size=n * m)), dtype=float)
    counts = counts.reshape(n, m)
    counts[sorted(draw(st.sets(st.integers(0, n - 1), max_size=n - 1))), :] = 0.0
    counts[:, sorted(draw(st.sets(st.integers(0, m - 1), max_size=m - 1)))] = 0.0
    # kernel cross-ratios stay below e^18 for beta <= 2: the IPF oracle
    # reaches its margin residual within its sweep budget on every 2 x 2
    # block of this range (at 0.5-6 km it does not); the closed-form test
    # below goes far beyond
    dmat = np.array(draw(st.lists(st.floats(0.5, 5.0), min_size=n * m, max_size=n * m)))
    kind = draw(st.sampled_from(DETERRENCE_KINDS))
    beta = draw(st.floats(0.0, 2.0))
    return counts.sum(axis=1), counts.sum(axis=0), dmat.reshape(n, m), Deterrence(kind, beta)


@settings(max_examples=40, deadline=None)
@given(sparse_doubly_instances())
def test_doubly_constrained_matches_ipf_on_sparse_instances(instance):
    # the 1e-8 margin bound alone would pin an entry far below its margins
    # (1e-3 of them at 0.5-4 km) only to ~1e-6, but Newton's last step lands
    # far inside it: the largest relative error over 3,000 draws was 2.7e-8
    O, D, dmat, det = instance
    fm = doubly_constrained_flows(O, D, dmat, det)
    f = np.exp(-det.beta * dmat) if det.kind == "exponential" else dmat ** (-det.beta)
    np.testing.assert_allclose(fm.values, ipf_oracle(O, D, f), rtol=1e-6, atol=0)


def test_ipf_oracle_stops_on_the_margins_and_raises_when_out_of_sweeps():
    # cross-ratio e^18: a stop on a small change per sweep returned the two
    # off-diagonal entries 1.23407e-4 and 1.23382e-4, 2.5e-8 off the margins
    f = np.exp(-2.0 * np.array([[1.0, 2.0], [9.0, 1.0]]))
    rho = f[0, 1] * f[1, 0] / (f[0, 0] * f[1, 1])
    x = math.sqrt(rho) / (1.0 + math.sqrt(rho))  # unit margins: rho (1 - x)^2 = x^2
    M = ipf_oracle((1.0, 1.0), (1.0, 1.0), f)
    # margins within 1e-11 pin these 1.2e-4 entries to ~1e-7 relative
    np.testing.assert_allclose(M, [[1.0 - x, x], [x, 1.0 - x]], rtol=1e-7, atol=0)
    with pytest.raises(AssertionError, match="margin residual"):
        ipf_oracle((1.0, 1.0), (1.0, 1.0), f, max_sweeps=10)


def test_doubly_constrained_extreme_kernel_ratios_closed_form():
    # With two live rows and columns the margins leave one free entry x = T_10,
    # fixed by the cross-ratio rho = f01 f10 / (f00 f11) of the kernel:
    # rho (D0 - x)(O1 - x) = x (O0 - D0 + x). Zero rows and columns around
    # the 2 x 2 block must stay zero.
    cases = (
        ((1.0, 1.0, 0.0), (0.0, 1.0, 1.0), [[5.0, 1.0, 2.0], [5.0, 9.0, 1.0], [5.0, 1.0, 1.0]], 2.0),
        ((3.0, 1.0), (1.0, 3.0), [[1.0, 20.0], [30.0, 1.0]], 1.0),
        ((3.0, 1.0), (1.0, 3.0), [[1.0, 20.0], [30.0, 1.0]], 5.0),
    )
    for O, D, dmat, beta in cases:
        fm = doubly_constrained_flows(O, D, np.array(dmat), Deterrence("exponential", beta))
        (o0, o1), d0 = O[:2], D[-2]
        block = np.exp(-beta * np.array(dmat)[:2, -2:])
        rho = block[0, 1] * block[1, 0] / (block[0, 0] * block[1, 1])
        a, b, c = 1.0 - rho, o0 - d0 + rho * (d0 + o1), rho * d0 * o1
        x = 2.0 * c / (b + math.sqrt(b * b + 4.0 * a * c))  # the stable root
        expected = np.zeros(fm.shape)
        expected[:2, -2:] = [[d0 - x, o0 - d0 + x], [x, o1 - x]]
        np.testing.assert_allclose(fm.values, expected, rtol=1e-6, atol=0)


def test_doubly_constrained_converges_on_harsh_sparse_instances():
    # kernels spanning up to e^-160 on sparse margins, beyond the IPF oracle's
    # reach: every instance must converge, with rows exact and columns within tol
    for seed in range(400):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 40)), int(rng.integers(2, 16))
        counts = rng.integers(0, 5, size=(n, m)) * (rng.random((n, m)) < rng.uniform(0.05, 1.0))
        O, D = counts.sum(axis=1).astype(float), counts.sum(axis=0).astype(float)
        dmat = rng.uniform(0.1, 40.0, size=(n, m))
        fm = doubly_constrained_flows(O, D, dmat, Deterrence("exponential", float(rng.uniform(0.0, 4.0))))
        np.testing.assert_allclose(fm.row_sums(), O, rtol=1e-12, atol=0, err_msg=f"seed {seed}")
        np.testing.assert_allclose(fm.col_sums(), D, rtol=1e-8, atol=0, err_msg=f"seed {seed}")


def test_doubly_constrained_zero_marginal_row():
    fm = doubly_constrained_flows(
        (10.0, 0.0), (5.0, 5.0), np.array([[1.0, 2.0], [2.0, 1.0]]), Deterrence("exponential", 0.5)
    )
    assert fm.values[1].tolist() == [0.0, 0.0]
    np.testing.assert_allclose(fm.row_sums(), [10.0, 0.0], rtol=1e-9)


def test_doubly_constrained_errors(monkeypatch):
    dmat = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(MarginalMismatchError):
        doubly_constrained_flows((10.0, 10.0), (5.0, 5.0), dmat, Deterrence("exponential", 0.5))
    with pytest.raises(ShapeError):
        doubly_constrained_flows((5.0, 5.0, 5.0), (10.0, 5.0), dmat, Deterrence("exponential", 0.5))
    monkeypatch.setattr(sim, "_MAX_STEPS", 1)
    with pytest.raises(ConvergenceError, match="in 1 Newton steps") as exc:
        doubly_constrained_flows(
            (100.0, 1.0),
            (1.0, 100.0),
            np.array([[1.0, 50.0], [50.0, 1.0]]),
            Deterrence("exponential", 1.0),
        )
    assert exc.value.residual is not None and exc.value.residual > 0


def test_doubly_constrained_unreachable_origin():
    # kernel underflows to exactly 0 at 1000 km with beta 1, so the only
    # destination this origin can reach has a zero total
    dmat = np.array([[0.5, 1000.0], [0.5, 0.5]])
    with pytest.raises(UnreachableOriginError):
        doubly_constrained_flows((10.0, 10.0), (0.0, 20.0), dmat, Deterrence("exponential", 1.0))


@pytest.mark.parametrize(
    "O, D, dmat",
    [
        # the kernel underflows to exactly 0 at 1000 km with beta 1
        ((10.0, 10.0), (10.0, 10.0), [[0.5, 1000.0], [0.5, 1000.0]]),
        # the only origin that reaches destination 1 sends nothing
        ((10.0, 0.0), (5.0, 5.0), [[0.5, 1000.0], [0.5, 0.5]]),
    ],
)
def test_doubly_constrained_unreachable_destination_fails_fast(O, D, dmat):
    # no destination weight can give flow to a column that no sending origin
    # reaches: the solver says so before its first step, and warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=r"destinations \[1\] have positive totals"):
            doubly_constrained_flows(O, D, np.array(dmat), Deterrence("exponential", 1.0))


def test_doubly_constrained_flat_kernel_needs_no_newton_step(monkeypatch):
    # the flat kernel's first guess is exact, so a budget of zero steps suffices
    monkeypatch.setattr(sim, "_MAX_STEPS", 0)
    O, D, dmat = (30.0, 10.0), (20.0, 20.0), np.array([[1.0, 3.0], [2.0, 1.0]])
    flat = doubly_constrained_flows(O, D, dmat, Deterrence("exponential", 0.0))
    np.testing.assert_allclose(flat.values, np.outer(O, D) / sum(O), rtol=1e-12)


def lstsq_step(J, rhs):
    """Oracle: the minimum-norm Newton step of an SVD least-squares solve."""
    return np.linalg.lstsq(J, rhs, rcond=None)[0]


def pinv_step_by_block(J, rhs, group):
    """Oracle: ``np.linalg.pinv(J) @ rhs`` for a Laplacian J, one block of columns at a time.

    Each block L of k columns gets 1/k added to every entry, which lifts its
    null vector (constant on the block) to eigenvalue 1 and leaves the rest of
    its spectrum alone: pinv(L) r = pinv(L + 1/k) r - mean(r). The shifted
    block is regular, so no singular value sits near a cutoff.
    """
    step = np.empty(len(rhs))
    for g in np.unique(group):
        cols = np.flatnonzero(group == g)
        block = J[np.ix_(cols, cols)] + 1.0 / len(cols)
        step[cols] = np.linalg.pinv(block) @ rhs[cols] - rhs[cols].mean()
    return step


@st.composite
def column_sum_jacobians(draw, blocks):
    """(J, rhs, group) of the balancing Newton step, J = diag(C) - Pᵀ diag(O) P.

    With ``blocks`` > 1 the columns split into that many groups (``group``
    gives each column's) and each row reaches one group only, as where exp
    underflow cuts the support.
    """
    m = draw(st.integers(max(2, blocks), 15))
    n = draw(st.integers(blocks, 40))
    group = np.arange(m) % blocks
    row_group = np.arange(n) % blocks
    scores = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n * m, max_size=n * m))).reshape(n, m)
    scores[row_group[:, None] != group[None, :]] = 0.0
    O = np.array(draw(st.lists(st.floats(0.5, 50.0), min_size=n, max_size=n)))
    P = scores / scores.sum(axis=1, keepdims=True)
    C = (O[:, None] * P).sum(axis=0)
    D = np.array(draw(st.lists(st.floats(0.5, 50.0), min_size=m, max_size=m)))
    D *= C.sum() / D.sum()
    return np.diag(C) - P.T @ (O[:, None] * P), D - C, group


@settings(max_examples=100, deadline=None)
@given(column_sum_jacobians(blocks=1))
def test_newton_step_matches_the_lstsq_oracle_on_connected_jacobians(system):
    # The claim under test: for an rhs in the range of J (sum zero), the
    # gauge-fixed step is lstsq's minimum-norm one. In the solver sum(D - C)
    # is rounding, so rhs is centred here first. lstsq's result is compared
    # without its mean: a constant shift of u is the gauge, and where the null
    # singular value rounds just above lstsq's cutoff (seen with two columns)
    # lstsq keeps an O(1) constant part. The error is relative to
    # |rhs| / sigma, sigma the smallest non-zero singular value of J.
    J, rhs, _ = system
    rhs = rhs - rhs.mean()
    expected = lstsq_step(J, rhs)
    expected -= expected.mean()
    step = sim._newton_step(J, rhs)
    scale = np.linalg.norm(rhs) / np.linalg.svd(J, compute_uv=False)[-2]
    assert abs(step.mean()) <= 1e-15 * scale
    assert np.linalg.norm(step - expected) <= 1e-12 * scale


_EPS = np.finfo(float).eps


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 4).flatmap(column_sum_jacobians))
# A block whose rows sum to 16 eps, as rounding leaves them: its null singular
# value lies above lstsq's cutoff, and lstsq alone keeps a constant part of
# about 0.05 on it.
@example((
    np.array([[1 + 16 * _EPS, -1.0, 0.0, 0.0], [-1.0, 1 + 16 * _EPS, 0.0, 0.0],
              [0.0, 0.0, 0.5, -0.5], [0.0, 0.0, -0.5, 0.5]]),
    np.array([0.5, -0.5 + 4e-16, 0.25, -0.25]),
    np.array([0, 0, 1, 1]),
))
def test_newton_step_falls_back_to_lstsq_on_block_diagonal_jacobians(system):
    # The fallback is lstsq with each block's constant part taken out, which
    # is the minimum-norm step. The error is relative to |rhs| / sigma, sigma
    # the smallest singular value of a block that is not its null one; over
    # 20,000 random draws of this strategy it reached 1.1e-11.
    J, rhs, group = system
    step = sim._newton_step(J, rhs)
    sizes = np.bincount(group)
    sigma = min(
        (np.linalg.svd(J[np.ix_(group == g, group == g)], compute_uv=False)[-2] for g in np.flatnonzero(sizes > 1)),
        default=1.0,
    )
    scale = np.linalg.norm(rhs) / sigma
    assert np.linalg.norm(step - pinv_step_by_block(J, rhs, group)) <= 1e-10 * scale


def origin_model(O, museums, zone_points, spec):
    """The origin regime of model_matrix: one zone per point, sending O_i."""
    zones = [make_zone(f"z{i}", p.lat, p.lon) for i, p in enumerate(zone_points)]
    rows = [[float(o)] + [0.0] * (len(museums) - 1) for o in O]
    observed = FlowMatrix([z.id for z in zones], [m.id for m in museums], rows)
    return model_matrix(zones, museums, spec, observed=observed)


def test_origin_constrained_single_museum_forced():
    museums = [make_museum("m0", 53.79, -1.53)]
    fm = origin_model(
        (7.0, 3.0), museums, [GeoPoint(53.80, -1.55), GeoPoint(53.75, -1.60)], ModelSpec(constraint="origin")
    )
    assert fm.values[:, 0].tolist() == [7.0, 3.0]


def test_origin_constrained_symmetric_split():
    # the zone sits halfway between the museums, on their parallel
    museums = [make_museum("m0", 53.8, -1.52), make_museum("m1", 53.8, -1.48)]
    fm = origin_model((8.0,), museums, [GeoPoint(53.8, -1.5)], ModelSpec(constraint="origin"))
    assert fm.values[0].tolist() == pytest.approx([4.0, 4.0])


def test_origin_constrained_rows_exact():
    rng = np.random.default_rng(109)
    museums = [make_museum(f"m{j}", 53.8, -1.5 + 0.02 * j, 500.0 + 100.0 * j, 3.0 + j) for j in range(3)]
    for _ in range(20):
        O = rng.uniform(0.0, 30.0, size=2)
        points = [GeoPoint(53.8 + dlat, -1.48 + dlon) for dlat, dlon in rng.uniform(-0.1, 0.1, size=(2, 2))]
        fm = origin_model(O, museums, points, ModelSpec(constraint="origin", use_attractiveness=True))
        np.testing.assert_allclose(fm.row_sums(), O, rtol=1e-12, atol=1e-12)


def test_origin_constrained_weight_share():
    museums = [make_museum("a", 53.8, -1.52, 1600.0, 10.0), make_museum("b", 53.8, -1.48, 400.0, 10.0)]
    w = attractiveness_weights(museums)
    fm = origin_model(
        (10.0,),
        museums,
        [GeoPoint(53.8, -1.5)],  # equal distances, so shares follow W alone
        ModelSpec(constraint="origin", use_attractiveness=True),
    )
    assert fm.values[0] == pytest.approx(10.0 * w / w.sum(), rel=1e-12)


def test_origin_constrained_unreachable():
    # about 2000 km away, where exp(-d) underflows to exactly 0
    museums = [make_museum("m0", 53.79, -1.53)]
    spec = ModelSpec(constraint="origin", deterrence=Deterrence("exponential", 1.0))
    with pytest.raises(UnreachableOriginError):
        origin_model((5.0,), museums, [GeoPoint(53.79 - deg_for_km(2000.0), -1.53)], spec)


def test_model_matrix_dispatch():
    zones = [make_zone("z0", 53.80, -1.55, 900.0), make_zone("z1", 53.75, -1.60, 1100.0)]
    museums = [make_museum("m0", 53.79, -1.53), make_museum("m1", 53.82, -1.50)]
    spec = ModelSpec(deterrence=Deterrence("exponential", 0.8))
    direct = unconstrained_flows(zones, museums, spec)
    assert model_matrix(zones, museums, spec).values == pytest.approx(direct.values)

    # observed labels arrive in a different order and must be realigned
    observed = FlowMatrix(("z1", "z0"), ("m1", "m0"), [[4.0, 6.0], [2.0, 8.0]])
    origin_spec = ModelSpec(deterrence=Deterrence("exponential", 0.8), constraint="origin")
    fm = model_matrix(zones, museums, origin_spec, observed)
    assert fm.origin_ids == ("z0", "z1")
    np.testing.assert_allclose(fm.row_sums(), [10.0, 10.0], rtol=1e-12)

    doubly_spec = ModelSpec(deterrence=Deterrence("exponential", 0.8), constraint="doubly")
    fm2 = model_matrix(zones, museums, doubly_spec, observed)
    np.testing.assert_allclose(fm2.row_sums(), [10.0, 10.0], rtol=1e-8)
    np.testing.assert_allclose(fm2.col_sums(), [14.0, 6.0], rtol=1e-8)  # m0 column: 8 + 6

    with pytest.raises(InvalidParameterError):
        model_matrix(zones, museums, origin_spec)
    with pytest.raises(InvalidParameterError):
        ModelSpec(constraint="sideways")
