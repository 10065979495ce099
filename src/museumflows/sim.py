"""Spatial interaction models over zones and museums.

Three constraint regimes share one deterrence kernel and one formula
(``flow_values``): unconstrained (production driven by weighted population),
origin-constrained (rows pinned to observed origin totals), and doubly
constrained (origin-constrained with solved destination weights, so both
margins are pinned).

The formula works on a stack of kernels, one per beta of a block, so that a
sweep pays numpy's per-call cost once per block rather than once per beta.
The doubly regime solves the betas of a block in lockstep. Each slice keeps
the arithmetic of its beta alone, backtracking included, so it equals the
matrix of that beta in a block of one, bit for bit. A failing block is
evaluated again one beta at a time, to raise its first failing beta's error.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateFactorError,
    EmptyInputError,
    FlowModelError,
    InvalidAttributeError,
    InvalidParameterError,
    MarginalMismatchError,
    ShapeError,
    SingularDistanceError,
    UnreachableOriginError,
)
from .geometry import EARTH_RADIUS_KM, GeoPoint, PolygonM

CONSTRAINTS = ("unconstrained", "origin", "doubly")
DETERRENCE_KINDS = ("exponential", "power")


@dataclass(frozen=True)
class Zone:
    """Origin zone with the population and demand attributes."""

    id: str
    name: str
    centroid: GeoPoint
    population: float
    arts_share: float = 0.0
    earnings_proxy: float = 0.0
    boundary: PolygonM | None = None

    def __post_init__(self):
        if not (math.isfinite(self.population) and self.population >= 0):
            raise InvalidAttributeError(f"zone {self.id}: population {self.population} must be >= 0")
        if not (math.isfinite(self.arts_share) and 0.0 <= self.arts_share <= 1.0):
            raise InvalidAttributeError(f"zone {self.id}: arts_share {self.arts_share} outside [0, 1]")
        if not (math.isfinite(self.earnings_proxy) and self.earnings_proxy >= 0):
            raise InvalidAttributeError(
                f"zone {self.id}: earnings_proxy {self.earnings_proxy} must be >= 0"
            )


@dataclass(frozen=True)
class Museum:
    """Destination with the attributes feeding attractiveness."""

    id: str
    name: str
    location: GeoPoint
    floor_area_m2: float
    media_mentions: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.floor_area_m2) and self.floor_area_m2 > 0):
            raise InvalidAttributeError(
                f"museum {self.id}: floor_area_m2 {self.floor_area_m2} must be > 0"
            )
        if not (math.isfinite(self.media_mentions) and self.media_mentions >= 0):
            raise InvalidAttributeError(
                f"museum {self.id}: media_mentions {self.media_mentions} must be >= 0"
            )


@dataclass(frozen=True)
class Deterrence:
    """Distance-decay kernel: exp(-beta*d) or d**(-beta)."""

    kind: str = "exponential"
    beta: float = 1.0

    def __post_init__(self):
        if self.kind not in DETERRENCE_KINDS:
            raise InvalidParameterError(f"deterrence kind {self.kind!r} not in {DETERRENCE_KINDS}")
        # beta = 0 is allowed for diagnostics (flat kernel), negatives are not
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise InvalidParameterError(f"deterrence beta {self.beta} must be >= 0")


@dataclass(frozen=True)
class ModelSpec:
    """A full model: kernel, optional weighting terms, constraint regime."""

    deterrence: Deterrence = field(default_factory=Deterrence)
    use_attractiveness: bool = False
    use_demand: bool = False
    constraint: str = "unconstrained"

    def __post_init__(self):
        if self.constraint not in CONSTRAINTS:
            raise InvalidParameterError(f"constraint {self.constraint!r} not in {CONSTRAINTS}")


def repeated_ids(ids) -> str:
    """The ids that occur more than once, sorted and comma-separated; empty when none repeats."""
    return ", ".join(sorted(i for i, n in Counter(ids).items() if n > 1))


@dataclass(frozen=True)
class FlowMatrix:
    """Labeled non-negative origin-destination matrix; no origin or destination id repeats."""

    origin_ids: tuple[str, ...]
    destination_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin_ids", tuple(self.origin_ids))
        object.__setattr__(self, "destination_ids", tuple(self.destination_ids))
        for kind, ids in (("origin", self.origin_ids), ("destination", self.destination_ids)):
            if repeated := repeated_ids(ids):
                raise ShapeError(f"repeated {kind} ids: {repeated}")
        arr = np.array(self.values, dtype=float)
        if arr.shape != (len(self.origin_ids), len(self.destination_ids)):
            raise ShapeError(
                f"matrix shape {arr.shape} does not match "
                f"{len(self.origin_ids)} origins x {len(self.destination_ids)} destinations"
            )
        if not np.all(np.isfinite(arr)):
            raise ShapeError("matrix contains non-finite values")
        if np.any(arr < 0):
            raise ShapeError("matrix contains negative values")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def row_sums(self) -> np.ndarray:
        return self.values.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.values.sum(axis=0)

    def total(self) -> float:
        return float(self.values.sum())

    def flat(self) -> np.ndarray:
        """Row-major 1-D copy, the layout used for fit statistics."""
        return self.values.ravel().copy()

    def reindex(self, origin_ids, destination_ids) -> "FlowMatrix":
        """Reorder rows/columns to the given label order.

        Label sets must match exactly: a silent fill would hide aggregation
        bugs upstream.
        """
        wanted = (tuple(origin_ids), tuple(destination_ids))
        order = []
        for kind, ids, have in zip(("origin", "destination"), wanted, (self.origin_ids, self.destination_ids)):
            if set(ids) != set(have) or len(ids) != len(have):
                raise ShapeError(f"{kind} ids do not match; differing ids: {sorted(set(ids) ^ set(have))}")
            position = {label: i for i, label in enumerate(have)}
            order.append([position[label] for label in ids])
        return FlowMatrix(*wanted, self.values[np.ix_(*order)])


def distance_matrix(zones, museums) -> np.ndarray:
    """Great-circle distances in km, zones on rows, museums on columns.

    Not ``haversine_km_arrays``, which differences before converting to radians: that moves every model's bits.
    """
    if not zones or not museums:
        raise EmptyInputError("distance matrix needs at least one zone and one museum")
    lat_z = np.radians([z.centroid.lat for z in zones])[:, None]
    lon_z = np.radians([z.centroid.lon for z in zones])[:, None]
    lat_m = np.radians([m.location.lat for m in museums])[None, :]
    lon_m = np.radians([m.location.lon for m in museums])[None, :]
    h = (
        np.sin((lat_m - lat_z) / 2.0) ** 2
        + np.cos(lat_z) * np.cos(lat_m) * np.sin((lon_m - lon_z) / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def deterrence_matrix(dmat: np.ndarray, det: Deterrence) -> np.ndarray:
    if det.kind == "power" and np.any(dmat == 0.0):
        raise SingularDistanceError("power deterrence undefined at zero distance")
    if det.kind == "exponential":
        return np.exp(-det.beta * dmat)
    return dmat ** (-det.beta)


def attractiveness_weights(museums) -> np.ndarray:
    """Destination weights W = 0.5 (A / mean A)^0.5 + 0.3 (M / mean M)^0.5, divided by their mean.

    A is the floor area and M the media mentions of each museum.
    """
    if not museums:
        raise EmptyInputError("attractiveness needs at least one museum")
    w = np.zeros(len(museums))
    for name, weight in (("floor_area_m2", 0.5), ("media_mentions", 0.3)):
        raw = np.array([float(getattr(m, name)) for m in museums])
        mean = raw.mean()
        if mean == 0.0:
            raise DegenerateFactorError(f"factor {name!r} is all zeros; cannot mean-normalize")
        w += weight * (raw / mean) ** 0.5
    if not np.all(np.isfinite(w)):
        raise DegenerateFactorError("attractiveness produced non-finite weights")
    mean = w.mean()
    if mean <= 0.0:
        raise DegenerateFactorError("attractiveness weights sum to zero; cannot normalize")
    return w / mean


def demand_weights(zones) -> np.ndarray:
    """Demand weights Inc_i = 0.1 + arts_share + 0.03 * earnings_proxy, mean 1."""
    if not zones:
        raise EmptyInputError("demand weights need at least one zone")
    raw = np.array([0.1 + z.arts_share + 0.03 * z.earnings_proxy for z in zones])
    return raw / raw.mean()


@dataclass(frozen=True)
class ModelInputs:
    """The beta-independent arrays of one model over zones and museums."""

    spec: ModelSpec
    origin_ids: tuple[str, ...]
    destination_ids: tuple[str, ...]
    dmat: np.ndarray
    rows: np.ndarray  # Inc_i * P_i unconstrained, origin totals O_i otherwise
    w: np.ndarray
    D: np.ndarray | None  # destination totals; only the doubly regime uses them


def model_inputs(zones, museums, spec: ModelSpec, observed: FlowMatrix | None = None) -> ModelInputs:
    """Everything a model evaluation needs except beta.

    Constrained regimes take their marginal totals from ``observed``, which
    is reordered to the zone/museum label order first.
    """
    zone_ids = tuple(z.id for z in zones)
    museum_ids = tuple(m.id for m in museums)
    dmat = distance_matrix(zones, museums)
    D = None
    if spec.constraint == "unconstrained":
        pop = np.array([z.population for z in zones])
        rows = (demand_weights(zones) if spec.use_demand else np.ones(len(zones))) * pop
    elif observed is None:
        raise InvalidParameterError(f"{spec.constraint!r} constraint needs an observed matrix")
    else:
        obs = observed.reindex(zone_ids, museum_ids)
        rows, D = obs.row_sums(), obs.col_sums()
    w = attractiveness_weights(museums) if spec.use_attractiveness else np.ones(len(museums))
    return ModelInputs(spec, zone_ids, museum_ids, dmat, rows, w, D)


def model_values(inputs: ModelInputs, betas) -> np.ndarray:
    """The model matrices of ``inputs`` at a block of betas, stacked on axis 0.

    Slice k is bit for bit the matrix of ``betas[k]`` alone. A block that
    fails is evaluated again one beta at a time, in order, so it raises the
    error of its first beta that fails alone.
    """
    kind = inputs.spec.deterrence.kind
    f = np.empty((len(betas),) + inputs.dmat.shape)
    try:
        for k, beta in enumerate(betas):
            f[k] = deterrence_matrix(inputs.dmat, Deterrence(kind, float(beta)))
        return flow_values(inputs.spec.constraint, f, inputs.rows, inputs.w, inputs.D)
    except FlowModelError:
        if len(betas) > 1:
            for k in range(len(betas)):
                model_values(inputs, betas[k : k + 1])
        raise


def flow_values(constraint, f, rows, w, D=None) -> np.ndarray:
    """The one model formula of all three regimes, over precomputed arrays.

    ``f`` is a stack of kernels (k, origins, destinations), one per beta,
    and so is the result:

    - unconstrained: ``rows ⊗ w ⊙ f``, rows being the weighted populations;
    - origin: ``O · rownorm(w ⊙ f)``, rows being the origin totals O;
    - doubly: the origin formula with ``w`` replaced by destination weights
      solved so that the column sums equal ``D`` to a relative ``_TOL``
      (``w`` is ignored).
    """
    if constraint == "unconstrained":
        return rows[:, None] * w[None, :] * f
    if constraint == "origin":
        return rows[:, None] * _row_shares(w[None, :] * f, rows)
    return _balanced_values(f, rows, D)


def _check_reachable(dead: np.ndarray) -> None:
    """Raise for the origins marked ``dead`` in any slice: flow to send, no destination to reach."""
    if np.any(dead):
        raise UnreachableOriginError(
            f"origins {np.flatnonzero(dead.any(axis=0)).tolist()} have positive flow but cannot reach any destination"
        )


def _row_shares(scores: np.ndarray, O: np.ndarray) -> np.ndarray:
    """rownorm(scores) of each slice; an origin with flow to send must have a positive row."""
    denom = scores.sum(axis=2)
    _check_reachable((denom == 0.0) & (O > 0))
    return np.divide(scores, denom[:, :, None], out=np.zeros_like(scores), where=denom[:, :, None] > 0)


_TOL = 1e-8  # the doubly regime's bound on max_j |C_j - D_j| / D_j
_MAX_STEPS = 1000  # Newton steps before the balancing raises ConvergenceError
_MAX_LOG_STEP = 10.0
_BACKTRACKS = 30


def _newton_step(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The minimum-norm solution of J x = rhs in each slice of a stack of column-sum Jacobians.

    J = diag(C) - Pᵀ diag(O) P is the Laplacian of the graph that joins two
    columns through every row reaching both, so each connected block of the
    live support adds one null vector, constant on the block and zero
    elsewhere. When J has no zero entry the
    graph is connected: fixing x_0 = 0 leaves a regular system, and centring
    its solution gives the minimum-norm one that ``lstsq`` returns, at a
    fraction of the cost. These slices are solved in one stacked call, and
    one at a time when that call finds a singular one. A zero entry (exp
    underflow may have cut the support into blocks) or a reduced system
    that is singular in floating point falls back to ``lstsq`` for that
    slice, centred on each block (component of ``J != 0``): a null
    singular value just above its cutoff leaves a constant part there,
    which would count toward ``_MAX_LOG_STEP``.
    """
    step = np.zeros_like(rhs)
    connected = J.all(axis=(1, 2))
    try:
        step[connected, 1:] = np.linalg.solve(J[connected, 1:, 1:], rhs[connected, 1:, None])[..., 0]
    except np.linalg.LinAlgError:  # the stacked call does not say which slice is singular
        for i in np.flatnonzero(connected):
            try:
                step[i, 1:] = np.linalg.solve(J[i, 1:, 1:], rhs[i, 1:])
            except np.linalg.LinAlgError:
                connected[i] = False
    step -= step.mean(axis=1, keepdims=True)
    for i in np.flatnonzero(~connected):
        x = np.linalg.lstsq(J[i], rhs[i], rcond=None)[0]
        block = np.linalg.matrix_power((J[i] != 0) | np.eye(len(x), dtype=bool), len(x))  # [a, b]: a path joins a, b
        step[i] = x - block @ x / block.sum(axis=1)
    return step


# No value that is not finite here becomes a result, so numpy need not warn: log 0
# marks a zero kernel, a trial fails backtracking (trial < residual is False for
# NaN), and a residual stops the solve.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _balanced_values(f, O, D) -> np.ndarray:
    """Origin formula with destination weights w = exp(u) solved for column sums D.

    Newton's method on the column sums C(u) = O · rownorm(exp(u) ⊙ f), whose
    Jacobian is diag(C) - Pᵀ diag(O) P for the row shares P (Knight & Ruiz
    2013). The Jacobian is singular along u + const, so each step fixes that
    gauge and returns the centred (minimum-norm) solution; see
    ``_newton_step``, which falls back to ``lstsq`` on a support cut into
    blocks. Each step is capped at ``_MAX_LOG_STEP`` in u and halved until
    the margin residual max_j |C_j - D_j| / D_j falls; when no length
    helps, one fixed-point sweep u += log(D / C) is taken instead. The
    iteration stops once the residual is at most ``_TOL`` and raises
    ``ConvergenceError`` after ``_MAX_STEPS`` steps, or at once when a
    residual is not finite: the fallback sweep then makes u NaN, so no step
    can bring it back. Scores are shifted by their row maximum, which
    rownorm cancels, so no weight under- or overflows. Columns with D_j = 0
    get w_j = 0.

    The kernels of a block (slices of ``f``) are solved in lockstep: each
    round evaluates every slice still iterating at once and takes their
    Newton steps in one stacked product and solve. Each slice keeps the
    arithmetic it has alone (the same element-wise operations, reductions
    along the same axes, and one BLAS or LAPACK call per slice). A slice
    whose residual did not fall backtracks on its own, and leaves the
    round once converged.

    What does not depend on u is settled once, before the first step:
    only rows with O_i > 0 and columns with D_j > 0 enter the iteration; an
    origin that reaches no live column raises ``UnreachableOriginError``;
    and a live column that no such origin reaches raises
    ``ConvergenceError`` (no weight can give it flow).
    """
    values = np.zeros_like(f)
    live = D > 0
    if not np.any(live):
        return values
    log_f = np.log(f[:, :, live])
    reach = np.isfinite(log_f)
    sending = O > 0
    _check_reachable(sending & ~reach.any(axis=2))
    unreached = ~reach[:, sending].any(axis=1)
    if np.any(unreached):
        raise ConvergenceError(
            f"destinations {np.nonzero(live)[0][unreached.any(axis=0)].tolist()} have positive totals "
            "but no origin with flow can reach them"
        )
    D = D[live]
    O = O[sending]
    # log_f, P and T are held transposed, destinations on axis 1: each
    # origin's max and sum then reduce across a few contiguous rows rather
    # than along the origin's own short row, which is about twice as fast
    log_f = np.ascontiguousarray(log_f[:, sending].transpose(0, 2, 1))
    diagonal = np.arange(len(D))

    def evaluate(log_f, u, P=None, T=None):
        P = np.add(log_f, u[:, :, None], out=P)
        P -= P.max(axis=1, keepdims=True)
        np.exp(P, out=P)
        P /= P.sum(axis=1, keepdims=True)
        T = np.multiply(P, O, out=T)
        C = T.sum(axis=2)
        return [u, P, T, C, (np.abs(C - D) / D).max(axis=1)]

    # exact for a flat kernel
    u, P, T, C, residual = evaluate(log_f, np.tile(np.log(D), (len(f), 1)))
    at = np.arange(len(f))  # the grid positions of the slices still iterating
    solved = np.empty_like(log_f)  # the flows T of each slice, once converged
    steps = 0
    while True:
        done = residual <= _TOL
        if done.all():
            solved[at] = T
            break
        if done.any():
            solved[at[done]] = T[done]
            at, log_f, u, P, T, C, residual = (a[~done] for a in (at, log_f, u, P, T, C, residual))
        lost = np.flatnonzero(~np.isfinite(residual))  # a residual that is not finite never recovers
        if steps == _MAX_STEPS or lost.size:
            last = float(residual[lost[0] if lost.size else 0])
            raise ConvergenceError(
                f"destination weights did not converge in {steps} Newton steps (last residual {last:.3e})",
                residual=last,
            )
        steps += 1
        J = np.zeros((len(at), len(D), len(D)))
        J[:, diagonal, diagonal] = C
        J -= P @ T.transpose(0, 2, 1)
        step = _newton_step(J, D - C)
        step *= (_MAX_LOG_STEP / np.maximum(np.abs(step).max(axis=1), _MAX_LOG_STEP))[:, None]
        # into the buffers of P and T, which the step no longer needs once J is
        # formed: fresh arrays every round would each fault in new pages
        trial = evaluate(log_f, u + step, P, T)
        for i in np.flatnonzero(~(trial[-1] < residual)):  # each slice whose residual did not fall
            alone = slice(i, i + 1)
            for _ in range(_BACKTRACKS - 1):
                step[alone] /= 2.0
                again = evaluate(log_f[alone], u[alone] + step[alone])
                if again[-1][0] < residual[i]:
                    break
            else:  # no length helped
                again = evaluate(log_f[alone], u[alone] + np.log(D / np.maximum(C[alone], np.finfo(float).tiny)))
            for whole, part in zip(trial, again):
                whole[alone] = part
        u, P, T, C, residual = trial
    values[:, np.outer(sending, live)] = solved.transpose(0, 2, 1).reshape(len(f), -1)
    return values


def model_matrix(zones, museums, spec: ModelSpec, observed: FlowMatrix | None = None) -> FlowMatrix:
    """Evaluate a ModelSpec over zones and museums (``observed`` as for model_inputs)."""
    inputs = model_inputs(zones, museums, spec, observed)
    values = model_values(inputs, [spec.deterrence.beta])[0]
    return FlowMatrix(inputs.origin_ids, inputs.destination_ids, values)


def unconstrained_flows(zones, museums, spec: ModelSpec) -> FlowMatrix:
    """T_ij = Inc_i * P_i * W_j * f(d_ij)."""
    if spec.constraint != "unconstrained":
        raise InvalidParameterError(f"expected unconstrained spec, got {spec.constraint!r}")
    return model_matrix(zones, museums, spec)


def doubly_constrained_flows(O, D, dmat, det: Deterrence) -> FlowMatrix:
    """T_ij = O_i * w_j f(d_ij) / sum_k w_k f(d_ik), with w solved for column sums D.

    This is the origin-constrained formula with the destination weights
    solved rather than given; in balancing-factor terms A_i is the inverse
    row sum and B_j D_j = w_j. Row sums are exact up to rounding, and the
    per-column relative margin residual max_j |C_j - D_j| / D_j of the
    returned matrix is at most 1e-8 (``_TOL``). Rows are labelled ``o0``,
    ``o1``, ... and columns ``d0``, ``d1``, ...
    """
    O = np.asarray(O, dtype=float)
    D = np.asarray(D, dtype=float)
    dmat = np.asarray(dmat, dtype=float)
    if O.ndim != 1 or D.ndim != 1 or dmat.shape != (O.size, D.size):
        raise ShapeError(f"marginals ({O.size}, {D.size}) do not match matrix {dmat.shape}")
    if np.any(O < 0) or np.any(D < 0) or not (np.all(np.isfinite(O)) and np.all(np.isfinite(D))):
        raise InvalidAttributeError("marginal totals must be finite and >= 0")
    total = O.sum()
    if abs(total - D.sum()) > 1e-9 * max(total, D.sum(), 1.0):
        raise MarginalMismatchError(f"origin total {total} != destination total {D.sum()}")

    values = flow_values("doubly", deterrence_matrix(dmat, det)[None], O, None, D)[0]
    return FlowMatrix([f"o{i}" for i in range(O.size)], [f"d{j}" for j in range(D.size)], values)
