"""The per-beta model kernel that the blocked one in ``museumflows.sim`` replaced.

Kept as a differential oracle: ``flow_values`` evaluates one kernel matrix
at a time, and ``_balanced_values`` takes the doubly constrained Newton
steps of that one beta alone. The blocked kernel must give each beta of a
block the matrix these give it, bit for bit, and raise the error that a
loop over these, in grid order, raises first. The solver's constants are
imported from ``museumflows.sim`` by value, so a test that patches one
must patch it in both modules.
"""

import math

import numpy as np

from museumflows.errors import ConvergenceError, UnreachableOriginError
from museumflows.sim import _BACKTRACKS, _MAX_LOG_STEP, _MAX_STEPS, _TOL, Deterrence, ModelInputs, deterrence_matrix


def model_values(inputs: ModelInputs, beta: float) -> np.ndarray:
    """The model matrix of ``inputs`` at one beta."""
    f = deterrence_matrix(inputs.dmat, Deterrence(inputs.spec.deterrence.kind, beta))
    return flow_values(inputs.spec.constraint, f, inputs.rows, inputs.w, inputs.D)


def flow_values(constraint, f, rows, w, D=None) -> np.ndarray:
    """The one model formula of all three regimes, over precomputed arrays.

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
    """Raise for the origins marked ``dead``: flow to send, no destination to reach."""
    if np.any(dead):
        raise UnreachableOriginError(
            f"origins {np.nonzero(dead)[0].tolist()} have positive flow but cannot reach any destination"
        )


def _row_shares(scores: np.ndarray, O: np.ndarray) -> np.ndarray:
    """rownorm(scores); an origin with flow to send must have a positive row."""
    denom = scores.sum(axis=1)
    _check_reachable((denom == 0.0) & (O > 0))
    return np.divide(scores, denom[:, None], out=np.zeros_like(scores), where=denom[:, None] > 0)


def _newton_step(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The minimum-norm solution of J x = rhs for a column-sum Jacobian J.

    J = diag(C) - Pᵀ diag(O) P is the Laplacian of the graph that joins two
    columns through every row reaching both, so each connected block of the
    live support adds one null vector, constant on the block and zero
    elsewhere. When J has no zero entry the
    graph is connected: fixing x_0 = 0 leaves a regular system, and centring
    its solution gives the minimum-norm one that ``lstsq`` returns, at a
    fraction of the cost. A zero entry (exp underflow may have cut the
    support into blocks) or a reduced system that is singular in floating
    point falls back to ``lstsq``, centred on each block (component of
    ``J != 0``): a null singular value just above its cutoff leaves a
    constant part there, which would count toward ``_MAX_LOG_STEP``.
    """
    if J.all():
        try:
            x = np.linalg.solve(J[1:, 1:], rhs[1:])
        except np.linalg.LinAlgError:
            pass
        else:
            step = np.concatenate(([0.0], x))
            return step - step.mean()
    step = np.linalg.lstsq(J, rhs, rcond=None)[0]
    block = np.linalg.matrix_power((J != 0) | np.eye(len(J), dtype=bool), len(J))  # [i, j]: a path joins i, j
    return step - block @ step / block.sum(axis=1)


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
    ``ConvergenceError`` after ``_MAX_STEPS`` steps, or at once when the
    residual is not finite. Scores are shifted by their row maximum, which
    rownorm cancels, so no weight under- or overflows. Columns with D_j = 0
    get w_j = 0.

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
    log_f = np.log(f[:, live])
    reach = np.isfinite(log_f)
    sending = O > 0
    _check_reachable(sending & ~reach.any(axis=1))
    unreached = ~reach[sending].any(axis=0)
    if np.any(unreached):
        raise ConvergenceError(
            f"destinations {np.nonzero(live)[0][unreached].tolist()} have positive totals "
            "but no origin with flow can reach them"
        )
    D = D[live]
    O = O[sending]
    # log_f, P and T are held transposed, destinations on axis 0: each
    # origin's max and sum then reduce across a few contiguous rows rather
    # than along the origin's own short row, which is about twice as fast
    log_f = np.ascontiguousarray(log_f[sending].T)

    def evaluate(u):
        P = log_f + u[:, None]
        P -= P.max(axis=0)
        np.exp(P, out=P)
        P /= P.sum(axis=0)
        T = P * O
        C = T.sum(axis=1)
        return u, P, T, C, float((np.abs(C - D) / D).max())

    # exact for a flat kernel
    u, P, T, C, residual = evaluate(np.log(D))
    steps = 0
    while not residual <= _TOL:
        if steps == _MAX_STEPS or not math.isfinite(residual):  # a residual that is not finite never recovers
            raise ConvergenceError(
                f"destination weights did not converge in {steps} Newton steps (last residual {residual:.3e})",
                residual=residual,
            )
        steps += 1
        step = _newton_step(np.diag(C) - P @ T.T, D - C)
        step *= _MAX_LOG_STEP / max(np.abs(step).max(), _MAX_LOG_STEP)
        for _ in range(_BACKTRACKS):
            trial = evaluate(u + step)
            if trial[-1] < residual:
                break
            step /= 2.0
        else:
            trial = evaluate(u + np.log(D / np.maximum(C, np.finfo(float).tiny)))
        u, P, T, C, residual = trial
    values[np.ix_(sending, live)] = T.T
    return values
