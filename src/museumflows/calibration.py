"""Goodness of fit and distance-decay calibration.

Model and observed matrices are compared as row-major, label-aligned flat
vectors. Calibration is an exhaustive sweep over a beta grid; the correlation
coefficient is the objective, the root-mean-square error is reported
alongside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateVarianceError,
    InvalidParameterError,
    ShapeError,
)
from .sim import FlowMatrix, ModelSpec, model_inputs, model_values


@dataclass(frozen=True)
class BetaGrid:
    """Ascending evenly spaced beta values for the sweep."""

    start: float = 0.01
    step: float = 0.01
    count: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.start) and self.start >= 0):
            raise InvalidParameterError(f"grid start {self.start} must be >= 0")
        if not (math.isfinite(self.step) and self.step > 0):
            raise InvalidParameterError(f"grid step {self.step} must be > 0")
        if self.count < 1:
            raise InvalidParameterError(f"grid count {self.count} must be >= 1")

    def betas(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)


@dataclass(frozen=True)
class SweepResult:
    """One calibration curve: fit at every grid point plus its optimum.

    r is NaN at grid points where the model matrix had no variance; those
    points never win the argmax. A constant observed matrix has no curve.
    """

    betas: tuple[float, ...]
    r_values: tuple[float, ...]
    rms_values: tuple[float, ...]
    best_beta: float
    best_r: float
    best_rms: float
    spec: ModelSpec


def spec_name(spec: ModelSpec) -> str:
    """Short label for the weighting combination of a model spec."""
    if spec.use_attractiveness and spec.use_demand:
        return "attract-demand"
    if spec.use_attractiveness:
        return "attract"
    if spec.use_demand:
        return "demand"
    return "baseline"


def _centred(v: np.ndarray):
    """The deviations of ``v`` from its mean, and their Euclidean norm."""
    d = v - v.mean()
    return d, math.sqrt(float(d @ d))


def _correlation(xd, sx, yd, sy) -> float:
    """Pearson r from two vectors' deviations and deviation norms (``_centred``)."""
    if sx == 0.0 or sy == 0.0:
        raise DegenerateVarianceError("correlation undefined for a constant vector")
    # clamp floating drift so the result stays in [-1, 1]
    return max(-1.0, min(1.0, float(xd @ yd) / (sx * sy)))


def _correlation_size_check(n: int) -> None:
    if n < 2:
        raise ShapeError(f"correlation needs at least 2 values, got {n}")


def _rms(d: np.ndarray) -> float:
    """Root mean square of a difference vector."""
    return math.sqrt(float(d @ d) / d.size)


def pearson_r(x, y) -> float:
    """Sample correlation of two equal-length vectors."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ShapeError(f"length mismatch: {x.size} vs {y.size}")
    _correlation_size_check(x.size)
    return _correlation(*_centred(x), *_centred(y))


def rms_error(x, y) -> float:
    """Root mean squared difference of two equal-length vectors."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ShapeError(f"length mismatch: {x.size} vs {y.size}")
    if x.size == 0:
        raise ShapeError("rms needs at least 1 value")
    return _rms(x - y)


def sweep_beta(zones, museums, observed: FlowMatrix, spec: ModelSpec, grid=None) -> SweepResult:
    """Evaluate the fit at every grid point and pick the best correlation.

    ``grid`` is a BetaGrid or an explicit sequence of beta values. Grid
    points where the model collapses to a constant matrix get r = NaN and
    are excluded from the argmax; ties go to the smallest beta, so the
    result does not depend on evaluation order.
    """
    if grid is None:
        grid = BetaGrid()
    betas = grid.betas() if isinstance(grid, BetaGrid) else np.asarray(grid, dtype=float)
    if betas.ndim != 1 or betas.size < 1:
        raise InvalidParameterError("beta grid must be a non-empty 1-D sequence")
    inputs = model_inputs(zones, museums, spec, observed)
    obs_flat = observed.reindex(inputs.origin_ids, inputs.destination_ids).flat()
    _correlation_size_check(obs_flat.size)
    obs_dev, obs_norm = _centred(obs_flat)
    if obs_norm == 0.0:
        raise DegenerateVarianceError(f"observed matrix constant ({obs_flat[0]:g} in every cell): correlation undefined")
    r_values = np.empty(betas.size)
    rms_values = np.empty(betas.size)
    # the same operations as rms_error and pearson_r, with the observed side
    # centred once for the whole grid
    for k, beta in enumerate(betas):
        values = model_values(inputs, float(beta)).ravel()
        rms_values[k] = _rms(values - obs_flat)
        try:
            r_values[k] = _correlation(*_centred(values), obs_dev, obs_norm)
        except DegenerateVarianceError:
            r_values[k] = math.nan
    finite = np.isfinite(r_values)
    if not np.any(finite):
        raise DegenerateVarianceError("model matrix constant at every grid point")
    best_r = float(np.max(r_values[finite]))
    candidates = np.nonzero(finite & (r_values == best_r))[0]
    best_idx = int(candidates[np.argmin(betas[candidates])])
    return SweepResult(
        betas=tuple(float(b) for b in betas),
        r_values=tuple(float(r) for r in r_values),
        rms_values=tuple(float(e) for e in rms_values),
        best_beta=float(betas[best_idx]),
        best_r=best_r,
        best_rms=float(rms_values[best_idx]),
        spec=spec,
    )


def compare_specifications(zones, museums, observed: FlowMatrix, grid=None, base: ModelSpec | None = None):
    """Sweep the three weighting variants in fixed order.

    Returns [plain, +attractiveness, +attractiveness+demand], all sharing
    the deterrence kind and constraint of ``base``.
    """
    if base is None:
        base = ModelSpec()
    variants = (
        replace(base, use_attractiveness=False, use_demand=False),
        replace(base, use_attractiveness=True, use_demand=False),
        replace(base, use_attractiveness=True, use_demand=True),
    )
    return [sweep_beta(zones, museums, observed, v, grid) for v in variants]
