"""Information projection onto a set of fixed univariate marginals.

The projection of a positive table p_est onto the distributions with target
marginals tar_1..tar_N has the form

    phat(x) = p_est(x) * prod_i exp(V[i, x_i]),

and the optimal V minimizes the convex objective

    L(V) = sum_x p_est(x) * prod_i exp(V[i, x_i]) - sum_{i,c} V[i,c] * tar_i(c),

whose partial derivative in V[i,c] is (unnormalized marginal of phat at
(i,c)) minus tar_i(c). This is a generalized matrix-scaling problem, so the
production solver is cyclic iterative proportional fitting: each row update
V[i,:] += log(tar_i / current marginal_i) is the exact coordinate-block
minimizer, hence the objective never increases across sweeps. A plain
gradient-descent solver of the same objective is provided as an independent
cross-check.

The production kernels keep the weights as the table's (C,)*N tensor: row
V[i,:] is broadcast along axis i and a marginal is an axis sum. The descent
solver walks the explicit `all_states` index array instead, so the two
paths share no evaluation code.

Row rescalings leave every conditional odds ratio unchanged, so applying any
V preserves the copula of p_est while moving its marginals.

The rank-wise update log(target row) - log(current row) and the two-context
variant log(full-context row) - log(causal-context row) produce the V used
by the sampler; `beta` scales V at application time only, so one matrix
serves several beta values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dist import (
    JointTable,
    MarginalSet,
    POSITIVITY_FLOOR,
    all_states,
    along_axis,
    position_sum,
)
from .errors import AlphabetMismatchError, InvalidDistributionError, PositivityError

IPF_TOL = 1e-10
DEFAULT_IPF_MAX_SWEEPS = 10_000


@dataclass(frozen=True, eq=False)
class FactorMatrix:
    """Per-position, per-category log scaling factors; row i, column c holds
    log sigma_i(c). `beta` multiplies the values when applied."""

    values: np.ndarray
    beta: float = 1.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise InvalidDistributionError("factor matrix must be 2-D")
        if not np.all(np.isfinite(arr)):
            raise InvalidDistributionError("factor matrix entries must be finite")
        if not (self.beta >= 0.0 and np.isfinite(self.beta)):
            raise InvalidDistributionError(
                f"beta must be finite and >= 0 (0 disables the correction), got {self.beta!r}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def num_positions(self) -> int:
        return int(self.values.shape[0])

    @property
    def num_categories(self) -> int:
        return int(self.values.shape[1])

    def canonical(self) -> "FactorMatrix":
        """Equivalent representation with zero-mean rows (same projection)."""
        return FactorMatrix(self.values - self.values.mean(axis=1, keepdims=True), self.beta)


@dataclass(frozen=True)
class IprojReport:
    iterations: int
    max_marginal_gap: float
    objective: float
    converged: bool


# ---------------------------------------------------------------------------
# Applying factors and evaluating the objective
# ---------------------------------------------------------------------------

def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    return m + float(np.log(np.sum(np.exp(values - m))))


def _check_shapes(p_est: JointTable, v: FactorMatrix) -> None:
    if v.values.shape != (p_est.num_positions, p_est.num_categories):
        raise AlphabetMismatchError(
            f"factor matrix shape {v.values.shape} does not match the table"
        )


def _factor_sums(values: np.ndarray) -> np.ndarray:
    """sum_i values[i, x_i] as a (C,)*N tensor."""
    n, c = values.shape
    total = np.zeros((c,) * n, dtype=np.float64)
    for i in range(n):
        total += along_axis(values[i], i, n)
    return total


def apply_factors(p_est: JointTable, v: FactorMatrix) -> tuple[JointTable, float]:
    """Rescale p_est by exp(beta * V[i, x_i]) per position, renormalize, and
    report the pre-normalization total mass. Computed in log-domain."""
    _check_shapes(p_est, v)
    if p_est.probs.min() <= 0.0:
        raise PositivityError("apply_factors requires a strictly positive table")
    log_w = np.log(p_est.tensor()) + v.beta * _factor_sums(v.values)
    log_z = _logsumexp(log_w)
    probs = np.exp(log_w - log_z)
    return JointTable(p_est.alphabet, probs), float(np.exp(log_z))


def _check_target(p_est: JointTable, target: MarginalSet) -> None:
    if target.includes_mask:
        raise InvalidDistributionError("target marginals must be data-only")
    if target.rows.shape != (p_est.num_positions, p_est.num_categories):
        raise AlphabetMismatchError("target marginal shape does not match the table")


def objective(v: FactorMatrix, p_est: JointTable, target: MarginalSet) -> float:
    """The convex objective at the raw coefficients (beta is a sampling-time
    knob and deliberately does not enter here)."""
    _check_shapes(p_est, v)
    _check_target(p_est, target)
    log_w = np.log(np.maximum(p_est.tensor(), POSITIVITY_FLOOR)) + _factor_sums(v.values)
    mass = float(np.exp(_logsumexp(log_w)))
    return mass - float(np.sum(v.values * target.rows))


def objective_gradient(v: FactorMatrix, p_est: JointTable, target: MarginalSet) -> np.ndarray:
    """d L / d V[i,c] = unnormalized marginal of the rescaled table - target."""
    _check_shapes(p_est, v)
    _check_target(p_est, target)
    w = p_est.tensor() * np.exp(_factor_sums(v.values))
    return np.stack([position_sum(w, i) for i in range(v.num_positions)]) - target.rows


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def _floored_target(target: MarginalSet) -> np.ndarray:
    rows = np.maximum(target.rows, POSITIVITY_FLOOR)
    return rows / rows.sum(axis=1, keepdims=True)


def _marginal_gap(w: np.ndarray, rows: np.ndarray) -> float:
    """Largest distance from the normalized marginals of the weight tensor w
    to the target rows."""
    total = float(w.sum())
    gap = 0.0
    for i in range(rows.shape[0]):
        gap = max(gap, float(np.max(np.abs(position_sum(w, i) / total - rows[i]))))
    return gap


def iproject_exact(
    p_est: JointTable,
    target: MarginalSet,
    max_iter: int = DEFAULT_IPF_MAX_SWEEPS,
    on_sweep: "Callable[[int, float, float], None] | None" = None,
) -> tuple[FactorMatrix, IprojReport]:
    """Cyclic IPF. Sweeps rows i = 0..N-1 with the closed-form update
    V[i,:] += log(target_i / current unnormalized marginal_i) until the
    normalized marginals match the (floored) target within IPF_TOL,
    or max_iter sweeps elapse. Non-convergence is reported, never silent.

    The returned V has zero-mean rows; the report's objective is evaluated
    at the internal mass-one minimizer before canonicalization. on_sweep,
    when given, observes (sweep_index, gap, objective) after every sweep.
    """
    _check_target(p_est, target)
    if p_est.probs.min() <= 0.0:
        raise PositivityError("iproject_exact requires a strictly positive p_est")
    rows = _floored_target(target)
    n, c = rows.shape
    values = np.zeros((n, c), dtype=np.float64)
    w = p_est.tensor().copy()
    iterations = 0
    gap = _marginal_gap(w, rows)
    target_set = MarginalSet(rows)
    if on_sweep is not None:
        on_sweep(0, gap, objective(FactorMatrix(values), p_est, target_set))
    while gap > IPF_TOL and iterations < max_iter:
        for i in range(n):
            delta = np.log(rows[i]) - np.log(np.maximum(position_sum(w, i), POSITIVITY_FLOOR))
            values[i] += delta
            w *= along_axis(np.exp(delta), i, n)
        iterations += 1
        gap = _marginal_gap(w, rows)
        if on_sweep is not None:
            on_sweep(iterations, gap, objective(FactorMatrix(values), p_est, target_set))
    converged = gap <= IPF_TOL
    obj = objective(FactorMatrix(values), p_est, target_set)
    report = IprojReport(iterations, gap, obj, converged)
    return FactorMatrix(values).canonical(), report


def iproject_descent(
    p_est: JointTable,
    target: MarginalSet,
    grad_tol: float = 1e-10,
    max_iter: int = 100_000,
) -> tuple[FactorMatrix, IprojReport]:
    """First-order solve of the same objective: gradient descent with
    Barzilai-Borwein step sizes and an Armijo backtracking safeguard.
    Independent of the IPF path; used as a cross-check oracle."""
    _check_target(p_est, target)
    if p_est.probs.min() <= 0.0:
        raise PositivityError("iproject_descent requires a strictly positive p_est")
    rows = _floored_target(target)
    states = all_states(p_est.alphabet)
    n, c = rows.shape
    pos = np.arange(n)[None, :]
    log_p = np.log(p_est.probs)

    def evaluate(values: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        w = np.exp(log_p + values[pos, states].sum(axis=1))
        obj = float(w.sum()) - float(np.sum(values * rows))
        marg = np.stack(
            [np.bincount(states[:, i], weights=w, minlength=c) for i in range(n)]
        )
        return obj, marg - rows, w

    values = np.zeros((n, c), dtype=np.float64)
    obj, grad, w = evaluate(values)
    prev_values: np.ndarray | None = None
    prev_grad: np.ndarray | None = None
    recent = [obj]  # nonmonotone (Grippo) reference window
    iterations = 0
    converged = False
    for _ in range(max_iter):
        if float(np.max(np.abs(grad))) <= grad_tol:
            converged = True
            break
        step = 1.0
        if prev_values is not None and prev_grad is not None:
            s = values - prev_values
            y = grad - prev_grad
            sy = float(np.sum(s * y))
            if sy > 0.0:
                step = min(max(float(np.sum(s * s)) / sy, 1e-12), 1e8)
        gnorm_sq = float(np.sum(grad * grad))
        reference = max(recent)
        while True:
            candidate = values - step * grad
            cand_obj, cand_grad, cand_w = evaluate(candidate)
            if cand_obj <= reference - 1e-4 * step * gnorm_sq or step < 1e-18:
                break
            step *= 0.5
        if step < 1e-18:
            break
        prev_values, prev_grad = values, grad
        values, obj, grad, w = candidate, cand_obj, cand_grad, cand_w
        recent.append(obj)
        if len(recent) > 10:
            recent.pop(0)
        iterations += 1
    gap = _marginal_gap(w.reshape(p_est.tensor().shape), rows)
    report = IprojReport(iterations, gap, obj, converged)
    return FactorMatrix(values).canonical(), report


# ---------------------------------------------------------------------------
# Sampler-facing factor rules
# ---------------------------------------------------------------------------

def rankwise_update(p_dm_row: Sequence[float], p_copula_row: Sequence[float]) -> np.ndarray:
    """Single-row closed form: log(target row) - log(current row), with both
    rows floored before the logs. With every other row zero, applying this
    row moves position i's marginal exactly onto the target row."""
    dm = np.maximum(np.asarray(p_dm_row, dtype=np.float64), POSITIVITY_FLOOR)
    cop = np.maximum(np.asarray(p_copula_row, dtype=np.float64), POSITIVITY_FLOOR)
    if dm.shape != cop.shape or dm.ndim != 1:
        raise AlphabetMismatchError("rows must be 1-D and of equal length")
    return np.log(dm) - np.log(cop)


def dcd_factors(full: MarginalSet, causal: MarginalSet, beta: float = 1.0) -> FactorMatrix:
    """V[i,c] = log(full-context row i) - log(causal-context row i), the
    correction the sampler multiplies into the copula conditionals. Rows
    vanish wherever the two contexts carry the same information."""
    if full.includes_mask or causal.includes_mask:
        raise InvalidDistributionError("factor rows are over data categories only")
    if full.rows.shape != causal.rows.shape:
        raise AlphabetMismatchError("full/causal marginal shapes differ")
    values = np.stack(
        [rankwise_update(full.rows[i], causal.rows[i]) for i in range(full.num_positions)]
    )
    return FactorMatrix(values, beta)
