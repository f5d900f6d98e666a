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
minimizer, hence the objective never increases across sweeps. The IPF
report holds the sweep count and the final marginal gap; the objective is
evaluated only for an `on_sweep` observer. A plain gradient-descent solver
of the same objective is provided as an independent cross-check.

IPF never forms the reweighted table: with scale rows exp(V[i,:]), row i's
unnormalized marginal is scale_i * (L_i @ R_i), L_i the table contracted with
rows 0..i-1 and R_i the outer product of rows i+1..N-1. Descent walks the
`all_states` index array with its own gap: the solvers share no evaluation code.

Row rescalings leave every conditional odds ratio unchanged, so applying any
V preserves the copula of p_est while moving its marginals.

The rank-wise update log(target row) - log(current row) and the two-context
variant log(full-context row) - log(causal-context row) produce the V used
by the sampler, which scales it by its config's beta when it draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike

from .dist import JointTable, MarginalSet, POSITIVITY_FLOOR, all_states, position_sum
from .errors import AlphabetMismatchError, InvalidDistributionError, PositivityError

IPF_TOL = 1e-10
DESCENT_GRAD_TOL = 1e-10
DEFAULT_IPF_MAX_SWEEPS = 10_000


@dataclass(frozen=True, eq=False)
class FactorMatrix:
    """Per-position, per-category log scaling factors; row i, column c holds
    log sigma_i(c)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise InvalidDistributionError("factor matrix must be 2-D")
        if not np.all(np.isfinite(arr)):
            raise InvalidDistributionError("factor matrix entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def num_positions(self) -> int:
        return int(self.values.shape[0])

    def canonical(self) -> "FactorMatrix":
        """Equivalent representation with zero-mean rows (same projection)."""
        return FactorMatrix(self.values - self.values.mean(axis=1, keepdims=True))


@dataclass(frozen=True)
class IprojReport:
    iterations: int
    max_marginal_gap: float
    converged: bool


# ---------------------------------------------------------------------------
# Applying factors and evaluating the objective
# ---------------------------------------------------------------------------

def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    return m + float(np.log(np.sum(np.exp(values - m))))


def _check_shapes(p_est: JointTable, v: FactorMatrix) -> None:
    if v.values.shape != (p_est.num_positions, p_est.num_categories):
        raise AlphabetMismatchError(f"factor matrix shape {v.values.shape} does not match the table")


def _factor_sums(values: np.ndarray) -> np.ndarray:
    """sum_i values[i, x_i] as a (C,)*N tensor, added left to right."""
    return reduce(np.add.outer, values)


def _contraction(tensor: np.ndarray, scales: np.ndarray, first: "np.ndarray | None" = None):
    """Yield the unnormalized marginal rows i = 0..N-1 of tensor * prod_j
    scales[j, x_j]. A caller may rewrite scales[i] once it has row i, and
    later rows see the new row; `first`, when given, is yielded as row 0."""
    n, c = scales.shape
    rights = [np.ones(1)]  # rights[k]: outer product of the last k rows, flattened
    for row in scales[:0 if first is None else 1:-1]:
        rights.append(np.multiply.outer(row, rights[-1]).ravel())
    left, marginal = tensor.reshape(-1), first
    for i in range(n):
        block = left.reshape(c, -1)
        if i > 0 or first is None:
            marginal = scales[i] * (block @ rights.pop())  # frees each product once used
        yield marginal
        left = scales[i] @ block


def apply_factors(p_est: JointTable, v: FactorMatrix) -> tuple[JointTable, float]:
    """Rescale p_est by exp(V[i, x_i]) per position, renormalize, and report
    log Z, the log of the pre-normalization total mass. Computed in
    log-domain, so log Z stays finite where Z overflows."""
    _check_shapes(p_est, v)
    if p_est.probs.min() <= 0.0:
        raise PositivityError("apply_factors requires a strictly positive table")
    log_w = np.log(p_est.tensor()) + _factor_sums(v.values)
    log_z = _logsumexp(log_w)
    return JointTable(p_est.alphabet, np.exp(log_w - log_z)), log_z


def _check_target(p_est: JointTable, target: MarginalSet) -> None:
    if target.rows.shape != (p_est.num_positions, p_est.num_categories):
        raise AlphabetMismatchError("target marginal shape does not match the table")


def objective(v: FactorMatrix, p_est: JointTable, target: MarginalSet) -> float:
    """The convex objective at V. Raises InvalidDistributionError on overflow."""
    _check_shapes(p_est, v)
    _check_target(p_est, target)
    log_w = np.log(np.maximum(p_est.tensor(), POSITIVITY_FLOOR)) + _factor_sums(v.values)
    with np.errstate(over="ignore"):
        mass = float(np.exp(_logsumexp(log_w)))
    if not np.isfinite(mass):
        raise InvalidDistributionError("the objective overflows float64 at this V")
    return mass - float(np.sum(v.values * target.rows))


def objective_gradient(v: FactorMatrix, p_est: JointTable, target: MarginalSet) -> np.ndarray:
    """d L / d V[i,c] = unnormalized marginal of the rescaled table - target."""
    _check_shapes(p_est, v)
    _check_target(p_est, target)
    with np.errstate(over="ignore", invalid="ignore"):
        marginals = np.stack(list(_contraction(p_est.tensor(), np.exp(v.values))))
    if not np.all(np.isfinite(marginals)):
        raise InvalidDistributionError("the objective gradient overflows float64 at this V")
    return marginals - target.rows


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def _floored_target(target: MarginalSet) -> np.ndarray:
    rows = np.maximum(target.rows, POSITIVITY_FLOOR)
    return rows / rows.sum(axis=1, keepdims=True)


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

    The returned V has zero-mean rows. on_sweep, when given, observes
    (sweep_index, gap, objective) after every sweep, the objective taken at
    the uncanonicalized V.
    """
    _check_target(p_est, target)
    if p_est.probs.min() <= 0.0:
        raise PositivityError("iproject_exact requires a strictly positive p_est")
    rows = _floored_target(target)
    tensor, target_set, iterations = p_est.tensor(), MarginalSet(rows), 0
    values, scales = np.zeros(rows.shape), np.ones(rows.shape)
    while True:
        marginals = np.stack(list(_contraction(tensor, scales)))
        gap = float(np.max(np.abs(marginals / marginals.sum(axis=1, keepdims=True) - rows)))
        if on_sweep is not None:
            on_sweep(iterations, gap, objective(FactorMatrix(values), p_est, target_set))
        if not (gap > IPF_TOL and iterations < max_iter):
            break
        for i, marginal in enumerate(_contraction(tensor, scales, marginals[0])):
            delta = np.log(rows[i]) - np.log(np.maximum(marginal, POSITIVITY_FLOOR))
            values[i] += delta
            scales[i] *= np.exp(delta)
        iterations += 1
    return FactorMatrix(values).canonical(), IprojReport(iterations, gap, gap <= IPF_TOL)


def _marginal_gap(w: np.ndarray, rows: np.ndarray) -> float:
    """Largest distance from w's normalized axis-sum marginals to the rows (descent's own)."""
    total = float(w.sum())
    return max(float(np.max(np.abs(position_sum(w, i) / total - rows[i]))) for i in range(len(rows)))


def iproject_descent(
    p_est: JointTable,
    target: MarginalSet,
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
        marg = np.stack([np.bincount(states[:, i], weights=w, minlength=c) for i in range(n)])
        return obj, marg - rows, w

    values = np.zeros((n, c), dtype=np.float64)
    obj, grad, w = evaluate(values)
    prev_values: np.ndarray | None = None
    prev_grad: np.ndarray | None = None
    recent = [obj]  # nonmonotone (Grippo) reference window
    iterations, converged = 0, False
    for _ in range(max_iter):
        if float(np.max(np.abs(grad))) <= DESCENT_GRAD_TOL:
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
    return FactorMatrix(values).canonical(), IprojReport(iterations, gap, converged)


# ---------------------------------------------------------------------------
# Sampler-facing factor rules
# ---------------------------------------------------------------------------

def rankwise_update(p_dm_rows: ArrayLike, p_copula_rows: ArrayLike) -> np.ndarray:
    """Closed form log(target row) - log(current row), with both floored
    before the logs, on one row or elementwise on two row arrays of equal
    shape. With every other row zero, applying a row moves position i's
    marginal exactly onto the target row."""
    dm = np.maximum(np.asarray(p_dm_rows, dtype=np.float64), POSITIVITY_FLOOR)
    cop = np.maximum(np.asarray(p_copula_rows, dtype=np.float64), POSITIVITY_FLOOR)
    if dm.shape != cop.shape or dm.ndim < 1:
        raise AlphabetMismatchError("rows must be at least 1-D and of equal shape")
    return np.log(dm) - np.log(cop)


def dcd_factors(full: MarginalSet, causal: MarginalSet) -> FactorMatrix:
    """V[i,c] = log(full-context row i) - log(causal-context row i) for any
    two row sets of one shape, the correction the sampler multiplies into the
    copula conditionals. Rows vanish where the two contexts carry the same information."""
    return FactorMatrix(rankwise_update(full.rows, causal.rows))
