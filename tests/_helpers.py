"""Shared builders for randomized tests. Everything is seeded by the caller."""

from __future__ import annotations

import sys
from collections import defaultdict

import numpy as np

from maskdiff.dist import (
    POSITIVITY_FLOOR,
    Alphabet,
    JointTable,
    MarginalSet,
    along_axis,
    position_sum,
    state_to_index,
)
from maskdiff.iproj import IPF_TOL, FactorMatrix, IprojReport
from maskdiff.models import ARCopulaModel, DiffusionMarginalModel
from maskdiff.noising import SequenceState
from maskdiff.sampler import SamplerConfig, check_models, enumerate_step_distribution

# finite betas where beta * V itself overflows a float
HUGE_BETAS = (1e307, 1e308, sys.float_info.max)


def random_table(rng: np.random.Generator, n: int, c: int, floor: bool = False) -> JointTable:
    raw = rng.gamma(1.0, size=c**n)
    table = JointTable(Alphabet(n, c), raw / raw.sum())
    return table.floored() if floor else table


def zero_table(rng: np.random.Generator, n: int, c: int) -> JointTable:
    """A random table with about a third of its states at zero."""
    raw = rng.gamma(1.0, size=c**n)
    raw[rng.random(c**n) < 1 / 3] = 0.0
    raw[rng.integers(c**n)] += 1.0  # keep some mass
    return JointTable(Alphabet(n, c), raw / raw.sum())


def random_rows(rng: np.random.Generator, n: int, c: int, pad: float = 0.05) -> MarginalSet:
    raw = rng.gamma(1.0, size=(n, c)) + pad
    return MarginalSet(raw / raw.sum(axis=1, keepdims=True))


def lex_states(n: int, k: int) -> list[tuple[int, ...]]:
    """All states in the package's lexicographic order (position 0 most
    significant), built with plain Python as an ordering oracle."""
    states: list[tuple[int, ...]] = [()]
    for _ in range(n):
        states = [s + (cat,) for s in states for cat in range(k)]
    return states


def induced_by_enumeration(
    dm: DiffusionMarginalModel | None, copula: ARCopulaModel | None, cfg: SamplerConfig
) -> JointTable:
    """The induced law by the per-state dynamic programme: a dict from state
    to weight, advanced by one `enumerate_step_distribution` call per state.
    The oracle for `induced_distribution`'s dense pass (not for ar_only)."""
    alphabet = check_models(dm, copula, cfg.mode)
    current = {SequenceState.all_masked(alphabet, cfg.steps): 1.0}
    for _ in range(cfg.steps):
        nxt: dict[SequenceState, float] = defaultdict(float)
        for state, weight in current.items():
            for nxt_state, p in enumerate_step_distribution(dm, copula, state, cfg).items():
                nxt[nxt_state] += weight * p
        current = dict(nxt)
    probs = np.zeros(alphabet.num_states, dtype=np.float64)
    for state, weight in current.items():
        probs[state_to_index(alphabet, state.tokens)] += weight
    return JointTable(alphabet, probs)


def ipf_by_explicit_weights(
    p_est: JointTable, target: MarginalSet, max_iter: int = 10_000
) -> tuple[FactorMatrix, IprojReport]:
    """Cyclic IPF on the explicit reweighted table w = p_est * prod_i
    exp(V[i, x_i]), kept as a (C,)*N tensor: each row update is a broadcast
    multiply along its axis and each marginal an axis sum. The oracle for
    `iproject_exact`'s contraction, with the same floors and stopping rule."""
    rows = np.maximum(target.rows, POSITIVITY_FLOOR)
    rows = rows / rows.sum(axis=1, keepdims=True)
    n, c = rows.shape
    values = np.zeros((n, c), dtype=np.float64)
    w = p_est.tensor().copy()

    def gap() -> float:
        total = float(w.sum())
        return max(float(np.max(np.abs(position_sum(w, i) / total - rows[i]))) for i in range(n))

    iterations, current = 0, gap()
    while current > IPF_TOL and iterations < max_iter:
        for i in range(n):
            delta = np.log(rows[i]) - np.log(np.maximum(position_sum(w, i), POSITIVITY_FLOOR))
            values[i] += delta
            w *= along_axis(np.exp(delta), i, n)
        iterations += 1
        current = gap()
    return FactorMatrix(values).canonical(), IprojReport(iterations, current, current <= IPF_TOL)
