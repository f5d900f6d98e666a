"""Shared builders for randomized tests. Everything is seeded by the caller."""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from typing import Sequence

import numpy as np

from maskdiff.dist import (
    POSITIVITY_FLOOR,
    Alphabet,
    JointTable,
    MarginalSet,
    along_axis,
    entropy,
    position_sum,
    state_to_index,
)
from maskdiff.harness import SyntheticSpec, gen_data
from maskdiff.iproj import IPF_TOL, FactorMatrix, IprojReport
from maskdiff.models import ARCopulaModel, DiffusionMarginalModel
from maskdiff.errors import InvalidDistributionError, SupportError
from maskdiff.noising import (
    NoiseSchedule,
    SequenceState,
    _pattern_frames,
    forward_state_distribution,
)
from maskdiff.sampler import SamplerConfig, StepLaw, _step_law, check_models

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


def correlated_pair(strength: float = 0.95) -> JointTable:
    return gen_data(SyntheticSpec("correlated_phrases", 2, 2, strength))


def exact_models(table: JointTable):
    floored = table.floored()
    return DiffusionMarginalModel.exact(floored), ARCopulaModel.exact(floored)


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


def walk(law: StepLaw) -> list[tuple[tuple[int, ...], float]]:
    """Content layers of `law` with their weights, one state at a time:
    filled left to right and breadth-first, each path extends by every
    category its row gives mass. Paths come out in lexicographic order."""
    mask = law.x_next.alphabet.mask_index
    paths: list[tuple[tuple[int, ...], float]] = [((), 1.0)]
    for i, tok in enumerate(law.x_next.tokens[: law.fill]):
        if tok != mask:
            paths = [(prefix + (tok,), weight) for prefix, weight in paths]
            continue
        grown = []
        for prefix, weight in paths:
            row = law.row(i, prefix)
            grown.extend((prefix + (cat,), weight * float(p)) for cat, p in enumerate(row) if p > 0.0)
        paths = grown
    return paths


def aux_by_enumeration(
    dm: DiffusionMarginalModel | None, copula: ARCopulaModel | None,
    x_next: SequenceState, cfg: SamplerConfig,
) -> dict[tuple[int, ...], float]:
    """The content-layer law of one step at x_next by `walk`: the oracle for
    `enumerate_aux_distribution`."""
    check_models(dm, copula, cfg.mode)
    return dict(walk(_step_law(dm, copula, x_next, cfg)))


def step_by_enumeration(
    dm: DiffusionMarginalModel | None, copula: ARCopulaModel | None,
    x_next: SequenceState, cfg: SamplerConfig,
) -> dict[SequenceState, float]:
    """The law of x_t after one step at x_next by `walk`, then every re-mask
    outcome with mass or, without a kernel, MASK past the fill: the oracle
    for `enumerate_step_distribution`."""
    check_models(dm, copula, cfg.mode)
    law = _step_law(dm, copula, x_next, cfg)
    alphabet = x_next.alphabet
    pad = (alphabet.mask_index,) * (alphabet.num_positions - law.fill)
    out: dict[SequenceState, float] = defaultdict(float)
    for tokens, weight in walk(law):
        if law.remask is None:
            out[SequenceState(tokens + pad, law.t, alphabet)] += weight
            continue
        for x_t, p in law.remask.outcomes(tokens):
            out[x_t] += weight * p
    return dict(out)


def induced_by_enumeration(
    dm: DiffusionMarginalModel | None, copula: ARCopulaModel | None, cfg: SamplerConfig
) -> JointTable:
    """The induced law by the per-state dynamic programme: a dict from state
    to weight, advanced by one `step_by_enumeration` call per state. The
    oracle for `induced_distribution`'s dense pass (not for ar_only)."""
    alphabet = check_models(dm, copula, cfg.mode)
    current = {SequenceState.all_masked(alphabet, cfg.steps): 1.0}
    for _ in range(cfg.steps):
        nxt: dict[SequenceState, float] = defaultdict(float)
        for state, weight in current.items():
            for nxt_state, p in step_by_enumeration(dm, copula, state, cfg).items():
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


def per_pattern_bound(data: JointTable, sched: NoiseSchedule) -> float:
    """H(data) + sum_{t=1..T} E_{x_t}[TC(q(X_{t-1} | x_t))] by one tensor pass
    per (t, mask pattern): the reachable x_t that share a pattern differ only
    in their unmasked tokens, so `_pattern_tc` takes the TC of all their
    posteriors at once, over the pattern frames the dense step uses. The
    oracle for `elbo_bound`'s closed form. Each live x_t (q(x_t) > 0) fails
    as `posterior_from_prior` and `total_correlation` would fail on it, and
    the first failing state in (t, table) order names the error."""
    frames = _pattern_frames(data.num_positions, data.num_categories, sched.chunk_size)
    total = entropy(data)
    prior = forward_state_distribution(data, 0, sched).tensor()
    for t in range(1, sched.steps + 1):
        qt = forward_state_distribution(data, t, sched).tensor()
        step = sched.step_mask_prob(t - 1)
        faults = np.zeros(qt.shape, dtype=np.int8)
        for frame in frames:
            weight = qt[frame.src]
            live = weight > 0.0
            if not live.any():
                continue
            tc, fault = _pattern_tc(prior[frame.dest], frame.chunks, step)
            faults[frame.src] = fault * live
            if tc is not None:
                total += float(np.sum(weight * tc))
        if faults.any():
            error, message = _BOUND_FAULTS[int(faults.flat[np.flatnonzero(faults)[0]])]
            raise error(message)
        prior = qt
    return total


_BOUND_FAULTS = {
    1: (SupportError, "x_t is unreachable under the forward process"),
    2: (InvalidDistributionError, "a reverse posterior's TC is below rounding slack"),
}


def _pattern_tc(
    p: np.ndarray, chunks: Sequence[tuple[int, ...]], step: float
) -> tuple[np.ndarray | None, np.ndarray]:
    """TC(q(X_{t-1} | x_t)) for every x_t of one mask pattern, with a fault
    code per state (0 none, else a key of `_BOUND_FAULTS`). p is q(X_{t-1})
    with all C+1 values on the masked chunks' axes and the states' tokens
    on the others; the results have 1 on the masked axes. Each masked chunk
    weighs its sources 1 (all MASK), step (all content) or 0 (mixed); each
    unmasked chunk weighs every state by 1 - step, which normalizing
    cancels. An unmasked position is a point mass and adds no TC, so with
    at most one masked position the TC is None: 0 at every state."""
    for chunk in chunks:
        block = np.zeros((p.shape[chunk[0]],) * len(chunk))
        block[(-1,) * len(chunk)] = 1.0
        block[(slice(0, -1),) * len(chunk)] = step
        p = p * along_axis(block, chunk[-1], p.ndim)
    axes = tuple(i for chunk in chunks for i in chunk)
    z = p.sum(axis=axes, keepdims=True)
    fault = np.where(z <= 0.0, 1, 0).astype(np.int8)
    if len(axes) <= 1:
        return None, fault
    post = np.divide(p, z, out=np.zeros_like(p), where=z > 0.0)
    marginals = [post.sum(axis=tuple(j for j in axes if j != i), keepdims=True) for i in axes]
    product, support = math.prod(marginals), post > 0.0
    log_product = np.log(np.where(support & (product > 0.0), product, 1.0))
    if np.any(support & (product <= 0.0)):  # underflow: sum the log marginals
        log_sum = sum(np.log(m, out=np.zeros_like(m), where=m > 0.0) for m in marginals)
        log_product = np.where(product > 0.0, log_product, log_sum)
    logs = np.log(np.where(support, post, 1.0)) - log_product
    tc = np.sum(np.where(support, post * logs, 0.0), axis=axes, keepdims=True)
    fault[tc < -1e-9] = 2  # tc is 0 where z <= 0: no posterior there
    return np.maximum(tc, 0.0), fault
