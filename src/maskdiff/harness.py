"""Synthetic data and exact end-to-end evaluation.

Generators produce small joint tables with a controllable amount of
dependence. Evaluation never estimates anything it can enumerate: the
distribution a sampler induces over final sequences is a (C+1,)*N weight
tensor moved from the all-mask state at time T to time 0 by the sampler's
`dense_step`, which holds each mode's step law for whole mask patterns,
and quality is measured as KL(data || induced) plus the expected negative
log-likelihood of generated sequences under the true data table. The
step-count lower bound H(data) + sum_t E[TC(reverse posterior)] is
evaluated exactly in the same shape: one tensor pass per step and chunk
mask pattern takes the Bayes-rule posterior of every state with that
pattern and its total correlation. The negative ELBO of a factorized
denoiser, which may give each state any rows, is evaluated state by state
from `posterior_from_prior` (one forward prior per step), so the bound's
equality case is checked to rounding error by two independent paths. A
sweep builds each mode's pattern rows once and shares them across its
(T, beta) cells.

Sweeps draw no samples: given their config they are deterministic and the
CSV is byte-stable (wall-clock timings are opt-in and empty by default).
"""

from __future__ import annotations

import itertools
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .dist import (
    Alphabet,
    JointTable,
    MarginalSet,
    along_axis,
    entropy,
    format_float_short,
    kl,
    make_output_dirs,
    product_table,
    state_to_index,
    univariate_marginals,
)
from .errors import CapExceededError, InvalidDistributionError, ScheduleError, SupportError
from .models import ARCopulaModel, DiffusionMarginalModel, ar_chain_table
from .noising import (
    NoiseSchedule,
    SequenceState,
    chunk_groups,
    forward_state_distribution,
    make_schedule,
    posterior_from_prior,
)
from .sampler import (
    MODE_AR_ONLY,
    PatternRows,
    SamplerConfig,
    check_models,
    dense_step,
    required_models,
    sample,
)

DATA_KINDS = ("random_dirichlet", "correlated_phrases", "markov_chain")
EXACT_INDUCED_CAP = 1280  # (C+1)**N * T; admits the N=4, C=3, T=4 corner


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic data table. correlation_strength is ignored by
    random_dirichlet; for the other kinds strength 0 is an independent table."""

    kind: str
    num_positions: int
    num_categories: int
    correlation_strength: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in DATA_KINDS:
            raise InvalidDistributionError(f"unknown data kind {self.kind!r}")
        if self.num_positions < 1:
            raise InvalidDistributionError("num_positions must be >= 1")
        if not 0.0 <= self.correlation_strength <= 1.0:
            raise InvalidDistributionError("correlation_strength must lie in [0, 1]")
        if self.seed < 0:
            raise InvalidDistributionError(f"seed must be >= 0, got {self.seed!r}")


def gen_data(spec: SyntheticSpec) -> JointTable:
    alphabet = Alphabet(spec.num_positions, spec.num_categories)
    rng = np.random.default_rng(spec.seed)
    n, c, s = spec.num_positions, spec.num_categories, spec.correlation_strength
    if spec.kind == "random_dirichlet":
        raw = rng.gamma(1.0, size=alphabet.num_states)
        probs = raw / raw.sum()
    elif spec.kind == "correlated_phrases":
        # (1-s) * uniform product + s * uniform mass on the aligned phrases
        # (x_0 = x_1 = ... = x_{N-1}); marginals stay uniform, dependence and
        # total correlation grow monotonically with s.
        probs = np.full(alphabet.num_states, (1.0 - s) / alphabet.num_states)
        for cat in range(c):
            probs[state_to_index(alphabet, (cat,) * n)] += s / c
    else:  # markov_chain
        shared = rng.gamma(1.0, size=c)
        shared /= shared.sum()
        trans = rng.gamma(1.0, size=(c, c))
        trans /= trans.sum(axis=1, keepdims=True)
        trans = (1.0 - s) * shared[None, :] + s * trans
        init = rng.gamma(1.0, size=c)
        init /= init.sum()
        probs = init.copy()
        for _ in range(1, n):
            last = np.arange(probs.size) % c
            probs = (probs[:, None] * trans[last]).ravel()
    return JointTable(alphabet, probs)


# ---------------------------------------------------------------------------
# Exact step-count diagnostics
# ---------------------------------------------------------------------------

def reachable_states(
    data: JointTable, t: int, sched: NoiseSchedule
) -> Iterable[tuple[SequenceState, float]]:
    """Every state x_t with q(x_t) > 0, in table order, with its probability."""
    return _support(forward_state_distribution(data, t, sched), t, data.alphabet)


def _support(
    qt: JointTable, t: int, alphabet: Alphabet
) -> Iterator[tuple[SequenceState, float]]:
    tensor = qt.tensor()
    for tokens in map(tuple, np.argwhere(tensor).tolist()):
        yield SequenceState(tokens, t, alphabet), float(tensor[tokens])


def _posteriors(
    data: JointTable, sched: NoiseSchedule
) -> Iterator[tuple[SequenceState, float, JointTable]]:
    """(x_t, q(x_t), q(X_{t-1} | x_t)) for every reachable x_t, t = 1..T, in
    order; each q(X_t) is built once, as the table and then as the next prior."""
    prior = forward_state_distribution(data, 0, sched)
    for t in range(1, sched.steps + 1):
        qt = forward_state_distribution(data, t, sched)
        for x_t, weight in _support(qt, t, data.alphabet):
            yield x_t, weight, posterior_from_prior(prior, x_t, sched)
        prior = qt


def elbo_bound(data: JointTable, sched: NoiseSchedule) -> float:
    """H(data) + sum_{t=1..T} E_{x_t}[TC(q(X_{t-1} | x_t))], exactly. The
    reachable x_t that share a chunk mask pattern differ only in their
    unmasked tokens, so one tensor pass per (t, pattern) takes the TC of
    all their posteriors (`_pattern_tc`). Each live x_t (q(x_t) > 0) fails
    as `posterior_from_prior` and `total_correlation` would fail on it, and
    the first failing state in (t, table) order names the error."""
    c = data.num_categories
    groups = chunk_groups(data.num_positions, sched.chunk_size)
    total = entropy(data)
    prior = forward_state_distribution(data, 0, sched).tensor()
    for t in range(1, sched.steps + 1):
        qt = forward_state_distribution(data, t, sched).tensor()
        faults = np.zeros(qt.shape, dtype=np.int8)
        for pattern in itertools.product((False, True), repeat=len(groups)):
            chunks = [group for group, m in zip(groups, pattern) if m]
            masked = tuple(m for group, m in zip(groups, pattern) for _ in group)
            here = tuple(slice(c, None) if m else slice(0, c) for m in masked)
            weight = qt[here]
            live = weight > 0.0
            if not live.any():
                continue
            src = tuple(slice(None) if m else slice(0, c) for m in masked)
            tc, fault = _pattern_tc(prior[src], chunks, sched.step_mask_prob(t - 1))
            faults[here] = fault * live
            total += float(np.sum(weight * tc))
        if faults.any():
            error, message = _BOUND_FAULTS[int(faults.flat[np.flatnonzero(faults)[0]])]
            raise error(message)
        prior = qt
    return total


_BOUND_FAULTS = {
    1: (SupportError, "x_t is unreachable under the forward process"),
    2: (SupportError, "a reverse posterior's marginal product vanishes on its support"),
    3: (InvalidDistributionError, "a reverse posterior's TC is below rounding slack"),
}


def _pattern_tc(
    p: np.ndarray, chunks: Sequence[tuple[int, ...]], step: float
) -> tuple[np.ndarray, np.ndarray]:
    """TC(q(X_{t-1} | x_t)) for every x_t of one mask pattern, with a fault
    code per state (0 none, else a key of `_BOUND_FAULTS`). p is q(X_{t-1})
    with all C+1 values on the masked chunks' axes and the states' tokens
    on the others; the results have 1 on the masked axes. Each masked chunk
    weighs its sources 1 (all MASK), step (all content) or 0 (mixed); each
    unmasked chunk weighs every state by 1 - step, which normalizing
    cancels. An unmasked position is a point mass and adds no TC."""
    for chunk in chunks:
        block = np.zeros((p.shape[chunk[0]],) * len(chunk))
        block[(-1,) * len(chunk)] = 1.0
        block[(slice(0, -1),) * len(chunk)] = step
        p = p * along_axis(block, chunk[-1], p.ndim)
    axes = tuple(i for chunk in chunks for i in chunk)
    z = p.sum(axis=axes, keepdims=True)
    post = np.divide(p, z, out=np.zeros_like(p), where=z > 0.0)
    product = np.ones(())
    for i in axes:
        product = product * post.sum(axis=tuple(j for j in axes if j != i), keepdims=True)
    support = post > 0.0
    covered = support & (product > 0.0)
    logs = np.log(np.where(covered, post, 1.0)) - np.log(np.where(covered, product, 1.0))
    tc = np.sum(np.where(covered, post * logs, 0.0), axis=axes, keepdims=True)
    fault = np.where(tc < -1e-9, 3, 0).astype(np.int8)
    fault[np.any(support & ~covered, axis=axes, keepdims=True)] = 2
    fault[z <= 0.0] = 1
    return np.maximum(tc, 0.0), fault


DenoiserRows = Callable[[SequenceState], MarginalSet]


def optimal_factorized_denoiser(data: JointTable, sched: NoiseSchedule) -> DenoiserRows:
    """The factorized denoiser whose rows are the true per-position reverse
    marginals; its negative ELBO attains the bound."""
    priors = [forward_state_distribution(data, t, sched) for t in range(sched.steps)]

    def rows(x_t: SequenceState) -> MarginalSet:
        if not 1 <= x_t.time <= sched.steps:
            raise ScheduleError(f"time {x_t.time} outside [1, {sched.steps}]")
        post = posterior_from_prior(priors[x_t.time - 1], x_t, sched)
        return univariate_marginals(post, includes_mask=True)

    return rows


def nelbo_factorized(
    data: JointTable, sched: NoiseSchedule, denoiser: DenoiserRows
) -> float:
    """Exact negative ELBO of a factorized denoiser: H(data) plus the
    expected KL from the true reverse posterior to the denoiser's product
    distribution, summed over steps."""
    total = entropy(data)
    for x_t, weight, post in _posteriors(data, sched):
        rows = denoiser(x_t)
        if not rows.includes_mask:
            raise InvalidDistributionError("denoiser rows must include the mask column")
        total += weight * kl(post, product_table(rows, post.alphabet))
    return total


# ---------------------------------------------------------------------------
# Induced distribution over final sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InducedResult:
    table: JointTable
    method: str  # "exact" | "monte_carlo"
    num_samples: int | None = None
    max_cell_stderr: float | None = None


def induced_distribution(
    dm: DiffusionMarginalModel | None,
    copula: ARCopulaModel | None,
    cfg: SamplerConfig,
    mc_samples: int | None = None,
    rng: np.random.Generator | None = None,
) -> InducedResult:
    """Exact marginal law of the final sequence under cfg.mode, by dynamic
    programming over the per-step laws, one tensor pass per (step, mask
    pattern): see `_dense_law`. Beyond the enumeration cap a Monte Carlo
    estimate is returned when mc_samples is given, else CapExceededError."""
    alphabet = check_models(dm, copula, cfg.mode)
    if cfg.mode != MODE_AR_ONLY:
        try:
            _check_exact_cap(alphabet, cfg.steps)
        except CapExceededError:
            if mc_samples is None:
                raise
            return _induced_monte_carlo(dm, copula, cfg, alphabet, mc_samples, rng)
    return _induced_exact(PatternRows(dm, copula, cfg.mode), cfg)


def _induced_exact(rows: PatternRows, cfg: SamplerConfig) -> InducedResult:
    """The exact induced law of a checked cfg, from `rows` (built for
    cfg.mode over the same models)."""
    if cfg.mode == MODE_AR_ONLY:
        return InducedResult(ar_chain_table(rows.copula), "exact")
    probs = _dense_law(rows, cfg)
    return InducedResult(JointTable(rows.dm.alphabet, probs.ravel()), "exact")


def _check_exact_cap(alphabet: Alphabet, steps: int) -> None:
    """Raise CapExceededError when an exact evaluation of `steps` steps over
    `alphabet` would pass EXACT_INDUCED_CAP ((C+1)^N * T)."""
    cells = (alphabet.num_categories + 1) ** alphabet.num_positions * steps
    if cells > EXACT_INDUCED_CAP:
        raise CapExceededError(
            f"(C+1)^N * T = {cells} exceeds the exact cap "
            f"{EXACT_INDUCED_CAP}; call induced_distribution(..., mc_samples=k) "
            "from Python for a Monte Carlo estimate"
        )


def _dense_law(rows: PatternRows, cfg: SamplerConfig) -> np.ndarray:
    """The final-sequence law as a (C,)*N tensor: `dense_step` from the
    all-MASK state at time T down to time 0."""
    n, c = rows.dm.alphabet.num_positions, rows.dm.alphabet.num_categories
    weights = np.zeros((c + 1,) * n, dtype=np.float64)
    weights[(c,) * n] = 1.0
    present = weights > 0.0
    for time in range(cfg.steps, 0, -1):
        weights, present = dense_step(rows, weights, present, time, cfg)
    return weights[(slice(0, c),) * n]


def _induced_monte_carlo(
    dm: DiffusionMarginalModel | None,
    copula: ARCopulaModel | None,
    cfg: SamplerConfig,
    alphabet: Alphabet,
    num_samples: int,
    rng: np.random.Generator | None,
) -> InducedResult:
    if num_samples < 1:
        raise InvalidDistributionError("mc_samples must be >= 1")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    counts = np.zeros(alphabet.num_states, dtype=np.float64)
    for _ in range(num_samples):
        x0, _ = sample(dm, copula, cfg, rng)
        counts[state_to_index(alphabet, x0.tokens)] += 1.0
    table = JointTable(alphabet, counts / num_samples)
    stderr = float(math.sqrt(0.25 / num_samples))
    return InducedResult(table, "monte_carlo", num_samples, stderr)


# ---------------------------------------------------------------------------
# Metrics and sweeps
# ---------------------------------------------------------------------------

def kl_to_data(data: JointTable, induced: JointTable) -> float:
    """KL(data || induced); +inf when the sampler misses data support."""
    try:
        return kl(data, induced)
    except SupportError:
        return math.inf


def expected_nll(data: JointTable, induced: JointTable) -> float:
    """E_{x ~ induced}[-log data(x)]; +inf if the sampler leaves the data
    support."""
    mask = induced.probs > 0.0
    if np.any(data.probs[mask] == 0.0):
        return math.inf
    return float(-np.sum(induced.probs[mask] * np.log(data.probs[mask])))


@dataclass(frozen=True)
class ExperimentResult:
    mode: str
    steps: int
    beta: float
    kl_to_data: float
    nll: float
    elbo_bound: float
    wall_ms: float | None = None


CSV_HEADER = "mode,T,beta,kl_to_data,nll,elbo_bound,wall_ms"


def run_sweep(
    data: JointTable,
    dm: DiffusionMarginalModel | None,
    copula: ARCopulaModel | None,
    modes: Sequence[str],
    steps_list: Sequence[int],
    beta_list: Sequence[float],
    family: str = "linear",
    epsilon: float = 1e-3,
    chunk_size: int = 1,
    out_dir: str | Path | None = None,
    emit_timings: bool = False,
) -> list[ExperimentResult]:
    """Evaluate every (mode, T, beta) cell exactly. Writes results.csv and
    two-column per-mode plot files when out_dir is given. Output bytes are
    stable across runs unless emit_timings is set. Every cell is checked
    (mode, schedule, beta, models, exact cap) before any is computed."""
    for mode in modes:
        required_models(mode)  # rejects an unknown mode
    betas = sorted(set(float(b) for b in beta_list))
    cells: list[SamplerConfig] = []
    for mode in sorted(set(modes)):
        for steps in sorted(set(int(t) for t in steps_list)):
            sched = make_schedule(family, steps, epsilon, chunk_size)
            cells.extend(
                SamplerConfig(steps=steps, schedule=sched, mode=mode, beta=beta,
                              chunk_size=chunk_size)
                for beta in betas
            )
            alphabet = check_models(dm, copula, mode)
            if mode != MODE_AR_ONLY:
                _check_exact_cap(alphabet, steps)
    bound_cache: dict[int, float] = {}
    rows = {mode: PatternRows(dm, copula, mode) for mode in modes}
    results: list[ExperimentResult] = []
    for cfg in cells:
        if cfg.steps not in bound_cache:
            bound_cache[cfg.steps] = elbo_bound(data, cfg.schedule)
        start = time.perf_counter()
        induced = _induced_exact(rows[cfg.mode], cfg)
        wall = (time.perf_counter() - start) * 1000.0
        results.append(
            ExperimentResult(
                mode=cfg.mode,
                steps=cfg.steps,
                beta=cfg.beta,
                kl_to_data=kl_to_data(data, induced.table),
                nll=expected_nll(data, induced.table),
                elbo_bound=bound_cache[cfg.steps],
                wall_ms=wall if emit_timings else None,
            )
        )
    if out_dir is not None:
        write_sweep_outputs(results, out_dir)
    return results


def results_to_csv(results: Sequence[ExperimentResult]) -> str:
    lines = [CSV_HEADER]
    for r in sorted(results, key=lambda r: (r.mode, r.steps, r.beta)):
        wall = "" if r.wall_ms is None else format_float_short(r.wall_ms)
        numbers = map(format_float_short, (r.beta, r.kl_to_data, r.nll, r.elbo_bound))
        lines.append(",".join([r.mode, str(r.steps), *numbers, wall]))
    return "\n".join(lines) + "\n"


def write_sweep_outputs(results: Sequence[ExperimentResult], out_dir: str | Path) -> None:
    """results.csv and the plot files, written once all can be written."""
    files = {"results.csv": results_to_csv(results)}
    by_series: dict[tuple[str, str, float], list[ExperimentResult]] = defaultdict(list)
    for r in results:
        by_series[("kl", r.mode, r.beta)].append(r)
        by_series[("nll", r.mode, r.beta)].append(r)
    for (metric, mode, beta), rows in sorted(by_series.items()):
        lines = []
        for r in sorted(rows, key=lambda r: r.steps):
            value = r.kl_to_data if metric == "kl" else r.nll
            lines.append(f"{r.steps}\t{format_float_short(value)}")
        files[f"plot_{metric}_{mode}_beta{format_float_short(beta)}.tsv"] = "\n".join(lines) + "\n"
    out = Path(out_dir)
    make_output_dirs([out / name for name in files])
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
