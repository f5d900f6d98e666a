"""Synthetic data and exact end-to-end evaluation.

Generators produce small joint tables with a controllable amount of
dependence. Evaluation never estimates anything it can enumerate: the
distribution a sampler induces over final sequences is a (C+1,)*N weight
tensor moved from the all-mask state at time T to time 0 by the sampler's
`dense_step`, which holds each mode's step law for whole mask patterns,
and quality is measured as KL(data || induced) plus the expected negative
log-likelihood of generated sequences under the true data table. The
step-count lower bound H(data) + sum_t E[TC(reverse posterior)] is
evaluated exactly in closed form from the data's 2^N subset entropies: it
builds no forward marginal and no posterior, and a step costs the same at
any C. The negative ELBO of a factorized denoiser, which may give each
state any rows, is evaluated state by state from `posterior_from_prior`
(one forward prior per step), so the bound's equality case is checked to
rounding error by two independent paths. A sweep builds the pattern rows
once per model pair and shares them across every (mode, T, beta) cell.

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
    entropy,
    format_float_short,
    kl,
    kl_to_product,
    make_output_dirs,
    state_to_index,
    univariate_marginals,
)
from .errors import (
    AlphabetMismatchError,
    CapExceededError,
    InvalidDistributionError,
    ScheduleError,
    SupportError,
)
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
)

DATA_KINDS = ("random_dirichlet", "correlated_phrases", "markov_chain")
EXACT_INDUCED_CAP = 1280  # (C+1)**N * T; admits the N=4, C=3, T=5 corner


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
    """H(data) + sum_{t=1..T} E_{x_t}[TC(q(X_{t-1} | x_t))], exactly, from
    the data's subset entropies H_A (`_subset_entropies`). Given x_t, with
    U its unmasked chunks, the reverse posterior is two independent parts:
    each masked chunk was unmasked at t-1 with probability
    r_t = (a_t - a_{t-1}) / a_t, and the tokens of the revealed set S follow
    data(X_S | x_U). Averaged over x_t its TC is

        E[sum_{i in S} (H_{U+i} - H_U) - (H_{U+S} - H_U)] + h(r_t) a_t (N - K),

    where each of the K chunks is independently in U (probability 1 - a_t),
    in S (a_t - a_{t-1}) or masked at both times (a_{t-1}), and h is the
    binary entropy: the positions of a chunk share one reveal. The first
    term is summed once over the 3^K labellings, grouped by (|U|, |S|), so
    a step costs O(K^2). A step's term below -1e-9 raises
    InvalidDistributionError, as `kl` does; slack above it is clamped at 0."""
    n, h = data.num_positions, _subset_entropies(data)
    bits = [sum(1 << i for i in chunk) for chunk in chunk_groups(n, sched.chunk_size)]
    k = len(bits)
    gains = np.zeros((k + 1, k + 1))
    for labels in itertools.product(range(3), repeat=k):  # 0: in U, 1: in S, 2: masked at both
        u = sum(b for b, label in zip(bits, labels) if label == 0)
        s = sum(b for b, label in zip(bits, labels) if label == 1)
        revealed = sum(h[u | 1 << i] - h[u] for i in range(n) if s >> i & 1)
        gains[labels.count(0), labels.count(1)] += revealed - (h[u | s] - h[u])
    in_u, in_s = np.indices(gains.shape)
    in_neither = np.maximum(k - in_u - in_s, 0)  # cells with |U| + |S| > K hold no gain
    excess = 0.0
    for t in range(1, sched.steps + 1):
        a_prev, a_t = sched.alpha(t - 1), sched.alpha(t)
        weights = (1.0 - a_t) ** in_u * (a_t - a_prev) ** in_s * a_prev ** in_neither
        shared = _binary_entropy((a_t - a_prev) / a_t) * a_t * (n - k)
        term = float(np.sum(gains * weights)) + shared
        if term < -1e-9:
            raise InvalidDistributionError(f"a step's expected TC is {term}, below rounding slack")
        excess += max(term, 0.0)
    return h[-1] + excess


def _subset_entropies(data: JointTable) -> list[float]:
    """H(X_A) of the data's marginal on every position set A, indexed by the
    bit mask of A (bit i is position i); the empty set's is 0."""
    tensor, n = data.tensor(), data.num_positions
    out = [0.0]
    for a in range(1, 1 << n):
        p = np.ravel(tensor.sum(axis=tuple(i for i in range(n) if not a >> i & 1)))
        p = p[p > 0.0]
        out.append(float(-np.sum(p * np.log(p))))
    return out


def _binary_entropy(r: float) -> float:
    return -sum(p * math.log(p) for p in (r, 1.0 - r) if p > 0.0)


DenoiserRows = Callable[[SequenceState], MarginalSet]


def optimal_factorized_denoiser(data: JointTable, sched: NoiseSchedule) -> DenoiserRows:
    """The factorized denoiser whose rows are the true per-position reverse
    marginals; its negative ELBO attains the bound."""
    priors = [forward_state_distribution(data, t, sched) for t in range(sched.steps)]

    def rows(x_t: SequenceState) -> MarginalSet:
        if not 1 <= x_t.time <= sched.steps:
            raise ScheduleError(f"time {x_t.time} outside [1, {sched.steps}]")
        post = posterior_from_prior(priors[x_t.time - 1], x_t, sched)
        return univariate_marginals(post)

    return rows


def nelbo_factorized(
    data: JointTable, sched: NoiseSchedule, denoiser: DenoiserRows
) -> float:
    """Exact negative ELBO of a factorized denoiser, whose rows are (N, C+1)
    over the state alphabet: H(data) plus the expected KL from the true reverse
    posterior to the denoiser's product distribution, summed over steps."""
    total = entropy(data)
    for x_t, weight, post in _posteriors(data, sched):
        total += weight * kl_to_product(post, denoiser(x_t))
    return total


# ---------------------------------------------------------------------------
# Induced distribution over final sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InducedResult:
    table: JointTable
    method: str  # the library returns only "exact"
    num_samples: int | None = None
    max_cell_stderr: float | None = None


def induced_distribution(
    dm: DiffusionMarginalModel | None, copula: ARCopulaModel | None, cfg: SamplerConfig
) -> InducedResult:
    """Exact marginal law of the final sequence under cfg.mode, by dynamic
    programming over the per-step laws, one tensor pass per (step, mask
    pattern): see `_dense_law`. Raises CapExceededError when a dense mode's
    (C+1)^N * T passes EXACT_INDUCED_CAP."""
    _check_exact_cap(check_models(dm, copula, cfg.mode), cfg.mode, cfg.steps)
    return _induced_exact(PatternRows(dm, copula), cfg)


def _induced_exact(rows: PatternRows, cfg: SamplerConfig) -> InducedResult:
    """The exact induced law of a checked cfg, from its models' `rows`."""
    if cfg.mode == MODE_AR_ONLY:
        return InducedResult(ar_chain_table(rows.copula), "exact")
    probs = _dense_law(rows, cfg)
    return InducedResult(JointTable(rows.dm.alphabet, probs.ravel()), "exact")


def _check_exact_cap(alphabet: Alphabet, mode: str, steps: int) -> None:
    """Raise CapExceededError when an exact evaluation of `steps` steps of a
    dense mode over `alphabet` would pass EXACT_INDUCED_CAP ((C+1)^N * T);
    ar_only, whose law is the copula's chain table, is exempt."""
    cells = (alphabet.num_categories + 1) ** alphabet.num_positions * steps
    if mode != MODE_AR_ONLY and cells > EXACT_INDUCED_CAP:
        raise CapExceededError(f"(C+1)^N * T = {cells} exceeds the exact cap {EXACT_INDUCED_CAP}")


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


def check_data_models(
    data: JointTable, dm: DiffusionMarginalModel | None, copula: ARCopulaModel | None, mode: str
) -> Alphabet:
    """`check_models` for `mode`, whose alphabet must be the data table's."""
    alphabet = check_models(dm, copula, mode)
    if alphabet != data.alphabet:
        raise AlphabetMismatchError("the models' alphabet differs from the data table's")
    return alphabet


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
            _check_exact_cap(check_data_models(data, dm, copula, mode), mode, steps)
    bound_cache: dict[int, float] = {}
    rows = PatternRows(dm, copula)
    results: list[ExperimentResult] = []
    for cfg in cells:
        if cfg.steps not in bound_cache:
            bound_cache[cfg.steps] = elbo_bound(data, cfg.schedule)
        start = time.perf_counter()
        induced = _induced_exact(rows, cfg)
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
