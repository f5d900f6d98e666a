"""Synthetic data and exact end-to-end evaluation.

Generators produce small joint tables with a controllable amount of
dependence. Evaluation never estimates anything it can enumerate: the
distribution a sampler induces over final sequences is computed by dynamic
programming over the exact per-step laws, and quality is measured as
KL(data || induced) plus the expected negative log-likelihood of generated
sequences under the true data table. The step-count lower bound
H(data) + sum_t E[TC(reverse posterior)] is evaluated exactly from the
Bayes-rule posterior (one forward prior per step), as is the negative ELBO
of any factorized denoiser, so the bound's equality case is checkable to
rounding error.

Sweeps draw no samples: given their config they are deterministic and the
CSV is byte-stable (wall-clock timings are opt-in and empty by default).
"""

from __future__ import annotations

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
    product_table,
    state_to_index,
    total_correlation,
    total_variation,
    univariate_marginals,
)
from .errors import CapExceededError, InvalidDistributionError, ScheduleError, SupportError
from .iproj import apply_factors, iproject_exact
from .models import ARCopulaModel, DiffusionMarginalModel, ar_chain_table, dm_marginals_full
from .noising import (
    NoiseSchedule,
    SequenceState,
    forward_state_distribution,
    make_schedule,
    posterior_from_prior,
)
from .sampler import (
    MODE_AR_ONLY,
    MODES,
    SamplerConfig,
    check_models,
    enumerate_aux_distribution,
    enumerate_step_distribution,
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
    """H(data) + sum_{t=1..T} E_{x_t}[TC(q(X_{t-1} | x_t))], exactly."""
    total = entropy(data)
    for _, weight, post in _posteriors(data, sched):
        total += weight * total_correlation(post)
    return total


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
    programming over the per-step laws. Beyond the enumeration cap a Monte
    Carlo estimate is returned when mc_samples is given, else CapExceededError."""
    alphabet = check_models(dm, copula, cfg.mode)
    if cfg.mode == MODE_AR_ONLY:
        return InducedResult(ar_chain_table(copula), "exact")
    state_count = (alphabet.num_categories + 1) ** alphabet.num_positions
    if state_count * cfg.steps > EXACT_INDUCED_CAP:
        if mc_samples is None:
            raise CapExceededError(
                f"(C+1)^N * T = {state_count * cfg.steps} exceeds the exact cap "
                f"{EXACT_INDUCED_CAP}; call induced_distribution(..., mc_samples=k) "
                "from Python for a Monte Carlo estimate"
            )
        return _induced_monte_carlo(dm, copula, cfg, alphabet, mc_samples, rng)
    current: dict[SequenceState, float] = {
        SequenceState.all_masked(alphabet, cfg.steps): 1.0
    }
    for _ in range(cfg.steps):
        nxt: dict[SequenceState, float] = defaultdict(float)
        for state, weight in current.items():
            step = enumerate_step_distribution(dm, copula, state, cfg)
            for nxt_state, p in step.items():
                nxt[nxt_state] += weight * p
        current = dict(nxt)
    probs = np.zeros(alphabet.num_states, dtype=np.float64)
    for state, weight in current.items():
        probs[state_to_index(alphabet, state.tokens)] += weight
    return InducedResult(JointTable(alphabet, probs), "exact")


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
# Rank-wise approximation gap
# ---------------------------------------------------------------------------

def rankwise_projection_gap(
    dm: DiffusionMarginalModel,
    copula: ARCopulaModel,
    x_next: SequenceState,
    *,
    beta: float = 1.0,
) -> float:
    """Total variation between the fused per-step law the sampler actually
    draws from and the exact projection of the clamped copula-chain
    distribution onto the marginal model's rows, both restricted to the
    masked positions. Measures what the row-independent update (plus its
    causal-context substitution) gives away; no bound is asserted anywhere,
    this is a diagnostic."""
    masked = x_next.masked_positions
    if not masked:
        return 0.0
    sched = make_schedule("linear", x_next.time)

    def reduced_law(beta_value: float) -> np.ndarray:
        cfg = SamplerConfig(
            steps=x_next.time, schedule=sched, mode="dcd", beta=beta_value
        )
        aux = enumerate_aux_distribution(dm, copula, x_next, cfg)
        out = np.zeros(reduced.num_states)
        for tokens, weight in aux.items():
            key = tuple(tokens[i] for i in masked)
            out[state_to_index(reduced, key)] += weight
        return out

    reduced = Alphabet(len(masked), dm.alphabet.num_categories)
    fused = JointTable(reduced, reduced_law(beta))
    chain = JointTable(reduced, reduced_law(0.0)).floored()
    target_rows = dm_marginals_full(dm, x_next).rows[list(masked)]
    v, _ = iproject_exact(chain, MarginalSet(target_rows))
    exact, _ = apply_factors(chain, v)
    return total_variation(fused, exact)


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
    stable across runs unless emit_timings is set."""
    for mode in modes:
        if mode not in MODES:
            raise InvalidDistributionError(f"unknown mode {mode!r}")
    bound_cache: dict[int, float] = {}
    results: list[ExperimentResult] = []
    for mode in sorted(set(modes)):
        for steps in sorted(set(int(t) for t in steps_list)):
            sched = make_schedule(family, steps, epsilon, chunk_size)
            if steps not in bound_cache:
                bound_cache[steps] = elbo_bound(data, sched)
            for beta in sorted(set(float(b) for b in beta_list)):
                cfg = SamplerConfig(
                    steps=steps,
                    schedule=sched,
                    mode=mode,
                    beta=beta,
                    chunk_size=chunk_size,
                )
                start = time.perf_counter()
                induced = induced_distribution(dm, copula, cfg)
                wall = (time.perf_counter() - start) * 1000.0
                results.append(
                    ExperimentResult(
                        mode=mode,
                        steps=steps,
                        beta=beta,
                        kl_to_data=kl_to_data(data, induced.table),
                        nll=expected_nll(data, induced.table),
                        elbo_bound=bound_cache[steps],
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text(results_to_csv(results), encoding="utf-8")
    by_series: dict[tuple[str, str, float], list[ExperimentResult]] = defaultdict(list)
    for r in results:
        by_series[("kl", r.mode, r.beta)].append(r)
        by_series[("nll", r.mode, r.beta)].append(r)
    for (metric, mode, beta), rows in sorted(by_series.items()):
        lines = []
        for r in sorted(rows, key=lambda r: r.steps):
            value = r.kl_to_data if metric == "kl" else r.nll
            lines.append(f"{r.steps}\t{format_float_short(value)}")
        name = f"plot_{metric}_{mode}_beta{format_float_short(beta)}.tsv"
        (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
