"""Reverse-time samplers over the absorbing-mask process.

Every run starts from the all-mask prior at time T and walks t = T-1 .. 0.
Each mode defines its reverse step at x_{t+1} once, as a `StepLaw` with
three parts: the positions the content layer fills (unmasked positions of
x_{t+1} are clamped), the row each masked position is drawn from, and how
the step ends: in the re-mask kernel built from x_{t+1}, or with MASK at
every position past the fill.

  dcd            fills all N positions from copula(x_i | prefix) *
                 exp(beta * V[i, x_i]), where V[i,c] = log full_i(c) -
                 log causal_i(c) comes from querying the marginal model twice
                 (full and causal context); ends in the exact reverse
                 re-mask kernel.
  diffusion_only fills all N positions from the full-context marginals,
                 independently (dependencies are ignored); ends in the
                 re-mask kernel.
  ar_only        a single step from the prior straight to time 0: every
                 position from the plain copula conditionals.
  dcd_ar_unmask  fills dcd's fused rows only up to a deterministic
                 left-to-right unmask boundary per step and leaves the rest
                 MASK, so each position's copula conditional is computed
                 exactly once across the whole run (N queries total,
                 independent of T).

One left-to-right walker consumes a law, and `_outcomes` ends each content
layer's step. `sample` draws one category per masked position and one
re-mask decision per masked chunk; `enumerate_aux_distribution` and
`enumerate_step_distribution` keep every option with positive mass and so
give the per-step law exactly. The dynamic-programming evaluation in the
harness builds on them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from math import ceil
from typing import Callable, Iterable, Iterator

import numpy as np

from .dist import Alphabet, MarginalSet, format_float
from .errors import (
    AlphabetMismatchError,
    ClampError,
    InvalidDistributionError,
    ScheduleError,
    SupportError,
)
from .iproj import FactorMatrix, dcd_factors
from .models import (
    ARCopulaModel,
    DiffusionMarginalModel,
    ar_conditional,
    dm_marginals_causal,
    dm_marginals_full,
)
from .noising import (
    NoiseSchedule,
    RemaskDistribution,
    SequenceState,
    positive_options,
    remask_kernel,
)

MODE_DCD = "dcd"
MODE_DIFFUSION_ONLY = "diffusion_only"
MODE_AR_ONLY = "ar_only"
MODE_DCD_AR_UNMASK = "dcd_ar_unmask"
MODES = (MODE_DCD, MODE_DIFFUSION_ONLY, MODE_AR_ONLY, MODE_DCD_AR_UNMASK)

# mode -> (needs a diffusion-marginal model, needs a copula model)
_MODE_MODELS = {
    MODE_DCD: (True, True),
    MODE_DIFFUSION_ONLY: (True, False),
    MODE_AR_ONLY: (False, True),
    MODE_DCD_AR_UNMASK: (True, True),
}


def required_models(mode: str) -> tuple[bool, bool]:
    """(needs a diffusion-marginal model, needs a copula model) for `mode`."""
    if mode not in _MODE_MODELS:
        raise InvalidDistributionError(f"unknown mode {mode!r}")
    return _MODE_MODELS[mode]


def check_models(
    dm: DiffusionMarginalModel | None, copula: ARCopulaModel | None, mode: str
) -> Alphabet:
    """The alphabet `mode` runs over. Raises InvalidDistributionError when a
    model the mode needs is missing, AlphabetMismatchError when the two
    models given disagree."""
    needs_dm, needs_copula = required_models(mode)
    if needs_dm and dm is None:
        raise InvalidDistributionError(f"mode {mode!r} requires a diffusion-marginal model")
    if needs_copula and copula is None:
        raise InvalidDistributionError(f"mode {mode!r} requires a copula model")
    if dm is not None and copula is not None and dm.alphabet != copula.alphabet:
        raise AlphabetMismatchError("models must share one alphabet")
    return dm.alphabet if dm is not None else copula.alphabet  # type: ignore[union-attr]


@dataclass(frozen=True)
class SamplerConfig:
    steps: int
    schedule: NoiseSchedule
    mode: str
    beta: float = 1.0
    chunk_size: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise InvalidDistributionError(f"unknown mode {self.mode!r}")
        if self.steps != self.schedule.steps:
            raise InvalidDistributionError("steps must equal schedule.steps")
        if self.chunk_size != self.schedule.chunk_size:
            raise InvalidDistributionError("chunk_size must match the schedule")
        if not (self.beta >= 0.0 and np.isfinite(self.beta)):
            raise InvalidDistributionError(f"beta must be finite and >= 0, got {self.beta!r}")


@dataclass(frozen=True)
class StepRecord:
    x_next: SequenceState
    x_t: SequenceState
    x_tilde: tuple[int, ...] | None = None  # content layer, when the step re-masks
    factors: FactorMatrix | None = None
    full: MarginalSet | None = None
    causal: MarginalSet | None = None
    copula_queries: int = 0

    @property
    def t(self) -> int:
        return self.x_t.time


@dataclass
class SampleTrace:
    mode: str
    seed: int
    beta: float
    steps: list[StepRecord] = field(default_factory=list)

    @property
    def states(self) -> list[SequenceState]:
        """x_T, then the state after each step."""
        return [rec.x_next for rec in self.steps[:1]] + [rec.x_t for rec in self.steps]

    @property
    def copula_queries_total(self) -> int:
        return sum(rec.copula_queries for rec in self.steps)

    def dumps(self) -> str:
        lines = [f"mode={self.mode} seed={self.seed} beta={format_float(self.beta)}"]
        lines.append(_fmt_state("state", self.states[0]))
        for rec in self.steps:
            lines.append(f"step t={rec.t}")
            lines.append("  " + _fmt_state("x_next", rec.x_next))
            if rec.full is not None:
                lines.extend(_fmt_rows("  full", rec.full.rows))
            if rec.causal is not None:
                lines.extend(_fmt_rows("  causal", rec.causal.rows))
            if rec.factors is not None:
                lines.extend(_fmt_rows("  V", rec.factors.values))
            if rec.x_tilde is not None:
                lines.append("  x_tilde: " + " ".join(str(t) for t in rec.x_tilde))
            lines.append("  " + _fmt_state("x_t", rec.x_t))
            lines.append(f"  copula_queries: {rec.copula_queries}")
            lines.append(_fmt_state("state", rec.x_t))
        lines.append(f"total_copula_queries: {self.copula_queries_total}")
        return "\n".join(lines) + "\n"


def _fmt_state(label: str, state: SequenceState) -> str:
    return f"{label} t={state.time}: " + " ".join(str(t) for t in state.tokens)


def _fmt_rows(label: str, rows: np.ndarray) -> list[str]:
    out = [f"{label}:"]
    for i, row in enumerate(rows):
        out.append(f"    {i}: " + " ".join(format_float(v) for v in row))
    return out


# ---------------------------------------------------------------------------
# Step laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepLaw:
    """One reverse step from x_{t+1} to time t (ar_only steps from T straight
    to 0). The content layer fills positions [0, fill): positions unmasked in
    x_{t+1} are clamped, masked ones are drawn from `row`. With `remask` set
    the step ends in that re-mask kernel; without it, positions >= fill stay
    MASK."""

    x_next: SequenceState
    t: int
    fill: int
    remask: RemaskDistribution | None
    copula: ARCopulaModel | None = None  # rows are copula conditionals ...
    factors: FactorMatrix | None = None  # ... reweighted by exp(beta * V)
    full: MarginalSet | None = None  # rows when there is no copula
    causal: MarginalSet | None = None

    def row(self, i: int, prefix: tuple[int, ...]) -> np.ndarray:
        if self.copula is None:
            return self.full.rows[i]
        row = ar_conditional(self.copula, prefix, i)
        if self.factors is None:
            return row
        expo = self.factors.beta * self.factors.values[i]
        if np.abs(expo).max() > 700.0:  # exp overflows past 709
            on_support = np.where(row > 0.0, expo, -np.inf)
            expo = on_support - on_support.max()  # off-support entries weigh 0
        weights = row * np.exp(expo)
        total = float(weights.sum())
        if total <= 0.0:
            raise SupportError(f"fused row at position {i} has no mass")
        return weights / total

    @property
    def copula_queries(self) -> int:
        """Copula conditionals a single drawn content layer asks for."""
        if self.copula is None:
            return 0
        return sum(self.x_next.is_masked(i) for i in range(self.fill))


def _check_time(x_next: SequenceState, cfg: SamplerConfig) -> None:
    if not 1 <= x_next.time <= cfg.steps:
        raise ScheduleError(f"x_next carries time {x_next.time}, outside [1, {cfg.steps}]")


def _fused_law(
    dm: DiffusionMarginalModel | None,
    copula: ARCopulaModel | None,
    x_next: SequenceState,
    cfg: SamplerConfig,
    fill: int,
    remask: bool,
) -> StepLaw:
    full = dm_marginals_full(dm, x_next)
    causal = dm_marginals_causal(dm, x_next)
    factors = dcd_factors(full, causal, cfg.beta)
    kernel = remask_kernel(x_next, cfg.schedule) if remask else None
    return StepLaw(x_next, x_next.time - 1, fill, kernel, copula, factors, full, causal)


def dcd_step(
    dm: DiffusionMarginalModel | None,
    copula: ARCopulaModel | None,
    x_next: SequenceState,
    cfg: SamplerConfig,
) -> StepLaw:
    _check_time(x_next, cfg)
    return _fused_law(dm, copula, x_next, cfg, x_next.alphabet.num_positions, True)


def diffusion_only_step(
    dm: DiffusionMarginalModel | None,
    copula: ARCopulaModel | None,
    x_next: SequenceState,
    cfg: SamplerConfig,
) -> StepLaw:
    _check_time(x_next, cfg)
    full = dm_marginals_full(dm, x_next)
    kernel = remask_kernel(x_next, cfg.schedule)
    return StepLaw(x_next, x_next.time - 1, x_next.alphabet.num_positions, kernel, full=full)


def dcd_ar_unmask_step(
    dm: DiffusionMarginalModel | None,
    copula: ARCopulaModel | None,
    x_next: SequenceState,
    cfg: SamplerConfig,
) -> StepLaw:
    _check_time(x_next, cfg)
    bounds = (0,) + ar_unmask_schedule(x_next.alphabet.num_positions, cfg.steps)
    done = cfg.steps - x_next.time  # steps already taken
    prev_u, new_u = bounds[done], bounds[done + 1]
    if x_next.unmasked_positions != tuple(range(prev_u)):
        raise ClampError(
            "dcd_ar_unmask expects an unmasked prefix of length "
            f"{prev_u}, got positions {x_next.unmasked_positions}"
        )
    return _fused_law(dm, copula, x_next, cfg, new_u, False)


def ar_unmask_schedule(num_positions: int, steps: int) -> tuple[int, ...]:
    """Per-step unmask boundaries: after k of T steps the first
    ceil(N * k / T) positions are revealed; non-decreasing and ending at N."""
    if num_positions < 1 or steps < 1:
        raise InvalidDistributionError("need num_positions >= 1 and steps >= 1")
    return tuple(ceil(num_positions * k / steps) for k in range(1, steps + 1))


def _step_law(
    dm: DiffusionMarginalModel | None,
    copula: ARCopulaModel | None,
    x_next: SequenceState,
    cfg: SamplerConfig,
) -> StepLaw:
    if cfg.mode == MODE_DCD:
        return dcd_step(dm, copula, x_next, cfg)
    if cfg.mode == MODE_DIFFUSION_ONLY:
        return diffusion_only_step(dm, copula, x_next, cfg)
    if cfg.mode == MODE_DCD_AR_UNMASK:
        return dcd_ar_unmask_step(dm, copula, x_next, cfg)
    # ar_only: every position from the plain copula conditionals, straight to time 0
    _check_time(x_next, cfg)
    return StepLaw(x_next, 0, x_next.alphabet.num_positions, None, copula)


Pick = Callable[[np.ndarray], Iterable[int]]


def _walk(law: StepLaw, pick: Pick) -> list[tuple[tuple[int, ...], float]]:
    """Content layers of `law` with their weights, filled left to right and
    breadth-first: each path extends by the categories `pick` chooses from
    its row. Paths come out in lexicographic order."""
    x_next = law.x_next
    paths: list[tuple[tuple[int, ...], float]] = [((), 1.0)]
    for i in range(law.fill):
        if not x_next.is_masked(i):
            paths = [(prefix + (x_next.tokens[i],), weight) for prefix, weight in paths]
            continue
        grown = []
        for prefix, weight in paths:
            row = law.row(i, prefix)
            grown.extend((prefix + (cat,), weight * float(row[cat])) for cat in pick(row))
        paths = grown
    return paths


def _outcomes(
    law: StepLaw, pick: Pick, remask_pick: Pick
) -> Iterator[tuple[tuple[int, ...], SequenceState, float]]:
    """(content layer, x_t, weight) of the step: each content layer from
    `_walk`, then the re-mask outcomes `remask_pick` chooses or, without a
    kernel, MASK at every position >= fill."""
    alphabet = law.x_next.alphabet
    pad = (alphabet.mask_index,) * (alphabet.num_positions - law.fill)
    for tokens, weight in _walk(law, pick):
        if law.remask is None:
            yield tokens, SequenceState(tokens + pad, law.t, alphabet), weight
            continue
        for x_t, p in law.remask.outcomes(tokens, remask_pick):
            yield tokens, x_t, weight * p


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

def sample(
    dm: DiffusionMarginalModel | None,
    copula: ARCopulaModel | None,
    cfg: SamplerConfig,
    rng: np.random.Generator | None = None,
) -> tuple[SequenceState, SampleTrace]:
    """Run one full reverse pass; returns the mask-free final state and the
    trace. With rng=None a fresh generator is seeded from cfg.seed, making
    runs bit-reproducible."""
    alphabet = check_models(dm, copula, cfg.mode)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    def draw(row: np.ndarray) -> tuple[int]:
        return (int(rng.choice(len(row), p=row / row.sum())),)

    def remask_or_keep(row: tuple[float, float]) -> tuple[int]:
        return (0 if rng.random() < row[0] else 1,)

    trace = SampleTrace(cfg.mode, cfg.seed, cfg.beta)
    x = SequenceState.all_masked(alphabet, cfg.steps)
    while x.time > 0:
        law = _step_law(dm, copula, x, cfg)
        [(tokens, x_t, _)] = _outcomes(law, draw, remask_or_keep)
        x_tilde = None if law.remask is None else tokens
        trace.steps.append(
            StepRecord(x, x_t, x_tilde, law.factors, law.full, law.causal, law.copula_queries)
        )
        x = x_t
    return x, trace


# ---------------------------------------------------------------------------
# Exact per-step law (enumeration)
# ---------------------------------------------------------------------------

def enumerate_aux_distribution(
    dm: DiffusionMarginalModel | None,
    copula: ARCopulaModel | None,
    x_next: SequenceState,
    cfg: SamplerConfig,
) -> dict[tuple[int, ...], float]:
    """Exact law of the content layer x~_t produced by one dcd or
    diffusion_only step at x_{t+1}."""
    if cfg.mode not in (MODE_DCD, MODE_DIFFUSION_ONLY):
        raise InvalidDistributionError(f"no aux layer to enumerate for mode {cfg.mode!r}")
    check_models(dm, copula, cfg.mode)
    return dict(_walk(_step_law(dm, copula, x_next, cfg), positive_options))


def enumerate_step_distribution(
    dm: DiffusionMarginalModel | None,
    copula: ARCopulaModel | None,
    x_next: SequenceState,
    cfg: SamplerConfig,
) -> dict[SequenceState, float]:
    """Exact law of x_t produced by one step of cfg.mode at x_{t+1}. ar_only
    has no such law: its single step runs from the prior straight to time 0."""
    if cfg.mode == MODE_AR_ONLY:
        raise InvalidDistributionError(f"no per-step law for mode {cfg.mode!r}")
    check_models(dm, copula, cfg.mode)
    law = _step_law(dm, copula, x_next, cfg)
    out: dict[SequenceState, float] = defaultdict(float)
    for _, x_t, weight in _outcomes(law, positive_options, positive_options):
        out[x_t] += weight
    return dict(out)
