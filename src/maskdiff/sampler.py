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

Each law has two forms here. `sample` walks it along one path: left to
right, one category per masked position, then one re-mask decision per
masked chunk. `dense_step` moves every state of a (C+1,)*N weight tensor
one step on at once: states that share a mask pattern differ only in their
clamped tokens, so one pass multiplies their rows (tensors from
`PatternRows`) and re-masks them all. Every exact law comes from it: the
harness runs it from the all-mask state to time 0, the enumerators run it
once from x_{t+1} alone (`enumerate_aux_distribution` stops before the
re-mask), and the tests check it against a per-state walk of `StepLaw`s.

The RNG stream of `sample` is fixed. In each step, every masked position
below the fill, left to right, consumes exactly one `rng.random()`, which
`draw_category` maps to a category by the inverse CDF that
`Generator.choice` runs: the index and the generator state of
`rng.choice(C, p=row)`. Then, if the step ends in a re-mask kernel, every
masked chunk of x_{t+1}, left to right, consumes one `rng.random()` and
re-masks when it falls below alpha_t / alpha_{t+1}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import ceil
from typing import Iterator

import numpy as np

from .dist import Alphabet, MarginalSet, format_float
from .errors import (
    AlphabetMismatchError,
    ClampError,
    InvalidDistributionError,
    ScheduleError,
    SupportError,
)
from .iproj import FactorMatrix, dcd_factors, rankwise_update
from .models import (
    ARCopulaModel,
    DiffusionMarginalModel,
    ar_conditional,
    dm_marginals_causal,
    dm_marginals_full,
    pattern_rows,
)
from .noising import NoiseSchedule, RemaskDistribution, SequenceState, remask_kernel

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
        required_models(self.mode)  # rejects an unknown mode
        if self.steps != self.schedule.steps:
            raise InvalidDistributionError("steps must equal schedule.steps")
        if self.chunk_size != self.schedule.chunk_size:
            raise InvalidDistributionError("chunk_size must match the schedule")
        if not (self.beta >= 0.0 and np.isfinite(self.beta)):
            raise InvalidDistributionError(f"beta must be finite and >= 0, got {self.beta!r}")
        if self.seed < 0:
            raise InvalidDistributionError(f"seed must be >= 0, got {self.seed!r}")


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
        lines.extend(_fmt_state("state", state) for state in self.states[:1])
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
    beta: float = 1.0
    full: MarginalSet | None = None  # rows when there is no copula
    causal: MarginalSet | None = None

    def row(self, i: int, prefix: tuple[int, ...]) -> np.ndarray:
        if self.copula is None:
            return self.full.rows[i]
        row = ar_conditional(self.copula, prefix, i)
        if self.factors is None:
            return row
        scale = self._scales[i]
        if scale is None:
            weights = fused_weights(row, self.factors.values[i], self.beta)
        else:
            weights = row * scale
        total = float(weights.sum())
        if total <= 0.0:
            raise SupportError(f"fused row at position {i} has no mass")
        return weights / total

    @cached_property
    def _scales(self) -> list[np.ndarray | None]:
        """exp(beta * V_i) for each row, computed once per step, or None on a
        row whose beta * max|V_i| passes 700: `fused_weights` shifts that one.
        The products are Python floats, which overflow without a warning."""
        v, beta = self.factors.values, self.beta
        big = [beta * top > 700.0 for top in np.abs(v).max(axis=1).tolist()]
        scales = iter(np.exp(beta * v[[not b for b in big]]))
        return [None if b else next(scales) for b in big]

    @property
    def copula_queries(self) -> int:
        """Copula conditionals a single drawn content layer asks for."""
        if self.copula is None:
            return 0
        return self.x_next.tokens[: self.fill].count(self.x_next.alphabet.mask_index)


def fused_weights(row: np.ndarray, v: np.ndarray, beta: float) -> np.ndarray:
    """row * exp(beta * v) along the last axis, unnormalized; row and v
    broadcast. exp overflows past 709, so a row whose beta * max|v| passes
    700 is shifted by its top v on the support (off it, row is 0) and
    clipped: beta * shift stays in [-750, 0], and exp(-750) is 0."""
    with np.errstate(over="ignore"):  # an infinite product only picks the branch
        big = beta * np.abs(v).max(axis=-1, keepdims=True) > 700.0
    if big.any():
        top = np.where(row > 0.0, v, -np.inf).max(axis=-1, keepdims=True)
        v = np.where(big, np.clip(v - top, -750.0 / beta, 0.0), v)
    return row * np.exp(beta * v)


def _check_time(x_next: SequenceState, cfg: SamplerConfig) -> None:
    if not 1 <= x_next.time <= cfg.steps:
        raise ScheduleError(f"x_next carries time {x_next.time}, outside [1, {cfg.steps}]")


def step_frame(
    x_next: SequenceState, cfg: SamplerConfig
) -> tuple[int, RemaskDistribution | None]:
    """(fill, re-mask kernel) of cfg.mode's step at x_{t+1}, for dcd,
    diffusion_only and dcd_ar_unmask. Both depend only on the mask pattern
    and time of x_{t+1}, so one frame serves every state that shares them.
    Raises ScheduleError for a time outside [1, T] and ClampError for a
    pattern the mode cannot reach."""
    _check_time(x_next, cfg)
    n = x_next.alphabet.num_positions
    if cfg.mode != MODE_DCD_AR_UNMASK:
        return n, remask_kernel(x_next, cfg.schedule)
    bounds = (0,) + ar_unmask_schedule(n, cfg.steps)
    done = cfg.steps - x_next.time  # steps already taken
    prev_u, new_u = bounds[done], bounds[done + 1]
    if x_next.unmasked_positions != tuple(range(prev_u)):
        raise ClampError(
            "dcd_ar_unmask expects an unmasked prefix of length "
            f"{prev_u}, got positions {x_next.unmasked_positions}"
        )
    return new_u, None


def _fused_law(
    dm: DiffusionMarginalModel | None,
    copula: ARCopulaModel | None,
    x_next: SequenceState,
    cfg: SamplerConfig,
) -> StepLaw:
    fill, kernel = step_frame(x_next, cfg)
    full = dm_marginals_full(dm, x_next)
    causal = dm_marginals_causal(dm, x_next)
    factors = dcd_factors(full, causal)
    return StepLaw(x_next, x_next.time - 1, fill, kernel, copula, factors, cfg.beta, full, causal)


def dcd_step(
    dm: DiffusionMarginalModel | None,
    copula: ARCopulaModel | None,
    x_next: SequenceState,
    cfg: SamplerConfig,
) -> StepLaw:
    return _fused_law(dm, copula, x_next, cfg)


def diffusion_only_step(
    dm: DiffusionMarginalModel | None,
    copula: ARCopulaModel | None,
    x_next: SequenceState,
    cfg: SamplerConfig,
) -> StepLaw:
    fill, kernel = step_frame(x_next, cfg)
    return StepLaw(x_next, x_next.time - 1, fill, kernel, full=dm_marginals_full(dm, x_next))


def dcd_ar_unmask_step(
    dm: DiffusionMarginalModel | None,
    copula: ARCopulaModel | None,
    x_next: SequenceState,
    cfg: SamplerConfig,
) -> StepLaw:
    """dcd's fused rows, filled up to the unmask boundary `step_frame` reads
    from cfg; no re-masking."""
    return _fused_law(dm, copula, x_next, cfg)


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


class PatternRows:
    """The content layer's rows for every state of a mask pattern, as N-axis
    tensors with the row along the drawn position's axis. No row depends on
    time, and only the fused rows depend on beta, so one object serves
    every (T, beta) cell of a mode: the marginal rows, the copula rows, V
    and the evidence are built once per pattern and position, the fused
    rows once per beta as well."""

    def __init__(self, dm: DiffusionMarginalModel | None, copula: ARCopulaModel | None,
                 mode: str) -> None:
        self.dm, self.copula = dm, copula
        self.fused = mode != MODE_DIFFUSION_ONLY
        self._evidence: dict[tuple[bool, ...], np.ndarray] = {}
        self._parts: dict[tuple[tuple[bool, ...], int], tuple[np.ndarray, ...]] = {}
        self._rows: dict[tuple[tuple[bool, ...], int, float], tuple[np.ndarray, np.ndarray]] = {}

    def evidence(self, masked: tuple[bool, ...]) -> np.ndarray:
        """Whether each state's unmasked tokens have mass under the marginal
        model, over the unmasked axes."""
        if masked not in self._evidence:
            axes = tuple(i for i, m in enumerate(masked) if m)
            self._evidence[masked] = self.dm.table.tensor().sum(axis=axes, keepdims=True) > 0.0
        return self._evidence[masked]

    def row(self, masked: tuple[bool, ...], i: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
        """(rows at masked position i under beta, where those rows have mass)."""
        if (masked, i) not in self._parts:
            self._parts[masked, i] = self._beta_free(masked, i)
        if not self.fused:  # the evidence check already covers these rows
            return self._parts[masked, i][0], np.True_
        if (masked, i, beta) not in self._rows:
            cond, v = self._parts[masked, i]
            weights = fused_weights(cond, v, beta)
            total = weights.sum(axis=-1, keepdims=True)
            fused = np.divide(weights, total, out=np.zeros_like(weights), where=total > 0.0)
            self._rows[masked, i, beta] = np.moveaxis(fused, -1, i), np.moveaxis(total > 0.0, -1, i)
        return self._rows[masked, i, beta]

    def _beta_free(self, masked: tuple[bool, ...], i: int) -> tuple[np.ndarray, ...]:
        """(the marginal rows,) unfused; (copula rows, V) with the row on the
        last axis when fused."""
        full = pattern_rows(self.dm, masked, i)
        if not self.fused:
            return (full,)
        v = rankwise_update(*np.broadcast_arrays(full, pattern_rows(self.dm, masked, i, causal=True)))
        cond = pattern_rows(self.copula, (False,) * len(masked), i, causal=True)
        return np.moveaxis(cond, i, -1), np.moveaxis(v, i, -1)


def _content_layers(
    rows: PatternRows, weights: np.ndarray, present: np.ndarray, time: int, cfg: SamplerConfig
) -> Iterator[tuple[tuple[bool, ...], int, RemaskDistribution | None, np.ndarray, np.ndarray]]:
    """(mask pattern, fill, kernel, w, p) for each mask pattern with a
    present state at `time`: w weighs the content layers of all its states,
    over the clamped and drawn axes, and p marks those the per-state walk
    would visit (a path whose weight underflows to 0 still counts)."""
    c = rows.dm.alphabet.num_categories
    for masked in itertools.product((False, True), repeat=weights.ndim):
        src = tuple(c if m else slice(0, c) for m in masked)
        here = present[src]
        if not here.any():
            continue
        x_next = SequenceState(tuple(c if m else 0 for m in masked), time, rows.dm.alphabet)
        fill, kernel = step_frame(x_next, cfg)
        shape = tuple(1 if m else c for m in masked)
        w, p = weights[src].reshape(shape), here.reshape(shape)
        if np.any(p & ~rows.evidence(masked)):
            raise SupportError("a reachable state's unmasked tokens have zero probability")
        for i in x_next.masked_positions:
            if i >= fill:
                break
            row, ok = rows.row(masked, i, cfg.beta)
            if np.any(p & ~ok):
                raise SupportError(f"fused row at position {i} has no mass")
            w, p = w * row, p & (row > 0.0)
        yield masked, fill, kernel, w, p


def dense_step(
    rows: PatternRows, weights: np.ndarray, present: np.ndarray, time: int, cfg: SamplerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """One step of cfg.mode from every state of `weights`, a (C+1,)*N tensor
    over the states at `time` whose boolean twin `present` marks the states
    the per-state walk would visit; returns the same pair at time - 1."""
    c = rows.dm.alphabet.num_categories
    nxt, reached = np.zeros_like(weights), np.zeros_like(present)
    for masked, fill, kernel, w, p in _content_layers(rows, weights, present, time, cfg):
        if kernel is None:
            dest = tuple(slice(0, c) if i < fill else slice(c, c + 1) for i in range(len(masked)))
        else:
            for chunk in kernel.mask_chunks:
                w, p = _remask(w, p, chunk, kernel.ratio)
            dest = tuple(slice(None) if m else slice(0, c) for m in masked)
        nxt[dest] += w
        reached[dest] |= p
    return nxt, reached


def _remask(
    w: np.ndarray, p: np.ndarray, chunk: tuple[int, ...], ratio: float
) -> tuple[np.ndarray, np.ndarray]:
    """One masked chunk's re-mask step on a content-layer tensor: its axes
    grow from C to C+1, keeping each token with 1 - ratio or moving the
    chunk's whole mass to MASK with ratio."""
    c = w.shape[chunk[0]]
    shape = tuple(c + 1 if i in chunk else size for i, size in enumerate(w.shape))
    keep = tuple(slice(0, c) if i in chunk else slice(None) for i in range(w.ndim))
    gone = tuple(slice(c, None) if i in chunk else slice(None) for i in range(w.ndim))
    out, reached = np.zeros(shape), np.zeros(shape, dtype=bool)
    out[keep] = w * (1.0 - ratio)
    out[gone] = ratio * w.sum(axis=chunk, keepdims=True)
    reached[keep] = p & (1.0 - ratio > 0.0)
    reached[gone] = p.any(axis=chunk, keepdims=True) & (ratio > 0.0)
    return out, reached


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

_SUM_TOL = np.finfo(np.float64).eps ** 0.5


def draw_category(row: np.ndarray, rng: np.random.Generator) -> int:
    """An index drawn from `row` by the inverse CDF that
    `Generator.choice(len(row), p=row)` runs, on one `rng.random()`: the
    same index and the same stream. Raises InvalidDistributionError where
    choice rejects the row: an entry negative or NaN, or a sum off 1 by
    more than sqrt(eps)."""
    cdf = row.cumsum()
    if not (row.min() >= 0.0 and abs(cdf[-1] - 1.0) <= _SUM_TOL):
        raise InvalidDistributionError(f"cannot draw from the row {row!r}")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


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

    def remask_or_keep(row: tuple[float, float]) -> tuple[int]:
        return (0 if rng.random() < row[0] else 1,)

    trace = SampleTrace(cfg.mode, cfg.seed, cfg.beta)
    x = SequenceState.all_masked(alphabet, cfg.steps)
    while x.time > 0:
        law = _step_law(dm, copula, x, cfg)
        tokens: tuple[int, ...] = ()
        for i, tok in enumerate(x.tokens[: law.fill]):
            tokens += (draw_category(law.row(i, tokens), rng) if tok == alphabet.mask_index else tok,)
        x_tilde = None if law.remask is None else tokens
        if x_tilde is None:  # positions past the fill are MASK in x and stay so
            x_t = SequenceState(tokens + x.tokens[law.fill:], law.t, alphabet)
        else:
            [(x_t, _)] = law.remask.outcomes(tokens, remask_or_keep)
        trace.steps.append(
            StepRecord(x, x_t, x_tilde, law.factors, law.full, law.causal, law.copula_queries)
        )
        x = x_t
    return x, trace


# ---------------------------------------------------------------------------
# Exact per-step law (enumeration)
# ---------------------------------------------------------------------------

def _point_mass(
    dm: DiffusionMarginalModel | None, copula: ARCopulaModel | None, x_next: SequenceState,
    cfg: SamplerConfig,
) -> tuple[PatternRows, np.ndarray, np.ndarray]:
    """cfg.mode's pattern rows and (weights, present) with all mass on x_next."""
    alphabet = check_models(dm, copula, cfg.mode)
    if x_next.alphabet != alphabet:
        raise AlphabetMismatchError("model table and state disagree on the alphabet")
    states = alphabet.with_mask()  # CapExceededError past ENUMERATION_CAP states
    weights = np.zeros((states.num_categories,) * states.num_positions)
    weights[x_next.tokens] = 1.0
    return PatternRows(dm, copula, cfg.mode), weights, weights > 0.0


def enumerate_aux_distribution(
    dm: DiffusionMarginalModel | None,
    copula: ARCopulaModel | None,
    x_next: SequenceState,
    cfg: SamplerConfig,
) -> dict[tuple[int, ...], float]:
    """Exact law of the content layer x~_t produced by one dcd or
    diffusion_only step at x_{t+1}: `dense_step` from x_{t+1} alone, stopped
    before the re-mask. It holds all (C+1)^N states in one tensor, so above
    ENUMERATION_CAP (10^7) states it raises CapExceededError."""
    if cfg.mode not in (MODE_DCD, MODE_DIFFUSION_ONLY):
        raise InvalidDistributionError(f"no aux layer to enumerate for mode {cfg.mode!r}")
    [(*_, w, p)] = _content_layers(*_point_mass(dm, copula, x_next, cfg), x_next.time, cfg)
    return {tuple(idx): float(w[tuple(idx)]) for idx in np.argwhere(p).tolist()}


def enumerate_step_distribution(
    dm: DiffusionMarginalModel | None,
    copula: ARCopulaModel | None,
    x_next: SequenceState,
    cfg: SamplerConfig,
) -> dict[SequenceState, float]:
    """Exact law of x_t produced by one step of cfg.mode at x_{t+1}:
    `dense_step` from x_{t+1} alone. It holds all (C+1)^N states in one
    tensor, so above ENUMERATION_CAP (10^7) states it raises
    CapExceededError. ar_only has no such law: its single step runs from the
    prior straight to time 0."""
    if cfg.mode == MODE_AR_ONLY:
        raise InvalidDistributionError(f"no per-step law for mode {cfg.mode!r}")
    weights, present = dense_step(*_point_mass(dm, copula, x_next, cfg), x_next.time, cfg)
    return {SequenceState(tuple(idx), x_next.time - 1, x_next.alphabet): float(weights[tuple(idx)])
            for idx in np.argwhere(present).tolist()}
