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
clamped tokens, so one pass multiplies their rows and re-masks them all.
The rows come from one `PatternRows` per model pair, which serves every
mode: cfg.mode picks the marginal or the fused rows. What a pattern's pass
needs from the tensor's layout (its index tuples, its masked positions and
chunks) is built once per (N, C, chunk_size); each step works out only its
time check, its re-mask ratio and its fill. `step_frame` gives the same
per-state frame to `sample`, under the same rules. Every exact law comes from it: the
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
from .noising import (
    NoiseSchedule,
    RemaskDistribution,
    SequenceState,
    _pattern_frames,
    _PatternFrame,
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
        if beta * float(np.abs(v).max()) <= 700.0:  # the common case: no row is big
            return list(np.exp(beta * v))
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


def _check_time(time: int, cfg: SamplerConfig) -> None:
    if not 1 <= time <= cfg.steps:
        raise ScheduleError(f"x_next carries time {time}, outside [1, {cfg.steps}]")


def _unmask_bounds(num_positions: int, time: int, steps: int) -> tuple[int, int]:
    """(positions unmasked before, positions filled by) dcd_ar_unmask's
    step from `time`."""
    bounds = (0,) + ar_unmask_schedule(num_positions, steps)
    done = steps - time  # steps already taken
    return bounds[done], bounds[done + 1]


def _check_prefix(masked: tuple[bool, ...], revealed: int) -> None:
    """dcd_ar_unmask reaches only states whose first `revealed` positions,
    and no others, are unmasked."""
    if masked != (False,) * revealed + (True,) * (len(masked) - revealed):
        unmasked = tuple(i for i, m in enumerate(masked) if not m)
        raise ClampError(
            f"dcd_ar_unmask expects an unmasked prefix of length {revealed}, got positions {unmasked}"
        )


def step_frame(
    x_next: SequenceState, cfg: SamplerConfig
) -> tuple[int, RemaskDistribution | None]:
    """(fill, re-mask kernel) of cfg.mode's step at x_{t+1}, for dcd,
    diffusion_only and dcd_ar_unmask, as `sample` draws it. Raises
    ScheduleError for a time outside [1, T] and ClampError for a pattern the
    mode cannot reach: the same rules `dense_step` applies to whole mask
    patterns."""
    _check_time(x_next.time, cfg)
    n = x_next.alphabet.num_positions
    if cfg.mode != MODE_DCD_AR_UNMASK:
        return n, remask_kernel(x_next, cfg.schedule)
    revealed, fill = _unmask_bounds(n, x_next.time, cfg.steps)
    _check_prefix(tuple(map(x_next.is_masked, range(n))), revealed)
    return fill, None


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
    _check_time(x_next.time, cfg)
    return StepLaw(x_next, 0, x_next.alphabet.num_positions, None, copula)


class PatternRows:
    """The content layer's rows for every state of a mask pattern, as N-axis
    tensors with the row along the drawn position's axis. No row depends on
    the mode or on time, so one object serves every (mode, T, beta) cell of
    a model pair: the marginal rows, V and the evidence are built once per
    pattern and position, the copula rows once per position (they read no
    mask pattern), and the fused rows once per beta as well."""

    def __init__(self, dm: DiffusionMarginalModel | None, copula: ARCopulaModel | None) -> None:
        self.dm, self.copula = dm, copula
        self._evidence: dict[tuple[bool, ...], np.ndarray] = {}
        self._copula: dict[int, np.ndarray] = {}
        self._marginal: dict[tuple[tuple[bool, ...], int], tuple[np.ndarray, ...]] = {}
        self._v: dict[tuple[tuple[bool, ...], int], np.ndarray] = {}
        self._fused: dict[tuple[tuple[bool, ...], int, float], tuple[np.ndarray, ...]] = {}

    def evidence(self, masked: tuple[bool, ...]) -> np.ndarray:
        """Whether each state's unmasked tokens have mass under the marginal
        model, over the unmasked axes."""
        if masked not in self._evidence:
            axes = tuple(i for i, m in enumerate(masked) if m)
            self._evidence[masked] = self.dm.table.tensor().sum(axis=axes, keepdims=True) > 0.0
        return self._evidence[masked]

    def marginal(self, masked: tuple[bool, ...], i: int) -> tuple[np.ndarray, ...]:
        """(the marginal rows at masked position i, True, their support):
        diffusion_only's rows, whose mass the evidence check covers."""
        if (masked, i) not in self._marginal:
            full = pattern_rows(self.dm, tuple(j for j, m in enumerate(masked) if not m), i)
            self._marginal[masked, i] = full, np.True_, full > 0.0
        return self._marginal[masked, i]

    def fused(self, masked: tuple[bool, ...], i: int, beta: float) -> tuple[np.ndarray, ...]:
        """(the copula rows at masked position i fused with exp(beta * V),
        where they have mass, where their entries are positive)."""
        if (masked, i, beta) not in self._fused:
            if i not in self._copula:
                self._copula[i] = pattern_rows(self.copula, range(i), i).swapaxes(i, -1)
            weights = fused_weights(self._copula[i], self._factors(masked, i), beta)
            total = weights.sum(axis=-1, keepdims=True)
            fused = np.divide(weights, total, out=np.zeros_like(weights), where=total > 0.0)
            fused = fused.swapaxes(-1, i)
            self._fused[masked, i, beta] = fused, (total > 0.0).swapaxes(-1, i), fused > 0.0
        return self._fused[masked, i, beta]

    def _factors(self, masked: tuple[bool, ...], i: int) -> np.ndarray:
        """V at masked position i, from the causal rows to the marginal ones,
        with the row on the last axis."""
        if (masked, i) not in self._v:
            full = self.marginal(masked, i)[0]
            causal = pattern_rows(self.dm, tuple(j for j, m in enumerate(masked[:i]) if not m), i)
            self._v[masked, i] = rankwise_update(*np.broadcast_arrays(full, causal)).swapaxes(i, -1)
        return self._v[masked, i]


_Remask = tuple[float, tuple[tuple[int, ...], ...]]  # (ratio, masked chunks)


def _content_layers(
    rows: PatternRows, weights: np.ndarray, present: np.ndarray, time: int, cfg: SamplerConfig
) -> Iterator[tuple[_PatternFrame, int, _Remask | None, np.ndarray, np.ndarray]]:
    """(frame, fill, re-mask, w, p) for each mask pattern with a present
    state at `time`: w weighs the content layers of all its states, over the
    clamped and drawn axes, and p marks those the per-state walk would visit
    (a path whose weight underflows to 0 still counts). The re-mask is the
    kernel's ratio and the pattern's masked chunks, or None for
    dcd_ar_unmask. The time check, the ratio and the fill are worked out
    once per step, the frames once per (N, C, chunk_size)."""
    n, c = weights.ndim, rows.dm.alphabet.num_categories
    _check_time(time, cfg)
    if cfg.mode == MODE_DCD_AR_UNMASK:
        ratio, (revealed, fill) = None, _unmask_bounds(n, time, cfg.steps)
    else:
        ratio, fill = cfg.schedule.mask_ratio(time - 1), n
    for frame in _pattern_frames(n, c, cfg.chunk_size):
        p = present[frame.src]
        if not p.any():
            continue
        if ratio is None:
            _check_prefix(frame.masked, revealed)
            remask = None
        else:
            remask = ratio, frame.chunks  # ClampError for a mixed chunk
        w = weights[frame.src]
        if (p & ~rows.evidence(frame.masked)).any():
            raise SupportError("a reachable state's unmasked tokens have zero probability")
        for i in frame.positions:
            if i >= fill:
                break
            row, ok, support = (rows.marginal(frame.masked, i) if cfg.mode == MODE_DIFFUSION_ONLY
                                else rows.fused(frame.masked, i, cfg.beta))
            if (p & ~ok).any():
                raise SupportError(f"fused row at position {i} has no mass")
            w, p = w * row, p & support
        yield frame, fill, remask, w, p


def dense_step(
    rows: PatternRows, weights: np.ndarray, present: np.ndarray, time: int, cfg: SamplerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """One step of cfg.mode from every state of `weights`, a (C+1,)*N tensor
    over the states at `time` whose boolean twin `present` marks the states
    the per-state walk would visit; returns the same pair at time - 1. The
    step moves whole mask patterns: each pattern's frame is built once per
    (N, C, chunk_size), and no per-state `SequenceState`, `step_frame` or
    re-mask kernel is made."""
    c = rows.dm.alphabet.num_categories
    nxt, reached = np.zeros_like(weights), np.zeros_like(present)
    for frame, fill, remask, w, p in _content_layers(rows, weights, present, time, cfg):
        if remask is None:
            dest = tuple(slice(0, c) if i < fill else slice(c, c + 1) for i in range(weights.ndim))
        else:
            ratio, chunks = remask
            for chunk in chunks:
                w, p = _remask(w, p, chunk, ratio)
            dest = frame.dest
        nxt[dest] += w
        reached[dest] |= p
    return nxt, reached


def _remask(
    w: np.ndarray, p: np.ndarray, chunk: tuple[int, ...], ratio: float
) -> tuple[np.ndarray, np.ndarray]:
    """One masked chunk's re-mask step on a content-layer tensor: its axes
    grow from C to C+1, keeping each token with 1 - ratio or moving the
    chunk's whole mass to MASK with ratio."""
    keep_w, gone_w = w * (1.0 - ratio), ratio * w.sum(axis=chunk, keepdims=True)
    keep_p, gone_p = p & (1.0 - ratio > 0.0), p.any(axis=chunk, keepdims=True) & (ratio > 0.0)
    if len(chunk) == 1:  # the MASK entry follows the C tokens on the one axis
        return (np.concatenate((keep_w, gone_w), axis=chunk[0]),
                np.concatenate((keep_p, gone_p), axis=chunk[0]))
    c = w.shape[chunk[0]]
    shape = tuple(c + 1 if i in chunk else size for i, size in enumerate(w.shape))
    keep = tuple(slice(0, c) if i in chunk else slice(None) for i in range(w.ndim))
    gone = tuple(slice(c, None) if i in chunk else slice(None) for i in range(w.ndim))
    out, reached = np.zeros(shape), np.zeros(shape, dtype=bool)
    out[keep], out[gone] = keep_w, gone_w
    reached[keep], reached[gone] = keep_p, gone_p
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
    mask = alphabet.mask_index
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    trace = SampleTrace(cfg.mode, cfg.seed, cfg.beta)
    x = SequenceState.all_masked(alphabet, cfg.steps)
    while x.time > 0:
        law = _step_law(dm, copula, x, cfg)
        tokens: tuple[int, ...] = ()
        for i, tok in enumerate(x.tokens[: law.fill]):
            tokens += (draw_category(law.row(i, tokens), rng) if tok == mask else tok,)
        x_tilde = None if law.remask is None else tokens
        if x_tilde is None:  # positions past the fill are MASK in x and stay so
            x_t = SequenceState(tokens + x.tokens[law.fill:], law.t, alphabet)
        else:  # the walker built a valid content layer: re-mask it chunk by chunk
            for chunk in law.remask.mask_chunks:
                if rng.random() < law.remask.ratio:
                    lo, hi = chunk[0], chunk[-1] + 1
                    tokens = tokens[:lo] + (mask,) * (hi - lo) + tokens[hi:]
            x_t = SequenceState(tokens, law.t, alphabet)
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
    """The models' pattern rows and (weights, present), all mass on x_next."""
    alphabet = check_models(dm, copula, cfg.mode)
    if x_next.alphabet != alphabet:
        raise AlphabetMismatchError("model table and state disagree on the alphabet")
    states = alphabet.with_mask()  # CapExceededError past ENUMERATION_CAP states
    weights = np.zeros((states.num_categories,) * states.num_positions)
    weights[x_next.tokens] = 1.0
    return PatternRows(dm, copula), weights, weights > 0.0


def enumerate_aux_distribution(
    dm: DiffusionMarginalModel | None,
    copula: ARCopulaModel | None,
    x_next: SequenceState,
    cfg: SamplerConfig,
) -> dict[tuple[int, ...], float]:
    """Exact law of the content layer x~_t produced by one dcd or
    diffusion_only step at x_{t+1}: `dense_step` from x_{t+1} alone, stopped
    before the re-mask; its cost and cap are enumerate_step_distribution's."""
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
    `dense_step` from x_{t+1} alone. Moving one state fills all (C+1)^N
    states and visits every mask pattern (about 0.2 s and 85 MB at (14, 2) on
    a 2-vCPU host); above ENUMERATION_CAP (10^7) states it raises
    CapExceededError. ar_only, whose one step runs to time 0, has no such law."""
    if cfg.mode == MODE_AR_ONLY:
        raise InvalidDistributionError(f"no per-step law for mode {cfg.mode!r}")
    weights, present = dense_step(*_point_mass(dm, copula, x_next, cfg), x_next.time, cfg)
    return {SequenceState(tuple(idx), x_next.time - 1, x_next.alphabet): float(weights[tuple(idx)])
            for idx in np.argwhere(present).tolist()}
