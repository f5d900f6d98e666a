"""Absorbing-mask forward process and its exact reverse-side kernels.

The forward process independently turns data tokens into MASK with
probability alpha_t at step t, where 0 < alpha_1 < ... < alpha_T = 1
(alpha_0 = 0). Because masking never edits surviving tokens, the reverse
conditional q(x_t | x_{t+1}) splits into two tractable pieces:

  * an auxiliary, mask-free layer  q(x~_t | x_{t+1})  that conditions the
    data distribution on the unmasked tokens of x_{t+1} and clamps them, and
  * an independent re-masking kernel  q(x_t | x~_t, x_{t+1})  that re-masks
    each currently-masked position with probability alpha_t / alpha_{t+1}.
    `remask_kernel` builds it from x_{t+1} alone;
    `RemaskDistribution.outcomes` takes a content layer (a token tuple) and
    lists every outcome with mass. `sampler.sample` draws from the kernel's
    ratio and masked chunks itself.

`brute_reverse_posterior` computes q(x_t | x_{t+1}) directly from Bayes'
rule over all states, vectorised in numpy (`posterior_from_prior` takes the
prior q(X_t), so callers that visit many x_{t+1} build it once per step);
it is deliberately independent of the split above so the two can be tested
against each other.

Chunked masking groups consecutive positions so each chunk shares one
Bernoulli draw (chunk_size = 1 recovers the per-token process).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dist import (
    Alphabet,
    JointTable,
    MarginalSet,
    along_axis,
    condition,
)
from .errors import (
    AlphabetMismatchError,
    ClampError,
    DegenerateMarginalError,
    InvalidDistributionError,
    ScheduleError,
    SupportError,
)

DEFAULT_EPSILON = 1e-3


@dataclass(frozen=True)
class NoiseSchedule:
    """Monotone mask probabilities alpha_1..alpha_T, alpha_T = 1; T = len(alphas).
    `make_schedule` builds them from a family and epsilon."""

    alphas: tuple[float, ...]
    chunk_size: int = 1

    def __post_init__(self) -> None:
        if len(self.alphas) < 1:
            raise ScheduleError("a schedule needs at least one alpha")
        if self.chunk_size < 1:
            raise ScheduleError("chunk_size must be >= 1")
        prev = 0.0
        for a in self.alphas:
            if not (prev < a <= 1.0):
                raise ScheduleError(f"alphas not strictly increasing in (0, 1]: {self.alphas}")
            prev = a
        if self.alphas[-1] != 1.0:
            raise ScheduleError("final alpha must equal 1")

    @property
    def steps(self) -> int:
        return len(self.alphas)

    def alpha(self, t: int) -> float:
        """Mask probability at time t, with alpha(0) = 0."""
        if not 0 <= t <= self.steps:
            raise ScheduleError(f"time {t} outside [0, {self.steps}]")
        return 0.0 if t == 0 else self.alphas[t - 1]

    def mask_ratio(self, t: int) -> float:
        """P(stay masked from t+1 down to t) = alpha_t / alpha_{t+1}."""
        if not 0 <= t < self.steps:
            raise ScheduleError(f"transition time {t} outside [0, {self.steps})")
        return self.alpha(t) / self.alpha(t + 1)

    def step_mask_prob(self, t: int) -> float:
        """P(an unmasked token masks between t and t+1) = (a_{t+1}-a_t)/(1-a_t)."""
        if not 0 <= t < self.steps:
            raise ScheduleError(f"transition time {t} outside [0, {self.steps})")
        return (self.alpha(t + 1) - self.alpha(t)) / (1.0 - self.alpha(t))


def make_schedule(
    family: str,
    steps: int,
    epsilon: float = DEFAULT_EPSILON,
    chunk_size: int = 1,
) -> NoiseSchedule:
    """Build a schedule.

    linear:     alpha_k = k / T.
    log-linear: sigma(u) = -log(1 - (1 - eps) * u) evaluated at u = k / T,
                alpha_k = 1 - exp(-sigma(k/T)); the final alpha is pinned to 1
                so the prior is a full mask (the raw formula ends at 1 - eps).
    """
    if steps < 1:
        raise ScheduleError("steps must be >= 1")
    if family == "linear":
        alphas = [k / steps for k in range(1, steps + 1)]
    elif family == "log-linear":
        if not 0.0 < epsilon < 1.0:
            raise ScheduleError("log-linear needs 0 < epsilon < 1")
        alphas = []
        for k in range(1, steps):
            sigma = -math.log1p(-(1.0 - epsilon) * (k / steps))
            alphas.append(1.0 - math.exp(-sigma))
        alphas.append(1.0)
    else:
        raise ScheduleError(f"unknown schedule family {family!r}")
    return NoiseSchedule(tuple(alphas), chunk_size)


@functools.cache
def chunk_groups(num_positions: int, chunk_size: int) -> tuple[tuple[int, ...], ...]:
    """Consecutive position groups of size chunk_size (last may be shorter);
    built once per (num_positions, chunk_size)."""
    return tuple(
        tuple(range(start, min(start + chunk_size, num_positions)))
        for start in range(0, num_positions, chunk_size)
    )


@dataclass(frozen=True)
class SequenceState:
    """One assignment of N tokens at time `time`; MASK is category C. States
    at time 0 are final outputs and must be mask-free."""

    tokens: tuple[int, ...]
    time: int
    alphabet: Alphabet

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(int(t) for t in self.tokens))
        if len(self.tokens) != self.alphabet.num_positions:
            raise AlphabetMismatchError("token count does not match the alphabet")
        mask = self.alphabet.mask_index
        for tok in self.tokens:
            if not 0 <= tok <= mask:
                raise InvalidDistributionError(f"token {tok} out of range")
        if self.time < 0:
            raise InvalidDistributionError("time must be >= 0")
        if self.time == 0 and any(tok == mask for tok in self.tokens):
            raise InvalidDistributionError("states at time 0 must be mask-free")

    @classmethod
    def all_masked(cls, alphabet: Alphabet, time: int) -> "SequenceState":
        return cls((alphabet.mask_index,) * alphabet.num_positions, time, alphabet)

    def is_masked(self, i: int) -> bool:
        return self.tokens[i] == self.alphabet.mask_index

    @property
    def masked_positions(self) -> tuple[int, ...]:
        return tuple(i for i, tok in enumerate(self.tokens) if tok == self.alphabet.mask_index)

    @property
    def unmasked_positions(self) -> tuple[int, ...]:
        return tuple(i for i, tok in enumerate(self.tokens) if tok != self.alphabet.mask_index)


def aux_posterior(data: JointTable, x_next: SequenceState) -> JointTable:
    """Exact q(x~_t | x_{t+1}), which depends on neither t nor the schedule:
    the data table conditioned on the unmasked tokens of x_{t+1}, clamped."""
    if data.alphabet != x_next.alphabet:
        raise AlphabetMismatchError("data table and state disagree on the alphabet")
    unmasked = x_next.unmasked_positions
    if not unmasked:
        return data
    evidence = {j: x_next.tokens[j] for j in unmasked}
    n, k = data.num_positions, data.num_categories
    full = np.zeros((k,) * n, dtype=np.float64)
    idx = tuple(evidence.get(i, slice(None)) for i in range(n))
    if len(unmasked) == n and data.tensor()[idx] == 0.0:
        raise SupportError(f"evidence {evidence} has zero probability")
    full[idx] = 1.0 if len(unmasked) == n else condition(data, evidence).tensor()
    return JointTable(data.alphabet, full.ravel())


@dataclass(frozen=True)
class RemaskDistribution:
    """Factorized (per chunk) distribution of x_t given x_{t+1} and a
    mask-free content layer x~_t: each masked chunk of x_{t+1} re-masks with
    probability alpha_t/alpha_{t+1} and keeps its content tokens otherwise;
    unmasked positions copy x_{t+1} exactly."""

    x_next: SequenceState
    ratio: float
    mask_chunks: tuple[tuple[int, ...], ...]  # the masked chunks of x_{t+1}, each consecutive

    def _content(self, x_tilde: Sequence[int]) -> tuple[int, ...]:
        """x~_t as tokens, checked to be mask-free and to agree with x_{t+1}."""
        alphabet = self.x_next.alphabet
        tokens = tuple(int(tok) for tok in x_tilde)
        if len(tokens) != alphabet.num_positions:
            raise AlphabetMismatchError("token count does not match the alphabet")
        for tok in tokens:
            if not 0 <= tok < alphabet.num_categories:
                raise InvalidDistributionError(f"content token {tok} out of range (mask excluded)")
        for j in self.x_next.unmasked_positions:
            if tokens[j] != self.x_next.tokens[j]:
                raise ClampError(f"content layer disagrees with x_next at position {j}")
        return tokens

    def rows(self, x_tilde: Sequence[int]) -> MarginalSet:
        """Per-position law of x_t: (N, C+1) rows, the mask in the last column."""
        tokens = self._content(x_tilde)
        c = self.x_next.alphabet.num_categories
        rows = np.zeros((len(tokens), c + 1), dtype=np.float64)
        rows[np.arange(len(tokens)), tokens] = 1.0
        for i in self.x_next.masked_positions:
            rows[i, c] = self.ratio
            rows[i, tokens[i]] = 1.0 - self.ratio
        return MarginalSet(rows)

    def outcomes(self, x_tilde: Sequence[int]) -> list[tuple[SequenceState, float]]:
        """Every x_t with mass and its probability, chunk by chunk and
        breadth-first: each masked chunk takes each option of its row
        (re-mask, keep) = (ratio, 1 - ratio) that has mass."""
        mask = self.x_next.alphabet.mask_index
        row = (self.ratio, 1.0 - self.ratio)
        options = [k for k in (0, 1) if row[k] > 0.0]
        paths = [(self._content(x_tilde), 1.0)]
        for group in self.mask_chunks:
            lo, hi = group[0], group[-1] + 1
            grown = []
            for tokens, p in paths:
                remasked = tokens[:lo] + (mask,) * (hi - lo) + tokens[hi:]
                grown.extend((remasked if k == 0 else tokens, p * row[k]) for k in options)
            paths = grown
        t = self.x_next.time - 1
        return [(SequenceState(tokens, t, self.x_next.alphabet), p) for tokens, p in paths]


def remask_kernel(x_next: SequenceState, sched: NoiseSchedule) -> RemaskDistribution:
    """Kernel q(x_t | x~_t, x_{t+1}) at t = x_{t+1} time - 1. Raises
    ScheduleError for a time outside [1, T] and ClampError for a chunked
    state with a partly masked chunk."""
    ratio = sched.mask_ratio(x_next.time - 1)
    chunks = _masked_chunks(x_next.alphabet.num_positions, x_next.masked_positions, sched.chunk_size)
    return RemaskDistribution(x_next, ratio, chunks)


def _masked_chunks(
    num_positions: int, masked_positions: Iterable[int], chunk_size: int
) -> tuple[tuple[int, ...], ...]:
    """The chunks that hold a masked position, in order. Raises ClampError
    when one of them is only partly masked."""
    masked = set(masked_positions)
    chunks = chunk_groups(num_positions, chunk_size)
    groups = tuple(group for group in chunks if masked.intersection(group))
    if not all(masked.issuperset(group) for group in groups):
        raise ClampError("chunked process states mask whole chunks; got a mixed chunk")
    return groups


@dataclass(frozen=True, eq=False)
class _PatternFrame:
    """The part of one mask pattern's frame in the (C+1,)*N state tensor
    that no step changes: the pattern's states (`src`, MASK on the masked
    axes and the C tokens on the others), where they land once re-masked
    (`dest`, all C+1 values on the masked axes), and its masked positions
    and chunks."""

    masked: tuple[bool, ...]
    src: tuple[slice, ...]
    dest: tuple[slice, ...]
    positions: tuple[int, ...]
    chunk_size: int

    @functools.cached_property
    def chunks(self) -> tuple[tuple[int, ...], ...]:
        """The masked chunks; ClampError for a pattern with a mixed chunk."""
        return _masked_chunks(len(self.masked), self.positions, self.chunk_size)


@functools.cache
def _pattern_frames(
    num_positions: int, num_categories: int, chunk_size: int
) -> tuple[_PatternFrame, ...]:
    """The frame of every mask pattern, in `itertools.product` order (MASK
    last); built once per (N, C, chunk_size) and cached, with no bound, for
    the life of the process: 2^N frames per entry, 13.6 MB at (14, 2)."""
    tokens, mask, every = slice(0, num_categories), slice(num_categories, None), slice(None)
    return tuple(
        _PatternFrame(
            masked,
            tuple(mask if m else tokens for m in masked),
            tuple(every if m else tokens for m in masked),
            tuple(i for i, m in enumerate(masked) if m),
            chunk_size,
        )
        for masked in itertools.product((False, True), repeat=num_positions)
    )


# ---------------------------------------------------------------------------
# Brute-force oracle side
# ---------------------------------------------------------------------------

def forward_state_distribution(
    data: JointTable, t: int, sched: NoiseSchedule
) -> JointTable:
    """Exact marginal q(X_t) over the state alphabet (mask = last category)."""
    n, c = data.num_positions, data.num_categories
    alpha = sched.alpha(t)
    groups = chunk_groups(n, sched.chunk_size)
    state_alphabet = data.alphabet.with_mask()
    out = np.zeros((c + 1,) * n, dtype=np.float64)
    tensor = data.tensor()
    for pattern in itertools.product((False, True), repeat=len(groups)):
        w = 1.0
        for masked in pattern:
            w *= alpha if masked else 1.0 - alpha
        if w == 0.0:
            continue
        masked_positions = tuple(
            i for group, m in zip(groups, pattern) if m for i in group
        )
        sub = tensor.sum(axis=masked_positions) if masked_positions else tensor
        idx = tuple(c if i in masked_positions else slice(0, c) for i in range(n))
        out[idx] += w * sub
    return JointTable(state_alphabet, out.ravel())


def posterior_from_prior(
    prior: JointTable, x_next: SequenceState, sched: NoiseSchedule
) -> JointTable:
    """q(x_t | x_{t+1}) proportional to q(x_{t+1} | x_t) * q(x_t), over every
    state at once, given the prior table q(X_t) over the state alphabet
    (t = x_{t+1} time - 1). The forward kernel is a product over chunks: a
    chunk that masks in this step contributes step_prob, one that stays
    unmasked (and equal) 1 - step_prob, one that stays masked 1.0; a source
    state that is not chunk-consistent, or that x_{t+1} contradicts, gets 0."""
    if prior.alphabet != x_next.alphabet.with_mask():
        raise AlphabetMismatchError("prior table and state disagree on the alphabet")
    step_prob = sched.step_mask_prob(x_next.time - 1)
    n, mask = x_next.alphabet.num_positions, x_next.alphabet.mask_index
    trans = np.ones((mask + 1,) * n, dtype=np.float64)
    for group in chunk_groups(n, sched.chunk_size):
        # the chunk's factor over its own axes, 0 at every inconsistent source
        tokens = x_next.tokens[group[0]:group[-1] + 1]
        block = np.zeros((mask + 1,) * len(tokens), dtype=np.float64)
        if all(tok == mask for tok in tokens):
            block[(mask,) * len(tokens)] = 1.0
            block[(slice(0, mask),) * len(tokens)] = step_prob
        elif mask not in tokens:  # the chunk stays unmasked and equal to x_{t+1}
            block[tokens] = 1.0 - step_prob
        trans = trans * along_axis(block, group[-1], n)
    post = prior.probs * trans.ravel()
    total = post.sum()
    if total <= 0.0:
        raise SupportError("x_next is unreachable under the forward process")
    return JointTable(prior.alphabet, post / total)


def brute_reverse_posterior(
    data: JointTable, x_next: SequenceState, sched: NoiseSchedule
) -> JointTable:
    """Exact q(x_t | x_{t+1}) over the state alphabet, t = x_{t+1} time - 1,
    by Bayes' rule over all states (`posterior_from_prior` on the exact
    forward marginal q(X_t)). Raises SupportError for unreachable x_{t+1}
    and ScheduleError for a time outside [1, T]."""
    if data.alphabet != x_next.alphabet:
        raise AlphabetMismatchError("data table and state disagree on the alphabet")
    prior = forward_state_distribution(data, x_next.time - 1, sched)
    return posterior_from_prior(prior, x_next, sched)


def renormalize_marginals(m: MarginalSet, state: SequenceState) -> MarginalSet:
    """Drop the mask column and rescale each row to sum 1. The rows must be
    (N, C+1) over `state`'s alphabet, the mask in the last column, else
    AlphabetMismatchError. Rows at the unmasked positions of `state` must
    carry no mask mass; they pass through as the point masses they are."""
    n, c = state.alphabet.num_positions, state.alphabet.num_categories
    if m.rows.shape != (n, c + 1):
        raise AlphabetMismatchError(f"expected ({n}, {c + 1}) rows with a mask column")
    for j in state.unmasked_positions:
        if m.rows[j, c] > 1e-12:
            raise InvalidDistributionError(
                f"unmasked position {j} carries mask mass {m.rows[j, c]!r}"
            )
    data = m.rows[:, :c].copy()
    mass = data.sum(axis=1)
    if np.any(mass <= 0.0):
        bad = int(np.argmin(mass))
        raise DegenerateMarginalError(f"position {bad} has all mass on the mask state")
    return MarginalSet(data / mass[:, None])
