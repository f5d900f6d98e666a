"""The dense step against the per-state walk.

`sampler.dense_step` moves every state that shares a mask pattern in one
tensor pass; `induced_distribution` runs it from time T to 0, and the two
enumerators run one step of it from a single state. The oracles in
tests/_helpers.py walk the same step laws one state at a time:
`induced_by_enumeration` is the per-state programme the dense pass
replaced, and `step_by_enumeration` and `aux_by_enumeration` are the
per-state enumerators. Each pair must agree on the law, and on whether a
MaskDiffError is raised and of which class.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from maskdiff import harness, sampler as sampler_mod
from maskdiff.dist import Alphabet, JointTable
from maskdiff.errors import AlphabetMismatchError, MaskDiffError, SupportError
from maskdiff.harness import EXACT_INDUCED_CAP, SyntheticSpec, gen_data, induced_distribution
from maskdiff.models import ARCopulaModel, DiffusionMarginalModel
from maskdiff.noising import SequenceState, make_schedule
from maskdiff.sampler import (
    MODE_AR_ONLY,
    MODE_DCD,
    MODE_DIFFUSION_ONLY,
    MODES,
    SamplerConfig,
    enumerate_aux_distribution,
    enumerate_step_distribution,
)

from _helpers import (
    HUGE_BETAS,
    aux_by_enumeration,
    induced_by_enumeration,
    random_table,
    step_by_enumeration,
    zero_table,
)

DENSE_MODES = tuple(mode for mode in MODES if mode != MODE_AR_ONLY)
AUX_MODES = (MODE_DCD, MODE_DIFFUSION_ONLY)
SHAPES = ((2, 2), (3, 4), (4, 3), (5, 2))
# 3 divides none of N = 2, 4, 5, and 2 does not divide N = 3 or 5
CHUNKS = (1, 2, 3)
BETAS = (0.0, 1.0, HUGE_BETAS[-1])
TOL = 1e-15


def models(n: int, c: int, seed: int = 1):
    data = gen_data(SyntheticSpec("markov_chain", n, c, 0.8, seed=seed)).floored()
    return DiffusionMarginalModel.exact(data), ARCopulaModel.exact(data)


def config(
    mode: str, steps: int, chunk: int = 1, beta: float = 1.0, family: str = "linear"
) -> SamplerConfig:
    return SamplerConfig(steps, make_schedule(family, steps, chunk_size=chunk), mode, beta, chunk)


def steps_under_cap(n: int, c: int) -> list[int]:
    """Every T the exact cap admits; (2, 2) admits T up to 142, where the
    per-state oracle alone takes seconds per mode, so it stops at 10 and
    adds the cap's own edge."""
    top = EXACT_INDUCED_CAP // (c + 1) ** n
    return list(range(1, top + 1)) if top <= 10 else [*range(1, 11), top]


def max_gap(dm, cop, cfg: SamplerConfig) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        dense = induced_distribution(dm, cop, cfg).table.probs
    return float(np.abs(dense - induced_by_enumeration(dm, cop, cfg).probs).max())


@pytest.mark.parametrize("mode", DENSE_MODES)
@pytest.mark.parametrize("n, c", SHAPES)
def test_dense_law_matches_enumeration_at_every_t_under_the_cap(n, c, mode):
    dm, cop = models(n, c)
    for steps in steps_under_cap(n, c):
        assert max_gap(dm, cop, config(mode, steps)) <= TOL, steps


@pytest.mark.parametrize("family", ["linear", "log-linear"])
@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("mode", DENSE_MODES)
@pytest.mark.parametrize("n, c", SHAPES)
def test_dense_law_matches_enumeration_across_chunks_and_betas(n, c, mode, chunk, beta, family):
    dm, cop = models(n, c, seed=2)
    assert max_gap(dm, cop, config(mode, 2, chunk, beta, family)) <= TOL


@pytest.mark.parametrize("chunk", (1, 2))
@pytest.mark.parametrize("n, c", ((3, 3), (4, 2)))
def test_one_row_source_serves_every_cell_in_either_order(n, c, chunk):
    """A sweep evaluates all its (mode, T, beta) cells from one PatternRows:
    each law's bytes equal the cell's own induced_distribution, whichever
    cells filled the rows before it. One source runs the sweep's order and
    then its reverse; a second starts cold on the reverse."""
    dm, cop = models(n, c)
    cells = [config(mode, steps, chunk, beta) for mode in sorted(MODES)
             for steps in (1, 2, 3) for beta in (0.0, 1.0, 2.5)]
    own = [induced_distribution(dm, cop, cfg).table.probs.tobytes() for cfg in cells]
    sweep = list(range(len(cells)))
    for order in (sweep + sweep[::-1], sweep[::-1]):
        rows = sampler_mod.PatternRows(dm, cop)
        for k in order:
            assert harness._induced_exact(rows, cells[k]).table.probs.tobytes() == own[k], cells[k]


def test_induced_distribution_enumerates_no_state(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a per-state step law was built")

    monkeypatch.setattr(sampler_mod, "_step_law", refuse)
    dm, cop = models(3, 2)
    for mode in DENSE_MODES:
        induced_distribution(dm, cop, config(mode, 3, chunk=2))


# ---------------------------------------------------------------------------
# Error parity on tables with zero entries
# ---------------------------------------------------------------------------

def outcome(call):
    """The law a call returns, or the class name of the MaskDiffError it raises."""
    try:
        return call()
    except MaskDiffError as exc:
        return type(exc).__name__


def assert_same_outcome(dm, cop, cfg: SamplerConfig) -> str | None:
    dense = outcome(lambda: induced_distribution(dm, cop, cfg).table.probs)
    oracle = outcome(lambda: induced_by_enumeration(dm, cop, cfg).probs)
    if isinstance(oracle, str):
        assert dense == oracle
        return oracle
    assert not isinstance(dense, str), dense
    assert np.abs(dense - oracle).max() <= TOL
    return None


def test_fully_unmasked_source_without_marginal_mass_raises_in_both():
    # the copula reaches every state; the marginal model gives (1, 1, 0) no mass
    n, c = 3, 2
    cop = ARCopulaModel.exact(random_table(np.random.default_rng(31), n, c, floor=True))
    probs = np.full(c**n, 1.0)
    probs[0b110] = 0.0
    dm = DiffusionMarginalModel.exact(JointTable(Alphabet(n, c), probs / probs.sum()))
    assert assert_same_outcome(dm, cop, config("dcd", 2)) == "SupportError"
    with pytest.raises(SupportError):
        induced_distribution(dm, cop, config("dcd", 2))


def test_source_whose_weight_underflows_to_zero_still_raises():
    # diffusion_only draws x_0 = x_1 = 0 with 1e-200 * 1e-200, which is 0.0;
    # the state is still reached, and its evidence has no mass
    table = JointTable(Alphabet(2, 2), np.array([0.0, 1e-200, 1e-200, 1.0 - 2e-200]))
    dm = DiffusionMarginalModel.exact(table)
    cfg = config("diffusion_only", 2)
    with pytest.raises(SupportError):
        induced_distribution(dm, None, cfg)
    assert assert_same_outcome(dm, None, cfg) == "SupportError"
    # one step has no later query, and the underflowed state keeps weight 0
    law = induced_distribution(dm, None, config("diffusion_only", 1)).table.probs
    assert law[0] == 0.0 and assert_same_outcome(dm, None, config("diffusion_only", 1)) is None


def test_dense_and_enumeration_raise_alike_on_random_tables_with_zeros():
    rng = np.random.default_rng(812)
    seen = []
    for _ in range(60):
        c = int(rng.integers(2, 4))
        n = int(rng.integers(1, 5 if c == 2 else 4))
        dm = DiffusionMarginalModel.exact(zero_table(rng, n, c))
        # half the cases pair the marginal model with a different copula
        cop_table = dm.table if rng.random() < 0.5 else zero_table(rng, n, c)
        cop = ARCopulaModel.exact(cop_table)
        steps = int(rng.integers(1, 4))
        chunk = int(rng.integers(1, n + 1))
        mode = DENSE_MODES[int(rng.integers(len(DENSE_MODES)))]
        beta = float(rng.choice((0.0, 1.0, 1e3)))
        if (c + 1) ** n * steps > EXACT_INDUCED_CAP:
            continue
        seen.append(assert_same_outcome(dm, cop, config(mode, steps, chunk, beta)))
    assert seen.count("SupportError") >= 5 and seen.count(None) >= 5


# ---------------------------------------------------------------------------
# Per-step laws: the enumerators against the per-state walk
# ---------------------------------------------------------------------------

def enumerator_pairs(mode: str):
    """(enumerator, its per-state oracle) for each law `mode` has."""
    pairs = [(enumerate_step_distribution, step_by_enumeration)]
    if mode in AUX_MODES:
        pairs.append((enumerate_aux_distribution, aux_by_enumeration))
    return pairs


def reached_states(dm, cop, cfg: SamplerConfig) -> list[SequenceState]:
    """Every state the per-state programme reaches from the all-MASK state
    at time T, down to time 1, in (time, token) order; a state whose step
    raises is kept and not expanded."""
    frontier = {SequenceState.all_masked(dm.alphabet, cfg.steps)}
    seen = []
    for _ in range(cfg.steps):
        seen.extend(sorted(frontier, key=lambda state: state.tokens))
        laws = [outcome(lambda: step_by_enumeration(dm, cop, state, cfg)) for state in frontier]
        frontier = {x for law in laws if not isinstance(law, str) for x in law}
    return seen


def assert_same_law(dense: dict, oracle: dict) -> None:
    assert dense.keys() == oracle.keys()
    assert max(abs(dense[key] - oracle[key]) for key in oracle) <= TOL


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("chunk", (1, 2))
@pytest.mark.parametrize("mode", DENSE_MODES)
@pytest.mark.parametrize("n, c", ((2, 2), (3, 3), (4, 2)))
def test_enumerators_match_the_per_state_walk_at_every_reached_state(n, c, mode, chunk, beta):
    dm, cop = models(n, c, seed=3)
    cfg = config(mode, 3, chunk, beta)
    states = reached_states(dm, cop, cfg)
    assert len(states) > 1
    for x_next in states:
        for enumerate_law, oracle in enumerator_pairs(mode):
            assert_same_law(enumerate_law(dm, cop, x_next, cfg), oracle(dm, cop, x_next, cfg))


def test_enumerators_and_the_walk_raise_alike_on_random_tables_with_zeros():
    rng = np.random.default_rng(813)
    seen = []
    for _ in range(60):
        c = int(rng.integers(2, 4))
        n = int(rng.integers(1, 5 if c == 2 else 4))
        dm = DiffusionMarginalModel.exact(zero_table(rng, n, c))
        cop = ARCopulaModel.exact(dm.table if rng.random() < 0.5 else zero_table(rng, n, c))
        cfg = config(DENSE_MODES[int(rng.integers(len(DENSE_MODES)))], int(rng.integers(1, 4)),
                     int(rng.integers(1, n + 1)), float(rng.choice((0.0, 1.0, 1e3))))
        for x_next in reached_states(dm, cop, cfg):
            for enumerate_law, oracle in enumerator_pairs(cfg.mode):
                dense = outcome(lambda: enumerate_law(dm, cop, x_next, cfg))
                expected = outcome(lambda: oracle(dm, cop, x_next, cfg))
                if isinstance(expected, str):
                    assert dense == expected
                else:
                    assert_same_law(dense, expected)
                seen.append(expected if isinstance(expected, str) else None)
    assert seen.count("SupportError") >= 5 and seen.count(None) >= 5


@pytest.mark.parametrize("mode", DENSE_MODES)
def test_enumerators_reject_a_state_over_another_alphabet(mode):
    dm, cop = models(2, 2)
    for alphabet in (Alphabet(2, 3), Alphabet(3, 2)):
        x_next = SequenceState.all_masked(alphabet, 2)
        for enumerate_law, _ in enumerator_pairs(mode):
            with pytest.raises(AlphabetMismatchError):
                enumerate_law(dm, cop, x_next, config(mode, 2))
