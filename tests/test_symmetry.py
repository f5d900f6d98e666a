"""Metamorphic relations: identities between runs that share no code with
the per-state oracles.

Relabelling each position's categories, or reversing the positions, must
move an exact law as it moves the tables it is built from, and leave the
step-count bound where it was. A chunk as long as the sequence reveals
every position in one step, so diffusion_only is the product of its
marginal model's marginals there and dcd is its copula's chain. On a
product table dcd and diffusion_only are exact. Each relation is checked
on a seeded grid with both models fitted from 300 draws, so that no
identity of exact models can hide an index fault.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from maskdiff.dist import Alphabet, JointTable, product_table, sample_states, univariate_marginals
from maskdiff.harness import (
    DATA_KINDS,
    EXACT_INDUCED_CAP,
    SyntheticSpec,
    elbo_bound,
    gen_data,
    induced_distribution,
)
from maskdiff.models import ARCopulaModel, DiffusionMarginalModel, ar_chain_table
from maskdiff.noising import make_schedule
from maskdiff.sampler import MODE_AR_ONLY, MODE_DCD, MODE_DIFFUSION_ONLY, SamplerConfig

from _helpers import random_rows

SHAPES = ((3, 3), (4, 3), (4, 2), (5, 2))
SEEDS = (1, 2)
DRAWS = 300
CHUNKS = (1, 2)
STEPS = (1, 2, 3)
TV_TOL = 1e-14
BOUND_REL = 1e-13

GRID = [(n, c, kind, seed) for n, c in SHAPES for kind in DATA_KINDS for seed in SEEDS]


def grid_id(cell) -> str:
    return "-".join(map(str, cell))


@functools.cache
def data_table(n: int, c: int, kind: str, seed: int) -> JointTable:
    return gen_data(SyntheticSpec(kind, n, c, 0.8, seed=seed)).floored()


@functools.cache
def fitted_tables(n: int, c: int, kind: str, seed: int) -> tuple[JointTable, JointTable]:
    """(marginal model table, copula table), each fitted from DRAWS draws."""
    data, alphabet = data_table(n, c, kind, seed), Alphabet(n, c)
    dm_draws = sample_states(data, DRAWS, np.random.default_rng(11))
    cop_draws = sample_states(data, DRAWS, np.random.default_rng(7))
    return (DiffusionMarginalModel.from_corpus(dm_draws, alphabet).table,
            ARCopulaModel.from_corpus(cop_draws, alphabet).table)


def models(tables: tuple[JointTable, JointTable]):
    dm_table, cop_table = tables
    return DiffusionMarginalModel(dm_table, "counts"), ARCopulaModel(cop_table, "counts")


def law(tables, mode: str, steps: int, chunk: int) -> JointTable:
    dm, cop = models(tables)
    cfg = SamplerConfig(steps, make_schedule("linear", steps, chunk_size=chunk), mode, 1.0, chunk)
    return induced_distribution(dm, cop, cfg).table


def moved(table: JointTable, axes: tuple[int, ...] | None = None,
          perms: list[np.ndarray] | None = None) -> JointTable:
    """table with its positions permuted to `axes` (new position i is old
    axes[i]), then each position i's categories relabelled by perms[i]
    (old category k becomes perms[i][k])."""
    tensor = table.tensor() if axes is None else np.transpose(table.tensor(), axes)
    if perms is not None:
        tensor = tensor[np.ix_(*(np.argsort(p) for p in perms))]
    return JointTable(table.alphabet, np.ascontiguousarray(tensor).ravel())


def reversed_positions(table: JointTable) -> JointTable:
    return moved(table, axes=tuple(range(table.num_positions - 1, -1, -1)))


def relabelling(n: int, c: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(1600 + seed)
    return [rng.permutation(c) for _ in range(n)]


def tv(p: JointTable, q: JointTable) -> float:
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def steps_under_cap(n: int, c: int) -> tuple[int, ...]:
    return tuple(t for t in STEPS if (c + 1) ** n * t <= EXACT_INDUCED_CAP)


def reversible(n: int, chunk: int) -> bool:
    """Reversal maps the chunking to itself only when every chunk is full:
    `chunk_groups` puts a short chunk last."""
    return n % chunk == 0


@pytest.mark.parametrize("cell", GRID, ids=grid_id)
def test_laws_follow_a_relabelling_of_each_position(cell):
    n, c, _, seed = cell
    perms = relabelling(n, c, seed)
    tables = fitted_tables(*cell)
    relabelled = tuple(moved(t, perms=perms) for t in tables)
    for mode in (MODE_DCD, MODE_DIFFUSION_ONLY, MODE_AR_ONLY):
        for chunk in CHUNKS:
            for steps in steps_under_cap(n, c):
                expected = moved(law(tables, mode, steps, chunk), perms=perms)
                got = law(relabelled, mode, steps, chunk)
                assert tv(got, expected) <= TV_TOL, (mode, chunk, steps)


@pytest.mark.parametrize("cell", GRID, ids=grid_id)
def test_diffusion_only_law_follows_a_reversal_of_the_positions(cell):
    n, c = cell[:2]
    tables = fitted_tables(*cell)
    flipped = tuple(map(reversed_positions, tables))
    for chunk in (k for k in CHUNKS if reversible(n, k)):
        for steps in steps_under_cap(n, c):
            expected = reversed_positions(law(tables, MODE_DIFFUSION_ONLY, steps, chunk))
            got = law(flipped, MODE_DIFFUSION_ONLY, steps, chunk)
            assert tv(got, expected) <= TV_TOL, (chunk, steps)


@pytest.mark.parametrize("family", ["linear", "log-linear"])
@pytest.mark.parametrize("cell", GRID, ids=grid_id)
def test_bound_is_invariant_under_relabelling_and_reversal(cell, family):
    n, c, _, seed = cell
    data = data_table(*cell)
    relabelled = moved(data, perms=relabelling(n, c, seed))
    flipped = reversed_positions(data)
    for chunk in range(1, n + 1):
        for steps in STEPS:
            sched = make_schedule(family, steps, chunk_size=chunk)
            bound = elbo_bound(data, sched)
            moved_tables = (relabelled, flipped) if reversible(n, chunk) else (relabelled,)
            for table in moved_tables:
                moved_bound = elbo_bound(table, sched)
                assert math.isclose(moved_bound, bound, rel_tol=BOUND_REL), (chunk, steps)


@pytest.mark.parametrize("cell", GRID, ids=grid_id)
def test_one_chunk_reveals_the_whole_sequence_in_one_step(cell):
    n, c = cell[:2]
    tables = fitted_tables(*cell)
    dm, cop = models(tables)
    product = product_table(univariate_marginals(dm.table), dm.alphabet)
    chain = ar_chain_table(cop)
    for steps in steps_under_cap(n, c):
        assert tv(law(tables, MODE_DIFFUSION_ONLY, steps, n), product) <= TV_TOL, steps
        assert tv(law(tables, MODE_DCD, steps, n), chain) <= TV_TOL, steps


@pytest.mark.parametrize("n, c", [(3, 3), (4, 2), (4, 3)])
def test_dense_modes_are_exact_on_product_tables(n, c):
    rng = np.random.default_rng(1601 + n * c)
    data = product_table(random_rows(rng, n, c), Alphabet(n, c))
    tables = (data, data)
    for mode in (MODE_DCD, MODE_DIFFUSION_ONLY):
        for chunk in CHUNKS:
            for steps in steps_under_cap(n, c):
                assert tv(law(tables, mode, steps, chunk), data) <= TV_TOL, (mode, chunk, steps)
