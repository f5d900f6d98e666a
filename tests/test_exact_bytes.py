"""Byte-stable exact laws and step-count bounds.

Each law is `induced_distribution(...)` of one dense mode, chunk size and
beta over the exact models of one table; its SHA-256 is taken over the
raw bytes of the induced table's probabilities, and a cell that raises is
pinned by its error class. The bound of each table and chunk size is
pinned by `repr(elbo_bound(...))`, or by its error class. The values were
captured once and must not move: a change to the dense step or to the
bound that alters any probability in its last bit fails here, even where
the 1e-15 total-variation guard of test_induced_dense.py holds.

Run this file as a script to print the tables in the form below.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from maskdiff.errors import MaskDiffError
from maskdiff.harness import SyntheticSpec, elbo_bound, gen_data, induced_distribution
from maskdiff.models import ARCopulaModel, DiffusionMarginalModel
from maskdiff.noising import make_schedule
from maskdiff.sampler import MODE_DCD, MODE_DCD_AR_UNMASK, MODE_DIFFUSION_ONLY, SamplerConfig

from _helpers import zero_table

DENSE_MODES = (MODE_DCD, MODE_DIFFUSION_ONLY, MODE_DCD_AR_UNMASK)
CHUNKS = (1, 2)
BETAS = (0.0, 1.0)

# table name -> (build, steps)
TABLES = {
    "markov_4_3": (lambda: gen_data(SyntheticSpec("markov_chain", 4, 3, 0.8, seed=1)).floored(), 4),
    "markov_5_2": (lambda: gen_data(SyntheticSpec("markov_chain", 5, 2, 0.8, seed=1)).floored(), 5),
    "zero_4_3": (lambda: zero_table(np.random.default_rng(5), 4, 3), 4),
}

# (table, mode, chunk, beta) -> SHA-256 of the induced probabilities, or an error class
LAWS = {
    ("markov_4_3", "dcd", 1, 0.0): "2fe109012b6c5d3dcd6cbbe123ed2aebbd2d92368b02ce3cf4f62b61d1a1c672",
    ("markov_4_3", "dcd", 1, 1.0): "3e5185b16bda3e26a9d07a45849143ea50fa65620af74316f77e44c6919a00e3",
    ("markov_4_3", "dcd", 2, 0.0): "f3bdb4fbd7e1abc4ccb62d2b19a162e2c81b4fb80b519e3e8a2048622b1b4466",
    ("markov_4_3", "dcd", 2, 1.0): "656802dde86f107339c330c18deb7d23d753cd57807a78711fb280d6f4dd13f1",
    ("markov_4_3", "diffusion_only", 1, 0.0): "e3a2acfd2edc19a2c4bfdd5246c00291b8d3db718ef7a3a47544617aa4bc5c12",
    ("markov_4_3", "diffusion_only", 1, 1.0): "e3a2acfd2edc19a2c4bfdd5246c00291b8d3db718ef7a3a47544617aa4bc5c12",
    ("markov_4_3", "diffusion_only", 2, 0.0): "2424c40393dc05e64d5814875cf22b7b35f0be81f433d540c748285366e46c44",
    ("markov_4_3", "diffusion_only", 2, 1.0): "2424c40393dc05e64d5814875cf22b7b35f0be81f433d540c748285366e46c44",
    ("markov_4_3", "dcd_ar_unmask", 1, 0.0): "6b4abde3c884ed8c53b6dbbb29ef0f2435a9e3b963b3dee8c2b6c1de0c54a7d4",
    ("markov_4_3", "dcd_ar_unmask", 1, 1.0): "6b4abde3c884ed8c53b6dbbb29ef0f2435a9e3b963b3dee8c2b6c1de0c54a7d4",
    ("markov_4_3", "dcd_ar_unmask", 2, 0.0): "6b4abde3c884ed8c53b6dbbb29ef0f2435a9e3b963b3dee8c2b6c1de0c54a7d4",
    ("markov_4_3", "dcd_ar_unmask", 2, 1.0): "6b4abde3c884ed8c53b6dbbb29ef0f2435a9e3b963b3dee8c2b6c1de0c54a7d4",
    ("markov_5_2", "dcd", 1, 0.0): "6ca12602e24a7af03da782b911e29e1bb9ce1d1268b66781a48aa938753482f5",
    ("markov_5_2", "dcd", 1, 1.0): "cd8b2aa7079e5a88a4b8e7eac77eae77947f221082830086fb8e10a569249414",
    ("markov_5_2", "dcd", 2, 0.0): "6f354e083d2471c298010981d4a04281d7318c3304f40cd519012e2fc322131f",
    ("markov_5_2", "dcd", 2, 1.0): "a1f92412599e617ad8ac9019e998d4240ea14f2eb8cc32d4c256eb7fba45e284",
    ("markov_5_2", "diffusion_only", 1, 0.0): "1e58b0161c9de7909194b1dd04682870c44aba837e3a3bd3b0979ee6f53c79f8",
    ("markov_5_2", "diffusion_only", 1, 1.0): "1e58b0161c9de7909194b1dd04682870c44aba837e3a3bd3b0979ee6f53c79f8",
    ("markov_5_2", "diffusion_only", 2, 0.0): "0f101b9b7072c5e9c29c612a117058153c4226913e45469f07946c2b1f8c2d2d",
    ("markov_5_2", "diffusion_only", 2, 1.0): "0f101b9b7072c5e9c29c612a117058153c4226913e45469f07946c2b1f8c2d2d",
    ("markov_5_2", "dcd_ar_unmask", 1, 0.0): "7c10ab5138c46edb7d22ebf39a6249c74f673a705a4f20870296d91dea93c9f2",
    ("markov_5_2", "dcd_ar_unmask", 1, 1.0): "7c10ab5138c46edb7d22ebf39a6249c74f673a705a4f20870296d91dea93c9f2",
    ("markov_5_2", "dcd_ar_unmask", 2, 0.0): "7c10ab5138c46edb7d22ebf39a6249c74f673a705a4f20870296d91dea93c9f2",
    ("markov_5_2", "dcd_ar_unmask", 2, 1.0): "7c10ab5138c46edb7d22ebf39a6249c74f673a705a4f20870296d91dea93c9f2",
    ("zero_4_3", "dcd", 1, 0.0): "SupportError",
    ("zero_4_3", "dcd", 1, 1.0): "SupportError",
    ("zero_4_3", "dcd", 2, 0.0): "SupportError",
    ("zero_4_3", "dcd", 2, 1.0): "SupportError",
    ("zero_4_3", "diffusion_only", 1, 0.0): "SupportError",
    ("zero_4_3", "diffusion_only", 1, 1.0): "SupportError",
    ("zero_4_3", "diffusion_only", 2, 0.0): "SupportError",
    ("zero_4_3", "diffusion_only", 2, 1.0): "SupportError",
    ("zero_4_3", "dcd_ar_unmask", 1, 0.0): "afa46539a4e7c629b7114d4adcb9d471079a7f7bffe80776ded816bd3e0cc3b5",
    ("zero_4_3", "dcd_ar_unmask", 1, 1.0): "afa46539a4e7c629b7114d4adcb9d471079a7f7bffe80776ded816bd3e0cc3b5",
    ("zero_4_3", "dcd_ar_unmask", 2, 0.0): "afa46539a4e7c629b7114d4adcb9d471079a7f7bffe80776ded816bd3e0cc3b5",
    ("zero_4_3", "dcd_ar_unmask", 2, 1.0): "afa46539a4e7c629b7114d4adcb9d471079a7f7bffe80776ded816bd3e0cc3b5",
}

# (table, chunk) -> repr of elbo_bound, or an error class
BOUNDS = {
    ("markov_4_3", 1): "3.6547733588865836",
    ("markov_4_3", 2): "6.6775209329892",
    ("markov_5_2", 1): "2.48335799353923",
    ("markov_5_2", 2): "6.020877171584036",
    ("zero_4_3", 1): "3.898830857311282",
    ("zero_4_3", 2): "6.83978081413642",
}


def _schedule(table: str, chunk: int):
    return make_schedule("linear", TABLES[table][1], chunk_size=chunk)


def law_digest(table: str, mode: str, chunk: int, beta: float) -> str:
    data = TABLES[table][0]()
    dm, cop = DiffusionMarginalModel.exact(data), ARCopulaModel.exact(data)
    sched = _schedule(table, chunk)
    cfg = SamplerConfig(sched.steps, sched, mode, beta, chunk)
    try:
        probs = induced_distribution(dm, cop, cfg).table.probs
    except MaskDiffError as err:
        return type(err).__name__
    return hashlib.sha256(probs.tobytes()).hexdigest()


def bound_repr(table: str, chunk: int) -> str:
    try:
        return repr(elbo_bound(TABLES[table][0](), _schedule(table, chunk)))
    except MaskDiffError as err:
        return type(err).__name__


@pytest.mark.parametrize("cell", sorted(LAWS), ids=lambda cell: "-".join(map(str, cell)))
def test_law_bytes(cell):
    assert law_digest(*cell) == LAWS[cell]


@pytest.mark.parametrize("cell", sorted(BOUNDS), ids=lambda cell: "-".join(map(str, cell)))
def test_bound_repr(cell):
    assert bound_repr(*cell) == BOUNDS[cell]


def test_every_cell_is_pinned():
    assert set(LAWS) == {(t, m, k, b) for t in TABLES for m in DENSE_MODES for k in CHUNKS for b in BETAS}
    assert set(BOUNDS) == {(t, k) for t in TABLES for k in CHUNKS}


if __name__ == "__main__":
    print("LAWS = {")
    for t in TABLES:
        for m in DENSE_MODES:
            for k in CHUNKS:
                for b in BETAS:
                    print(f'    ("{t}", "{m}", {k}, {b!r}): "{law_digest(t, m, k, b)}",')
    print("}")
    print("BOUNDS = {")
    for t in TABLES:
        for k in CHUNKS:
            print(f'    ("{t}", {k}): "{bound_repr(t, k)}",')
    print("}")
