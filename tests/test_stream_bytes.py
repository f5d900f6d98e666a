"""Byte-stable seeded sample streams, whatever the query cache holds.

Each stream draws SEQUENCES sequences of one mode from one generator at
(N, C, T) = (6, 3, 6) on a markov_chain table, and hashes every trace's
`dumps()` in turn. The hashes were captured once and must not move: a
change to the reverse step that alters any drawn token, any printed row
or the order of RNG draws fails here. Every stream runs again with the
models' query cache disabled (every query misses) and with a small cap
(the cache freezes after a few contexts), so the rows a miss computes,
the rows a hit returns and the rows a frozen cache recomputes must all
print the same bytes and draw the same tokens.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from maskdiff import models
from maskdiff.harness import SyntheticSpec, gen_data
from maskdiff.models import ARCopulaModel, DiffusionMarginalModel
from maskdiff.noising import make_schedule
from maskdiff.sampler import MODES, SamplerConfig, sample

N, C, STEPS = 6, 3, 6
SEQUENCES = 100
SPEC = SyntheticSpec("markov_chain", N, C, 0.8, seed=11)
SEED = 29

# stream name -> (mode, chunk_size, SHA-256 of the stream's trace dumps)
STREAMS = {
    "dcd": ("dcd", 1, "646cc2fdbc2244ede9e282722b82566ea81af80d9a05f0510dee85f351f1a465"),
    "diffusion_only": ("diffusion_only", 1, "579f245a264458d376252a2ef0ed4bb327289de3f7633c5ab44f5b7b3eee9360"),
    "ar_only": ("ar_only", 1, "50c6f7e7d0c1a296555a6fcb67ef29aa89390bcee70904917ffd661ff0c6922a"),
    "dcd_ar_unmask": ("dcd_ar_unmask", 1, "6961b49eae68525aa3a10e0d436dd6dc78192c77d0706ccb811e4454aae1bfce"),
    "dcd_chunk2": ("dcd", 2, "9e3bdbaa62c774ea863291df59494af036783d6cf465d386c44dd495da10cc87"),
}


def stream_hash(mode: str, chunk: int) -> str:
    data = gen_data(SPEC)
    dm, cop = DiffusionMarginalModel.exact(data), ARCopulaModel.exact(data)
    sched = make_schedule("linear", STEPS, chunk_size=chunk)
    cfg = SamplerConfig(steps=STEPS, schedule=sched, mode=mode, chunk_size=chunk, seed=SEED)
    rng = np.random.default_rng([SEED, MODES.index(mode), chunk])
    digest = hashlib.sha256()
    for _ in range(SEQUENCES):
        digest.update(sample(dm, cop, cfg, rng)[1].dumps().encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_bytes(name):
    mode, chunk, expected = STREAMS[name]
    assert stream_hash(mode, chunk) == expected


@pytest.mark.parametrize("cap", [0, 16])
@pytest.mark.parametrize("name", sorted(STREAMS))
def test_dcd_stream_bytes_do_not_depend_on_the_query_cache(monkeypatch, name, cap):
    mode, chunk, expected = STREAMS[name]
    monkeypatch.setattr(models, "_QUERY_CACHE_CAP", cap)
    assert stream_hash(mode, chunk) == expected


if __name__ == "__main__":
    for name, (mode, chunk, _) in STREAMS.items():
        print(f'    "{name}": ("{mode}", {chunk}, "{stream_hash(mode, chunk)}"),')
