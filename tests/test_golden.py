"""Byte-stable outputs against committed fixtures.

The sweep CSV, the sample traces and `maskdiff verify all`'s report are
promised to be byte-stable for a fixed config and seed. These tests compare
them with files under `tests/golden/`, so a refactor that changes any
printed digit fails here. Run this module as a script to rewrite the
fixtures after an intended change to the outputs.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from maskdiff.cli import main
from maskdiff.harness import SyntheticSpec, gen_data, results_to_csv, run_sweep
from maskdiff.models import ARCopulaModel, DiffusionMarginalModel
from maskdiff.noising import make_schedule
from maskdiff.sampler import MODES, SamplerConfig, sample

GOLDEN = Path(__file__).parent / "golden"


def readme_pair_csv(tmp_path: Path) -> str:
    """The README's sweep of the correlated (2, 2, 0.95) pair, through the CLI."""
    data = tmp_path / "data.json"
    assert main(["gen-data", "--kind", "correlated_phrases", "--num-positions", "2",
                 "--num-categories", "2", "--correlation-strength", "0.95",
                 "--out", str(data)]) == 0
    out = tmp_path / "sweep"
    assert main(["--out-dir", str(out), "sweep", "--data", str(data),
                 "--modes", ",".join(MODES), "--steps-list", "1,2,4",
                 "--beta-list", "0.1,1.0"]) == 0
    return (out / "results.csv").read_text(encoding="utf-8")


def exact_models(spec: SyntheticSpec):
    table = gen_data(spec).floored()
    return table, DiffusionMarginalModel.exact(table), ARCopulaModel.exact(table)


def chunked_sweep_csv() -> str:
    """Every mode at (4, 2) with chunk_size 2."""
    data, dm, cop = exact_models(SyntheticSpec("markov_chain", 4, 2, 0.8, seed=3))
    results = run_sweep(data, dm, cop, MODES, [1, 2, 4], [0.0, 1.0], chunk_size=2)
    return results_to_csv(results)


def trace(mode: str, chunk: int = 1) -> str:
    _, dm, cop = exact_models(SyntheticSpec("markov_chain", 4, 3, 0.8, seed=5))
    sched = make_schedule("linear", 3, chunk_size=chunk)
    cfg = SamplerConfig(steps=3, schedule=sched, mode=mode, beta=1.0,
                        chunk_size=chunk, seed=17)
    return sample(dm, cop, cfg)[1].dumps()


def verify_all_stdout() -> str:
    """`maskdiff verify all`'s stdout: one line per check and the summary."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "all"]) == 0
    return out.getvalue()


TRACES = {f"trace_{mode}.txt": (mode, 1) for mode in MODES}
TRACES["trace_dcd_chunk2.txt"] = ("dcd", 2)


def test_readme_pair_sweep_csv(tmp_path):
    assert readme_pair_csv(tmp_path) == (GOLDEN / "readme_pair_results.csv").read_text()


def test_chunked_sweep_csv():
    assert chunked_sweep_csv() == (GOLDEN / "chunked_4x2_results.csv").read_text()


def test_verify_all_report():
    assert verify_all_stdout() == (GOLDEN / "verify_all.txt").read_text()


@pytest.mark.parametrize("name", sorted(TRACES))
def test_trace_dump(name):
    assert trace(*TRACES[name]) == (GOLDEN / name).read_text()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {"readme_pair_results.csv": readme_pair_csv(Path(tmp)),
                   "chunked_4x2_results.csv": chunked_sweep_csv(),
                   "verify_all.txt": verify_all_stdout()}
    outputs.update({name: trace(*args) for name, args in TRACES.items()})
    for name, text in outputs.items():
        (GOLDEN / name).write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
