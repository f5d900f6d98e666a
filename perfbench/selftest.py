"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted, with its unit,
by the untraced and the traced run of every workload, and that each
correctness gate fails when handed a corrupted result. Exits 1 on the
first check that does not hold.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run as bench  # sets up the import path and the thread pinning

import numpy as np

import maskdiff as md

import gates
import projection
import stream
import sweep
from common import Outcome

TINY = {
    "sample_stream": stream.Params(n=3, c=2, steps=2, min_distinct=3, chi2_draws=300),
    "exact_sweep": sweep.Params(sweeps=((3, 2, 1, (1, 2)), (3, 2, 2, (2,))), eval_cell=(3, 2, 2)),
    "projection": projection.Params(small=(3, 2), large=(4, 3), min_index_bytes=0,
                                    copula_shape=(3, 2), descent_shape=(3, 2), oracle_tables=2),
}
SECONDS = 0.2
SEED = 5


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"selftest FAILED: {what}")
        sys.exit(1)
    print(f"ok  {what}")


def fails(check, what: str) -> None:
    """check(outcome) must record at least one failed gate."""
    outcome = Outcome()
    check(outcome)
    expect(outcome.failed > 0, f"gate catches {what}")


def check_metric_names() -> None:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload, params in TINY.items():
        for trace, wanted in ((False, end_to_end), (True, per_layer)):
            outcome, _, metrics, _ = bench.collect(workload, SEED, SECONDS, trace, params)
            expect(outcome.failed == 0, f"{workload} trace={int(trace)} passes its gates: {outcome.failures}")
            units = {name: unit for name, (_, unit) in metrics.items()}
            expect(units == wanted, f"{workload} trace={int(trace)} emits every metric with its unit")


def check_stream_gates() -> None:
    p = TINY["sample_stream"]
    inputs = stream.setup(SEED, p)
    run = bench.measure(stream, inputs, p, stream.counts(p, SECONDS), Outcome())

    swapped = dataclasses.replace(run, dcd=list(run.dcd))
    first = swapped.dcd[0].result.dump
    k = next(k for k, r in enumerate(swapped.dcd) if r.result.dump not in (None, first))
    swapped.dcd[0], swapped.dcd[k] = swapped.dcd[k], swapped.dcd[0]
    fails(lambda o: stream.check(inputs, swapped, o, p), "a swapped sample")

    masked = dataclasses.replace(run, dcd=list(run.dcd))
    drawn = masked.dcd[0].result
    bad = dataclasses.replace(drawn, tokens=(p.c,) + drawn.tokens[1:])
    masked.dcd[0] = dataclasses.replace(masked.dcd[0], result=bad)
    fails(lambda o: stream.check(inputs, masked, o, p), "a masked output")

    strict = dataclasses.replace(p, min_distinct=10**9)
    fails(lambda o: stream.check(inputs, run, o, strict), "a stream that stops before the cache fills")

    law = np.array([0.1, 0.2, 0.3, 0.4])
    counts = np.array([100.0, 200.0, 300.0, 400.0])
    expect(gates.chi2_passes(counts, law), "chi-square accepts counts that follow the law")
    expect(not gates.chi2_passes(counts[::-1], law), "chi-square rejects swapped counts")
    expect(not gates.chi2_passes(counts, np.array([0.0, 0.3, 0.3, 0.4])), "chi-square rejects draws off the support")


def check_sweep_gates() -> None:
    p = TINY["exact_sweep"]
    inputs = sweep.setup(SEED, p)
    run = bench.measure(sweep, inputs, p, sweep.counts(p, SECONDS), Outcome())

    def perturbed_kl(results: list, cell: tuple) -> list:
        return [dataclasses.replace(r, kl_to_data=r.kl_to_data + 1e-6)
                if (r.mode, r.steps, r.beta) == cell else r for r in results]

    def with_sweeps(change) -> sweep.Run:
        return dataclasses.replace(run, sweeps=[dataclasses.replace(r, result=change(r.result)) for r in run.sweeps])

    for cell in (("dcd_ar_unmask", 2, 0.0), ("dcd", 1, 0.0), ("diffusion_only", 1, 1.0)):
        bad = with_sweeps(lambda results: perturbed_kl(results, cell))
        fails(lambda o: sweep.check(inputs, bad, o, p), f"a perturbed swept cell {cell}")

    bad = with_sweeps(lambda results: [dataclasses.replace(r, elbo_bound=r.elbo_bound * (1 + 1e-6)) for r in results])
    fails(lambda o: sweep.check(inputs, bad, o, p), "a perturbed elbo_bound")

    induced, bound = run.evals[0].result
    probs = induced.table.probs.copy()
    probs[[0, 1]] = probs[[1, 0]]
    table = md.JointTable(induced.table.alphabet, probs)
    bad = dataclasses.replace(run, evals=[dataclasses.replace(run.evals[0], result=(md.InducedResult(table, "exact"), bound))])
    fails(lambda o: sweep.check(inputs, bad, o, p), "a perturbed induced table")
    mc = md.InducedResult(induced.table, "monte_carlo", 10, 0.1)
    bad = dataclasses.replace(run, evals=[dataclasses.replace(run.evals[0], result=(mc, bound))])
    fails(lambda o: sweep.check(inputs, bad, o, p), "a Monte Carlo induced result")

    kls = {cell: float(text) for cell, text in gates.README_KL.items()}
    expect(gates.readme_table_holds(kls), "README table accepts its own values")
    kls[("diffusion_only", 2)] += 0.001
    expect(not gates.readme_table_holds(kls), "README table rejects a changed value")


def check_projection_gates() -> None:
    p = TINY["projection"]
    inputs = projection.setup(SEED, p)
    run = bench.measure(projection, inputs, p, projection.counts(p, SECONDS), Outcome())

    v, report, marginals = run.small[0].result
    table, _ = inputs.first[0]
    probs = md.apply_factors(table, v)[0].probs.copy()
    probs[[0, -1]] = probs[[-1, 0]]
    moved = gates.table_marginals(probs, *p.small)
    bad = dataclasses.replace(run, small=[dataclasses.replace(run.small[0], result=(v, report, moved))])
    fails(lambda o: projection.check(inputs, bad, o, p), "a perturbed projected table")

    stuck = dataclasses.replace(report, converged=False)
    bad = dataclasses.replace(run, small=[dataclasses.replace(run.small[0], result=(v, stuck, marginals))])
    fails(lambda o: projection.check(inputs, bad, o, p), "an unconverged solve")

    def early_descent(table, target):
        return md.iproject_descent(table, target, max_iter=2)

    fails(lambda o: projection.check_oracles(SEED, o, p, descent=early_descent), "a descent solve stopped early")

    too_big = dataclasses.replace(p, min_index_bytes=10**12)
    fails(lambda o: projection.check(inputs, run, o, too_big), "a large lane that fits in cache")


def main() -> int:
    check_stream_gates()
    check_sweep_gates()
    check_projection_gates()
    check_metric_names()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
