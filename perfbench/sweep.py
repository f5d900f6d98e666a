"""exact_sweep: `harness.run_sweep` over every mode with beta in {0, 1} at
shapes on the exact-enumeration cap, and cold exact evaluations of the
heaviest cell.

The sweep set is one `run_sweep` call per shape over its T list: (N, C) =
(4, 3) with T in {1, 2, 4}, (5, 2) with T in {1, 5}, and (4, 3) with
chunk_size 2 and T in {2, 4}. Each call builds its exact models, which its
cells share. The cold evaluation is dcd at (4, 3, 4) with beta 1 and fresh
models: `induced_distribution`, then `elbo_bound`. The work is the per-state dynamic programme and the
brute-force posterior; no sequence is drawn and no large-context query is
made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import maskdiff as md
from maskdiff.dist import all_states
from maskdiff.harness import EXACT_INDUCED_CAP
from maskdiff.noising import make_schedule

import gates
from common import Lane, OpRecord, Outcome, lane_seconds, scaled

BETAS = (0.0, 1.0)
EXACT_TOL = 1e-12
BOUND_TOL = 1e-9
STRENGTH = 0.8
# Cold evaluations per second of --seconds, besides the one sweep set: a run
# takes about --seconds at the commit that added this benchmark on a 2-core
# 2.0 GHz Xeon (the sweep set ~9.5 s, an evaluation ~2.2 s).
EVALS_PER_S = 0.33
# Steps at which the factorized-denoiser ELBO is checked against the bound.
NELBO_STEPS = 2


@dataclass(frozen=True)
class Params:
    # (N, C, chunk_size, steps) per sweep
    sweeps: tuple = ((4, 3, 1, (1, 2, 4)), (5, 2, 1, (1, 5)), (4, 3, 2, (2, 4)))
    eval_cell: tuple = (4, 3, 4)


@dataclass
class Inputs:
    tables: dict  # (N, C) -> JointTable
    seed: int


def setup(seed: int, p: Params) -> Inputs:
    tables = {}
    for k, (n, c) in enumerate(sorted({(s[0], s[1]) for s in p.sweeps} | {p.eval_cell[:2]})):
        data = md.gen_data(md.SyntheticSpec("markov_chain", n, c, STRENGTH, seed * 16 + k))
        all_states(data.alphabet)
        all_states(data.alphabet.with_mask())
        tables[(n, c)] = data
    return Inputs(tables, seed)


def exact_models(data: md.JointTable):
    return md.DiffusionMarginalModel.exact(data), md.ARCopulaModel.exact(data)


def sweep_one(inputs: Inputs, sweep: tuple) -> list[md.ExperimentResult]:
    n, c, chunk, steps = sweep
    data = inputs.tables[(n, c)]
    dm, copula = exact_models(data)
    return md.run_sweep(data, dm, copula, md.MODES, list(steps), BETAS, chunk_size=chunk)


def eval_cap(inputs: Inputs, p: Params) -> tuple[md.InducedResult, float]:
    n, c, steps = p.eval_cell
    data = inputs.tables[(n, c)]
    dm, copula = exact_models(data)
    sched = make_schedule("linear", steps)
    cfg = md.SamplerConfig(steps=steps, schedule=sched, mode="dcd", beta=1.0)
    induced = md.induced_distribution(dm, copula, cfg)
    return induced, md.elbo_bound(data, sched)


@dataclass
class Run:
    sweeps: list[OpRecord]  # one record per run_sweep call, in Params.sweeps order
    evals: list[OpRecord]


def counts(p: Params, seconds: float) -> dict[str, int]:
    return {"sweeps": len(p.sweeps), "evals": scaled(EVALS_PER_S, seconds)}


def lanes(inputs: Inputs, p: Params, counts: dict[str, int]) -> dict[str, Lane]:
    """The sweep set among the cold evaluations."""
    return {
        "sweeps": Lane(lambda k: sweep_one(inputs, p.sweeps[k]), counts["sweeps"]),
        "evals": Lane(lambda k: eval_cap(inputs, p), counts["evals"]),
    }


def end_to_end(run: Run) -> tuple[dict, dict]:
    eval_s = [r.seconds for r in run.evals]
    named = {
        "sweep_s": (lane_seconds(run.sweeps), "s"),
        "eval_cap_s": (float(np.median(eval_s)), "s"),
    }
    slots = {
        "main_op_per_s": (len(eval_s) / lane_seconds(run.evals), "1/s"),
        "main_op_ms_p50": (named["eval_cap_s"][0] * 1000.0, "ms"),
        "side_op_per_s": (1.0 / lane_seconds(run.sweeps), "1/s"),
    }
    return slots, named


def layer_counts(run: Run) -> dict:
    return {}


def fingerprint(run: Run) -> list:
    sweeps = [r.result for r in run.sweeps]
    evals = [None if r.result is None else (r.result[0].table.probs.tobytes(), r.result[1]) for r in run.evals]
    return [sweeps, evals]


def _cells(results: list[md.ExperimentResult]) -> dict:
    return {(r.mode, r.steps, r.beta): r for r in results}


def check(inputs: Inputs, run: Run, outcome: Outcome, p: Params) -> dict:
    for n, c, _, steps in p.sweeps:
        cells = (c + 1) ** n * max(steps)
        outcome.record(cells <= EXACT_INDUCED_CAP,
                       f"({n}, {c}, {max(steps)}) has (C+1)^N*T = {cells} > {EXACT_INDUCED_CAP}")
    check_readme(outcome)
    if any(r.result is None for r in run.sweeps):
        return {}
    swept = {(n, c, chunk): _cells(r.result) for (n, c, chunk, _), r in zip(p.sweeps, run.sweeps)}
    for n, c, chunk, steps in p.sweeps:
        check_sweep(inputs.tables[(n, c)], chunk, steps, swept[(n, c, chunk)], outcome)
    n, c, _ = p.eval_cell
    check_evals(inputs, run, swept[(n, c, 1)], outcome, p)
    return {}


def check_readme(outcome: Outcome) -> None:
    data = md.gen_data(md.SyntheticSpec("correlated_phrases", 2, 2, 0.95))
    dm, copula = exact_models(data)
    results = md.run_sweep(data, dm, copula, ["dcd", "diffusion_only"], [1, 2, 4], [1.0])
    kls = {(r.mode, r.steps): r.kl_to_data for r in results}
    outcome.record(gates.readme_table_holds(kls), f"README correlated-pair table not reproduced: {kls}")


def check_sweep(data: md.JointTable, chunk: int, steps: tuple, cells: dict, outcome: Outcome) -> None:
    """Exact identities the swept cells must satisfy, recomputed outside the
    timed region, and the swept KL of each recomputed cell."""
    dm, copula = exact_models(data)
    chain = md.ar_chain_table(copula).probs
    product = md.product_table(md.univariate_marginals(data), data.alphabet).probs
    where = f"({data.num_positions}, {data.num_categories}, chunk {chunk})"

    def induced(mode: str, t: int, beta: float) -> np.ndarray:
        sched = make_schedule("linear", t, chunk_size=chunk)
        cfg = md.SamplerConfig(steps=t, schedule=sched, mode=mode, beta=beta, chunk_size=chunk)
        res = md.induced_distribution(dm, copula, cfg)
        outcome.record(res.method == "exact", f"{where} {mode} T={t}: method {res.method}")
        swept = cells[(mode, t, beta)].kl_to_data
        outcome.record(gates.within(md.kl_to_data(data, res.table), swept, EXACT_TOL),
                       f"{where} {mode} T={t} beta={beta}: swept KL differs from recomputed")
        return res.table.probs

    expect = [("dcd_ar_unmask", t, 0.0, chain, "ar chain") for t in steps]
    if 1 in steps:
        expect += [("dcd", 1, 0.0, chain, "ar chain"), ("diffusion_only", 1, 1.0, product, "product of marginals")]
    for mode, t, beta, target, label in expect:
        tv = gates.total_variation(induced(mode, t, beta), target)
        outcome.record(tv <= EXACT_TOL, f"{where} {mode} T={t} beta={beta}: TV {tv:.3g} from the {label}")

    if NELBO_STEPS in steps:
        sched = make_schedule("linear", NELBO_STEPS, chunk_size=chunk)
        nelbo = md.nelbo_factorized(data, sched, md.optimal_factorized_denoiser(data, sched))
        bound = cells[("dcd", NELBO_STEPS, 0.0)].elbo_bound
        outcome.record(gates.within(nelbo, bound, BOUND_TOL),
                       f"{where} T={NELBO_STEPS}: optimal factorized NELBO {nelbo!r} != bound {bound!r}")


def check_evals(inputs: Inputs, run: Run, cells: dict, outcome: Outcome, p: Params) -> None:
    """Every cold evaluation equals the swept cell it repeats."""
    n, c, steps = p.eval_cell
    data = inputs.tables[(n, c)]
    cell = cells[("dcd", steps, 1.0)]
    for k, rec in enumerate(run.evals):
        if rec.result is None:
            continue
        induced, bound = rec.result
        outcome.record(induced.method == "exact", f"eval {k}: method {induced.method}")
        outcome.record(gates.within(md.kl_to_data(data, induced.table), cell.kl_to_data, EXACT_TOL),
                       f"eval {k}: KL differs from the swept cell")
        outcome.record(gates.within(bound, cell.elbo_bound, EXACT_TOL),
                       f"eval {k}: elbo_bound differs from the swept cell")
