"""sample_stream: closed-loop `sampler.sample` streams at (N, C, T) = (8, 4, 8).

The data table is one `markov_chain` table (strength 0.8); the seed picks
the draws. Each mode gets its own exact models, built once in set-up, so
every stream starts with cold query caches. The dcd lane runs long enough
for the model's 4,096-entry query cache to fill and freeze, which is where
a cache-policy or precomputation change would show. The baseline lane
draws diffusion_only, dcd_ar_unmask and ar_only sequences in turn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import maskdiff as md
from maskdiff.dist import all_states
from maskdiff.noising import make_schedule

import gates
from common import Lane, OpRecord, Outcome, lane_seconds, ms, scaled

BASELINES = ("diffusion_only", "dcd_ar_unmask", "ar_only")
STRENGTH = 0.8
# One table for every run; --seed picks the draws. How much of the dcd
# stream a cache can reuse depends on the table: the cost per sequence
# differs by up to 30% between seeded tables.
TABLE_SEED = 1
# Operations per second of --seconds: a run takes about that long at the
# commit that added this benchmark on a 2-core 2.0 GHz Xeon (a dcd sequence
# ~30 ms, a baseline round ~19 ms).
DCD_PER_S = 23.0
ROUNDS_PER_S = 13.0
# Sequences of each mode whose whole trace is kept and redrawn by the gates.
REPLAY_FIRST = 3
# The chi-square law check runs at a fixed small shape and fixed seeds, so
# its verdict is the same in every run.
CHI2_SHAPE = (3, 2, 3)
CHI2_SEED = 20241002


@dataclass(frozen=True)
class Params:
    n: int = 8
    c: int = 4
    steps: int = 8
    # Distinct full-context query contexts the dcd lane must reach: the size
    # of the models' query cache, so the stream outlives the cache.
    min_distinct: int = 4096
    chi2_draws: int = 2000


@dataclass
class Inputs:
    data: md.JointTable
    lanes: dict  # mode -> (dm, copula, cfg)
    seed: int


def setup(seed: int, p: Params) -> Inputs:
    data = md.gen_data(md.SyntheticSpec("markov_chain", p.n, p.c, STRENGTH, TABLE_SEED))
    all_states(data.alphabet)
    sched = make_schedule("linear", p.steps)
    lanes = {}
    for mode in md.MODES:
        cfg = md.SamplerConfig(steps=p.steps, schedule=sched, mode=mode, beta=1.0, seed=seed)
        lanes[mode] = (md.DiffusionMarginalModel.exact(data), md.ARCopulaModel.exact(data), cfg)
    return Inputs(data, lanes, seed)


@dataclass(frozen=True)
class Drawn:
    """What a record keeps of a drawn sequence: what the gates and the
    per-layer counts read, not the whole trace."""

    tokens: tuple[int, ...]
    time: int
    x_next: tuple[tuple[int, ...], ...]  # each step's x_next tokens
    queries: tuple[tuple[str, tuple[int, ...]], ...]  # (full or causal, x_next) per marginal query
    copula_queries: int
    dump: str | None  # the trace's dumps(), for the first REPLAY_FIRST sequences of a mode


def drawn(result, replay: bool) -> Drawn:
    x, trace = result
    queries = []
    for rec in trace.steps:
        if rec.full is not None:
            queries.append(("full", rec.x_next.tokens))
        if rec.causal is not None:
            queries.append(("causal", rec.x_next.tokens))
    return Drawn(x.tokens, x.time, tuple(rec.x_next.tokens for rec in trace.steps), tuple(queries),
                 trace.copula_queries_total, trace.dumps() if replay else None)


@dataclass
class Run:
    dcd: list[OpRecord]
    baselines: list[OpRecord]  # BASELINES in turn, a whole number of rounds

    def per_mode(self) -> dict[str, list[OpRecord]]:
        out = {"dcd": self.dcd}
        for k, mode in enumerate(BASELINES):
            out[mode] = self.baselines[k :: len(BASELINES)]
        return out


def _drawer(inputs: Inputs, mode: str):
    dm, copula, cfg = inputs.lanes[mode]
    rng = np.random.default_rng([inputs.seed, md.MODES.index(mode)])
    return lambda: md.sample(dm, copula, cfg, rng)


def counts(p: Params, seconds: float) -> dict[str, int]:
    return {"dcd": scaled(DCD_PER_S, seconds),
            "baselines": len(BASELINES) * scaled(ROUNDS_PER_S, seconds)}


def lanes(inputs: Inputs, p: Params, counts: dict[str, int]) -> dict[str, Lane]:
    draw_dcd = _drawer(inputs, "dcd")
    draws = [_drawer(inputs, mode) for mode in BASELINES]
    return {
        "dcd": Lane(lambda k: draw_dcd(), counts["dcd"],
                    keep=lambda k, result: drawn(result, k < REPLAY_FIRST)),
        "baselines": Lane(lambda k: draws[k % len(draws)](), counts["baselines"],
                          keep=lambda k, result: drawn(result, k < REPLAY_FIRST * len(BASELINES))),
    }


def _ok(records: list[OpRecord]) -> list:
    return [r.result for r in records if r.result is not None]


def full_contexts(results: list[Drawn], n: int, mask: int) -> set[tuple[int, ...]]:
    """Contexts a run asks full-context rows for: every step's x_next, and
    the N prefix contexts a causal query conditions on."""
    out: set[tuple[int, ...]] = set()
    for d in results:
        for tok in d.x_next:
            out.add(tok)
            out.update(tok[:i] + (mask,) * (n - i) for i in range(n))
    return out


def reuse_ratio(run: Run) -> float:
    """1 - distinct / total for the (kind, context) queries the sampler makes
    of each mode's marginal model: the hit ratio an unbounded cache could
    reach. 0 when no marginal query was made."""
    total = distinct = 0
    for mode, records in run.per_mode().items():
        keys = [q for d in _ok(records) for q in d.queries]
        total += len(keys)
        distinct += len(set(keys))
    return 1.0 - distinct / total if total else 0.0


def end_to_end(run: Run) -> tuple[dict, dict]:
    """(shared slots, named metrics)."""
    modes = run.per_mode()
    named = {}
    for mode, records in modes.items():
        named[f"{mode}_seq_per_s"] = (len(records) / lane_seconds(records), "1/s")
    dcd_ms = ms([r.seconds for r in run.dcd])
    named["dcd_seq_ms_p50"] = (float(np.median(dcd_ms)), "ms")
    named["dcd_seq_ms_p90"] = (float(np.quantile(dcd_ms, 0.9)), "ms")
    slots = {
        "main_op_per_s": named["dcd_seq_per_s"],
        "main_op_ms_p50": named["dcd_seq_ms_p50"],
        "side_op_per_s": (len(run.baselines) / len(BASELINES) / lane_seconds(run.baselines), "1/s"),
    }
    return slots, named


def layer_counts(run: Run) -> dict:
    queries = sum(d.copula_queries for recs in run.per_mode().values() for d in _ok(recs))
    return {
        "models.reuse_ratio": (reuse_ratio(run), "ratio"),
        "sampler.copula_queries": (queries, "count"),
    }


def fingerprint(run: Run) -> list:
    return [None if r.result is None else r.result.tokens for r in run.dcd + run.baselines]


def check(inputs: Inputs, run: Run, outcome: Outcome, p: Params) -> dict:
    n, c = p.n, p.c
    mask = inputs.data.alphabet.mask_index
    for mode, records in run.per_mode().items():
        results = _ok(records)
        outcome.record(
            gates.outputs_valid([d.tokens for d in results], n, c) and all(d.time == 0 for d in results),
            f"{mode}: an output is masked or out of range",
        )
    distinct = len(full_contexts(_ok(run.dcd), n, mask))
    outcome.record(distinct > p.min_distinct,
                   f"dcd lane reached {distinct} distinct full contexts, needs > {p.min_distinct}")

    # Each stream's first sequences again, from fresh models and generators.
    fresh = setup(inputs.seed, p)
    for mode, records in run.per_mode().items():
        draw = _drawer(fresh, mode)
        for k, rec in enumerate(records[:REPLAY_FIRST]):
            if rec.result is None:
                break
            again = draw()
            outcome.record(again[1].dumps() == rec.result.dump,
                           f"{mode}: sequence {k} differs when redrawn at the same seed")

    check_laws(outcome, p)
    return {}


def check_laws(outcome: Outcome, p: Params) -> None:
    """Each mode's empirical law against `induced_distribution`, exactly
    evaluated at a small shape."""
    n, c, steps = CHI2_SHAPE
    data = md.gen_data(md.SyntheticSpec("markov_chain", n, c, STRENGTH, CHI2_SEED))
    sched = make_schedule("linear", steps)
    for mode in md.MODES:
        dm, copula = md.DiffusionMarginalModel.exact(data), md.ARCopulaModel.exact(data)
        cfg = md.SamplerConfig(steps=steps, schedule=sched, mode=mode, seed=CHI2_SEED)
        law = md.induced_distribution(dm, copula, cfg)
        outcome.record(law.method == "exact", f"{mode}: induced law is {law.method}")
        rng = np.random.default_rng(CHI2_SEED)
        counts = np.zeros(data.alphabet.num_states)
        weights = c ** np.arange(n - 1, -1, -1)
        for _ in range(p.chi2_draws):
            x, _ = md.sample(dm, copula, cfg, rng)
            counts[int(np.dot(x.tokens, weights))] += 1
        outcome.record(gates.chi2_passes(counts, law.table.probs),
                       f"{mode}: empirical law fails chi-square against induced_distribution")
