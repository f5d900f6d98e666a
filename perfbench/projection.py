"""projection: `iproj.iproject_exact` on seeded random positive tables and
target rows, then `iproj.apply_factors` to form the projected table.

Two sizes vary the working set against the CPU caches: (8, 4) has 65,536
states and fits in cache, so many projections run; (10, 4) has 1,048,576
states and an `all_states` index array of 80 MiB, on the scale of the L3
cache, so a few run. This is the
only workload whose work is the IPF and `dist` kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import maskdiff as md
from maskdiff.dist import POSITIVITY_FLOOR, all_states

import gates
from common import Lane, OpRecord, Outcome, lane_seconds, ms, scaled

GAP_TOL = 1e-9  # on the projected table's marginals; IPF stops at 1e-10
DESCENT_TV_TOL = 1e-6
# Bytes each IPF sweep moves per state and position, computed from array
# sizes: the row's bincount reads an int64 index and a float64 weight (16),
# the weight update reads the index, the gathered factor and the weight and
# writes the weight (32), and the convergence bincount reads 16 more.
IPF_BYTES_PER_STATE_POSITION = 64
# Projections per second of --seconds: a run takes about that long at the
# commit that added this benchmark on a 2-core 2.0 GHz Xeon (~60 ms small,
# ~1.25 s large).
SMALL_PER_S = 6.5
LARGE_PER_S = 0.45


@dataclass(frozen=True)
class Params:
    small: tuple[int, int] = (8, 4)
    large: tuple[int, int] = (10, 4)
    # The large lane's index array must exceed this: a working set on the
    # scale of the L3 cache, where the small lane's is 4 MiB.
    min_index_bytes: int = 64 * 2**20
    copula_shape: tuple[int, int] = (5, 2)
    descent_shape: tuple[int, int] = (4, 3)
    oracle_tables: int = 3


@dataclass
class Inputs:
    seed: int
    first: tuple  # the first instance of each lane, made in set-up


def instance(seed: int, lane: int, k: int, n: int, c: int) -> tuple[md.JointTable, md.MarginalSet]:
    """The k-th random positive table and target rows of a lane."""
    rng = np.random.default_rng([seed, lane, k])
    table = md.gen_data(md.SyntheticSpec("random_dirichlet", n, c, seed=int(rng.integers(2**31))))
    return table, md.MarginalSet(rng.dirichlet(np.ones(c), size=n))


def setup(seed: int, p: Params) -> Inputs:
    first = []
    for lane, (n, c) in enumerate((p.small, p.large)):
        all_states(md.Alphabet(n, c))
        first.append(instance(seed, lane, 0, n, c))
    return Inputs(seed, tuple(first))


def problem(inputs: Inputs, p: Params, lane: int, k: int) -> tuple[md.JointTable, md.MarginalSet]:
    shape = (p.small, p.large)[lane]
    return inputs.first[lane] if k == 0 else instance(inputs.seed, lane, k, *shape)


def project(problem: tuple[md.JointTable, md.MarginalSet]):
    table, target = problem
    v, report = md.iproject_exact(table, target)
    projected, _ = md.apply_factors(table, v)
    return v, report, projected


def keep(k: int, result) -> tuple:
    """What a record holds: V, the report and the projected table's
    marginals, not the table itself."""
    v, report, projected = result
    return v, report, gates.table_marginals(projected.probs, projected.num_positions, projected.num_categories)


@dataclass
class Run:
    small: list[OpRecord]
    large: list[OpRecord]


def counts(p: Params, seconds: float) -> dict[str, int]:
    return {"small": scaled(SMALL_PER_S, seconds), "large": scaled(LARGE_PER_S, seconds)}


def lanes(inputs: Inputs, p: Params, counts: dict[str, int]) -> dict[str, Lane]:
    """Projections at each size; each instance is made outside the timed call."""
    return {
        name: Lane(project, counts[name], lambda k, lane=lane: problem(inputs, p, lane, k), keep)
        for lane, name in enumerate(("small", "large"))
    }


def end_to_end(run: Run) -> tuple[dict, dict]:
    small_ms = ms([r.seconds for r in run.small])
    named = {
        "ipf_ms_p50": (float(np.median(small_ms)), "ms"),
        "ipf_ms_p90": (float(np.quantile(small_ms, 0.9)), "ms"),
        "ipf_large_s": (float(np.median([r.seconds for r in run.large])), "s"),
    }
    slots = {
        "main_op_per_s": (len(run.small) / lane_seconds(run.small), "1/s"),
        "main_op_ms_p50": named["ipf_ms_p50"],
        "side_op_per_s": (len(run.large) / lane_seconds(run.large), "1/s"),
    }
    return slots, named


def layer_counts(run: Run) -> dict:
    sweeps = moved = 0
    for r in run.small + run.large:
        if r.result is None:
            continue
        _, report, marginals = r.result
        n, c = marginals.shape
        sweeps += report.iterations
        moved += report.iterations * n * c**n * IPF_BYTES_PER_STATE_POSITION
    return {
        "iproj.iproject_exact.sweeps": (sweeps, "count"),
        "iproj.ipf_computed_mb": (moved / 1e6, "MB"),
    }


def fingerprint(run: Run) -> list:
    return [None if r.result is None else r.result[0].values.tobytes() for r in run.small + run.large]


def check(inputs: Inputs, run: Run, outcome: Outcome, p: Params) -> dict:
    index_bytes = all_states(md.Alphabet(*p.large)).nbytes
    outcome.record(index_bytes > p.min_index_bytes,
                   f"large index array is {index_bytes} bytes, needs > {p.min_index_bytes}")
    for lane, (name, records) in enumerate((("small", run.small), ("large", run.large))):
        for k, r in enumerate(records):
            if r.result is None:
                continue
            _, report, marginals = r.result
            _, target = problem(inputs, p, lane, k)
            outcome.record(report.converged, f"{name} {k}: IPF did not converge ({report})")
            rows = np.maximum(target.rows, POSITIVITY_FLOOR)
            rows = rows / rows.sum(axis=1, keepdims=True)
            outcome.record(gates.rows_match(marginals, rows, GAP_TOL),
                           f"{name} {k}: projected marginals miss the target")
    iterations = check_oracles(inputs.seed, outcome, p)
    return {"iproj.iproject_descent.iterations": (iterations, "count")}


def check_oracles(seed: int, outcome: Outcome, p: Params, descent=None) -> int:
    """Copula invariance on small binary tables; the descent solver against
    IPF on small tables. `descent` replaces `iproject_descent` when given.
    Returns the descent solver's iterations."""
    iterations = 0
    descent = descent or md.iproject_descent
    for k in range(p.oracle_tables):
        table, target = instance(seed, 2, k, *p.copula_shape)
        v, _ = md.iproject_exact(table, target)
        projected, _ = md.apply_factors(table, v)
        outcome.record(md.same_copula(projected, table), f"copula {k}: projection changed the copula")
    for k in range(p.oracle_tables):
        table, target = instance(seed, 3, k, *p.descent_shape)
        by_ipf, _ = md.apply_factors(table, md.iproject_exact(table, target)[0])
        v, report = descent(table, target)
        iterations += report.iterations
        by_descent, _ = md.apply_factors(table, v)
        tv = gates.total_variation(by_ipf.probs, by_descent.probs)
        outcome.record(report.converged and tv <= DESCENT_TV_TOL,
                       f"descent {k}: TV {tv:.3g} from IPF (converged={report.converged})")
    return iterations
