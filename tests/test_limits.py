"""Limits: seeded random inputs at the edges the package advertises, and a
sampling run at the enumeration cap.

Every input the types admit either works or raises a MaskDiffError; a
RuntimeWarning (overflow, NaN) is a failure.
"""

from __future__ import annotations

import warnings
from collections import Counter

import numpy as np
import pytest

from maskdiff.dist import (
    ENUMERATION_CAP,
    POSITIVITY_FLOOR,
    JointTable,
    MarginalSet,
    univariate_marginals,
)
from maskdiff.errors import CapExceededError, MaskDiffError
from maskdiff.iproj import apply_factors, iproject_exact
from maskdiff.harness import (
    EXACT_INDUCED_CAP,
    SyntheticSpec,
    gen_data,
    induced_distribution,
)
from maskdiff.models import ARCopulaModel, DiffusionMarginalModel
from maskdiff.noising import SequenceState, make_schedule
from maskdiff.sampler import (
    MODE_AR_ONLY,
    MODES,
    SamplerConfig,
    enumerate_aux_distribution,
    enumerate_step_distribution,
    sample,
)

from _helpers import (
    HUGE_BETAS,
    aux_by_enumeration,
    random_rows,
    random_table,
    step_by_enumeration,
    zero_table,
)

BATTERY_BETAS = (0.0, 1.0, 1e3, 1e6)


def battery_table(rng: np.random.Generator, n: int, c: int) -> JointTable:
    """A random table, floored or with about a third of its states at zero."""
    if rng.random() < 0.3:
        return random_table(rng, n, c, floor=True)
    return zero_table(rng, n, c)


def run_battery(trials: int, seed: int) -> Counter:
    """Outcome counts ("ok" or the MaskDiffError's class name) over `trials`
    random shapes, each sampled in every mode and, under the exact cap,
    enumerated. Anything other than a valid result or a MaskDiffError
    propagates."""
    rng = np.random.default_rng(seed)
    outcomes: Counter = Counter()
    for _ in range(trials):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5 if c <= 3 else 4))
        table = battery_table(rng, n, c)
        dm, cop = DiffusionMarginalModel.exact(table), ARCopulaModel.exact(table)
        steps = int(rng.integers(1, n + 3))  # T > N included
        chunk = int(rng.integers(1, n + 1))  # need not divide N
        beta = float(rng.choice(BATTERY_BETAS))
        sched = make_schedule("linear", steps, chunk_size=chunk)
        exact = (c + 1) ** n * steps <= EXACT_INDUCED_CAP
        for mode in MODES:
            cfg = SamplerConfig(steps, sched, mode, beta, chunk, seed=int(rng.integers(1 << 30)))
            calls = [lambda: sample(dm, cop, cfg)[0]]
            if exact:
                calls.append(lambda: induced_distribution(dm, cop, cfg).table)
            for call in calls:
                try:
                    result = call()
                except MaskDiffError as exc:
                    outcomes[type(exc).__name__] += 1
                    continue
                if isinstance(result, JointTable):
                    assert result.alphabet == table.alphabet
                    assert abs(float(result.probs.sum()) - 1.0) <= 1e-12
                else:
                    assert result.time == 0 and len(result.tokens) == n
                    assert all(0 <= tok < c for tok in result.tokens)
                outcomes["ok"] += 1
    return outcomes


def test_limits_battery_returns_valid_results_or_mask_diff_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        outcomes = run_battery(150, seed=808)
    # tables with zeros reach zero-probability contexts
    assert outcomes == Counter(ok=1089, SupportError=87)


@pytest.mark.parametrize("beta", HUGE_BETAS)
@pytest.mark.parametrize("mode", MODES)
def test_huge_finite_beta_gives_valid_laws(mode, beta):
    data = gen_data(SyntheticSpec("markov_chain", 4, 3, 0.8, seed=1)).floored()
    dm, cop = DiffusionMarginalModel.exact(data), ARCopulaModel.exact(data)
    cfg = SamplerConfig(4, make_schedule("linear", 4), mode, beta, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x0, trace = sample(dm, cop, cfg)
        steps = [] if mode == MODE_AR_ONLY else [
            enumerate_step_distribution(dm, cop, x_next, cfg) for x_next in trace.states[:-1]
        ]
        table = induced_distribution(dm, cop, cfg).table
    assert x0.time == 0 and data.alphabet.mask_index not in x0.tokens
    for law in steps:
        weights = np.array(list(law.values()))
        assert np.all(weights >= 0.0) and abs(float(weights.sum()) - 1.0) <= 1e-12
    assert np.all(np.isfinite(table.probs)) and abs(float(table.probs.sum()) - 1.0) <= 1e-12


def test_dcd_samples_at_the_enumeration_cap():
    n = 23
    assert 2**n <= ENUMERATION_CAP < 2 ** (n + 1)
    data = random_table(np.random.default_rng(809), n, 2)
    rows = univariate_marginals(data).rows
    assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12
    dm, cop = DiffusionMarginalModel.exact(data), ARCopulaModel.exact(data)
    cfg = SamplerConfig(2, make_schedule("linear", 2), "dcd", seed=810)
    x0, _ = sample(dm, cop, cfg)
    assert x0.time == 0 and data.alphabet.mask_index not in x0.tokens


@pytest.mark.parametrize("n", [14, 15])
def test_enumerators_hold_every_state_up_to_the_enumeration_cap(n):
    # the dense step holds all (C+1)^N states: 3^14 fit under the cap, 3^15 do not
    assert 3**14 <= ENUMERATION_CAP < 3**15
    data = random_table(np.random.default_rng(814), n, 2, floor=True)
    dm, cop = DiffusionMarginalModel.exact(data), ARCopulaModel.exact(data)
    cfg = SamplerConfig(2, make_schedule("linear", 2), "dcd")
    x_next = SequenceState((2,) + (0,) * (n - 1), 2, data.alphabet)  # position 0 masked
    for enumerate_law, oracle in ((enumerate_step_distribution, step_by_enumeration),
                                  (enumerate_aux_distribution, aux_by_enumeration)):
        if n == 15:
            with pytest.raises(CapExceededError):
                enumerate_law(dm, cop, x_next, cfg)
            continue
        law, expected = enumerate_law(dm, cop, x_next, cfg), oracle(dm, cop, x_next, cfg)
        assert law.keys() == expected.keys() and len(law) > 1
        assert max(abs(law[key] - expected[key]) for key in law) <= 1e-15


def test_ipf_projects_a_million_state_table():
    rng = np.random.default_rng(811)
    data = random_table(rng, 20, 2, floor=True)
    raw = random_rows(rng, 20, 2).rows.copy()
    raw[3] = [1.0, 0.0]  # a zero entry meets the floor
    floored = np.maximum(raw, POSITIVITY_FLOOR)
    floored /= floored.sum(axis=1, keepdims=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v, report = iproject_exact(data, MarginalSet(raw))
        projected, _ = apply_factors(data, v)
    assert data.alphabet.num_states == 2**20 and report.converged
    assert np.abs(univariate_marginals(projected).rows - floored).max() <= 1e-9
