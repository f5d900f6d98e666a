"""sampler: the four modes, per-step laws, determinism, prefix reuse."""

from __future__ import annotations

import math

import numpy as np
import pytest

from maskdiff.dist import (
    JointTable,
    product_table,
    sample_states,
    state_to_index,
    total_correlation,
    univariate_marginals,
)
from maskdiff.errors import (
    AlphabetMismatchError,
    ClampError,
    InvalidDistributionError,
    ScheduleError,
)
from maskdiff.harness import SyntheticSpec, gen_data, induced_distribution, kl_to_data
from maskdiff.models import (
    ARCopulaModel,
    DiffusionMarginalModel,
    ar_chain_table,
    ar_conditional,
    dm_marginals_full,
)
from maskdiff import sampler as sampler_mod
from maskdiff.noising import SequenceState, aux_posterior, make_schedule
from maskdiff.sampler import (
    MODES,
    SamplerConfig,
    _step_law,
    ar_unmask_schedule,
    dcd_ar_unmask_step,
    dcd_step,
    diffusion_only_step,
    enumerate_aux_distribution,
    enumerate_step_distribution,
    required_models,
    sample,
)

from _helpers import random_rows, random_table


def correlated_pair() -> JointTable:
    return gen_data(SyntheticSpec("correlated_phrases", 2, 2, 0.95))


def exact_models(table: JointTable):
    floored = table.floored()
    return DiffusionMarginalModel.exact(floored), ARCopulaModel.exact(floored)


def config(mode: str, steps: int, beta: float = 1.0, seed: int = 0, chunk: int = 1):
    return SamplerConfig(
        steps=steps,
        schedule=make_schedule("linear", steps, chunk_size=chunk),
        mode=mode,
        beta=beta,
        chunk_size=chunk,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# boundaries
# ---------------------------------------------------------------------------

def test_ar_unmask_schedule_one_per_step_when_t_equals_n():
    assert ar_unmask_schedule(5, 5) == (1, 2, 3, 4, 5)


def test_ar_unmask_schedule_single_step():
    assert ar_unmask_schedule(7, 1) == (7,)


def test_ar_unmask_schedule_frozen_ceiling_case():
    assert ar_unmask_schedule(10, 4) == (3, 5, 8, 10)


def test_ar_unmask_schedule_monotone_ending_at_n():
    for n in (1, 3, 7, 10):
        for t in (1, 2, 3, 5, 8):
            bounds = ar_unmask_schedule(n, t)
            assert all(a <= b for a, b in zip(bounds, bounds[1:]))
            assert bounds[-1] == n


@pytest.mark.parametrize("mode", ["dcd", "diffusion_only", "dcd_ar_unmask"])
def test_step_time_outside_the_schedule_is_rejected(mode):
    dm, cop = exact_models(correlated_pair())
    cfg = config(mode, 2)
    for x_next in (SequenceState((0, 1), 0, dm.alphabet),
                   SequenceState.all_masked(dm.alphabet, 3),
                   SequenceState.all_masked(dm.alphabet, 5)):
        with pytest.raises(ScheduleError, match=r"outside \[1, 2\]"):
            enumerate_step_distribution(dm, cop, x_next, cfg)


def test_step_functions_check_the_step_time_themselves():
    dm, cop = exact_models(correlated_pair())
    late = SequenceState.all_masked(dm.alphabet, 5)
    for mode, step in (("dcd", dcd_step), ("diffusion_only", diffusion_only_step),
                       ("dcd_ar_unmask", dcd_ar_unmask_step), ("ar_only", _step_law)):
        with pytest.raises(ScheduleError, match=r"outside \[1, 2\]"):
            step(dm, cop, late, config(mode, 2))


# ---------------------------------------------------------------------------
# dcd step law
# ---------------------------------------------------------------------------

def test_dcd_step_all_unmasked_returns_x_next():
    rng = np.random.default_rng(100)
    data = random_table(rng, 3, 2, floor=True)
    dm, cop = exact_models(data)
    cfg = config("dcd", 2)
    x_next = SequenceState((0, 1, 0), 2, data.alphabet)
    step = enumerate_step_distribution(dm, cop, x_next, cfg)
    assert step == {SequenceState(x_next.tokens, 1, data.alphabet): 1.0}
    assert dcd_step(dm, cop, x_next, cfg).copula_queries == 0


def test_beta_zero_limit_is_pure_copula_with_clamps():
    rng = np.random.default_rng(101)
    data = random_table(rng, 3, 2, floor=True)
    dm, cop = exact_models(data)
    cfg = config("dcd", 2, beta=0.0)
    mask = data.alphabet.mask_index
    x_next = SequenceState((mask, 1, mask), 2, data.alphabet)
    aux = enumerate_aux_distribution(dm, cop, x_next, cfg)
    # oracle: clamped chain of plain copula conditionals
    for tokens, weight in aux.items():
        if tokens[1] != 1:
            assert weight == 0.0
            continue
        expected = 1.0
        for i in (0, 1, 2):
            if i == 1:
                continue
            expected *= ar_conditional(cop, tokens[:i], i)[tokens[i]]
        assert weight == pytest.approx(expected, abs=1e-12)


def test_one_shot_dcd_step_matches_apply_factors_form():
    data = correlated_pair()
    dm, cop = exact_models(data)
    cfg = config("dcd", 1)
    x_next = SequenceState.all_masked(data.alphabet, 1)
    step = enumerate_step_distribution(dm, cop, x_next, cfg)
    # all-mask context: the correction vanishes, so the one-shot law must be
    # the apply-factors form with V = 0, i.e. the copula chain itself
    chain = ar_chain_table(cop)
    for state, p in step.items():
        assert state.time == 0
        idx = state_to_index(data.alphabet, state.tokens)
        assert p == pytest.approx(chain.probs[idx], abs=1e-10)


def test_dcd_aux_with_suffix_evidence_is_exact_posterior():
    data = correlated_pair()
    dm, cop = exact_models(data)
    cfg = config("dcd", 2)
    mask = data.alphabet.mask_index
    x_next = SequenceState((mask, 0), 2, data.alphabet)
    aux = enumerate_aux_distribution(dm, cop, x_next, cfg)
    truth = aux_posterior(dm.table, x_next)
    for tokens, weight in aux.items():
        assert weight == pytest.approx(truth.prob(tokens), abs=1e-12)


def test_one_shot_empirical_distribution_chi_squared():
    data = correlated_pair()
    dm, cop = exact_models(data)
    cfg = config("dcd", 1, seed=123)
    x_next = SequenceState.all_masked(data.alphabet, 1)
    law = enumerate_step_distribution(dm, cop, x_next, cfg)
    expected = np.zeros(4)
    for state, p in law.items():
        expected[state_to_index(data.alphabet, state.tokens)] = p
    rng = np.random.default_rng(cfg.seed)
    draws = 100_000
    counts = np.zeros(4)
    for _ in range(draws):
        x0, _ = sample(dm, cop, cfg, rng)
        counts[state_to_index(data.alphabet, x0.tokens)] += 1
    chi2 = float(np.sum((counts - draws * expected) ** 2 / (draws * expected)))
    assert chi2 < 11.345  # 0.99 quantile of chi-square with 3 dof


# ---------------------------------------------------------------------------
# mode equivalences on special data
# ---------------------------------------------------------------------------

def test_all_modes_agree_on_product_data():
    rng = np.random.default_rng(102)
    data = product_table(random_rows(rng, 2, 2)).floored()
    dm, cop = exact_models(data)
    tables = {}
    for mode in MODES:
        cfg = config(mode, 2)
        tables[mode] = induced_distribution(dm, cop, cfg).table
    for mode, table in tables.items():
        assert np.max(np.abs(table.probs - data.probs)) < 1e-8, mode


def test_diffusion_only_one_shot_is_product_of_marginals():
    data = correlated_pair()
    dm, cop = exact_models(data)
    cfg = config("diffusion_only", 1)
    induced = induced_distribution(dm, cop, cfg).table
    prod = product_table(univariate_marginals(dm.table), data.alphabet)
    np.testing.assert_allclose(induced.probs, prod.probs, atol=1e-12)
    assert kl_to_data(dm.table, induced) == pytest.approx(
        total_correlation(dm.table), abs=1e-12
    )


def test_one_position_per_step_reveals_exact_distribution():
    # manual oracle: reveal position i at step i, drawing from the
    # full-context marginal each time; the chain of revealed conditionals
    # reproduces the data distribution exactly
    rng = np.random.default_rng(103)
    data = random_table(rng, 3, 2, floor=True)
    dm, _ = exact_models(data)
    mask = data.alphabet.mask_index
    n = 3
    result = {(): 1.0}
    for i in range(n):
        nxt = {}
        for prefix, w in result.items():
            ctx = SequenceState(prefix + (mask,) * (n - i), i + 1, data.alphabet)
            row = dm_marginals_full(dm, ctx).rows[i]
            for c in range(2):
                if row[c] > 0:
                    nxt[prefix + (c,)] = nxt.get(prefix + (c,), 0.0) + w * row[c]
        result = nxt
    for tokens, w in result.items():
        assert w == pytest.approx(data.prob(tokens), abs=1e-6)


def test_ar_unmask_with_t_equals_n_reproduces_data():
    rng = np.random.default_rng(104)
    data = random_table(rng, 3, 2, floor=True)
    dm, cop = exact_models(data)
    cfg = config("dcd_ar_unmask", 3)
    induced = induced_distribution(dm, cop, cfg).table
    np.testing.assert_allclose(induced.probs, data.probs, atol=1e-10)


def test_ar_unmask_beta_zero_equals_ar_only():
    rng = np.random.default_rng(105)
    data = random_table(rng, 4, 2, floor=True)
    corpus = sample_states(data, 500, rng)
    dm = DiffusionMarginalModel.exact(data)
    cop = ARCopulaModel.from_corpus(corpus, data.alphabet)  # mismatched copula
    for steps in (1, 2, 4):
        cfg = config("dcd_ar_unmask", steps, beta=0.0)
        unmask = induced_distribution(dm, cop, cfg).table
        ar = induced_distribution(dm, cop, config("ar_only", steps)).table
        assert np.max(np.abs(unmask.probs - ar.probs)) < 1e-10


def test_ar_only_distribution_is_chain_product():
    rng = np.random.default_rng(106)
    data = random_table(rng, 3, 2, floor=True)
    _, cop = exact_models(data)
    cfg = config("ar_only", 2)
    induced = induced_distribution(None, cop, cfg).table
    chain = ar_chain_table(cop)
    assert np.max(np.abs(induced.probs - chain.probs)) < 1e-10


# ---------------------------------------------------------------------------
# run-level contracts
# ---------------------------------------------------------------------------

def test_prefix_reuse_query_count_is_n_for_every_t():
    rng = np.random.default_rng(107)
    data = random_table(rng, 4, 2, floor=True)
    dm, cop = exact_models(data)
    for steps in (1, 2, 4):
        cfg = config("dcd_ar_unmask", steps, seed=steps)
        _, trace = sample(dm, cop, cfg)
        assert trace.copula_queries_total == 4
    del rng


def test_dcd_requeries_per_step_but_ar_unmask_does_not():
    rng = np.random.default_rng(108)
    data = random_table(rng, 4, 2, floor=True)
    dm, cop = exact_models(data)
    _, trace = sample(dm, cop, config("dcd", 4, seed=9))
    assert trace.copula_queries_total >= 4


def test_seeded_runs_are_bit_identical():
    data = correlated_pair()
    dm, cop = exact_models(data)
    for mode in MODES:
        cfg = config(mode, 2, seed=31)
        x_a, trace_a = sample(dm, cop, cfg)
        x_b, trace_b = sample(dm, cop, cfg)
        assert x_a.tokens == x_b.tokens
        assert trace_a.dumps() == trace_b.dumps()


def test_unmasked_positions_never_remask_along_traces():
    rng = np.random.default_rng(109)
    data = random_table(rng, 3, 2, floor=True)
    dm, cop = exact_models(data)
    for mode in MODES:
        for seed in range(5):
            cfg = config(mode, 3, seed=seed)
            _, trace = sample(dm, cop, cfg)
            for prev, cur in zip(trace.states, trace.states[1:]):
                assert set(prev.unmasked_positions) <= set(cur.unmasked_positions)
            final = trace.states[-1]
            assert final.time == 0 and not final.masked_positions


def test_trace_dump_shape():
    data = correlated_pair()
    dm, cop = exact_models(data)
    _, trace = sample(dm, cop, config("dcd", 2, seed=5))
    text = trace.dumps()
    assert text.startswith("mode=dcd")
    assert "total_copula_queries:" in text
    assert text.count("step t=") == 2


def test_trace_stores_each_state_once():
    data = correlated_pair()
    dm, cop = exact_models(data)
    for mode in MODES:
        x, trace = sample(dm, cop, config(mode, 2, seed=3))
        assert trace.states[0] == trace.steps[0].x_next == SequenceState.all_masked(data.alphabet, 2)
        assert trace.states[1:] == [rec.x_t for rec in trace.steps] and trace.states[-1] == x
        assert all(rec.t == rec.x_t.time for rec in trace.steps)
        assert all(prev.x_t == rec.x_next for prev, rec in zip(trace.steps, trace.steps[1:]))


@pytest.mark.parametrize("mode,kernels", [
    ("dcd", 1), ("diffusion_only", 1), ("dcd_ar_unmask", 0),
])
def test_enumeration_builds_one_remask_kernel_per_step(monkeypatch, mode, kernels):
    data = random_table(np.random.default_rng(111), 3, 2, floor=True)
    dm, cop = exact_models(data)
    calls = []
    real = sampler_mod.remask_kernel

    def counting(x_next, sched):
        calls.append(x_next)
        return real(x_next, sched)

    monkeypatch.setattr(sampler_mod, "remask_kernel", counting)
    law = enumerate_step_distribution(dm, cop, SequenceState.all_masked(data.alphabet, 3),
                                      config(mode, 3))
    assert len(law) > 1  # many content layers, one kernel
    assert len(calls) == kernels


def test_step_law_rejects_a_state_outside_the_chunked_process():
    data = random_table(np.random.default_rng(113), 4, 2, floor=True)
    dm, cop = exact_models(data)
    mask = data.alphabet.mask_index
    x_next = SequenceState((mask, 0, mask, mask), 2, data.alphabet)  # chunk (0, 1) half masked
    for mode in ("dcd", "diffusion_only"):
        with pytest.raises(ClampError, match="mixed chunk"):
            enumerate_step_distribution(dm, cop, x_next, config(mode, 2, chunk=2))
        assert len(enumerate_step_distribution(dm, cop, x_next, config(mode, 2))) > 1


@pytest.mark.parametrize("chunk", [1, 2])
def test_sample_draws_one_double_per_masked_position_and_chunk(chunk):
    # diffusion_only at T=2 re-masks with ratio 1/2, then with ratio 0
    data = random_table(np.random.default_rng(112), 4, 2, floor=True)
    dm, _ = exact_models(data)
    for seed in range(5):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        _, trace = sample(dm, None, config("diffusion_only", 2, chunk=chunk), rng)
        doubles = 0
        for rec in trace.steps:
            masked = set(rec.x_next.masked_positions)
            chunks = [g for g in range(0, 4, chunk) if g in masked]
            doubles += len(masked) + len(chunks)
        twin.random(doubles)
        assert rng.random() == twin.random()


@pytest.mark.parametrize("beta", [40.0, 1e3, 1e6])
def test_fused_rows_stay_valid_at_large_beta(beta):
    # beta * V leaves exp's float64 range on both tables; on the markov
    # table seeds 3 and 4 meet such a row at beta = 1e3
    markov = gen_data(SyntheticSpec("markov_chain", 4, 3, 0.8, 1))
    phrases = gen_data(SyntheticSpec("correlated_phrases", 4, 3, 1.0)).floored()
    for data in (markov, phrases):
        dm, cop = DiffusionMarginalModel.exact(data), ARCopulaModel.exact(data)
        cfg = config("dcd", 4, beta=beta)
        induced = induced_distribution(dm, cop, cfg).table
        assert float(induced.probs.sum()) == pytest.approx(1.0, abs=1e-12)
        for seed in range(6):
            x0, _ = sample(dm, cop, cfg, np.random.default_rng(seed))
            assert induced.prob(x0.tokens) > 0.0


@pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan, -1.0])
def test_beta_must_be_finite_and_non_negative(beta):
    with pytest.raises(InvalidDistributionError, match="beta must be finite"):
        config("dcd", 2, beta=beta)


def test_invalid_mode_and_mismatched_schedule_rejected():
    sched = make_schedule("linear", 2)
    with pytest.raises(Exception):
        SamplerConfig(steps=2, schedule=sched, mode="nope")
    with pytest.raises(Exception):
        SamplerConfig(steps=3, schedule=sched, mode="dcd")


def test_chunked_sampling_keeps_chunks_aligned_and_stays_exact():
    rng = np.random.default_rng(110)
    data = random_table(rng, 4, 2, floor=True)
    dm, cop = exact_models(data)
    cfg = config("dcd", 2, chunk=2)
    for seed in range(5):
        _, trace = sample(dm, cop, SamplerConfig(
            steps=2, schedule=cfg.schedule, mode="dcd", beta=1.0, chunk_size=2, seed=seed
        ))
        mask = data.alphabet.mask_index
        for state in trace.states[:-1]:
            for start in (0, 2):
                left = state.tokens[start] == mask
                right = state.tokens[start + 1] == mask
                assert left == right
    # the two-variable instance remains exactly recoverable under chunking
    pair = correlated_pair().floored()
    dm2, cop2 = exact_models(pair)
    cfg2 = config("dcd", 2, chunk=2)
    induced = induced_distribution(dm2, cop2, cfg2).table
    np.testing.assert_allclose(induced.probs, pair.probs, atol=1e-12)


def test_sample_requires_the_right_models():
    data = correlated_pair()
    dm, cop = exact_models(data)
    with pytest.raises(InvalidDistributionError):
        sample(None, cop, config("dcd", 1))
    with pytest.raises(InvalidDistributionError):
        sample(dm, None, config("ar_only", 1))
    with pytest.raises(InvalidDistributionError):
        sample(None, None, config("diffusion_only", 1))


# mode -> (needs a diffusion-marginal model, needs a copula model)
NEEDED_MODELS = {
    "dcd": (True, True),
    "diffusion_only": (True, False),
    "ar_only": (False, True),
    "dcd_ar_unmask": (True, True),
}


@pytest.mark.parametrize("mode", MODES)
def test_induced_and_enumerators_require_the_right_models(mode):
    dm, cop = exact_models(correlated_pair())
    cfg = config(mode, 2)
    x_next = SequenceState.all_masked(dm.alphabet, 2)
    needs_dm, needs_copula = NEEDED_MODELS[mode]
    assert required_models(mode) == (needs_dm, needs_copula)
    missing = [(None, cop)] if needs_dm else []
    missing += [(dm, None)] if needs_copula else []
    for dm_arg, cop_arg in missing + [(None, None)]:
        with pytest.raises(InvalidDistributionError, match="requires"):
            induced_distribution(dm_arg, cop_arg, cfg)
        if mode != "ar_only":
            with pytest.raises(InvalidDistributionError, match="requires"):
                enumerate_step_distribution(dm_arg, cop_arg, x_next, cfg)
        if mode in ("dcd", "diffusion_only"):
            with pytest.raises(InvalidDistributionError, match="requires"):
                enumerate_aux_distribution(dm_arg, cop_arg, x_next, cfg)
    other = DiffusionMarginalModel.exact(random_table(np.random.default_rng(3), 3, 2, floor=True))
    with pytest.raises(AlphabetMismatchError):
        induced_distribution(other, cop, cfg)


def test_required_models_rejects_unknown_mode():
    with pytest.raises(InvalidDistributionError, match="unknown mode"):
        required_models("bogus")
