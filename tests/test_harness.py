"""harness: generators, exact bound diagnostics, induced laws, sweeps."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from maskdiff import dist
from maskdiff.dist import (
    JointTable,
    MarginalSet,
    entropy,
    kl,
    product_table,
    sample_states,
    total_correlation,
    univariate_marginals,
)
from maskdiff.errors import CapExceededError, InvalidDistributionError, ScheduleError
from maskdiff.harness import (
    CSV_HEADER,
    SyntheticSpec,
    elbo_bound,
    expected_nll,
    gen_data,
    induced_distribution,
    kl_to_data,
    nelbo_factorized,
    optimal_factorized_denoiser,
    reachable_states,
    results_to_csv,
    run_sweep,
)
from maskdiff.iproj import FactorMatrix, apply_factors, iproject_exact, objective, objective_gradient
from maskdiff.models import ARCopulaModel, DiffusionMarginalModel, ar_chain_table
from maskdiff.noising import (
    SequenceState,
    brute_reverse_posterior,
    forward_state_distribution,
    make_schedule,
    posterior_from_prior,
)
from maskdiff.sampler import SamplerConfig

from _helpers import random_rows, random_table


def correlated_pair(strength: float = 0.95) -> JointTable:
    return gen_data(SyntheticSpec("correlated_phrases", 2, 2, strength))


def exact_models(table: JointTable):
    floored = table.floored()
    return DiffusionMarginalModel.exact(floored), ARCopulaModel.exact(floored)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_correlated_phrases_strength_zero_is_product():
    table = gen_data(SyntheticSpec("correlated_phrases", 3, 2, 0.0))
    assert total_correlation(table) < 1e-10


def test_correlated_phrases_strength_one_is_diagonal():
    table = gen_data(SyntheticSpec("correlated_phrases", 2, 2, 1.0))
    np.testing.assert_allclose(table.probs, [0.5, 0.0, 0.0, 0.5], atol=1e-15)
    assert total_correlation(table) == pytest.approx(math.log(2), abs=1e-12)


def test_correlated_phrases_tc_monotone_in_strength():
    values = [
        total_correlation(gen_data(SyntheticSpec("correlated_phrases", 2, 2, s)))
        for s in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    assert all(a < b + 1e-15 for a, b in zip(values, values[1:]))


def test_gen_data_deterministic_given_seed():
    for kind in ("random_dirichlet", "correlated_phrases", "markov_chain"):
        a = gen_data(SyntheticSpec(kind, 3, 2, 0.5, seed=9))
        b = gen_data(SyntheticSpec(kind, 3, 2, 0.5, seed=9))
        assert np.array_equal(a.probs, b.probs)


def test_markov_chain_strength_zero_is_independent():
    table = gen_data(SyntheticSpec("markov_chain", 3, 3, 0.0, seed=4))
    assert total_correlation(table) < 1e-10


def test_markov_chain_has_dependence_at_full_strength():
    table = gen_data(SyntheticSpec("markov_chain", 3, 3, 1.0, seed=4))
    assert total_correlation(table) > 1e-3


def test_gen_data_rejects_unknown_kind_and_bad_strength():
    with pytest.raises(InvalidDistributionError):
        SyntheticSpec("mystery", 2, 2)
    with pytest.raises(InvalidDistributionError):
        SyntheticSpec("markov_chain", 2, 2, 1.5)


# ---------------------------------------------------------------------------
# bound diagnostics
# ---------------------------------------------------------------------------

def test_bound_of_product_data_is_entropy_for_any_schedule():
    rng = np.random.default_rng(120)
    data = product_table(random_rows(rng, 2, 3))
    for family in ("linear", "log-linear"):
        for steps in (1, 2, 4):
            sched = make_schedule(family, steps)
            assert elbo_bound(data, sched) == pytest.approx(entropy(data), abs=1e-12)


def test_bound_non_increasing_in_steps_on_correlated_pair():
    data = correlated_pair()
    b1 = elbo_bound(data, make_schedule("linear", 1))
    b2 = elbo_bound(data, make_schedule("linear", 2))
    assert b1 == pytest.approx(entropy(data) + total_correlation(data), abs=1e-12)
    assert b2 <= b1 + 1e-12


def test_optimal_denoiser_attains_bound():
    data = correlated_pair()
    sched = make_schedule("linear", 2)
    bound = elbo_bound(data, sched)
    nelbo = nelbo_factorized(data, sched, optimal_factorized_denoiser(data, sched))
    assert abs(nelbo - bound) <= 1e-9


def _trajectory_nelbo(data, sched, denoiser) -> float:
    """Independent oracle: enumerate whole forward trajectories and average
    -log prior(x_T) - sum_t log(r(x_{t-1}|x_t) / q(x_t|x_{t-1})) directly."""
    import itertools

    c = data.num_categories
    n = data.num_positions
    mask = data.alphabet.mask_index

    def forward_step_prob(prev, nxt, t):
        a_prev, a_next = sched.alpha(t - 1), sched.alpha(t)
        step = (a_next - a_prev) / (1.0 - a_prev)
        p = 1.0
        for a, b in zip(prev, nxt):
            if a == mask:
                p *= 1.0 if b == mask else 0.0
            elif b == mask:
                p *= step
            elif b == a:
                p *= 1.0 - step
            else:
                return 0.0
        return p

    def states(time):
        vals = range(c + 1) if time > 0 else range(c)
        return itertools.product(vals, repeat=n)

    rows_cache: dict = {}

    def denoiser_rows(tokens, t):
        key = (tokens, t)
        if key not in rows_cache:
            rows_cache[key] = denoiser(SequenceState(tokens, t, data.alphabet)).rows
        return rows_cache[key]

    total = 0.0
    for trajectory in itertools.product(*(states(t) for t in range(sched.steps + 1))):
        weight = data.prob(trajectory[0])
        for t in range(1, sched.steps + 1):
            if weight == 0.0:
                break
            weight *= forward_step_prob(trajectory[t - 1], trajectory[t], t)
        if weight == 0.0:
            continue
        prior = 1.0 if all(tok == mask for tok in trajectory[-1]) else 0.0
        term = -math.log(prior)
        for t in range(1, sched.steps + 1):
            prev, nxt = trajectory[t - 1], trajectory[t]
            rows = denoiser_rows(nxt, t)
            r = 1.0
            for i, tok in enumerate(prev):
                r *= rows[i, tok]
            term += math.log(forward_step_prob(prev, nxt, t)) - math.log(r)
        total += weight * term
    return total


def _per_state_bounds(data: JointTable, sched) -> tuple[float, float]:
    """The bound and the optimal denoiser's negative ELBO, summed as H(data)
    then per reachable x_t, each from its own brute_reverse_posterior."""
    bound = nelbo = entropy(data)
    for t in range(1, sched.steps + 1):
        for x_t, weight in reachable_states(data, t, sched):
            post = brute_reverse_posterior(data, x_t, sched)
            bound += weight * total_correlation(post)
            rows = univariate_marginals(post, includes_mask=True)
            nelbo += weight * kl(post, product_table(rows, post.alphabet))
    return bound, nelbo


@pytest.mark.parametrize("chunk_size", [1, 2])
@pytest.mark.parametrize("family", ["linear", "log-linear"])
def test_bound_and_optimal_nelbo_equal_the_per_state_sum_bit_for_bit(family, chunk_size):
    rng = np.random.default_rng(132)
    for data in (random_table(rng, 3, 3),
                 gen_data(SyntheticSpec("correlated_phrases", 3, 2, 1.0))):  # has zeros
        sched = make_schedule(family, 3, chunk_size=chunk_size)
        bound, nelbo = _per_state_bounds(data, sched)
        assert elbo_bound(data, sched) == bound
        assert nelbo_factorized(data, sched, optimal_factorized_denoiser(data, sched)) == nelbo


def test_bounds_build_each_forward_marginal_once(monkeypatch):
    from maskdiff import harness

    data = random_table(np.random.default_rng(133), 3, 2)
    sched = make_schedule("linear", 4)
    bound, nelbo = _per_state_bounds(data, sched)
    denoiser = optimal_factorized_denoiser(data, sched)
    calls = []
    real = harness.forward_state_distribution

    def counting(data, t, sched):
        calls.append(t)
        return real(data, t, sched)

    monkeypatch.setattr(harness, "forward_state_distribution", counting)
    assert elbo_bound(data, sched) == bound
    assert calls == [0, 1, 2, 3, 4]
    calls.clear()
    assert nelbo_factorized(data, sched, denoiser) == nelbo
    assert calls == [0, 1, 2, 3, 4]


def test_table_kernels_never_build_the_index_array(monkeypatch):
    def refuse(alphabet):
        raise AssertionError(f"all_states({alphabet}) built the index array")

    original, patched = dist.all_states, []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "maskdiff" and getattr(module, "all_states", None) is original:
            monkeypatch.setattr(module, "all_states", refuse)
            patched.append(name)
    assert {"maskdiff.dist", "maskdiff.iproj"} <= set(patched)
    rng = np.random.default_rng(170)
    for n, c, chunk in ((3, 3, 1), (4, 2, 2)):
        data = random_table(rng, n, c, floor=True)
        target = random_rows(rng, n, c)
        v = FactorMatrix(rng.normal(0.0, 0.5, size=(n, c)))
        apply_factors(data, v)
        objective(v, data, target)
        objective_gradient(v, data, target)
        assert iproject_exact(data, target)[1].converged
        assert sample_states(data, 20, rng).shape == (20, n)
        sched = make_schedule("linear", 2, chunk_size=chunk)
        prior = forward_state_distribution(data, 0, sched)
        posterior_from_prior(prior, SequenceState.all_masked(data.alphabet, 1), sched)
        assert sum(w for _, w in reachable_states(data, 1, sched)) == pytest.approx(1.0)
        bound = elbo_bound(data, sched)
        assert nelbo_factorized(data, sched, optimal_factorized_denoiser(data, sched)) == (
            pytest.approx(bound, abs=1e-12))


def test_optimal_denoiser_rejects_a_time_outside_the_schedule():
    data = correlated_pair()
    optimal = optimal_factorized_denoiser(data, make_schedule("linear", 2))
    for x_t in (SequenceState((0, 1), 0, data.alphabet),
                SequenceState.all_masked(data.alphabet, 3)):
        with pytest.raises(ScheduleError):
            optimal(x_t)


def test_nelbo_matches_trajectory_enumeration_oracle():
    data = correlated_pair()
    sched = make_schedule("linear", 2)
    optimal = optimal_factorized_denoiser(data, sched)
    assert _trajectory_nelbo(data, sched, optimal) == pytest.approx(
        nelbo_factorized(data, sched, optimal), abs=1e-10
    )

    def perturbed(x_t: SequenceState) -> MarginalSet:
        rows = optimal(x_t).rows.copy()
        local = np.random.default_rng(hash(x_t.tokens) % 1000)
        rows = rows * np.exp(0.3 * local.standard_normal(rows.shape))
        rows /= rows.sum(axis=1, keepdims=True)
        return MarginalSet(rows, includes_mask=True)

    assert _trajectory_nelbo(data, sched, perturbed) == pytest.approx(
        nelbo_factorized(data, sched, perturbed), abs=1e-10
    )


def test_perturbed_denoisers_exceed_bound():
    data = correlated_pair()
    sched = make_schedule("linear", 2)
    bound = elbo_bound(data, sched)
    optimal = optimal_factorized_denoiser(data, sched)
    for k in range(3):
        def perturbed(x_t: SequenceState, _k=k) -> MarginalSet:
            rows = optimal(x_t).rows.copy()
            local = np.random.default_rng(_k * 7919 + hash(x_t.tokens) % 997)
            rows = rows * np.exp(0.25 * local.standard_normal(rows.shape))
            rows /= rows.sum(axis=1, keepdims=True)
            return MarginalSet(rows, includes_mask=True)

        assert nelbo_factorized(data, sched, perturbed) > bound


# ---------------------------------------------------------------------------
# induced distributions
# ---------------------------------------------------------------------------

def test_induced_ar_only_is_chain_table():
    rng = np.random.default_rng(121)
    data = random_table(rng, 3, 2, floor=True)
    _, cop = exact_models(data)
    cfg = SamplerConfig(2, make_schedule("linear", 2), "ar_only")
    out = induced_distribution(None, cop, cfg)
    assert out.method == "exact"
    np.testing.assert_allclose(out.table.probs, ar_chain_table(cop).probs, atol=1e-12)


def test_induced_exact_cap_enforced_and_mc_fallback():
    rng = np.random.default_rng(122)
    data = random_table(rng, 4, 3, floor=True)  # (C+1)^N * T = 256 * 6 > 1280
    dm, cop = exact_models(data)
    cfg = SamplerConfig(6, make_schedule("linear", 6), "diffusion_only")
    with pytest.raises(CapExceededError):
        induced_distribution(dm, cop, cfg)
    out = induced_distribution(dm, cop, cfg, mc_samples=200)
    assert out.method == "monte_carlo"
    assert out.num_samples == 200
    assert out.max_cell_stderr == pytest.approx(math.sqrt(0.25 / 200))


def test_sweep_without_a_needed_model_raises():
    # with no copula, dcd must not report diffusion_only's KL under its own label
    dm, _ = exact_models(correlated_pair())
    with pytest.raises(InvalidDistributionError, match="requires a copula"):
        run_sweep(correlated_pair(), dm, None, ["dcd"], [1, 2], [1.0])


def test_induced_monte_carlo_agrees_with_exact_within_3_sigma():
    data = correlated_pair()
    dm, cop = exact_models(data)
    cfg = SamplerConfig(2, make_schedule("linear", 2), "dcd", seed=17)
    exact = induced_distribution(dm, cop, cfg).table
    draws = 20_000
    mc = induced_distribution(dm, cop, cfg, mc_samples=draws).table
    sigma = np.sqrt(exact.probs * (1 - exact.probs) / draws)
    assert np.all(np.abs(mc.probs - exact.probs) <= 3 * sigma + 1e-12)


def test_dcd_beats_diffusion_only_at_one_step():
    data = correlated_pair()
    dm, cop = exact_models(data)
    kl_dcd = kl_to_data(
        data, induced_distribution(dm, cop, SamplerConfig(1, make_schedule("linear", 1), "dcd")).table
    )
    kl_diff = kl_to_data(
        data,
        induced_distribution(dm, cop, SamplerConfig(1, make_schedule("linear", 1), "diffusion_only")).table,
    )
    assert kl_dcd < kl_diff


def test_metrics_handle_support_misses():
    point = JointTable(correlated_pair().alphabet, np.array([1.0, 0.0, 0.0, 0.0]))
    other = JointTable(point.alphabet, np.array([0.0, 1.0, 0.0, 0.0]))
    assert kl_to_data(point, other) == math.inf
    assert expected_nll(point, other) == math.inf


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_dcd_dominates_diffusion_only(tmp_path):
    data = correlated_pair()
    dm, cop = exact_models(data)
    results = run_sweep(
        data, dm, cop, ["dcd", "diffusion_only"], [1, 2, 4], [1.0], out_dir=tmp_path
    )
    by = {(r.mode, r.steps): r for r in results}
    for steps in (1, 2, 4):
        assert by[("dcd", steps)].kl_to_data <= by[("diffusion_only", steps)].kl_to_data
    csv_text = (tmp_path / "results.csv").read_text()
    assert csv_text.splitlines()[0] == CSV_HEADER
    assert len(csv_text.splitlines()) == 1 + len(results)


def test_sweep_beta_rows_present_and_distinct():
    data = correlated_pair()
    dm, cop = exact_models(data)
    results = run_sweep(data, dm, cop, ["dcd"], [2], [0.1, 1.0])
    betas = {r.beta: r.kl_to_data for r in results}
    assert set(betas) == {0.1, 1.0}
    assert betas[0.1] != betas[1.0]
    csv_text = results_to_csv(results)
    assert "dcd,2,0.1," in csv_text and "dcd,2,1.0," in csv_text


def test_sweep_empty_modes_is_empty_success(tmp_path):
    data = correlated_pair()
    results = run_sweep(data, None, None, [], [1, 2], [1.0], out_dir=tmp_path)
    assert results == []
    assert (tmp_path / "results.csv").read_text() == CSV_HEADER + "\n"


def test_sweep_csv_byte_stable_across_runs(tmp_path):
    data = correlated_pair()
    dm, cop = exact_models(data)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    run_sweep(data, dm, cop, ["dcd", "diffusion_only", "ar_only"], [1, 2], [1.0],
              out_dir=dir_a)
    run_sweep(data, dm, cop, ["dcd", "diffusion_only", "ar_only"], [1, 2], [1.0],
              out_dir=dir_b)
    assert (dir_a / "results.csv").read_bytes() == (dir_b / "results.csv").read_bytes()


def test_sweep_plot_files_are_two_column(tmp_path):
    data = correlated_pair()
    dm, cop = exact_models(data)
    run_sweep(data, dm, cop, ["dcd"], [1, 2], [1.0], out_dir=tmp_path)
    plot = tmp_path / "plot_kl_dcd_beta1.0.tsv"
    assert plot.exists()
    lines = plot.read_text().strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        steps, value = line.split("\t")
        int(steps)
        float(value)


def test_mismatched_models_few_step_advantage():
    # both models fitted from one modest corpus: the fused sampler must beat
    # independent denoising at every step count and edge past the
    # suffix-blind chain once it gets a second step (deterministic instance)
    from maskdiff.dist import sample_states
    from maskdiff.sampler import SamplerConfig

    data = gen_data(SyntheticSpec("correlated_phrases", 3, 2, 0.9))
    rng = np.random.default_rng(5)
    corpus = sample_states(data, 5000, rng)
    dm = DiffusionMarginalModel.from_corpus(corpus, data.alphabet)
    cop = ARCopulaModel.from_corpus(corpus, data.alphabet)

    def kl_at(mode: str, steps: int) -> float:
        cfg = SamplerConfig(steps, make_schedule("linear", steps), mode, beta=1.0)
        return kl_to_data(data, induced_distribution(dm, cop, cfg).table)

    kl_ar = kl_at("ar_only", 1)
    for steps in (1, 2, 4):
        assert kl_at("dcd", steps) < kl_at("diffusion_only", steps)
    assert kl_at("dcd", 2) < kl_ar
    assert kl_at("dcd", 4) < kl_ar


def test_rankwise_gap_zero_for_exact_pair_instances():
    from maskdiff.harness import rankwise_projection_gap
    from maskdiff.noising import SequenceState

    data = correlated_pair().floored()
    dm, cop = DiffusionMarginalModel.exact(data), ARCopulaModel.exact(data)
    mask = data.alphabet.mask_index
    for tokens in ((mask, mask), (mask, 1), (0, mask)):
        x_next = SequenceState(tokens, 1, data.alphabet)
        assert rankwise_projection_gap(dm, cop, x_next) < 1e-12


def test_rankwise_gap_measures_mismatch():
    # with a mismatched copula at the all-mask start the two-context factors
    # vanish, so the fused law keeps the copula's wrong marginals while the
    # exact projection corrects them; the diagnostic must see that
    from maskdiff.dist import sample_states
    from maskdiff.harness import rankwise_projection_gap
    from maskdiff.noising import SequenceState

    rng = np.random.default_rng(130)
    data = random_table(rng, 3, 2, floor=True)
    dm = DiffusionMarginalModel.exact(data)
    cop = ARCopulaModel.from_corpus(sample_states(data, 30, rng), data.alphabet)
    x_next = SequenceState.all_masked(data.alphabet, 1)
    gap = rankwise_projection_gap(dm, cop, x_next)
    assert gap > 1e-3


def test_rankwise_gap_takes_beta_by_keyword_only():
    from maskdiff.harness import rankwise_projection_gap

    dm, cop = exact_models(correlated_pair())
    x_next = SequenceState.all_masked(dm.alphabet, 1)
    with pytest.raises(TypeError):
        rankwise_projection_gap(dm, cop, x_next, 0)
    assert rankwise_projection_gap(dm, cop, x_next, beta=0.0) < 1e-12


def test_sweep_timings_are_opt_in(tmp_path):
    data = correlated_pair()
    dm, cop = exact_models(data)
    silent = run_sweep(data, dm, cop, ["ar_only"], [1], [1.0])
    assert silent[0].wall_ms is None
    timed = run_sweep(data, dm, cop, ["ar_only"], [1], [1.0], emit_timings=True)
    assert timed[0].wall_ms is not None and timed[0].wall_ms >= 0.0
    text = results_to_csv(timed)
    assert text.splitlines()[1].split(",")[6] != ""

