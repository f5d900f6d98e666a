"""harness: generators, exact bound diagnostics, induced laws, sweeps."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from maskdiff import dist, harness, noising
from maskdiff.dist import (
    Alphabet,
    JointTable,
    MarginalSet,
    entropy,
    kl,
    product_table,
    sample_states,
    total_correlation,
    univariate_marginals,
)
from maskdiff.errors import (
    AlphabetMismatchError,
    CapExceededError,
    InvalidDistributionError,
    MaskDiffError,
    ScheduleError,
    SupportError,
)
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

from _helpers import (
    correlated_pair,
    exact_models,
    per_pattern_bound,
    random_rows,
    random_table,
    zero_table,
)


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


def test_synthetic_spec_rejects_negative_seed():
    with pytest.raises(InvalidDistributionError, match="seed must be >= 0"):
        SyntheticSpec("markov_chain", 2, 2, 0.5, seed=-1)


# ---------------------------------------------------------------------------
# bound diagnostics
# ---------------------------------------------------------------------------

def shared_reveal_entropy(sched) -> float:
    """sum_t a_t h(r_t), r_t = (a_t - a_{t-1}) / a_t: the entropy of the
    reveal that the positions of one masked chunk share, summed over steps."""
    total = 0.0
    for t in range(1, sched.steps + 1):
        a_prev, a_t = sched.alpha(t - 1), sched.alpha(t)
        r = (a_t - a_prev) / a_t
        total += a_t * sum(-p * math.log(p) for p in (r, 1.0 - r) if p > 0.0)
    return total


def test_bound_of_product_data_is_entropy_for_any_schedule():
    # a product table's posteriors have TC only from the reveal that the
    # positions of a chunk share: (N - K) sum_t a_t h(r_t) over K chunks,
    # which the linear schedule telescopes to (N - K) log T
    rng = np.random.default_rng(120)
    for n, c in ((2, 3), (3, 3), (4, 3), (5, 2)):
        data = product_table(random_rows(rng, n, c), Alphabet(n, c))
        for chunk in (1, 2, 3):
            extra = n - len(noising.chunk_groups(n, chunk))
            for family in ("linear", "log-linear"):
                for steps in range(1, 9):
                    sched = make_schedule(family, steps, chunk_size=chunk)
                    excess = elbo_bound(data, sched) - entropy(data)
                    case = (n, c, chunk, family, steps)
                    expected = extra * shared_reveal_entropy(sched)
                    assert excess == pytest.approx(expected, abs=1e-12), case
                    if family == "linear":
                        assert excess == pytest.approx(extra * math.log(steps), abs=1e-12), case


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
    then per reachable x_t, each from its own brute_reverse_posterior: the
    per-state oracle for `elbo_bound` and `nelbo_factorized`."""
    bound = nelbo = entropy(data)
    for t in range(1, sched.steps + 1):
        for x_t, weight in reachable_states(data, t, sched):
            post = brute_reverse_posterior(data, x_t, sched)
            bound += weight * total_correlation(post)
            rows = univariate_marginals(post)
            nelbo += weight * kl(post, product_table(rows, post.alphabet))
    return bound, nelbo


def _per_state_bound(data: JointTable, sched) -> float:
    """The bound of `_per_state_bounds` alone, summed the same way: its NELBO
    takes a KL against `product_table(rows)`, whose entries can underflow
    where the bound's log marginals do not."""
    bound = entropy(data)
    for t in range(1, sched.steps + 1):
        for x_t, weight in reachable_states(data, t, sched):
            bound += weight * total_correlation(brute_reverse_posterior(data, x_t, sched))
    return bound


def within_golden(new: float, old: float) -> bool:
    """ROADMAP's golden rule for reordered arithmetic."""
    return abs(new - old) <= max(1e-13 * abs(old), 1e-15)


@pytest.mark.parametrize("chunk_size", [1, 2])
@pytest.mark.parametrize("family", ["linear", "log-linear"])
def test_bound_and_optimal_nelbo_equal_the_per_state_sum_bit_for_bit(family, chunk_size):
    rng = np.random.default_rng(132)
    for data in (random_table(rng, 3, 3),
                 gen_data(SyntheticSpec("correlated_phrases", 3, 2, 1.0))):  # has zeros
        sched = make_schedule(family, 3, chunk_size=chunk_size)
        bound, nelbo = _per_state_bounds(data, sched)
        assert within_golden(elbo_bound(data, sched), bound)  # the NELBO stays per-state
        assert nelbo_factorized(data, sched, optimal_factorized_denoiser(data, sched)) == nelbo


def test_nelbo_builds_each_forward_marginal_once_and_the_bound_none(monkeypatch):
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
    assert within_golden(elbo_bound(data, sched), bound)
    assert calls == []  # the bound reads subset entropies of the data alone
    assert nelbo_factorized(data, sched, denoiser) == nelbo
    assert calls == [0, 1, 2, 3, 4]


def bound_outcome(call):
    """The bound a call returns, or the class name of the MaskDiffError it raises."""
    try:
        return call()
    except MaskDiffError as exc:
        return type(exc).__name__


def assert_bound_matches_per_state(data: JointTable, sched) -> str | None:
    """`elbo_bound` against both oracles, the per-pattern pass and the
    per-state sum, which must agree on a value or on an error class."""
    oracle = bound_outcome(lambda: _per_state_bound(data, sched))
    pattern = bound_outcome(lambda: per_pattern_bound(data, sched))
    if isinstance(oracle, str):
        assert pattern == oracle
        return oracle
    assert not isinstance(pattern, str), pattern
    closed = elbo_bound(data, sched)
    assert within_golden(pattern, oracle), (pattern, oracle)
    assert within_golden(closed, oracle), (closed, oracle)
    assert within_golden(closed, pattern), (closed, pattern)
    return None


BOUND_SHAPES = ((2, 2), (3, 3), (4, 3), (5, 2))


@pytest.mark.parametrize("family", ["linear", "log-linear"])
@pytest.mark.parametrize("chunk_size", [1, 2, 3])
@pytest.mark.parametrize("n, c", BOUND_SHAPES)
def test_per_pattern_bound_matches_the_per_state_sum(n, c, chunk_size, family):
    data = gen_data(SyntheticSpec("markov_chain", n, c, 0.8, seed=n * c))
    sched = make_schedule(family, 3, chunk_size=chunk_size)
    assert assert_bound_matches_per_state(data, sched) is None


def test_per_pattern_bound_matches_the_per_state_sum_on_tables_with_zeros():
    rng = np.random.default_rng(134)
    for k in range(60):
        n, c = BOUND_SHAPES[k % len(BOUND_SHAPES)]
        chunk_size = 1 + k // len(BOUND_SHAPES) % 3
        family = ("linear", "log-linear")[k // 12 % 2]
        sched = make_schedule(family, int(rng.integers(1, 4)), chunk_size=chunk_size)
        assert assert_bound_matches_per_state(zero_table(rng, n, c), sched) is None, k


def test_per_pattern_bound_matches_the_per_state_sum_on_underflow():
    # every entry but the last is 0 or of order 1e-300, so a posterior's
    # marginal product underflows to 0 on its support; both paths then take
    # its log as the sum of the log marginals and agree on a finite bound
    rng = np.random.default_rng(135)
    probs = zero_table(rng, 3, 3).probs * 1e-300
    probs[-1] = 1.0 - probs[:-1].sum()
    data = JointTable(Alphabet(3, 3), probs)
    for family in ("linear", "log-linear"):
        for steps in (1, 2, 3):
            for chunk in (1, 2, 3):
                sched = make_schedule(family, steps, chunk_size=chunk)
                assert assert_bound_matches_per_state(data, sched) is None, (family, steps, chunk)


def test_bound_makes_no_per_state_posterior(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("elbo_bound built a per-state posterior or TC")

    per_state = {"posterior_from_prior": noising.posterior_from_prior,
                 "total_correlation": dist.total_correlation}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "maskdiff":
            for attr, original in per_state.items():
                if getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, refuse)
    data = random_table(np.random.default_rng(136), 3, 3)
    for chunk_size in (1, 2):
        elbo_bound(data, make_schedule("linear", 3, chunk_size=chunk_size))


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
        return MarginalSet(rows)

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
            return MarginalSet(rows)

        assert nelbo_factorized(data, sched, perturbed) > bound


def test_nelbo_reads_the_mask_column_from_the_row_width():
    data = correlated_pair()
    sched = make_schedule("linear", 2)
    optimal = optimal_factorized_denoiser(data, sched)
    nelbo = nelbo_factorized(data, sched, optimal)
    assert nelbo_factorized(data, sched, lambda x_t: MarginalSet(optimal(x_t).rows)) == nelbo
    with pytest.raises(AlphabetMismatchError):  # (N, C) rows carry no mask column
        nelbo_factorized(data, sched, lambda x_t: MarginalSet(np.full((2, 2), 0.5)))


TINY = JointTable(Alphabet(2, 2), np.array([1e-300, 1e-300, 1e-300, 1.0]))


@pytest.mark.parametrize("family", ["linear", "log-linear"])
@pytest.mark.parametrize("steps", [1, 2, 3])
def test_optimal_nelbo_attains_the_bound_where_the_marginal_product_underflows(steps, family):
    sched = make_schedule(family, steps)
    bound = elbo_bound(TINY, sched)
    nelbo = nelbo_factorized(TINY, sched, optimal_factorized_denoiser(TINY, sched))
    assert bound > 0.0
    assert within_golden(nelbo, bound)


@pytest.mark.parametrize("family", ["linear", "log-linear"])
def test_bound_on_a_near_deterministic_table_lies_between_its_entropy_and_one_step(family):
    # TINY's bound is of order 1e-297; a pass that takes ratios of its
    # posteriors can return rounding noise of order 1e-17 instead
    bounds = [elbo_bound(TINY, make_schedule(family, steps)) for steps in range(1, 9)]
    assert all(entropy(TINY) <= b <= bounds[0] for b in bounds)
    assert all(later <= earlier for earlier, later in zip(bounds, bounds[1:]))


def test_nelbo_still_raises_where_a_denoiser_row_vanishes_on_the_support():
    sched = make_schedule("linear", 1)
    optimal = optimal_factorized_denoiser(TINY, sched)

    def zeroed(x_t: SequenceState) -> MarginalSet:
        rows = optimal(x_t).rows.copy()
        rows[0, 0] = 0.0  # the posterior has mass 1e-300 there
        return MarginalSet(rows / rows.sum(axis=1, keepdims=True))

    with pytest.raises(SupportError):
        nelbo_factorized(TINY, sched, zeroed)


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


@pytest.mark.parametrize("mode", ["dcd", "diffusion_only", "dcd_ar_unmask"])
def test_induced_exact_cap_holds_at_its_edge(mode):
    rng = np.random.default_rng(122)
    data = random_table(rng, 4, 3, floor=True)  # (C+1)^N = 256
    dm, cop = exact_models(data)
    at_cap = induced_distribution(dm, cop, SamplerConfig(5, make_schedule("linear", 5), mode))
    assert at_cap.method == "exact"  # 256 * 5 = 1280 cells, the cap itself
    assert at_cap.table.probs.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(CapExceededError, match=r"\(C\+1\)\^N \* T = 1536 exceeds the exact cap 1280$"):
        induced_distribution(dm, cop, SamplerConfig(6, make_schedule("linear", 6), mode))


def test_sweep_without_a_needed_model_raises():
    # with no copula, dcd must not report diffusion_only's KL under its own label
    dm, _ = exact_models(correlated_pair())
    with pytest.raises(InvalidDistributionError, match="requires a copula"):
        run_sweep(correlated_pair(), dm, None, ["dcd"], [1, 2], [1.0])


def test_sweep_checks_the_models_alphabet_against_the_data_before_any_cell(monkeypatch):
    def no_cell(rows, cfg):
        raise AssertionError("a cell was computed before the alphabets were checked")

    monkeypatch.setattr(harness, "_induced_exact", no_cell)
    data = gen_data(SyntheticSpec("markov_chain", 3, 3, 0.8, seed=1))
    dm, cop = exact_models(gen_data(SyntheticSpec("markov_chain", 2, 2, 0.8, seed=1)))
    for modes, models in ((["ar_only"], (None, cop)), (["diffusion_only"], (dm, None)),
                          (["dcd", "ar_only"], (dm, cop))):
        with pytest.raises(AlphabetMismatchError, match="data table"):
            run_sweep(data, *models, modes, [1, 2], [1.0])


def test_sweep_checks_every_cell_before_computing_a_bound(monkeypatch):
    def no_bound(data, sched):
        raise AssertionError("elbo_bound called before every cell was checked")

    monkeypatch.setattr(harness, "elbo_bound", no_bound)
    big = gen_data(SyntheticSpec("markov_chain", 5, 3, 0.8, seed=2))
    dm, cop = exact_models(big)
    with pytest.raises(CapExceededError, match=r"\(C\+1\)\^N \* T = 40960 "):
        run_sweep(big, dm, cop, ["ar_only", "dcd"], [1, 40], [1.0])
    pair = correlated_pair()
    with pytest.raises(InvalidDistributionError, match="requires a copula"):
        run_sweep(pair, exact_models(pair)[0], None, ["diffusion_only", "dcd"], [1, 2], [1.0])
    # ar_only cells stay exempt from the cap
    monkeypatch.setattr(harness, "elbo_bound", lambda data, sched: 0.0)
    [row] = run_sweep(big, None, cop, ["ar_only"], [40], [1.0])
    assert row.kl_to_data == pytest.approx(0.0, abs=1e-12)


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


def test_sweep_timings_are_opt_in(tmp_path):
    data = correlated_pair()
    dm, cop = exact_models(data)
    silent = run_sweep(data, dm, cop, ["ar_only"], [1], [1.0])
    assert silent[0].wall_ms is None
    timed = run_sweep(data, dm, cop, ["ar_only"], [1], [1.0], emit_timings=True)
    assert timed[0].wall_ms is not None and timed[0].wall_ms >= 0.0
    text = results_to_csv(timed)
    assert text.splitlines()[1].split(",")[6] != ""

