"""noising: schedules, forward process, exact reverse kernels, brute posterior."""

from __future__ import annotations

import numpy as np
import pytest

from maskdiff.dist import (
    Alphabet,
    JointTable,
    MarginalSet,
    product_table,
    state_to_index,
    total_correlation,
    univariate_marginals,
)
from maskdiff.errors import (
    AlphabetMismatchError,
    ClampError,
    DegenerateMarginalError,
    InvalidDistributionError,
    MaskDiffError,
    ScheduleError,
    SupportError,
)
from maskdiff.noising import (
    NoiseSchedule,
    SequenceState,
    aux_posterior,
    brute_reverse_posterior,
    forward_state_distribution,
    make_schedule,
    remask_kernel,
    renormalize_marginals,
)

from _helpers import lex_states, random_table, random_rows, zero_table


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_linear_schedule_t4():
    sched = make_schedule("linear", 4)
    assert sched.alphas == (0.25, 0.5, 0.75, 1.0)


def test_log_linear_t2_frozen_value():
    # sigma(1/2) = -log(1 - 0.99 * 0.5) gives alpha_1 = 1 - exp(-sigma) = 0.495
    sched = make_schedule("log-linear", 2, epsilon=0.01)
    assert sched.alphas[0] == pytest.approx(0.495, abs=1e-14)
    assert sched.alphas[1] == 1.0


def test_any_family_t1_is_full_mask():
    for family in ("linear", "log-linear"):
        assert make_schedule(family, 1).alphas == (1.0,)


def test_schedule_monotone_for_many_steps():
    for family in ("linear", "log-linear"):
        for steps in range(1, 65):
            sched = make_schedule(family, steps)
            assert all(a < b for a, b in zip((0.0,) + sched.alphas, sched.alphas))
            assert sched.alphas[-1] == 1.0


def test_non_monotone_alphas_rejected():
    with pytest.raises(ScheduleError):
        NoiseSchedule((0.8, 0.5))
    with pytest.raises(ScheduleError):
        NoiseSchedule((0.5, 0.9))  # final != 1
    with pytest.raises(ScheduleError):
        NoiseSchedule(())
    assert NoiseSchedule((0.5, 1.0)).steps == 2


def test_alpha_and_ratios():
    sched = make_schedule("linear", 4)
    assert sched.alpha(0) == 0.0
    assert sched.mask_ratio(0) == 0.0
    assert sched.mask_ratio(2) == pytest.approx(2 / 3, abs=1e-15)
    assert sched.step_mask_prob(3) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ScheduleError):
        sched.alpha(5)


# ---------------------------------------------------------------------------
# aux posterior
# ---------------------------------------------------------------------------

def test_aux_posterior_all_mask_returns_data():
    rng = np.random.default_rng(45)
    data = random_table(rng, 3, 2)
    x_next = SequenceState.all_masked(data.alphabet, 2)
    assert aux_posterior(data, x_next) is data


def test_aux_posterior_mask_free_is_point_mass():
    rng = np.random.default_rng(46)
    data = random_table(rng, 3, 2, floor=True)
    x_next = SequenceState((0, 1, 1), 2, data.alphabet)
    out = aux_posterior(data, x_next)
    assert out.prob((0, 1, 1)) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("make", [random_table, zero_table])
@pytest.mark.parametrize("n, c", [(2, 2), (3, 3)])
def test_aux_posterior_at_a_mask_free_state_is_its_point_mass_or_a_support_error(make, n, c):
    data = make(np.random.default_rng(23), n, c)
    raised = 0
    for k, tokens in enumerate(lex_states(n, c)):
        x_next = SequenceState(tokens, 1, data.alphabet)
        if data.probs[k] == 0.0:
            with pytest.raises(SupportError):
                aux_posterior(data, x_next)
            raised += 1
            continue
        point = np.zeros(c**n)
        point[k] = 1.0
        assert np.array_equal(aux_posterior(data, x_next).probs, point), tokens
    assert raised > 0 if make is zero_table else raised == 0


def test_aux_posterior_matches_condition_and_clamp_oracle():
    rng = np.random.default_rng(47)
    data = random_table(rng, 3, 2, floor=True)
    mask = data.alphabet.mask_index
    x_next = SequenceState((1, mask, 0), 1, data.alphabet)
    out = aux_posterior(data, x_next)
    states = lex_states(3, 2)
    weights = [
        data.probs[k] if (s[0] == 1 and s[2] == 0) else 0.0
        for k, s in enumerate(states)
    ]
    total = sum(weights)
    for k, s in enumerate(states):
        assert out.probs[k] == pytest.approx(weights[k] / total, abs=1e-14)


def test_aux_posterior_zero_evidence_raises():
    probs = np.array([0.5, 0.5, 0.0, 0.0])
    data = JointTable(Alphabet(2, 2), probs)
    x_next = SequenceState((1, data.alphabet.mask_index), 1, data.alphabet)
    with pytest.raises(SupportError):
        aux_posterior(data, x_next)


# ---------------------------------------------------------------------------
# remask kernel
# ---------------------------------------------------------------------------

def test_remask_never_masks_at_t0():
    alphabet = Alphabet(3, 2)
    sched = make_schedule("linear", 2)
    mask = alphabet.mask_index
    x_next = SequenceState((mask, 1, mask), 1, alphabet)
    [(out, p)] = remask_kernel(x_next, sched).outcomes((0, 1, 1))
    assert out.tokens == (0, 1, 1) and out.time == 0 and p == pytest.approx(1.0)


def test_remask_kernel_rejects_a_time_outside_the_schedule():
    alphabet = Alphabet(2, 2)
    sched = make_schedule("linear", 3)
    with pytest.raises(ScheduleError):
        remask_kernel(SequenceState((0, 1), 0, alphabet), sched)  # mask-free, time 0
    with pytest.raises(ScheduleError):
        remask_kernel(SequenceState.all_masked(alphabet, 4), sched)  # time T + 1


def test_remask_clamp_violation_rejected():
    alphabet = Alphabet(2, 2)
    sched = make_schedule("linear", 3)
    kern = remask_kernel(SequenceState((0, alphabet.mask_index), 2, alphabet), sched)
    with pytest.raises(ClampError):
        kern.outcomes((1, 0))
    with pytest.raises(ClampError):
        kern.rows((1, 0))


def test_remask_mixed_chunk_rejected():
    alphabet = Alphabet(4, 2)
    mask = alphabet.mask_index
    x_next = SequenceState((mask, 0, mask, mask), 1, alphabet)
    with pytest.raises(ClampError, match="mixed chunk"):
        remask_kernel(x_next, make_schedule("linear", 2, chunk_size=2))
    assert remask_kernel(x_next, make_schedule("linear", 2)).mask_chunks == ((0,), (2,), (3,))


def test_remask_outcomes_are_breadth_first_in_remask_keep_order():
    alphabet = Alphabet(3, 2)
    mask = alphabet.mask_index
    kern = remask_kernel(SequenceState((mask, 0, mask), 2, alphabet), make_schedule("linear", 2))
    ratio = kern.ratio
    outs = kern.outcomes((1, 0, 1))
    assert [x.tokens for x, _ in outs] == [(mask, 0, mask), (mask, 0, 1), (1, 0, mask), (1, 0, 1)]
    assert [p for _, p in outs] == [
        1.0 * ratio * ratio, 1.0 * ratio * (1.0 - ratio),
        1.0 * (1.0 - ratio) * ratio, 1.0 * (1.0 - ratio) * (1.0 - ratio),
    ]


def test_remask_rows_are_distributions_with_exact_mask_mass():
    alphabet = Alphabet(3, 2)
    sched = make_schedule("linear", 3)
    mask = alphabet.mask_index
    x_next = SequenceState((mask, 0, mask), 2, alphabet)
    kern = remask_kernel(x_next, sched)
    rows = kern.rows((1, 0, 0)).rows
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-15)
    ratio = sched.mask_ratio(1)  # (1/3) / (2/3)
    assert rows[0, mask] == ratio
    assert rows[2, mask] == ratio
    assert rows[1, mask] == 0.0
    total = sum(p for _, p in kern.outcomes((1, 0, 0)))
    assert total == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# brute reverse posterior
# ---------------------------------------------------------------------------

def test_brute_posterior_factorized_data_stays_factorized():
    rng = np.random.default_rng(49)
    data = product_table(random_rows(rng, 3, 2), Alphabet(3, 2))
    sched = make_schedule("linear", 3)
    x_next = SequenceState.all_masked(data.alphabet, 2)
    post = brute_reverse_posterior(data, x_next, sched)
    assert total_correlation(post) < 1e-10


def test_brute_posterior_single_variable_hand_mixture():
    # N=1: the reverse step from the all-mask prior keeps MASK with
    # probability alpha_{T-1} and reveals the data marginal otherwise.
    probs = np.array([0.3, 0.7])
    data = JointTable(Alphabet(1, 2), probs)
    sched = make_schedule("linear", 2)  # alpha_1 = 0.5
    x_next = SequenceState((data.alphabet.mask_index,), 2, data.alphabet)
    post = brute_reverse_posterior(data, x_next, sched)
    np.testing.assert_allclose(post.probs, [0.5 * 0.3, 0.5 * 0.7, 0.5], atol=1e-14)


def test_brute_posterior_unreachable_state_raises():
    probs = np.zeros(4)
    probs[0] = 1.0  # point mass at (0, 0)
    data = JointTable(Alphabet(2, 2), probs)
    sched = make_schedule("linear", 2)
    bad = SequenceState((1, data.alphabet.mask_index), 2, data.alphabet)
    with pytest.raises(SupportError):
        brute_reverse_posterior(data, bad, sched)


def test_brute_posterior_rejects_a_time_zero_state():
    data = JointTable(Alphabet(2, 2), np.full(4, 0.25))
    with pytest.raises(MaskDiffError):
        brute_reverse_posterior(data, SequenceState((0, 1), 0, data.alphabet),
                                make_schedule("linear", 2))


def test_brute_marginals_match_renormalization_relation():
    rng = np.random.default_rng(50)
    data = random_table(rng, 3, 2, floor=True)
    sched = make_schedule("linear", 3)
    mask = data.alphabet.mask_index
    x_next = SequenceState((mask, 1, mask), 2, data.alphabet)
    post = brute_reverse_posterior(data, x_next, sched)
    renorm = renormalize_marginals(
        univariate_marginals(post), x_next
    )
    direct = univariate_marginals(aux_posterior(data, x_next))
    np.testing.assert_allclose(renorm.rows, direct.rows, atol=1e-10)


def _reachable_states(data, t, sched):
    qt = forward_state_distribution(data, t, sched)
    k = data.num_categories + 1
    for idx, w in enumerate(qt.probs):
        if w > 0.0:
            tokens = []
            rest = idx
            for _ in range(data.num_positions):
                tokens.append(rest % k)
                rest //= k
            yield SequenceState(tuple(reversed(tokens)), t, data.alphabet)


def test_factorization_identity_small_instance_grid():
    rng = np.random.default_rng(51)
    for n in (1, 2, 3):
        for c in (2, 3):
            data = random_table(rng, n, c, floor=True)
            for steps in (1, 2, 4):
                sched = make_schedule("linear", steps)
                for t in range(steps):
                    for x_next in _reachable_states(data, t + 1, sched):
                        brute = brute_reverse_posterior(data, x_next, sched)
                        aux = aux_posterior(data, x_next)
                        combined = np.zeros(brute.alphabet.num_states)
                        kern = remask_kernel(x_next, sched)
                        for k, tokens in enumerate(lex_states(n, c)):
                            if aux.probs[k] <= 0.0:
                                continue
                            for state, p in kern.outcomes(tokens):
                                combined[
                                    state_to_index(brute.alphabet, state.tokens)
                                ] += aux.probs[k] * p
                        assert np.max(np.abs(combined - brute.probs)) < 1e-10


def _check_against_forward_simulation(chunk_size: int, target: tuple[int, ...]) -> None:
    # independent route: simulate x0 -> x_t -> x_{t+1} chains from the raw
    # process definition (one draw per chunk), condition on one x_{t+1},
    # histogram x_t
    from maskdiff.dist import sample_states

    rng = np.random.default_rng(77)
    data = random_table(rng, 3, 2, floor=True)
    sched = make_schedule("linear", 3, chunk_size=chunk_size)
    t = 1
    mask = data.alphabet.mask_index
    draws = 400_000
    x0 = sample_states(data, draws, rng)
    chunk_of = [i // chunk_size for i in range(3)]
    shape = (draws, chunk_of[-1] + 1)
    masked_t = (rng.random(shape) < sched.alpha(t))[:, chunk_of]
    x_t = np.where(masked_t, mask, x0)
    mask_more = masked_t | (rng.random(shape) < sched.step_mask_prob(t))[:, chunk_of]
    x_t1 = np.where(mask_more, mask, x0)
    sel = np.all(x_t1 == np.array(target), axis=1)
    assert sel.sum() > 10_000
    counts = np.zeros(27)  # (C+1)^N states
    idx = x_t[sel] @ (3 ** np.arange(2, -1, -1))
    np.add.at(counts, idx, 1.0)
    emp = counts / counts.sum()
    post = brute_reverse_posterior(
        data, SequenceState(target, t + 1, data.alphabet), sched
    )
    sigma = np.sqrt(post.probs * (1 - post.probs) / counts.sum())
    assert np.all(np.abs(emp - post.probs) <= 3 * sigma + 1e-12)


def test_brute_posterior_matches_forward_simulation():
    _check_against_forward_simulation(1, (2, 0, 2))  # C = 2, so MASK is 2


def test_brute_posterior_matches_chunked_forward_simulation():
    _check_against_forward_simulation(2, (2, 2, 0))


def test_brute_posterior_rejects_a_mixed_chunk_state():
    rng = np.random.default_rng(78)
    data = random_table(rng, 3, 2, floor=True)
    sched = make_schedule("linear", 3, chunk_size=2)
    mask = data.alphabet.mask_index
    for tokens in ((mask, 0, 1), (1, mask, mask)):
        with pytest.raises(SupportError):
            brute_reverse_posterior(data, SequenceState(tokens, 2, data.alphabet), sched)


def test_forward_state_distribution_endpoints():
    rng = np.random.default_rng(52)
    data = random_table(rng, 2, 2)
    sched = make_schedule("linear", 2)
    at_zero = forward_state_distribution(data, 0, sched)
    for k, tokens in enumerate(lex_states(2, 2)):
        assert at_zero.probs[state_to_index(at_zero.alphabet, tokens)] == pytest.approx(
            data.probs[k], abs=1e-15
        )
    at_t = forward_state_distribution(data, 2, sched)
    all_mask = state_to_index(at_t.alphabet, (2, 2))
    assert at_t.probs[all_mask] == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# renormalize_marginals
# ---------------------------------------------------------------------------

def test_renormalize_arithmetic():
    rows = MarginalSet(np.array([[0.2, 0.3, 0.5], [0.4, 0.6, 0.0]]))
    alphabet = Alphabet(2, 2)

    out = renormalize_marginals(rows, SequenceState((alphabet.mask_index, 1), 1, alphabet))
    np.testing.assert_allclose(out.rows[0], [0.4, 0.6], atol=1e-15)
    np.testing.assert_allclose(out.rows[1], [0.4, 0.6], atol=1e-15)


def test_renormalize_degenerate_row_raises():
    rows = MarginalSet(np.array([[0.0, 0.0, 1.0]]))
    alphabet = Alphabet(1, 2)

    with pytest.raises(DegenerateMarginalError):
        renormalize_marginals(rows, SequenceState.all_masked(alphabet, 1))


def test_renormalize_rejects_mask_mass_on_an_unmasked_position():
    rows = MarginalSet(np.array([[0.2, 0.3, 0.5], [0.4, 0.5, 0.1]]))
    alphabet = Alphabet(2, 2)
    with pytest.raises(InvalidDistributionError, match="unmasked position 1"):
        renormalize_marginals(rows, SequenceState((alphabet.mask_index, 0), 1, alphabet))
    out = renormalize_marginals(rows, SequenceState.all_masked(alphabet, 1))
    np.testing.assert_allclose(out.rows[1], [4 / 9, 5 / 9], atol=1e-15)


def test_renormalize_reads_the_mask_column_from_the_row_width():
    data = random_table(np.random.default_rng(51), 3, 2, floor=True)
    mask = data.alphabet.mask_index
    x_next = SequenceState((mask, 0, mask), 2, data.alphabet)
    post = brute_reverse_posterior(data, x_next, make_schedule("linear", 3))
    direct = univariate_marginals(aux_posterior(data, x_next))  # (N, C): no mask column
    renorm = renormalize_marginals(univariate_marginals(post), x_next)  # (N, C+1), no flag
    np.testing.assert_allclose(renorm.rows, direct.rows, atol=1e-10)
    for rows in (direct, MarginalSet(univariate_marginals(post).rows[:2])):
        with pytest.raises(AlphabetMismatchError, match="rows with a mask column"):
            renormalize_marginals(rows, x_next)


def test_sequence_state_invariants():
    alphabet = Alphabet(2, 2)
    with pytest.raises(InvalidDistributionError):
        SequenceState((2, 0), 0, alphabet)  # mask at time 0
    state = SequenceState((2, 1), 1, alphabet)
    with pytest.raises(InvalidDistributionError, match="out of range"):
        remask_kernel(state, make_schedule("linear", 2)).outcomes((2, 1))
    assert state.masked_positions == (0,)
    assert state.unmasked_positions == (1,)
