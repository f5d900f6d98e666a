"""dist-core: information functionals, conditioning, odds ratios, serialization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from maskdiff.dist import (
    Alphabet,
    JointTable,
    MarginalSet,
    all_states,
    condition,
    conditional_odds_ratio,
    dumps_table,
    entropy,
    kl,
    kl_to_product,
    loads_table,
    product_table,
    same_copula,
    sample_states,
    state_to_index,
    total_correlation,
    univariate_marginals,
)
from maskdiff.errors import (
    InvalidDistributionError,
    PositivityError,
    SupportError,
    UnsupportedAlphabetError,
)
from maskdiff.iproj import FactorMatrix, apply_factors

from _helpers import lex_states, random_table, random_rows


# Two binary variables with odds ratio 125: cells proportional to (125,1,1,1).
FIG2_STYLE_PROBS = np.array([125.0, 1.0, 1.0, 1.0]) / 128.0


def fig2_table() -> JointTable:
    return JointTable(Alphabet(2, 2), FIG2_STYLE_PROBS)


# ---------------------------------------------------------------------------
# entropy / kl
# ---------------------------------------------------------------------------

def test_entropy_point_mass_is_zero():
    probs = np.zeros(8)
    probs[3] = 1.0
    assert entropy(JointTable(Alphabet(3, 2), probs)) == 0.0


def test_entropy_uniform_is_log_states():
    p = JointTable(Alphabet(3, 2), np.full(8, 1 / 8))
    assert entropy(p) == pytest.approx(math.log(8), abs=1e-14)


def naive_entropy(probs) -> float:
    total = 0.0
    for v in probs:
        if v > 0:
            total -= v * math.log(v)
    return total


def test_entropy_matches_naive_loop_oracle():
    rng = np.random.default_rng(11)
    p = random_table(rng, 2, 2)
    assert entropy(p) == pytest.approx(naive_entropy(p.probs), abs=1e-12)


def naive_kl(p_probs, q_probs) -> float:
    total = 0.0
    for a, b in zip(p_probs, q_probs):
        if a > 0:
            total += a * math.log(a / b)
    return total


def test_kl_identical_is_exactly_zero():
    rng = np.random.default_rng(12)
    p = random_table(rng, 2, 3)
    assert kl(p, p) == 0.0


def test_kl_point_mass_vs_uniform():
    probs = np.zeros(4)
    probs[2] = 1.0
    p = JointTable(Alphabet(2, 2), probs)
    q = JointTable(Alphabet(2, 2), np.full(4, 0.25))
    assert kl(p, q) == pytest.approx(math.log(4), abs=1e-14)


def test_kl_matches_naive_loop_oracle():
    rng = np.random.default_rng(13)
    p = random_table(rng, 3, 2, floor=True)
    q = random_table(rng, 3, 2, floor=True)
    assert kl(p, q) == pytest.approx(naive_kl(p.probs, q.probs), abs=1e-12)


def test_kl_nonnegative_randomized():
    rng = np.random.default_rng(14)
    for _ in range(50):
        p = random_table(rng, 2, 3, floor=True)
        q = random_table(rng, 2, 3, floor=True)
        assert kl(p, q) >= 0.0


def test_kl_support_violation_raises():
    probs = np.zeros(4)
    probs[0] = 1.0
    point = JointTable(Alphabet(2, 2), probs)
    other = np.zeros(4)
    other[1] = 1.0
    with pytest.raises(SupportError):
        kl(point, JointTable(Alphabet(2, 2), other))


# ---------------------------------------------------------------------------
# marginals / total correlation
# ---------------------------------------------------------------------------

def test_marginals_of_product_return_the_rows():
    rng = np.random.default_rng(16)
    rows = random_rows(rng, 3, 3)
    back = univariate_marginals(product_table(rows, Alphabet(3, 3)))
    np.testing.assert_allclose(back.rows, rows.rows, atol=1e-14)


def test_marginals_fig2_style_table():
    p = fig2_table()
    m = univariate_marginals(p)
    # row sums of the 2x2 layout: (125+1)/128 and (1+1)/128 each way
    np.testing.assert_allclose(m.rows[0], [126 / 128, 2 / 128], atol=1e-15)
    np.testing.assert_allclose(m.rows[1], [126 / 128, 2 / 128], atol=1e-15)


def test_marginals_match_summation_oracle():
    rng = np.random.default_rng(17)
    p = random_table(rng, 3, 2)
    states = lex_states(3, 2)
    for i in range(3):
        for c in range(2):
            expected = sum(
                p.probs[k] for k, s in enumerate(states) if s[i] == c
            )
            assert univariate_marginals(p).rows[i, c] == pytest.approx(expected, abs=1e-14)


def test_total_correlation_product_is_zero():
    rng = np.random.default_rng(18)
    rows = random_rows(rng, 3, 2)
    assert total_correlation(product_table(rows, Alphabet(3, 2))) == pytest.approx(0.0, abs=1e-12)


def test_total_correlation_diagonal_pair_is_log2():
    probs = np.array([0.5, 0.0, 0.0, 0.5])
    assert total_correlation(JointTable(Alphabet(2, 2), probs)) == pytest.approx(
        math.log(2), abs=1e-14
    )


def test_total_correlation_composes_kl_and_product():
    rng = np.random.default_rng(19)
    p = random_table(rng, 2, 3)
    direct = kl(p, product_table(univariate_marginals(p), p.alphabet))
    assert total_correlation(p) == pytest.approx(direct, abs=1e-12)


def test_total_correlation_nonnegative_and_zero_iff_product():
    rng = np.random.default_rng(20)
    for _ in range(30):
        p = random_table(rng, 2, 2)
        tc = total_correlation(p)
        assert tc >= 0.0
        prod = product_table(univariate_marginals(p), p.alphabet)
        if tc < 1e-10:
            assert np.max(np.abs(p.probs - prod.probs)) < 1e-5


def test_kl_to_product_is_kl_against_the_product_table_bit_for_bit():
    rng = np.random.default_rng(22)
    for n, c in ((1, 2), (2, 3), (3, 3), (4, 2)):
        p = random_table(rng, n, c)
        for rows in (univariate_marginals(p), random_rows(rng, n, c)):
            assert kl_to_product(p, rows) == kl(p, product_table(rows, p.alphabet))


def test_kl_to_product_sums_log_rows_where_the_product_underflows():
    p = JointTable(Alphabet(2, 2), np.array([1e-300, 1e-300, 1e-300, 1.0]))
    rows = univariate_marginals(p)
    assert np.any(product_table(rows, p.alphabet).probs[p.probs > 0.0] == 0.0)
    with pytest.raises(SupportError):
        kl(p, product_table(rows, p.alphabet))
    log_q = np.add.outer(*np.log(rows.rows)).ravel()
    direct = float(np.sum(p.probs * (np.log(p.probs) - log_q)))
    assert kl_to_product(p, rows) == pytest.approx(direct, rel=1e-12)
    assert kl_to_product(p, rows) > 0.0
    with pytest.raises(SupportError):  # a row that is 0 on the support stays an error
        kl_to_product(p, MarginalSet(np.array([[1e-300, 1.0 - 1e-300], [1.0, 0.0]])))


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------

def test_condition_empty_evidence_unchanged():
    rng = np.random.default_rng(21)
    p = random_table(rng, 2, 2)
    assert condition(p, {}) is p


@pytest.mark.parametrize("c", [2, 3])
def test_every_table_has_a_position(c):
    assert Alphabet(1, c).num_states == c
    with pytest.raises(InvalidDistributionError, match="num_positions must be >= 1"):
        Alphabet(0, c)
    with pytest.raises(InvalidDistributionError, match="at least one row"):
        MarginalSet(np.zeros((0, c)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_condition_refuses_evidence_on_every_position(n):
    p = random_table(np.random.default_rng(22), n, 2, floor=True)
    with pytest.raises(InvalidDistributionError, match="every position"):
        condition(p, {i: 1 for i in range(n)})


def test_condition_matches_filter_and_renormalize_oracle():
    rng = np.random.default_rng(23)
    p = random_table(rng, 3, 2, floor=True)
    out = condition(p, {1: 1})
    states = lex_states(3, 2)
    kept = [(s, p.probs[k]) for k, s in enumerate(states) if s[1] == 1]
    total = sum(w for _, w in kept)
    for s, w in kept:
        reduced = (s[0], s[2])
        idx = state_to_index(out.alphabet, reduced)
        assert out.probs[idx] == pytest.approx(w / total, abs=1e-14)


def test_condition_zero_probability_evidence_raises():
    probs = np.array([0.5, 0.5, 0.0, 0.0])
    p = JointTable(Alphabet(2, 2), probs)
    with pytest.raises(SupportError):
        condition(p, {0: 1})


# ---------------------------------------------------------------------------
# odds ratios / copulas
# ---------------------------------------------------------------------------

def test_odds_ratio_independent_pair_is_one():
    rows = MarginalSet(np.array([[0.3, 0.7], [0.6, 0.4]]))
    p = product_table(rows, Alphabet(2, 2))
    assert conditional_odds_ratio(p, (0, 1), {}) == pytest.approx(1.0, abs=1e-12)


def test_odds_ratio_fig2_style_is_125():
    assert conditional_odds_ratio(fig2_table(), (0, 1), {}) == pytest.approx(125.0, rel=1e-12)


def test_odds_ratio_invariant_under_row_scaling():
    base = fig2_table()
    scaled = np.array(base.probs, copy=True)
    scaled[0:2] *= 3.0  # scale the x0 = 0 row of the 2x2 layout
    q = JointTable(Alphabet(2, 2), scaled / scaled.sum())
    assert conditional_odds_ratio(q, (0, 1), {}) == pytest.approx(
        conditional_odds_ratio(base, (0, 1), {}), rel=1e-12
    )


def test_odds_ratio_requires_binary():
    rng = np.random.default_rng(24)
    p = random_table(rng, 2, 3, floor=True)
    with pytest.raises(UnsupportedAlphabetError):
        conditional_odds_ratio(p, (0, 1), {})


def test_odds_ratio_requires_positive():
    probs = np.array([0.5, 0.5, 0.0, 0.0])
    with pytest.raises(PositivityError):
        conditional_odds_ratio(JointTable(Alphabet(2, 2), probs), (0, 1), {})


def test_odds_ratio_matches_explicit_parity_oracle():
    rng = np.random.default_rng(25)
    p = random_table(rng, 3, 2, floor=True)
    # A = {0, 2}, B = {1} fixed to 1: same parity as |A|=2 means even #ones
    b = {1: 1}
    num = p.prob((0, 1, 0)) * p.prob((1, 1, 1))
    den = p.prob((0, 1, 1)) * p.prob((1, 1, 0))
    assert conditional_odds_ratio(p, (0, 2), b) == pytest.approx(num / den, rel=1e-12)


def test_same_copula_reflexive_and_after_rescaling():
    rng = np.random.default_rng(26)
    for n in (2, 3, 4):
        p = random_table(rng, n, 2, floor=True)
        assert same_copula(p, p, tol=1e-12)
        v = FactorMatrix(rng.normal(0.0, 1.0, size=(n, 2)))
        q, _ = apply_factors(p, v)
        assert same_copula(p, q, tol=1e-8)


def test_same_copula_detects_different_association():
    p = fig2_table()  # odds ratio 125
    rows = univariate_marginals(p)
    q = product_table(rows, p.alphabet)  # odds ratio 1, same marginals
    assert not same_copula(p, q.floored(), tol=1e-8)


def test_copula_invariance_randomized_battery():
    rng = np.random.default_rng(27)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        p = random_table(rng, n, 2, floor=True)
        v = FactorMatrix(rng.normal(0.0, 1.0, size=(n, 2)))
        q, _ = apply_factors(p, v)
        assert same_copula(p, q, tol=1e-8)


# ---------------------------------------------------------------------------
# construction, ordering, serialization
# ---------------------------------------------------------------------------

def test_joint_table_rejects_bad_normalization():
    with pytest.raises(InvalidDistributionError):
        JointTable(Alphabet(2, 2), np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(InvalidDistributionError):
        JointTable(Alphabet(2, 2), np.array([1.5, -0.5, 0.0, 0.0]))


def test_lexicographic_order_position_zero_most_significant():
    alphabet = Alphabet(3, 2)
    assert state_to_index(alphabet, (1, 0, 0)) == 4
    assert state_to_index(alphabet, (0, 0, 1)) == 1
    np.testing.assert_array_equal(all_states(alphabet)[:3], [[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert lex_states(3, 2) == [tuple(s) for s in all_states(alphabet)]


def test_sample_states_are_the_drawn_rows_of_the_index_array():
    for n, c in ((1, 5), (8, 3)):
        table = random_table(np.random.default_rng(n), n, c)
        idx = np.random.default_rng(7).choice(table.alphabet.num_states, size=400, p=table.probs)
        drawn = sample_states(table, 400, np.random.default_rng(7))
        assert drawn.dtype == np.int64 and drawn.shape == (400, n)
        np.testing.assert_array_equal(drawn, all_states(table.alphabet)[idx])


def test_serialization_round_trip_bit_stable():
    rng = np.random.default_rng(28)
    p = random_table(rng, 3, 2)
    text = dumps_table(p)
    back = loads_table(text)
    assert np.array_equal(back.probs, p.probs)  # bitwise
    assert dumps_table(back) == text  # byte-stable second pass


def test_serialization_has_17_significant_digits():
    p = JointTable(Alphabet(1, 2), np.array([1 / 3, 2 / 3]))
    text = dumps_table(p)
    assert "0.33333333333333331" in text


def test_serialization_rejects_unknown_version():
    with pytest.raises(InvalidDistributionError):
        loads_table('{"version": 99, "N": 1, "C": 2, "probs": [0.5, 0.5]}')


def test_enumeration_cap_enforced():
    from maskdiff.errors import CapExceededError

    with pytest.raises(CapExceededError):
        Alphabet(30, 10)
