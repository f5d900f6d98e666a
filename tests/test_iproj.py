"""iproj: applying factors, the convex objective, IPF, and the factor rules."""

from __future__ import annotations

import math

import numpy as np
import pytest

from maskdiff.dist import (
    Alphabet,
    JointTable,
    MarginalSet,
    all_states,
    along_axis,
    condition,
    position_sum,
    product_table,
    same_copula,
    total_variation,
    univariate_marginals,
)
from maskdiff.errors import AlphabetMismatchError, InvalidDistributionError, PositivityError
from maskdiff import iproj
from maskdiff.iproj import (
    FactorMatrix,
    apply_factors,
    dcd_factors,
    iproject_descent,
    iproject_exact,
    objective,
    objective_gradient,
    rankwise_update,
)
from maskdiff.models import ARCopulaModel, DiffusionMarginalModel, dm_marginals_causal, dm_marginals_full
from maskdiff.noising import SequenceState

from _helpers import ipf_by_explicit_weights, random_rows, random_table


def spread_table(rng: np.random.Generator, n: int, c: int, decades: float) -> JointTable:
    """A positive table whose log10-entries are uniform over `decades` decades."""
    log_p = -decades * np.log(10.0) * rng.random(c**n)
    probs = np.exp(log_p - log_p.max())
    return JointTable(Alphabet(n, c), probs / probs.sum())


# ---------------------------------------------------------------------------
# apply_factors
# ---------------------------------------------------------------------------

def test_apply_zero_factors_is_identity():
    rng = np.random.default_rng(80)
    p = random_table(rng, 2, 3, floor=True)
    out, log_z = apply_factors(p, FactorMatrix(np.zeros((2, 3))))
    np.testing.assert_allclose(out.probs, p.probs, atol=1e-15)
    assert log_z == pytest.approx(0.0, abs=1e-12)


def test_apply_single_variable_hits_target_exactly():
    rng = np.random.default_rng(81)
    p = random_table(rng, 1, 3, floor=True)
    target = random_rows(rng, 1, 3)
    v = FactorMatrix(np.log(target.rows) - np.log(univariate_marginals(p).rows))
    out, _ = apply_factors(p, v)
    np.testing.assert_allclose(out.probs, target.rows[0], atol=1e-12)


def test_apply_preserves_copula():
    rng = np.random.default_rng(82)
    p = random_table(rng, 3, 2, floor=True)
    v = FactorMatrix(rng.normal(0.0, 1.5, size=(3, 2)))
    out, _ = apply_factors(p, v)
    assert same_copula(p, out, tol=1e-8)


def test_apply_requires_positive_table():
    probs = np.array([0.5, 0.5, 0.0, 0.0])
    with pytest.raises(PositivityError):
        apply_factors(JointTable(Alphabet(2, 2), probs), FactorMatrix(np.zeros((2, 2))))


def test_apply_reports_finite_log_z_where_z_overflows():
    # factors of size 1e3 put the total mass Z far past float64's range
    rng = np.random.default_rng(83)
    p = random_table(rng, 4, 3, floor=True)
    v = FactorMatrix(1e3 * rng.normal(0.0, 1.0, size=(4, 3)))
    out, log_z = apply_factors(p, v)
    sums = v.values[np.arange(4)[None, :], all_states(p.alphabet)].sum(axis=1)
    log_w = np.log(p.probs) + sums
    assert log_z > 710.0
    assert log_z == pytest.approx(float(np.logaddexp.reduce(log_w)), rel=1e-12)
    np.testing.assert_allclose(out.probs, np.exp(log_w - log_z), rtol=0, atol=1e-12)


def test_factor_sums_equal_the_broadcast_adds_bit_for_bit():
    rng = np.random.default_rng(101)
    for n in range(1, 11):
        for c in (2, 3, 4):
            values = rng.normal(0.0, 10.0, size=(n, c))
            total = np.zeros((c,) * n)
            for i in range(n):
                total += along_axis(values[i], i, n)
            assert np.array_equal(iproj._factor_sums(values), total)


# ---------------------------------------------------------------------------
# objective and gradient
# ---------------------------------------------------------------------------

def test_objective_and_gradient_raise_on_overflow():
    p = JointTable(Alphabet(2, 2), np.full(4, 0.25))
    target = MarginalSet(np.full((2, 2), 0.5))
    v = FactorMatrix([[800.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InvalidDistributionError, match="overflow"):
        objective(v, p, target)
    with pytest.raises(InvalidDistributionError, match="overflow"):
        objective_gradient(v, p, target)


def test_contraction_marginals_equal_axis_sums_of_the_explicit_product():
    rng = np.random.default_rng(102)
    for n in range(1, 9):
        for c in (2, 3, 4):
            for decades in (1, 50, 150, 300):
                tensor = spread_table(rng, n, c, decades).tensor()
                scales = np.exp(rng.normal(0.0, 3.0, size=(n, c)))
                w = tensor * np.exp(iproj._factor_sums(np.log(scales)))
                explicit = np.stack([position_sum(w, i) for i in range(n)])
                contracted = np.stack(list(iproj._contraction(tensor, scales)))
                np.testing.assert_allclose(contracted, explicit, rtol=1e-13, atol=0)


def test_objective_at_zero_is_one():
    rng = np.random.default_rng(84)
    p = random_table(rng, 2, 3, floor=True)
    target = random_rows(rng, 2, 3)
    assert objective(FactorMatrix(np.zeros((2, 3))), p, target) == pytest.approx(1.0, abs=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(85)
    p = random_table(rng, 2, 3, floor=True)
    target = random_rows(rng, 2, 3)
    values = rng.normal(0.0, 0.5, size=(2, 3))
    grad = objective_gradient(FactorMatrix(values), p, target)
    step = 1e-6
    for i in range(2):
        for c in range(3):
            up = values.copy()
            up[i, c] += step
            down = values.copy()
            down[i, c] -= step
            fd = (
                objective(FactorMatrix(up), p, target)
                - objective(FactorMatrix(down), p, target)
            ) / (2 * step)
            assert grad[i, c] == pytest.approx(fd, abs=1e-6)
    # the tensor kernels against sums walked over the explicit index array
    for n, c in ((2, 3), (3, 3), (5, 2)):
        p = random_table(rng, n, c, floor=True)
        target = random_rows(rng, n, c)
        v = FactorMatrix(rng.normal(0.0, 0.5, size=(n, c)))
        states = all_states(p.alphabet)
        sums = v.values[np.arange(n)[None, :], states].sum(axis=1)
        w = p.probs * np.exp(sums)
        out, log_z = apply_factors(p, v)
        np.testing.assert_allclose(out.probs, w / w.sum(), rtol=0, atol=1e-12)
        assert log_z == pytest.approx(math.log(w.sum()), rel=0, abs=1e-12)
        expected = float(w.sum() - np.sum(v.values * target.rows))
        assert objective(v, p, target) == pytest.approx(expected, rel=0, abs=1e-12)
        marg = np.stack([np.bincount(states[:, i], weights=w, minlength=c) for i in range(n)])
        np.testing.assert_allclose(objective_gradient(v, p, target), marg - target.rows,
                                   rtol=0, atol=1e-12)


def test_gradient_vanishes_at_converged_projection():
    rng = np.random.default_rng(86)
    p = random_table(rng, 3, 3, floor=True)
    target = random_rows(rng, 3, 3)
    v, report = iproject_exact(p, target)
    assert report.converged
    _, log_z = apply_factors(p, v)
    minimizer = FactorMatrix(v.values - log_z / 3)
    grad = objective_gradient(minimizer, p, target)
    assert float(np.max(np.abs(grad))) < 1e-8


# ---------------------------------------------------------------------------
# iproject_exact
# ---------------------------------------------------------------------------

def test_projection_onto_own_marginals_is_trivial():
    rng = np.random.default_rng(87)
    p = random_table(rng, 2, 3, floor=True)
    v, report = iproject_exact(p, univariate_marginals(p))
    assert report.iterations == 0
    assert report.converged
    np.testing.assert_allclose(v.values, 0.0, atol=1e-12)


def test_projection_of_product_is_product_of_targets():
    rng = np.random.default_rng(88)
    rows = random_rows(rng, 3, 2)
    p = product_table(rows, Alphabet(3, 2)).floored()
    target = random_rows(rng, 3, 2)
    v, report = iproject_exact(p, target)
    phat, _ = apply_factors(p, v)
    np.testing.assert_allclose(phat.probs, product_table(target, p.alphabet).probs, atol=1e-10)


def test_projection_matches_descent_oracle():
    rng = np.random.default_rng(89)
    for _ in range(10):
        p = random_table(rng, 3, 3, floor=True)
        target = random_rows(rng, 3, 3)
        v_ipf, r_ipf = iproject_exact(p, target)
        v_gd, r_gd = iproject_descent(p, target)
        ph_ipf, _ = apply_factors(p, v_ipf)
        ph_gd, _ = apply_factors(p, v_gd)
        assert r_ipf.converged
        assert total_variation(ph_ipf, ph_gd) < 1e-6


def test_ipf_matches_the_explicit_weight_oracle():
    """The contraction against IPF on the explicit (C,)*N weight tensor, on
    tables spread over up to 300 decades and targets with a zero entry (which
    meet the floor). Both stop after at most 50 sweeps, which keeps the
    explicit oracle fast at (8, 4): a capped case compares 50 sweeps of each,
    and 41 of the 96 cases converge before the cap."""
    rng = np.random.default_rng(103)
    converged = 0
    for n in range(1, 9):
        for c in (2, 3, 4):
            for k, decades in enumerate((1, 50, 150, 300)):
                p = spread_table(rng, n, c, decades)
                rows = rng.dirichlet(np.ones(c), size=n)
                if k % 2:
                    rows[rng.integers(n), rng.integers(c)] = 0.0
                    rows /= rows.sum(axis=1, keepdims=True)
                target = MarginalSet(rows)
                v, report = iproject_exact(p, target, max_iter=50)
                v_old, old = ipf_by_explicit_weights(p, target, max_iter=50)
                assert (report.iterations, report.converged) == (old.iterations, old.converged)
                assert np.max(np.abs(v.values - v_old.values)) <= 1e-12
                assert abs(report.max_marginal_gap - old.max_marginal_gap) <= 1e-12
                converged += report.converged
    assert converged >= 40


def test_non_convergence_is_reported_not_silent():
    rng = np.random.default_rng(90)
    p = random_table(rng, 3, 3, floor=True)
    target = random_rows(rng, 3, 3)
    v, report = iproject_exact(p, target, max_iter=1)
    assert not report.converged
    assert report.iterations == 1
    assert report.max_marginal_gap > 1e-10


def test_ipf_objective_monotone_across_sweeps():
    rng = np.random.default_rng(92)
    for _ in range(5):
        p = random_table(rng, 3, 2, floor=True)
        target = random_rows(rng, 3, 2)
        seen: list[float] = []
        iproject_exact(p, target, on_sweep=lambda k, gap, obj: seen.append(obj))
        assert all(b <= a + 1e-12 for a, b in zip(seen, seen[1:]))


def test_ipf_without_observer_never_evaluates_the_objective(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return objective(*args)

    monkeypatch.setattr(iproj, "objective", counted)
    rng = np.random.default_rng(99)
    p = random_table(rng, 3, 3, floor=True)
    target = random_rows(rng, 3, 3)
    _, report = iproject_exact(p, target)
    assert report.converged and calls == []
    iproject_exact(p, target, on_sweep=lambda k, gap, obj: None)
    assert len(calls) == report.iterations + 1


def test_pythagorean_and_strict_improvement():
    rng = np.random.default_rng(93)
    for _ in range(10):
        p_tar = random_table(rng, 2, 3, floor=True)
        p_est = random_table(rng, 2, 3, floor=True)
        target = univariate_marginals(p_tar)
        from maskdiff.dist import kl

        v, _ = iproject_exact(p_est, target)
        phat, _ = apply_factors(p_est, v)
        assert kl(p_tar, phat) < kl(p_tar, p_est)
        # Pythagorean inequality for members of the constraint set
        for _ in range(5):
            base = random_table(rng, 2, 3, floor=True)
            vv, _ = iproject_exact(base, target)
            member, _ = apply_factors(base, vv)
            assert kl(member, p_est) >= kl(member, phat) + kl(phat, p_est) - 1e-8


def test_projection_unique_across_same_copula_starts():
    rng = np.random.default_rng(94)
    for _ in range(10):
        p = random_table(rng, 3, 2, floor=True)
        q, _ = apply_factors(p, FactorMatrix(rng.normal(0.0, 1.0, size=(3, 2))))
        target = random_rows(rng, 3, 2)
        vp, _ = iproject_exact(p, target)
        vq, _ = iproject_exact(q, target)
        php, _ = apply_factors(p, vp)
        phq, _ = apply_factors(q, vq)
        assert total_variation(php, phq) < 1e-8


def test_objective_convex_along_segments():
    rng = np.random.default_rng(95)
    p = random_table(rng, 2, 3, floor=True)
    target = random_rows(rng, 2, 3)
    for _ in range(50):
        v1 = rng.normal(0.0, 1.0, size=(2, 3))
        v2 = rng.normal(0.0, 1.0, size=(2, 3))
        lam = float(rng.uniform())
        lhs = objective(FactorMatrix(lam * v1 + (1 - lam) * v2), p, target)
        rhs = lam * objective(FactorMatrix(v1), p, target) + (1 - lam) * objective(
            FactorMatrix(v2), p, target
        )
        assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# rank-wise and two-context factor rules
# ---------------------------------------------------------------------------

def test_rankwise_identical_rows_vanish():
    row = np.array([0.2, 0.3, 0.5])
    np.testing.assert_allclose(rankwise_update(row, row), 0.0, atol=1e-15)


def test_rankwise_frozen_arithmetic():
    out = rankwise_update(np.array([0.4, 0.6]), np.array([0.5, 0.5]))
    np.testing.assert_allclose(out, [math.log(0.8), math.log(1.2)], atol=1e-15)


def test_rankwise_single_row_hits_target_marginal_exactly():
    rng = np.random.default_rng(96)
    p = random_table(rng, 3, 3, floor=True)
    target_row = random_rows(rng, 1, 3).rows[0]
    for i in range(3):
        current = univariate_marginals(p).rows[i]
        values = np.zeros((3, 3))
        values[i] = rankwise_update(target_row, current)
        out, _ = apply_factors(p, FactorMatrix(values))
        np.testing.assert_allclose(
            univariate_marginals(out).rows[i], target_row, atol=1e-12
        )


def test_rankwise_rejects_mismatched_shapes():
    for dm, cop in (
        (np.full(3, 1 / 3), np.full(2, 0.5)),
        (np.full((2, 3), 1 / 3), np.full((3, 3), 1 / 3)),
        (np.full((2, 2), 0.5), np.full(4, 0.25)),
    ):
        with pytest.raises(AlphabetMismatchError):
            rankwise_update(dm, cop)


@pytest.mark.parametrize("n,c", [(2, 2), (4, 3), (8, 4), (23, 2)])
def test_dcd_factors_equal_per_row_rankwise_updates(n, c):
    rng = np.random.default_rng(100 + n * c)
    for _ in range(20):
        full, causal = (rng.gamma(1.0, size=(n, c)) for _ in range(2))
        full[rng.random((n, c)) < 0.3] = 0.0  # zero entries meet the floor
        causal[rng.random((n, c)) < 0.3] = 0.0
        full[:, 0] += 0.1
        causal[:, 0] += 0.1
        full = MarginalSet(full / full.sum(axis=1, keepdims=True))
        causal = MarginalSet(causal / causal.sum(axis=1, keepdims=True))
        rows = [rankwise_update(full.rows[i], causal.rows[i]) for i in range(n)]
        assert np.array_equal(dcd_factors(full, causal).values, np.stack(rows))


def test_dcd_factors_take_any_two_row_sets_of_one_shape():
    rng = np.random.default_rng(96)
    full, causal = random_rows(rng, 3, 3), random_rows(rng, 3, 3)  # (N, C+1) for C = 2
    expected = np.log(full.rows) - np.log(causal.rows)
    assert np.array_equal(dcd_factors(full, causal).values, expected)
    with pytest.raises(AlphabetMismatchError):
        dcd_factors(full, random_rows(rng, 3, 2))


def test_projections_refuse_a_target_with_a_mask_column():
    p = random_table(np.random.default_rng(95), 3, 2, floor=True)
    target = random_rows(np.random.default_rng(94), 3, 3)  # (N, C+1)
    for solve in (iproject_exact, iproject_descent):
        with pytest.raises(AlphabetMismatchError, match="target marginal shape"):
            solve(p, target)


def test_dcd_factors_vanish_when_contexts_coincide():
    rng = np.random.default_rng(97)
    data = random_table(rng, 3, 2, floor=True)
    model = DiffusionMarginalModel.exact(data)
    x_next = SequenceState.all_masked(data.alphabet, 1)
    full = dm_marginals_full(model, x_next)
    causal = dm_marginals_causal(model, x_next)
    v = dcd_factors(full, causal)
    assert np.abs(v.values).max() < 1e-10


def test_dcd_factors_first_row_subcases():
    rng = np.random.default_rng(98)
    data = random_table(rng, 2, 2, floor=True)
    model = DiffusionMarginalModel.exact(data)
    mask = data.alphabet.mask_index
    # no unmasked suffix: row 0 vanishes
    v0 = dcd_factors(
        dm_marginals_full(model, SequenceState.all_masked(data.alphabet, 1)),
        dm_marginals_causal(model, SequenceState.all_masked(data.alphabet, 1)),
    )
    assert np.max(np.abs(v0.values[0])) < 1e-12
    # unmasked suffix: row 0 = log q(x0 | suffix) - log q(x0), by enumeration
    x_next = SequenceState((mask, 1), 1, data.alphabet)
    v1 = dcd_factors(
        dm_marginals_full(model, x_next), dm_marginals_causal(model, x_next)
    )
    cond_row = condition(data, {1: 1}).probs
    prior_row = univariate_marginals(data).rows[0]
    np.testing.assert_allclose(
        v1.values[0], np.log(cond_row) - np.log(prior_row), atol=1e-12
    )


def test_dcd_correction_moves_mass_toward_suffix_consistent_category():
    # strongly associated pair: suffix evidence must shift the first position
    # onto its true conditional when the correction multiplies the AR row
    probs = np.array([125.0, 1.0, 1.0, 1.0]) / 128.0
    data = JointTable(Alphabet(2, 2), probs)
    model = DiffusionMarginalModel.exact(data)
    copula = ARCopulaModel.exact(data)
    mask = data.alphabet.mask_index
    x_next = SequenceState((mask, 1), 1, data.alphabet)
    v = dcd_factors(
        dm_marginals_full(model, x_next), dm_marginals_causal(model, x_next)
    )
    from maskdiff.models import ar_conditional

    blind = ar_conditional(copula, (), 0)
    fused = blind * np.exp(v.values[0])
    fused /= fused.sum()
    true_cond = condition(data, {1: 1}).probs
    np.testing.assert_allclose(fused, true_cond, atol=1e-12)
    assert fused[1] > blind[1]  # mass moved onto the suffix-consistent category
