"""iproj: applying factors, the convex objective, IPF, and the factor rules."""

from __future__ import annotations

import math

import numpy as np
import pytest

from maskdiff.dist import (
    Alphabet,
    JointTable,
    all_states,
    condition,
    product_table,
    same_copula,
    total_variation,
    univariate_marginals,
)
from maskdiff.errors import InvalidDistributionError, PositivityError
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

from _helpers import random_rows, random_table


# ---------------------------------------------------------------------------
# apply_factors
# ---------------------------------------------------------------------------

def test_apply_zero_factors_is_identity():
    rng = np.random.default_rng(80)
    p = random_table(rng, 2, 3, floor=True)
    out, z = apply_factors(p, FactorMatrix(np.zeros((2, 3))))
    np.testing.assert_allclose(out.probs, p.probs, atol=1e-15)
    assert z == pytest.approx(1.0, abs=1e-12)


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


def test_beta_scales_at_application_time():
    rng = np.random.default_rng(83)
    p = random_table(rng, 2, 2, floor=True)
    values = rng.normal(0.0, 1.0, size=(2, 2))
    half, _ = apply_factors(p, FactorMatrix(values, beta=0.5))
    scaled, _ = apply_factors(p, FactorMatrix(0.5 * values, beta=1.0))
    np.testing.assert_allclose(half.probs, scaled.probs, atol=1e-14)


@pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan, -1.0])
def test_beta_must_be_finite_and_non_negative(beta):
    with pytest.raises(InvalidDistributionError, match="beta must be finite"):
        FactorMatrix(np.zeros((2, 2)), beta=beta)


# ---------------------------------------------------------------------------
# objective and gradient
# ---------------------------------------------------------------------------

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
        v = FactorMatrix(rng.normal(0.0, 0.5, size=(n, c)), beta=0.7)
        states = all_states(p.alphabet)
        sums = v.values[np.arange(n)[None, :], states].sum(axis=1)
        scaled = p.probs * np.exp(v.beta * sums)
        out, z = apply_factors(p, v)
        np.testing.assert_allclose(out.probs, scaled / scaled.sum(), rtol=0, atol=1e-12)
        assert z == pytest.approx(scaled.sum(), rel=1e-12)
        w = p.probs * np.exp(sums)
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
    _, z = apply_factors(p, v)
    minimizer = FactorMatrix(v.values - math.log(z) / 3)
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
    p = product_table(rows).floored()
    target = random_rows(rng, 3, 2)
    v, report = iproject_exact(p, target)
    phat, _ = apply_factors(p, v)
    np.testing.assert_allclose(phat.probs, product_table(target).probs, atol=1e-10)


def test_projection_matches_descent_oracle():
    rng = np.random.default_rng(89)
    for _ in range(10):
        p = random_table(rng, 3, 3, floor=True)
        target = random_rows(rng, 3, 3)
        v_ipf, r_ipf = iproject_exact(p, target)
        v_gd, r_gd = iproject_descent(p, target, grad_tol=1e-10)
        ph_ipf, _ = apply_factors(p, v_ipf)
        ph_gd, _ = apply_factors(p, v_gd)
        assert r_ipf.converged
        assert total_variation(ph_ipf, ph_gd) < 1e-6


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
