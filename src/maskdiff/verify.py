"""Registered property suites, one per verified claim.

Each suite runs a fixed-seed battery of checks and reports one line per
check; `run` aggregates them. Suites:

  prop1  step-count lower bound: equality for the optimal factorized
         denoiser, strict excess for perturbed ones, H(data) for products.
  prop2  projection strictly improves the estimate; Pythagorean inequality
         over the marginal-constraint set.
  prop3  the projection exists, hits the target marginals, and the density
         ratio to the base table factorizes per position.
  prop4  per-position rescaling preserves every conditional odds ratio.
  prop5  reverse-kernel factorization identity against the brute posterior;
         re-mask rows carry the exact mask mass.
  prop6  renormalized reverse marginals equal the content-layer marginals.
  thm1   zero gradient at the converged projection, convexity along random
         segments, IPF objective monotone across sweeps.
  thmC2  tables with equal odds ratios project onto the same distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dist import (
    Alphabet,
    JointTable,
    MarginalSet,
    all_states,
    entropy,
    kl,
    product_table,
    same_copula,
    state_to_index,
    total_variation,
    univariate_marginals,
)
from .harness import (
    SyntheticSpec,
    elbo_bound,
    gen_data,
    nelbo_factorized,
    optimal_factorized_denoiser,
    reachable_states,
)
from .iproj import (
    FactorMatrix,
    apply_factors,
    iproject_exact,
    objective,
    objective_gradient,
)
from .noising import (
    SequenceState,
    aux_posterior,
    brute_reverse_posterior,
    make_schedule,
    remask_kernel,
    renormalize_marginals,
)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _random_positive_table(rng: np.random.Generator, n: int, c: int) -> JointTable:
    raw = rng.gamma(1.0, size=c**n)
    return JointTable(Alphabet(n, c), raw / raw.sum()).floored()


def _random_rows(rng: np.random.Generator, n: int, c: int) -> MarginalSet:
    raw = rng.gamma(1.0, size=(n, c)) + 0.05
    return MarginalSet(raw / raw.sum(axis=1, keepdims=True))


def _check(results: list[CheckResult], suite: str, name: str, passed: bool, detail: str = "") -> None:
    results.append(CheckResult(suite, name, bool(passed), detail))


# ---------------------------------------------------------------------------

def suite_prop1() -> list[CheckResult]:
    out: list[CheckResult] = []
    data = gen_data(SyntheticSpec("correlated_phrases", 2, 2, 0.95, seed=0))
    sched = make_schedule("linear", 2)
    bound = elbo_bound(data, sched)
    exact = nelbo_factorized(data, sched, optimal_factorized_denoiser(data, sched))
    _check(out, "prop1", "optimal_denoiser_attains_bound", abs(exact - bound) <= 1e-9,
           f"|nelbo-bound|={abs(exact - bound):.3e}")
    optimal = optimal_factorized_denoiser(data, sched)
    for k in range(5):
        noise_scale = 0.3

        def perturbed(x_t: SequenceState, _seed=k) -> MarginalSet:
            rows = optimal(x_t).rows.copy()
            local = np.random.default_rng((_seed + 1) * 7919 + hash(x_t.tokens) % 1000)
            rows = rows * np.exp(noise_scale * local.standard_normal(rows.shape))
            rows /= rows.sum(axis=1, keepdims=True)
            return MarginalSet(rows)

        nelbo = nelbo_factorized(data, sched, perturbed)
        _check(out, "prop1", f"perturbed_denoiser_{k}_above_bound", nelbo > bound,
               f"nelbo-bound={nelbo - bound:.3e}")
    product = product_table(univariate_marginals(data), data.alphabet)
    for family in ("linear", "log-linear"):
        sched_f = make_schedule(family, 3)
        b = elbo_bound(product, sched_f)
        _check(out, "prop1", f"product_bound_is_entropy_{family}",
               abs(b - entropy(product)) <= 1e-12, f"diff={abs(b - entropy(product)):.3e}")
    return out


def suite_prop2() -> list[CheckResult]:
    out: list[CheckResult] = []
    rng = np.random.default_rng(202)
    improvements = 0
    pythagorean_ok = 0
    trials = 20
    members_per_trial = 5
    for _ in range(trials):
        p_tar = _random_positive_table(rng, 2, 3)
        p_est = _random_positive_table(rng, 2, 3)
        target = univariate_marginals(p_tar)
        if np.max(np.abs(target.rows - univariate_marginals(p_est).rows)) <= 1e-6:
            continue
        v, report = iproject_exact(p_est, target)
        phat, _ = apply_factors(p_est, v)
        if kl(p_tar, phat) < kl(p_tar, p_est):
            improvements += 1
        base = kl(phat, p_est)
        anchor = product_table(target, p_est.alphabet)
        for _ in range(members_per_trial):
            # a constraint-set member: project a fresh table onto the same
            # marginals, then mix with the product anchor (the set is convex)
            base_tbl = _random_positive_table(rng, 2, 3)
            vv, _ = iproject_exact(base_tbl, target)
            member, _ = apply_factors(base_tbl, vv)
            lam = float(rng.uniform())
            mix = JointTable(
                p_est.alphabet, lam * member.probs + (1 - lam) * anchor.probs
            )
            lhs = kl(mix, p_est)
            rhs = kl(mix, phat) + base
            if lhs >= rhs - 1e-8:
                pythagorean_ok += 1
    _check(out, "prop2", "strict_improvement", improvements == trials,
           f"{improvements}/{trials} improved")
    _check(out, "prop2", "pythagorean_inequality",
           pythagorean_ok == trials * members_per_trial,
           f"{pythagorean_ok}/{trials * members_per_trial} held")
    return out


def suite_prop3() -> list[CheckResult]:
    out: list[CheckResult] = []
    rng = np.random.default_rng(303)
    converged = 0
    marginals_hit = 0
    factorized = 0
    trials = 20
    for _ in range(trials):
        p_est = _random_positive_table(rng, 3, 3)
        target = _random_rows(rng, 3, 3)
        v, report = iproject_exact(p_est, target)
        phat, _ = apply_factors(p_est, v)
        if report.converged:
            converged += 1
        if np.max(np.abs(univariate_marginals(phat).rows - target.rows)) <= 1e-9:
            marginals_hit += 1
        # factorization of the density ratio: the log-ratio difference between
        # two states disagreeing at a single position must not depend on the
        # shared context.
        log_ratio = np.log(phat.probs) - np.log(p_est.probs)
        ok = True
        for _ in range(10):
            i = int(rng.integers(0, 3))
            c1, c2 = (int(v) for v in rng.choice(3, size=2, replace=False))
            ref = None
            for _ in range(5):
                ctx = rng.integers(0, 3, size=3)
                s1 = ctx.copy()
                s1[i] = c1
                s2 = ctx.copy()
                s2[i] = c2
                idx1, idx2 = (state_to_index(p_est.alphabet, s) for s in (s1, s2))
                diff = log_ratio[idx1] - log_ratio[idx2]
                if ref is None:
                    ref = diff
                elif abs(diff - ref) > 1e-8:
                    ok = False
        if ok:
            factorized += 1
    _check(out, "prop3", "ipf_converges", converged == trials, f"{converged}/{trials}")
    _check(out, "prop3", "marginals_match_target", marginals_hit == trials,
           f"{marginals_hit}/{trials}")
    _check(out, "prop3", "density_ratio_factorizes", factorized == trials,
           f"{factorized}/{trials}")
    return out


def suite_prop4() -> list[CheckResult]:
    out: list[CheckResult] = []
    rng = np.random.default_rng(404)
    trials = 1000
    preserved = 0
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        p = _random_positive_table(rng, n, 2)
        v = FactorMatrix(rng.normal(0.0, 1.0, size=(n, 2)))
        q, _ = apply_factors(p, v)
        if same_copula(p, q, tol=1e-8):
            preserved += 1
    _check(out, "prop4", "odds_ratios_invariant", preserved == trials,
           f"{preserved}/{trials} preserved")
    return out


def _factorization_gap(data: JointTable, x_next: SequenceState, sched) -> float:
    """Max deviation between the brute posterior q(x_t | x_{t+1}) and the
    auxiliary posterior pushed through the re-mask kernel."""
    brute = brute_reverse_posterior(data, x_next, sched)
    aux = aux_posterior(data, x_next)
    combined = np.zeros(brute.alphabet.num_states)
    aux_states = all_states(data.alphabet)
    kernel = remask_kernel(x_next, sched)
    for idx in np.nonzero(aux.probs)[0]:
        for state, p in kernel.outcomes(aux_states[idx]):
            combined[state_to_index(brute.alphabet, state.tokens)] += aux.probs[idx] * p
    return float(np.max(np.abs(combined - brute.probs)))


def suite_prop5() -> list[CheckResult]:
    out: list[CheckResult] = []
    data = gen_data(SyntheticSpec("random_dirichlet", 3, 2, seed=5)).floored()
    sched = make_schedule("linear", 3)
    worst = 0.0
    checked = 0
    for t in range(sched.steps):
        for x_next, _ in reachable_states(data, t + 1, sched):
            worst = max(worst, _factorization_gap(data, x_next, sched))
            checked += 1
    _check(out, "prop5", "factorization_identity", worst < 1e-10,
           f"max dev {worst:.3e} over {checked} contexts")
    # exact mask mass in the re-mask rows
    rng = np.random.default_rng(505)
    ok = True
    for t in range(sched.steps):
        for x_next, _ in reachable_states(data, t + 1, sched):
            tokens = [
                x_next.tokens[i] if not x_next.is_masked(i) else int(rng.integers(0, 2))
                for i in range(3)
            ]
            rows = remask_kernel(x_next, sched).rows(tokens).rows
            for i in x_next.masked_positions:
                if rows[i, data.alphabet.mask_index] != sched.mask_ratio(t):
                    ok = False
    _check(out, "prop5", "remask_mass_exact", ok)
    # chunked variant: chunks behave as super-tokens
    data4 = gen_data(SyntheticSpec("random_dirichlet", 4, 2, seed=6)).floored()
    sched_c = make_schedule("linear", 2, chunk_size=2)
    worst_c = 0.0
    for t in range(sched_c.steps):
        for x_next, _ in reachable_states(data4, t + 1, sched_c):
            worst_c = max(worst_c, _factorization_gap(data4, x_next, sched_c))
    _check(out, "prop5", "factorization_identity_chunked", worst_c < 1e-10,
           f"max dev {worst_c:.3e}")
    return out


def suite_prop6() -> list[CheckResult]:
    out: list[CheckResult] = []
    data = gen_data(SyntheticSpec("random_dirichlet", 3, 2, seed=7)).floored()
    sched = make_schedule("linear", 3)
    worst = 0.0
    for t in range(sched.steps):
        for x_next, _ in reachable_states(data, t + 1, sched):
            brute = brute_reverse_posterior(data, x_next, sched)
            with_mask = univariate_marginals(brute)
            renorm = renormalize_marginals(with_mask, x_next)
            direct = univariate_marginals(aux_posterior(data, x_next))
            worst = max(worst, float(np.max(np.abs(renorm.rows - direct.rows))))
    _check(out, "prop6", "renormalized_marginals_match", worst < 1e-10,
           f"max dev {worst:.3e}")
    return out


def suite_thm1() -> list[CheckResult]:
    out: list[CheckResult] = []
    rng = np.random.default_rng(707)
    kkt_ok = 0
    trials = 10
    for _ in range(trials):
        p_est = _random_positive_table(rng, 3, 3)
        target = _random_rows(rng, 3, 3)
        v, report = iproject_exact(p_est, target)
        _, log_z = apply_factors(p_est, v)
        minimizer = FactorMatrix(v.values - log_z / v.num_positions)
        grad = objective_gradient(minimizer, p_est, target)
        if float(np.max(np.abs(grad))) < 1e-8:
            kkt_ok += 1
    _check(out, "thm1", "kkt_gradient_vanishes", kkt_ok == trials, f"{kkt_ok}/{trials}")
    # convexity along random segments
    p_est = _random_positive_table(rng, 2, 3)
    target = _random_rows(rng, 2, 3)
    convex_ok = 0
    segments = 200
    for _ in range(segments):
        v1 = FactorMatrix(rng.normal(0.0, 1.0, size=(2, 3)))
        v2 = FactorMatrix(rng.normal(0.0, 1.0, size=(2, 3)))
        lam = float(rng.uniform())
        mid = FactorMatrix(lam * v1.values + (1 - lam) * v2.values)
        lhs = objective(mid, p_est, target)
        rhs = lam * objective(v1, p_est, target) + (1 - lam) * objective(v2, p_est, target)
        if lhs <= rhs + 1e-9:
            convex_ok += 1
    _check(out, "thm1", "objective_convex_on_segments", convex_ok == segments,
           f"{convex_ok}/{segments}")
    # monotone objective across IPF sweeps
    monotone = True
    for _ in range(5):
        p_est = _random_positive_table(rng, 3, 2)
        target = _random_rows(rng, 3, 2)
        seen: list[float] = []
        iproject_exact(p_est, target, on_sweep=lambda k, gap, obj: seen.append(obj))
        if any(b > a + 1e-12 for a, b in zip(seen, seen[1:])):
            monotone = False
    _check(out, "thm1", "ipf_objective_monotone", monotone)
    return out


def suite_thmC2() -> list[CheckResult]:
    out: list[CheckResult] = []
    rng = np.random.default_rng(808)
    trials = 50
    agree = 0
    for _ in range(trials):
        n = int(rng.integers(2, 4))
        p = _random_positive_table(rng, n, 2)
        q, _ = apply_factors(p, FactorMatrix(rng.normal(0.0, 1.0, size=(n, 2))))
        target = _random_rows(rng, n, 2)
        vp, _ = iproject_exact(p, target)
        vq, _ = iproject_exact(q, target)
        php, _ = apply_factors(p, vp)
        phq, _ = apply_factors(q, vq)
        if total_variation(php, phq) <= 1e-8:
            agree += 1
    _check(out, "thmC2", "same_copula_same_projection", agree == trials,
           f"{agree}/{trials}")
    return out


REGISTRY: dict[str, Callable[[], list[CheckResult]]] = {
    "prop1": suite_prop1,
    "prop2": suite_prop2,
    "prop3": suite_prop3,
    "prop4": suite_prop4,
    "prop5": suite_prop5,
    "prop6": suite_prop6,
    "thm1": suite_thm1,
    "thmC2": suite_thmC2,
}


def run(which: str = "all") -> tuple[list[CheckResult], bool]:
    """Run one suite or all of them; returns (results, all_passed)."""
    if which == "all":
        names = list(REGISTRY)
    elif which in REGISTRY:
        names = [which]
    else:
        raise KeyError(f"unknown suite {which!r}; choose from {sorted(REGISTRY)} or 'all'")
    results: list[CheckResult] = []
    for name in names:
        results.extend(REGISTRY[name]())
    return results, all(r.passed for r in results)
