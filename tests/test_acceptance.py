"""Acceptance gate: one test per criterion, at the stated tolerances.

Run `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

from __future__ import annotations

import time

import numpy as np

from maskdiff.dist import (
    JointTable,
    MarginalSet,
    dumps_table,
    kl,
    loads_table,
    same_copula,
    state_to_index,
    total_correlation,
    total_variation,
    univariate_marginals,
)
from maskdiff.harness import (
    SyntheticSpec,
    elbo_bound,
    gen_data,
    induced_distribution,
    kl_to_data,
    nelbo_factorized,
    optimal_factorized_denoiser,
    run_sweep,
)
from maskdiff.iproj import (
    FactorMatrix,
    apply_factors,
    dcd_factors,
    iproject_descent,
    iproject_exact,
    rankwise_update,
)
from maskdiff.models import (
    ARCopulaModel,
    DiffusionMarginalModel,
    dm_marginals_causal,
    dm_marginals_full,
)
from maskdiff.noising import (
    SequenceState,
    aux_posterior,
    brute_reverse_posterior,
    forward_state_distribution,
    make_schedule,
    remask_kernel,
    renormalize_marginals,
)
from maskdiff.sampler import SamplerConfig, sample
from maskdiff import verify as verify_mod

from _helpers import lex_states, random_rows, random_table


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# ---------------------------------------------------------------------------

def test_criterion_1_iprojection_correctness():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst_tv = 0.0
    worst_gap = 0.0
    max_sweeps = 0
    for _ in range(100):
        p_est = random_table(rng, 3, 3, floor=True)
        target = random_rows(rng, 3, 3)
        v_ipf, rep = iproject_exact(p_est, target)
        v_gd, _ = iproject_descent(p_est, target)
        assert rep.converged and rep.iterations <= 10_000
        worst_gap = max(worst_gap, rep.max_marginal_gap)
        max_sweeps = max(max_sweeps, rep.iterations)
        ph_ipf, _ = apply_factors(p_est, v_ipf)
        ph_gd, _ = apply_factors(p_est, v_gd)
        worst_tv = max(worst_tv, total_variation(ph_ipf, ph_gd))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-10 and worst_tv <= 1e-6 and elapsed < 10.0
    _report(
        1,
        "iprojection-correctness",
        ok,
        f"100 instances, max gap {worst_gap:.2e}, max sweeps {max_sweeps}, "
        f"max TV vs descent {worst_tv:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_strict_improvement_and_pythagorean():
    rng = np.random.default_rng(1002)
    improved = 0
    trials = 100
    for _ in range(trials):
        while True:
            p_tar = random_table(rng, 2, 3, floor=True)
            p_est = random_table(rng, 2, 3, floor=True)
            tar = univariate_marginals(p_tar)
            if np.max(np.abs(tar.rows - univariate_marginals(p_est).rows)) > 1e-6:
                break
        v, _ = iproject_exact(p_est, tar)
        phat, _ = apply_factors(p_est, v)
        if kl(p_tar, phat) < kl(p_tar, p_est):
            improved += 1
    # Pythagorean over 100 random members of one constraint set
    p_tar = random_table(rng, 2, 3, floor=True)
    p_est = random_table(rng, 2, 3, floor=True)
    tar = univariate_marginals(p_tar)
    v, _ = iproject_exact(p_est, tar)
    phat, _ = apply_factors(p_est, v)
    base = kl(phat, p_est)
    held = 0
    members = 100
    for _ in range(members):
        seed_tbl = random_table(rng, 2, 3, floor=True)
        vv, _ = iproject_exact(seed_tbl, tar)
        member, _ = apply_factors(seed_tbl, vv)
        lam = float(rng.uniform())
        mix = JointTable(p_est.alphabet, lam * member.probs + (1 - lam) * phat.probs)
        if kl(mix, p_est) >= kl(mix, phat) + base - 1e-8:
            held += 1
    ok = improved == trials and held == members
    _report(
        2,
        "strict-improvement-and-pythagorean",
        ok,
        f"{improved}/{trials} strict improvements, {held}/{members} Pythagorean",
    )


def test_criterion_3_copula_invariance_and_uniqueness():
    rng = np.random.default_rng(1003)
    preserved = 0
    trials = 1000
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        p = random_table(rng, n, 2, floor=True)
        v = FactorMatrix(rng.normal(0.0, 1.0, size=(n, 2)))
        q, _ = apply_factors(p, v)
        if same_copula(p, q, tol=1e-8):
            preserved += 1
    agree = 0
    pairs = 50
    for _ in range(pairs):
        n = int(rng.integers(2, 4))
        p = random_table(rng, n, 2, floor=True)
        q, _ = apply_factors(p, FactorMatrix(rng.normal(0.0, 1.0, size=(n, 2))))
        target = random_rows(rng, n, 2)
        vp, _ = iproject_exact(p, target)
        vq, _ = iproject_exact(q, target)
        php, _ = apply_factors(p, vp)
        phq, _ = apply_factors(q, vq)
        if total_variation(php, phq) <= 1e-8:
            agree += 1
    ok = preserved == trials and agree == pairs
    _report(
        3,
        "copula-invariance-and-uniqueness",
        ok,
        f"{preserved}/{trials} ratio-preserving rescalings, {agree}/{pairs} shared projections",
    )


def test_criterion_4_kernel_identities():
    rng = np.random.default_rng(1004)
    start = time.perf_counter()
    data = random_table(rng, 3, 2, floor=True)
    sched = make_schedule("linear", 3)
    worst_fact = 0.0
    worst_marg = 0.0
    contexts = 0
    aux_states = lex_states(3, 2)
    for t in range(sched.steps):
        qt = forward_state_distribution(data, t + 1, sched)
        for idx in np.nonzero(qt.probs)[0]:
            tokens = tuple(int(v) for v in np.asarray(
                np.unravel_index(idx, (3, 3, 3))
            ))
            x_next = SequenceState(tokens, t + 1, data.alphabet)
            brute = brute_reverse_posterior(data, x_next, sched)
            aux = aux_posterior(data, x_next)
            combined = np.zeros(brute.alphabet.num_states)
            kern = remask_kernel(x_next, sched)
            for k, aux_tokens in enumerate(aux_states):
                if aux.probs[k] <= 0.0:
                    continue
                for state, p in kern.outcomes(aux_tokens):
                    combined[state_to_index(brute.alphabet, state.tokens)] += (
                        aux.probs[k] * p
                    )
            worst_fact = max(worst_fact, float(np.max(np.abs(combined - brute.probs))))
            renorm = renormalize_marginals(
                univariate_marginals(brute), x_next
            )
            direct = univariate_marginals(aux)
            worst_marg = max(worst_marg, float(np.max(np.abs(renorm.rows - direct.rows))))
            contexts += 1
    elapsed = time.perf_counter() - start
    ok = worst_fact < 1e-10 and worst_marg < 1e-10 and elapsed < 30.0
    _report(
        4,
        "kernel-identities",
        ok,
        f"{contexts} contexts, factorization dev {worst_fact:.2e}, "
        f"marginal dev {worst_marg:.2e}, {elapsed:.2f}s",
    )


def test_criterion_5_bound_equality_and_excess():
    data = gen_data(SyntheticSpec("correlated_phrases", 2, 2, 0.95))
    sched = make_schedule("linear", 2)
    bound = elbo_bound(data, sched)
    exact = nelbo_factorized(data, sched, optimal_factorized_denoiser(data, sched))
    equality = abs(exact - bound) <= 1e-9
    optimal = optimal_factorized_denoiser(data, sched)
    above = 0
    trials = 20
    for k in range(trials):
        def perturbed(x_t: SequenceState, _k=k) -> MarginalSet:
            rows = optimal(x_t).rows.copy()
            local = np.random.default_rng((_k + 1) * 6007 + hash(x_t.tokens) % 1009)
            rows = rows * np.exp(0.3 * local.standard_normal(rows.shape))
            rows /= rows.sum(axis=1, keepdims=True)
            return MarginalSet(rows)

        if nelbo_factorized(data, sched, perturbed) > bound:
            above += 1
    ok = equality and above == trials
    _report(
        5,
        "bound-equality-and-excess",
        ok,
        f"|nelbo - bound| = {abs(exact - bound):.2e}, {above}/{trials} perturbed above",
    )


def test_criterion_6_few_step_advantage():
    start = time.perf_counter()
    data = gen_data(SyntheticSpec("correlated_phrases", 2, 2, 0.95))
    tc = total_correlation(data)
    assert tc >= 0.5, f"instance total correlation {tc} below 0.5 nats"
    floored = data.floored()
    dm = DiffusionMarginalModel.exact(floored)
    cop = ARCopulaModel.exact(floored)

    def kl_at(mode: str, steps: int) -> float:
        cfg = SamplerConfig(steps, make_schedule("linear", steps), mode, beta=1.0)
        return kl_to_data(data, induced_distribution(dm, cop, cfg).table)

    kl_dcd = {t: kl_at("dcd", t) for t in (1, 2)}
    kl_diff = {t: kl_at("diffusion_only", t) for t in (1, 2, 4)}
    strict = all(kl_dcd[t] < kl_diff[t] - 1e-9 for t in (1, 2))
    reduction = kl_dcd[1] <= kl_diff[4] + 1e-9
    elapsed = time.perf_counter() - start
    ok = strict and reduction and elapsed < 60.0
    _report(
        6,
        "few-step-advantage",
        ok,
        f"TC={tc:.3f}, dcd: {kl_dcd[1]:.2e}/{kl_dcd[2]:.2e}, "
        f"diffusion_only: {kl_diff[1]:.3f}/{kl_diff[2]:.3f}/{kl_diff[4]:.3f}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_7_factor_rule_sanity():
    rng = np.random.default_rng(1007)
    worst_row = 0.0
    checked_rows = 0
    # row i's full and causal contexts coincide exactly when masking every
    # position >= i reproduces x_{t+1}; those rows must vanish
    for _ in range(10):
        data = random_table(rng, 3, 2, floor=True)
        model = DiffusionMarginalModel.exact(data)
        mask = data.alphabet.mask_index
        contexts = [
            (mask, mask, mask),
            (0, mask, mask),
            (1, 0, mask),
            (mask, 0, mask),
        ]
        for tokens in contexts:
            x_next = SequenceState(tokens, 1, data.alphabet)
            v = dcd_factors(
                dm_marginals_full(model, x_next),
                dm_marginals_causal(model, x_next),
            )
            for i in range(3):
                if tokens[:i] + (mask,) * (3 - i) == tokens:
                    worst_row = max(worst_row, float(np.max(np.abs(v.values[i]))))
                    checked_rows += 1
    # single-row rank-wise update reproduces the target row exactly
    worst_marg = 0.0
    for _ in range(10):
        p = random_table(rng, 3, 3, floor=True)
        target_row = random_rows(rng, 1, 3).rows[0]
        i = int(rng.integers(0, 3))
        values = np.zeros((3, 3))
        values[i] = rankwise_update(target_row, univariate_marginals(p).rows[i])
        out, _ = apply_factors(p, FactorMatrix(values))
        worst_marg = max(
            worst_marg,
            float(np.max(np.abs(univariate_marginals(out).rows[i] - target_row))),
        )
    ok = worst_row < 1e-10 and worst_marg < 1e-12 and checked_rows > 0
    _report(
        7,
        "factor-rule-sanity",
        ok,
        f"{checked_rows} coinciding rows with norm {worst_row:.2e}, "
        f"single-row marginal error {worst_marg:.2e}",
    )


def test_criterion_8_determinism_and_plumbing(tmp_path):
    data = gen_data(SyntheticSpec("correlated_phrases", 2, 2, 0.95))
    floored = data.floored()
    dm = DiffusionMarginalModel.exact(floored)
    cop = ARCopulaModel.exact(floored)
    # byte-identical sweep CSVs
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        run_sweep(data, dm, cop, ["dcd", "diffusion_only", "ar_only"], [1, 2], [0.1, 1.0],
                  out_dir=d)
    csv_stable = (dirs[0] / "results.csv").read_bytes() == (dirs[1] / "results.csv").read_bytes()
    # byte-identical traces
    cfg = SamplerConfig(2, make_schedule("linear", 2), "dcd", seed=21)
    _, tr_a = sample(dm, cop, cfg)
    _, tr_b = sample(dm, cop, cfg)
    trace_stable = tr_a.dumps() == tr_b.dumps()
    # serialization round-trips exactly
    text = dumps_table(data)
    round_trip = np.array_equal(loads_table(text).probs, data.probs)
    model_path = tmp_path / "model.json"
    dm.save(model_path)
    model_rt = np.array_equal(
        DiffusionMarginalModel.load(model_path).table.probs, floored.probs
    )
    # verify all: clean exit within budget
    start = time.perf_counter()
    results, verify_ok = verify_mod.run("all")
    verify_elapsed = time.perf_counter() - start
    ok = (
        csv_stable
        and trace_stable
        and round_trip
        and model_rt
        and verify_ok
        and verify_elapsed < 300.0
    )
    _report(
        8,
        "determinism-and-plumbing",
        ok,
        f"csv_stable={csv_stable}, trace_stable={trace_stable}, "
        f"round_trips={round_trip and model_rt}, verify {len(results)} checks "
        f"ok={verify_ok} in {verify_elapsed:.1f}s",
    )
