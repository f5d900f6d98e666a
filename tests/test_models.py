"""models: marginal provider and AR copula model, exact and counts variants."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from maskdiff.dist import (
    Alphabet,
    JointTable,
    MarginalSet,
    sample_states,
    univariate_marginals,
)
from maskdiff import models
from maskdiff.errors import (
    AlphabetMismatchError,
    InvalidDistributionError,
    MaskDiffError,
    SupportError,
)
from maskdiff.harness import SyntheticSpec, gen_data
from maskdiff.iproj import dcd_factors
from maskdiff.models import (
    ARCopulaModel,
    DiffusionMarginalModel,
    ar_chain_table,
    ar_conditional,
    dm_marginals_causal,
    dm_marginals_full,
    fit_counts_table,
    load_corpus,
    pattern_rows,
    save_corpus,
)
from maskdiff.noising import (
    SequenceState,
    aux_posterior,
    brute_reverse_posterior,
    make_schedule,
    renormalize_marginals,
)

from _helpers import random_table, zero_table

# ---------------------------------------------------------------------------
# diffusion marginals
# ---------------------------------------------------------------------------

def test_dm_full_matches_aux_posterior_marginals():
    rng = np.random.default_rng(60)
    data = random_table(rng, 3, 2, floor=True)
    model = DiffusionMarginalModel.exact(data)
    mask = data.alphabet.mask_index
    x_next = SequenceState((mask, 1, mask), 2, data.alphabet)
    rows = dm_marginals_full(model, x_next)
    oracle = univariate_marginals(aux_posterior(data, x_next))
    np.testing.assert_allclose(rows.rows, oracle.rows, atol=1e-10)


# The query layer reads prefix marginals; conditioning the whole table
# (`aux_posterior`, then `univariate_marginals`) is its oracle. The two sum
# in different orders, so rows may differ by rounding, bounded as below.
ORACLE_SHAPES = [(3, 2), (2, 3), (4, 2)]


def oracle_tables(n: int, c: int) -> list[JointTable]:
    """A floored random table and one with zeros (a third of its states)."""
    rng = np.random.default_rng(100 + 10 * n + c)
    raw = rng.gamma(1.0, size=c**n)
    raw[rng.permutation(c**n)[: c**n // 3]] = 0.0
    return [random_table(rng, n, c, floor=True), JointTable(Alphabet(n, c), raw / raw.sum())]


def oracle_rows(data: JointTable, x_next: SequenceState):
    """univariate_marginals(aux_posterior(...)) rows, or the SupportError it raises."""
    try:
        return univariate_marginals(aux_posterior(data, x_next)).rows
    except SupportError as exc:
        return exc


def assert_rows_match(got, want) -> None:
    if isinstance(want, SupportError):
        assert isinstance(got, SupportError)
        return
    assert not isinstance(got, SupportError), got
    assert np.all(np.abs(got - want) <= np.maximum(1e-13 * np.abs(want), 1e-15))


def query(fn, *args):
    try:
        return fn(*args).rows
    except SupportError as exc:
        return exc


@pytest.mark.parametrize("n,c", ORACLE_SHAPES)
def test_dm_rows_match_conditioning_oracle_at_every_state(n, c):
    """Full and causal rows at every context, mask-free ones included; and
    past the last unmasked position u, where both contexts carry the same
    information, the rows are equal and V is exactly 0."""
    for data in oracle_tables(n, c):
        model = DiffusionMarginalModel.exact(data)
        mask = data.alphabet.mask_index
        for tokens in itertools.product(range(c + 1), repeat=n):
            x_next = SequenceState(tokens, 1, data.alphabet)
            full = query(dm_marginals_full, model, x_next)
            assert_rows_match(full, oracle_rows(data, x_next))
            per_prefix = [
                oracle_rows(data, SequenceState(tokens[:i] + (mask,) * (n - i), 1, data.alphabet))
                for i in range(n)
            ]
            errors = [row for row in per_prefix if isinstance(row, SupportError)]
            causal_oracle = errors[0] if errors else np.stack(
                [rows[i] for i, rows in enumerate(per_prefix)]
            )
            causal = query(dm_marginals_causal, model, x_next)
            assert_rows_match(causal, causal_oracle)
            if isinstance(full, SupportError):
                continue
            u = max((i + 1 for i, tok in enumerate(tokens) if tok != mask), default=0)
            assert np.array_equal(full[u:], causal[u:])
            v = dcd_factors(MarginalSet(full), MarginalSet(causal)).values
            assert not v[u:].any()


@pytest.mark.parametrize("n,c", ORACLE_SHAPES)
def test_ar_rows_equal_the_suffix_sum_expression(n, c):
    for data in oracle_tables(n, c):
        model = ARCopulaModel.exact(data)
        for i in range(n):
            tensor = data.tensor()
            if i + 1 < n:
                tensor = tensor.sum(axis=tuple(range(i + 1, n)))
            for prefix in itertools.product(range(c), repeat=i):
                row = np.asarray(tensor[prefix], dtype=np.float64)
                mass = float(row.sum())
                if mass <= 0.0:
                    with pytest.raises(SupportError):
                        ar_conditional(model, prefix, i)
                else:
                    assert np.array_equal(ar_conditional(model, prefix, i), row / mass)


def batched_row_at(tensor: np.ndarray, tokens: tuple[int, ...], i: int) -> np.ndarray:
    """The row a `pattern_rows` tensor holds for one state: along axis i,
    at the state's tokens on the axes the row depends on."""
    return tensor[tuple(
        slice(None) if j == i else (tok if tensor.shape[j] > 1 else 0)
        for j, tok in enumerate(tokens)
    )]


@pytest.mark.parametrize("n,c", [(4, 3), (5, 2)])
def test_pattern_rows_equal_the_per_state_queries_at_every_state(n, c):
    """Within 1e-15 at every masked row of every state; a context without
    mass, where the per-state query raises, gets a zero row."""
    rng = np.random.default_rng(90)
    for data in (random_table(rng, n, c, floor=True), zero_table(rng, n, c)):
        dm, cop = DiffusionMarginalModel.exact(data), ARCopulaModel.exact(data)
        for tokens in itertools.product(range(c + 1), repeat=n):
            x_next = SequenceState(tokens, 1, data.alphabet)
            unmasked = x_next.unmasked_positions
            full = query(dm_marginals_full, dm, x_next)
            for i in x_next.masked_positions:
                # row i's own context: the tokens left of i, the rest masked
                left = SequenceState(tokens[:i] + (c,) * (n - i), 1, data.alphabet)
                causal = query(dm_marginals_causal, dm, left)
                below = tuple(j for j in unmasked if j < i)
                for rows, given in ((full, unmasked), (causal, below)):
                    got = batched_row_at(pattern_rows(dm, given, i), tokens, i)
                    want = 0.0 if isinstance(rows, SupportError) else rows[i]
                    assert np.abs(got - want).max() <= 1e-15
        for i in range(n):  # given every position below i, the rows are the copula's
            cond = pattern_rows(cop, range(i), i)
            for prefix in itertools.product(range(c), repeat=i):
                got = batched_row_at(cond, prefix + (0,) * (n - i), i)
                try:
                    want = ar_conditional(cop, prefix, i)
                except SupportError:
                    want = 0.0
                assert np.abs(got - want).max() <= 1e-15


# Every row a query returns, against the same query asked alone of a fresh
# table. Each maker builds an equal table, bit for bit, on every call.
ROW_TABLES = {
    "markov_3x3": lambda: gen_data(SyntheticSpec("markov_chain", 3, 3, 0.8, seed=5)),
    "markov_4x2": lambda: gen_data(SyntheticSpec("markov_chain", 4, 2, 0.8, seed=6)),
    "zero_3x3": lambda: zero_table(np.random.default_rng(92), 3, 3),
}


def every_query(data: JointTable) -> list[tuple]:
    """(query, args) for the full and causal rows at every state over
    (C+1)^N, then the copula row at every mask-free prefix."""
    n, c = data.num_positions, data.num_categories
    states = [SequenceState(tokens, 1, data.alphabet)
              for tokens in itertools.product(range(c + 1), repeat=n)]
    return (
        [(fn, (x,)) for x in states for fn in (dm_marginals_full, dm_marginals_causal)]
        + [(ar_conditional, (prefix, i)) for i in range(n)
           for prefix in itertools.product(range(c), repeat=i)]
    )


def answer(dm, cop, fn, args) -> tuple:
    """The rows' shape and bytes, or the error's class and message."""
    try:
        out = fn(cop if fn is ar_conditional else dm, *args)
    except MaskDiffError as exc:
        return type(exc), str(exc)
    rows = out if fn is ar_conditional else out.rows
    return rows.shape, rows.tobytes()


def answers(make, order) -> list[tuple]:
    data = make()
    dm, cop = DiffusionMarginalModel.exact(data), ARCopulaModel.exact(data)
    return [answer(dm, cop, fn, args) for fn, args in order]


@pytest.mark.parametrize("name", sorted(ROW_TABLES))
def test_query_rows_do_not_depend_on_what_was_asked_before(monkeypatch, name):
    """Asked alone of a fresh table, asked after every other query (in
    order and in reverse), and with the query cache capped at 0 and 16,
    each query gives the same bits or the same error."""
    make = ROW_TABLES[name]
    order = every_query(make())
    alone = [answers(make, [query])[0] for query in order]
    assert any(isinstance(a[0], type) for a in alone) == (name == "zero_3x3")
    data = make()
    dm, cop = DiffusionMarginalModel.exact(data), ARCopulaModel.exact(data)
    assert [answer(dm, cop, fn, args) for fn, args in order] == alone
    assert [answer(dm, cop, fn, args) for fn, args in order[::-1]] == alone[::-1]
    for cap in (0, 16):
        monkeypatch.setattr(models, "_QUERY_CACHE_CAP", cap)
        assert answers(make, order) == alone
        assert answers(make, order[::-1]) == alone[::-1]


def test_models_on_one_table_share_one_prefix_row_memo():
    data = ROW_TABLES["markov_3x3"]()
    dm, cop = DiffusionMarginalModel.exact(data), ARCopulaModel.exact(data)
    memo = data.prefix_rows
    assert memo == {}
    row = ar_conditional(cop, (2, 0), 2)
    assert memo[(2, 0)] is row
    causal = dm_marginals_causal(dm, SequenceState((2, 0, 1), 1, data.alphabet))
    assert set(memo) == {(), (2,), (2, 0)} and memo[(2, 0)] is row
    assert causal.rows[2].tobytes() == row.tobytes()
    mask = data.alphabet.mask_index
    dm_marginals_full(dm, SequenceState((mask, 1, mask), 1, data.alphabet))
    assert (mask, 1) in memo  # the full query's row past u


def test_the_prefix_row_memo_freezes_at_the_query_cache_cap(monkeypatch):
    make = ROW_TABLES["markov_4x2"]
    order = every_query(make())
    want = answers(make, order)  # at the default cap
    monkeypatch.setattr(models, "_QUERY_CACHE_CAP", 16)
    data = make()
    dm, cop = DiffusionMarginalModel.exact(data), ARCopulaModel.exact(data)
    memo = data.prefix_rows
    for query, expected in zip(order, want):
        assert answer(dm, cop, *query) == expected
        assert len(memo) <= 16
    assert len(memo) == 16 and len(dm._query_cache) == 16


def test_ar_conditional_rows_are_read_only():
    cop = ARCopulaModel.exact(ROW_TABLES["markov_3x3"]())
    for _ in range(2):  # the miss and the hit
        row = ar_conditional(cop, (1,), 1)
        with pytest.raises(ValueError):
            row[0] = 0.5


def test_a_prefix_without_mass_is_not_memoized():
    data = JointTable(Alphabet(2, 2), np.array([0.5, 0.5, 0.0, 0.0]))  # x0 = 1 impossible
    dm, cop = DiffusionMarginalModel.exact(data), ARCopulaModel.exact(data)
    memo = data.prefix_rows
    with pytest.raises(SupportError, match=r"prefix \(1,\) has zero"):
        ar_conditional(cop, (1,), 1)
    with pytest.raises(SupportError, match=r"prefix \(1, 2\) has zero"):
        dm_marginals_causal(dm, SequenceState((1, 2), 1, data.alphabet))
    assert set(memo) == {()}


def ar_error(model, prefix, i) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        ar_conditional(model, prefix, i)
    return info.type, str(info.value)


def test_ar_conditional_takes_any_integer_sequence_as_its_prefix():
    cop = ARCopulaModel.exact(ROW_TABLES["markov_4x2"]())
    want = ar_conditional(cop, (1, 0), 2)
    for prefix in ([1, 0], np.array([1, 0]), (np.int64(1), np.int64(0))):
        assert ar_conditional(cop, prefix, 2).tobytes() == want.tobytes()
    assert ar_error(cop, np.int64(1), 1) == (TypeError, "object of type 'numpy.int64' has no len()")


def test_ar_conditional_errors_keep_their_class_and_message():
    cop = ARCopulaModel.exact(ROW_TABLES["markov_4x2"]())  # C = 2
    assert ar_error(cop, (0, -1), 2) == (InvalidDistributionError, "prefix token -1 out of range")
    assert ar_error(cop, [0, 2], 2) == (InvalidDistributionError, "prefix token 2 out of range")
    assert ar_error(cop, np.array([1, 2]), 2) == (
        InvalidDistributionError, "prefix token 2 out of range")
    # the first bad token is named
    assert ar_error(cop, (0, 5, -1), 3) == (InvalidDistributionError, "prefix token 5 out of range")
    assert ar_error(cop, (0,), 2) == (InvalidDistributionError, "prefix length 1 != position 2")
    assert ar_error(cop, (0, 1, 0, 1), 4) == (AlphabetMismatchError, "position 4 out of range")
    assert ar_error(cop, (), -1) == (AlphabetMismatchError, "position -1 out of range")


def test_ar_conditional_zero_mass_prefix_raises_on_every_call():
    model = ARCopulaModel.exact(JointTable(Alphabet(2, 2), np.array([0.5, 0.5, 0.0, 0.0])))
    for _ in range(3):
        assert ar_error(model, (1,), 1) == (SupportError, "prefix (1,) has zero probability")
    np.testing.assert_array_equal(ar_conditional(model, (0,), 1), [0.5, 0.5])


@pytest.mark.parametrize("rows,message", [
    ([[np.nan, 1.0]], "marginal rows must be finite and nonnegative"),
    ([[np.inf, 0.0]], "marginal rows must be finite and nonnegative"),
    ([[-np.inf, 1.0]], "marginal rows must be finite and nonnegative"),
    ([[0.5, 0.5], [-0.1, 1.1]], "marginal rows must be finite and nonnegative"),
    ([[0.5, 0.5], [0.5, 0.5 + 2e-12]], "each marginal row must sum to 1 within 1e-12"),
    (np.zeros((1, 0)), "each marginal row must sum to 1 within 1e-12"),
    (np.zeros((0, 2)), "marginal rows must be a 2-D array with at least one row"),
    ([], "marginal rows must be a 2-D array with at least one row"),
    ([0.5, 0.5], "marginal rows must be a 2-D array with at least one row"),
])
def test_marginal_set_errors_keep_their_class_and_message(rows, message):
    with pytest.raises(InvalidDistributionError) as info:
        MarginalSet(np.asarray(rows, dtype=np.float64))
    assert info.type is InvalidDistributionError and str(info.value) == message


def test_models_on_one_table_share_its_prefix_marginals_built_once():
    data = random_table(np.random.default_rng(71), 3, 2, floor=True)
    dm, cop = DiffusionMarginalModel.exact(data), ARCopulaModel.exact(data)
    assert "prefix_marginals" not in vars(data)  # built on first use
    mask = data.alphabet.mask_index
    dm_marginals_full(dm, SequenceState((0, mask, mask), 2, data.alphabet))
    built = data.prefix_marginals
    ar_conditional(cop, (1, 0), 2)
    dm_marginals_causal(dm, SequenceState((mask, 1, mask), 2, data.alphabet))
    assert data.prefix_marginals is built and len(built) == 4
    # the models hold no tensors of their own
    assert set(vars(dm)) == set(vars(cop)) == {"table", "kind", "_query_cache"}
    for k, m in enumerate(built):
        assert not m.flags.writeable
        np.testing.assert_array_equal(m, data.tensor().sum(axis=tuple(range(k, 3))))
    with pytest.raises(ValueError):
        built[2][0, 0] = 0.0


def test_dm_full_matches_renormalized_brute_marginals():
    rng = np.random.default_rng(61)
    data = random_table(rng, 3, 2, floor=True)
    model = DiffusionMarginalModel.exact(data)
    sched = make_schedule("linear", 3)
    mask = data.alphabet.mask_index
    x_next = SequenceState((mask, 0, mask), 2, data.alphabet)
    rows = dm_marginals_full(model, x_next)
    brute = brute_reverse_posterior(data, x_next, sched)
    renorm = renormalize_marginals(
        univariate_marginals(brute), x_next
    )
    np.testing.assert_allclose(rows.rows, renorm.rows, atol=1e-10)


def test_dm_full_mask_free_gives_point_masses():
    rng = np.random.default_rng(62)
    data = random_table(rng, 2, 3, floor=True)
    model = DiffusionMarginalModel.exact(data)
    x_next = SequenceState((2, 0), 1, data.alphabet)
    rows = dm_marginals_full(model, x_next)
    np.testing.assert_allclose(rows.rows[0], [0, 0, 1], atol=1e-14)
    np.testing.assert_allclose(rows.rows[1], [1, 0, 0], atol=1e-14)


def test_dm_counts_variant_converges_with_corpus_size():
    rng = np.random.default_rng(63)
    data = random_table(rng, 2, 2, floor=True)
    corpus = sample_states(data, 1_000_000, rng)
    model = DiffusionMarginalModel.from_corpus(corpus, data.alphabet)
    exact = DiffusionMarginalModel.exact(data)
    mask = data.alphabet.mask_index
    for tokens in ((mask, mask), (mask, 1), (0, mask)):
        x_next = SequenceState(tokens, 1, data.alphabet)
        got = dm_marginals_full(model, x_next)
        want = dm_marginals_full(exact, x_next)
        assert np.max(np.abs(got.rows - want.rows).sum(axis=1)) < 0.02


def test_dm_causal_all_mask_gives_priors():
    rng = np.random.default_rng(64)
    data = random_table(rng, 3, 2, floor=True)
    model = DiffusionMarginalModel.exact(data)
    x_next = SequenceState.all_masked(data.alphabet, 1)
    rows = dm_marginals_causal(model, x_next)
    np.testing.assert_allclose(rows.rows, univariate_marginals(data).rows, atol=1e-12)


def test_dm_causal_first_row_is_unconditional():
    rng = np.random.default_rng(65)
    data = random_table(rng, 3, 2, floor=True)
    model = DiffusionMarginalModel.exact(data)
    mask = data.alphabet.mask_index
    for tokens in ((mask, 0, 1), (0, mask, mask), (1, 1, 1)):
        x_next = SequenceState(tokens, 1, data.alphabet)
        rows = dm_marginals_causal(model, x_next)
        np.testing.assert_allclose(
            rows.rows[0], univariate_marginals(data).rows[0], atol=1e-12
        )


def test_dm_causal_equals_full_on_masked_suffix_context():
    rng = np.random.default_rng(66)
    data = random_table(rng, 3, 2, floor=True)
    model = DiffusionMarginalModel.exact(data)
    mask = data.alphabet.mask_index
    x_next = SequenceState((0, mask, 1), 2, data.alphabet)
    causal = dm_marginals_causal(model, x_next)
    for i in range(3):
        ctx = SequenceState(x_next.tokens[:i] + (mask,) * (3 - i), 2, data.alphabet)
        row = dm_marginals_full(model, ctx).rows[i]
        np.testing.assert_allclose(causal.rows[i], row, atol=1e-10)


def test_dm_causal_row_ignores_suffix_changes():
    rng = np.random.default_rng(67)
    data = random_table(rng, 3, 2, floor=True)
    model = DiffusionMarginalModel.exact(data)
    mask = data.alphabet.mask_index
    base = SequenceState((1, mask, 0), 2, data.alphabet)
    causal = dm_marginals_causal(model, base)
    for suffix in ((mask, mask), (0, mask), (1, 1)):
        other = SequenceState((1,) + suffix, 2, data.alphabet)
        rows = dm_marginals_causal(model, other)
        np.testing.assert_allclose(rows.rows[1], causal.rows[1], atol=1e-12)


# ---------------------------------------------------------------------------
# autoregressive queries
# ---------------------------------------------------------------------------

def test_ar_conditional_first_position_is_marginal():
    rng = np.random.default_rng(68)
    data = random_table(rng, 3, 2, floor=True)
    model = ARCopulaModel.exact(data)
    np.testing.assert_allclose(
        ar_conditional(model, (), 0), univariate_marginals(data).rows[0], atol=1e-14
    )


def test_ar_chain_product_reproduces_joint():
    rng = np.random.default_rng(69)
    data = random_table(rng, 3, 3, floor=True)
    model = ARCopulaModel.exact(data)
    chain = ar_chain_table(model)
    assert np.max(np.abs(chain.probs - data.probs)) < 1e-10


def test_ar_conditional_zero_prefix_raises():
    probs = np.array([0.5, 0.5, 0.0, 0.0])  # x0 = 1 impossible
    model = ARCopulaModel.exact(JointTable(Alphabet(2, 2), probs))
    with pytest.raises(SupportError):
        ar_conditional(model, (1,), 1)


def test_counts_model_on_empty_corpus_is_uniform():
    alphabet = Alphabet(2, 3)
    empty = np.zeros((0, 2), dtype=np.int64)
    model = ARCopulaModel.from_corpus(empty, alphabet, smoothing=1.0)
    np.testing.assert_allclose(ar_conditional(model, (), 0), np.full(3, 1 / 3), atol=1e-14)
    np.testing.assert_allclose(ar_conditional(model, (1,), 1), np.full(3, 1 / 3), atol=1e-14)


def test_counts_rows_always_distributions():
    rng = np.random.default_rng(70)
    alphabet = Alphabet(2, 3)
    corpus = np.array([[0, 0], [0, 0], [2, 1]])
    model = ARCopulaModel.from_corpus(corpus, alphabet)
    for prefix in ((), (0,), (1,), (2,)):
        row = ar_conditional(model, prefix, len(prefix))
        assert row.min() > 0.0
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
    del rng


# ---------------------------------------------------------------------------
# fitting and files
# ---------------------------------------------------------------------------

def test_fit_counts_matches_hand_computation():
    alphabet = Alphabet(2, 2)
    corpus = np.array([[0, 0], [0, 0], [1, 1]])
    table = fit_counts_table(corpus, alphabet, smoothing=1.0)
    np.testing.assert_allclose(table.probs, np.array([3, 1, 1, 2]) / 7.0, atol=1e-15)


def test_fit_counts_with_tiny_smoothing_keeps_its_near_zeros():
    alphabet = Alphabet(2, 2)
    table = fit_counts_table(np.array([[0, 1], [1, 0]]), alphabet, smoothing=1e-15)
    assert table.prob((0, 1)) == pytest.approx(0.5) and 0.0 < table.prob((0, 0)) < 1e-12


@pytest.mark.parametrize("smoothing", [-1.0, math.nan, math.inf, 1e308])
def test_fit_counts_rejects_smoothing_that_is_not_a_finite_mass(smoothing):
    with pytest.raises(InvalidDistributionError, match="smoothing"):
        fit_counts_table(np.array([[0, 1], [1, 0]]), Alphabet(2, 2), smoothing)


def test_fit_counts_rejects_bad_tokens():
    alphabet = Alphabet(2, 2)
    with pytest.raises(InvalidDistributionError):
        fit_counts_table(np.array([[0, 5]]), alphabet)


def test_corpus_round_trip(tmp_path):
    rng = np.random.default_rng(71)
    data = random_table(rng, 3, 4)
    corpus = sample_states(data, 50, rng)
    path = tmp_path / "corpus.txt"
    save_corpus(corpus, path)
    back = load_corpus(path)
    np.testing.assert_array_equal(back, corpus)


def test_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(72)
    data = random_table(rng, 2, 3, floor=True)
    model = DiffusionMarginalModel.exact(data)
    path = tmp_path / "model.json"
    model.save(path)
    back = DiffusionMarginalModel.load(path)
    assert back.kind == "exact"
    assert np.array_equal(back.table.probs, data.probs)
    ar = ARCopulaModel.from_corpus(sample_states(data, 100, rng), data.alphabet)
    ar.save(path)
    back_ar = ARCopulaModel.load(path)
    assert back_ar.kind == "counts"
    assert np.array_equal(back_ar.table.probs, ar.table.probs)
