"""The two probability sources the sampler fuses.

A DiffusionMarginalModel answers per-position marginal queries about the
mask-free content layer: rows of q(x~_t^i | x_{t+1}) for the full context,
or for the causal context where every position >= i is masked. An
ARCopulaModel answers left-to-right conditionals p(x_i | x_<i).

Both come in two variants sharing one representation: "exact" wraps the true
data table, "counts" wraps a Laplace-smoothed empirical table fitted from a
corpus of complete sequences. All queries are exact conditioning of the
backing table, so every answered row is a valid distribution by construction.
Each row reads the table's prefix marginal M_k (the table summed over
positions >= k, shared by all its models) at the unmasked tokens of its context.

Most rows are prefix rows: row i of M_{i+1} given the unmasked tokens of a
prefix of length i, which may hold MASK. Every copula conditional is one (a
mask-free prefix), every causal row is one, and so is each full row past u,
one past the last unmasked position of x_{t+1}, since every position from u
on is masked. Each table keeps one memo of them, shared by all its models:
a row is computed once per table and handed out read-only, so a dcd step
computes rows u..N-1 once for both marginal queries, and a copula
conditional reuses the causal row at the same prefix.

Corpus files hold one sequence per line as N space-separated integer tokens
(0-based). Model files are versioned JSON: {version, kind, N, C, payload}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Collection, Sequence, TypeVar

import numpy as np

from .dist import (
    Alphabet,
    JointTable,
    MarginalSet,
    dump_table_doc,
    parse_json_object,
    parse_table_doc,
    position_sum,
    read_input,
    state_to_index,
)
from .errors import (
    AlphabetMismatchError,
    InputFileError,
    InvalidDistributionError,
    SupportError,
)
from .noising import SequenceState

MODEL_FORMAT_VERSION = 1
KIND_EXACT = "exact"
KIND_COUNTS = "counts"


def fit_counts_table(
    sequences: np.ndarray, alphabet: Alphabet, smoothing: float = 1.0
) -> JointTable:
    """Additively smoothed empirical joint table from an (M, N) corpus."""
    seqs = np.asarray(sequences, dtype=np.int64)
    n, c = alphabet.num_positions, alphabet.num_categories
    if seqs.ndim != 2 or seqs.shape[1] != n:
        raise AlphabetMismatchError("a corpus must be (M, num_positions)")
    if seqs.size and (seqs.min() < 0 or seqs.max() >= c):
        raise InvalidDistributionError("corpus tokens out of range")
    if not (smoothing >= 0.0 and math.isfinite(smoothing)):
        raise InvalidDistributionError(f"smoothing must be finite and >= 0, got {smoothing!r}")
    idx = np.ravel_multi_index(seqs.T, (c,) * n)
    counts = np.bincount(idx, minlength=alphabet.num_states).astype(np.float64)
    total = counts.sum() + smoothing * alphabet.num_states
    if not math.isfinite(total):
        raise InvalidDistributionError(f"smoothing {smoothing!r} makes the total mass non-finite")
    if total <= 0.0:
        raise InvalidDistributionError("empty corpus with zero smoothing")
    probs = (counts + smoothing) / total
    return JointTable(alphabet, probs)


def save_corpus(sequences: np.ndarray, path: str | Path) -> None:
    lines = [" ".join(str(int(t)) for t in row) for row in np.asarray(sequences)]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_corpus(path: str | Path) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(read_input(path).splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise InvalidDistributionError(f"bad corpus line {lineno}: {line!r}") from exc
    if not rows:
        raise InputFileError(f"corpus {path} holds no sequences")
    if len({len(r) for r in rows}) != 1:
        raise InvalidDistributionError("corpus lines have inconsistent lengths")
    return np.asarray(rows, dtype=np.int64)


def load_model_file(path: str | Path) -> tuple[str, JointTable]:
    doc = parse_json_object(read_input(path), "model", ("version", "kind", "N", "C", "payload"))
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise InvalidDistributionError(f"unsupported model version {doc.get('version')!r}")
    kind = doc.get("kind")
    if kind not in (KIND_EXACT, KIND_COUNTS):
        raise InvalidDistributionError(f"unknown model kind {kind!r}")
    return kind, parse_table_doc(doc, "model", "payload")


_QUERY_CACHE_CAP = 4096


_Model = TypeVar("_Model", bound="_TableModel")


@dataclass(frozen=True, eq=False)
class _TableModel:
    """A query provider backed by one joint table, "exact" or "counts".
    `_query_cache` memoizes its marginal queries, (query, tokens) ->
    MarginalSet, up to _QUERY_CACHE_CAP entries. The prefix rows they are
    built from live in the table's memo, `JointTable.prefix_rows`, shared by
    every model over the table: prefix -> its read-only row, filled on
    first use and frozen at _QUERY_CACHE_CAP entries by the same rule. A
    prefix without mass raises and is not stored."""

    table: JointTable
    kind: str = KIND_EXACT
    _query_cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def alphabet(self) -> Alphabet:
        return self.table.alphabet

    @classmethod
    def exact(cls: type[_Model], table: JointTable) -> _Model:
        return cls(table, KIND_EXACT)

    @classmethod
    def from_corpus(
        cls: type[_Model], sequences: np.ndarray, alphabet: Alphabet, smoothing: float = 1.0
    ) -> _Model:
        return cls(fit_counts_table(sequences, alphabet, smoothing), KIND_COUNTS)

    def save(self, path: str | Path) -> None:
        head = [("version", str(MODEL_FORMAT_VERSION)), ("kind", f'"{self.kind}"')]
        Path(path).write_text(dump_table_doc(head, self.table, "payload") + "\n", encoding="utf-8")

    @classmethod
    def load(cls: type[_Model], path: str | Path) -> _Model:
        kind, table = load_model_file(path)
        return cls(table, kind)


class DiffusionMarginalModel(_TableModel):
    """Marginal provider over the content layer; the exact marginals are
    schedule-free."""


class ARCopulaModel(_TableModel):
    """Left-to-right conditional provider p(x_i | x_<i) over data tokens,
    read from the prefix marginal M_{i+1}."""


# ---------------------------------------------------------------------------
# Marginal queries
# ---------------------------------------------------------------------------

def _normalized(row: np.ndarray, prefix: tuple[int, ...]) -> np.ndarray:
    mass = float(row.sum())
    if mass <= 0.0:
        raise SupportError(f"prefix {prefix} has zero probability")
    return row / mass


def _rows(model: _TableModel, context: tuple[int, ...], positions: Sequence[int]) -> list:
    """Rows at `positions` (each masked in `context`) of M_{len(context)} given
    the unmasked tokens of `context`, all read from one slice of it."""
    mask = model.alphabet.mask_index
    idx = tuple(slice(None) if tok == mask else tok for tok in context)
    sub = model.table.prefix_marginals[len(context)][idx]
    return [_normalized(position_sum(sub, context[:i].count(mask)), context) for i in positions]


def _memo_store(model: _TableModel, prefix: tuple[int, ...], row: np.ndarray) -> np.ndarray:
    """Make `row` read-only and memoize it as `prefix`'s row, until the memo
    holds _QUERY_CACHE_CAP rows."""
    row.setflags(write=False)
    memo = model.table.prefix_rows
    if len(memo) < _QUERY_CACHE_CAP:
        memo[prefix] = row
    return row


def _prefix_row(model: _TableModel, prefix: tuple[int, ...]) -> np.ndarray:
    """Row len(prefix) of M_{len(prefix)+1} given the unmasked tokens of
    `prefix`, from the table's memo."""
    row = model.table.prefix_rows.get(prefix)
    if row is None:
        context = prefix + (model.alphabet.mask_index,)
        row = _memo_store(model, prefix, _rows(model, context, (len(prefix),))[0])
    return row


def _context_end(tokens: tuple[int, ...], mask: int) -> int:
    """u, one past the last unmasked position: every position >= u is masked."""
    return max((i + 1 for i, tok in enumerate(tokens) if tok != mask), default=0)


def pattern_rows(model: _TableModel, given: Collection[int], i: int) -> np.ndarray:
    """Batched twin of `_rows`: p(x_i | x_given) for every assignment of the
    positions in `given` (i not among them), at once. The result is an N-axis
    tensor with C on the axes of `given` and on axis i (the row), and 1
    elsewhere; a context without mass gets a zero row. Row i of
    `dm_marginals_full` passes a pattern's unmasked positions, of
    `dm_marginals_causal` those below i, and the copula conditional
    p(x_i | x_<i) passes range(i)."""
    k = max((i, *given)) + 1  # the row reads M_k
    other = tuple(j for j in range(k) if j != i and j not in given)
    sub = model.table.prefix_marginals[k].sum(axis=other, keepdims=True)
    sub = sub.reshape(sub.shape + (1,) * (model.alphabet.num_positions - k))
    mass = sub.sum(axis=i, keepdims=True)
    return np.divide(sub, mass, out=np.zeros_like(sub), where=mass > 0.0)


def _causal_rows(model: _TableModel, tokens: tuple[int, ...]) -> np.ndarray:
    return np.array([_prefix_row(model, tokens[:i]) for i in range(len(tokens))])


def _full_rows(model: _TableModel, tokens: tuple[int, ...]) -> np.ndarray:
    mask = model.alphabet.mask_index
    if mask not in tokens:  # no masked row checks the evidence: check it here
        _normalized(model.table.prefix_marginals[-1][tokens], tokens)
    u = _context_end(tokens, mask)
    head = iter(_rows(model, tokens[:u], [i for i in range(u) if tokens[i] == mask]))
    rows = np.zeros((len(tokens), model.alphabet.num_categories), dtype=np.float64)
    for i, tok in enumerate(tokens):
        if tok != mask:
            rows[i, tok] = 1.0
        else:
            rows[i] = next(head) if i < u else _prefix_row(model, tokens[:i])
    return rows


def _memoized(model: _TableModel, x_next: SequenceState, rows_of: Callable) -> MarginalSet:
    if model.alphabet != x_next.alphabet:
        raise AlphabetMismatchError("model table and state disagree on the alphabet")
    cache = model._query_cache
    key = (rows_of, x_next.tokens)
    hit = cache.get(key)
    if hit is None:
        hit = MarginalSet(rows_of(model, x_next.tokens))
        if len(cache) < _QUERY_CACHE_CAP:
            cache[key] = hit
    return hit


def dm_marginals_full(model: DiffusionMarginalModel, x_next: SequenceState) -> MarginalSet:
    """Rows q(x~_t^i | x_{t+1}) for every position, mask excluded: the
    marginals of the auxiliary posterior given the whole context. They do
    not depend on the time x_{t+1} carries. With u one past the last unmasked
    position, masked rows i < u read M_u; rows i >= u are the causal rows."""
    return _memoized(model, x_next, _full_rows)


def dm_marginals_causal(model: DiffusionMarginalModel, x_next: SequenceState) -> MarginalSet:
    """Row i conditions only on the context left of i, as if positions >= i
    were MASK: M_{i+1} given the unmasked tokens of x_{t+1}[:i]."""
    return _memoized(model, x_next, _causal_rows)


# ---------------------------------------------------------------------------
# Autoregressive queries
# ---------------------------------------------------------------------------

def ar_conditional(model: ARCopulaModel, prefix: Sequence[int], i: int) -> np.ndarray:
    """p(x_i = . | x_<i = prefix) as a length-C distribution; i = len(prefix).
    The row is read-only: it is the table's memoized prefix row, the one the
    causal query reads at the same prefix. Every call is one copula query."""
    n, c = model.alphabet.num_positions, model.alphabet.num_categories
    if not 0 <= i < n:
        raise AlphabetMismatchError(f"position {i} out of range")
    if len(prefix) != i:
        raise InvalidDistributionError(f"prefix length {len(prefix)} != position {i}")
    key = tuple(map(int, prefix))
    if key and not (min(key) >= 0 and max(key) < c):
        bad = next(tok for tok in key if not 0 <= tok < c)
        raise InvalidDistributionError(f"prefix token {bad} out of range")
    row = model.table.prefix_rows.get(key)
    if row is None:
        row = _memo_store(model, key, _normalized(model.table.prefix_marginals[i + 1][key], key))
    return row


def ar_chain_table(model: ARCopulaModel) -> JointTable:
    """Joint distribution defined by the chain of conditionals, accumulated
    in log-domain. For a table-backed model this reproduces the table (chain
    rule); it is computed independently so tests can assert exactly that."""
    alphabet = model.alphabet
    n, c = alphabet.num_positions, alphabet.num_categories
    log_probs = np.full(alphabet.num_states, -np.inf, dtype=np.float64)

    def recurse(prefix: tuple[int, ...], log_w: float) -> None:
        i = len(prefix)
        if i == n:
            log_probs[state_to_index(alphabet, prefix)] = log_w
            return
        row = ar_conditional(model, prefix, i)
        for cat in range(c):
            if row[cat] > 0.0:
                recurse(prefix + (cat,), log_w + float(np.log(row[cat])))

    recurse((), 0.0)
    return JointTable(alphabet, np.exp(log_probs))
