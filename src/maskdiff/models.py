"""The two probability sources the sampler fuses.

A DiffusionMarginalModel answers per-position marginal queries about the
mask-free content layer: rows of q(x~_t^i | x_{t+1}) for the full context,
or for the causal context where every position >= i is masked. An
ARCopulaModel answers left-to-right conditionals p(x_i | x_<i).

Both come in two variants sharing one representation: "exact" wraps the true
data table, "counts" wraps a Laplace-smoothed empirical table fitted from a
corpus of complete sequences. All queries are exact conditioning of the
backing table, so every answered row is a valid distribution by construction.

Corpus files hold one sequence per line as N space-separated integer tokens
(0-based). Model files are versioned JSON: {version, kind, N, C, payload}.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TypeVar

import numpy as np

from .dist import (
    Alphabet,
    JointTable,
    MarginalSet,
    dump_table_doc,
    parse_json_object,
    parse_table_doc,
    read_input,
    state_to_index,
    univariate_marginals,
)
from .errors import (
    AlphabetMismatchError,
    InputFileError,
    InvalidDistributionError,
    SupportError,
)
from .noising import SequenceState, aux_posterior

MODEL_FORMAT_VERSION = 1
KIND_EXACT = "exact"
KIND_COUNTS = "counts"


def fit_counts_table(
    sequences: np.ndarray, alphabet: Alphabet, smoothing: float = 1.0
) -> JointTable:
    """Additively smoothed empirical joint table from an (M, N) corpus."""
    seqs = np.asarray(sequences, dtype=np.int64)
    if seqs.ndim != 2 or seqs.shape[1] != alphabet.num_positions:
        raise AlphabetMismatchError("corpus shape does not match the alphabet")
    if seqs.size and (seqs.min() < 0 or seqs.max() >= alphabet.num_categories):
        raise InvalidDistributionError("corpus tokens out of range")
    if smoothing < 0.0:
        raise InvalidDistributionError("smoothing must be >= 0")
    weights = alphabet.num_categories ** np.arange(
        alphabet.num_positions - 1, -1, -1, dtype=np.int64
    )
    idx = seqs @ weights if seqs.size else np.zeros(0, dtype=np.int64)
    counts = np.bincount(idx, minlength=alphabet.num_states).astype(np.float64)
    total = counts.sum() + smoothing * alphabet.num_states
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
    Queries are pure, so answers are memoized per context."""

    table: JointTable
    kind: str = KIND_EXACT

    def __post_init__(self) -> None:
        if self.table.num_positions < 1:
            raise InvalidDistributionError("a model needs num_positions >= 1")
        object.__setattr__(self, "_query_cache", {})

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
    memoized per prefix."""


# ---------------------------------------------------------------------------
# Marginal queries
# ---------------------------------------------------------------------------

def dm_marginals_full(model: DiffusionMarginalModel, x_next: SequenceState) -> MarginalSet:
    """Rows q(x~_t^i | x_{t+1}) for every position, mask excluded: the
    marginals of the auxiliary posterior given the whole context. They do
    not depend on the time x_{t+1} carries."""
    cache: dict = model._query_cache  # type: ignore[attr-defined]
    key = ("full", x_next.tokens)
    hit = cache.get(key)
    if hit is not None:
        return hit
    rows = univariate_marginals(aux_posterior(model.table, x_next))
    if len(cache) < _QUERY_CACHE_CAP:
        cache[key] = rows
    return rows


def dm_marginals_causal(model: DiffusionMarginalModel, x_next: SequenceState) -> MarginalSet:
    """Row i conditions only on the context left of i: positions >= i are
    replaced by MASK before querying the full-context marginal at i."""
    cache: dict = model._query_cache  # type: ignore[attr-defined]
    key = ("causal", x_next.tokens)
    hit = cache.get(key)
    if hit is not None:
        return hit
    n = model.alphabet.num_positions
    mask = model.alphabet.mask_index
    rows = np.empty((n, model.alphabet.num_categories), dtype=np.float64)
    for i in range(n):
        ctx = SequenceState(
            x_next.tokens[:i] + (mask,) * (n - i), x_next.time, model.alphabet
        )
        rows[i] = dm_marginals_full(model, ctx).rows[i]
    out = MarginalSet(rows, includes_mask=False)
    if len(cache) < _QUERY_CACHE_CAP:
        cache[key] = out
    return out


# ---------------------------------------------------------------------------
# Autoregressive queries
# ---------------------------------------------------------------------------

def ar_conditional(model: ARCopulaModel, prefix: Sequence[int], i: int) -> np.ndarray:
    """p(x_i = . | x_<i = prefix) as a length-C distribution; i = len(prefix)."""
    n, c = model.alphabet.num_positions, model.alphabet.num_categories
    if not 0 <= i < n:
        raise AlphabetMismatchError(f"position {i} out of range")
    if len(prefix) != i:
        raise InvalidDistributionError(f"prefix length {len(prefix)} != position {i}")
    key = tuple(int(tok) for tok in prefix)
    for tok in key:
        if not 0 <= tok < c:
            raise InvalidDistributionError(f"prefix token {tok} out of range")
    cache: dict = model._query_cache  # type: ignore[attr-defined]
    hit = cache.get(key)
    if hit is not None:
        return hit
    tensor = model.table.tensor()
    if i + 1 < n:
        tensor = tensor.sum(axis=tuple(range(i + 1, n)))
    row = np.asarray(tensor[key], dtype=np.float64)
    mass = float(row.sum())
    if mass <= 0.0:
        raise SupportError(f"prefix {key} has zero probability")
    row = row / mass
    row.setflags(write=False)
    if len(cache) < _QUERY_CACHE_CAP:
        cache[key] = row
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
