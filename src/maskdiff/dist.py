"""Exact joint categorical distributions and their information/copula functionals.

A distribution over N variables with K categories each is a dense float64
array of length K**N in lexicographic order, position 0 most significant.
Sequence states have K = C + 1 categories, the mask last, so rows over them
carry the mask in their last column; a row set's width, not a flag, says so.
Full enumeration is the point: every quantity below is computed exactly (up
to float64 rounding), so these objects double as oracles for everything else
in the package. The enumeration cap K**N <= 10**7 is enforced at construction.

Kernels work on the (K,)*N tensor view of a table: a per-position row
(or a block over consecutive positions) acts along its own axes
(`along_axis`) and a per-position marginal is a sum over every other axis
(`position_sum`). `all_states`, the explicit
(K**N, N) index array, is the enumeration the oracles walk.

Functionals: entropy, KL divergence, univariate marginals, total correlation
(KL between a joint and the product of its marginals), exact conditioning,
and - for binary alphabets - conditional odds ratios, which parameterize the
dependence structure ("copula") of a discrete distribution. Two positive
binary tables have the same copula iff all their conditional odds ratios
agree.

Serialization is a versioned JSON document with floats printed to 17
significant decimal digits, which round-trips float64 exactly.
"""

from __future__ import annotations

import errno
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    AlphabetMismatchError,
    CapExceededError,
    InputFileError,
    InvalidDistributionError,
    PositivityError,
    SupportError,
    UnsupportedAlphabetError,
)

ENUMERATION_CAP = 10_000_000
NORMALIZATION_TOL = 1e-12
POSITIVITY_FLOOR = 1e-12

TABLE_FORMAT_VERSION = 1


def format_float(x: float) -> str:
    """Decimal rendering with 17 significant digits (exact float64 round-trip)."""
    return format(float(x), ".17g")


def format_float_short(x: float) -> str:
    """Shortest decimal that round-trips exactly; used for CSV/plot output."""
    return repr(float(x))


@dataclass(frozen=True)
class Alphabet:
    """Shape of the variable space: num_positions >= 1 variables with
    num_categories >= 2 data categories each. The mask token, the extra index
    num_categories, exists only in sequence states, never in data tables."""

    num_positions: int
    num_categories: int

    def __post_init__(self) -> None:
        if self.num_positions < 1:
            raise InvalidDistributionError("num_positions must be >= 1")
        if self.num_categories < 2:
            raise InvalidDistributionError("num_categories must be >= 2")
        if self.num_categories ** self.num_positions > ENUMERATION_CAP:
            raise CapExceededError(
                f"{self.num_categories}**{self.num_positions} states exceed the "
                f"enumeration cap {ENUMERATION_CAP}"
            )

    @property
    def mask_index(self) -> int:
        return self.num_categories

    @property
    def num_states(self) -> int:
        return self.num_categories ** self.num_positions

    def with_mask(self) -> "Alphabet":
        """Alphabet over sequence states: the mask joins as the last category."""
        return Alphabet(self.num_positions, self.num_categories + 1)


def all_states(alphabet: Alphabet) -> np.ndarray:
    """(num_states, N) array of every assignment, in table order, built on
    each call: N int64 entries per state, for oracles that enumerate."""
    grids = np.indices((alphabet.num_categories,) * alphabet.num_positions, dtype=np.int64)
    return grids.reshape(alphabet.num_positions, alphabet.num_states).T


def state_to_index(alphabet: Alphabet, tokens: Sequence[int]) -> int:
    if len(tokens) != alphabet.num_positions:
        raise AlphabetMismatchError(
            f"expected {alphabet.num_positions} tokens, got {len(tokens)}"
        )
    idx = 0
    for tok in tokens:
        if not 0 <= tok < alphabet.num_categories:
            raise InvalidDistributionError(f"token {tok} out of range")
        idx = idx * alphabet.num_categories + int(tok)
    return idx


@dataclass(frozen=True, eq=False)
class JointTable:
    """Dense, normalized joint distribution. Immutable."""

    alphabet: Alphabet
    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=np.float64).ravel()
        if arr.shape != (self.alphabet.num_states,):
            raise InvalidDistributionError(
                f"expected {self.alphabet.num_states} entries, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidDistributionError("non-finite probability entries")
        if arr.min(initial=0.0) < 0.0:
            raise InvalidDistributionError("negative probability entries")
        total = float(arr.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise InvalidDistributionError(
                f"entries sum to {total!r}, not 1 within {NORMALIZATION_TOL}"
            )
        arr = arr / total
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    # -- accessors -------------------------------------------------------
    @property
    def num_positions(self) -> int:
        return self.alphabet.num_positions

    @property
    def num_categories(self) -> int:
        return self.alphabet.num_categories

    def prob(self, tokens: Sequence[int]) -> float:
        return float(self.probs[state_to_index(self.alphabet, tokens)])

    def tensor(self) -> np.ndarray:
        """View shaped (K,)*N; axis i is position i."""
        return self.probs.reshape((self.alphabet.num_categories,) * self.alphabet.num_positions)

    @cached_property
    def prefix_marginals(self) -> tuple[np.ndarray, ...]:
        """M_0..M_N, read-only and built once on first use: M_k sums the table
        over positions >= k directly (chained sums would change AR bits)."""
        tensor, n = self.tensor(), self.num_positions
        sums = [np.asarray(tensor.sum(axis=tuple(range(k, n)))) for k in range(n)]
        for m in sums:
            m.setflags(write=False)
        return (*sums, tensor)

    @cached_property
    def prefix_rows(self) -> dict:
        """The memo of prefix rows that `models` fills, shared by every model
        over this table; empty until a model first asks for a row."""
        return {}

    def floored(self) -> "JointTable":
        """Strictly positive variant: clamp entries below POSITIVITY_FLOOR up
        to it and renormalize."""
        arr = np.maximum(self.probs, POSITIVITY_FLOOR)
        return JointTable(self.alphabet, arr / arr.sum())


@dataclass(frozen=True, eq=False)
class MarginalSet:
    """Per-position categorical distributions: rows (N, K). Rows over a
    state alphabet have K = C + 1 and the mask in their last column."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.rows, dtype=np.float64)
        if arr.ndim != 2 or not arr.shape[0]:
            raise InvalidDistributionError("marginal rows must be a 2-D array with at least one row")
        sums = arr.sum(axis=1)
        # one pass accepts: a NaN or an infinity makes its row's sum miss 1
        if not (arr.min(initial=0.0) >= 0.0 and np.abs(sums - 1.0).max() <= NORMALIZATION_TOL):
            if not np.all(np.isfinite(arr)) or arr.min(initial=0.0) < 0.0:
                raise InvalidDistributionError("marginal rows must be finite and nonnegative")
            raise InvalidDistributionError("each marginal row must sum to 1 within 1e-12")
        arr = arr / sums[:, None]
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)


# ---------------------------------------------------------------------------
# Information functionals
# ---------------------------------------------------------------------------

def entropy(p: JointTable) -> float:
    """Shannon entropy in nats, with 0*log(0) = 0."""
    v = p.probs
    nz = v > 0.0
    return float(-np.sum(v[nz] * np.log(v[nz])))


def kl(p: JointTable, q: JointTable) -> float:
    """KL(p || q) in nats. Raises SupportError where p puts mass and q none."""
    if p.alphabet != q.alphabet:
        raise AlphabetMismatchError("kl requires a common alphabet")
    mask = p.probs > 0.0
    if np.any(q.probs[mask] == 0.0):
        raise SupportError("q vanishes on the support of p (KL undefined)")
    return _divergence(p.probs[mask], np.log(q.probs[mask]))


def _divergence(p_support: np.ndarray, log_q: np.ndarray) -> float:
    val = float(np.sum(p_support * (np.log(p_support) - log_q)))
    if val < -1e-9:
        raise InvalidDistributionError(f"KL evaluated to {val}, below rounding slack")
    return max(val, 0.0)


def along_axis(block: np.ndarray, i: int, ndim: int) -> np.ndarray:
    """`block` shaped to broadcast against an ndim-axis tensor with its last
    axis on axis i: a row acts along axis i, a k-axis block on axes i-k+1..i."""
    return np.reshape(block, np.shape(block) + (1,) * (ndim - 1 - i))


def position_sum(tensor: np.ndarray, i: int) -> np.ndarray:
    """Sum of a (K,)*N tensor over every axis but i: its length-K row at position i."""
    return tensor.sum(axis=tuple(j for j in range(tensor.ndim) if j != i))


def univariate_marginals(p: JointTable) -> MarginalSet:
    """Exact per-position marginals, one row of p's K categories each; on a
    state alphabet the last column is the mask's mass."""
    tensor = p.tensor()
    rows = np.empty((p.num_positions, p.num_categories), dtype=np.float64)
    for i in range(p.num_positions):
        rows[i] = position_sum(tensor, i)
    return MarginalSet(rows)


def product_table(marginals: MarginalSet, alphabet: Alphabet) -> JointTable:
    """Joint distribution over `alphabet` that factorizes into the given rows."""
    rows = marginals.rows
    if rows.shape != (alphabet.num_positions, alphabet.num_categories):
        raise AlphabetMismatchError("marginal rows do not match the alphabet")
    probs = np.ones(1, dtype=np.float64)
    for i in range(alphabet.num_positions):
        probs = np.multiply.outer(probs, rows[i]).ravel()
    return JointTable(alphabet, probs)


def total_correlation(p: JointTable) -> float:
    """KL between p and the product of its univariate marginals (`kl_to_product`)."""
    return kl_to_product(p, univariate_marginals(p))


def kl_to_product(p: JointTable, marginals: MarginalSet) -> float:
    """KL(p || product_table(marginals, p.alphabet)), with the product's log
    summed from the log rows where it underflows to 0 on p's support."""
    mask, rows = p.probs > 0.0, marginals.rows
    q = product_table(marginals, p.alphabet).probs[mask]
    log_q = np.log(np.where(q > 0.0, q, 1.0))
    if np.any(q == 0.0):  # underflow, or a row that is 0 on the support
        log_rows = np.log(rows, out=np.full_like(rows, -np.inf), where=rows > 0.0)
        log_q[q == 0.0] = reduce(np.add.outer, log_rows).ravel()[mask][q == 0.0]
        if np.isneginf(log_q).any():
            raise SupportError("q vanishes on the support of p (KL undefined)")
    return _divergence(p.probs[mask], log_q)


def condition(p: JointTable, evidence: Mapping[int, int]) -> JointTable:
    """Exact conditional over the remaining positions given fixed values.

    Empty evidence returns p itself. Evidence must leave a position free:
    fixing every position is an InvalidDistributionError.
    """
    if not evidence:
        return p
    n, k = p.num_positions, p.num_categories
    for pos, cat in evidence.items():
        if not 0 <= pos < n:
            raise AlphabetMismatchError(f"evidence position {pos} out of range")
        if not 0 <= cat < k:
            raise InvalidDistributionError(f"evidence value {cat} out of range")
    if len(evidence) == n:
        raise InvalidDistributionError("evidence fixes every position; no position is left")
    idx = tuple(evidence.get(i, slice(None)) for i in range(n))
    sub = np.asarray(p.tensor()[idx], dtype=np.float64)
    mass = float(sub.sum())
    if mass <= 0.0:
        raise SupportError(f"evidence {dict(evidence)} has zero probability")
    return JointTable(Alphabet(n - len(evidence), k), sub.ravel() / mass)


def total_variation(p: JointTable, q: JointTable) -> float:
    if p.alphabet != q.alphabet:
        raise AlphabetMismatchError("total_variation requires a common alphabet")
    return float(0.5 * np.abs(p.probs - q.probs).sum())


def sample_states(p: JointTable, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. assignments, returned as an (n, N) int array."""
    idx = rng.choice(p.alphabet.num_states, size=n, p=p.probs)
    return np.array(np.unravel_index(idx, p.tensor().shape), dtype=np.int64).T.copy()


# ---------------------------------------------------------------------------
# Conditional odds ratios (binary alphabets)
# ---------------------------------------------------------------------------

def _require_binary_positive(p: JointTable) -> None:
    if p.num_categories != 2:
        raise UnsupportedAlphabetError(
            "conditional odds ratios are implemented for binary categories only"
        )
    if p.probs.min() <= 0.0:
        raise PositivityError("odds ratios require a strictly positive table")


def conditional_odds_ratio(
    p: JointTable, a_positions: Sequence[int], b_assignment: Mapping[int, int]
) -> float:
    """Odds ratio of the variables `a_positions` given the complement fixed
    to `b_assignment`.

    Assignments to A whose number of ones has the same parity as |A| go to
    the numerator, the rest to the denominator. For two variables and empty
    evidence this is the familiar p00*p11 / (p01*p10).
    """
    _require_binary_positive(p)
    n = p.num_positions
    a = tuple(sorted(int(i) for i in a_positions))
    if len(a) < 2 or len(set(a)) != len(a):
        raise InvalidDistributionError("need at least two distinct positions in A")
    if any(not 0 <= i < n for i in a):
        raise AlphabetMismatchError("A positions out of range")
    complement = tuple(i for i in range(n) if i not in a)
    if set(b_assignment) != set(complement):
        raise AlphabetMismatchError("b must assign exactly the complement of A")
    tokens = [0] * n
    for pos, val in b_assignment.items():
        if val not in (0, 1):
            raise InvalidDistributionError("binary assignments only")
        tokens[pos] = int(val)
    target_parity = len(a) % 2
    log_num = 0.0
    log_den = 0.0
    for bits in itertools.product((0, 1), repeat=len(a)):
        for pos, bit in zip(a, bits):
            tokens[pos] = bit
        lp = math.log(p.prob(tokens))
        if sum(bits) % 2 == target_parity:
            log_num += lp
        else:
            log_den += lp
    return math.exp(log_num - log_den)


def iter_odds_ratio_contexts(
    num_positions: int,
) -> Iterator[tuple[tuple[int, ...], dict[int, int]]]:
    """Every (A, b) pair with |A| >= 2 over a binary alphabet of size N."""
    positions = range(num_positions)
    for size in range(2, num_positions + 1):
        for a in itertools.combinations(positions, size):
            complement = tuple(i for i in positions if i not in a)
            for values in itertools.product((0, 1), repeat=len(complement)):
                yield a, dict(zip(complement, values))


def same_copula(p: JointTable, q: JointTable, tol: float = 1e-8) -> bool:
    """True iff every conditional odds ratio of p and q agrees within
    relative tolerance tol."""
    if p.alphabet != q.alphabet:
        raise AlphabetMismatchError("same_copula requires a common alphabet")
    for a, b in iter_odds_ratio_contexts(p.num_positions):
        rp = conditional_odds_ratio(p, a, b)
        rq = conditional_odds_ratio(q, a, b)
        if not math.isclose(rp, rq, rel_tol=tol, abs_tol=0.0):
            return False
    return True


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def dump_table_doc(head: list[tuple[str, str]], p: JointTable, probs_key: str) -> str:
    """JSON text of a table document: the `head` fields (values already JSON),
    then N, C and the probabilities under `probs_key`, 17 significant digits
    each."""
    probs = "[" + ", ".join(format_float(v) for v in p.probs) + "]"
    fields = head + [("N", str(p.num_positions)), ("C", str(p.num_categories)), (probs_key, probs)]
    return "{" + ", ".join(f'"{k}": {v}' for k, v in fields) + "}"


def dumps_table(p: JointTable) -> str:
    return dump_table_doc([("version", str(TABLE_FORMAT_VERSION))], p, "probs")


def read_input(path: str | Path) -> str:
    """Text of an input file; a missing or unreadable file is an InputFileError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputFileError(f"{path} is not UTF-8 text") from exc


def make_output_dirs(paths: Sequence[Path]) -> None:
    """Make the parent directories of `paths` once each of them can be
    written: none is a directory and none lies under a file. Otherwise raise
    the OSError that writing it would meet, before making any directory."""
    for path in paths:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "Is a directory", str(path))
        if not next((up for up in path.parents if up.exists()), Path(".")).is_dir():
            raise NotADirectoryError(errno.ENOTDIR, "Not a directory", str(path))
    for path in paths:
        path.parent.mkdir(parents=True, exist_ok=True)


def parse_json_object(text: str, what: str, keys: Sequence[str]) -> dict:
    """The JSON object in `text`, which must carry `keys`; anything else is an
    InputFileError naming `what` the document should have been."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFileError(f"malformed {what} JSON: {exc}") from exc
    if not isinstance(doc, dict) or any(key not in doc for key in keys):
        raise InputFileError(f"a {what} must be a JSON object with keys {', '.join(keys)}")
    return doc


def parse_table_doc(doc: dict, what: str, probs_key: str) -> JointTable:
    """The table a parsed `what` document holds. N and C must be JSON integers
    and doc[probs_key] a list of JSON numbers; anything else, a bool
    included, is an InputFileError."""
    n, c, probs = doc["N"], doc["C"], doc[probs_key]
    if type(n) is not int or type(c) is not int:
        raise InputFileError(f"a {what}'s N and C must be integers, got {n!r} and {c!r}")
    if not isinstance(probs, list) or not all(type(v) in (int, float) for v in probs):
        raise InputFileError(f"a {what}'s {probs_key} must be a list of numbers")
    return JointTable(Alphabet(n, c), np.asarray(probs, dtype=np.float64))


def loads_table(text: str) -> JointTable:
    doc = parse_json_object(text, "table", ("version", "N", "C", "probs"))
    if doc.get("version") != TABLE_FORMAT_VERSION:
        raise InvalidDistributionError(f"unsupported table version {doc.get('version')!r}")
    return parse_table_doc(doc, "table", "probs")


def save_table(p: JointTable, path: str | Path) -> None:
    Path(path).write_text(dumps_table(p) + "\n", encoding="utf-8")


def load_table(path: str | Path) -> JointTable:
    return loads_table(read_input(path))
