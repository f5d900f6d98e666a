"""Correctness gates. Each is a pure function of results the benchmark
collected, so the self-test can hand it a corrupted result and see it fail.
They use numpy only, never the package under test, except where a gate
compares two of the package's own answers."""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

# KL(data || induced) on the bundled correlated pair (strength 0.95, beta 1),
# as the README tabulates it, to 3 decimals.
README_KL = {
    ("dcd", 1): "0.000",
    ("dcd", 2): "0.000",
    ("dcd", 4): "0.000",
    ("diffusion_only", 1): "0.576",
    ("diffusion_only", 2): "0.213",
    ("diffusion_only", 4): "0.083",
}

CHI2_Z = 3.7190  # upper 1e-4 point of the standard normal
CHI2_MIN_EXPECTED = 5.0


def readme_table_holds(kl_by_cell: Mapping[tuple[str, int], float]) -> bool:
    return all(
        cell in kl_by_cell and format(kl_by_cell[cell], ".3f") == text
        for cell, text in README_KL.items()
    )


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        return math.inf
    return float(0.5 * np.abs(p - q).sum())


def within(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol


def outputs_valid(outputs: Iterable[Sequence[int]], n: int, c: int) -> bool:
    """Every output has n tokens, each a data category (no mask, in range)."""
    return all(len(tok) == n and all(0 <= t < c for t in tok) for tok in outputs)


def chi2_critical(dof: int) -> float:
    """Upper 1e-4 point of chi-square with dof degrees of freedom
    (Wilson-Hilferty approximation)."""
    k = float(dof)
    return k * (1.0 - 2.0 / (9.0 * k) + CHI2_Z * math.sqrt(2.0 / (9.0 * k))) ** 3


def chi2_passes(counts: np.ndarray, probs: np.ndarray) -> bool:
    """Pearson chi-square goodness of fit of counts against probs at level
    1e-4. Cells expecting fewer than 5 draws are pooled into one; a draw in
    a cell of probability 0 fails outright."""
    counts = np.asarray(counts, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if counts.shape != probs.shape or np.any(counts[probs <= 0.0] > 0):
        return False
    expected = counts.sum() * probs
    big = expected >= CHI2_MIN_EXPECTED
    obs = list(counts[big])
    exp = list(expected[big])
    pooled = float(expected[~big].sum())
    if pooled > 0.0:
        obs.append(float(counts[~big].sum()))
        exp.append(pooled)
    if len(exp) < 2:
        return True
    obs_a, exp_a = np.asarray(obs), np.asarray(exp)
    stat = float(np.sum((obs_a - exp_a) ** 2 / exp_a))
    return stat < chi2_critical(len(exp) - 1)


def table_marginals(probs: np.ndarray, n: int, c: int) -> np.ndarray:
    """(n, c) per-position marginals of a dense table, position 0 most
    significant."""
    tensor = np.asarray(probs, dtype=np.float64).reshape((c,) * n)
    tensor = tensor / tensor.sum()
    return np.stack([tensor.sum(axis=tuple(j for j in range(n) if j != i)) for i in range(n)])


def rows_match(rows: np.ndarray, target: np.ndarray, tol: float) -> bool:
    return rows.shape == target.shape and bool(np.all(np.abs(rows - target) <= tol))
