"""Appearance distances between feature vectors."""

from __future__ import annotations

import numpy as np

from .core import DegenerateFeatureError

_ROWS = 256  # rows of denominators held at once beside the n x n result


def squared_norms(diagonal: np.ndarray) -> np.ndarray:
    """The squared norms on a Gram diagonal, or DegenerateFeatureError if one is 0 or not finite."""
    if np.all((diagonal > 0.0) & np.isfinite(diagonal)):
        return diagonal
    raise DegenerateFeatureError("cosine distance undefined for a zero-norm or overflowing vector")


def cosine_cells(gram, sq_i, sq_j, out=None) -> np.ndarray:
    """1 - g / sqrt(sq_i * sq_j) of Gram cells g and their rows' squared norms, clamped into
    [0, 2] against rounding (into `out` if given): each value from its own three alone."""
    norm = np.multiply(sq_i, sq_j)
    out = np.divide(gram, np.sqrt(norm, out=norm), out=out)
    return np.clip(np.subtract(1.0, out, out=out), 0.0, 2.0, out=out)


def cosine_matrix(features: np.ndarray) -> np.ndarray:
    """Pairwise 1 - cos distances between the rows of an (n, D) matrix.

    Entry (i, j) is `cosine_cells` of the Gram matrix, computed in its place `_ROWS` rows at a
    time: 1 - <h_i, h_j> / sqrt(|h_i|^2 * |h_j|^2), clamped into [0, 2]. Scale-invariant; 0
    for parallel vectors, 1 for orthogonal, up to 2 for opposite directions.
    """
    n = len(features)
    if n < 2:
        return np.zeros((n, n))
    gram = features @ features.T
    sq = squared_norms(gram.diagonal().copy())
    for start in range(0, n, _ROWS):
        rows = gram[start : start + _ROWS]
        cosine_cells(rows, sq[start : start + _ROWS, None], sq, out=rows)
    return gram
