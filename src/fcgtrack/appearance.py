"""Appearance distances between feature vectors."""

from __future__ import annotations

import numpy as np

from .core import DegenerateFeatureError

_ROWS = 256  # rows of denominators held at once beside the n x n result


def cosine_matrix(features: np.ndarray) -> np.ndarray:
    """Pairwise 1 - cos distances between the rows of an (n, D) matrix.

    Entry (i, j) is 1 - <h_i, h_j> / sqrt(|h_i|^2 * |h_j|^2), clamped into
    [0, 2] against rounding. Scale-invariant; 0 for parallel vectors, 1 for
    orthogonal, up to 2 for opposite directions. Computed in the Gram matrix.
    """
    n = len(features)
    if n < 2:
        return np.zeros((n, n))
    gram = features @ features.T
    squared = gram.diagonal().copy()
    if not np.all((squared > 0.0) & np.isfinite(squared)):
        raise DegenerateFeatureError(
            "cosine distance undefined for a zero-norm or overflowing vector"
        )
    norms = np.empty((min(n, _ROWS), n))
    for start in range(0, n, _ROWS):
        rows = gram[start : start + _ROWS]
        block = norms[: len(rows)]
        np.multiply.outer(squared[start : start + _ROWS], squared, out=block)
        np.divide(rows, np.sqrt(block, out=block), out=rows)
    np.subtract(1.0, gram, out=gram)
    return np.clip(gram, 0.0, 2.0, out=gram)
