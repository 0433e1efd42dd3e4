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
    return cosine_from_gram(gram[None], np.array([n]))[0]


def cosine_from_gram(gram: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Turn the Gram blocks gram[k, :n[k], :n[k]] of a (B, m, m) tensor into their
    `cosine_matrix` values, in place, and return it.

    The padding must be finite; it ends nonnegative. Each value is computed
    from its own cell and its block's two norms alone, so it does not depend
    on the blocks beside it or on the slabs: the denominators are held at most
    `_ROWS` rows of m at a time (whole blocks while m <= `_ROWS`), in one buffer.
    """
    batch, m = gram.shape[:2]
    # A padding row or column divides by its block's norms times 1.
    squared = np.where(np.arange(m) < n[:, None], gram.diagonal(axis1=1, axis2=2), 1.0)
    if not np.all((squared > 0.0) & np.isfinite(squared)):
        raise DegenerateFeatureError(
            "cosine distance undefined for a zero-norm or overflowing vector"
        )
    rows, step = min(m, _ROWS), min(batch, max(1, _ROWS // m))
    norms = np.empty((step, rows, m))
    for k in range(0, batch, step):
        sq = squared[k : k + step]
        for start in range(0, m, rows):
            slab = gram[k : k + step, start : start + rows]
            block = norms[: len(slab), : slab.shape[1]]
            np.multiply(sq[:, start : start + rows, None], sq[:, None], out=block)
            np.divide(slab, np.sqrt(block, out=block), out=slab)
    np.subtract(1.0, gram, out=gram)
    return np.clip(gram, 0.0, 2.0, out=gram)
