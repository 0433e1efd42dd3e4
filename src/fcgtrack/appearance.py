"""Appearance distances between feature vectors."""

from __future__ import annotations

import numpy as np

from .core import DegenerateFeatureError


def cosine_matrix(features: np.ndarray) -> np.ndarray:
    """Pairwise 1 - cos distances between the rows of an (n, D) matrix.

    Entry (i, j) is 1 - <h_i, h_j> / sqrt(|h_i|^2 * |h_j|^2), clamped into
    [0, 2] against rounding. Scale-invariant; 0 for parallel vectors, 1 for
    orthogonal, up to 2 for opposite directions.
    """
    n = len(features)
    if n < 2:
        return np.zeros((n, n))
    gram = features @ features.T
    squared = gram.diagonal()
    if not np.all((squared > 0.0) & np.isfinite(squared)):
        raise DegenerateFeatureError(
            "cosine distance undefined for a zero-norm or overflowing vector"
        )
    dist = np.multiply.outer(squared, squared)
    np.sqrt(dist, out=dist)
    np.divide(gram, dist, out=dist)
    np.subtract(1.0, dist, out=dist)
    return np.clip(dist, 0.0, 2.0, out=dist)

