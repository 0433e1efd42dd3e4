"""Appearance distances between detections and between tracklets."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import DegenerateFeatureError, DimensionMismatchError, Tracklet


def feature_matrix(vectors: Sequence) -> np.ndarray:
    """Stack feature vectors of one dimension into an (n, D) float64 matrix."""
    rows = [np.asarray(v, dtype=np.float64) for v in vectors]
    dims = sorted({r.shape[0] for r in rows})
    if len(dims) > 1:
        raise DimensionMismatchError(f"feature dimensions differ: {dims}")
    return np.stack(rows) if rows else np.zeros((0, 0))


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
    dist = np.sqrt(np.multiply.outer(squared, squared))
    np.divide(gram, dist, out=dist)
    np.subtract(1.0, dist, out=dist)
    return np.clip(dist, 0.0, 2.0, out=dist)


def cosine_distance(h1: np.ndarray, h2: np.ndarray) -> float:
    """`cosine_matrix` entry of one pair of feature vectors."""
    return float(cosine_matrix(feature_matrix((h1, h2)))[0, 1])


def tracklet_distance(t1: Tracklet, t2: Tracklet) -> float:
    """Cosine distance between the cached median features of two tracklets."""
    return cosine_distance(t1.median_feature, t2.median_feature)
