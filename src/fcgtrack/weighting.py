"""Temporal and spatial priors weighting the appearance distance between tracklets.

A tracklet pair is compared through the last box of the earlier tracklet and
the first box of the later one. Pairs that cannot be ordered in time (their
frame spans interleave) get the cannot-link sentinel instead of a weighted
distance.

`weighted_pairs` weighs given pairs elementwise, so a value is bit-identical
wherever its pair is weighed. It is fl(fl(cos * t) * fl(lambda_c * lambda_f)),
t, lambda_f >= 1 and lambda_c = min(1, fl(iou_distance + off)) >= off (the IoU
distance is at least 0); rounding is monotone, so it is at least
fl(cos * off), or cos with the spatial factors off: stage 2's lower bound.
"""

from __future__ import annotations

import numpy as np

from .appearance import cosine_from_gram
from .core import CANNOT_LINK, DetectionColumns, FcgConfig
from .geometry import box_displacement_array, extrapolate_array, iou_distance_array


def _temporal_factor(delta_t, cfg: FcgConfig):
    return np.where(delta_t <= cfg.kt, 1.0, cfg.ct)


def _spatial_factors(last_box: np.ndarray, first_box: np.ndarray, cfg: FcgConfig):
    lambda_c = np.minimum(1.0, iou_distance_array(last_box, first_box) + cfg.off)
    d_box = box_displacement_array(last_box, first_box)
    lambda_f = np.where(d_box <= cfg.kf, 1.0, cfg.cf)
    return lambda_c, lambda_f


def _endpoints(table: DetectionColumns, last, prev, first, cfg: FcgConfig):
    """Gap and endpoint boxes of pairs of tracklets read as "a before b".

    From the table rows of a's last and `prev` (second-to-last; for one row,
    the last) detection and of b's first, which broadcast together: the gap
    first_frame(b) - last_frame(a), a's last box (extrapolated over
    min(gap, window) frames with motion on) and b's first box. Meaningless
    where gap <= 0.
    """
    gap = table.frame[first] - table.frame[last]
    last_box = table.box[last]
    if cfg.use_motion:
        last_box = extrapolate_array(table.box[prev], last_box, np.minimum(gap, cfg.window))
    return gap, last_box, table.box[first]


def cosine_blocks(level, lo, n) -> np.ndarray:
    """Stacked median cosine distances of the tracklets lo[k]..lo[k]+n[k]-1 of a level: block
    k, at [k, :n[k], :n[k]], equals `cosine_matrix` of those tracklets alone, as each is its
    own Gram product, normalized with the others in one pass. The padding is nonnegative."""
    m = int(n.max())
    dist = np.zeros((len(n), m, m))
    for k, (a, size) in enumerate(zip(lo.tolist(), n.tolist())):
        features = np.asarray(level.median[a : a + size], dtype=np.float64)
        np.matmul(features, features.T, out=dist[k, :size, :size])
    return cosine_from_gram(dist, n)


def weighted_pairs(level, cos: np.ndarray, t: np.ndarray, u: np.ndarray, cfg: FcgConfig):
    """Weighted distances of the pairs of tracklets t[p], u[p] of a level, cos[p] their cosine
    distances: times the temporal factor when that is enabled, then times the product of the
    spatial factors when those are enabled, the pair read from whichever tracklet ends first.
    Pairs not ordered in time, a tracklet with itself among them, hold the sentinel as a value.
    """
    offsets, members, frame = level.offsets, level.members, level.table.frame
    first_t, first_u = members[offsets[t]], members[offsets[u]]
    t_first = frame[members[offsets[t + 1] - 1]] < frame[first_u]
    ordered = t_first | (frame[members[offsets[u + 1] - 1]] < frame[first_t])
    dist = np.array(cos, dtype=np.float64)
    if cfg.use_temporal or cfg.use_spatial:
        early = np.where(t_first, t, u)
        start, end = offsets[early], offsets[early + 1]
        # The earlier tracklet's last row and the one before it (the last, for one row).
        last, prev = members[end - 1], members[np.maximum(end - 2, start)]
        first = np.where(t_first, first_u, first_t)  # the later tracklet's
        gap, last_box, first_box = _endpoints(level.table, last, prev, first, cfg)
        if cfg.use_temporal:
            dist *= _temporal_factor(gap, cfg)
        if cfg.use_spatial:
            lambda_c, lambda_f = _spatial_factors(last_box, first_box, cfg)
            dist *= lambda_c * lambda_f
    dist[~ordered] = CANNOT_LINK
    return dist
