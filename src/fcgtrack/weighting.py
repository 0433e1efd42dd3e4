"""Temporal and spatial priors weighting the appearance distance between tracklets.

A tracklet pair is compared through the last box of the earlier tracklet and
the first box of the later one. Pairs that cannot be ordered in time (their
frame spans interleave) get the cannot-link sentinel instead of a weighted
distance.

`weighted_matrix` computes every pair of a tracklet list at once from
endpoint arrays.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .appearance import cosine_matrix
from .core import CANNOT_LINK, DetectionColumns, FcgConfig, Tracklet, _shared_table
from .geometry import box_displacement_array, extrapolate_array, iou_distance_array


def _temporal_factor(delta_t, cfg: FcgConfig):
    return np.where(delta_t <= cfg.kt, 1.0, cfg.ct)


def _spatial_factors(last_box: np.ndarray, first_box: np.ndarray, cfg: FcgConfig):
    lambda_c = np.minimum(1.0, iou_distance_array(last_box, first_box) + cfg.off)
    d_box = box_displacement_array(last_box, first_box)
    lambda_f = np.where(d_box <= cfg.kf, 1.0, cfg.cf)
    return lambda_c, lambda_f


def _endpoints(table: DetectionColumns, tracklets: Sequence[Tracklet], cfg: FcgConfig):
    """Gap and endpoint boxes of every ordered pair (i, j), read as "i before j".

    Returns `before[i, j]` (i ends before j starts), the gap
    first_frame[j] - last_frame[i], i's last box (extrapolated over
    min(gap, window) frames when motion is on) and j's first box; the box
    arrays broadcast to (n, n, 4). Entries where i is not before j are
    meaningless. Endpoints are gathered from `table`, which the tracklets
    index, by row.
    """
    rows = [t.rows for t in tracklets]
    first = np.array([r[0] for r in rows], dtype=np.intp)
    last = np.array([r[-1] for r in rows], dtype=np.intp)
    first_frame = table.frame[first]
    last_frame = table.frame[last]
    before = last_frame[:, None] < first_frame[None, :]
    gap = first_frame[None, :] - last_frame[:, None]
    last_box = table.box[last][:, None, :]
    if cfg.use_motion:
        prev = np.array([r[-2] if len(r) >= 2 else r[-1] for r in rows], dtype=np.intp)
        last_box = extrapolate_array(
            table.box[prev][:, None, :], last_box, np.minimum(gap, cfg.window)
        )
    first_box = table.box[first][None, :, :]
    return before, gap, last_box, first_box


def weighted_matrix(tracklets: Sequence[Tracklet], cfg: FcgConfig) -> np.ndarray:
    """Weighted distances between all tracklet pairs as a symmetric (n, n) matrix.

    Each entry is the median cosine distance, times the temporal factor when
    that is enabled, then times the product of the spatial factors when those
    are enabled. Temporally interleaved pairs, the diagonal among them, hold
    the cannot-link sentinel as a value. The tracklets must index one table.
    """
    if not tracklets:
        return np.zeros((0, 0))
    table = _shared_table(tracklets)
    dist = cosine_matrix(np.stack([t.median_feature for t in tracklets]))
    before, gap, last_box, first_box = _endpoints(table, tracklets, cfg)

    def symmetric(directed):
        # Entry (i, j) as seen from whichever of i and j comes first.
        return np.where(before, directed, directed.T)

    if cfg.use_temporal:
        dist = dist * symmetric(_temporal_factor(gap, cfg))
    if cfg.use_spatial:
        lambda_c, lambda_f = _spatial_factors(last_box, first_box, cfg)
        dist = dist * symmetric(lambda_c * lambda_f)
    return np.where(before | before.T, dist, CANNOT_LINK)

