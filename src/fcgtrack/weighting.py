"""Temporal and spatial priors weighting the appearance distance between tracklets.

A tracklet pair is compared through the last box of the earlier tracklet and
the first box of the later one. Pairs that cannot be ordered in time (their
frame spans interleave) get the cannot-link sentinel instead of a weighted
distance.

`weighted_blocks` weights a chunk of a `Level`'s fusions at once, from endpoint
arrays gathered once for the chunk; `weighted_matrix` is its one-fusion form.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .appearance import cosine_matrix
from .core import CANNOT_LINK, DetectionColumns, FcgConfig, LiftedFrame, Tracklet, level_of
from .geometry import box_displacement_array, extrapolate_array, iou_distance_array


def _temporal_factor(delta_t, cfg: FcgConfig):
    return np.where(delta_t <= cfg.kt, 1.0, cfg.ct)


def _spatial_factors(last_box: np.ndarray, first_box: np.ndarray, cfg: FcgConfig):
    lambda_c = np.minimum(1.0, iou_distance_array(last_box, first_box) + cfg.off)
    d_box = box_displacement_array(last_box, first_box)
    lambda_f = np.where(d_box <= cfg.kf, 1.0, cfg.cf)
    return lambda_c, lambda_f


def _endpoints(table: DetectionColumns, first, last, prev, cfg: FcgConfig):
    """Gap and endpoint boxes of every pair (i, j) of tracklets, read as "i before j".

    From the (..., m) table rows of each tracklet's first, last and `prev`
    (second-to-last; for one row, the last) detection: the gap first_frame[j] - last_frame[i], i's
    last box (extrapolated over min(gap, window) frames with motion on) and
    j's first box, broadcasting to (..., m, m, 4). Meaningless where gap <= 0.
    """
    gap = table.frame[first][..., None, :] - table.frame[last][..., :, None]
    last_box = table.box[last][..., :, None, :]
    if cfg.use_motion:
        last_box = extrapolate_array(
            table.box[prev][..., :, None, :], last_box, np.minimum(gap, cfg.window)
        )
    first_box = table.box[first][..., None, :, :]
    return gap, last_box, first_box


def weighted_blocks(level, lo, n, cfg: FcgConfig) -> np.ndarray:
    """Stacked weighted distances of the tracklets lo[k]..lo[k]+n[k]-1 of a level.

    Block k, at [k, :n[k], :n[k]] of a (len(n), m, m) tensor, is the median
    cosine distance (one `cosine_matrix` per block, in float64), times the
    temporal factor when that is enabled, then times the product of the
    spatial factors when those are enabled; gaps and boxes are gathered only
    then. Pairs not ordered in time, the diagonal among them, hold the
    cannot-link sentinel as a value, and so does the padding.
    """
    lo, n = np.asarray(lo), np.asarray(n)
    blocks = (
        cosine_matrix(np.asarray(level.median[a : a + k], dtype=np.float64))
        for a, k in zip(lo.tolist(), n.tolist())
    )
    # A lone block is used as it is, not copied.
    dist = next(blocks)[None] if len(n) == 1 else np.zeros((len(n), max(n), max(n)))
    for k, block in enumerate(blocks):
        dist[k, : len(block), : len(block)] = block
    index = np.minimum(lo[:, None] + np.arange(dist.shape[1]), (lo + n - 1)[:, None])
    start, end = level.offsets[index], level.offsets[index + 1]
    first, last, frame = level.members[start], level.members[end - 1], level.table.frame
    before = frame[last][:, :, None] < frame[first][:, None, :]

    def symmetric(directed):
        # Entry (i, j) as seen from whichever of i and j comes first.
        return np.where(before, directed, directed.swapaxes(1, 2))

    if cfg.use_temporal or cfg.use_spatial:
        prev = level.members[np.maximum(end - 2, start)]  # the last, for one row
        gap, last_box, first_box = _endpoints(level.table, first, last, prev, cfg)
        if cfg.use_temporal:
            dist *= symmetric(_temporal_factor(gap, cfg))
        if cfg.use_spatial:
            lambda_c, lambda_f = _spatial_factors(last_box, first_box, cfg)
            dist *= symmetric(lambda_c * lambda_f)
    dist[~(before | before.swapaxes(1, 2))] = CANNOT_LINK
    return dist


def weighted_matrix(tracklets: Sequence[Tracklet], cfg: FcgConfig) -> np.ndarray:
    """Weighted distances of all pairs of tracklets of one table (`weighted_blocks`), (n, n)."""
    if not tracklets:
        return np.zeros((0, 0))
    level = level_of([LiftedFrame(0, 1, tuple(tracklets))])
    return weighted_blocks(level, [0], [len(tracklets)], cfg)[0]
