"""Temporal and spatial priors weighting the appearance distance between tracklets.

A tracklet pair is compared through the last box of the earlier tracklet and
the first box of the later one. Pairs that cannot be ordered in time (their
frame spans interleave) get the cannot-link sentinel instead of a weighted
distance.

`weighted_matrix` computes every pair of a tracklet list at once from
endpoint arrays; the single-pair functions apply the same array code to one
pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .appearance import cosine_matrix, feature_matrix
from .clustering import CANNOT_LINK
from .core import BBox, FcgConfig, Tracklet
from .geometry import box_array, box_displacement_array, extrapolate_array, iou_distance_array


@dataclass(frozen=True)
class PairContext:
    """Endpoint geometry of an ordered tracklet pair.

    `last_box_k` is the last detection of the earlier tracklet (already
    motion-extrapolated when that is enabled), `first_box_q` the first
    detection of the later one, `delta_t` the frame gap between them (>= 1).
    """

    last_box_k: BBox
    first_box_q: BBox
    delta_t: int


def _temporal_factor(delta_t, cfg: FcgConfig):
    return np.where(delta_t <= cfg.kt, 1.0, cfg.ct)


def temporal_weight(delta_t: int, cfg: FcgConfig) -> float:
    """1 within the association horizon, the harder `ct` factor beyond it."""
    if delta_t < 0:
        raise ValueError(f"delta_t must be >= 0, got {delta_t}")
    return float(_temporal_factor(delta_t, cfg))


def _spatial_factors(last_box: np.ndarray, first_box: np.ndarray, cfg: FcgConfig):
    lambda_c = np.minimum(1.0, iou_distance_array(last_box, first_box) + cfg.off)
    d_box = box_displacement_array(last_box, first_box)
    lambda_f = np.where(d_box <= cfg.kf, 1.0, cfg.cf)
    return lambda_c, lambda_f


def spatial_weights(ctx: PairContext, cfg: FcgConfig) -> tuple[float, float]:
    """(close, far) factors: overlap eases fusion, large displacement hardens it."""
    lambda_c, lambda_f = _spatial_factors(
        *box_array((ctx.last_box_k, ctx.first_box_q)), cfg
    )
    return float(lambda_c), float(lambda_f)


def _endpoints(tracklets: Sequence[Tracklet], cfg: FcgConfig):
    """Gap and endpoint boxes of every ordered pair (i, j), read as "i before j".

    Returns `before[i, j]` (i ends before j starts), the gap
    first_frame[j] - last_frame[i], i's last box (extrapolated over
    min(gap, window) frames when motion is on) and j's first box; the box
    arrays broadcast to (n, n, 4). Entries where i is not before j are
    meaningless.
    """
    first = np.array([t.first_frame for t in tracklets], dtype=np.int64)
    last = np.array([t.last_frame for t in tracklets], dtype=np.int64)
    before = last[:, None] < first[None, :]
    gap = first[None, :] - last[:, None]
    last_box = box_array(t.last.bbox for t in tracklets)[:, None, :]
    if cfg.use_motion:
        prev_box = box_array(
            t.detections[-2].bbox if len(t) >= 2 else t.last.bbox for t in tracklets
        )[:, None, :]
        last_box = extrapolate_array(prev_box, last_box, np.minimum(gap, cfg.window))
    first_box = box_array(t.first.bbox for t in tracklets)[None, :, :]
    return before, gap, last_box, first_box


def pair_context(t1: Tracklet, t2: Tracklet, cfg: FcgConfig) -> PairContext | None:
    """Order a tracklet pair in time and collect its endpoint boxes.

    Returns None when neither ordering leaves a gap (interleaved spans).
    With motion enabled the earlier tracklet's last box is extrapolated at
    its final velocity over min(delta_t, window) frames.
    """
    before, gap, last_box, first_box = _endpoints((t1, t2), cfg)
    last_box = np.broadcast_to(last_box, (2, 2, 4))
    for i, j in ((0, 1), (1, 0)):
        if before[i, j]:
            return PairContext(
                last_box_k=BBox(*last_box[i, j]),
                first_box_q=BBox(*first_box[0, j]),
                delta_t=int(gap[i, j]),
            )
    return None


def weighted_matrix(tracklets: Sequence[Tracklet], cfg: FcgConfig) -> np.ndarray:
    """Weighted distances between all tracklet pairs as a symmetric (n, n) matrix.

    Each entry is the median cosine distance, times the temporal factor when
    that is enabled, then times the product of the spatial factors when those
    are enabled. Temporally interleaved pairs, the diagonal among them, hold
    the cannot-link sentinel as a value.
    """
    dist = cosine_matrix(feature_matrix([t.median_feature for t in tracklets]))
    before, gap, last_box, first_box = _endpoints(tracklets, cfg)

    def symmetric(directed):
        # Entry (i, j) as seen from whichever of i and j comes first.
        return np.where(before, directed, directed.T)

    if cfg.use_temporal:
        dist = dist * symmetric(_temporal_factor(gap, cfg))
    if cfg.use_spatial:
        lambda_c, lambda_f = _spatial_factors(last_box, first_box, cfg)
        dist = dist * symmetric(lambda_c * lambda_f)
    return np.where(before | before.T, dist, CANNOT_LINK)


def weighted_distance(t1: Tracklet, t2: Tracklet, cfg: FcgConfig) -> float:
    """Appearance distance scaled by the enabled temporal and spatial priors.

    With every toggle off this is exactly the plain tracklet distance.
    Temporally interleaved pairs return the cannot-link sentinel.
    """
    return float(weighted_matrix((t1, t2), cfg)[0, 1])
