"""Identity metrics: IDF1 and ID-switch count against ground truth."""

from __future__ import annotations

from itertools import groupby

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import TrackSet
from .geometry import iou_distance_array

# GT entries per array call in `_matches`; bounds the pair arrays in crowds.
_GT_BLOCK = 1024


def _by_frame(tracks: TrackSet):
    """Frames, track IDs and an (n, 4) box array of all entries, by (frame, ID)."""
    cols = tracks.columns
    order = np.lexsort((cols.track_id, cols.frame))
    return cols.frame[order], cols.track_id[order], cols.box[order]


def _matches(gt: TrackSet, pred: TrackSet, iou_threshold: float):
    """Same-frame box pairs with IoU >= iou_threshold, ascending by frame.

    Returns parallel arrays: frame, GT ID, predicted ID and IoU. The IoUs
    are computed by array calls over blocks of GT entries, each paired with
    every prediction in its frame.
    """
    gt_frame, gt_id, gt_box = _by_frame(gt)
    pred_frame, pred_id, pred_box = _by_frame(pred)
    lo = np.searchsorted(pred_frame, gt_frame, side="left")
    count = np.searchsorted(pred_frame, gt_frame, side="right") - lo
    blocks = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))]
    for start in range(0, len(gt_frame), _GT_BLOCK):
        n = count[start : start + _GT_BLOCK]
        g = np.repeat(np.arange(start, start + len(n)), n)
        p = lo[g] + np.arange(len(g)) - np.repeat(np.cumsum(n) - n, n)
        iou = 1.0 - iou_distance_array(gt_box[g], pred_box[p])
        keep = iou >= iou_threshold
        blocks.append((g[keep], p[keep], iou[keep]))
    g, p, iou = (np.concatenate(parts) for parts in zip(*blocks))
    return gt_frame[g], gt_id[g], pred_id[p], iou


def idf1(gt: TrackSet, pred: TrackSet, iou_threshold: float = 0.5) -> float:
    """Identity F1 under the best global one-to-one GT-to-prediction ID mapping.

    A (gt, pred) pairing counts at a frame when both boxes exist there with
    IoU >= iou_threshold; the assignment maximizing the total matched frames
    defines IDTP. Returns 1.0 when both track sets are empty.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    total_gt = gt.num_boxes
    total_pred = pred.num_boxes
    if total_gt == 0 and total_pred == 0:
        return 1.0
    if total_gt == 0 or total_pred == 0:
        return 0.0

    _, gids, pids, _ = _matches(gt, pred, iou_threshold)
    if not len(gids):
        return 0.0
    gt_ids = np.unique(gt.columns.track_id)
    pred_ids = np.unique(pred.columns.track_id)
    matrix = np.zeros((len(gt_ids), len(pred_ids)), dtype=np.int64)
    np.add.at(matrix, (np.searchsorted(gt_ids, gids), np.searchsorted(pred_ids, pids)), 1)
    rows, cols = linear_sum_assignment(matrix, maximize=True)
    idtp = int(matrix[rows, cols].sum())
    return 2.0 * idtp / (total_gt + total_pred)


def id_switches(gt: TrackSet, pred: TrackSet, iou_threshold: float = 0.5) -> int:
    """Count frames where a GT identity's matched predicted ID changes.

    Per frame, predictions are matched to GT greedily by descending IoU
    (one-to-one, IoU >= iou_threshold, ties toward the lower predicted ID);
    a switch is counted whenever a GT identity's match differs from its most
    recent previous match.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    last_match: dict[int, int] = {}
    switches = 0
    frames, gids, pids, ious = (a.tolist() for a in _matches(gt, pred, iou_threshold))
    for _, pairs in groupby(zip(frames, gids, pids, ious), key=lambda m: m[0]):
        candidates = sorted((-iou, pid, gid) for _, gid, pid, iou in pairs)
        used_gt: set[int] = set()
        used_pred: set[int] = set()
        for _, pid, gid in candidates:
            if gid in used_gt or pid in used_pred:
                continue
            used_gt.add(gid)
            used_pred.add(pid)
            if gid in last_match and last_match[gid] != pid:
                switches += 1
            last_match[gid] = pid
    return switches
