"""Bounding-box distances and constant-velocity extrapolation.

Boxes are (..., 4) arrays of (left, top, width, height); every function
broadcasts like any NumPy operation.
"""

from __future__ import annotations

import numpy as np

# Extrapolated boxes never shrink below one pixel per side.
MIN_EXTRAPOLATED_SIZE = 1.0


def _sides(boxes: np.ndarray):
    return boxes[..., 0], boxes[..., 1], boxes[..., 2], boxes[..., 3]


def iou_distance_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1 - IoU of boxes, clamped into [0, 1] against rounding; 0 if identical, 1 if disjoint."""
    ax, ay, aw, ah = _sides(a)
    bx, by, bw, bh = _sides(b)
    iw = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
    ih = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
    overlap = (iw > 0.0) & (ih > 0.0)
    inter = np.where(overlap, iw * ih, 0.0)
    union = aw * ah + bw * bh - inter
    return np.clip(np.where(overlap, 1.0 - inter / union, 1.0), 0.0, 1.0)


def box_displacement_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean distance between corresponding corners, scaled by average box size.

    The left-top and right-bottom corner offsets are each normalized by the
    mean width (x) and mean height (y) of the two boxes, so the result is
    measured in box-size units rather than pixels.
    """
    ax, ay, aw, ah = _sides(a)
    bx, by, bw, bh = _sides(b)
    mean_w = (aw + bw) / 2.0
    mean_h = (ah + bh) / 2.0
    d1 = np.hypot((ax - bx) / mean_w, (ay - by) / mean_h)
    d2 = np.hypot(((ax + aw) - (bx + bw)) / mean_w, ((ay + ah) - (by + bh)) / mean_h)
    return (d1 + d2) / 2.0


def extrapolate_array(prev: np.ndarray, curr: np.ndarray, steps) -> np.ndarray:
    """Displace `curr` by `steps` times the per-frame delta from `prev` to `curr`.

    Position and size are both extrapolated linearly; sizes are clamped to
    MIN_EXTRAPOLATED_SIZE. `steps` broadcasts against the box planes.
    """
    px, py, pw, ph = _sides(prev)
    cx, cy, cw, ch = _sides(curr)
    return np.stack(
        [
            cx + steps * (cx - px),
            cy + steps * (cy - py),
            np.maximum(cw + steps * (cw - pw), MIN_EXTRAPOLATED_SIZE),
            np.maximum(ch + steps * (ch - ph), MIN_EXTRAPOLATED_SIZE),
        ],
        axis=-1,
    )

