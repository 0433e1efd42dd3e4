"""Bounding-box distances and constant-velocity extrapolation.

The array forms take boxes as (..., 4) arrays of (left, top, width, height)
and broadcast like any NumPy operation; the `BBox` forms apply them to one
pair.
"""

from __future__ import annotations

import numpy as np

from .core import BBox

# Extrapolated boxes never shrink below one pixel per side.
MIN_EXTRAPOLATED_SIZE = 1.0


def box_array(boxes) -> np.ndarray:
    """(n, 4) array of (x, y, w, h) rows from an iterable of boxes."""
    return np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)


def _sides(boxes: np.ndarray):
    return boxes[..., 0], boxes[..., 1], boxes[..., 2], boxes[..., 3]


def iou_distance_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1 - IoU of boxes; 0 for identical boxes, 1 for disjoint ones."""
    ax, ay, aw, ah = _sides(a)
    bx, by, bw, bh = _sides(b)
    iw = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
    ih = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
    overlap = (iw > 0.0) & (ih > 0.0)
    inter = np.where(overlap, iw * ih, 0.0)
    union = aw * ah + bw * bh - inter
    return np.where(overlap, 1.0 - inter / union, 1.0)


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


def iou_distance(a: BBox, b: BBox) -> float:
    """1 - IoU of two boxes; 0 for identical boxes, 1 for disjoint ones."""
    return float(iou_distance_array(*box_array((a, b))))


def box_displacement(a: BBox, b: BBox) -> float:
    """`box_displacement_array` of two boxes, in box-size units."""
    return float(box_displacement_array(*box_array((a, b))))


def extrapolate(prev: BBox, curr: BBox, steps: int) -> BBox:
    """Extrapolate `curr` by `steps` frames; with prev == curr the result equals curr."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return BBox(*extrapolate_array(*box_array((prev, curr)), steps))
