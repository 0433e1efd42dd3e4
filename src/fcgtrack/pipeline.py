"""Two-stage tracking: per-window tracklet generation, then hierarchical fusion.

Stage 1 clusters detections inside consecutive non-overlapping windows of
`window` frames, with same-frame detections forbidden from sharing a tracklet.
Stage 2 repeatedly fuses adjacent lifted frames pairwise (a balanced binary
reduction) until a single lifted frame spans the sequence; its tracklets become
the final tracks. The clusterings of all windows, and of all fusions of one
level, are one `clustering.cluster_batch` call, as is a single fusion. The run
is sequential: it starts no thread or process.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .appearance import cosine_matrix
from .clustering import cluster_batch
from .core import (
    DetectionColumns,
    FcgConfig,
    LiftedFrame,
    TrackSet,
    Tracklet,
    _shared_table,
)
from .weighting import weighted_matrix


def _frame_overlap_mask(tracklets) -> np.ndarray:
    """(n, n) boolean matrix, True where two tracklets share a frame index.

    Built from a tracklet-by-frame incidence over the distinct frames present,
    so its size follows the detections, not the largest frame index.
    """
    if not tracklets:
        return np.zeros((0, 0), dtype=bool)
    table, rows = _shared_table(tracklets), [t.rows for t in tracklets]
    present, column = np.unique(table.frame[np.concatenate(rows)], return_inverse=True)
    row = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
    incidence = np.zeros((len(rows), len(present)), dtype=np.float32)
    incidence[row, column] = 1.0
    return incidence @ incidence.T > 0.0


def _sorted_columns(detections: DetectionColumns) -> DetectionColumns:
    """`detections` in (frame, row) order."""
    order = np.lexsort((detections.row, detections.frame))
    if np.all(order[1:] > order[:-1]):
        return detections
    return detections.take(order)


def _window_distances(window, table: DetectionColumns):
    _, lo, hi = window
    frames = table.frame[lo:hi]
    return (
        cosine_matrix(table.feature[lo:hi].astype(np.float64)),
        frames[:, None] == frames[None, :],
    )


def _window_frame(window, table: DetectionColumns, partition) -> LiftedFrame:
    n, lo, _ = window
    # Same-frame pairs never share a cluster, so members ascend in frame.
    tracklets = tuple(
        Tracklet.from_rows(table, lo + np.array(members)) for members in partition
    )
    return LiftedFrame(span_start=n, span_end=n + 1, tracklets=tracklets)


def generate_tracklets(detections: DetectionColumns, cfg: FcgConfig) -> list[LiftedFrame]:
    """Stage 1: one lifted frame of appearance tracklets per temporal window.

    Window n covers frames [n*window + 1, (n+1)*window]; the last window may
    be shorter. Windows without detections yield empty lifted frames. Each
    window is a contiguous slice of the frame-sorted columns.
    """
    table = _sorted_columns(detections)
    if not len(table):
        return []
    num_windows = math.ceil(int(table.frame[-1]) / cfg.window)
    bounds = np.searchsorted(
        table.frame, np.arange(num_windows + 1) * cfg.window, side="right"
    ).tolist()
    windows = [(n, bounds[n], bounds[n + 1]) for n in range(num_windows)]
    partitions = cluster_batch(
        [hi - lo for _, lo, hi in windows],
        lambda k: _window_distances(windows[k], table),
        threshold=cfg.tracklet_threshold,
    )
    return [_window_frame(w, table, p) for w, p in zip(windows, partitions)]


def _fused(union: list[Tracklet], partition) -> tuple[Tracklet, ...]:
    """One tracklet per cluster of `union`.

    A cluster of one is the input tracklet itself; only merged clusters get a
    new median. A union of two or more tracklets has passed `weighted_matrix`,
    so they index one table.
    """
    merged = []
    for members in partition:
        if len(members) == 1:
            merged.append(union[members[0]])
            continue
        table = union[members[0]].columns
        joined = np.concatenate([union[i].rows for i in members])
        joined = joined[np.argsort(table.frame[joined], kind="stable")]
        merged.append(Tracklet.from_rows(table, joined))
    return tuple(merged)


def _fuse_all(unions: list[list[Tracklet]], cfg: FcgConfig) -> list[tuple[Tracklet, ...]]:
    """Cluster every union under the weighted distance in one `cluster_batch` call.

    Tracklets covering a common frame index can never fuse. Returns one
    tracklet per cluster, for each union.
    """
    partitions = cluster_batch(
        [len(u) for u in unions],
        lambda k: (weighted_matrix(unions[k], cfg), _frame_overlap_mask(unions[k])),
        threshold=cfg.track_threshold,
    )
    return [_fused(u, p) for u, p in zip(unions, partitions)]


def _lifted(a: LiftedFrame, b: LiftedFrame, tracklets) -> LiftedFrame:
    return LiftedFrame(span_start=a.span_start, span_end=b.span_end, tracklets=tracklets)


def fuse_lifted_frames(a: LiftedFrame, b: LiftedFrame, cfg: FcgConfig) -> LiftedFrame:
    """Cluster the union of two lifted frames' tracklets into one lifted frame.

    Tracklets covering a common frame index can never fuse; each output
    cluster becomes a single tracklet whose median is taken over all member
    detections' features (a cluster of one is carried over as it is).
    """
    if cfg.consecutive and a.span_end > b.span_start:
        raise ValueError(
            f"consecutive fusion requires adjacent spans, got "
            f"[{a.span_start}, {a.span_end}] then [{b.span_start}, {b.span_end}]"
        )
    (tracklets,) = _fuse_all([list(a.tracklets) + list(b.tracklets)], cfg)
    return _lifted(a, b, tracklets)


def _reduce_consecutive(frames: list[LiftedFrame], cfg: FcgConfig) -> LiftedFrame:
    # Each level clusters all of its fusions together; every fused frame
    # equals `fuse_lifted_frames` on its (adjacent) pair.
    while len(frames) > 1:
        pairs = [(frames[i], frames[i + 1]) for i in range(0, len(frames) - 1, 2)]
        merged = _fuse_all([list(a.tracklets) + list(b.tracklets) for a, b in pairs], cfg)
        fused = [_lifted(a, b, tracklets) for (a, b), tracklets in zip(pairs, merged)]
        if len(frames) % 2 == 1:
            # Odd trailing frame carries up a level unmerged.
            fused.append(frames[-1])
        frames = fused
    return frames[0]


def _fuse_global(frames: list[LiftedFrame], cfg: FcgConfig) -> LiftedFrame:
    # Non-consecutive ablation: one clustering over every tracklet, with the
    # spatio-temporal weights off (they presuppose ordered, adjacent spans).
    plain = replace(cfg, use_temporal=False, use_spatial=False, use_motion=False)
    return LiftedFrame(
        span_start=frames[0].span_start,
        span_end=frames[-1].span_end,
        tracklets=_fuse_all([[t for frame in frames for t in frame.tracklets]], plain)[0],
    )


def _assign_ids(tracklets) -> TrackSet:
    table, rows = _shared_table(tracklets), [t.rows for t in tracklets]
    first = np.array([r[0] for r in rows])
    # lexsort is stable: ties keep the final lifted frame's order.
    ordered = [rows[k] for k in np.lexsort((table.row[first], table.frame[first]))]
    index = np.concatenate(ordered)
    track_id = np.repeat(np.arange(1, len(ordered) + 1), [len(r) for r in ordered])
    return TrackSet(track_id, table.frame[index], table.box[index], table.score[index])


def run(detections: DetectionColumns, cfg: FcgConfig) -> TrackSet:
    """Track a full sequence: tracklet generation, hierarchical fusion, IDs.

    IDs are 1..K in order of each track's first frame (ties by the first
    detection's source row). The output is deterministic for fixed inputs.
    """
    frames = generate_tracklets(detections, cfg)
    if not frames:
        return TrackSet(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros((0, 4)), np.zeros(0)
        )
    if cfg.consecutive:
        final = _reduce_consecutive(frames, cfg)
    elif len(frames) == 1:
        final = frames[0]
    else:
        final = _fuse_global(frames, cfg)
    return _assign_ids(final.tracklets)
