"""Two-stage tracking on per-level arrays: per-window tracklets, then hierarchical fusion.

Stage 1 clusters detections inside consecutive non-overlapping windows of
`window` frames, with same-frame detections forbidden from sharing a tracklet;
its tracklets are the first `Level`, one lifted frame per window. Stage 2
fuses adjacent lifted frames pairwise (a balanced binary reduction), one
level into the next, until a single lifted frame spans the sequence; its
tracklets become the final tracks. All windows, and all fusions of one level,
are one `clustering.cluster_batch` call, whose chunks load stacked tensors: a
cosine matrix per window or fusion, the weights from the level's endpoint
arrays and the cannot-link masks from the frames of the chunk's own rows. The
run is sequential: it starts no thread or process.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .clustering import cluster_batch
from .core import (
    DetectionColumns,
    FcgConfig,
    Level,
    LiftedFrame,
    TrackSet,
    _grouped,
    _medians,
    _ranges,
    level_of,
)
from .weighting import weighted_blocks


def _sorted_columns(detections: DetectionColumns) -> DetectionColumns:
    """`detections` in (frame, row) order."""
    order = np.lexsort((detections.row, detections.frame))
    if np.all(order[1:] > order[:-1]):
        return detections
    return detections.take(order)


def generate_tracklets(detections: DetectionColumns, cfg: FcgConfig) -> Level:
    """Stage 1: the first level, one lifted frame of appearance tracklets per temporal window.

    Window n covers frames [n*window + 1, (n+1)*window]; the last may be
    shorter, and one without detections is an empty lifted frame. A window's
    detections start as tracklets of one and fuse under the cosine distance.
    """
    table = _sorted_columns(detections)
    num_windows = math.ceil(int(table.frame[-1]) / cfg.window) if len(table) else 0
    windows = np.arange(num_windows)
    bounds = np.searchsorted(table.frame, np.append(windows, num_windows) * cfg.window, "right")
    # A detection's median is its feature, which `weighted_blocks` reads in float64.
    rows = np.arange(len(table))
    singles = Level.build(table, rows, rows, table.feature, windows, windows + 1, bounds)
    # Two detections are ordered in time unless they share a frame, which the
    # cannot-link mask forbids anyway: with the weights off the weighted
    # distance is the plain cosine distance.
    plain = replace(
        cfg, use_temporal=False, use_spatial=False, use_motion=False,
        track_threshold=cfg.tracklet_threshold,
    )
    return _fuse(singles, np.arange(num_windows + 1), np.full(num_windows, True), plain)


def _overlap(level: Level, lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Stacked cannot-link masks of ascending, disjoint tracklet ranges (as
    `weighted_blocks`): True where two tracklets of a range share a frame."""
    # The ranges' rows (positions in `members`), each with its range and local tracklet.
    start, end = level.offsets[lo], level.offsets[lo + n]
    at = _ranges(start, end - start)
    k = np.repeat(np.arange(len(n)), end - start)
    t = np.searchsorted(level.offsets, at, side="right") - 1 - lo[k]
    frame = level.table.frame[level.members[at]]
    order = np.lexsort((frame, k))
    k, t, frame = k[order], t[order], frame[order]
    # Pair each row with the earlier rows of its range and frame, from the first on.
    rank = np.arange(len(k))
    head = np.ones(len(k), dtype=bool)
    head[1:] = (k[1:] != k[:-1]) | (frame[1:] != frame[:-1])
    first = np.flatnonzero(head)[np.cumsum(head) - 1]
    i, j = _ranges(first, rank - first), np.repeat(rank, rank - first)
    m = int(n.max())
    mask = np.zeros((len(n), m, m), dtype=bool)
    mask[k[j], t[i], t[j]] = True
    mask |= mask.transpose(0, 2, 1)
    return mask


def _fuse(level: Level, cuts: np.ndarray, clustered: np.ndarray, cfg: FcgConfig) -> Level:
    """The next level: lifted frames cuts[g]..cuts[g+1]-1 of `level` fused into frame g.

    Where `clustered[g]` their tracklets are clustered under the weighted
    distance, all in one `cluster_batch` call; tracklets sharing a frame
    never fuse. Each cluster becomes a tracklet, with the median of all its
    detections. Other runs are carried over as they are.
    """
    lo, hi = level.bounds[cuts[:-1]], level.bounds[cuts[1:]]
    runs = np.flatnonzero(clustered)
    run_lo, run_n = lo[runs], (hi - lo)[runs]

    def load(group):
        return (
            weighted_blocks(level, run_lo[group], run_n[group], cfg),
            _overlap(level, run_lo[group], run_n[group]),
        )

    # Each tracklet's cluster root, its smallest member; tracklets outside
    # the clustered runs are their own. The roots, ascending, order the next
    # level's tracklets: by frame, then by smallest member.
    root = np.arange(len(level.median))
    root[_ranges(run_lo, run_n)] = (
        cluster_batch(run_n.tolist(), load, threshold=cfg.track_threshold)
        + np.repeat(run_lo, run_n)
    )
    head = root == np.arange(len(root))
    cluster = (np.cumsum(head) - 1)[root]
    count = int(head.sum())
    label = cluster[level.label]
    members, offsets = _grouped(level.order, label, count)
    median = np.empty((count, level.median.shape[1]))
    single = np.bincount(cluster, minlength=count) == 1
    median[single] = level.median[np.flatnonzero(head)[single]]
    merged = np.flatnonzero(~single)
    median[merged] = _medians(level.table.feature, members, offsets, merged)
    return replace(
        level, label=label, members=members, offsets=offsets, median=median,
        span_start=level.span_start[cuts[:-1]], span_end=level.span_end[cuts[1:] - 1],
        bounds=np.append(0, np.cumsum(head))[level.bounds[cuts]],
    )


def fuse_lifted_frames(a: LiftedFrame, b: LiftedFrame, cfg: FcgConfig) -> LiftedFrame:
    """Cluster the union of two lifted frames' tracklets into one lifted frame.

    The one-fusion form of a level step (`_fuse`): tracklets sharing a frame
    never fuse, and each cluster becomes a tracklet with the median of all
    its detections.
    """
    if cfg.consecutive and a.span_end > b.span_start:
        raise ValueError(
            f"consecutive fusion requires adjacent spans, got "
            f"[{a.span_start}, {a.span_end}] then [{b.span_start}, {b.span_end}]"
        )
    if not (a.tracklets or b.tracklets):
        return LiftedFrame(a.span_start, b.span_end, ())
    return _fuse(level_of([a, b]), np.array([0, 2]), [True], cfg)[0]


def _reduce_consecutive(level: Level, cfg: FcgConfig) -> Level:
    # Each level fuses frames 2i and 2i+1; an odd trailing frame carries up
    # a level unmerged. Every fused frame equals `fuse_lifted_frames` on its
    # (adjacent) pair.
    while len(level) > 1:
        cuts = np.append(np.arange(0, len(level), 2), len(level))
        level = _fuse(level, cuts, np.diff(cuts) == 2, cfg)
    return level


def _fuse_global(level: Level, cfg: FcgConfig) -> Level:
    # Non-consecutive ablation: one clustering over every tracklet, with the
    # spatio-temporal weights off (they presuppose ordered, adjacent spans).
    plain = replace(cfg, use_temporal=False, use_spatial=False, use_motion=False)
    return _fuse(level, np.array([0, len(level)]), [True], plain)


def _assign_ids(level: Level) -> TrackSet:
    table, sizes, first = level.table, np.diff(level.offsets), level.members[level.offsets[:-1]]
    # lexsort is stable: ties keep the final lifted frame's order.
    ordered = np.lexsort((table.row[first], table.frame[first]))
    index = level.members[_ranges(level.offsets[ordered], sizes[ordered])]
    track_id = np.repeat(np.arange(1, len(ordered) + 1), sizes[ordered])
    return TrackSet(track_id, table.frame[index], table.box[index], table.score[index])


def run(detections: DetectionColumns, cfg: FcgConfig) -> TrackSet:
    """Track a full sequence: tracklet generation, hierarchical fusion, IDs.

    IDs are 1..K in order of each track's first frame (ties by the first
    detection's source row). The output is deterministic for fixed inputs.
    """
    level = generate_tracklets(detections, cfg)
    if len(level) > 1:
        level = _reduce_consecutive(level, cfg) if cfg.consecutive else _fuse_global(level, cfg)
    return _assign_ids(level)
