"""Two-stage tracking on per-level arrays: per-window tracklets, then hierarchical fusion.

Stage 1 clusters detections inside consecutive non-overlapping windows of
`window` frames, with same-frame detections forbidden from sharing a tracklet;
its tracklets are the first `Level`, one lifted frame per window. Stage 2
fuses adjacent lifted frames pairwise (a balanced binary reduction), one
level into the next, until a single lifted frame spans the sequence; its
tracklets become the final tracks. All windows, and all fusions of one level,
are one `clustering.cluster_batch` call. Each of its chunks loads the stacked
cosine blocks of its windows or fusions, which (times `off` with the spatial
weights on) bound the weighted distances from below (see `weighting`): only
the pairs the cut can reach, and the blocks of linked components, are
weighed. The run is sequential: it starts no thread or process.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .clustering import cluster_batch
from .core import (
    CANNOT_LINK,
    DetectionColumns,
    FcgConfig,
    Level,
    TrackSet,
    _grouped,
    _medians,
    _ranges,
)
from .weighting import cosine_blocks, weighted_pairs


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
    window_of = (table.frame - 1) // cfg.window
    num_windows = int(window_of[-1]) + 1 if len(table) else 0
    windows = np.arange(num_windows)
    bounds = np.searchsorted(window_of, np.arange(num_windows + 1))
    # A detection's median is its feature, which `cosine_blocks` reads in float64.
    rows = np.arange(len(table))
    singles = Level.build(table, rows, rows, table.feature, windows, windows + 1, bounds)
    # Two detections are ordered in time unless they share a frame, which
    # makes them cannot-link (+inf) anyway: with the weights off the weighted
    # distance is the plain cosine distance.
    plain = replace(
        cfg, use_temporal=False, use_spatial=False, use_motion=False,
        track_threshold=cfg.tracklet_threshold,
    )
    return _fuse(singles, np.arange(num_windows + 1), np.full(num_windows, True), plain)


def _share_frame(level: Level, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """True where tracklets t[p] and u[p] of a level share a frame."""
    nodes = np.flatnonzero(np.bincount(np.concatenate([t, u])))  # the tracklets asked about
    start, end = level.offsets[nodes], level.offsets[nodes + 1]
    node = np.repeat(nodes, end - start)
    frame = level.table.frame[level.members[_ranges(start, end - start)]]
    order = np.lexsort((node, frame))
    node, frame = node[order], frame[order]
    # Pair each row with the earlier rows of its frame (a tracklet has one row a frame).
    head = np.flatnonzero(np.append(True, frame[1:] != frame[:-1]))
    rank = np.arange(len(node))
    first = head[np.searchsorted(head, rank, side="right") - 1]
    i, j = _ranges(first, rank - first), np.repeat(rank, rank - first)
    width = len(level.offsets) - 1
    return np.isin(np.minimum(t, u) * width + np.maximum(t, u), node[i] * width + node[j])


def _fuse(
    level: Level, cuts: np.ndarray, clustered: np.ndarray, cfg: FcgConfig, medians: bool = True
) -> Level:
    """The next level: lifted frames cuts[g]..cuts[g+1]-1 of `level` fused into frame g.

    Where `clustered[g]` their tracklets are clustered under the weighted
    distance, all in one `cluster_batch` call; tracklets sharing a frame
    never fuse. Each cluster becomes a tracklet, with the median of all its
    detections, or, unless `medians`, no median: the level's `median` is
    empty. Other runs are carried over as they are.
    """
    lo, hi = level.bounds[cuts[:-1]], level.bounds[cuts[1:]]
    runs = np.flatnonzero(clustered)
    run_lo, run_n = lo[runs], (hi - lo)[runs]

    def load(group):
        lo = run_lo[group]
        cos = cosine_blocks(level, lo, run_n[group])

        def pairs(k, i, j):
            t, u = lo[k] + i, lo[k] + j
            dist = weighted_pairs(level, cos[k, i, j], t, u, cfg)
            # Only a pair not ordered in time, which holds the sentinel, can share a frame:
            # such a pair is cannot-link, +inf.
            far = np.flatnonzero(dist >= CANNOT_LINK)
            if len(far):
                dist[far[_share_frame(level, t[far], u[far])]] = np.inf
            return dist

        return (cos * cfg.off if cfg.use_spatial else cos), pairs

    # Each tracklet's cluster root, its smallest member; tracklets outside
    # the clustered runs are their own. The roots, ascending, order the next
    # level's tracklets: by frame, then by smallest member.
    root = np.arange(len(level.offsets) - 1)
    root[_ranges(run_lo, run_n)] = (
        cluster_batch(run_n.tolist(), load, threshold=cfg.track_threshold)
        + np.repeat(run_lo, run_n)
    )
    head = root == np.arange(len(root))
    cluster = (np.cumsum(head) - 1)[root]
    count = int(head.sum())
    label = cluster[level.label]
    members, offsets = _grouped(level.order, label, count)
    median = np.empty((count if medians else 0, level.median.shape[1]))
    if medians:
        single = np.bincount(cluster, minlength=count) == 1
        median[single] = level.median[np.flatnonzero(head)[single]]
        merged = np.flatnonzero(~single)
        median[merged] = _medians(level.table.feature, members, offsets, merged)
    return replace(
        level, label=label, members=members, offsets=offsets, median=median,
        span_start=level.span_start[cuts[:-1]], span_end=level.span_end[cuts[1:] - 1],
        bounds=np.append(0, np.cumsum(head))[level.bounds[cuts]],
    )


def _reduce_consecutive(level: Level, cfg: FcgConfig) -> Level:
    # Each level fuses frames 2i and 2i+1; an odd trailing frame carries up
    # a level unmerged. Every fused frame equals `_fuse` of its pair alone.
    # Only a level that is fused again gets medians: `_assign_ids` reads none.
    while len(level) > 1:
        cuts = np.append(np.arange(0, len(level), 2), len(level))
        level = _fuse(level, cuts, np.diff(cuts) == 2, cfg, len(cuts) > 2)
    return level


def _fuse_global(level: Level, cfg: FcgConfig) -> Level:
    # Non-consecutive ablation: one clustering over every tracklet, with the
    # spatio-temporal weights off (they presuppose ordered, adjacent spans).
    # Its level is final, so it gets no medians.
    plain = replace(cfg, use_temporal=False, use_spatial=False, use_motion=False)
    return _fuse(level, np.array([0, len(level)]), [True], plain, False)


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
