"""Two-stage tracking on per-level arrays: per-window tracklets, then hierarchical fusion.

Stage 1 clusters detections inside consecutive non-overlapping windows of
`window` frames, with same-frame detections forbidden from sharing a tracklet;
its tracklets are the first `Level`, one lifted frame per window. Stage 2
fuses adjacent lifted frames pairwise (a balanced binary reduction), one
level into the next, until a single lifted frame spans the sequence; its
tracklets become the final tracks. A level is `table`, the detections sorted
by (frame, row), its tracklets' rows (`members`, `offsets`) and `median`, and
its lifted frames' tracklets (`bounds`). Tracklets are numbered by first row,
a rule each fusion keeps, so the final ones are in track ID order. All
windows, and all fusions of one level, are one `clustering.cluster_batch`
call, whose chunks `weighting.fusion_load` loads: it decides every pair's
distance, and only the pairs the cut can reach, and the blocks of linked
components, are weighed. The run is sequential: it starts no thread or
process.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .clustering import cluster_batch
from .core import DetectionColumns, FcgConfig, Level, TrackSet, _grouped, _medians, _ranges
from .weighting import fusion_load


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
    bounds = np.searchsorted(window_of, np.arange(num_windows + 1))
    # A detection's median is its feature, which `fusion_load` reads in float64.
    singles = Level(table, np.arange(len(table)), np.arange(len(table) + 1), table.feature, bounds)
    # Two detections are ordered in time unless they share a frame, which
    # makes them cannot-link (+inf) anyway: with the weights off the weighted
    # distance is the plain cosine distance.
    plain = replace(
        cfg, use_temporal=False, use_spatial=False, use_motion=False,
        track_threshold=cfg.tracklet_threshold,
    )
    return _fuse(singles, np.arange(num_windows + 1), np.full(num_windows, True), plain)


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

    # Each tracklet's cluster root, its smallest member; tracklets outside
    # the clustered runs are their own. The roots, ascending, order the next
    # level's tracklets: as tracklets are numbered by first row, so are clusters.
    root = np.arange(len(level.offsets) - 1)
    root[_ranges(run_lo, run_n)] = (
        cluster_batch(
            run_n.tolist(),
            lambda group: fusion_load(level, run_lo[group], run_n[group], cfg),
            threshold=cfg.track_threshold,
        )
        + np.repeat(run_lo, run_n)
    )
    head = root == np.arange(len(root))
    cluster = (np.cumsum(head) - 1)[root]
    count = int(head.sum())
    label = np.repeat(cluster, np.diff(level.offsets))
    members, offsets = _grouped(level.members, label, count, len(level.table))
    median = np.empty((count if medians else 0, level.median.shape[1]))
    if medians:
        single = np.bincount(cluster, minlength=count) == 1
        median[single] = level.median[np.flatnonzero(head)[single]]
        merged = np.flatnonzero(~single)
        median[merged] = _medians(level.table.feature, members, offsets, merged)
    return Level(
        level.table, members, offsets, median, np.append(0, np.cumsum(head))[level.bounds[cuts]]
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
    # Tracklets are numbered by first row, over a table sorted by (frame, row).
    table, index, sizes = level.table, level.members, np.diff(level.offsets)
    track_id = np.repeat(np.arange(1, len(sizes) + 1), sizes)
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
