"""Two-stage tracking: per-window tracklet generation, then hierarchical fusion.

Stage 1 clusters detections inside consecutive non-overlapping windows of
`window` frames, with same-frame detections forbidden from sharing a tracklet.
Stage 2 repeatedly fuses adjacent lifted frames pairwise (a balanced binary
reduction) until a single lifted frame spans the sequence; its tracklets become
the final tracks. Window clusterings and same-level fusions are independent
and may run on several workers without changing the result.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from .appearance import cosine_matrix, feature_matrix
from .clustering import cluster_matrix
from .core import Detection, FcgConfig, LiftedFrame, TrackEntry, TrackSet, Tracklet, tracklet_new
from .weighting import weighted_matrix


def _map_ordered(fn, items, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _frame_overlap_mask(tracklets) -> np.ndarray:
    """(n, n) boolean matrix, True where two tracklets share a frame index.

    Built from a tracklet-by-frame incidence over the distinct frames present,
    so its size follows the detections, not the largest frame index.
    """
    frames = [np.fromiter(t.frame_set, dtype=np.int64, count=len(t.frame_set)) for t in tracklets]
    if not frames:
        return np.zeros((0, 0), dtype=bool)
    present, column = np.unique(np.concatenate(frames), return_inverse=True)
    row = np.repeat(np.arange(len(frames)), [len(f) for f in frames])
    incidence = np.zeros((len(frames), len(present)), dtype=np.float32)
    incidence[row, column] = 1.0
    return incidence @ incidence.T > 0.0


def _cluster_window(index_and_bucket, cfg: FcgConfig) -> LiftedFrame:
    n, bucket = index_and_bucket
    frames = np.array([det.frame for det in bucket], dtype=np.int64)
    partition = cluster_matrix(
        cosine_matrix(feature_matrix([det.feature for det in bucket])),
        frames[:, None] == frames[None, :],
        threshold=cfg.tracklet_threshold,
    )
    tracklets = tuple(tracklet_new([bucket[i] for i in members]) for members in partition)
    return LiftedFrame(level=1, span_start=n, span_end=n + 1, tracklets=tracklets)


def generate_tracklets(
    detections: list[Detection], cfg: FcgConfig, *, workers: int = 1
) -> list[LiftedFrame]:
    """Stage 1: one lifted frame of appearance tracklets per temporal window.

    Window n covers frames [n*window + 1, (n+1)*window]; the last window may
    be shorter. Windows without detections yield empty lifted frames.
    """
    dets = sorted(detections, key=lambda d: (d.frame, d.source_row))
    if not dets:
        return []
    num_windows = math.ceil(dets[-1].frame / cfg.window)
    buckets: list[list[Detection]] = [[] for _ in range(num_windows)]
    for det in dets:
        buckets[(det.frame - 1) // cfg.window].append(det)
    return _map_ordered(
        lambda nb: _cluster_window(nb, cfg), list(enumerate(buckets)), workers
    )


def _fuse_tracklets(union: list[Tracklet], cfg: FcgConfig) -> tuple[Tracklet, ...]:
    """Cluster tracklets under the weighted distance; one tracklet per cluster.

    Tracklets covering a common frame index can never fuse.
    """
    partition = cluster_matrix(
        weighted_matrix(union, cfg),
        _frame_overlap_mask(union),
        threshold=cfg.track_threshold,
    )
    merged = []
    for members in partition:
        dets: list[Detection] = []
        for i in members:
            dets.extend(union[i].detections)
        merged.append(tracklet_new(dets))
    return tuple(merged)


def fuse_lifted_frames(a: LiftedFrame, b: LiftedFrame, cfg: FcgConfig) -> LiftedFrame:
    """Cluster the union of two lifted frames' tracklets into one lifted frame.

    Tracklets covering a common frame index can never fuse; each output
    cluster becomes a single tracklet with its median recomputed over all
    member features.
    """
    if cfg.consecutive and a.span_end > b.span_start:
        raise ValueError(
            f"consecutive fusion requires adjacent spans, got "
            f"[{a.span_start}, {a.span_end}] then [{b.span_start}, {b.span_end}]"
        )
    return LiftedFrame(
        level=max(a.level, b.level) + 1,
        span_start=a.span_start,
        span_end=b.span_end,
        tracklets=_fuse_tracklets(list(a.tracklets) + list(b.tracklets), cfg),
    )


def _reduce_consecutive(frames: list[LiftedFrame], cfg: FcgConfig, workers: int) -> LiftedFrame:
    while len(frames) > 1:
        pairs = [
            (frames[i], frames[i + 1]) for i in range(0, len(frames) - 1, 2)
        ]
        fused = _map_ordered(
            lambda ab: fuse_lifted_frames(ab[0], ab[1], cfg), pairs, workers
        )
        if len(frames) % 2 == 1:
            # Odd trailing frame carries up a level unmerged.
            carried = frames[-1]
            fused.append(replace(carried, level=carried.level + 1))
        frames = fused
    return frames[0]


def _fuse_global(frames: list[LiftedFrame], cfg: FcgConfig) -> LiftedFrame:
    # Non-consecutive ablation: one clustering over every tracklet, with the
    # spatio-temporal weights off (they presuppose ordered, adjacent spans).
    plain = replace(cfg, use_temporal=False, use_spatial=False, use_motion=False)
    return LiftedFrame(
        level=2,
        span_start=frames[0].span_start,
        span_end=frames[-1].span_end,
        tracklets=_fuse_tracklets([t for frame in frames for t in frame.tracklets], plain),
    )


def _assign_ids(tracklets) -> TrackSet:
    ordered = sorted(tracklets, key=lambda t: (t.first_frame, t.first.source_row))
    tracks = {
        tid: tuple(TrackEntry(d.frame, d.bbox, d.score) for d in t.detections)
        for tid, t in enumerate(ordered, start=1)
    }
    return TrackSet(tracks=tracks)


def run(detections: list[Detection], cfg: FcgConfig, *, workers: int = 1) -> TrackSet:
    """Track a full sequence: tracklet generation, hierarchical fusion, IDs.

    IDs are 1..K in order of each track's first frame (ties by the first
    detection's source row). The output is deterministic for fixed inputs,
    independent of the worker count.
    """
    frames = generate_tracklets(detections, cfg, workers=workers)
    if not frames:
        return TrackSet(tracks={})
    if cfg.consecutive:
        final = _reduce_consecutive(frames, cfg, workers)
    elif len(frames) == 1:
        final = frames[0]
    else:
        final = _fuse_global(frames, cfg)
    return _assign_ids(final.tracklets)
