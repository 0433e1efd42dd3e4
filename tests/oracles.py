"""Independent brute-force references the production code is checked against."""

from __future__ import annotations

import heapq
import itertools
import math
from collections import defaultdict

import numpy as np

SENTINEL = 1.0e6


def brute_force_partition(n, square, cannot_pairs, threshold, sentinel=SENTINEL):
    """Constrained average-linkage clustering by direct recomputation.

    Inter-cluster distance is recomputed each round as the mean of the
    original matrix entries over all member pairs (sentinel if any member
    pair is forbidden). Merges the minimum-distance admissible pair, ties
    toward the lexicographically smallest pair of creation-order indices,
    while that minimum stays within the threshold. O(n^3) overall.
    """
    square = np.asarray(square, dtype=float)
    forbid = np.zeros((n, n), dtype=bool)
    for a, b in cannot_pairs:
        forbid[a, b] = forbid[b, a] = True

    clusters = {i: [i] for i in range(n)}
    next_id = n

    def dist(a, b):
        ma, mb = clusters[a], clusters[b]
        if forbid[np.ix_(ma, mb)].any():
            return sentinel
        return float(square[np.ix_(ma, mb)].mean())

    pair_dist = {
        (a, b): dist(a, b) for a, b in itertools.combinations(sorted(clusters), 2)
    }
    while len(clusters) > 1 and pair_dist:
        (a, b), d = min(pair_dist.items(), key=lambda kv: (kv[1], kv[0]))
        if d >= sentinel or d > threshold:
            break
        members = clusters.pop(a) + clusters.pop(b)
        pair_dist = {
            pair: v for pair, v in pair_dist.items() if a not in pair and b not in pair
        }
        clusters[next_id] = members
        for other in sorted(clusters):
            if other != next_id:
                pair_dist[(other, next_id)] = dist(other, next_id)
        next_id += 1
    return sorted((sorted(m) for m in clusters.values()), key=lambda c: c[0])


def median_by_sorting(features):
    """Element-wise median via per-component sorting (mean of middles when even)."""
    rows = [list(f) for f in features]
    dim = len(rows[0])
    out = []
    for c in range(dim):
        col = sorted(row[c] for row in rows)
        mid = len(col) // 2
        if len(col) % 2 == 1:
            out.append(col[mid])
        else:
            out.append((col[mid - 1] + col[mid]) / 2.0)
    return out


def box_iou(a, b):
    """IoU from raw corner arithmetic, independent of the geometry module."""
    ax2, ay2 = a.x + a.w, a.y + a.h
    bx2, by2 = b.x + b.w, b.y + b.h
    iw = min(ax2, bx2) - max(a.x, b.x)
    ih = min(ay2, by2) - max(a.y, b.y)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.w * a.h + b.w * b.h - inter)


def brute_force_idf1(gt, pred, iou_threshold=0.5):
    """IDF1 by exhaustive search over injective GT-to-prediction ID mappings.

    Only usable for a handful of IDs; counts feasible frames per ID pair from
    scratch and maximizes the total over every partial one-to-one mapping.
    """
    total_gt = sum(len(v) for v in gt.tracks.values())
    total_pred = sum(len(v) for v in pred.tracks.values())
    if total_gt == 0 and total_pred == 0:
        return 1.0
    if total_gt == 0 or total_pred == 0:
        return 0.0

    counts = {}
    for gid, gentries in gt.tracks.items():
        gmap = {e.frame: e.bbox for e in gentries}
        for pid, pentries in pred.tracks.items():
            c = 0
            for e in pentries:
                gbox = gmap.get(e.frame)
                if gbox is not None and box_iou(gbox, e.bbox) >= iou_threshold:
                    c += 1
            if c:
                counts[(gid, pid)] = c

    gt_ids = sorted(gt.tracks)
    pred_ids = sorted(pred.tracks)
    best = 0
    max_r = min(len(gt_ids), len(pred_ids))
    for r in range(1, max_r + 1):
        for gsub in itertools.combinations(gt_ids, r):
            for psub in itertools.permutations(pred_ids, r):
                total = sum(counts.get((g, p), 0) for g, p in zip(gsub, psub))
                best = max(best, total)
    return 2.0 * best / (total_gt + total_pred)


def heap_linkage(square, cannot_pairs=(), sentinel=SENTINEL):
    """Dict-and-heap constrained average linkage, merge by merge.

    The production algorithm before the array core: a heap of (distance,
    a, b) entries over creation-order cluster indices with lazy deletion, the
    size-weighted update d(K+L, M) = (|K| d(K, M) + |L| d(L, M)) / (|K| + |L|)
    and cannot-link partners inherited by every merged cluster. Reads the
    upper triangle of `square`. Returns (a, b, height, size) per merge.
    """
    square = np.asarray(square, dtype=float)
    n = square.shape[0]
    size = {i: 1 for i in range(n)}
    partners = defaultdict(set)
    for a, b in cannot_pairs:
        partners[a].add(b)
        partners[b].add(a)

    dist = {}
    heap = []
    for i in range(n):
        for j in range(i + 1, n):
            d = sentinel if j in partners[i] else float(square[i, j])
            dist[(i, j)] = d
            heap.append((d, i, j))
    heapq.heapify(heap)

    active = set(range(n))
    merges = []
    while heap:
        d, a, b = heapq.heappop(heap)
        if a not in active or b not in active:
            continue
        if d >= sentinel:
            break
        new = n + len(merges)
        active.discard(a)
        active.discard(b)
        size[new] = size[a] + size[b]
        merges.append((a, b, d, size[new]))

        inherited = partners[a] | partners[b]
        partners[new] = inherited
        for p in inherited:
            partners[p].add(new)

        for m in active:
            if m in inherited:
                dm = sentinel
            else:
                key_a = (m, a) if m < a else (a, m)
                key_b = (m, b) if m < b else (b, m)
                dm = (size[a] * dist[key_a] + size[b] * dist[key_b]) / size[new]
            dist[(m, new)] = dm
            heapq.heappush(heap, (dm, m, new))
        active.add(new)
    return merges


def scalar_cosine(h1, h2):
    """1 - cos of two vectors from per-pair dot products, clamped to [0, 2]."""
    h1 = np.asarray(h1, dtype=np.float64)
    h2 = np.asarray(h2, dtype=np.float64)
    s1 = float(np.dot(h1, h1))
    s2 = float(np.dot(h2, h2))
    d = 1.0 - float(np.dot(h1, h2)) / math.sqrt(s1 * s2)
    return min(2.0, max(0.0, d))


def _corners(box):
    return box.x, box.y, box.x + box.w, box.y + box.h


def scalar_iou_distance(a, b):
    ax1, ay1, ax2, ay2 = _corners(a)
    bx1, by1, bx2, by2 = _corners(b)
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 1.0
    inter = iw * ih
    return 1.0 - inter / (a.w * a.h + b.w * b.h - inter)


def scalar_box_displacement(a, b):
    ax1, ay1, ax2, ay2 = _corners(a)
    bx1, by1, bx2, by2 = _corners(b)
    mean_w = (a.w + b.w) / 2.0
    mean_h = (a.h + b.h) / 2.0
    d1 = math.hypot((ax1 - bx1) / mean_w, (ay1 - by1) / mean_h)
    d2 = math.hypot((ax2 - bx2) / mean_w, (ay2 - by2) / mean_h)
    return (d1 + d2) / 2.0


def scalar_weighted_distance(t1, t2, cfg, sentinel=SENTINEL):
    """Per-pair weighted tracklet distance, one Python call per pair.

    Orders the pair in time (interleaved spans give the sentinel), scales the
    median cosine distance by the temporal factor, then by the product of the
    overlap and displacement factors, comparing the earlier tracklet's last
    box (extrapolated at its final velocity when motion is on) with the later
    one's first box. Boxes are (x, y, w, h) tuples.
    """
    if t1.last_frame < t2.first_frame:
        early, late = t1, t2
    elif t2.last_frame < t1.first_frame:
        early, late = t2, t1
    else:
        return sentinel
    delta_t = late.first_frame - early.last_frame
    d = scalar_cosine(t1.median_feature, t2.median_feature)
    if cfg.use_temporal:
        d *= 1.0 if delta_t <= cfg.kt else cfg.ct
    if cfg.use_spatial:
        last = early.last.bbox
        if cfg.use_motion:
            prev = early.detections[-2].bbox if len(early.detections) >= 2 else last
            k = min(delta_t, cfg.window)
            last = type(last)(
                x=last.x + k * (last.x - prev.x),
                y=last.y + k * (last.y - prev.y),
                w=max(last.w + k * (last.w - prev.w), 1.0),
                h=max(last.h + k * (last.h - prev.h), 1.0),
            )
        first = late.first.bbox
        lambda_c = min(1.0, scalar_iou_distance(last, first) + cfg.off)
        lambda_f = 1.0 if scalar_box_displacement(last, first) <= cfg.kf else cfg.cf
        d *= lambda_c * lambda_f
    return d


def per_pair_id_switches(gt, pred, iou_threshold=0.5):
    """ID switches with one IoU call per same-frame box pair.

    Per frame, predictions are matched to GT greedily by descending IoU
    (one-to-one, ties toward the lower predicted ID); a switch is counted
    whenever a GT identity's match differs from its previous match.
    """
    def by_frame(tracks):
        frames = defaultdict(list)
        for tid in sorted(tracks.tracks):
            for e in tracks.tracks[tid]:
                frames[e.frame].append((tid, e.bbox))
        return frames

    gt_frames, pred_frames = by_frame(gt), by_frame(pred)
    last_match = {}
    switches = 0
    for frame in sorted(gt_frames):
        candidates = []
        for gid, gbox in gt_frames[frame]:
            for pid, pbox in pred_frames.get(frame, ()):
                iou = 1.0 - scalar_iou_distance(gbox, pbox)
                if iou >= iou_threshold:
                    candidates.append((-iou, pid, gid))
        used_gt, used_pred = set(), set()
        for _, pid, gid in sorted(candidates):
            if gid in used_gt or pid in used_pred:
                continue
            used_gt.add(gid)
            used_pred.add(pid)
            if gid in last_match and last_match[gid] != pid:
                switches += 1
            last_match[gid] = pid
    return switches
