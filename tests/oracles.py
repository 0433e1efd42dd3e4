"""Independent brute-force references the production code is checked against,
and the builders and one-pair forms the tests construct and read values with."""

from __future__ import annotations

import heapq
import itertools
import math
from collections import defaultdict, namedtuple

import numpy as np

from fcgtrack.appearance import cosine_matrix
from fcgtrack.clustering import dense
from fcgtrack.core import CANNOT_LINK, DetectionColumns, Level, TrackSet, _medians, _ranges
from fcgtrack.geometry import box_displacement_array, extrapolate_array, iou_distance_array
from fcgtrack.metrics import _GT_BLOCK, _by_frame
from fcgtrack.pipeline import _fuse
from fcgtrack.weighting import _spatial_factors, _temporal_factor, weighted_pairs

SENTINEL = 1.0e6
# A box (left, top, width, height) with named sides.
Box = namedtuple("Box", "x y w h")
# One box of a track, as `track_entries` lists them.
Entry = namedtuple("Entry", "frame bbox score")
# Box, score and source row of a row tuple that leaves them out.
_ROW_DEFAULTS = ((0.0, 0.0, 10.0, 10.0), 1.0, -1)


def columns(rows, dim=0):
    """`DetectionColumns` of (frame, feature[, box[, score[, row]]]) tuples, in order.

    Left-out trailing fields take `_ROW_DEFAULTS`; with no rows the feature
    width is `dim`. Nothing is validated.
    """
    rows = [(*r, *_ROW_DEFAULTS[len(r) - 2 :]) for r in rows]
    frame, feature, box, score, row = zip(*rows) if rows else ((),) * 5
    return DetectionColumns(
        frame=np.array(frame, dtype=np.int64),
        box=np.array(box, dtype=np.float64).reshape(-1, 4),
        score=np.array(score, dtype=np.float64),
        row=np.array(row, dtype=np.int64),
        feature=np.array(feature, dtype=np.float64) if rows else np.zeros((0, dim)),
    )


def build_level(*frames):
    """`Level` whose lifted frame f holds one tracklet per group of `columns` row tuples in
    frames[f], in the order given.

    One table, sorted by (frame, row) as the pipeline's is, holds every group's rows; a
    tracklet's median is `_medians` of its rows.
    """
    groups = [group for frame in frames for group in frame]
    given = columns([r for group in groups for r in group])
    order = np.lexsort((given.row, given.frame))
    table = given.take(order)
    sizes = [len(group) for group in groups]
    # A stable sort of the table's rows by group: each group's rows, ascending.
    members = np.argsort(np.repeat(np.arange(len(groups)), sizes)[order], kind="stable")
    offsets = np.cumsum([0, *sizes])
    median = _medians(table.feature, members, offsets, np.arange(len(groups)))
    return Level(table, members, offsets, median, np.cumsum([0, *map(len, frames)]))


def frames_of(level, lo, hi):
    """The level of lifted frames lo..hi-1 of `level`, over its table."""
    t0, t1 = level.bounds[lo], level.bounds[hi]
    offsets = level.offsets[t0 : t1 + 1]
    return Level(
        level.table, level.members[offsets[0] : offsets[-1]], offsets - offsets[0],
        level.median[t0:t1], level.bounds[lo : hi + 1] - t0,
    )


def fuse_all(level, cfg):
    """A single fusion: every lifted frame of `level` clustered into one (`pipeline._fuse`)."""
    return _fuse(level, np.array([0, len(level)]), np.array([True]), cfg)


def tracklet_rows(level):
    """Each tracklet's table rows, in frame order, as lists."""
    members, offsets = level.members.tolist(), level.offsets.tolist()
    return [members[a:b] for a, b in zip(offsets, offsets[1:])]


def frame_rows(level):
    """Each lifted frame's `tracklet_rows`."""
    rows, bounds = tracklet_rows(level), level.bounds.tolist()
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


def tracklet_frames(level, t):
    """The frames of tracklet t's detections, ascending."""
    return level.table.frame[tracklet_rows(level)[t]].tolist()


def same_level(a, b):
    """Whether two levels over one table hold the same lifted frames of tracklet rows and the
    same medians."""
    return (
        a.table is b.table and frame_rows(a) == frame_rows(b)
        and np.array_equal(a.median, b.median)
    )


def ids_by_first_detection(level):
    """`TrackSet` of a final level's tracklets, numbered 1..K by the (frame, source row) of
    each one's first detection, ties in the level's order: a sort of the tracklets, which
    `pipeline._assign_ids` leaves to the order of the level."""
    table, sizes, first = level.table, np.diff(level.offsets), level.members[level.offsets[:-1]]
    ordered = np.lexsort((table.row[first], table.frame[first]))
    index = level.members[_ranges(level.offsets[ordered], sizes[ordered])]
    track_id = np.repeat(np.arange(1, len(ordered) + 1), sizes[ordered])
    return TrackSet(track_id, table.frame[index], table.box[index], table.score[index])


def frame_overlap_mask(level):
    """(n, n) boolean matrix over a level's tracklets, True where two share a frame, from
    frame sets."""
    frames = [set(level.table.frame[rows].tolist()) for rows in tracklet_rows(level)]
    return np.array([[bool(a & b) for b in frames] for a in frames], dtype=bool).reshape(
        len(frames), len(frames)
    )


def track_set(tracks):
    """`TrackSet` of a track ID -> (frame, box, score) entries mapping.

    IDs in ascending order, each ID's entries in the given order; an ID with
    no entries holds no rows. The `TrackSet` checks the columns.
    """
    rows = [(tid, *entry) for tid in sorted(tracks) for entry in tracks[tid]]
    tid, frame, box, score = zip(*rows) if rows else ((),) * 4
    return TrackSet(
        track_id=np.array(tid, dtype=np.int64),
        frame=np.array(frame, dtype=np.int64),
        box=np.array(box, dtype=np.float64).reshape(-1, 4),
        score=np.array(score, dtype=np.float64),
    )


def track_entries(tracks):
    """Track ID -> tuple of `Entry(frame, Box, score)` of a `TrackSet`, IDs ascending."""
    entries = defaultdict(list)
    for tid, frame, box, score in zip(
        tracks.track_id.tolist(), tracks.frame.tolist(), tracks.box.tolist(), tracks.score.tolist()
    ):
        entries[tid].append(Entry(frame, Box(*box), score))
    return {tid: tuple(e) for tid, e in entries.items()}


# One-pair forms of the array functions, for assertions about a single pair.
# Boxes are `Box` values or (x, y, w, h) tuples.


def iou_distance(a, b):
    return float(iou_distance_array(np.array(a, dtype=float), np.array(b, dtype=float)))


def box_displacement(a, b):
    return float(box_displacement_array(np.array(a, dtype=float), np.array(b, dtype=float)))


def extrapolate(prev, curr, steps):
    return Box(*extrapolate_array(np.array(prev, dtype=float), np.array(curr, dtype=float), steps))


def cosine_distance(h1, h2):
    return float(cosine_matrix(np.array([h1, h2], dtype=float))[0, 1])


def tracklet_distance(level, t, u):
    """`cosine_distance` of two tracklets' cached medians."""
    return cosine_distance(level.median[t], level.median[u])


def spatial_weights(last_box, first_box, cfg):
    """(close, far) factors of one pair of boxes."""
    lambda_c, lambda_f = _spatial_factors(
        np.array(last_box, dtype=float), np.array(first_box, dtype=float), cfg
    )
    return float(lambda_c), float(lambda_f)


def weighted_square(level, cfg):
    """(n, n) weighted distances (`weighted_pairs`) of every pair of a level's tracklets."""
    n = len(level.median)
    t, u = np.indices((n, n)).reshape(2, -1)
    return weighted_pairs(level, cosine_matrix(level.median).ravel(), t, u, cfg).reshape(n, n)


def weighted_distance(level, t, u, cfg):
    """The weighted distance of tracklets t and u of a level, weighed as a pair alone."""
    cos = np.array([tracklet_distance(level, t, u)])
    return float(weighted_pairs(level, cos, np.array([t]), np.array([u]), cfg)[0])


def cannot_link_mask(pairs, n):
    """Symmetric (n, n) boolean matrix, True at every cannot-link pair."""
    mask = np.zeros((n, n), dtype=bool)
    for a, b in pairs:
        mask[a, b] = mask[b, a] = True
    return mask


def with_cannot_link(square, pairs):
    """`square` with +inf at the cannot-link pairs, both ways: the one encoding the clustering
    API takes."""
    return np.where(cannot_link_mask(pairs, len(square)), np.inf, square)


def stacked(load_one):
    """`cluster_batch`'s per-chunk `load` from a per-instance one.

    `load_one(k)` returns instance k's (square, cannot_link mask or None);
    the chunk's matrices, +inf where masked, are padded into a (B, m, m)
    float64 tensor, the padding NaN so that reading it would show, and
    served by `clustering.dense`.
    """
    def load(group):
        pairs = [load_one(k) for k in group]
        m = max(len(square) for square, _ in pairs)
        dist = np.full((len(group), m, m), np.nan)
        for i, (square, cannot) in enumerate(pairs):
            n = len(square)
            dist[i, :n, :n] = square if cannot is None else np.where(cannot, np.inf, square)
        return dense(dist)

    return load


def instance_partitions(sizes, root):
    """`cluster_batch`'s flat cluster roots as one partition per instance, listed as `cut` lists
    them: clusters by smallest member, members ascending."""
    bounds = np.cumsum([0, *sizes])
    assert len(root) == bounds[-1]
    parts = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        local = np.asarray(root[lo:hi])
        heads = np.flatnonzero(local == np.arange(hi - lo))
        assert set(local.tolist()) <= set(heads.tolist())
        parts.append([np.flatnonzero(local == h).tolist() for h in heads])
    return parts


class NearThreshold(AssertionError):
    """A SciPy merge height lies within 1e-9 relative of the cut threshold."""


def scipy_cluster_batch(sizes, load, *, threshold):
    """`clustering.cluster_batch` by SciPy's average linkage (UPGMA), the paper's clustering.

    Each instance of two or more items is loaded alone, `load([k])`, and all
    of its pairs are asked of `pairs`. SciPy's `linkage(method="average")`
    clusters their condensed distances and `fcluster(criterion="distance")`
    cuts at `threshold`; each item's root is the smallest member of its
    cluster, numbered within its instance, flat over the instances.

    SciPy takes no +inf, so a cannot-link pair of an instance of n items gets
    the finite stand-in threshold * n**2. Two clusters K and L that hold such
    a pair have a mean distance of at least threshold * n**2 / (|K| |L|) >
    threshold, since |K| |L| < n**2. Average linkage merges at nondecreasing
    heights, so SciPy makes every merge at or below the threshold, the cut's
    merges, before any merge across a stand-in: the merges of
    `cluster_batch`, to which such cluster pairs are +inf, and the same
    partition. SciPy's nearest-neighbour chain adds in another order, so its
    heights differ in ulps; a merge height within 1e-9 relative of the
    threshold might fall on either side, and fails the oracle (`NearThreshold`)
    instead of giving a partition that may differ.
    """
    from scipy.cluster.hierarchy import fcluster, linkage

    roots = [np.zeros(0, dtype=np.intp)]
    for k, n in enumerate(sizes):
        if n < 2:
            roots.append(np.arange(n))
            continue
        _, pairs = load([k])
        i, j = np.triu_indices(n, 1)
        dist = np.asarray(pairs(i * n + j), dtype=np.float64)
        z = linkage(np.where(dist == np.inf, threshold * n**2, dist), method="average")
        near = np.abs(z[:, 2] - threshold) <= 1e-9 * threshold
        if near.any():
            raise NearThreshold(f"a SciPy height {z[near, 2][0]!r} lies at threshold {threshold!r}")
        _, first, label = np.unique(
            fcluster(z, threshold, criterion="distance"), return_index=True, return_inverse=True
        )
        roots.append(first[label])
    return np.concatenate(roots)


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


def matched_frames(gt, pred, iou_threshold=0.5):
    """(GT ID, predicted ID) -> frames where both have a box with IoU >= the
    threshold, for every pair with at least one such frame; pair by pair."""
    counts = {}
    pred_tracks = track_entries(pred)
    for gid, gentries in track_entries(gt).items():
        gmap = {e.frame: e.bbox for e in gentries}
        for pid, pentries in pred_tracks.items():
            c = 0
            for e in pentries:
                gbox = gmap.get(e.frame)
                if gbox is not None and box_iou(gbox, e.bbox) >= iou_threshold:
                    c += 1
            if c:
                counts[(gid, pid)] = c
    return counts


def brute_force_assignment(weight):
    """Largest total of weight[i, a(i)] over every injective map a from the
    shorter side of the matrix to the longer; up to about 7 x 7."""
    w = np.asarray(weight)
    if w.shape[0] > w.shape[1]:
        w = w.T
    rows = range(w.shape[0])
    return max(
        sum(w[i, j] for i, j in zip(rows, cols))
        for cols in itertools.permutations(range(w.shape[1]), w.shape[0])
    )


def brute_force_idf1(gt, pred, iou_threshold=0.5):
    """IDF1 by exhaustive search over injective GT-to-prediction ID mappings.

    Only usable for a handful of IDs; counts feasible frames per ID pair from
    scratch and maximizes the total over every partial one-to-one mapping.
    """
    total_gt = gt.num_boxes
    total_pred = pred.num_boxes
    if total_gt == 0 and total_pred == 0:
        return 1.0
    if total_gt == 0 or total_pred == 0:
        return 0.0

    counts = matched_frames(gt, pred, iou_threshold)
    gt_ids = sorted(track_entries(gt))
    pred_ids = sorted(track_entries(pred))
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


def scalar_weighted_distance(level, t, u, cfg, sentinel=SENTINEL):
    """Weighted distance of tracklets t and u of a level, one Python call per pair.

    Orders the pair in time (interleaved spans give the sentinel), scales the
    median cosine distance by the temporal factor, then by the product of the
    overlap and displacement factors, comparing the earlier tracklet's last
    box (extrapolated at its final velocity when motion is on) with the later
    one's first box. Boxes are (x, y, w, h) tuples.
    """
    f1, f2 = tracklet_frames(level, t), tracklet_frames(level, u)
    if f1[-1] < f2[0]:
        early, late = t, u
    elif f2[-1] < f1[0]:
        early, late = u, t
    else:
        return sentinel
    delta_t = tracklet_frames(level, late)[0] - tracklet_frames(level, early)[-1]
    d = scalar_cosine(level.median[t], level.median[u])
    rows = tracklet_rows(level)

    def box(t, k):
        return Box(*level.table.box[rows[t][k]].tolist())

    if cfg.use_temporal:
        d *= 1.0 if delta_t <= cfg.kt else cfg.ct
    if cfg.use_spatial:
        last = box(early, -1)
        if cfg.use_motion:
            prev = box(early, -2) if len(rows[early]) >= 2 else last
            k = min(delta_t, cfg.window)
            last = type(last)(
                x=last.x + k * (last.x - prev.x),
                y=last.y + k * (last.y - prev.y),
                w=max(last.w + k * (last.w - prev.w), 1.0),
                h=max(last.h + k * (last.h - prev.h), 1.0),
            )
        first = box(late, 0)
        lambda_c = min(1.0, scalar_iou_distance(last, first) + cfg.off)
        lambda_f = 1.0 if scalar_box_displacement(last, first) <= cfg.kf else cfg.cf
        d *= lambda_c * lambda_f
    return d


def all_pairs_matches(gt, pred, iou_threshold):
    """`metrics._matches` with an IoU computed for every same-frame pair.

    The same four arrays: frame, GT ID rank, predicted ID rank and IoU of the
    pairs with IoU >= iou_threshold, ascending by frame, in blocks of
    `_GT_BLOCK` GT entries as imported.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    gt_frame, gt_rank, gt_box = _by_frame(gt)
    pred_frame, pred_rank, pred_box = _by_frame(pred)
    lo = np.searchsorted(pred_frame, gt_frame, side="left")
    count = np.searchsorted(pred_frame, gt_frame, side="right") - lo
    blocks = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))]
    for start in range(0, len(gt_frame), _GT_BLOCK):
        n = count[start : start + _GT_BLOCK]
        g = np.repeat(np.arange(start, start + len(n)), n)
        p = lo[g] + np.arange(len(g)) - np.repeat(np.cumsum(n) - n, n)
        iou = 1.0 - iou_distance_array(np.take(gt_box, g, axis=0), np.take(pred_box, p, axis=0))
        keep = iou >= iou_threshold
        blocks.append((g[keep], p[keep], iou[keep]))
    g, p, iou = (np.concatenate(parts) for parts in zip(*blocks))
    return gt_frame[g], gt_rank[g], pred_rank[p], iou


def per_pair_id_switches(gt, pred, iou_threshold=0.5):
    """ID switches with one IoU call per same-frame box pair.

    Per frame, predictions are matched to GT greedily by descending IoU
    (one-to-one, ties toward the lower predicted ID); a switch is counted
    whenever a GT identity's match differs from its previous match.
    """
    def by_frame(tracks):
        by = defaultdict(list)
        for tid, entries in track_entries(tracks).items():
            for e in entries:
                by[e.frame].append((tid, e.bbox))
        return by

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


# The dense forms of stage 2's loads: every pair of every fusion of a chunk, as stacked tensors.


def weighted_blocks(level, lo, n, cfg):
    """Stacked weighted distances of the tracklets lo[k]..lo[k]+n[k]-1 of a level.

    Block k, at [k, :n[k], :n[k]] of a (len(n), m, m) tensor, is the median
    cosine distance (one `cosine_matrix` per block, in float64), times the
    temporal factor when that is enabled, then times the product of the
    spatial factors when those are enabled, each pair read from the
    tracklet that ends first, over gap and endpoint boxes broadcast to
    (len(n), m, m). Pairs not ordered in time, the diagonal among them, hold
    the cannot-link sentinel as a value; the padding is not read.
    """
    lo, n = np.asarray(lo), np.asarray(n)
    m = int(n.max())
    dist = np.zeros((len(n), m, m))
    for k, (a, size) in enumerate(zip(lo.tolist(), n.tolist())):
        dist[k, :size, :size] = cosine_matrix(np.asarray(level.median[a : a + size], dtype=float))
    index = np.minimum(lo[:, None] + np.arange(m), (lo + n - 1)[:, None])
    start, end = level.offsets[index], level.offsets[index + 1]
    first, last, frame = level.members[start], level.members[end - 1], level.table.frame
    before = frame[last][:, :, None] < frame[first][:, None, :]

    def symmetric(directed):
        # Entry (i, j) as seen from whichever of i and j comes first.
        return np.where(before, directed, directed.swapaxes(1, 2))

    if cfg.use_temporal or cfg.use_spatial:
        table = level.table
        prev = level.members[np.maximum(end - 2, start)]  # the last, for one row
        gap = frame[first][:, None, :] - frame[last][:, :, None]
        last_box = table.box[last][:, :, None, :]
        if cfg.use_motion:
            last_box = extrapolate_array(
                table.box[prev][:, :, None, :], last_box, np.minimum(gap, cfg.window)
            )
        first_box = table.box[first][:, None, :, :]
        if cfg.use_temporal:
            dist *= symmetric(_temporal_factor(gap, cfg))
        if cfg.use_spatial:
            lambda_c, lambda_f = _spatial_factors(last_box, first_box, cfg)
            dist *= symmetric(lambda_c * lambda_f)
    dist[~(before | before.swapaxes(1, 2))] = CANNOT_LINK
    return dist


def overlap_masks(level, lo, n):
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
