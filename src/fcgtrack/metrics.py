"""Identity metrics: IDF1 and ID-switch count against ground truth."""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .core import TrackSet
from .geometry import iou_distance_array

# GT entries per array call in `_matches`; bounds the pair arrays in crowds.
_GT_BLOCK = 1024


def _by_frame(tracks: TrackSet):
    """Frames, ID ranks and an (n, 4) box array of all entries, by (frame, ID).

    An ID's rank is its position among the distinct track IDs of the set.
    The columns are sorted by track ID, so ranks take no sort and keep the
    order of the IDs.
    """
    cols = tracks.columns
    rank = np.zeros(len(cols.track_id), dtype=np.int64)
    np.cumsum(cols.track_id[1:] != cols.track_id[:-1], out=rank[1:])
    order = np.lexsort((cols.track_id, cols.frame))
    return cols.frame[order], rank[order], cols.box[order]


def _matches(gt: TrackSet, pred: TrackSet, iou_threshold: float):
    """Same-frame box pairs with IoU >= iou_threshold, ascending by frame.

    Returns parallel arrays: frame, GT ID rank, predicted ID rank (see
    `_by_frame`) and IoU. The IoUs are computed by array calls over blocks
    of GT entries, each paired with every prediction in its frame.
    """
    gt_frame, gt_rank, gt_box = _by_frame(gt)
    pred_frame, pred_rank, pred_box = _by_frame(pred)
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
    return gt_frame[g], gt_rank[g], pred_rank[p], iou


def _components(row: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Connected-component label of each edge of the bipartite graph (row, col).

    Label propagation over node arrays: every round hooks the larger of two
    adjacent roots to the smaller, then jumps pointers until every node
    points at its root. A round without a cross edge ends it.
    """
    a = row
    b = col + (row.max() + 1)
    label = np.arange(b.max() + 1)
    while True:
        la, lb = label[a], label[b]
        cross = la != lb
        if not cross.any():
            return la
        np.minimum.at(label, np.maximum(la, lb)[cross], np.minimum(la, lb)[cross])
        while True:
            root = label[label]
            if np.array_equal(root, label):
                break
            label = root


def _max_assignment(weight: np.ndarray):
    """Largest total of weight[i, a(i)] over one-to-one maps a of rows to columns.

    Shortest augmenting paths (Jonker and Volgenant 1987; Crouse 2016, "On
    implementing 2D rectangular assignment algorithms"): each row of the
    shorter side in turn runs a Dijkstra search over the reduced costs of
    -weight to the nearest free column, preferring a free column on ties;
    then the dual potentials are updated and the path is flipped. The total
    has the dtype of `weight`. Integer weights stay integers in float64
    throughout, so their total is exact.
    """
    if weight.shape[0] > weight.shape[1]:
        weight = weight.T
    cost = -weight.astype(np.float64)
    n_rows, n_cols = cost.shape
    u = np.zeros(n_rows)
    v = np.zeros(n_cols)
    col4row = np.full(n_rows, -1)
    row4col = np.full(n_cols, -1)
    for start in range(n_rows):
        shortest = np.full(n_cols, np.inf)
        path = np.full(n_cols, -1)
        todo = np.ones(n_cols, dtype=bool)
        reached = []
        i, low = start, 0.0
        while True:
            reduced = low + cost[i] - u[i] - v
            better = todo & (reduced < shortest)
            path[better] = i
            shortest[better] = reduced[better]
            dist = np.where(todo, shortest, np.inf)
            j = int(dist.argmin())
            low = dist[j]
            if row4col[j] >= 0:
                free = np.flatnonzero((dist == low) & (row4col < 0))
                if len(free):
                    j = int(free[0])
            todo[j] = False
            if row4col[j] < 0:
                break
            i = row4col[j]
            reached.append(i)
        u[start] += low
        u[reached] += low - shortest[col4row[reached]]
        done = ~todo
        v[done] -= low - shortest[done]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return weight[np.arange(n_rows), col4row].sum()


def _idtp(row: np.ndarray, col: np.ndarray) -> int:
    """Largest total of matched frames over one-to-one GT-to-prediction ID maps.

    `row` and `col` hold the GT and predicted ID ranks of every matched box
    pair. A pair of IDs that never matches adds nothing, so the pairs that
    do match split into connected components, each solved apart. No map
    beats each row's largest count, so a component whose rows take their
    largest counts in distinct columns, one each, is solved by those; such
    components are summed as arrays and the rest go to `_max_assignment`.
    Memory and time follow the matches, not the product of the ID counts.
    """
    n_cols = col.max() + 1
    key, count = np.unique(row * n_cols + col, return_counts=True)
    row, col = np.divmod(key, n_cols)
    best = np.zeros(row[-1] + 1, dtype=count.dtype)
    np.maximum.at(best, row, count)
    top = count == best[row]
    clash = top & (
        (np.bincount(row[top])[row] > 1) | (np.bincount(col[top], minlength=n_cols)[col] > 1)
    )
    if not clash.any():
        return int(count[top].sum())
    label = _components(row, col)
    hard = np.isin(label, label[clash])
    total = int(count[top & ~hard].sum())
    edges = np.flatnonzero(hard)
    edges = edges[np.argsort(label[edges], kind="stable")]
    for part in np.split(edges, np.flatnonzero(np.diff(label[edges])) + 1):
        _, r = np.unique(row[part], return_inverse=True)
        _, c = np.unique(col[part], return_inverse=True)
        weight = np.zeros((r.max() + 1, c.max() + 1), dtype=np.int64)
        weight[r, c] = count[part]
        total += int(_max_assignment(weight))
    return total


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

    _, rows, cols, _ = _matches(gt, pred, iou_threshold)
    if not len(rows):
        return 0.0
    return 2.0 * _idtp(rows, cols) / (total_gt + total_pred)


def _greedy(frame, gid, pid, iou) -> np.ndarray:
    """Mask of the matched pairs that the per-frame greedy match keeps.

    Per frame, pairs are taken by descending IoU, ties toward the lower
    predicted then GT rank, each skipped when its GT or predicted rank is
    taken. A frame where no rank occurs in two pairs keeps every pair, so
    only frames where one does are walked.
    """
    keep = np.ones(len(frame), dtype=bool)
    clash = np.zeros(len(frame), dtype=bool)
    for rank in (gid, pid):
        order = np.lexsort((rank, frame))
        f, r = frame[order], rank[order]
        same = (f[1:] == f[:-1]) & (r[1:] == r[:-1])
        clash[order[1:][same]] = True
    walk = np.flatnonzero(np.isin(frame, frame[clash]))
    keep[walk] = False
    pairs = zip(*(a.tolist() for a in (frame[walk], -iou[walk], pid[walk], gid[walk], walk)))
    for _, candidates in groupby(pairs, key=lambda m: m[0]):
        used_gt: set[int] = set()
        used_pred: set[int] = set()
        for _, _, p, g, index in sorted(candidates):
            if g in used_gt or p in used_pred:
                continue
            used_gt.add(g)
            used_pred.add(p)
            keep[index] = True
    return keep


def id_switches(gt: TrackSet, pred: TrackSet, iou_threshold: float = 0.5) -> int:
    """Count frames where a GT identity's matched predicted ID changes.

    Per frame, predictions are matched to GT greedily by descending IoU
    (one-to-one, IoU >= iou_threshold, ties toward the lower predicted ID);
    a switch is counted whenever a GT identity's match differs from its most
    recent previous match.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    frame, gid, pid, iou = _matches(gt, pred, iou_threshold)
    keep = _greedy(frame, gid, pid, iou)
    frame, gid, pid = frame[keep], gid[keep], pid[keep]
    order = np.lexsort((frame, gid))
    gid, pid = gid[order], pid[order]
    return int(np.count_nonzero((gid[1:] == gid[:-1]) & (pid[1:] != pid[:-1])))
