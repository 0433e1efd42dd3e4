"""Temporal and spatial priors weighting the appearance distance between tracklets.

This module decides every tracklet pair's distance. A pair is compared
through the last box of the earlier tracklet and the first box of the later
one. Pairs that cannot be ordered in time (their frame spans interleave) get
the cannot-link sentinel instead of a weighted distance, and those of them
that share a frame are cannot-link, +inf.

`weighted_pairs` weighs given pairs elementwise, so a value is bit-identical
wherever its pair is weighed. It is fl(fl(c * t) * fl(lambda_c * lambda_f)),
c the cosine distance, t, lambda_f >= 1 and lambda_c = min(1, fl(iou_distance
+ off)) >= off (the IoU distance is at least 0); rounding is monotone, so it is
at least fl(c * off), or c with the spatial factors off, as are the sentinel and +inf.

`fusion_load` hands `clustering.cluster_batch` candidate flat cells, whose distances `pairs`
computes: a cell of Gram value g and norms n_i, n_j (fl(sqrt) of the squared norms s_i, s_j)
is one unless g < fl(fl(beta * n_i) * n_j), beta = fl(1 - L - SLACK), L = l, or l / off
with the spatial factors on, l = max(limit, 2**-1022). It is one wherever
d <= limit. With u = 2**-53, P = n_i * n_j and c = clip(fl(1 - q), 0, 2),
q = fl(g / r), r = fl(sqrt(fl(s_i * s_j))):
- c <= L * (1 + 4u): with the spatial factors on, fl(c * off) <= d <= l gives
  c * off <= l * (1 + 2u), and L >= l / off * (1 - u), a normal quotient.
- Every cell is one if beta <= -1 or a squared norm is outside [2**-500, 2**500].
  Else L < 2 - SLACK, so fl(1 - q) <= c and q >= 1 - L - 11u; r = P * (1 + e),
  |e| <= 4u, and fl(g / r) errs by at most u * |g / r| + 2**-1075, so
  g >= P * (1 - L - 18u), whatever the signs.
- beta, 0 or a multiple of 2**-54, is within 3u of 1 - L - SLACK, so each product
  is 0 or normal and the bound is at most P * (1 - L - SLACK + 8u) < P * (1 - L - 18u),
  as SLACK > 26u. A NaN g is one too, so `pairs` computes it and the clustering rejects it.
"""

from __future__ import annotations

import numpy as np

from .appearance import cosine_cells, squared_norms
from .core import CANNOT_LINK, DetectionColumns, FcgConfig, _ranges
from .geometry import box_displacement_array, extrapolate_array, iou_distance_array

SLACK = 2.0**-40  # of `fusion_load`'s candidate test (see the module docstring)
_CELLS = 1 << 15  # products held at once by the test: 256 KiB


def _temporal_factor(delta_t, cfg: FcgConfig):
    return np.where(delta_t <= cfg.kt, 1.0, cfg.ct)


def _spatial_factors(last_box: np.ndarray, first_box: np.ndarray, cfg: FcgConfig):
    lambda_c = np.minimum(1.0, iou_distance_array(last_box, first_box) + cfg.off)
    d_box = box_displacement_array(last_box, first_box)
    lambda_f = np.where(d_box <= cfg.kf, 1.0, cfg.cf)
    return lambda_c, lambda_f


def _endpoints(table: DetectionColumns, last, prev, first, cfg: FcgConfig):
    """Gap and endpoint boxes of pairs of tracklets read as "a before b".

    From the table rows of a's last and `prev` (second-to-last; for one row,
    the last) detection and of b's first, which broadcast together: the gap
    first_frame(b) - last_frame(a), a's last box (extrapolated over
    min(gap, window) frames with motion on) and b's first box. Meaningless
    where gap <= 0.
    """
    gap = table.frame[first] - table.frame[last]
    last_box = table.box[last]
    if cfg.use_motion:
        last_box = extrapolate_array(table.box[prev], last_box, np.minimum(gap, cfg.window))
    return gap, last_box, table.box[first]


def weighted_pairs(level, cos: np.ndarray, t: np.ndarray, u: np.ndarray, cfg: FcgConfig):
    """Weighted distances of the pairs of tracklets t[p], u[p] of a level, cos[p] their cosine
    distances: times the temporal factor when that is enabled, then times the product of the
    spatial factors when those are enabled, the pair read from whichever tracklet ends first.
    Pairs not ordered in time hold the sentinel as a value, or +inf where they share a frame, a
    tracklet with itself among them.
    """
    offsets, members, frame = level.offsets, level.members, level.table.frame
    first_t, first_u = members[offsets[t]], members[offsets[u]]
    t_first = frame[members[offsets[t + 1] - 1]] < frame[first_u]
    ordered = t_first | (frame[members[offsets[u + 1] - 1]] < frame[first_t])
    dist = np.array(cos, dtype=np.float64)
    if cfg.use_temporal or cfg.use_spatial:
        early = np.where(t_first, t, u)
        start, end = offsets[early], offsets[early + 1]
        # The earlier tracklet's last row and the one before it (the last, for one row).
        last, prev = members[end - 1], members[np.maximum(end - 2, start)]
        first = np.where(t_first, first_u, first_t)  # the later tracklet's
        gap, last_box, first_box = _endpoints(level.table, last, prev, first, cfg)
        if cfg.use_temporal:
            dist *= _temporal_factor(gap, cfg)
        if cfg.use_spatial:
            lambda_c, lambda_f = _spatial_factors(last_box, first_box, cfg)
            dist *= lambda_c * lambda_f
    # Only a pair not ordered in time can share a frame: such a pair is cannot-link, +inf.
    far = np.flatnonzero(~ordered)
    if len(far):
        dist[far] = np.where(_share_frame(level, t[far], u[far]), np.inf, CANNOT_LINK)
    return dist


def _share_frame(level, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """True where tracklets t[p] and u[p] of a level share a frame, a tracklet with itself too."""
    both = np.concatenate([t, u])
    start, n = level.offsets[both], level.offsets[both + 1] - level.offsets[both]
    # Each row of t[p] and of u[p], tagged with p and its side (True for u), by (p, frame, side).
    pair = np.repeat(np.tile(np.arange(len(t)), 2), n)
    side = np.repeat(np.arange(len(both)) >= len(t), n)
    frame = level.table.frame[level.members[_ranges(start, n)]]
    order = np.lexsort((side, frame, pair))
    pair, frame, side = pair[order], frame[order], side[order]
    hit = (pair[1:] == pair[:-1]) & (frame[1:] == frame[:-1]) & side[1:] & ~side[:-1]
    shared = np.zeros(len(t), dtype=bool)
    shared[pair[1:][hit]] = True
    return shared


def _gram_blocks(level, lo, n) -> np.ndarray:
    """Stacked float64 median Gram matrices of the tracklets lo[k]..lo[k]+n[k]-1 of a level,
    each its own product at [k, :n[k], :n[k]]; the padding is 0, and 1 on the diagonal."""
    m = int(n.max())
    gram = np.zeros((len(n), m, m))
    gram[:, np.arange(m), np.arange(m)] = 1.0
    for k, (a, size) in enumerate(zip(lo.tolist(), n.tolist())):
        features = np.asarray(level.median[a : a + size], dtype=np.float64)
        np.matmul(features, features.T, out=gram[k, :size, :size])
    return gram


def _not_below(gram: np.ndarray, row: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Ascending, the flat cells (k, i, j) of a (B, m, m) tensor not below row[k, i] * col[k, j],
    NaN ones too; `einsum` (faster than a broadcast `multiply`) holds `_CELLS` products."""
    batch, m = gram.shape[:2]
    rows, step = min(m, max(1, _CELLS // m)), min(batch, max(1, _CELLS // (m * m)))
    bound, found = np.empty((step, rows, m)), []
    for k in range(0, batch, step):
        for start in range(0, m, rows):
            slab = gram[k : k + step, start : start + rows]
            block = np.einsum("ki,kj->kij", row[k : k + step, start : start + rows],
                              col[k : k + step], out=bound[: len(slab), : slab.shape[1]])
            found.append(np.flatnonzero(~(slab < block)) + (k * m + start) * m)
    return np.concatenate(found)


def fusion_load(level, lo: np.ndarray, n: np.ndarray, cfg: FcgConfig):
    """`clustering.cluster_batch`'s (candidates, pairs) for the fusions of the tracklets
    lo[k]..lo[k]+n[k]-1 of a level (see the module docstring): `pairs(cells)` weighs, for flat
    cell (k, i, j), tracklets lo[k] + i and lo[k] + j by `weighted_pairs`, their cosine
    `cosine_cells` of their Gram cell."""
    gram = _gram_blocks(level, lo, n)
    m = gram.shape[1]
    sq = squared_norms(gram.diagonal(axis1=1, axis2=2))
    norm = np.sqrt(sq)
    scaled = 2.0**-500 <= sq.min() and sq.max() <= 2.0**500

    def candidates(limit):
        beta = 1.0 - max(limit, 2.0**-1022) / (cfg.off if cfg.use_spatial else 1.0) - SLACK
        return _not_below(gram, norm * (beta if beta > -1.0 and scaled else -np.inf), norm)

    def pairs(cells):
        a, j = np.divmod(cells, m)  # row a = k * m + i of the norms
        k, i = np.divmod(a, m)
        cos = cosine_cells(np.take(gram, cells), np.take(sq, a), np.take(sq, a - i + j))
        return weighted_pairs(level, cos, lo[k] + i, lo[k] + j, cfg)

    return candidates, pairs
