"""Constrained average-linkage agglomerative clustering with a threshold cut.

Clusters are merged greedily by minimum current distance. Inter-cluster
distance is the arithmetic mean over all member pairs, maintained through the
size-weighted update

    d(K+L, M) = (|K| * d(K, M) + |L| * d(L, M)) / (|K| + |L|)

Cannot-link pairs are +inf distances, from `cluster_batch`'s `pairs` to the
working matrix. Any average that involves +inf stays +inf, so a merged
cluster inherits the cannot-link partners of both inputs and no dilution
can ever co-cluster a forbidden pair. The run stops once the minimum
reaches the sentinel `CANNOT_LINK`; an unconstrained pair whose distance
merely equals it is a finite value, diluted like any other distance.

Every step merges the global minimum pair among the active clusters, in the
spirit of Muellner's generic algorithm (arXiv:1109.2378): a per-row cache
holds each row's nearest later-created neighbour, or a lower bound on it once
that neighbour was merged away, and a row is rescanned only when its bound is
the smallest. Ties on the minimum go to the lexicographically smallest pair
of creation indices (a, b), a < b: leaves are 0..n-1 and the k-th merge
creates n+k. The merged cluster reuses the slot of `a`, and slots are
compared through their creation indices, so slot reuse never moves a tie.
The merged row is computed as (|K| * D[K] + |L| * D[L]) / (|K| + |L|),
elementwise and in that order, and entries between surviving clusters are
never recomputed, so every height is bit-identical to the same update done
one pair at a time. Nearest-neighbour chains would reorder the updates and so
move heights by ulps, which can flip ties.

Many independent instances (the windows of stage 1, the fusions of one level
of stage 2) are clustered together by `cluster_batch`. It splits each
instance into the connected components of its threshold graph, whose edges
are the pairs with d <= threshold * `MARGIN` (never a +inf, cannot-link one),
and links only the components of two or more items, whose blocks alone are
computed in full; a lower bound on the distances picks the candidate edges.
A cut never joins two components: the height of two clusters is the mean of
their cross pairs, which is never below the smallest of them, and every pair
across two components is above threshold * MARGIN.
Nor does a cut split a sub-threshold clique, a component all of whose pairs
are edges with d <= threshold / MARGIN: a mean is never above the largest of
its pairs, so every merge inside it is applied, whatever their order, and
the component ends as one cluster. Such a component is not linked.

The margin absorbs rounding. A merged row is (|K| * D[K] + |L| * D[L]) /
(|K| + |L|), so each term of a height takes three roundings per merge
level, one product, one sum and one quotient, and every term is
nonnegative. A height whose terms went through t merge levels, t < n, is
therefore between (1 - 2**-53)**(3t) and (1 + 2**-53)**(3t) times its exact
mean. One more rounding, of threshold * MARGIN or threshold / MARGIN,
gives the bounds: a cross-component height is above
(1 - 2**-53)**(3t + 1) * MARGIN * threshold, and a height inside a
sub-threshold clique is at most (1 + 2**-53)**(3t + 1) * threshold /
MARGIN. With MARGIN = 1 + 2**-19 and n below 2**32, (3t + 1) * 2**-53 <
0.75 * 2**-19 + 2**-53, so the first stays above the threshold and the
second at or below it. Inside a component every update runs in the same
order and with the same arithmetic: its items keep their order, so creation
indices map monotonically and ties go the same way, and its entries are
computed from its own entries only. Each partition is therefore exactly that
of `cut` on the instance's full dendrogram.

The components are gathered, padded with +inf, into (B, m, m) tensors, and
each step of `_link` advances every live component at once with the same
elementwise arithmetic, so each component's merges are exactly those of a
run on its own. A component stops at its first minimum above the cut
threshold; `cut` would discard that merge and all later ones. Once fewer than
`BATCH_MIN` components are live, each finishes in the single-instance loop
on views of the same state. Instances are loaded a chunk at a time
(`_within_budget`), however few share a chunk, and the components of
successive chunks are linked together, so that no padded tensor exceeds
`CHUNK_CELLS` cells.

`linkage_matrix` (full dendrogram of one square matrix) runs the same core.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from typing import Callable, NamedTuple, Sequence, TextIO

import numpy as np

from .core import CANNOT_LINK, _connected, _ranges

# Slack of the component split's edges, d <= threshold * MARGIN, and of the
# cliques' strong edges, d <= threshold / MARGIN: more than the relative
# rounding of any height (see the module docstring).
MARGIN = 1.0 + 2.0**-19

# Live instances below which `_link`'s batched step stops paying. A batched
# step over 8 instances of 20-40 items took about 0.23 ms, one merge of the
# single-instance loop about 0.03 ms (2-core x86-64, numpy 2.4.6), so with
# fewer live instances each finishes on its own.
BATCH_MIN = 8

# Cells (float64) of one chunk's padded (B, m, m) tensor: 2 MiB. A single
# instance or component larger than this is a chunk of its own.
CHUNK_CELLS = 1 << 18

# Largest float below the sentinel: the full-dendrogram stopping point.
_BELOW_SENTINEL = float(np.nextafter(CANNOT_LINK, 0.0))


class Merge(NamedTuple):
    a: int
    b: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    """Merge history of one clustering run over n leaves.

    Leaves are clusters 0..n-1; the k-th merge creates cluster n+k. With
    constraints the sequence may stop short of n-1 merges.
    """

    n: int
    merges: tuple[Merge, ...]


def dense(dist, cannot_link=None):
    """`cluster_batch`'s `load` result for a (B, m, m) distance tensor given in full, and a
    boolean cannot-link tensor of its shape or None: the distances bound themselves, and
    `pairs`, which takes one index array per axis, reads +inf at the cannot-link cells."""
    dist = np.asarray(dist, dtype=np.float64)
    if cannot_link is None:
        return dist, lambda *cell: dist[cell]
    mask = np.asarray(cannot_link, dtype=bool)
    if mask.shape != dist.shape:
        raise ValueError(f"cannot-link mask shape {mask.shape} does not match {dist.shape}")
    return dist, lambda *cell: np.where(mask[cell], np.inf, dist[cell])


def _one(dist, cannot_link):
    """`sizes` and `load` of a single instance given as a square matrix (see `dense`)."""
    dist = np.asarray(dist)
    n = dist.shape[0] if dist.ndim == 2 else -1
    if dist.shape != (n, n):
        raise ValueError(f"expected a square distance matrix, got shape {dist.shape}")
    bound, pairs = dense(dist, cannot_link)  # checks the mask against the square
    return [n], lambda _: (bound[None], lambda k, i, j: pairs(i, j))


def _pairs(n: np.ndarray, m: int) -> np.ndarray:
    """The strict upper triangles of the blocks [k, :n[k], :n[k]] of a (len(n), m, m) tensor."""
    pos = np.arange(m)
    return (pos[:, None] < pos) & (pos < n[:, None, None])


def _checked(d: np.ndarray, skip=False) -> np.ndarray:
    """`d`, or ValueError if one of its values, but where `skip`, is negative or NaN."""
    if not ((d >= 0.0) | skip).all():
        raise ValueError("distances must be nonnegative, not NaN")
    return d


def _exact(pairs: Callable, cells: np.ndarray, shape: tuple) -> np.ndarray:
    """`pairs` of these flat cells of a `load` tensor of `shape`: their distances, checked."""
    dist = np.asarray(pairs(*np.unravel_index(cells, shape)), dtype=np.float64)
    if dist.shape != cells.shape:
        raise ValueError(f"expected {len(cells)} pair distances")
    return _checked(dist)


def _load(d: np.ndarray, n: np.ndarray):
    """Turn a chunk's stacked distances into its working tensor, in place.

    Reads the strict upper triangle of each instance's block d[k, :n[k],
    :n[k]], +inf at its cannot-link pairs, and mirrors it, with +inf on the
    diagonal and outside the blocks. Returns each row's nearest
    later-created neighbour (the first of equal minima) and its distance.
    """
    # The diagonal and the columns of merged-away clusters hold +inf, so
    # averaged rows stay +inf there and never look like a closer neighbour.
    d[~_pairs(n, d.shape[1])] = np.inf
    near, nn = d.min(axis=2), d.argmin(axis=2)
    np.minimum(d, d.transpose(0, 2, 1), out=d)
    return near, nn


def _link(d, near, nn, n, limit: float):
    """Merge every instance of the working tensor until its minimum exceeds `limit`.

    Instance k owns d[k, :n[k], :n[k]] as `_load` wrote it, the rest of its
    slice is +inf, and its `near`/`nn` rows are the row cache; all three are
    overwritten. Returns the merge count per instance and (B, m-1) arrays of
    the merged creation indices a < b, the heights and the new sizes.
    """
    batch, m = near.shape
    slots = np.arange(m)
    # Slot s of instance k holds the cluster with creation index cid[k, s],
    # -1 once retired or in the padding; slot_of inverts it for live clusters.
    cid = np.where(slots < n[:, None], slots, -1)
    slot_of = np.full((batch, max(2 * m - 1, 0)), -1, dtype=np.intp)
    slot_of[:, :m] = cid
    size = np.ones((batch, m), dtype=np.intp)
    count = np.zeros(batch, dtype=np.intp)
    merged_a = np.zeros((batch, max(m - 1, 0)), dtype=np.intp)
    merged_b = np.zeros_like(merged_a)
    merged_size = np.zeros_like(merged_a)
    height = np.zeros(merged_a.shape)
    above = 2 * m  # larger than every creation index

    live = np.flatnonzero(n >= 2)
    while len(live) >= BATCH_MIN:
        rows = near[live]
        low = rows.min(axis=1)
        going = low <= limit
        if not going.all():
            live, rows, low = live[going], rows[going], low[going]
            if len(live) < BATCH_MIN:
                break
        ids = cid[live]
        # Per instance, the tied row of the smallest creation index.
        i = np.where(rows == low[:, None], ids, above).argmin(axis=1)
        a = ids[np.arange(len(live)), i]
        j = slot_of[live, nn[live, i]]
        stale = j < 0
        at = live
        if stale.any():
            # The cached neighbour was merged away: rescan those rows only.
            k, ks = live[stale], i[stale]
            cand = np.where(cid[k] > a[stale, None], d[k, ks], np.inf)
            best = cand.min(axis=1)
            near[k, ks] = best
            nn[k, ks] = np.where(cand == best[:, None], cid[k], above).min(axis=1)
            fresh = ~stale
            at, i, j, a, low = live[fresh], i[fresh], j[fresh], a[fresh], low[fresh]

        b = cid[at, j]
        size_a, size_b = size[at, i], size[at, j]
        size_new = size_a + size_b
        step = count[at]
        new = n[at] + step
        merged_a[at, step] = a
        merged_b[at, step] = b
        height[at, step] = low
        merged_size[at, step] = size_new
        count[at] = step + 1

        row = (size_a[:, None] * d[at, i] + size_b[:, None] * d[at, j]) / size_new[:, None]
        # The new cluster takes slot i; slot j retires.
        d[at, i] = row
        d[at, :, i] = row
        d[at, :, j] = np.inf
        cid[at, i] = new
        cid[at, j] = -1
        slot_of[at, a] = -1
        slot_of[at, b] = -1
        slot_of[at, new] = i
        size[at, i] = size_new
        near[at, i] = np.inf  # the newest cluster has no later neighbour
        near[at, j] = np.inf
        # The new cluster is every live row's latest candidate. As the largest
        # creation index it replaces a cached neighbour only when strictly
        # closer; a row whose bound it undercuts has it as exact minimum.
        rows = near[at]
        closer = row < rows
        near[at] = np.where(closer, row, rows)
        nn[at] = np.where(closer, new[:, None], nn[at])

    for k in live.tolist():
        nk = int(n[k])
        count[k] = _finish(
            d[k, :nk, :nk], near[k, :nk], nn[k, :nk], cid[k, :nk],
            slot_of[k, : 2 * nk - 1], size[k, :nk], nk, int(count[k]),
            (merged_a[k], merged_b[k], height[k], merged_size[k]), limit,
        )
    return count, merged_a, merged_b, height, merged_size


def _finish(d, near, nn, cid, slot_of, size, n, count, record, limit) -> int:
    """The single-instance form of `_link`'s step, on one instance's views."""
    merged_a, merged_b, height, merged_size = record
    while True:
        i = int(near.argmin())
        low = near[i]
        if not low <= limit:
            return count
        ties = np.flatnonzero(near == low)
        if len(ties) > 1:
            i = int(ties[cid[ties].argmin()])
        j = int(slot_of[nn[i]])
        if j < 0:
            cand = np.where(cid > cid[i], d[i], np.inf)
            near[i] = best = cand.min()
            ties = np.flatnonzero(cand == best)
            nn[i] = cid[ties[cid[ties].argmin()]]
            continue

        a, b = int(cid[i]), int(cid[j])
        size_a, size_b = int(size[i]), int(size[j])
        size_new = size_a + size_b
        new = n + count
        merged_a[count], merged_b[count] = a, b
        height[count], merged_size[count] = low, size_new
        count += 1

        row = (size_a * d[i] + size_b * d[j]) / size_new
        d[i] = row
        d[:, i] = row
        d[:, j] = np.inf
        cid[i], cid[j] = new, -1
        slot_of[a] = slot_of[b] = -1
        slot_of[new] = i
        size[i] = size_new
        near[i] = near[j] = np.inf
        closer = row < near
        nn[closer] = new
        near[closer] = row[closer]


def _loaded(n: np.ndarray, group: Sequence[int], load: Callable):
    """`load(group)` of instances of sizes n: the float64 bound, checked, its `_pairs`, `pairs`."""
    bound, pairs = load(group)
    bound = np.asarray(bound, dtype=np.float64)
    m = int(n.max())
    if bound.shape != (len(n), m, m):
        raise ValueError(f"expected a {(len(n), m, m)} distance tensor, got shape {bound.shape}")
    pair = _pairs(n, m)
    return _checked(bound, ~pair), pair, pairs


def _dendrograms(sizes: Sequence[int], load: Callable, limit: float) -> list[Dendrogram]:
    """Link every instance, each stopped at its first minimum above `limit`: those of two or
    more items are loaded by one `load` call (see `cluster_batch`), all of their pairs computed."""
    merges: list[tuple] = [()] * len(sizes)
    linked = [k for k, size in enumerate(sizes) if size >= 2]
    if linked:
        n = np.array([sizes[k] for k in linked], dtype=np.intp)
        bound, pair, pairs = _loaded(n, linked, load)
        d = np.empty(bound.shape)
        d[pair] = _exact(pairs, np.flatnonzero(pair), bound.shape)
        count, *merged = _link(d, *_load(d, n), n, limit)
        for i, (k, c) in enumerate(zip(linked, count.tolist())):
            merges[k] = tuple(map(Merge, *(x[i, :c].tolist() for x in merged)))
    return [Dendrogram(n=size, merges=m) for size, m in zip(sizes, merges)]


def _partition(n: int, merged_a: Sequence[int], merged_b: Sequence[int]) -> list[list[int]]:
    """The clusters left after applying the given merges to n leaves, as `cut` lists them."""
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for new, (a, b) in enumerate(zip(merged_a, merged_b), n):
        members[new] = members.pop(a) + members.pop(b)
    return sorted((sorted(c) for c in members.values()), key=lambda c: c[0])


def linkage_matrix(
    dist: np.ndarray,
    cannot_link: np.ndarray | None = None,
    *,
    trace: TextIO | None = None,
) -> Dendrogram:
    """Run constrained average-linkage clustering over a square distance matrix.

    Only the strict upper triangles of `dist` and of the boolean mask
    `cannot_link` are read; a +inf distance is cannot-link as a masked one
    is. Each step merges the minimum-distance pair of active clusters, ties
    toward the smallest creation-index pair, and the run stops when that
    minimum reaches the sentinel. When `trace` is given, one "merge <a> <b>
    <height> <size>" line per merge is written to it.
    """
    dendrogram = _dendrograms(*_one(dist, cannot_link), _BELOW_SENTINEL)[0]
    if trace is not None:
        for a, b, height, size in dendrogram.merges:
            trace.write(f"merge {a} {b} {height!r} {size}\n")
    return dendrogram


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < CANNOT_LINK:
        raise ValueError(
            f"threshold must be in (0, {CANNOT_LINK}), got {threshold}"
        )


def cut(dendrogram: Dendrogram, threshold: float) -> list[list[int]]:
    """Apply all merges with height <= threshold and return the flat partition.

    The applied merges are the prefix before the first merge above the
    threshold, so a dendrogram that stops at that merge (as the runs of
    `cluster_matrix` and `cluster_batch` do) gives the same partition as the
    full one. Clusters are listed by their smallest member index, members
    ascending.
    """
    _check_threshold(threshold)
    applied = list(takewhile(lambda m: m.height <= threshold, dendrogram.merges))
    return _partition(dendrogram.n, [m.a for m in applied], [m.b for m in applied])


def _within_budget(sizes: Sequence[int]) -> list[list[int]]:
    """Groups of indices whose padded tensor, count times largest size squared, stays within
    `CHUNK_CELLS`, taken in order of size (stable); a larger instance is a group of its own.
    Each group is ascending, and the groups come in order of their first index."""
    groups: list[list[int]] = []
    group: list[int] = []
    for k in sorted(range(len(sizes)), key=sizes.__getitem__):
        if group and (len(group) + 1) * sizes[k] ** 2 > CHUNK_CELLS:
            groups.append(sorted(group))
            group = []
        group.append(k)
    if group:
        groups.append(sorted(group))
    return sorted(groups)


def _smallest_leaves(count: np.ndarray, merged_a: np.ndarray, merged_b: np.ndarray, n: np.ndarray):
    """The smallest leaf of each leaf's cluster after the first count[k] merges of instance k.

    Takes `_link`'s merge record and returns a (B, m) array, m the tensor
    width: the leaves and merged clusters of every instance are the nodes of
    one graph whose edges join each merged cluster to its two parts.
    """
    batch, steps = merged_a.shape
    width = 2 * steps + 1
    base = np.arange(batch)[:, None] * width
    applied = np.arange(steps) < count[:, None]
    new = (base + n[:, None] + np.arange(steps))[applied]
    parts = np.concatenate([(base + merged_a)[applied], (base + merged_b)[applied]])
    label = _connected(batch * width, parts, np.concatenate([new, new]))
    return label.reshape(batch, width)[:, : steps + 1] - base


def _components(n: np.ndarray, start: np.ndarray, bound, pair, pairs, threshold: float):
    """The threshold-graph components of two or more items of a loaded chunk of instances of
    sizes n, whose items are numbered from start[k] on (see `cluster_batch`).

    Returns the items of the sub-threshold cliques and the root of each,
    numbered within its instance, then the other components' sizes and,
    concatenated over those, their items (ascending within each) and the
    distances of their blocks' strict upper triangles, row by row.
    """
    batch, m = bound.shape[:2]
    # Node k * m + i is item i of instance k, and cell (k, i, j) of the
    # tensor is flat cell (k * m + i) * m + j.
    candidate = np.flatnonzero(pair & (bound <= threshold * MARGIN))
    d = _exact(pairs, candidate, bound.shape)
    edge = d <= threshold * MARGIN
    a, j = np.divmod(candidate[edge], m)
    strong = d[edge] <= threshold / MARGIN
    node = _connected(batch * m, a, a - a % m + j)
    # Sizes and strong edges of the components, indexed by label: the smallest node.
    sizes = np.bincount(node, minlength=batch * m)
    strong = np.bincount(node[a[strong]], minlength=batch * m)
    # A component all of whose pairs are strong edges is one cluster.
    clique = (sizes >= 2) & (strong == sizes * (sizes - 1) // 2)
    settled = np.flatnonzero(clique[node])
    linked = (sizes >= 2) & ~clique
    c = sizes[linked]
    # The other components' nodes, grouped by label, ascending within.
    at = np.flatnonzero(linked[node])
    at = at[np.argsort(node[at], kind="stable")]
    row = np.repeat(at, np.repeat(c, c))
    col = at[_ranges(np.repeat(np.cumsum(c) - c, c), np.repeat(c, c))]
    upper = col > row
    return (
        start[settled // m] + settled % m, node[settled] % m, c, start[at // m] + at % m,
        _exact(pairs, row[upper] * m + col[upper] % m, bound.shape),
    )


def _link_components(c: np.ndarray, items: np.ndarray, cells: np.ndarray, threshold: float):
    """Link components as `_components` returns them, stacked within `CHUNK_CELLS`.

    Returns their items and the cluster root (smallest member) of each.
    """
    tri = c * (c - 1) // 2
    first, first_cell = np.cumsum(c) - c, np.cumsum(tri) - tri
    found = [(items[:0], items[:0])]
    # Components share a tensor even when fewer than BATCH_MIN: `_link` then
    # finishes each on views of it, after one gather for all of them.
    for group in _within_budget(c.tolist()):
        size = c[group]
        m = int(size.max())
        pair = _pairs(size, m)
        cd = np.empty(pair.shape)  # `_load` reads only the pairs
        cd[pair] = cells[_ranges(first_cell[group], tri[group])]
        count, merged_a, merged_b, _, _ = _link(cd, *_load(cd, size), size, threshold)
        leaf = _smallest_leaves(count, merged_a, merged_b, size)
        real = np.arange(m) < size[:, None]
        at = np.zeros(real.shape, dtype=np.intp)
        at[real] = items[_ranges(first[group], size)]
        found.append((at[real], at[np.arange(len(size))[:, None], leaf][real]))
    return tuple(map(np.concatenate, zip(*found)))


def cluster_batch(
    sizes: Sequence[int], load: Callable[[list[int]], tuple], *, threshold: float
) -> np.ndarray:
    """Cluster independent instances together; returns each item's cluster root, flat.

    Instance k has `sizes[k]` items. They are loaded a chunk at a time
    (`_within_budget`, in order of first index): `load(group)` returns (bound,
    pairs) for the chunk's instances of two or more items. `bound` is a
    (len(group), m, m) tensor, m their largest size, holding top left a lower
    bound on each instance's distances (as `cluster_matrix` takes them).
    `pairs(k, i, j)` returns the distances of the cells (k[p], i[p], j[p]),
    i < j, +inf where a pair is cannot-link; it is asked only for the cells
    whose bound is at most threshold * `MARGIN` and for the blocks of linked
    components. The bound and every computed distance must be nonnegative,
    not NaN (else ValueError); `dense` serves distances given in full. Each chunk is split
    into the components of its threshold graph (`_components`): a
    sub-threshold clique is one cluster at once, and the other components,
    from successive chunks together, are linked (`_link_components`). The
    bound and `pairs` are released before the next load. The result holds,
    for instance 0's items, then instance 1's and so on, the smallest member
    of the item's cluster, numbered within its instance. Each partition
    equals `cluster_matrix`.
    """
    _check_threshold(threshold)
    sizes = list(sizes)
    n = np.array(sizes, dtype=np.intp)
    start = np.cumsum(n) - n
    base = np.repeat(start, n)  # of each item's instance
    root = np.arange(len(base)) - base

    def link(pool):
        items, smallest = _link_components(*map(np.concatenate, zip(*pool)), threshold)
        root[items] = smallest - base[items]

    # The components of successive chunks are linked together, once their
    # blocks reach CHUNK_CELLS cells and at the end.
    pool: list = []
    for group in _within_budget(sizes):
        linked = [k for k in group if sizes[k] >= 2]
        if linked:
            items, roots, *part = _components(
                n[linked], start[linked], *_loaded(n[linked], linked, load), threshold
            )
            root[items] = roots
            pool.append(part)
            if sum(len(part[2]) for part in pool) >= CHUNK_CELLS:
                link(pool)
                pool = []
    if pool:
        link(pool)
    return root


def cluster_matrix(
    dist: np.ndarray, cannot_link: np.ndarray | None = None, *, threshold: float
) -> list[list[int]]:
    """Cluster n items given their square distance matrix; returns item-index clusters.

    The run stops at the first merge above `threshold`. Clusters are listed
    by their smallest member index, members ascending.
    """
    root = cluster_batch(*_one(dist, cannot_link), threshold=threshold)
    heads = np.flatnonzero(root == np.arange(len(root)))
    return [np.flatnonzero(root == r).tolist() for r in heads]
