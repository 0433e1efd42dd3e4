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
creates n+k. A merged cluster takes the smaller of its two slots, so each
slot holds its cluster's smallest leaf, its root. That moves no tie and no
bit: ties compare creation indices, never slots, the merged row is computed
before it is placed, and both slots leave the row cache either way.
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
computed in full; besides those, only candidate cells, edges among them.
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
each step of `_link`, the one linkage loop, advances every live component at
once with the same elementwise arithmetic, so each component's merges are
exactly those of a run on its own. A component stops at its first minimum
above the cut threshold; `cut` would discard that merge and all later ones.
The loop runs until no component is live. Instances are loaded a chunk at a
time (`_within_budget`), however few share a chunk, and the components of
successive chunks are linked together, so that no padded tensor exceeds
`CHUNK_CELLS` cells.

`linkage_matrix` (full dendrogram of one square matrix) runs the same core.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import CANNOT_LINK, _connected, _ranges

# Slack of the component split's edges, d <= threshold * MARGIN, and of the
# cliques' strong edges, d <= threshold / MARGIN: more than the relative
# rounding of any height (see the module docstring).
MARGIN = 1.0 + 2.0**-19

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


def dense(dist):
    """`cluster_batch`'s `load` result for a (B, m, m) distance tensor given in full, +inf at
    its cannot-link cells: the candidates are the cells not above the limit, so every negative
    or NaN one in a block is read and rejected, and `pairs` is a flat take."""
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 3 or dist.shape[1] != dist.shape[2]:
        raise ValueError(f"expected a (B, m, m) distance tensor, got shape {dist.shape}")
    return lambda limit: np.flatnonzero(~(dist > limit)), lambda cells: np.take(dist, cells)


def _one(dist):
    """`sizes` and `load` of a single instance given as a square matrix (see `dense`)."""
    loaded = dense(np.asarray(dist)[None])
    return [len(dist)], lambda _: loaded


def _pairs(n: np.ndarray, m: int) -> np.ndarray:
    """The strict upper triangles of the blocks [k, :n[k], :n[k]] of a (len(n), m, m) tensor."""
    pos = np.arange(m)
    return (pos[:, None] < pos) & (pos < n[:, None, None])


def _exact(pairs: Callable, cells: np.ndarray) -> np.ndarray:
    """`pairs` of these flat cells of a `load` tensor, checked nonnegative, not NaN; `pairs`
    is not called for no cells."""
    if not len(cells):
        return np.zeros(0)
    dist = np.asarray(pairs(cells), dtype=np.float64)
    if dist.shape != cells.shape:
        raise ValueError(f"expected {len(cells)} pair distances")
    if not (dist >= 0.0).all():
        raise ValueError("distances must be nonnegative, not NaN")
    return dist


def _load(n: np.ndarray, upper: np.ndarray):
    """The working tensor of instances of sizes n and its row cache.

    `upper` holds the strict upper triangles of the instances' blocks, +inf
    at their cannot-link pairs, concatenated row by row. Returns the (B, m, m)
    tensor that holds each block d[k, :n[k], :n[k]] mirrored, with +inf on the
    diagonal and outside the blocks, then each row's distance to its nearest
    later-created neighbour (the first of equal minima) and that neighbour.
    """
    pair = _pairs(n, int(n.max()))
    # The diagonal and the columns of merged-away clusters hold +inf, so
    # averaged rows stay +inf there and never look like a closer neighbour.
    d = np.full(pair.shape, np.inf)
    d[pair] = upper
    near, nn = d.min(axis=2), d.argmin(axis=2)
    np.minimum(d, d.transpose(0, 2, 1), out=d)
    return d, near, nn


def _link(d, near, nn, n, limit: float):
    """Merge every instance of the working tensor until its minimum exceeds `limit`.

    Instance k owns d[k, :n[k], :n[k]] as `_load` wrote it, the rest of its
    slice is +inf, and its `near`/`nn` rows are the row cache; all three are
    overwritten. This is the one linkage loop: each step advances every live
    instance by one merge or one row rescan, a single instance alone as well
    as many, until none is live. Returns the (B, m) root of every leaf, the
    smallest leaf of its cluster, the merge count per instance and (B, m-1)
    arrays of the merged creation indices a < b, the heights and the new sizes.
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
    into = np.tile(slots, (batch, 1))  # the slot that each retired slot merged into
    above = 2 * m  # larger than every creation index

    live = np.flatnonzero(n >= 2)
    while len(live):
        rows = near[live]
        low = rows.min(axis=1)
        going = low <= limit
        if not going.all():
            live, rows, low = live[going], rows[going], low[going]
            if not len(live):
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
            if stale.all():
                continue  # no instance merges in this step
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
        # The new cluster takes the smaller slot, its smallest leaf; the other retires.
        i, j = np.minimum(i, j), np.maximum(i, j)
        into[at, j] = i
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

    # Pointer jumping: each slot ends at the slot its cluster holds at the end.
    while not np.array_equal(hop := np.take_along_axis(into, into, axis=1), into):
        into = hop
    return into, count, merged_a, merged_b, height, merged_size


def _dendrograms(sizes: Sequence[int], load: Callable, limit: float) -> list[Dendrogram]:
    """Link every instance, each stopped at its first minimum above `limit`: those of two or
    more items are loaded by one `load` call (see `cluster_batch`), all of their pairs computed."""
    merges: list[tuple] = [()] * len(sizes)
    linked = [k for k, size in enumerate(sizes) if size >= 2]
    if linked:
        n = np.array([sizes[k] for k in linked], dtype=np.intp)
        upper = _exact(load(linked)[1], np.flatnonzero(_pairs(n, int(n.max()))))
        _, count, *merged = _link(*_load(n, upper), n, limit)
        for i, (k, c) in enumerate(zip(linked, count.tolist())):
            merges[k] = tuple(map(Merge, *(x[i, :c].tolist() for x in merged)))
    return [Dendrogram(n=size, merges=m) for size, m in zip(sizes, merges)]


def _partition(n: int, merged_a: Sequence[int], merged_b: Sequence[int]) -> list[list[int]]:
    """The clusters left after applying the given merges to n leaves, as `cut` lists them."""
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for new, (a, b) in enumerate(zip(merged_a, merged_b), n):
        members[new] = members.pop(a) + members.pop(b)
    return sorted((sorted(c) for c in members.values()), key=lambda c: c[0])


def linkage_matrix(dist: np.ndarray) -> Dendrogram:
    """Run constrained average-linkage clustering over a square distance matrix.

    Only the strict upper triangle of `dist` is read; a +inf distance is
    cannot-link. Each step merges the minimum-distance pair of active
    clusters, ties toward the smallest creation-index pair, and the run stops
    when that minimum reaches the sentinel.
    """
    return _dendrograms(*_one(dist), _BELOW_SENTINEL)[0]


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < CANNOT_LINK:
        raise ValueError(f"threshold must be in (0, {CANNOT_LINK}), got {threshold}")


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


def _components(n: np.ndarray, start: np.ndarray, candidates, pairs, threshold: float):
    """The threshold-graph components of two or more items of a loaded chunk of instances of
    sizes n, whose items are numbered from start[k] on (see `cluster_batch`).

    Returns the items of the sub-threshold cliques and the root of each,
    numbered within its instance, then the other components' sizes and,
    concatenated over those, their items (ascending within each) and the
    distances of their blocks' strict upper triangles, row by row.
    """
    batch, m = len(n), int(n.max())
    cells = np.asarray(candidates(threshold * MARGIN), dtype=np.intp)
    if not (np.diff(cells, prepend=-1, append=batch * m * m) > 0).all():
        raise ValueError(f"expected ascending cells of a {(batch, m, m)} tensor")
    # Node a = k * m + i is item i of instance k, and cell (k, i, j) is flat
    # cell a * m + j, in its block's strict upper triangle when i < j < n[k].
    a, j = np.divmod(cells, m)
    upper = (j > a % m) & (j < n[a // m])
    a, j = a[upper], j[upper]
    d = _exact(pairs, cells[upper])
    edge = d <= threshold * MARGIN
    a, j = a[edge], j[edge]
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
        _exact(pairs, row[upper] * m + col[upper] % m),
    )


def _link_components(c: np.ndarray, items: np.ndarray, cells: np.ndarray, threshold: float):
    """Link components as `_components` returns them, stacked within `CHUNK_CELLS`.

    Returns the cluster root (smallest member) of each of their items.
    """
    tri = c * (c - 1) // 2
    first, first_cell = np.cumsum(c) - c, np.cumsum(tri) - tri
    smallest = items.copy()
    # Components share a tensor however few they are: one gather for all of
    # them, and `_link` steps them together until the last one stops.
    for group in _within_budget(c.tolist()):
        size = c[group]
        upper = cells[_ranges(first_cell[group], tri[group])]
        leaf = _link(*_load(size, upper), size, threshold)[0]
        real = np.arange(leaf.shape[1]) < size[:, None]
        smallest[_ranges(first[group], size)] = items[(first[group][:, None] + leaf)[real]]
    return smallest


def cluster_batch(
    sizes: Sequence[int], load: Callable[[list[int]], tuple], *, threshold: float
) -> np.ndarray:
    """Cluster independent instances together; returns each item's cluster root, flat.

    Instance k has `sizes[k]` items. They are loaded a chunk at a time
    (`_within_budget`, in order of first index): `load(group)` returns
    (candidates, pairs) for the chunk's instances of two or more items, over
    the flat cells of a (len(group), m, m) tensor, m their largest size, that
    holds each instance's distances top left (as `cluster_matrix` takes them).
    `candidates(limit)` returns ascending cells, among them every cell i < j of
    a block whose distance is at most `limit`, and `pairs(cells)` the
    distances of the given flat cells, +inf where a pair is cannot-link, each
    nonnegative, not NaN (else ValueError). `pairs` is asked only for the
    candidates in a block at threshold * `MARGIN` and for the blocks of linked
    components, never for no cells; `dense` serves distances given in full.
    Each chunk is split into the components of its threshold graph (`_components`):
    a sub-threshold clique is one cluster at once, and the other components,
    from successive chunks together, are linked (`_link_components`). A load
    is released before the next. The result holds, for instance 0's items,
    then instance 1's and so on, the smallest member of the item's cluster,
    numbered within its instance. Each partition equals `cluster_matrix`.
    """
    _check_threshold(threshold)
    sizes = list(sizes)
    n = np.array(sizes, dtype=np.intp)
    start = np.cumsum(n) - n
    base = np.repeat(start, n)  # of each item's instance
    root = np.arange(len(base)) - base

    def link(pool):
        c, items, cells = map(np.concatenate, zip(*pool))
        root[items] = _link_components(c, items, cells, threshold) - base[items]

    # The components of successive chunks are linked together, once their
    # blocks reach CHUNK_CELLS cells and at the end.
    pool: list = []
    for group in _within_budget(sizes):
        linked = [k for k in group if sizes[k] >= 2]
        if linked:
            items, roots, *part = _components(
                n[linked], start[linked], *load(linked), threshold
            )
            root[items] = roots
            if len(part[0]):
                pool.append(part)
            if sum(len(part[2]) for part in pool) >= CHUNK_CELLS:
                link(pool)
                pool = []
    if pool:
        link(pool)
    return root


def cluster_matrix(dist: np.ndarray, *, threshold: float) -> list[list[int]]:
    """Cluster n items given their square distance matrix, +inf at its cannot-link pairs;
    returns item-index clusters.

    The run stops at the first merge above `threshold`. Clusters are listed
    by their smallest member index, members ascending.
    """
    root = cluster_batch(*_one(dist), threshold=threshold)
    heads = np.flatnonzero(root == np.arange(len(root)))
    return [np.flatnonzero(root == r).tolist() for r in heads]
