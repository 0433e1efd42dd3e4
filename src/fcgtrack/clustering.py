"""Constrained average-linkage agglomerative clustering with a threshold cut.

Clusters are merged greedily by minimum current distance. Inter-cluster
distance is the arithmetic mean over all member pairs, maintained through the
size-weighted update

    d(K+L, M) = (|K| * d(K, M) + |L| * d(L, M)) / (|K| + |L|)

Cannot-link constraints are enforced two ways at once: constrained pair
distances are pinned to a large finite sentinel, and a merged cluster inherits
the cannot-link partners of both inputs, so dilution of the sentinel through
averaging can never co-cluster a forbidden pair. An unconstrained pair whose
distance merely equals the sentinel is diluted like any other distance.

The core, `linkage_matrix`, works on a dense square matrix and a boolean
cannot-link mask. Every step merges the global minimum pair among the active
clusters, in the spirit of Muellner's generic algorithm (arXiv:1109.2378): a
per-row cache holds each row's nearest later-created neighbour, or a lower
bound on it once that neighbour was merged away, and a row is rescanned only
when its bound is the smallest. Ties on the minimum go to the
lexicographically smallest pair of creation indices (a, b), a < b: leaves are
0..n-1 and the k-th merge creates n+k. The merged cluster reuses the slot of
`a`, and slots are compared through their creation indices, so slot reuse
never moves a tie. The merged row is computed as (|K| * D[K] + |L| * D[L]) /
(|K| + |L|), elementwise and in that order, and entries between surviving
clusters are never recomputed, so every height is bit-identical to the same
update done one pair at a time. Nearest-neighbour chains would reorder the
updates and so move heights by ulps, which can flip ties.

`linkage` (condensed matrix plus constraint set) and `cluster` (items plus a
pairwise metric) are adapters onto the same core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence, TextIO

import numpy as np

from .core import _frozen_array

# Distance assigned to forbidden pairs; strictly above any admissible cut
# threshold, kept finite so weighted averages stay finite.
CANNOT_LINK = 1.0e6


def condensed_size(n: int) -> int:
    return n * (n - 1) // 2


def condensed_index(n: int, i: int, j: int) -> int:
    """Index of pair (i, j), i < j, in a row-major upper-triangle layout."""
    if not 0 <= i < j < n:
        raise IndexError(f"bad pair ({i}, {j}) for n={n}")
    return n * i - i * (i + 1) // 2 + (j - i - 1)


@dataclass(frozen=True)
class CondensedMatrix:
    """Upper-triangle pairwise distances for n items, row-major."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        vals = _frozen_array(self.values)
        if vals.shape != (condensed_size(self.n),):
            raise ValueError(
                f"expected {condensed_size(self.n)} condensed entries for n={self.n}, "
                f"got {vals.shape}"
            )
        if self.n and vals.size and not np.all(vals >= 0.0):
            raise ValueError("distances must be nonnegative")
        object.__setattr__(self, "values", vals)

    def get(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        if i > j:
            i, j = j, i
        return float(self.values[condensed_index(self.n, i, j)])


@dataclass(frozen=True)
class ConstraintSet:
    """Unordered item-index pairs that may never share a cluster."""

    cannot_link: frozenset[tuple[int, int]]

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, int]] = ()) -> "ConstraintSet":
        normalized = set()
        for a, b in pairs:
            if a == b:
                raise ValueError(f"cannot-link pair must be irreflexive, got ({a}, {b})")
            normalized.add((a, b) if a < b else (b, a))
        return cls(frozenset(normalized))

    def forbids(self, i: int, j: int) -> bool:
        return ((i, j) if i < j else (j, i)) in self.cannot_link

    def mask(self, n: int) -> np.ndarray:
        """Symmetric (n, n) boolean matrix, True at every forbidden pair."""
        mask = np.zeros((n, n), dtype=bool)
        for a, b in self.cannot_link:
            if not (0 <= a < n and 0 <= b < n):
                raise IndexError(f"constraint ({a}, {b}) outside item range 0..{n - 1}")
            mask[a, b] = mask[b, a] = True
        return mask


EMPTY_CONSTRAINTS = ConstraintSet.of()


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


def linkage_matrix(
    dist: np.ndarray,
    cannot_link: np.ndarray | None = None,
    *,
    trace: TextIO | None = None,
) -> Dendrogram:
    """Run constrained average-linkage clustering over a square distance matrix.

    Only the strict upper triangles of `dist` and of the boolean mask
    `cannot_link` are read. Each step merges the minimum-distance pair of
    active clusters, ties toward the smallest creation-index pair, and the
    run stops when that minimum reaches the sentinel. When `trace` is given,
    one "merge <a> <b> <height> <size>" line per merge is written to it.
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0] if dist.ndim == 2 else -1
    if dist.shape != (n, n):
        raise ValueError(f"expected a square distance matrix, got shape {dist.shape}")
    upper = np.triu(dist, 1)
    if not np.all(upper >= 0.0):
        raise ValueError("distances must be nonnegative, not NaN")
    if cannot_link is None:
        mask = np.zeros((n, n), dtype=bool)
    else:
        mask = np.triu(np.asarray(cannot_link, dtype=bool), 1)
        if mask.shape != (n, n):
            raise ValueError(f"cannot-link mask shape {mask.shape} does not match n={n}")
    mask |= mask.T
    d = upper + upper.T
    d[mask] = CANNOT_LINK
    # The diagonal and the columns of merged-away clusters hold +inf, so
    # averaged rows stay +inf there and never look like a closer neighbour.
    np.fill_diagonal(d, np.inf)
    if n < 2:
        return Dendrogram(n=n, merges=())

    # Slot s holds the cluster with creation index cid[s], -1 once retired;
    # slot_of inverts it for live clusters.
    cid = np.arange(n)
    slot_of = np.full(2 * n - 1, -1)
    slot_of[:n] = cid
    size = [1] * n
    # Row cache: the nearest later-created neighbour of each row, by creation
    # index, and its distance. Once that neighbour is merged away the distance
    # is only a lower bound, and the row is rescanned when it is the minimum.
    later = np.where(np.tri(n, dtype=bool), np.inf, d)
    nn = later.argmin(axis=1)  # first of equal minima: smallest creation index
    near = later[cid, nn]
    del later

    merges: list[Merge] = []
    while True:
        i = int(near.argmin())
        low = near[i]
        if not low < CANNOT_LINK:
            break
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
        size_a, size_b = size[i], size[j]
        size_new = size_a + size_b
        new = n + len(merges)
        merges.append(Merge(a, b, float(low), size_new))
        if trace is not None:
            trace.write(f"merge {a} {b} {float(low)!r} {size_new}\n")

        row = (size_a * d[i] + size_b * d[j]) / size_new
        linked = mask[i] | mask[j]
        row[linked] = CANNOT_LINK
        # The new cluster takes slot i; slot j retires.
        d[i] = row
        d[:, i] = row
        d[:, j] = np.inf
        mask[i] = linked
        mask[:, i] = linked
        mask[:, j] = False
        cid[i], cid[j] = new, -1
        slot_of[a] = slot_of[b] = -1
        slot_of[new] = i
        size[i] = size_new
        near[i] = near[j] = np.inf  # the newest cluster has no later neighbour

        # The new cluster is every live row's latest candidate. As the largest
        # creation index it replaces a cached neighbour only when strictly
        # closer; a row whose bound it undercuts has it as exact minimum.
        closer = row < near
        nn[closer] = new
        near[closer] = row[closer]

    return Dendrogram(n=n, merges=tuple(merges))


def linkage(
    matrix: CondensedMatrix,
    constraints: ConstraintSet = EMPTY_CONSTRAINTS,
    *,
    trace: TextIO | None = None,
) -> Dendrogram:
    """`linkage_matrix` over a condensed matrix and a set of cannot-link pairs."""
    n = matrix.n
    square = np.zeros((n, n), dtype=np.float64)
    square[np.triu_indices(n, 1)] = matrix.values
    return linkage_matrix(square, constraints.mask(n), trace=trace)


def cut(dendrogram: Dendrogram, threshold: float) -> list[list[int]]:
    """Apply all merges with height <= threshold and return the flat partition.

    Clusters are listed by their smallest member index, members ascending.
    """
    if not 0.0 < threshold < CANNOT_LINK:
        raise ValueError(
            f"threshold must be in (0, {CANNOT_LINK}), got {threshold}"
        )
    members: dict[int, list[int]] = {i: [i] for i in range(dendrogram.n)}
    for k, merge in enumerate(dendrogram.merges):
        # Heights are nondecreasing, so the applicable merges are a prefix.
        if merge.height > threshold:
            break
        members[dendrogram.n + k] = members.pop(merge.a) + members.pop(merge.b)
    return sorted((sorted(c) for c in members.values()), key=lambda c: c[0])


def cluster_matrix(
    dist: np.ndarray, cannot_link: np.ndarray | None = None, *, threshold: float
) -> list[list[int]]:
    """Cluster n items given their square distance matrix; returns item-index clusters."""
    return cut(linkage_matrix(dist, cannot_link), threshold)


def cluster(
    items: Sequence,
    metric: Callable,
    constraints: ConstraintSet = EMPTY_CONSTRAINTS,
    *,
    threshold: float,
) -> list[list[int]]:
    """Cluster items under a pairwise metric; returns item-index clusters."""
    n = len(items)
    if n == 0:
        return []
    values = [metric(items[i], items[j]) for i in range(n) for j in range(i + 1, n)]
    matrix = CondensedMatrix(n=n, values=np.array(values, dtype=np.float64))
    return cut(linkage(matrix, constraints), threshold)
