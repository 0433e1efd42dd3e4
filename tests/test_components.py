"""`cluster_batch` links each threshold-graph component on its own, settles each sub-threshold
clique without linking it, and gets every partition that the whole instance's linkage cuts."""

from collections import Counter, defaultdict

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fcgtrack import clustering  # noqa: E402
from fcgtrack.clustering import MARGIN, cluster_batch, cut, linkage_matrix  # noqa: E402
from fcgtrack.core import _connected  # noqa: E402
from oracles import (  # noqa: E402
    brute_force_partition,
    cannot_link_mask,
    instance_partitions,
    stacked,
    with_cannot_link,
)

GRID = 0.05


def _strong_edges(threshold):
    """threshold / MARGIN, the largest distance of a clique's pairs, and one ulp on each side."""
    strong = threshold / MARGIN
    return strong, float(np.nextafter(strong, 0.0)), float(np.nextafter(strong, np.inf))


def _bridges(threshold):
    """Distances of a pair across two blobs at the edges of the cut, of the split and of the
    cliques."""
    margin = threshold * MARGIN
    return (
        threshold,
        float(np.nextafter(threshold, 0.0)),
        float(np.nextafter(threshold, np.inf)),
        margin,
        float(np.nextafter(margin, np.inf)),
        *_strong_edges(threshold),
    )


@st.composite
def blob_instances(draw):
    """(square, cannot-link pairs, threshold, quantised): blobs of items whose distances
    across two blobs are at least twice the threshold, but for bridging pairs at the cut's and
    the split's edges, with cannot-link pairs inside blobs and pairs inside blobs at the edge of
    the cliques. The items of the blobs are shuffled. Quantised instances draw every other
    distance, and the threshold, from a 0.05 grid."""
    quantised = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blobs = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    n = sum(blobs)
    blob = np.repeat(np.arange(len(blobs)), blobs)[rng.permutation(n)]
    if quantised:
        threshold = GRID * draw(st.integers(1, 5))
        steps = round(threshold / GRID)
        near = GRID * rng.integers(0, round(1.5 * steps) + 1, (n, n))
        far = GRID * rng.integers(2 * steps, round(1.0 / GRID) + 2 * steps + 1, (n, n))
    else:
        threshold = draw(st.floats(0.01, 0.5))
        near = rng.uniform(0.0, 1.5 * threshold, (n, n))
        far = rng.uniform(2.0 * threshold, 1.0 + 2.0 * threshold, (n, n))
    same = blob[:, None] == blob[None, :]
    square = np.where(same, near, far)
    across = [(i, j) for i in range(n) for j in range(i + 1, n) if blob[i] != blob[j]]
    inside = [(i, j) for i in range(n) for j in range(i + 1, n) if blob[i] == blob[j]]
    if across:
        for k in draw(st.lists(st.integers(0, len(across) - 1), max_size=4)):
            i, j = across[k]
            square[i, j] = draw(st.sampled_from(_bridges(threshold)))
    if inside:
        for k in draw(st.lists(st.integers(0, len(inside) - 1), max_size=4)):
            i, j = inside[k]
            square[i, j] = draw(st.sampled_from(_strong_edges(threshold)))
    square = np.triu(square, 1)
    square = square + square.T
    cannot = []
    if inside:
        picks = draw(st.lists(st.integers(0, len(inside) - 1), max_size=3, unique=True))
        cannot = [inside[k] for k in picks]
    return square, cannot, threshold, quantised


def _counting(paths, name, function, amount):
    def counted(*args):
        out = function(*args)
        paths[name] += amount(out)
        return out

    return counted


def test_components_cut_as_the_whole_instance(monkeypatch):
    # Both ways of settling a component run: `_link` (calls) and cliques (their items, the
    # first array `_components` returns).
    paths = Counter()
    monkeypatch.setattr(
        clustering, "_link", _counting(paths, "link", clustering._link, lambda out: 1)
    )
    monkeypatch.setattr(
        clustering, "_components",
        _counting(paths, "clique", clustering._components, lambda out: len(out[0])),
    )
    _check_components_cut_as_the_whole_instance()
    assert paths["clique"] > 0 and paths["link"] > 0


@settings(max_examples=300, deadline=None)
@given(st.lists(blob_instances(), min_size=1, max_size=3), st.integers(0, 2))
def _check_components_cut_as_the_whole_instance(instances, pick):
    # One threshold for the batch: that of one of its instances.
    threshold = instances[pick % len(instances)][2]
    sizes = [len(square) for square, *_ in instances]

    def load_one(k):
        square, cannot, *_ = instances[k]
        return square, cannot_link_mask(cannot, len(square))

    roots = cluster_batch(sizes, stacked(load_one), threshold=threshold)
    for (square, cannot, _, quantised), got in zip(instances, instance_partitions(sizes, roots)):
        assert got == cut(linkage_matrix(with_cannot_link(square, cannot)), threshold)
        if not quantised:
            # The oracle takes means with `np.mean`, which rounds otherwise than the linkage's
            # updates: on ties of the grid the two may differ by ulps, so only continuous
            # instances are compared with it.
            assert got == brute_force_partition(len(square), square, cannot, threshold)


def test_separated_sub_threshold_blobs_are_never_linked(monkeypatch):
    rng = np.random.default_rng(62)
    threshold = 0.1
    instances = []
    for _ in range(40):
        blobs = rng.integers(1, 7, rng.integers(1, 6))
        n = int(blobs.sum())
        blob = np.repeat(np.arange(len(blobs)), blobs)[rng.permutation(n)]
        square = np.where(
            blob[:, None] == blob[None, :],
            rng.uniform(0.0, threshold / MARGIN, (n, n)),
            rng.uniform(2 * threshold, 1.0, (n, n)),
        )
        square = np.triu(square, 1)
        instances.append((square + square.T, blob))
    sizes = [len(square) for square, _ in instances]
    links = []
    with monkeypatch.context() as patched:
        patched.setattr(clustering, "_link", lambda *args: links.append(args))
        roots = cluster_batch(
            sizes, stacked(lambda k: (instances[k][0], None)), threshold=threshold
        )
    assert not links
    for (square, blob), got in zip(instances, instance_partitions(sizes, roots)):
        assert got == cut(linkage_matrix(square), threshold)
        assert got == sorted(np.flatnonzero(blob == b).tolist() for b in set(blob.tolist()))


def test_cliques_whose_means_round_up_are_one_cluster(monkeypatch):
    # Every pair at threshold / MARGIN, the largest strong distance: the size-weighted means of
    # some sizes round above it, and stay within the cut. Every pair at the threshold itself:
    # some means round above the cut, so such a component is linked and splits.
    rounded_up = split = 0
    for threshold in (0.1, 0.2, 0.3):
        strong = threshold / MARGIN
        for n in range(2, 13):
            square = np.full((n, n), strong)
            heights = [m.height for m in linkage_matrix(square).merges]
            rounded_up += max(heights) > strong
            assert cut(linkage_matrix(square), threshold) == [list(range(n))]
            with monkeypatch.context() as patched:
                patched.setattr(clustering, "_link", None)  # a clique is never linked
                assert clustering.cluster_matrix(square, threshold=threshold) == [list(range(n))]
            square = np.full((n, n), threshold)
            expected = cut(linkage_matrix(square), threshold)
            split += len(expected) > 1
            assert clustering.cluster_matrix(square, threshold=threshold) == expected
    assert rounded_up and split


def _search_components(count, a, b):
    adjacent = defaultdict(set)
    for x, y in zip(a.tolist(), b.tolist()):
        adjacent[x].add(y)
        adjacent[y].add(x)
    label = list(range(count))
    for start in range(count):
        if label[start] != start:
            continue
        stack = [start]
        while stack:
            for y in adjacent[stack.pop()]:
                if label[y] == y and y != start:
                    label[y] = start
                    stack.append(y)
    return label


def test_connected_labels_each_node_by_its_components_smallest_node():
    rng = np.random.default_rng(90)
    for _ in range(300):
        count = int(rng.integers(1, 40))
        edges = int(rng.integers(0, 2 * count))
        a, b = rng.integers(0, count, (2, edges))
        assert _connected(count, a, b).tolist() == _search_components(count, a, b)
