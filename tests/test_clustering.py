import io
import weakref

import numpy as np
import pytest

from fcgtrack import clustering
from fcgtrack.clustering import (
    _BELOW_SENTINEL,
    BATCH_MIN,
    CANNOT_LINK,
    _dendrograms,
    cluster_batch,
    cluster_matrix,
    cut,
    dense,
    linkage_matrix,
)
from oracles import (
    brute_force_partition,
    cannot_link_mask,
    heap_linkage,
    instance_partitions,
    stacked,
)

THREE = np.array(
    [
        [0.0, 0.1, 0.9],
        [0.1, 0.0, 0.8],
        [0.9, 0.8, 0.0],
    ]
)


class TestLinkage:
    def test_single_item_no_merges(self):
        d = linkage_matrix(np.zeros((1, 1)))
        assert d.n == 1 and d.merges == ()

    def test_three_item_example(self):
        d = linkage_matrix(THREE)
        assert len(d.merges) == 2
        a, b, height, size = d.merges[0]
        assert (a, b, size) == (0, 1, 2)
        assert height == pytest.approx(0.1, abs=1e-12)
        a, b, height, size = d.merges[1]
        assert (a, b, size) == (2, 3, 3)
        assert height == pytest.approx(0.85, abs=1e-12)

    def test_three_item_example_constrained(self):
        d = linkage_matrix(THREE, cannot_link_mask([(0, 1)], 3))
        # next-smallest admissible pair merges, then only the sentinel remains
        assert len(d.merges) == 1
        a, b, height, size = d.merges[0]
        assert (a, b, size) == (1, 2, 2)
        assert height == pytest.approx(0.8, abs=1e-12)

    def test_lexicographic_tie_break(self):
        m = np.array(
            [
                [0.0, 0.5, 0.2],
                [0.5, 0.0, 0.2],
                [0.2, 0.2, 0.0],
            ]
        )
        d = linkage_matrix(m)
        assert d.merges[0].a == 0 and d.merges[0].b == 2

    def test_heights_nondecreasing(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            square = rng.uniform(0, 1, (n, n))
            square = (square + square.T) / 2
            np.fill_diagonal(square, 0.0)
            d = linkage_matrix(square)
            heights = [m.height for m in d.merges]
            assert all(h2 >= h1 for h1, h2 in zip(heights, heights[1:]))
            inputs = [m.a for m in d.merges] + [m.b for m in d.merges]
            assert len(inputs) == len(set(inputs))

    def test_trace_dump(self):
        buf = io.StringIO()
        linkage_matrix(THREE, trace=buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "merge 0 1 0.1 2"
        assert lines[1].startswith("merge 2 3 0.85")
        assert lines[1].endswith(" 3")

    def test_no_trace_by_default(self):
        # linkage_matrix only writes when a stream is passed in
        d = linkage_matrix(THREE)
        assert d.merges


class TestCut:
    def test_below_all_heights_gives_singletons(self):
        d = linkage_matrix(THREE)
        assert cut(d, 0.05) == [[0], [1], [2]]

    def test_intermediate_threshold(self):
        d = linkage_matrix(THREE)
        assert cut(d, 0.5) == [[0, 1], [2]]

    def test_threshold_at_merge_height_included(self):
        d = linkage_matrix(THREE)
        assert cut(d, 0.9) == [[0, 1, 2]]

    def test_rejects_threshold_at_sentinel(self):
        d = linkage_matrix(THREE)
        with pytest.raises(ValueError):
            cut(d, CANNOT_LINK)
        with pytest.raises(ValueError):
            cut(d, 0.0)


def random_instance(rng):
    n = int(rng.integers(1, 13))
    square = rng.uniform(0, 1, (n, n))
    square = (square + square.T) / 2
    np.fill_diagonal(square, 0.0)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    density = rng.uniform(0, 0.3)
    cannot = [p for p in pairs if rng.random() < density]
    threshold = float(rng.uniform(0.01, 1.2))
    return n, square, cannot, threshold


class TestAgainstBruteForce:
    def test_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(250):
            n, square, cannot, threshold = random_instance(rng)
            got = cut(linkage_matrix(square, cannot_link_mask(cannot, n)), threshold)
            expected = brute_force_partition(n, square, cannot, threshold)
            assert got == expected

    def test_constraint_safety_any_threshold(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            n, square, cannot, _ = random_instance(rng)
            if not cannot:
                continue
            dend = linkage_matrix(square, cannot_link_mask(cannot, n))
            for threshold in (0.02, 0.5, 1.0, CANNOT_LINK / 2):
                part = cut(dend, threshold)
                membership = {}
                for ci, members in enumerate(part):
                    for m in members:
                        membership[m] = ci
                for a, b in cannot:
                    assert membership[a] != membership[b]

    def test_deterministic_with_ties(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            n = int(rng.integers(3, 10))
            # draw from a coarse grid to force duplicated distances
            square = rng.choice([0.1, 0.2, 0.3], size=(n, n))
            square = np.triu(square, 1) + np.triu(square, 1).T
            first = linkage_matrix(square)
            for _ in range(3):
                assert linkage_matrix(square) == first

    def test_permutation_invariance_up_to_relabeling(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            n, square, cannot, threshold = random_instance(rng)
            base = cut(linkage_matrix(square, cannot_link_mask(cannot, n)), threshold)
            perm = rng.permutation(n)
            permuted_square = square[np.ix_(perm, perm)]
            permuted_cannot = [
                (int(np.where(perm == a)[0][0]), int(np.where(perm == b)[0][0]))
                for a, b in cannot
            ]
            permuted = cut(
                linkage_matrix(permuted_square, cannot_link_mask(permuted_cannot, n)),
                threshold,
            )
            # map permuted indices back to original labels
            mapped = sorted(
                sorted(int(perm[i]) for i in members) for members in permuted
            )
            assert mapped == sorted(sorted(c) for c in base)


class TestLinkageMatrix:
    def test_reads_upper_triangle_only(self):
        square = np.array([[0.0, 0.1, 0.9], [7.0, 0.0, 0.8], [7.0, 7.0, 0.0]])
        assert linkage_matrix(square) == linkage_matrix(THREE)

    def test_mask_pins_pair(self):
        square = np.array([[0.0, 0.1, 0.9], [0.1, 0.0, 0.8], [0.9, 0.8, 0.0]])
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 1] = True
        assert linkage_matrix(square, mask) == linkage_matrix(THREE, cannot_link_mask([(0, 1)], 3))

    def test_empty_and_single(self):
        assert linkage_matrix(np.zeros((0, 0))).merges == ()
        assert linkage_matrix(np.zeros((1, 1))).merges == ()
        assert cluster_matrix(np.zeros((0, 0)), threshold=0.5) == []

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            linkage_matrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            linkage_matrix(np.array([[0.0, -0.1], [-0.1, 0.0]]))
        for bad in (np.nan, -0.5):
            with pytest.raises(ValueError):
                linkage_matrix(np.array([[0.0, bad], [bad, 0.0]]))
        with pytest.raises(ValueError):
            linkage_matrix(np.zeros((2, 2)), np.zeros((3, 3), dtype=bool))

    def test_tie_goes_to_creation_order_not_slot_order(self):
        # Merging 0 and 1 puts cluster 4 into slot 0. Afterwards (2, 3),
        # (2, 4) and (3, 4) tie at 0.5; the creation-index pair (2, 3) wins
        # although cluster 4 sits in the lowest slot.
        square = np.array(
            [
                [0.0, 0.1, 0.5, 0.5],
                [0.1, 0.0, 0.5, 0.5],
                [0.5, 0.5, 0.0, 0.5],
                [0.5, 0.5, 0.5, 0.0],
            ]
        )
        merges = linkage_matrix(square).merges
        assert [(m.a, m.b) for m in merges] == [(0, 1), (2, 3), (4, 5)]
        assert [(m.a, m.b) for m in merges] == [m[:2] for m in heap_linkage(square)]

    def test_cluster_matrix_matches_cluster(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            n, square, cannot, threshold = random_instance(rng)
            mask = cannot_link_mask(cannot, n)
            expected = brute_force_partition(n, square, cannot, threshold)
            assert cluster_matrix(square, mask, threshold=threshold) == expected


def _tied_instance(rng):
    n, square, cannot, _ = random_instance(rng)
    square = np.round(square * 10.0) / 10.0
    return square, cannot


def _diluted_sentinel_instance(rng):
    # Stage-2 interleaved pairs: the sentinel as a plain value, no constraint.
    n, square, cannot, _ = random_instance(rng)
    interleaved = np.triu(rng.random((n, n)) < rng.uniform(0, 0.5), 1)
    square[interleaved | interleaved.T] = CANNOT_LINK
    return square, cannot[: len(cannot) // 2]


class TestAgainstHeapLinkage:
    """The array core reproduces the dict-and-heap linkage merge for merge."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: random_instance(rng)[1:3],
            _tied_instance,
            _diluted_sentinel_instance,
        ],
        ids=["continuous", "quantised", "diluted_sentinel"],
    )
    def test_same_merges(self, make):
        rng = np.random.default_rng(47)
        for _ in range(1000):
            square, cannot = make(rng)
            n = square.shape[0]
            got = linkage_matrix(square, cannot_link_mask(cannot, n)).merges
            expected = heap_linkage(square, cannot)
            assert len(got) == len(expected)
            for merge, (a, b, height, size) in zip(got, expected):
                assert (merge.a, merge.b, merge.size) == (a, b, size)
                assert merge.height == height


def _sized_instance(rng, n, kind):
    """A symmetric (n, n) matrix and cannot-link pairs of one generator kind."""
    square = rng.uniform(0, 1, (n, n))
    square = (square + square.T) / 2
    np.fill_diagonal(square, 0.0)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    density = rng.uniform(0, 0.3)
    cannot = [p for p in pairs if rng.random() < density]
    if kind == "quantised":
        square = np.round(square * 10.0) / 10.0
    elif kind == "diluted_sentinel":
        interleaved = np.triu(rng.random((n, n)) < rng.uniform(0, 0.5), 1)
        square[interleaved | interleaved.T] = CANNOT_LINK
        cannot = cannot[: len(cannot) // 2]
    return square, cannot


def _random_batch(rng, kinds=("continuous", "quantised", "diluted_sentinel")):
    # Up to three times the handover size, so that most batches start batched
    # and hand their last live instances to the single-instance loop.
    count = int(rng.integers(1, 3 * BATCH_MIN))
    sizes = rng.integers(0, 41, count).tolist()
    return [_sized_instance(rng, n, kinds[int(rng.integers(len(kinds)))]) for n in sizes]


def _one(instances):
    def load(k):
        square, cannot = instances[k]
        return square, cannot_link_mask(cannot, len(square))

    return load


def _loader(instances):
    return stacked(_one(instances))


class TestBatched:
    """Instances linked together merge exactly as each would on its own."""

    def test_same_merges_as_heap_linkage(self):
        rng = np.random.default_rng(48)
        batched = 0
        for _ in range(40):
            instances = _random_batch(rng)
            sizes = [len(square) for square, _ in instances]
            batched += sum(n >= 2 for n in sizes) >= BATCH_MIN
            dendrograms = _dendrograms(sizes, _loader(instances), _BELOW_SENTINEL)
            for (square, cannot), dendrogram in zip(instances, dendrograms):
                expected = heap_linkage(square, cannot)
                assert dendrogram.n == len(square)
                assert len(dendrogram.merges) == len(expected)
                for merge, (a, b, height, size) in zip(dendrogram.merges, expected):
                    assert (merge.a, merge.b, merge.size) == (a, b, size)
                    assert merge.height == height
        assert batched >= 20

    @pytest.mark.parametrize("threshold", [0.05, 0.3, 0.5, 0.9])
    def test_partitions_equal_cut_of_full_linkage(self, threshold):
        rng = np.random.default_rng(49)
        for _ in range(15):
            instances = _random_batch(rng)
            sizes = [len(square) for square, _ in instances]
            partitions = instance_partitions(
                sizes, cluster_batch(sizes, _loader(instances), threshold=threshold)
            )
            assert len(partitions) == len(instances)
            for k, partition in enumerate(partitions):
                assert partition == cut(linkage_matrix(*_one(instances)(k)), threshold)

    def test_load_called_once_per_instance_of_two_or_more(self):
        rng = np.random.default_rng(50)
        instances = [_sized_instance(rng, n, "continuous") for n in (0, 3, 1, 5, 2)]
        calls = []

        def load(group):
            calls.extend(group)
            return _loader(instances)(group)

        sizes = [len(sq) for sq, _ in instances]
        parts = instance_partitions(sizes, cluster_batch(sizes, load, threshold=0.5))
        assert calls == [1, 3, 4]
        assert parts[0] == [] and parts[2] == [[0]]

    def test_rejects_threshold_outside_range(self):
        for threshold in (0.0, CANNOT_LINK, float("inf")):
            with pytest.raises(ValueError):
                cluster_batch([2], lambda k: dense(np.zeros((1, 2, 2))), threshold=threshold)

    def test_rejects_matrix_of_wrong_size(self):
        with pytest.raises(ValueError):
            cluster_batch([3], lambda k: dense(np.zeros((2, 2))), threshold=0.5)


class TestAgainstScipy:
    """The paper clusters with SciPy's UPGMA; `cluster_matrix` cuts the same partitions."""

    @staticmethod
    def instance(rng):
        """A symmetric (n, n) distance matrix of 2-39 items, zero diagonal, and a threshold."""
        n = int(rng.integers(2, 40))
        if rng.random() < 0.5:
            square = rng.uniform(0, 1, (n, n))
            square = (square + square.T) / 2
        else:
            # Points around a few centres: components that are sub-threshold cliques.
            centres = rng.uniform(0, 1, (int(rng.integers(1, 6)), 2))
            points = centres[rng.integers(0, len(centres), n)] + rng.normal(0, 0.05, (n, 2))
            square = np.linalg.norm(points[:, None] - points[None, :], axis=-1)
        np.fill_diagonal(square, 0.0)
        return square, float(rng.uniform(0.01, 1.0))

    @staticmethod
    def scipy_partition(square, threshold):
        """SciPy's average-linkage partition cut at `threshold`, or None when a merge height
        lies within 1e-9 relative of it: SciPy's nearest-neighbour chain adds in another
        order, so its heights differ in ulps and such a merge may fall on either side."""
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        z = hierarchy.linkage(square[np.triu_indices(len(square), 1)], method="average")
        if np.any(np.abs(z[:, 2] - threshold) <= 1e-9 * threshold):
            return None
        labels = hierarchy.fcluster(z, threshold, criterion="distance")
        return sorted(np.flatnonzero(labels == c).tolist() for c in np.unique(labels))

    def test_partitions_match_scipy_average_linkage(self):
        rng = np.random.default_rng(81)
        compared = skipped = 0
        for _ in range(1000):
            square, threshold = self.instance(rng)
            expected = self.scipy_partition(square, threshold)
            if expected is None:
                skipped += 1
                continue
            assert cluster_matrix(square, threshold=threshold) == expected
            compared += 1
        assert skipped < 0.05 * (compared + skipped)

    def test_constrained_partitions_match_scipy_with_a_finite_stand_in(self):
        """SciPy takes no +inf, so each cannot-link pair gets the stand-in
        threshold * n**2. Two clusters K and L that hold such a pair have a mean distance of
        at least threshold * n**2 / (|K| |L|) > threshold, since |K| |L| < n**2. Average
        linkage merges at nondecreasing heights, so SciPy makes every merge at or below the
        threshold, the cut's merges, before any merge across a stand-in: the same merges as
        `cluster_matrix`, to which such cluster pairs are +inf."""
        rng = np.random.default_rng(82)
        compared = skipped = 0
        for _ in range(1000):
            square, threshold = self.instance(rng)
            n = len(square)
            upper = np.triu(rng.random((n, n)) < rng.uniform(0, 0.3), 1)
            mask = upper | upper.T
            expected = self.scipy_partition(np.where(mask, threshold * n**2, square), threshold)
            if expected is None:
                skipped += 1
                continue
            assert cluster_matrix(square, mask, threshold=threshold) == expected
            compared += 1
        assert skipped < 0.05 * (compared + skipped)


class TestStopAtCut:
    """`cluster_matrix` stops at the first minimum above the threshold."""

    def test_equals_cut_of_full_linkage(self):
        rng = np.random.default_rng(51)
        for _ in range(300):
            n, square, cannot, threshold = random_instance(rng)
            mask = cannot_link_mask(cannot, n)
            full = linkage_matrix(square, mask)
            thresholds = [threshold]
            # A threshold exactly equal to a merge height applies that merge.
            thresholds += [m.height for m in full.merges if 0.0 < m.height < CANNOT_LINK][:3]
            for t in thresholds:
                assert cluster_matrix(square, mask, threshold=t) == cut(full, t)

    def test_infinite_input_distances(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            n, square, cannot, threshold = random_instance(rng)
            far = np.triu(rng.random((n, n)) < 0.3, 1)
            square[far | far.T] = np.inf
            mask = cannot_link_mask(cannot, n)
            full = linkage_matrix(square, mask)
            assert all(m.height < CANNOT_LINK for m in full.merges)
            assert cluster_matrix(square, mask, threshold=threshold) == cut(full, threshold)
            expected = brute_force_partition(n, np.minimum(square, CANNOT_LINK), cannot, threshold)
            assert cluster_matrix(square, mask, threshold=threshold) == expected
            # A +inf distance is a cannot-link pair: no mask gives the same merges and roots.
            inf = np.where(mask, np.inf, square)
            assert linkage_matrix(inf) == full
            assert cluster_matrix(inf, threshold=threshold) == expected
            roots = cluster_batch(
                [n], lambda _: (square[None], lambda k, i, j: inf[i, j]), threshold=threshold
            )
            assert instance_partitions([n], roots) == [expected]

    def test_mask_shape_is_checked_against_the_square(self):
        message = r"^cannot-link mask shape \(3, 3\) does not match \(2, 2\)$"
        with pytest.raises(ValueError, match=message):
            cluster_matrix(np.zeros((2, 2)), np.zeros((3, 3), bool), threshold=0.5)
        with pytest.raises(ValueError, match=message):
            linkage_matrix(np.zeros((2, 2)), np.zeros((3, 3), bool))


class TestLevelMemory:
    """`cluster_batch` links in chunks whose padded tensors stay within a fixed budget."""

    def test_chunks_stay_within_cell_budget(self, monkeypatch):
        rng = np.random.default_rng(60)
        sizes = [int(n) for n in rng.integers(0, 7, 300)]
        sizes.insert(117, 400)
        seeds = rng.integers(0, 2**32, len(sizes))

        def matrix(k):
            local = np.random.default_rng(seeds[k])
            n = sizes[k]
            square = np.round(local.uniform(0, 0.2, (n, n)), 2)
            return square + square.T, local.random((n, n)) < 0.1

        tensors = []
        link = clustering._link

        def recording_link(d, near, nn, n, limit):
            tensors.append(d.size)
            return link(d, near, nn, n, limit)

        monkeypatch.setattr(clustering, "_link", recording_link)
        calls, loaded = [], []

        def load(group):
            # Each chunk's tensor is released before the next one is built.
            assert all(ref() is None for ref in loaded)
            bound, pairs = stacked(matrix)(group)
            calls.extend(group)
            loaded.append(weakref.ref(bound))
            return bound, pairs

        partitions = instance_partitions(sizes, cluster_batch(sizes, load, threshold=0.1))
        assert tensors and max(tensors) <= clustering.CHUNK_CELLS
        assert sum(tensors) < 3 * 400**2
        assert calls == [k for g in clustering._within_budget(sizes) for k in g if sizes[k] >= 2]
        assert len(partitions) == len(sizes)
        for k, partition in enumerate(partitions):
            assert partition == cluster_matrix(*matrix(k), threshold=0.1)

    def test_chunks_of_sizes(self):
        sizes = [5] * 20 + [400] + [180] * 5 + [0, 1]
        groups = clustering._within_budget(sizes)
        assert sorted(k for g in groups for k in g) == list(range(len(sizes)))
        for group in groups:
            largest = max(sizes[k] for k in group)
            assert len(group) * largest**2 <= clustering.CHUNK_CELLS
        # The tiny instances share one chunk and the five of 180 another, although fewer
        # than BATCH_MIN; the one of 400 fills a chunk alone.
        assert sorted(len(g) for g in groups) == [1, 5, 22]
        # Chunks are listed in ascending index order.
        assert groups == sorted(sorted(g) for g in groups)

    def test_few_instances_are_one_load(self):
        sizes = [3, 0, 5, 1, 4]
        assert sum(n >= 2 for n in sizes) < BATCH_MIN
        rng = np.random.default_rng(62)
        squares = [np.round(rng.uniform(0, 0.2, (n, n)), 2) for n in sizes]
        squares = [s + s.T for s in squares]
        calls = []
        load = stacked(lambda k: (squares[k], None))

        def counting(group):
            calls.append(list(group))
            return load(group)

        partitions = instance_partitions(sizes, cluster_batch(sizes, counting, threshold=0.1))
        assert calls == [[0, 2, 4]]
        for k, partition in enumerate(partitions):
            assert partition == cluster_matrix(squares[k], threshold=0.1)


class TestComponentSplit:
    """`cluster_batch` links each threshold-graph component apart, never a whole instance."""

    def test_links_no_tensor_larger_than_the_largest_blob(self, monkeypatch):
        rng = np.random.default_rng(61)
        blobs = [4, 7, 1, 5]
        n = sum(blobs)
        blob = np.repeat(np.arange(len(blobs)), blobs)[rng.permutation(n)]
        square = np.where(
            blob[:, None] == blob[None, :],
            rng.uniform(0.0, 0.02, (n, n)),
            rng.uniform(0.5, 1.0, (n, n)),
        )
        # One pair of each blob of two or more at the threshold, above threshold / MARGIN:
        # no blob is a clique of the split's strong edges, so every one is linked.
        for b in range(len(blobs)):
            inside = np.flatnonzero(blob == b)
            if len(inside) >= 2:
                square[inside[0], inside[1]] = 0.1
        square = np.triu(square, 1) + np.triu(square, 1).T
        widths = []
        link = clustering._link

        def recording_link(d, near, nn, n, limit):
            widths.append(d.shape[1])
            return link(d, near, nn, n, limit)

        monkeypatch.setattr(clustering, "_link", recording_link)
        partition = cluster_matrix(square, threshold=0.1)
        assert widths and max(widths) <= max(blobs)
        assert partition == cut(linkage_matrix(square), 0.1)
        assert sorted(map(len, partition)) == sorted(blobs)
