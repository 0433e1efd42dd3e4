import io

import numpy as np
import pytest

from fcgtrack.clustering import (
    CANNOT_LINK,
    CondensedMatrix,
    ConstraintSet,
    cluster,
    cluster_matrix,
    condensed_index,
    condensed_size,
    cut,
    linkage,
    linkage_matrix,
)
from oracles import brute_force_partition, heap_linkage


def matrix_from_square(square):
    square = np.asarray(square, dtype=float)
    n = square.shape[0]
    values = np.array(
        [square[i, j] for i in range(n) for j in range(i + 1, n)], dtype=float
    )
    return CondensedMatrix(n=n, values=values)


THREE = matrix_from_square(
    [
        [0.0, 0.1, 0.9],
        [0.1, 0.0, 0.8],
        [0.9, 0.8, 0.0],
    ]
)


class TestCondensedMatrix:
    def test_indexing(self):
        n = 5
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                assert condensed_index(n, i, j) == k
                k += 1
        assert k == condensed_size(n)

    def test_get_is_symmetric(self):
        assert THREE.get(0, 1) == THREE.get(1, 0) == 0.1
        assert THREE.get(2, 2) == 0.0

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            CondensedMatrix(n=3, values=np.array([0.1, 0.2]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CondensedMatrix(n=2, values=np.array([-0.5]))


class TestConstraintSet:
    def test_normalizes_order(self):
        cs = ConstraintSet.of([(3, 1), (1, 3), (0, 2)])
        assert cs.forbids(1, 3) and cs.forbids(3, 1)
        assert cs.forbids(2, 0)
        assert not cs.forbids(0, 1)

    def test_rejects_reflexive(self):
        with pytest.raises(ValueError):
            ConstraintSet.of([(2, 2)])

    def test_mask(self):
        mask = ConstraintSet.of([(0, 2)]).mask(3)
        assert mask.tolist() == [
            [False, False, True],
            [False, False, False],
            [True, False, False],
        ]

    def test_mask_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            ConstraintSet.of([(0, 3)]).mask(3)


class TestLinkage:
    def test_single_item_no_merges(self):
        d = linkage(matrix_from_square([[0.0]]))
        assert d.n == 1 and d.merges == ()

    def test_three_item_example(self):
        d = linkage(THREE)
        assert len(d.merges) == 2
        a, b, height, size = d.merges[0]
        assert (a, b, size) == (0, 1, 2)
        assert height == pytest.approx(0.1, abs=1e-12)
        a, b, height, size = d.merges[1]
        assert (a, b, size) == (2, 3, 3)
        assert height == pytest.approx(0.85, abs=1e-12)

    def test_three_item_example_constrained(self):
        d = linkage(THREE, ConstraintSet.of([(0, 1)]))
        # next-smallest admissible pair merges, then only the sentinel remains
        assert len(d.merges) == 1
        a, b, height, size = d.merges[0]
        assert (a, b, size) == (1, 2, 2)
        assert height == pytest.approx(0.8, abs=1e-12)

    def test_lexicographic_tie_break(self):
        m = matrix_from_square(
            [
                [0.0, 0.5, 0.2],
                [0.5, 0.0, 0.2],
                [0.2, 0.2, 0.0],
            ]
        )
        d = linkage(m)
        assert d.merges[0].a == 0 and d.merges[0].b == 2

    def test_heights_nondecreasing(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            square = rng.uniform(0, 1, (n, n))
            square = (square + square.T) / 2
            np.fill_diagonal(square, 0.0)
            d = linkage(matrix_from_square(square))
            heights = [m.height for m in d.merges]
            assert all(h2 >= h1 for h1, h2 in zip(heights, heights[1:]))
            inputs = [m.a for m in d.merges] + [m.b for m in d.merges]
            assert len(inputs) == len(set(inputs))

    def test_trace_dump(self):
        buf = io.StringIO()
        linkage(THREE, trace=buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "merge 0 1 0.1 2"
        assert lines[1].startswith("merge 2 3 0.85")
        assert lines[1].endswith(" 3")

    def test_no_trace_by_default(self):
        # linkage only writes when a stream is passed in
        d = linkage(THREE)
        assert d.merges


class TestCut:
    def test_below_all_heights_gives_singletons(self):
        d = linkage(THREE)
        assert cut(d, 0.05) == [[0], [1], [2]]

    def test_intermediate_threshold(self):
        d = linkage(THREE)
        assert cut(d, 0.5) == [[0, 1], [2]]

    def test_threshold_at_merge_height_included(self):
        d = linkage(THREE)
        assert cut(d, 0.9) == [[0, 1, 2]]

    def test_rejects_threshold_at_sentinel(self):
        d = linkage(THREE)
        with pytest.raises(ValueError):
            cut(d, CANNOT_LINK)
        with pytest.raises(ValueError):
            cut(d, 0.0)


class TestCluster:
    def test_empty(self):
        assert cluster([], lambda a, b: 0.0, threshold=0.055) == []

    def test_pair_within_threshold(self):
        part = cluster([0, 1], lambda a, b: 0.04, threshold=0.055)
        assert part == [[0, 1]]

    def test_pair_beyond_threshold(self):
        part = cluster([0, 1], lambda a, b: 0.06, threshold=0.055)
        assert part == [[0], [1]]

    def test_metric_errors_propagate(self):
        def metric(a, b):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            cluster([0, 1], metric, threshold=0.055)


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
            got = cut(
                linkage(matrix_from_square(square), ConstraintSet.of(cannot)),
                threshold,
            )
            expected = brute_force_partition(n, square, cannot, threshold)
            assert got == expected

    def test_constraint_safety_any_threshold(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            n, square, cannot, _ = random_instance(rng)
            if not cannot:
                continue
            dend = linkage(matrix_from_square(square), ConstraintSet.of(cannot))
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
            m = matrix_from_square(square)
            first = linkage(m)
            for _ in range(3):
                assert linkage(m) == first

    def test_permutation_invariance_up_to_relabeling(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            n, square, cannot, threshold = random_instance(rng)
            base = cut(
                linkage(matrix_from_square(square), ConstraintSet.of(cannot)), threshold
            )
            perm = rng.permutation(n)
            permuted_square = square[np.ix_(perm, perm)]
            permuted_cannot = [
                (int(np.where(perm == a)[0][0]), int(np.where(perm == b)[0][0]))
                for a, b in cannot
            ]
            permuted = cut(
                linkage(
                    matrix_from_square(permuted_square),
                    ConstraintSet.of(permuted_cannot),
                ),
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
        assert linkage_matrix(square) == linkage(THREE)

    def test_mask_pins_pair(self):
        square = np.array([[0.0, 0.1, 0.9], [0.1, 0.0, 0.8], [0.9, 0.8, 0.0]])
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 1] = True
        assert linkage_matrix(square, mask) == linkage(THREE, ConstraintSet.of([(0, 1)]))

    def test_empty_and_single(self):
        assert linkage_matrix(np.zeros((0, 0))).merges == ()
        assert linkage_matrix(np.zeros((1, 1))).merges == ()
        assert cluster_matrix(np.zeros((0, 0)), threshold=0.5) == []

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            linkage_matrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            linkage_matrix(np.array([[0.0, -0.1], [-0.1, 0.0]]))
        with pytest.raises(ValueError):
            linkage_matrix(np.array([[0.0, np.nan], [np.nan, 0.0]]))
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
            mask = ConstraintSet.of(cannot).mask(n)
            expected = cluster(
                list(range(n)),
                lambda i, j: square[i, j],
                ConstraintSet.of(cannot),
                threshold=threshold,
            )
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
            got = linkage_matrix(square, ConstraintSet.of(cannot).mask(n)).merges
            expected = heap_linkage(square, cannot)
            assert len(got) == len(expected)
            for merge, (a, b, height, size) in zip(got, expected):
                assert (merge.a, merge.b, merge.size) == (a, b, size)
                assert merge.height == height
