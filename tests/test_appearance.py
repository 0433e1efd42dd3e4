import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from fcgtrack.appearance import cosine_matrix
from fcgtrack.core import DegenerateFeatureError
from fcgtrack.weighting import cosine_blocks
from oracles import build_level, cosine_distance, scalar_cosine, tracklet_distance


def rows(frames, features):
    """Row tuples of one object: a feature per frame, every box (0, 0, 1, 1)."""
    return [(f, feat, (0, 0, 1, 1)) for f, feat in zip(frames, features)]


class TestCosineDistance:
    def test_identical_direction_exactly_zero(self):
        assert cosine_distance([0.3, 0.4], [0.3, 0.4]) == 0.0

    def test_orthogonal_exactly_one(self):
        assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_45_degrees(self):
        d = cosine_distance([1.0, 0.0], [1.0, 1.0])
        assert d == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-9)

    def test_opposite_direction(self):
        assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(2.0, abs=1e-12)

    def test_self_distance_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            h = rng.normal(size=int(rng.integers(1, 64)))
            if not np.any(h):
                continue
            assert cosine_distance(h, h) == 0.0

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            h1 = rng.normal(size=16)
            h2 = rng.normal(size=16)
            a, b = rng.uniform(1e-3, 1e3, 2)
            assert cosine_distance(a * h1, b * h2) == pytest.approx(
                cosine_distance(h1, h2), abs=1e-9
            )

    def test_symmetry_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            h1 = rng.normal(size=12)
            h2 = rng.normal(size=12)
            assert cosine_distance(h1, h2) == cosine_distance(h2, h1)

    def test_range(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            h1 = rng.normal(size=8)
            h2 = rng.normal(size=8)
            assert 0.0 <= cosine_distance(h1, h2) <= 2.0

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateFeatureError):
            cosine_distance([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(DegenerateFeatureError):
            cosine_distance([1.0, 0.0], [0.0, 0.0])


class TestTrackletDistance:
    def test_identical_single_detections(self):
        pair = build_level([rows([1], [[0.5, 0.5]]), rows([2], [[0.5, 0.5]])])
        assert tracklet_distance(pair, 0, 1) == 0.0

    def test_orthogonal_medians(self):
        pair = build_level([rows([1], [[1.0, 0.0]]), rows([2], [[0.0, 1.0]])])
        assert tracklet_distance(pair, 0, 1) == 1.0

    def test_45_degree_medians(self):
        pair = build_level([rows([1], [[1.0, 0.0]]), rows([2], [[1.0, 1.0]])])
        assert tracklet_distance(pair, 0, 1) == pytest.approx(
            1.0 - 1.0 / math.sqrt(2.0), abs=1e-9
        )

    def test_uses_cached_median(self):
        # medians: (1, 0.5) vs (1, 0.5) built from different member features
        pair = build_level([
            rows([1, 2], [[1.0, 0.0], [1.0, 1.0]]),
            rows([3, 4], [[1.0, 1.0], [1.0, 0.0]]),
        ])
        assert tracklet_distance(pair, 0, 1) == 0.0


class TestCosineMatrix:
    @pytest.mark.parametrize("n,dim", [(2, 3), (30, 8), (180, 64), (40, 2048)])
    def test_matches_per_pair_reference(self, n, dim):
        rng = np.random.default_rng(n)
        features = rng.normal(size=(n, dim))
        features[1] = features[0]
        got = cosine_matrix(features)
        assert np.array_equal(got, got.T)
        assert got[0, 1] == 0.0
        for i in range(n):
            for j in range(i + 1, n):
                assert abs(got[i, j] - scalar_cosine(features[i], features[j])) <= 1e-12

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_degenerate_row_rejected(self):
        with pytest.raises(DegenerateFeatureError):
            cosine_matrix(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(DegenerateFeatureError):
            cosine_matrix(np.array([[1e200, 0.0], [0.0, 1.0]]))

    def test_single_row_needs_no_norm(self):
        assert cosine_matrix(np.zeros((1, 3))).shape == (1, 1)

    def test_row_blocks_equal_one_denominator_matrix(self):
        # 600 rows: two full blocks of denominators and a partial one.
        features = np.random.default_rng(600).normal(size=(600, 16))
        gram = features @ features.T
        squared = gram.diagonal()
        whole = 1.0 - gram / np.sqrt(np.multiply.outer(squared, squared))
        assert np.array_equal(cosine_matrix(features), np.clip(whole, 0.0, 2.0))

    def test_peak_memory_is_the_result_and_a_row_block(self):
        # At 2,000 rows a block of 256 denominator rows is 0.128 of the n x n result;
        # a full denominator matrix beside it would make the peak 2 such matrices.
        n = 2000
        features = np.random.default_rng(2000).normal(size=(n, 8))
        tracemalloc.start()
        try:
            cosine_matrix(features)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * n * n * 8


class TestCosineBlocks:
    """`cosine_blocks` stacks one `cosine_matrix` per block, normalized together."""

    @staticmethod
    def blocks(sizes, dim, dtype, seed, spoil=None):
        """`cosine_blocks` of tracklet runs of the given sizes, apart by a few tracklets,
        over random medians of one dtype; `spoil` (value, draw) overwrites one real row."""
        rng = np.random.default_rng(seed)
        n = np.array(sizes)
        lo = np.cumsum(n + 3) - n
        median = rng.normal(size=(int(lo[-1] + n[-1] + 3), dim)).astype(dtype)
        median[lo[0] + 1] = median[lo[0]]  # a pair at distance 0
        if spoil is not None:
            value, draw = spoil
            k = draw.integers(len(n))
            median[lo[k] + draw.integers(n[k])] = value
        return cosine_blocks(SimpleNamespace(median=median), lo, n), median, lo, n

    def test_blocks_equal_cosine_matrix_bit_for_bit(self):
        pytest.importorskip("hypothesis")
        from hypothesis import example, given
        from hypothesis import strategies as st

        # Sizes up to 300 take slabs of whole blocks (m <= 256) and slabs of rows inside
        # one block; a lone block is the one-block case of the same normalization.
        @given(
            st.lists(st.integers(2, 300), min_size=1, max_size=6),
            st.integers(1, 64),
            st.sampled_from([np.float32, np.float64]),
            st.integers(0, 2**32 - 1),
        )
        @example([300], 8, np.float64, 0)
        @example([2] * 200 + [3], 4, np.float32, 1)
        @example([257, 2, 300, 40], 16, np.float64, 2)
        def check(sizes, dim, dtype, seed):
            got, median, lo, n = self.blocks(sizes, dim, dtype, seed)
            m = max(sizes)
            assert got.shape == (len(sizes), m, m)
            for k, (a, size) in enumerate(zip(lo.tolist(), sizes)):
                alone = cosine_matrix(median[a : a + size].astype(np.float64))
                assert np.array_equal(got[k, :size, :size], alone)
            assert (got >= 0.0).all()  # the padding too

        check()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("value", [0.0, 1e200])
    def test_a_degenerate_row_in_any_block_raises(self, value):
        for seed in range(20):
            draw = np.random.default_rng(seed)
            sizes = draw.integers(2, 300, int(draw.integers(1, 6))).tolist()
            with pytest.raises(DegenerateFeatureError):
                self.blocks(sizes, 8, np.float64, seed, spoil=(value, draw))
