import math

import numpy as np
import pytest

from fcgtrack.appearance import cosine_distance, cosine_matrix, feature_matrix, tracklet_distance
from fcgtrack.core import (
    BBox,
    DegenerateFeatureError,
    Detection,
    DimensionMismatchError,
    tracklet_new,
)
from oracles import scalar_cosine


def tracklet(frames, features):
    dets = [
        Detection(frame=f, bbox=BBox(0, 0, 1, 1), score=1.0, feature=np.array(feat, float))
        for f, feat in zip(frames, features)
    ]
    return tracklet_new(dets)


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

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            cosine_distance([1.0, 0.0], [1.0, 0.0, 0.0])


class TestTrackletDistance:
    def test_identical_single_detections(self):
        t1 = tracklet([1], [[0.5, 0.5]])
        t2 = tracklet([2], [[0.5, 0.5]])
        assert tracklet_distance(t1, t2) == 0.0

    def test_orthogonal_medians(self):
        t1 = tracklet([1], [[1.0, 0.0]])
        t2 = tracklet([2], [[0.0, 1.0]])
        assert tracklet_distance(t1, t2) == 1.0

    def test_45_degree_medians(self):
        t1 = tracklet([1], [[1.0, 0.0]])
        t2 = tracklet([2], [[1.0, 1.0]])
        assert tracklet_distance(t1, t2) == pytest.approx(
            1.0 - 1.0 / math.sqrt(2.0), abs=1e-9
        )

    def test_uses_cached_median(self):
        # medians: (1, 0.5) vs (1, 0.5) built from different member features
        t1 = tracklet([1, 2], [[1.0, 0.0], [1.0, 1.0]])
        t2 = tracklet([3, 4], [[1.0, 1.0], [1.0, 0.0]])
        assert tracklet_distance(t1, t2) == 0.0


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

    def test_feature_matrix_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            feature_matrix([np.ones(3), np.ones(4)])
        assert feature_matrix([]).shape[0] == 0
