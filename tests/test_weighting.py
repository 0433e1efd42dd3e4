import itertools
import math

import numpy as np
import pytest

from fcgtrack.appearance import tracklet_distance
from fcgtrack.clustering import CANNOT_LINK
from fcgtrack.core import BBox, Detection, FcgConfig, tracklet_new
from fcgtrack.weighting import (
    PairContext,
    pair_context,
    spatial_weights,
    temporal_weight,
    weighted_distance,
    weighted_matrix,
)
from oracles import scalar_weighted_distance

CFG = FcgConfig()


def tracklet(frame_boxes, feature):
    dets = [
        Detection(frame=f, bbox=BBox(*box), score=1.0, feature=np.array(feature, float))
        for f, box in frame_boxes
    ]
    return tracklet_new(dets)


class TestTemporalWeight:
    def test_within_horizon(self):
        assert temporal_weight(10, CFG) == 1.0

    def test_beyond_horizon(self):
        assert temporal_weight(41, CFG) == 4.0

    def test_boundary_inclusive(self):
        assert temporal_weight(40, CFG) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            temporal_weight(-1, CFG)


class TestSpatialWeights:
    def test_identical_boxes(self):
        b = BBox(0, 0, 10, 10)
        lam_c, lam_f = spatial_weights(PairContext(b, b, 1), CFG)
        assert lam_c == pytest.approx(0.15, abs=1e-12)
        assert lam_f == 1.0

    def test_far_disjoint_boxes(self):
        # displacement 3 > kf=2, zero overlap
        ctx = PairContext(BBox(0, 0, 10, 10), BBox(30, 0, 10, 10), 1)
        lam_c, lam_f = spatial_weights(ctx, CFG)
        assert lam_c == 1.0
        assert lam_f == 2.0

    def test_lambda_c_saturates_at_one(self):
        # iou distance 6/7, so 6/7 + 0.15 > 1
        ctx = PairContext(BBox(0, 0, 2, 2), BBox(1, 1, 2, 2), 1)
        lam_c, _ = spatial_weights(ctx, CFG)
        assert lam_c == 1.0

    def test_ranges(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            a = BBox(*rng.uniform(0, 100, 2), *rng.uniform(1, 50, 2))
            b = BBox(*rng.uniform(0, 100, 2), *rng.uniform(1, 50, 2))
            lam_c, lam_f = spatial_weights(PairContext(a, b, 1), CFG)
            assert CFG.off <= lam_c <= 1.0
            assert lam_f in (1.0, CFG.cf)


class TestPairContext:
    def test_orders_by_time(self):
        early = tracklet([(1, (0, 0, 10, 10)), (2, (1, 0, 10, 10))], [1.0, 0.0])
        late = tracklet([(5, (8, 0, 10, 10))], [1.0, 0.0])
        for t1, t2 in ((early, late), (late, early)):
            ctx = pair_context(t1, t2, CFG)
            assert ctx.delta_t == 3
            assert ctx.last_box_k == BBox(1, 0, 10, 10)
            assert ctx.first_box_q == BBox(8, 0, 10, 10)

    def test_interleaved_pair_has_no_context(self):
        t1 = tracklet([(1, (0, 0, 1, 1)), (5, (0, 0, 1, 1))], [1.0])
        t2 = tracklet([(3, (0, 0, 1, 1))], [1.0])
        assert pair_context(t1, t2, CFG) is None

    def test_motion_extrapolates_last_box(self):
        cfg = FcgConfig(use_motion=True)
        # moving +5 px/frame in x; gap of 2 frames extrapolates 2 steps
        early = tracklet([(1, (0, 0, 10, 10)), (2, (5, 0, 10, 10))], [1.0])
        late = tracklet([(4, (15, 0, 10, 10))], [1.0])
        ctx = pair_context(early, late, cfg)
        assert ctx.last_box_k == BBox(15, 0, 10, 10)

    def test_motion_cap_at_window(self):
        cfg = FcgConfig(use_motion=True, window=6)
        early = tracklet([(1, (0, 0, 10, 10)), (2, (5, 0, 10, 10))], [1.0])
        late = tracklet([(52, (0, 0, 10, 10))], [1.0])
        ctx = pair_context(early, late, cfg)
        # 50-frame gap, extrapolation capped at 6 steps
        assert ctx.last_box_k == BBox(5 + 6 * 5, 0, 10, 10)
        assert ctx.delta_t == 50

    def test_single_detection_has_zero_velocity(self):
        cfg = FcgConfig(use_motion=True)
        early = tracklet([(1, (3, 4, 10, 10))], [1.0])
        late = tracklet([(4, (3, 4, 10, 10))], [1.0])
        ctx = pair_context(early, late, cfg)
        assert ctx.last_box_k == BBox(3, 4, 10, 10)


class TestWeightedDistance:
    def test_full_product(self):
        # base distance 0.1, delta_t 41 -> 4x, far boxes -> 1 * 2
        feat_a = [1.0, 0.0]
        feat_b = [0.9, math.sqrt(1.0 - 0.81)]
        t1 = tracklet([(1, (0, 0, 10, 10))], feat_a)
        t2 = tracklet([(42, (100, 0, 10, 10))], feat_b)
        d = weighted_distance(t1, t2, CFG)
        assert d == pytest.approx(0.8, abs=1e-9)

    def test_all_flags_off_is_plain_distance(self):
        cfg = FcgConfig(use_temporal=False, use_spatial=False, use_motion=False)
        rng = np.random.default_rng(10)
        for _ in range(50):
            t1 = tracklet([(1, tuple(rng.uniform(0, 100, 2)) + (10, 10))], rng.normal(size=8))
            t2 = tracklet([(5, tuple(rng.uniform(0, 100, 2)) + (10, 10))], rng.normal(size=8))
            assert weighted_distance(t1, t2, cfg) == tracklet_distance(t1, t2)

    def test_zero_base_distance(self):
        t1 = tracklet([(1, (0, 0, 10, 10))], [0.6, 0.8])
        t2 = tracklet([(2, (2, 0, 10, 10))], [0.6, 0.8])
        assert weighted_distance(t1, t2, CFG) == 0.0

    def test_overlapping_pair_is_cannot_link(self):
        t1 = tracklet([(1, (0, 0, 1, 1)), (5, (0, 0, 1, 1))], [1.0])
        t2 = tracklet([(3, (0, 0, 1, 1))], [1.0])
        assert weighted_distance(t1, t2, CFG) == CANNOT_LINK

    def test_perfect_overlap_gives_off_times_distance(self):
        box = (10, 10, 20, 40)
        feat_a = [1.0, 0.0]
        feat_b = [1.0, 0.5]
        t1 = tracklet([(1, box)], feat_a)
        t2 = tracklet([(3, box)], feat_b)
        base = tracklet_distance(t1, t2)
        assert weighted_distance(t1, t2, CFG) == pytest.approx(
            CFG.off * base, abs=1e-9
        )

    def test_monotone_in_base_distance(self):
        box_a = (0, 0, 10, 10)
        box_b = (7, 0, 10, 10)
        angles = np.linspace(0.0, math.pi / 2, 12)
        prev = -1.0
        for ang in angles:
            t1 = tracklet([(1, box_a)], [1.0, 0.0])
            t2 = tracklet([(44, box_b)], [math.cos(ang), math.sin(ang)])
            d = weighted_distance(t1, t2, CFG)
            assert d >= prev
            prev = d

    def test_symmetric_in_argument_order(self):
        t1 = tracklet([(1, (0, 0, 10, 10)), (2, (1, 0, 10, 10))], [1.0, 0.2])
        t2 = tracklet([(9, (30, 0, 10, 10))], [1.0, 0.4])
        assert weighted_distance(t1, t2, CFG) == weighted_distance(t2, t1, CFG)


def random_tracklets(rng, count, dim=6):
    """Tracklets with gaps short and long, interleaved and frame-sharing spans."""
    tracklets = []
    for _ in range(count):
        start = int(rng.integers(1, 120))
        frames = sorted(set(start + rng.integers(0, 12, size=int(rng.integers(1, 5)))))
        base = rng.normal(size=dim)
        x, y = rng.uniform(0, 200, 2)
        vx, vy, vw = rng.normal(0, 4, 3)
        dets = [
            Detection(
                frame=int(f),
                bbox=BBox(x + vx * k, y + vy * k, max(5.0 + vw * k, 1.0), 20.0),
                score=1.0,
                feature=base + rng.normal(0, 0.05, dim),
            )
            for k, f in enumerate(frames)
        ]
        tracklets.append(tracklet_new(dets))
    return tracklets


class TestWeightedMatrix:
    @pytest.mark.parametrize(
        "temporal,spatial,motion", list(itertools.product([False, True], repeat=3))
    )
    def test_matches_per_pair_reference(self, temporal, spatial, motion):
        cfg = FcgConfig(use_temporal=temporal, use_spatial=spatial, use_motion=motion, kt=10)
        rng = np.random.default_rng(11)
        kinds = set()
        for _ in range(20):
            tracklets = random_tracklets(rng, int(rng.integers(2, 14)))
            got = weighted_matrix(tracklets, cfg)
            assert np.array_equal(got, got.T)
            for i, j in itertools.combinations(range(len(tracklets)), 2):
                expected = scalar_weighted_distance(tracklets[i], tracklets[j], cfg)
                if expected == CANNOT_LINK:
                    assert got[i, j] == CANNOT_LINK
                    shared = tracklets[i].frame_set & tracklets[j].frame_set
                    kinds.add("frame-sharing" if shared else "interleaved")
                else:
                    assert abs(got[i, j] - expected) <= 1e-12
                    kinds.add("ordered")
        assert kinds == {"ordered", "interleaved", "frame-sharing"}

    def test_empty_and_single(self):
        assert weighted_matrix([], CFG).shape == (0, 0)
        t = tracklet([(1, (0, 0, 10, 10))], [1.0, 0.0])
        assert weighted_matrix([t], CFG).shape == (1, 1)

    def test_scalar_is_matrix_entry(self):
        rng = np.random.default_rng(12)
        tracklets = random_tracklets(rng, 8)
        matrix = weighted_matrix(tracklets, CFG)
        for i, j in itertools.combinations(range(8), 2):
            pair = weighted_matrix([tracklets[i], tracklets[j]], CFG)[0, 1]
            assert weighted_distance(tracklets[i], tracklets[j], CFG) == pair
            assert abs(pair - matrix[i, j]) <= 1e-12
