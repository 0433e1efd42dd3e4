import itertools
import math
from collections import namedtuple

import numpy as np
import pytest

from fcgtrack.clustering import CANNOT_LINK
from fcgtrack.core import FcgConfig
from fcgtrack.weighting import _endpoints, _temporal_factor
from oracles import (
    Box,
    build_level,
    scalar_weighted_distance,
    spatial_weights,
    tracklet_distance,
    tracklet_frames,
    tracklet_rows,
    weighted_distance,
    weighted_square,
)

CFG = FcgConfig()


def rows(frame_boxes, feature):
    """Row tuples of one object: a box per frame, one feature for all."""
    return [(f, feature, box) for f, box in frame_boxes]


class TestTemporalWeight:
    def test_within_horizon(self):
        assert _temporal_factor(10, CFG) == 1.0

    def test_beyond_horizon(self):
        assert _temporal_factor(41, CFG) == 4.0

    def test_boundary_inclusive(self):
        assert _temporal_factor(40, CFG) == 1.0


class TestSpatialWeights:
    def test_identical_boxes(self):
        b = Box(0, 0, 10, 10)
        lam_c, lam_f = spatial_weights(b, b, CFG)
        assert lam_c == pytest.approx(0.15, abs=1e-12)
        assert lam_f == 1.0

    def test_far_disjoint_boxes(self):
        # displacement 3 > kf=2, zero overlap
        lam_c, lam_f = spatial_weights(Box(0, 0, 10, 10), Box(30, 0, 10, 10), CFG)
        assert lam_c == 1.0
        assert lam_f == 2.0

    def test_lambda_c_saturates_at_one(self):
        # iou distance 6/7, so 6/7 + 0.15 > 1
        lam_c, _ = spatial_weights(Box(0, 0, 2, 2), Box(1, 1, 2, 2), CFG)
        assert lam_c == 1.0

    def test_ranges(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            a = Box(*rng.uniform(0, 100, 2), *rng.uniform(1, 50, 2))
            b = Box(*rng.uniform(0, 100, 2), *rng.uniform(1, 50, 2))
            lam_c, lam_f = spatial_weights(a, b, CFG)
            assert CFG.off <= lam_c <= 1.0
            assert lam_f in (1.0, CFG.cf)


PairContext = namedtuple("PairContext", "last_box_k first_box_q delta_t")


def pair_context(level, t, u, cfg):
    """The endpoint geometry of tracklets t and u of a level in time order, from `_endpoints`;
    None if interleaved."""
    members = tracklet_rows(level)
    first, last, prev = (
        np.array([members[k][max(i, -len(members[k]))] for k in (t, u)]) for i in (0, -1, -2)
    )
    gap, last_box, first_box = _endpoints(
        level.table, last[:, None], prev[:, None], first[None, :], cfg
    )
    last_box = np.broadcast_to(last_box, (2, 2, 4))
    for i, j in ((0, 1), (1, 0)):
        if gap[i, j] > 0:
            return PairContext(Box(*last_box[i, j]), Box(*first_box[0, j]), int(gap[i, j]))
    return None


class TestPairContext:
    def test_orders_by_time(self):
        pair = build_level([
            rows([(1, (0, 0, 10, 10)), (2, (1, 0, 10, 10))], [1.0, 0.0]),
            rows([(5, (8, 0, 10, 10))], [1.0, 0.0]),
        ])
        for t, u in ((0, 1), (1, 0)):
            ctx = pair_context(pair, t, u, CFG)
            assert ctx.delta_t == 3
            assert ctx.last_box_k == Box(1, 0, 10, 10)
            assert ctx.first_box_q == Box(8, 0, 10, 10)

    def test_interleaved_pair_has_no_context(self):
        pair = build_level([
            rows([(1, (0, 0, 1, 1)), (5, (0, 0, 1, 1))], [1.0]),
            rows([(3, (0, 0, 1, 1))], [1.0]),
        ])
        assert pair_context(pair, 0, 1, CFG) is None

    def test_motion_extrapolates_last_box(self):
        cfg = FcgConfig(use_motion=True)
        # moving +5 px/frame in x; gap of 2 frames extrapolates 2 steps
        pair = build_level([
            rows([(1, (0, 0, 10, 10)), (2, (5, 0, 10, 10))], [1.0]),
            rows([(4, (15, 0, 10, 10))], [1.0]),
        ])
        ctx = pair_context(pair, 0, 1, cfg)
        assert ctx.last_box_k == Box(15, 0, 10, 10)

    def test_motion_cap_at_window(self):
        cfg = FcgConfig(use_motion=True, window=6)
        pair = build_level([
            rows([(1, (0, 0, 10, 10)), (2, (5, 0, 10, 10))], [1.0]),
            rows([(52, (0, 0, 10, 10))], [1.0]),
        ])
        ctx = pair_context(pair, 0, 1, cfg)
        # 50-frame gap, extrapolation capped at 6 steps
        assert ctx.last_box_k == Box(5 + 6 * 5, 0, 10, 10)
        assert ctx.delta_t == 50

    def test_single_detection_has_zero_velocity(self):
        cfg = FcgConfig(use_motion=True)
        pair = build_level([
            rows([(1, (3, 4, 10, 10))], [1.0]),
            rows([(4, (3, 4, 10, 10))], [1.0]),
        ])
        ctx = pair_context(pair, 0, 1, cfg)
        assert ctx.last_box_k == Box(3, 4, 10, 10)


class TestWeightedDistance:
    def test_full_product(self):
        # base distance 0.1, delta_t 41 -> 4x, far boxes -> 1 * 2
        feat_a = [1.0, 0.0]
        feat_b = [0.9, math.sqrt(1.0 - 0.81)]
        pair = build_level([
            rows([(1, (0, 0, 10, 10))], feat_a),
            rows([(42, (100, 0, 10, 10))], feat_b),
        ])
        d = weighted_distance(pair, 0, 1, CFG)
        assert d == pytest.approx(0.8, abs=1e-9)

    def test_all_flags_off_is_plain_distance(self):
        cfg = FcgConfig(use_temporal=False, use_spatial=False, use_motion=False)
        rng = np.random.default_rng(10)
        for _ in range(50):
            pair = build_level([
                rows([(1, tuple(rng.uniform(0, 100, 2)) + (10, 10))], rng.normal(size=8)),
                rows([(5, tuple(rng.uniform(0, 100, 2)) + (10, 10))], rng.normal(size=8)),
            ])
            assert weighted_distance(pair, 0, 1, cfg) == tracklet_distance(pair, 0, 1)

    def test_zero_base_distance(self):
        pair = build_level([
            rows([(1, (0, 0, 10, 10))], [0.6, 0.8]),
            rows([(2, (2, 0, 10, 10))], [0.6, 0.8]),
        ])
        assert weighted_distance(pair, 0, 1, CFG) == 0.0

    def test_overlapping_pair_is_cannot_link(self):
        pair = build_level([
            rows([(1, (0, 0, 1, 1)), (5, (0, 0, 1, 1))], [1.0]),
            rows([(3, (0, 0, 1, 1))], [1.0]),
        ])
        assert weighted_distance(pair, 0, 1, CFG) == CANNOT_LINK

    def test_perfect_overlap_gives_off_times_distance(self):
        box = (10, 10, 20, 40)
        feat_a = [1.0, 0.0]
        feat_b = [1.0, 0.5]
        pair = build_level([rows([(1, box)], feat_a), rows([(3, box)], feat_b)])
        base = tracklet_distance(pair, 0, 1)
        assert weighted_distance(pair, 0, 1, CFG) == pytest.approx(
            CFG.off * base, abs=1e-9
        )

    def test_monotone_in_base_distance(self):
        box_a = (0, 0, 10, 10)
        box_b = (7, 0, 10, 10)
        angles = np.linspace(0.0, math.pi / 2, 12)
        prev = -1.0
        for ang in angles:
            pair = build_level([
                rows([(1, box_a)], [1.0, 0.0]),
                rows([(44, box_b)], [math.cos(ang), math.sin(ang)]),
            ])
            d = weighted_distance(pair, 0, 1, CFG)
            assert d >= prev
            prev = d

    def test_symmetric_in_argument_order(self):
        pair = build_level([
            rows([(1, (0, 0, 10, 10)), (2, (1, 0, 10, 10))], [1.0, 0.2]),
            rows([(9, (30, 0, 10, 10))], [1.0, 0.4]),
        ])
        assert weighted_distance(pair, 0, 1, CFG) == weighted_distance(pair, 1, 0, CFG)


def random_tracklets(rng, count, dim=6):
    """A level of one lifted frame holding tracklets with gaps short and long, interleaved and
    frame-sharing spans."""
    groups = []
    for _ in range(count):
        start = int(rng.integers(1, 120))
        frames = sorted(set(start + rng.integers(0, 12, size=int(rng.integers(1, 5)))))
        base = rng.normal(size=dim)
        x, y = rng.uniform(0, 200, 2)
        vx, vy, vw = rng.normal(0, 4, 3)
        groups.append([
            (int(f), base + rng.normal(0, 0.05, dim),
             (x + vx * k, y + vy * k, max(5.0 + vw * k, 1.0), 20.0))
            for k, f in enumerate(frames)
        ])
    return build_level(groups)


class TestWeightedMatrix:
    @pytest.mark.parametrize(
        "temporal,spatial,motion", list(itertools.product([False, True], repeat=3))
    )
    def test_matches_per_pair_reference(self, temporal, spatial, motion):
        cfg = FcgConfig(use_temporal=temporal, use_spatial=spatial, use_motion=motion, kt=10)
        rng = np.random.default_rng(11)
        kinds = set()
        for _ in range(20):
            level = random_tracklets(rng, int(rng.integers(2, 14)))
            got = weighted_square(level, cfg)
            assert np.array_equal(got, got.T)
            for i, j in itertools.combinations(range(len(level.median)), 2):
                expected = scalar_weighted_distance(level, i, j, cfg)
                if expected == CANNOT_LINK:
                    assert got[i, j] == CANNOT_LINK
                    shared = set(tracklet_frames(level, i)) & set(tracklet_frames(level, j))
                    kinds.add("frame-sharing" if shared else "interleaved")
                else:
                    assert abs(got[i, j] - expected) <= 1e-12
                    kinds.add("ordered")
        assert kinds == {"ordered", "interleaved", "frame-sharing"}

    def test_empty_and_single(self):
        assert weighted_square(build_level([]), CFG).shape == (0, 0)
        single = build_level([rows([(1, (0, 0, 10, 10))], [1.0, 0.0])])
        # A tracklet is not ordered in time with itself.
        assert weighted_square(single, CFG).tolist() == [[CANNOT_LINK]]

    def test_scalar_is_matrix_entry(self):
        rng = np.random.default_rng(12)
        level = random_tracklets(rng, 8)
        matrix = weighted_square(level, CFG)
        for i, j in itertools.combinations(range(8), 2):
            pair = weighted_distance(level, i, j, CFG)
            assert weighted_distance(level, j, i, CFG) == pair
            assert abs(pair - matrix[i, j]) <= 1e-12
