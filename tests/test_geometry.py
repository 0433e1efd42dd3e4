import numpy as np
import pytest

from fcgtrack.geometry import iou_distance_array
from oracles import Box, box_displacement, extrapolate, iou_distance


def random_box(rng):
    return Box(
        x=float(rng.uniform(-50, 50)),
        y=float(rng.uniform(-50, 50)),
        w=float(rng.uniform(0.5, 40)),
        h=float(rng.uniform(0.5, 40)),
    )


class TestIouDistance:
    def test_identical_boxes_exactly_zero(self):
        b = Box(0, 0, 10, 10)
        assert iou_distance(b, b) == 0.0

    def test_disjoint_boxes_exactly_one(self):
        assert iou_distance(Box(0, 0, 1, 1), Box(5, 5, 1, 1)) == 1.0

    def test_partial_overlap(self):
        # intersection 1, union 4 + 4 - 1 = 7
        d = iou_distance(Box(0, 0, 2, 2), Box(1, 1, 2, 2))
        assert d == pytest.approx(6.0 / 7.0, abs=1e-9)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            d = iou_distance(a, b)
            assert d == iou_distance(b, a)
            assert 0.0 <= d <= 1.0

    def test_nearly_identical_boxes_stay_in_range(self):
        # Rounding took such pairs below 0, to about -1e-10 at coordinates near 1e6.
        rng = np.random.default_rng(3)
        corner = rng.uniform(0, 1e6, (20000, 2))
        a = np.concatenate([corner, rng.uniform(1, 500, (20000, 2))], axis=1)
        b = a * (1 + rng.normal(0, 1e-15, a.shape))
        d = iou_distance_array(a, b)
        assert d.min() >= 0.0 and d.max() <= 1.0

    def test_zero_iff_identical(self):
        a = Box(1, 2, 3, 4)
        assert iou_distance(a, Box(1, 2, 3, 4)) == 0.0
        assert iou_distance(a, Box(1, 2, 3, 4.0001)) > 0.0


class TestBoxDisplacement:
    def test_identical_boxes(self):
        b = Box(3, 7, 10, 20)
        assert box_displacement(b, b) == 0.0

    def test_horizontal_shift(self):
        # both corner distances are 5/10
        d = box_displacement(Box(0, 0, 10, 10), Box(5, 0, 10, 10))
        assert d == pytest.approx(0.5, abs=1e-9)

    def test_vertical_shift(self):
        d = box_displacement(Box(0, 0, 10, 10), Box(0, 5, 10, 10))
        assert d == pytest.approx(0.5, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            assert box_displacement(a, b) == box_displacement(b, a)
            assert box_displacement(a, b) >= 0.0

    def test_translation_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            dx, dy = rng.uniform(-100, 100, 2)
            a2 = Box(a.x + dx, a.y + dy, a.w, a.h)
            b2 = Box(b.x + dx, b.y + dy, b.w, b.h)
            assert box_displacement(a2, b2) == pytest.approx(
                box_displacement(a, b), abs=1e-9
            )

    def test_scale_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            s = float(rng.uniform(0.1, 20))
            a2 = Box(a.x * s, a.y * s, a.w * s, a.h * s)
            b2 = Box(b.x * s, b.y * s, b.w * s, b.h * s)
            assert box_displacement(a2, b2) == pytest.approx(
                box_displacement(a, b), abs=1e-9
            )


class TestExtrapolate:
    def test_zero_velocity(self):
        b = Box(4, 4, 8, 8)
        for steps in (1, 2, 5):
            assert extrapolate(b, b, steps) == b

    def test_constant_velocity(self):
        out = extrapolate(Box(0, 0, 10, 10), Box(2, 0, 10, 10), 3)
        assert out == Box(8, 0, 10, 10)

    def test_per_field_linear(self):
        out = extrapolate(Box(0, 0, 10, 10), Box(1, 1, 12, 10), 2)
        assert out == Box(3, 3, 16, 10)

    def test_two_steps_equals_one_step_twice(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            prev, curr = random_box(rng), random_box(rng)
            if curr.w <= prev.w or curr.h <= prev.h:
                # growing sizes keep the clamp out of play
                curr = Box(curr.x, curr.y, prev.w + 1.0, prev.h + 1.0)
            once = extrapolate(prev, curr, 1)
            twice = extrapolate(curr, once, 1)
            direct = extrapolate(prev, curr, 2)
            assert twice.x == pytest.approx(direct.x, abs=1e-9)
            assert twice.y == pytest.approx(direct.y, abs=1e-9)
            assert twice.w == pytest.approx(direct.w, abs=1e-9)
            assert twice.h == pytest.approx(direct.h, abs=1e-9)

    def test_size_clamped_positive(self):
        out = extrapolate(Box(0, 0, 10, 10), Box(0, 0, 2, 2), 10)
        assert out.w == 1.0 and out.h == 1.0
