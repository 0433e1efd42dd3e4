import dataclasses

import numpy as np
import pytest

from fcgtrack.core import FcgConfig, FrameConflictError, InvalidConfigError, Level, ParseError
from fcgtrack.io_mot import _check_box
from oracles import (
    Box,
    Entry,
    build_level,
    fuse_all,
    median_by_sorting,
    track_entries,
    track_set,
    tracklet_frames,
)


def det(frame, feature, score=1.0, box=(0.0, 0.0, 10.0, 10.0), row=-1):
    return (frame, feature, box, score, row)


class TestBBox:
    """The box rule of the row walkers, `io_mot._check_box`."""

    @pytest.mark.parametrize("w,h", [(0.0, 5.0), (5.0, 0.0), (-1.0, 5.0)])
    def test_rejects_nonpositive_size(self, w, h):
        with pytest.raises(ParseError):
            _check_box(0.0, 0.0, w, h, "t line 1")

    @pytest.mark.parametrize("field", ["x", "y", "w", "h"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, field, value):
        fields = dict(x=1.0, y=2.0, w=3.0, h=4.0)
        fields[field] = value
        with pytest.raises(ParseError, match="finite"):
            _check_box(**fields, where="t line 1")


class TestTrackletNew:
    """New tracklets: the medians and frame order of a level that `oracles.build_level` builds."""

    def test_single_detection_median(self):
        assert np.array_equal(build_level([[det(1, [0.6, 0.8])]]).median[0], [0.6, 0.8])

    def test_odd_count_median(self):
        feats = [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        level = build_level([[det(i + 1, f) for i, f in enumerate(feats)]])
        assert median_by_sorting(feats) == [1.0, 1.0]
        assert np.array_equal(level.median[0], [1.0, 1.0])

    def test_even_count_median_is_mean_of_middles(self):
        # Same expected median as the (0,0)/(2,4) textbook case, with valid
        # (nonzero-norm) features.
        feats = [[0.0, 1.0], [2.0, 3.0]]
        level = build_level([[det(1, feats[0]), det(2, feats[1])]])
        assert median_by_sorting(feats) == [1.0, 2.0]
        assert np.array_equal(level.median[0], [1.0, 2.0])

    def test_sorts_by_frame(self):
        level = build_level([[det(5, [1.0]), det(2, [2.0]), det(9, [3.0])]])
        assert level.table.frame[level.members].tolist() == [2, 5, 9]
        assert tracklet_frames(level, 0) == [2, 5, 9]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        dets = [det(f + 1, rng.normal(size=6)) for f in range(9)]
        reference = build_level([dets])
        for _ in range(20):
            level = build_level([[dets[i] for i in rng.permutation(len(dets))]])
            assert level.table.frame[level.members].tolist() == reference.table.frame.tolist()
            assert np.array_equal(level.table.feature[level.members], reference.table.feature)
            assert np.array_equal(level.median, reference.median)

    def test_median_recomputable(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 5, 8):
            level = build_level([[det(f + 1, rng.normal(size=7)) for f in range(n)]])
            stacked = level.table.feature[level.members]
            assert np.array_equal(level.median[0], np.median(stacked, axis=0))
            assert median_by_sorting(stacked) == list(level.median[0])


class TestLevel:
    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(Level) if f.name != "table"]
    )
    def test_arrays_are_read_only(self, name):
        built = build_level([[det(1, [1.0, 0.0])]], [[det(2, [1.0, 0.0])], [det(2, [0.0, 1.0])]])
        for level in (built, fuse_all(built, FcgConfig(feature_dim=2))):
            array = getattr(level, name)
            with pytest.raises(ValueError, match="read-only"):
                array[...] = array


class TestFcgConfig:
    def test_defaults(self):
        cfg = FcgConfig()
        assert cfg.window == 6
        assert cfg.tracklet_threshold == 0.055
        assert cfg.track_threshold == 0.055
        assert cfg.kt == 40 and cfg.ct == 4.0
        assert cfg.off == 0.15
        assert cfg.kf == 2.0 and cfg.cf == 2.0
        assert cfg.score_threshold == 0.7
        assert cfg.feature_dim == 2048
        assert cfg.use_temporal and cfg.use_spatial and cfg.consecutive
        assert not cfg.use_motion

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0},
            {"tracklet_threshold": 0.0},
            {"track_threshold": -1.0},
            {"ct": 0.5},
            {"ct": float("inf")},
            {"cf": 0.0},
            {"cf": float("inf")},
            {"off": 0.0},
            {"off": 1.5},
            {"score_threshold": 2.0},
            {"feature_dim": 0},
            {"kt": -1},
            {"kt": float("nan")},
            {"kf": -1.0},
            {"kf": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfigError):
            FcgConfig(**kwargs)

    def test_window_is_bounded_by_int64(self):
        top = 2**63 - 1
        assert FcgConfig(window=top).window == top
        with pytest.raises(InvalidConfigError, match=f"^window must be <= {top}, got {top + 1}$"):
            FcgConfig(window=top + 1)


class TestTrackSet:
    def test_strictly_increasing_frames_enforced(self):
        b = Box(0, 0, 1, 1)
        with pytest.raises(FrameConflictError):
            track_set({1: (Entry(2, b, 1.0), Entry(2, b, 1.0))})

    def test_rejects_nonpositive_id(self):
        with pytest.raises(ValueError):
            track_set({0: (Entry(1, Box(0, 0, 1, 1), 1.0),)})

    def test_num_boxes(self):
        b = Box(0, 0, 1, 1)
        ts = track_set({1: (Entry(1, b, 1.0), Entry(2, b, 1.0)), 2: (Entry(1, b, 1.0),)})
        assert ts.num_boxes == 3
        assert len(ts) == 2

    def test_id_without_entries_holds_no_rows(self):
        b = Box(0, 0, 1, 1)
        empty = track_set({3: ()})
        assert empty == track_set({})
        assert len(empty) == 0 and empty.num_boxes == 0 and track_entries(empty) == {}
        assert track_set({3: (), 5: (Entry(1, b, 1.0),)}) == track_set(
            {5: (Entry(1, b, 1.0),)}
        )

    def test_tracks_list_ids_in_ascending_order(self):
        b = Box(0, 0, 1, 1)
        ts = track_set({9: (Entry(1, b, 1.0),), 2: (Entry(4, b, 0.5),)})
        assert list(track_entries(ts)) == [2, 9]
        assert track_entries(ts)[2] == (Entry(4, b, 0.5),)

    def test_equality_compares_columns(self):
        b = Box(0, 0, 1, 1)
        one = track_set({1: (Entry(1, b, 1.0),)})
        assert one == track_set({1: (Entry(1, Box(0.0, 0.0, 1.0, 1.0), 1),)})
        assert one != track_set({1: (Entry(1, b, 0.5),)})
        assert one != track_set({1: (Entry(2, b, 1.0),)})
        assert one != track_set({2: (Entry(1, b, 1.0),)})
        assert one != track_set({1: (Entry(1, Box(0, 0, 1, 2), 1.0),)})


class TestThresholdBound:
    """A cut threshold at or above the cannot-link sentinel would cut nothing safely."""

    @pytest.mark.parametrize("field", ["tracklet_threshold", "track_threshold"])
    @pytest.mark.parametrize("value", [1.0e6, 5.0e6, float("inf")])
    def test_rejects_threshold_at_or_above_cannot_link(self, field, value):
        with pytest.raises(InvalidConfigError, match=f"^{field} must be in"):
            FcgConfig(**{field: value})

    @pytest.mark.parametrize("field", ["tracklet_threshold", "track_threshold"])
    def test_accepts_threshold_just_below_cannot_link(self, field):
        below = float(np.nextafter(1.0e6, 0.0))
        assert getattr(FcgConfig(**{field: below}), field) == below

    def test_sentinel_is_shared(self):
        from fcgtrack import clustering, core

        assert core.CANNOT_LINK == clustering.CANNOT_LINK == 1.0e6
