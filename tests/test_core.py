import numpy as np
import pytest

from fcgtrack.core import (
    BBox,
    DegenerateFeatureError,
    Detection,
    DimensionMismatchError,
    EmptyInputError,
    FcgConfig,
    FrameConflictError,
    InvalidConfigError,
    LiftedFrame,
    TrackEntry,
    TrackSet,
    tracklet_new,
)
from oracles import median_by_sorting


def det(frame, feature, score=1.0, box=(0.0, 0.0, 10.0, 10.0), row=-1):
    return Detection(frame=frame, bbox=BBox(*box), score=score, feature=np.array(feature, float), source_row=row)


class TestBBox:
    def test_extreme_points(self):
        b = BBox(3.0, 7.0, 10.0, 20.0)
        assert b.right == 13.0
        assert b.bottom == 27.0
        assert b.area == 200.0

    @pytest.mark.parametrize("w,h", [(0.0, 5.0), (5.0, 0.0), (-1.0, 5.0)])
    def test_rejects_nonpositive_size(self, w, h):
        with pytest.raises(ValueError):
            BBox(0.0, 0.0, w, h)

    def test_coerces_numpy_scalars(self):
        b = BBox(np.float64(1.5), np.float64(2.5), np.float64(3.0), np.float64(4.0))
        assert type(b.x) is float and type(b.w) is float

    @pytest.mark.parametrize("field", ["x", "y", "w", "h"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, field, value):
        fields = dict(x=1.0, y=2.0, w=3.0, h=4.0)
        fields[field] = value
        with pytest.raises(ValueError, match="finite"):
            BBox(**fields)


class TestDetection:
    def test_rejects_zero_norm_feature(self):
        with pytest.raises(DegenerateFeatureError):
            det(1, [0.0, 0.0], row=17)

    def test_zero_norm_message_names_source_row(self):
        with pytest.raises(DegenerateFeatureError, match="17"):
            det(1, [0.0, 0.0], row=17)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_feature(self, bad):
        with pytest.raises(DegenerateFeatureError, match="non-finite.*17"):
            det(1, [1.0, bad, 0.5], row=17)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_rejects_feature_whose_norm_overflows(self):
        with pytest.raises(DegenerateFeatureError):
            det(1, [1e200, 1e200])

    def test_rejects_bad_frame_and_score(self):
        with pytest.raises(ValueError):
            det(0, [1.0])
        with pytest.raises(ValueError):
            det(1, [1.0], score=1.5)

    def test_feature_is_immutable(self):
        d = det(1, [1.0, 2.0])
        with pytest.raises(ValueError):
            d.feature[0] = 5.0


class TestTrackletNew:
    def test_single_detection_median(self):
        t = tracklet_new([det(1, [0.6, 0.8])])
        assert np.array_equal(t.median_feature, [0.6, 0.8])

    def test_odd_count_median(self):
        feats = [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        t = tracklet_new([det(i + 1, f) for i, f in enumerate(feats)])
        assert median_by_sorting(feats) == [1.0, 1.0]
        assert np.array_equal(t.median_feature, [1.0, 1.0])

    def test_even_count_median_is_mean_of_middles(self):
        # Same expected median as the (0,0)/(2,4) textbook case, with valid
        # (nonzero-norm) features.
        feats = [[0.0, 1.0], [2.0, 3.0]]
        t = tracklet_new([det(1, feats[0]), det(2, feats[1])])
        assert median_by_sorting(feats) == [1.0, 2.0]
        assert np.array_equal(t.median_feature, [1.0, 2.0])

    def test_sorts_by_frame(self):
        t = tracklet_new([det(5, [1.0]), det(2, [2.0]), det(9, [3.0])])
        assert [d.frame for d in t.detections] == [2, 5, 9]
        assert t.first_frame == 2 and t.last_frame == 9
        assert t.frame_set == frozenset({2, 5, 9})

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        dets = [det(f + 1, rng.normal(size=6)) for f in range(9)]
        reference = tracklet_new(dets)
        for _ in range(20):
            perm = [dets[i] for i in rng.permutation(len(dets))]
            t = tracklet_new(perm)
            assert t.detections == reference.detections
            assert np.array_equal(t.median_feature, reference.median_feature)

    def test_median_recomputable(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 5, 8):
            dets = [det(f + 1, rng.normal(size=7)) for f in range(n)]
            t = tracklet_new(dets)
            stacked = np.stack([d.feature for d in t.detections])
            assert np.array_equal(t.median_feature, np.median(stacked, axis=0))
            assert median_by_sorting(stacked) == list(t.median_feature)

    def test_duplicate_frame_rejected(self):
        with pytest.raises(FrameConflictError):
            tracklet_new([det(3, [1.0]), det(3, [2.0])])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            tracklet_new([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            tracklet_new([det(1, [1.0]), det(2, [1.0, 2.0])])


class TestLiftedFrame:
    def test_valid_span(self):
        lf = LiftedFrame(level=1, span_start=0, span_end=1, tracklets=())
        assert lf.span_end == 1

    def test_rejects_bad_span_or_level(self):
        with pytest.raises(ValueError):
            LiftedFrame(level=0, span_start=0, span_end=1, tracklets=())
        with pytest.raises(ValueError):
            LiftedFrame(level=1, span_start=2, span_end=2, tracklets=())


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
            {"cf": 0.0},
            {"off": 0.0},
            {"off": 1.5},
            {"score_threshold": 2.0},
            {"feature_dim": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfigError):
            FcgConfig(**kwargs)


class TestTrackSet:
    def test_strictly_increasing_frames_enforced(self):
        b = BBox(0, 0, 1, 1)
        with pytest.raises(FrameConflictError):
            TrackSet(tracks={1: (TrackEntry(2, b, 1.0), TrackEntry(2, b, 1.0))})

    def test_rejects_nonpositive_id(self):
        with pytest.raises(ValueError):
            TrackSet(tracks={0: ()})

    def test_num_boxes(self):
        b = BBox(0, 0, 1, 1)
        ts = TrackSet(tracks={1: (TrackEntry(1, b, 1.0), TrackEntry(2, b, 1.0)), 2: (TrackEntry(1, b, 1.0),)})
        assert ts.num_boxes == 3
        assert len(ts) == 2
