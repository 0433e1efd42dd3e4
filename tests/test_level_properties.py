"""Property tests of the per-level arrays: batched fusions, overlap masks, medians."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fcgtrack.clustering import BATCH_MIN, cluster_matrix  # noqa: E402
from fcgtrack.core import FcgConfig, LiftedFrame, _medians, level_of  # noqa: E402
from fcgtrack.pipeline import _fuse, fuse_lifted_frames  # noqa: E402
from fcgtrack.weighting import weighted_matrix  # noqa: E402
from oracles import frame_overlap_mask, median_by_sorting, overlap_masks, tracklets  # noqa: E402

DIM = 4
WINDOW = 6


@st.composite
def lifted_frames(draw, min_frames, max_frames):
    """Consecutive lifted frames of up to three tracklets each, over one table.

    Lifted frame f draws its tracklets' frames from its window and the next
    one, so tracklets of one frame share frames and interleave, and so do
    those of neighbouring frames. Features lie near a few axes, boxes near a
    few positions, so that many pairs merge.
    """
    count = draw(st.integers(min_frames, max_frames))
    axis = st.integers(0, DIM - 1)
    noise = st.floats(-0.0625, 0.0625, width=32)
    groups, sizes = [], []
    for f in range(count):
        sizes.append(draw(st.integers(0, 3)))
        for _ in range(sizes[-1]):
            span = st.integers(f * WINDOW + 1, (f + 2) * WINDOW)
            frames = sorted(draw(st.sets(span, min_size=1, max_size=5)))
            base, x = np.eye(DIM)[draw(axis)], draw(st.sampled_from([0.0, 8.0, 40.0]))
            features = [base + draw(st.lists(noise, min_size=DIM, max_size=DIM)) for _ in frames]
            groups.append([
                (frame, feature, (x + frame, 0.0, 10.0, 20.0))
                for frame, feature in zip(frames, features)
            ])
    built = iter(tracklets(*groups))
    return [
        LiftedFrame(f, f + 1, tuple(next(built) for _ in range(n))) for f, n in enumerate(sizes)
    ]


CONFIGS = st.builds(
    FcgConfig,
    feature_dim=st.just(DIM),
    window=st.just(WINDOW),
    track_threshold=st.sampled_from([0.01, 0.1, 0.4]),
    use_temporal=st.booleans(),
    use_spatial=st.booleans(),
    use_motion=st.booleans(),
)


def same_tracklets(got, expected):
    assert (got.span_start, got.span_end) == (expected.span_start, expected.span_end)
    assert len(got.tracklets) == len(expected.tracklets)
    for a, b in zip(got.tracklets, expected.tracklets):
        assert a.columns is b.columns
        assert a.rows.tolist() == b.rows.tolist()
        assert np.array_equal(a.median_feature, b.median_feature)


@settings(max_examples=80)
# Enough fusions that most examples link BATCH_MIN or more of them together.
@given(lifted_frames(2 * BATCH_MIN + 2, 4 * BATCH_MIN + 1), CONFIGS)
def test_batched_level_equals_each_pair_fused_alone(frames, cfg):
    assume(any(frame.tracklets for frame in frames))  # a level holds a tracklet
    level = level_of(frames)
    cuts = np.append(np.arange(0, len(frames), 2), len(frames))
    batched = _fuse(level, cuts, np.diff(cuts) == 2, cfg)
    assert len(batched) == len(cuts) - 1
    for g, got in enumerate(batched):
        pair = frames[2 * g : 2 * g + 2]
        if len(pair) == 1:
            same_tracklets(got, pair[0])  # the odd trailing frame, carried
            continue
        same_tracklets(got, fuse_lifted_frames(*pair, cfg))
        # The pair alone, by the per-fusion reference: its weighted matrix and
        # the frame-set overlap mask, clustered, and each cluster's detections.
        union = pair[0].tracklets + pair[1].tracklets
        partition = cluster_matrix(
            weighted_matrix(union, cfg), frame_overlap_mask(union), threshold=cfg.track_threshold
        )
        frame_of = union[0].columns.frame if union else None
        for tracklet, members in zip(got.tracklets, partition):
            rows = [r for i in members for r in union[i].rows.tolist()]
            rows.sort(key=frame_of.__getitem__)
            assert tracklet.rows.tolist() == rows
            feature = tracklet.columns.feature[rows]
            assert tracklet.median_feature.tolist() == median_by_sorting(feature)


@settings(max_examples=80)
@given(lifted_frames(1, 6), st.data())
def test_overlap_mask_equals_frame_sets(frames, data):
    assume(any(frame.tracklets for frame in frames))  # a level holds a tracklet
    level = level_of(frames)
    n = len(level.median)
    # Random ranges of tracklets, in order, some of them skipped.
    cuts = sorted(data.draw(st.sets(st.integers(0, n), max_size=5)) | {0, n})
    ranges = [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a and data.draw(st.booleans())]
    if not ranges:
        return
    lo, hi = np.array(ranges).T
    masks = overlap_masks(level, lo, hi - lo)
    everything = [t for frame in frames for t in frame.tracklets]
    for k, (a, b) in enumerate(ranges):
        expected = frame_overlap_mask(everything[a:b])
        got = masks[k, : b - a, : b - a]
        off = ~np.eye(b - a, dtype=bool)  # a tracklet never links with itself
        assert np.array_equal(got[off], expected[off])
        assert not masks[k, b - a :].any() and not masks[k, :, b - a :].any()


@settings(max_examples=100)
@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=12),
    st.sampled_from([np.float32, np.float64]),
    st.integers(0, 2**32 - 1),
)
def test_bucketed_medians_equal_sorting(sizes, dtype, seed):
    rng = np.random.default_rng(seed)
    rows = sum(sizes) + 3
    # Few distinct values, so that columns hold ties.
    feature = rng.integers(-4, 5, (rows, 3)).astype(dtype) / dtype(4)
    feature += rng.normal(0, 1e-3, (rows, 3)).astype(dtype) * rng.integers(0, 2, (rows, 3))
    members = rng.permutation(rows)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    groups = rng.permutation(len(sizes))[: max(1, len(sizes) // 2)]
    got = _medians(feature, members, offsets, groups)
    assert got.dtype == np.float64
    for g, median in zip(groups, got):
        values = feature[members[offsets[g] : offsets[g + 1]]].astype(np.float64)
        assert median.tolist() == median_by_sorting(values)


def test_medians_of_large_groups():
    rng = np.random.default_rng(7)
    sizes = [16, 17, 48]
    feature = rng.normal(size=(sum(sizes), 5)).astype(np.float32)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    got = _medians(feature, np.arange(sum(sizes)), offsets, np.arange(3))
    for g, median in enumerate(got):
        values = feature[offsets[g] : offsets[g + 1]].astype(np.float64)
        assert median.tolist() == median_by_sorting(values)
