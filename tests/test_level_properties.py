"""Property tests of the per-level arrays: batched fusions, overlap masks, medians."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fcgtrack.clustering import BATCH_MIN, cluster_matrix  # noqa: E402
from fcgtrack.core import FcgConfig, _medians  # noqa: E402
from fcgtrack.pipeline import _fuse  # noqa: E402
from oracles import (  # noqa: E402
    build_level,
    frame_overlap_mask,
    frames_of,
    fuse_all,
    median_by_sorting,
    overlap_masks,
    same_level,
    tracklet_rows,
    weighted_square,
)

DIM = 4
WINDOW = 6


@st.composite
def lifted_frames(draw, min_frames, max_frames):
    """Consecutive lifted frames of up to three tracklets each, as `oracles.build_level` takes
    them: per frame, a list of each tracklet's row tuples.

    Lifted frame f draws its tracklets' frames from its window and the next
    one, so tracklets of one frame share frames and interleave, and so do
    those of neighbouring frames. Features lie near a few axes, boxes near a
    few positions, so that many pairs merge.
    """
    count = draw(st.integers(min_frames, max_frames))
    axis = st.integers(0, DIM - 1)
    noise = st.floats(-0.0625, 0.0625, width=32)
    frames = []
    for f in range(count):
        frames.append([])
        for _ in range(draw(st.integers(0, 3))):
            span = st.integers(f * WINDOW + 1, (f + 2) * WINDOW)
            times = sorted(draw(st.sets(span, min_size=1, max_size=5)))
            base, x = np.eye(DIM)[draw(axis)], draw(st.sampled_from([0.0, 8.0, 40.0]))
            features = [base + draw(st.lists(noise, min_size=DIM, max_size=DIM)) for _ in times]
            frames[-1].append([
                (frame, feature, (x + frame, 0.0, 10.0, 20.0))
                for frame, feature in zip(times, features)
            ])
    return frames


CONFIGS = st.builds(
    FcgConfig,
    feature_dim=st.just(DIM),
    window=st.just(WINDOW),
    track_threshold=st.sampled_from([0.01, 0.1, 0.4]),
    use_temporal=st.booleans(),
    use_spatial=st.booleans(),
    use_motion=st.booleans(),
)


@settings(max_examples=80)
# Enough fusions that most examples link BATCH_MIN or more of them together.
@given(lifted_frames(2 * BATCH_MIN + 2, 4 * BATCH_MIN + 1), CONFIGS)
def test_batched_level_equals_each_pair_fused_alone(frames, cfg):
    assume(any(frames))  # a level holds a tracklet
    level = build_level(*frames)
    cuts = np.append(np.arange(0, len(frames), 2), len(frames))
    batched = _fuse(level, cuts, np.diff(cuts) == 2, cfg)
    assert len(batched) == len(cuts) - 1
    for g in range(len(batched)):
        got = frames_of(batched, g, g + 1)
        pair = frames_of(level, 2 * g, min(2 * g + 2, len(frames)))
        if len(pair) == 1:
            assert same_level(got, pair)  # the odd trailing frame, carried
            continue
        assert same_level(got, fuse_all(pair, cfg))
        # The pair alone, by the per-fusion reference: its weighted matrix and
        # the frame-set overlap mask, clustered, and each cluster's detections.
        partition = cluster_matrix(
            weighted_square(pair, cfg), frame_overlap_mask(pair), threshold=cfg.track_threshold
        )
        union = tracklet_rows(pair)
        assert len(partition) == len(got.median)
        frame_of = level.table.frame.__getitem__
        for rows, median, members in zip(tracklet_rows(got), got.median, partition):
            assert rows == sorted((r for i in members for r in union[i]), key=frame_of)
            assert median.tolist() == median_by_sorting(level.table.feature[rows])


@settings(max_examples=80)
@given(lifted_frames(1, 6), st.data())
def test_overlap_mask_equals_frame_sets(frames, data):
    assume(any(frames))  # a level holds a tracklet
    level = build_level(*frames)
    n = len(level.median)
    # Random ranges of tracklets, in order, some of them skipped.
    cuts = sorted(data.draw(st.sets(st.integers(0, n), max_size=5)) | {0, n})
    ranges = [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a and data.draw(st.booleans())]
    if not ranges:
        return
    lo, hi = np.array(ranges).T
    masks = overlap_masks(level, lo, hi - lo)
    everything = frame_overlap_mask(level)
    for k, (a, b) in enumerate(ranges):
        expected = everything[a:b, a:b]
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
