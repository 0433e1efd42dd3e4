"""Property tests of the per-level arrays: batched fusions, overlap masks, medians."""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fcgtrack.clustering import cluster_matrix  # noqa: E402
from fcgtrack import core, pipeline  # noqa: E402
from fcgtrack.core import (  # noqa: E402
    NETWORK_MAX_SIZE,
    NETWORK_MIN_CELLS,
    DetectionColumns,
    FcgConfig,
    _medians,
)
from fcgtrack.pipeline import _fuse, run  # noqa: E402
from fcgtrack.synthdata import SynthConfig, generate  # noqa: E402
from oracles import (  # noqa: E402
    build_level,
    frame_overlap_mask,
    frames_of,
    fuse_all,
    ids_by_first_detection,
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
# 18-33 lifted frames, 9-17 fusions: most examples link many of them in one tensor.
@given(lifted_frames(18, 33), CONFIGS)
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
            np.where(frame_overlap_mask(pair), np.inf, weighted_square(pair, cfg)),
            threshold=cfg.track_threshold,
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


@settings(max_examples=80)
@given(
    st.lists(
        st.tuples(st.integers(1, NETWORK_MAX_SIZE + 4), st.integers(1, 48)),
        min_size=1, max_size=6, unique_by=lambda size_count: size_count[0],
    ),
    st.sampled_from([4, 128]),
    st.sampled_from([np.float32, np.float64]),
    st.integers(0, 2**32 - 1),
)
@example([(6, 20), (12, 3), (NETWORK_MAX_SIZE + 1, 20)], 128, np.float32, 0)
def test_network_medians_equal_numpy(counts, dim, dtype, seed):
    """Sizes on both sides of `NETWORK_MAX_SIZE`, counts on both sides of `NETWORK_MIN_CELLS`:
    the network and the sort give `np.median`'s values, ties and signed zeros included."""
    rng = np.random.default_rng(seed)
    sizes = rng.permutation(np.repeat(*np.array(counts).T))
    rows = int(sizes.sum())
    values = np.array([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0], dtype=dtype)
    feature = rng.choice(values, (rows, dim))
    feature += rng.normal(0, 1, (rows, dim)).astype(dtype) * (rng.random((rows, dim)) < 0.3)
    members = rng.permutation(rows)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    groups = rng.permutation(len(sizes))
    with mock.patch.object(core, "_middle_network", wraps=core._middle_network) as network:
        got = _medians(feature, members, offsets, groups)
    networked = {size for size, count in counts
                 if size <= NETWORK_MAX_SIZE and count * dim >= NETWORK_MIN_CELLS}
    assert {call.args[0] for call in network.call_args_list} == networked
    assert got.dtype == np.float64
    for g, median in zip(groups, got):
        rows_of_g = feature[members[offsets[g] : offsets[g + 1]]].astype(np.float64)
        # `==` counts -0.0 and 0.0 as equal.
        assert np.array_equal(median, np.median(rows_of_g, axis=0))


def same_bits_but_zero_sign(a, b):
    """Bit equality of two float64 arrays, counting -0.0 as 0.0 (adding 0.0 clears the sign)."""
    return np.array_equal((a + 0.0).view(np.int64), (b + 0.0).view(np.int64))


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(1, NETWORK_MAX_SIZE + 4), st.integers(1, 40)),
        min_size=1, max_size=5, unique_by=lambda size_count: size_count[0],
    ),
    st.integers(1, 3 * NETWORK_MAX_SIZE),
    st.sampled_from([np.float32, np.float64]),
    st.integers(0, 2**32 - 1),
)
def test_medians_in_blocks_equal_numpy(counts, block_rows, dtype, seed):
    """Size classes gathered in blocks of `block_rows` feature rows (one group at least), so
    that most classes span several blocks, by network (64 columns, 32 groups or more) or by
    sorting: each median has the bits of `np.median`'s in float64, the sign of a zero aside."""
    rng = np.random.default_rng(seed)
    sizes = rng.permutation(np.repeat(*np.array(counts).T))
    rows, dim = int(sizes.sum()), 64
    values = np.array([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0], dtype=dtype)
    feature = rng.choice(values, (rows, dim))
    feature += rng.normal(0, 1, (rows, dim)).astype(dtype) * (rng.random((rows, dim)) < 0.3)
    members = rng.permutation(rows)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    groups = rng.permutation(len(sizes))
    block_bytes = block_rows * dim * np.dtype(dtype).itemsize
    with mock.patch.object(core, "_BLOCK_BYTES", block_bytes):
        got = _medians(feature, members, offsets, groups)
    expected = [np.median(feature[members[offsets[g] : offsets[g + 1]]].astype(np.float64), axis=0)
                for g in groups]
    assert same_bits_but_zero_sign(got, np.array(expected).reshape(got.shape))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_medians_of_classes_larger_than_a_block(dtype):
    """At the real block size, classes of 2, 3 and 40 rows that each fill two to four blocks."""
    rng = np.random.default_rng(11)
    dim = 256
    block_rows = core._BLOCK_BYTES // (dim * np.dtype(dtype).itemsize)
    sizes = rng.permutation(np.repeat([2, 3, 40], [block_rows, block_rows, 3 * block_rows // 40]))
    feature = rng.normal(size=(int(sizes.sum()), dim)).astype(dtype)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    got = _medians(feature, np.arange(len(feature)), offsets, np.arange(len(sizes)))
    expected = [np.median(feature[offsets[g] : offsets[g + 1]].astype(np.float64), axis=0)
                for g in range(len(sizes))]
    assert same_bits_but_zero_sign(got, np.array(expected))


@settings(max_examples=40)
@given(
    st.integers(3, 10), st.integers(12, 60), st.sampled_from([0.03, 0.07]), st.booleans(),
    st.booleans(), st.integers(0, 2**32 - 1),
)
def test_tracks_are_numbered_by_first_detection(ids, frames, sigma, consecutive, reverse, seed):
    """Every level numbers its tracklets in strictly increasing order of their first row, each
    tracklet's rows ascending, so `run` numbers tracks as the sort of its final level by first
    (frame, source row) does: with source rows reversed within frames, and rows in any order."""
    seq, _ = generate(SynthConfig(
        num_identities=ids, num_frames=frames, feature_dim=64, feature_noise_sigma=sigma,
        seed=seed,
    ))
    if reverse:
        seq = DetectionColumns(seq.frame, seq.box, seq.score, seq.row[::-1], seq.feature)
    seq = seq.take(np.random.default_rng(seed).permutation(len(seq)))
    levels, fuse = [], pipeline._fuse

    def recording(*args):
        levels.append(fuse(*args))
        return levels[-1]

    with mock.patch.object(pipeline, "_fuse", recording):
        tracks = run(seq, FcgConfig(feature_dim=64, consecutive=consecutive))
    for level in levels:
        first = level.members[level.offsets[:-1]]
        assert np.all(first[1:] > first[:-1])
        assert all(rows == sorted(rows) for rows in tracklet_rows(level))
    # `generate_tracklets` returns a `_fuse` result, and so does every fusion: the last is final.
    assert tracks == ids_by_first_detection(levels[-1])
