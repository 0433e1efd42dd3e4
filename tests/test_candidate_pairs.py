"""Stage 2 weighs only the pairs its cut can reach, and gets every partition and every value
that weighing whole fusions gets (`weighted_blocks` and `overlap_masks`, the dense oracle)."""

from collections import Counter
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fcgtrack import clustering, pipeline  # noqa: E402
from fcgtrack.appearance import cosine_matrix  # noqa: E402
from fcgtrack.clustering import BATCH_MIN, dense  # noqa: E402
from fcgtrack.core import FcgConfig  # noqa: E402
from fcgtrack.pipeline import _fuse  # noqa: E402
from oracles import build_level, overlap_masks, weighted_blocks, weighted_square  # noqa: E402
from test_level_properties import DIM, WINDOW, lifted_frames  # noqa: E402

# Every prior at random; thresholds from the noise inside an axis (about 0.01) up to far
# beyond it, so that components of every kind occur.
CONFIGS = st.builds(
    FcgConfig,
    feature_dim=st.just(DIM),
    window=st.just(WINDOW),
    track_threshold=st.floats(0.001, 0.6),
    kt=st.integers(0, 12),
    ct=st.floats(1.0, 8.0),
    off=st.floats(0.01, 1.0),
    kf=st.floats(0.0, 4.0),
    cf=st.floats(1.0, 8.0),
    use_temporal=st.booleans(),
    use_spatial=st.booleans(),
    use_motion=st.booleans(),
)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# What the examples of the oracle comparison reached, summed over them.
SEEN = Counter()


def test_candidate_pairs_equal_the_dense_oracle():
    SEEN.clear()
    link = clustering._link

    def counted_link(*args):
        SEEN["linked"] += 1
        return link(*args)

    with mock.patch.object(clustering, "_link", counted_link):
        _check_candidate_pairs_equal_the_dense_oracle()
    # Components that are linked, pairs that share a frame and pairs that interleave without
    # sharing one were all computed, and pairs were ruled out by the bound.
    assert SEEN["linked"] and SEEN["shared"] and SEEN["interleaved"] and SEEN["ruled_out"]


@settings(max_examples=150)
@given(lifted_frames(2, 2 * BATCH_MIN + 2), CONFIGS, st.booleans())
def _check_candidate_pairs_equal_the_dense_oracle(frames, cfg, whole):
    assume(any(frames))
    level = build_level(*frames)
    # One level step of pairwise fusions, or one fusion of every frame.
    cuts = np.array([0, len(frames)]) if whole else np.append(
        np.arange(0, len(frames), 2), len(frames)
    )
    clustered = np.diff(cuts) >= 2 if not whole else np.array([True])
    run_lo = level.bounds[cuts[:-1]][clustered]
    run_n = (level.bounds[cuts[1:]] - level.bounds[cuts[:-1]])[clustered]
    batch = pipeline.cluster_batch
    loads = []  # the pairs of each load, and those asked for

    def oracle(group):
        lo, n = run_lo[group], run_n[group]
        return dense(weighted_blocks(level, lo, n, cfg), overlap_masks(level, lo, n))

    def compared(sizes, load, *, threshold):
        def recorded(group):
            bound, pairs = load(group)
            full = weighted_blocks(level, run_lo[group], run_n[group], cfg)
            mask = overlap_masks(level, run_lo[group], run_n[group])
            asked = np.zeros(full.shape, dtype=bool)

            def checked(k, i, j):
                d = pairs(k, i, j)
                assert _same_bits(d, np.where(mask[k, i, j], np.inf, full[k, i, j]))
                asked[k, i, j] = True
                SEEN["shared"] += int((d == np.inf).sum())
                SEEN["interleaved"] += int((d == clustering.CANNOT_LINK).sum())
                return d

            n = run_n[group]
            pos = np.arange(full.shape[1])
            pair = (pos[:, None] < pos) & (pos < n[:, None, None])
            assert (np.asarray(bound)[pair] <= full[pair]).all()
            loads.append((pair, asked))
            return bound, checked

        roots = batch(sizes, recorded, threshold=threshold)
        assert roots.tolist() == batch(sizes, oracle, threshold=threshold).tolist()
        SEEN["ruled_out"] += sum(int((pair & ~asked).sum()) for pair, asked in loads)
        return roots

    with mock.patch.object(pipeline, "cluster_batch", compared):
        _fuse(level, cuts, clustered, cfg)


@st.composite
def close_boxes(draw):
    """A level of tracklets of one frame each whose boxes are one box, at coordinates up to 1e6,
    moved by a few ulps or not at all: the IoU distances of such pairs round to about 0."""
    count = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    box = np.concatenate([rng.uniform(0, 1e6, 2), rng.uniform(1, 500, 2)])
    groups = []
    for k in range(count):
        moved = box * (1 + rng.normal(0, 1e-15, 4) * draw(st.integers(0, 1)))
        groups.append([(1 + 2 * k, rng.normal(size=DIM), tuple(moved.tolist()))])
    return build_level(groups)


@settings(max_examples=200)
@given(st.one_of(close_boxes(), lifted_frames(1, 4).map(
    lambda frames: build_level(sum(frames, []))
)), CONFIGS)
def test_weighted_distance_is_bounded_by_the_cosine_times_off(built, cfg):
    assume(len(built.median))
    cos = cosine_matrix(built.median)
    weighted = weighted_square(built, cfg)
    assert (weighted >= (cos * cfg.off if cfg.use_spatial else cos)).all()


@pytest.mark.parametrize("bad", [np.nan, -1e-12])
def test_a_bad_pair_distance_raises(bad):
    # Two tracklets of the same feature in two adjacent lifted frames: a candidate pair.
    level = build_level([[(1, [1.0, 0.0])]], [[(7, [1.0, 0.0])]])
    weighted = pipeline.weighted_pairs
    cfg = FcgConfig(feature_dim=2)

    def spoiled(*args):
        out = weighted(*args)
        out[:] = bad
        return out

    assert len(_fuse(level, np.array([0, 2]), np.array([True]), cfg).median) == 1
    with mock.patch.object(pipeline, "weighted_pairs", spoiled):
        with pytest.raises(ValueError, match="nonnegative"):
            _fuse(level, np.array([0, 2]), np.array([True]), cfg)


@pytest.mark.parametrize("bad", [np.nan, -0.5])
def test_a_bad_dense_distance_raises_wherever_it_is(bad):
    # The bad entry sits among pairs far above the threshold: it is still read.
    square = np.full((4, 4), 0.9)
    square[1, 3] = square[3, 1] = bad
    with pytest.raises(ValueError, match="nonnegative"):
        clustering.cluster_matrix(square, threshold=0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        clustering.cluster_batch([4], lambda group: dense(square[None]), threshold=0.1)
