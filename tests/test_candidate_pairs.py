"""Stage 2 weighs only the pairs its cut can reach, and gets every partition and every value
that weighing whole fusions gets (`weighted_blocks` and `overlap_masks`, the dense oracle)."""

from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fcgtrack import clustering, pipeline, weighting  # noqa: E402
from fcgtrack.appearance import cosine_matrix  # noqa: E402
from fcgtrack.clustering import dense  # noqa: E402
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
    # sharing one were all computed, and pairs were ruled out as candidates.
    assert SEEN["linked"] and SEEN["shared"] and SEEN["interleaved"] and SEEN["ruled_out"]


@settings(max_examples=150)
# 2-18 lifted frames: from one fusion alone to 9 linked in one tensor.
@given(lifted_frames(2, 18), CONFIGS, st.booleans())
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
        square = weighted_blocks(level, lo, n, cfg)
        return dense(np.where(overlap_masks(level, lo, n), np.inf, square))

    def compared(sizes, load, *, threshold):
        def recorded(group):
            candidates, pairs = load(group)
            full = weighted_blocks(level, run_lo[group], run_n[group], cfg)
            mask = overlap_masks(level, run_lo[group], run_n[group])
            asked = np.zeros(full.shape, dtype=bool)

            def checked(cells):
                d = pairs(cells)
                assert _same_bits(d, np.where(mask.flat[cells], np.inf, full.flat[cells]))
                asked.flat[cells] = True
                SEEN["shared"] += int((d == np.inf).sum())
                SEEN["interleaved"] += int((d == clustering.CANNOT_LINK).sum())
                return d

            n = run_n[group]
            pos = np.arange(full.shape[1])
            pair = (pos[:, None] < pos) & (pos < n[:, None, None])

            def listed(limit):
                # Every pair whose distance is at most the limit is a candidate.
                cells = candidates(limit)
                reached = pair & (np.where(mask, np.inf, full) <= limit)
                assert np.isin(np.flatnonzero(reached), cells).all()
                return cells

            loads.append((pair, asked))
            return listed, checked

        roots = batch(sizes, recorded, threshold=threshold)
        assert roots.tolist() == batch(sizes, oracle, threshold=threshold).tolist()
        SEEN["ruled_out"] += sum(int((pair & ~asked).sum()) for pair, asked in loads)
        return roots

    with mock.patch.object(pipeline, "cluster_batch", compared):
        _fuse(level, cuts, clustered, cfg)


# Every prior at random, with `off` at either end of its range and between.
STRESSED_CONFIGS = st.builds(
    FcgConfig,
    feature_dim=st.just(DIM),
    window=st.just(WINDOW),
    kt=st.integers(0, 12),
    ct=st.floats(1.0, 8.0),
    off=st.sampled_from([1e-3, 0.15, 1.0]),
    use_temporal=st.booleans(),
    use_spatial=st.booleans(),
    use_motion=st.booleans(),
)


@st.composite
def stressed_levels(draw):
    """A level of 2-8 lifted frames whose medians are near-duplicates of a few directions or
    of their opposites, moved by 1e-17 to 1e-3 of their length, at norms from 1e-150 to 1e150
    (a load with one outside about 1e-75 to 1e75 takes every cell)."""
    frames = draw(lifted_frames(2, 8))
    assume(sum(map(len, frames)) >= 2)
    level = build_level(*frames)
    count = len(level.median)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    directions = rng.normal(size=(draw(st.integers(1, 3)), DIM))
    median = directions[rng.integers(len(directions), size=count)]
    median *= rng.choice([-1.0, 1.0], (count, 1))
    median += median * rng.normal(size=median.shape) * 10.0 ** rng.uniform(-17, -3, (count, 1))
    low, high = sorted([draw(st.integers(-150, 150)), draw(st.integers(-150, 150))])
    return replace(level, median=median * 10.0 ** rng.uniform(low, high, (count, 1)))


def test_candidates_hold_every_pair_within_the_limit():
    SEEN.clear()
    _check_candidates_hold_every_pair_within_the_limit()
    # Some loads ruled pairs out, some took every cell, and some pairs were within the limit.
    assert SEEN["pruned"] and SEEN["every"] and SEEN["reached"]


@settings(max_examples=300)
@given(stressed_levels(), STRESSED_CONFIGS, st.booleans(), st.data())
def _check_candidates_hold_every_pair_within_the_limit(level, cfg, whole, data):
    # One fusion of every lifted frame, or one level step of pairwise fusions, in one load.
    cuts = np.array([0, len(level)]) if whole else np.append(
        np.arange(0, len(level), 2), len(level)
    )
    lo, hi = level.bounds[cuts[:-1]], level.bounds[cuts[1:]]
    lo, n = lo[hi - lo >= 2], (hi - lo)[hi - lo >= 2]
    assume(len(n))
    m = int(n.max())
    pos = np.arange(m)
    within = np.flatnonzero((pos[:, None] < pos) & (pos < n[:, None, None]))
    with np.errstate(all="ignore"):  # cosines of vectors whose squared norms' product is not normal
        candidates, pairs = weighting.fusion_load(level, lo, n, cfg)
        d = pairs(within)
        # Limits near 0, at a pair's own distance, near 1, and at 2 or more, on the scale
        # of the cosines (over `off` with the spatial factors on) or not.
        scale = data.draw(st.sampled_from([1.0, cfg.off]))
        finite = d[np.isfinite(d)].tolist()
        limit = data.draw(st.one_of(
            st.floats(0.0, 1e-9).map(lambda x: x * scale),
            st.sampled_from(finite) if finite else st.just(0.5),
            st.floats(1.0 - 1e-9, 1.0 + 1e-9).map(lambda x: x * scale),
            st.floats(2.0, 8.0).map(lambda x: x * scale),
        ))
        cells = candidates(limit)
    assert (np.diff(cells) > 0).all()
    assert np.isin(within[d <= limit], cells).all()
    SEEN["reached"] += int((d <= limit).sum())
    listed = np.isin(within, cells)
    SEEN["pruned"] += int(not listed.all())
    SEEN["every"] += int(len(cells) == len(n) * m * m)


@pytest.mark.parametrize("limit", [2.0 - 2.0**-40, 2.0, 5.0])
def test_a_limit_near_two_or_more_takes_every_cell(limit):
    # Opposite tracklets whose Gram cell is below -n_i * n_j, further than rounding takes a
    # product of real vectors: from a limit of 2 - SLACK on every cell is a candidate, so a
    # distance of 2 within the limit is never missed.
    level = build_level([[(1, [1.0, 0.0])]], [[(7, [-1.0, 0.0])]])
    gram_blocks = weighting._gram_blocks
    cfg = FcgConfig(feature_dim=2, use_temporal=False, use_spatial=False)

    def spoiled(*args):
        gram = gram_blocks(*args)
        gram[:, 0, 1] = gram[:, 1, 0] = -1.5
        return gram

    with mock.patch.object(weighting, "_gram_blocks", spoiled):
        candidates, pairs = weighting.fusion_load(level, np.array([0]), np.array([2]), cfg)
    assert pairs(np.array([1])).tolist() == [2.0]
    assert candidates(limit).tolist() == [0, 1, 2, 3]


def test_a_nan_gram_cell_raises():
    # Two orthogonal tracklets in adjacent lifted frames, far apart, until their Gram cell is
    # NaN: a NaN cell is a candidate, so its distance is computed and rejected.
    level = build_level([[(1, [1.0, 0.0])]], [[(7, [0.0, 1.0])]])
    gram_blocks = weighting._gram_blocks
    cfg = FcgConfig(feature_dim=2)

    def spoiled(*args):
        gram = gram_blocks(*args)
        gram[:, 0, 1] = gram[:, 1, 0] = np.nan
        return gram

    assert len(_fuse(level, np.array([0, 2]), np.array([True]), cfg).median) == 2
    with mock.patch.object(weighting, "_gram_blocks", spoiled):
        with pytest.raises(ValueError, match="nonnegative"):
            _fuse(level, np.array([0, 2]), np.array([True]), cfg)


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
    weighted = weighting.weighted_pairs
    cfg = FcgConfig(feature_dim=2)

    def spoiled(*args):
        out = weighted(*args)
        out[:] = bad
        return out

    assert len(_fuse(level, np.array([0, 2]), np.array([True]), cfg).median) == 1
    with mock.patch.object(weighting, "weighted_pairs", spoiled):
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
