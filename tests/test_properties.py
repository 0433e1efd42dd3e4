"""Property tests of the tracker and its I/O on generated detection lists."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fcgtrack.core import FcgConfig, TrackSet  # noqa: E402
from fcgtrack.io_mot import (  # noqa: E402
    _track_rows,
    detection_features,
    parse_detections,
    parse_ground_truth,
    subsample,
    write_detections,
    write_features,
    write_ground_truth,
    write_tracks,
)
from fcgtrack.metrics import id_switches, idf1  # noqa: E402
from fcgtrack.pipeline import generate_tracklets, run  # noqa: E402
from oracles import (  # noqa: E402
    Box,
    Entry,
    brute_force_assignment,
    brute_force_idf1,
    columns,
    matched_frames,
    per_pair_id_switches,
    track_entries,
    track_set,
    weighted_distance,
    weighted_square,
)

DIM = 4
CFG = FcgConfig(feature_dim=DIM, window=3)
COLUMNS = ("frame", "box", "score", "row", "feature")


@st.composite
def detection_lists(draw, max_size=24, max_frame=20):
    """Frame-sorted detection row tuples (`oracles.columns`) of up to DIM
    identities, source rows 0..n-1.

    Features are a basis vector plus small noise, rounded to float32 so that
    the feature sidecar stores them exactly.
    """
    n = draw(st.integers(0, max_size))
    frames = sorted(draw(st.lists(st.integers(1, max_frame), min_size=n, max_size=n)))
    coord = st.floats(0.0, 500.0, allow_subnormal=False)
    size = st.floats(1.0, 120.0)
    noise = st.floats(-0.0625, 0.0625, width=32, allow_subnormal=False)
    dets = []
    for row, frame in enumerate(frames):
        feature = np.eye(DIM)[draw(st.integers(0, DIM - 1))]
        feature = feature + draw(st.lists(noise, min_size=DIM, max_size=DIM))
        feature = feature.astype(np.float32).astype(np.float64)
        box = (draw(coord), draw(coord), draw(size), draw(size))
        dets.append((frame, feature, box, draw(st.floats(0.0, 1.0)), row))
    return dets


@st.composite
def track_sets(draw, ids, frames, boxes, max_ids=4):
    """A TrackSet with scores 1.0: up to `max_ids` distinct IDs drawn from
    `ids`, each with one or more distinct frames from `frames` and a box from
    `boxes` per frame."""
    tracks = {}
    for tid in draw(st.lists(ids, max_size=max_ids, unique=True)):
        track_frames = sorted(draw(st.lists(frames, min_size=1, max_size=6, unique=True)))
        tracks[tid] = tuple(Entry(f, Box(*draw(boxes)), 1.0) for f in track_frames)
    return track_set(tracks)


ANY_BOX = st.tuples(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
# Coarse positions, so that boxes of different IDs collide and tie.
GRID_BOX = st.tuples(
    st.sampled_from([0.0, 6.0, 12.0, 18.0]), st.sampled_from([0.0, 3.0]),
    st.just(10.0), st.just(10.0),
)
INT64 = st.integers(1, 2**63 - 1)


def assert_same_columns(a, b):
    for name in COLUMNS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@settings(max_examples=60)
@given(st.data())
def test_run_output_ignores_input_order(data):
    dets = data.draw(detection_lists())
    shuffled = data.draw(st.permutations(dets))
    assert write_tracks(run(columns(shuffled), CFG)) == write_tracks(run(columns(dets), CFG))


@settings(max_examples=60)
@given(detection_lists(), st.booleans(), st.booleans())
def test_no_track_repeats_a_frame(dets, motion, consecutive):
    cfg = FcgConfig(feature_dim=DIM, window=3, use_motion=motion, consecutive=consecutive)
    tracks = run(columns(dets), cfg)
    assert tracks.num_boxes == len(dets)
    for entries in track_entries(tracks).values():
        frames = [e.frame for e in entries]
        assert all(a < b for a, b in zip(frames, frames[1:]))


@settings(max_examples=60)
@given(detection_lists(max_frame=60), st.integers(1, 5), st.integers(1, 5))
def test_subsample_composes(dets, a, b):
    seq = columns(dets)
    twice = subsample(subsample(seq, a), b)
    direct = subsample(seq, a * b)
    assert_same_columns(twice, direct)


@settings(max_examples=60)
@given(detection_lists())
def test_write_then_parse_round_trips_every_column(dets):
    seq = columns(dets, dim=DIM)
    cfg = FcgConfig(feature_dim=DIM, score_threshold=0.0)
    again = parse_detections(
        write_detections(seq), write_features(detection_features(seq, DIM)), cfg
    )
    assert again.row.tolist() == list(range(len(dets)))
    for name in ("frame", "box", "score", "row"):
        assert np.array_equal(getattr(again, name), getattr(seq, name)), name
    assert np.array_equal(again.feature, detection_features(seq, DIM))


# Result values `write_tracks` must print as `%` does: ties and near-ties at
# both precisions, signed zeros and small negatives, values around the 2**52
# bound of the array rule, non-finite values and scores at the ends of [0, 1].
RESULT_VALUE = st.one_of(
    st.sampled_from([
        2.675, 10.125, 0.125, 0.015, 1.00005, 0.0, -0.0, -0.001, -1e-9, 1.0, 5e-5,
        0.99995, 2**52 / 100, -(2**52) / 100, 2**52 / 10**4, math.inf, -math.inf, math.nan,
    ]),
    st.integers(-(10**6), 10**6).map(lambda k: k + 0.005),
    st.floats(-0.01, 0.0),
    st.floats(2**52 / 100 * (1 - 1e-12), 2**52 / 100 * (1 + 1e-12)),
    st.floats(-1e6, 1e6),
    st.floats(),
)
# Values the array rule decides, so that its path is drawn as often as the other.
PLAIN_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, -0.001, 1.0, 5e-5]), st.floats(-0.01, 0.0), st.floats(-1e6, 1e6)
)
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
RESULT_ROWS = st.sampled_from([PLAIN_VALUE, PLAIN_VALUE | NON_FINITE, RESULT_VALUE]).flatmap(
    lambda value: st.lists(
        st.tuples(
            st.one_of(st.integers(1, 3), st.integers(10**18, 2**63 - 1)),
            st.one_of(st.integers(-3, 3), st.integers(10**18, 2**63 - 1)),
            st.lists(value, min_size=5, max_size=5),
        ),
        max_size=10,
        unique_by=lambda row: row[:2],
    )
)


@settings(max_examples=300)
@given(RESULT_ROWS)
@example([])
@example([(1, 1, [2.675, 10.125, -0.001, -0.0, 5e-5])])
@example([(2**63 - 1, 2**63 - 1, [1.5, 2.25, 3.0, 4.75, 1.0])])
@example([(1, 1, [math.nan, 1.5, -math.inf, math.inf, 0.5])])
def test_written_results_equal_percent_formatting(rows):
    """`write_tracks` gives the bytes of one `%` line per row in (frame, id)
    order, whichever of its two paths writes them."""
    rows = sorted(rows)
    ts = TrackSet(
        np.array([r[0] for r in rows], dtype=np.int64),
        np.array([r[1] for r in rows], dtype=np.int64),
        np.array([r[2][:4] for r in rows], dtype=np.float64).reshape(-1, 4),
        np.array([r[2][4] for r in rows], dtype=np.float64),
    )
    expected = "".join(
        "%d,%d,%.2f,%.2f,%.2f,%.2f,%.4f,-1,-1,-1\n" % (frame, tid, *values)
        for frame, tid, values in sorted((r[1], r[0], r[2]) for r in rows)
    ).encode()
    assert write_tracks(ts) == expected
    order = np.lexsort((ts.track_id, ts.frame))
    values = np.column_stack((ts.box[order], ts.score[order]))
    arrays = _track_rows(ts.frame[order], ts.track_id[order], values)
    assert arrays is None or arrays == expected


@pytest.mark.parametrize("temporal", [False, True])
@pytest.mark.parametrize("spatial", [False, True])
@pytest.mark.parametrize("motion", [False, True])
@settings(max_examples=15)
@given(dets=detection_lists(max_frame=30))
def test_weighted_distance_is_symmetric(dets, temporal, spatial, motion):
    cfg = FcgConfig(
        feature_dim=DIM, window=3, use_temporal=temporal, use_spatial=spatial, use_motion=motion
    )
    level = generate_tracklets(columns(dets), cfg)
    matrix = weighted_square(level, cfg)
    assert np.array_equal(matrix, matrix.T)
    n = min(len(level.median), 6)
    for i in range(n):
        for j in range(i + 1, n):
            assert weighted_distance(level, i, j, cfg) == weighted_distance(level, j, i, cfg)


@settings(max_examples=100)
@given(track_sets(INT64, INT64, ANY_BOX))
def test_ground_truth_write_then_parse_round_trips(ts):
    again = parse_ground_truth(write_ground_truth(ts))
    assert again == ts
    assert write_ground_truth(again) == write_ground_truth(ts)


@settings(max_examples=100)
@given(
    track_sets(st.integers(1, 9), st.integers(1, 8), GRID_BOX),
    track_sets(st.integers(1, 9), st.integers(1, 8), GRID_BOX),
)
def test_parsed_columns_score_like_the_oracles(gt, pred):
    gt_cols = parse_ground_truth(write_ground_truth(gt))
    pred_cols = parse_ground_truth(write_ground_truth(pred))
    assert idf1(gt_cols, pred_cols) == brute_force_idf1(gt, pred)
    assert id_switches(gt_cols, pred_cols) == per_pair_id_switches(gt, pred)


# Three box positions in one row, so IDs match several IDs of the other side.
CROWD_BOX = st.tuples(
    st.sampled_from([0.0, 2.0, 4.0]), st.just(0.0), st.just(10.0), st.just(10.0),
)


@settings(max_examples=100)
@given(
    track_sets(st.integers(1, 30), st.integers(1, 4), CROWD_BOX, max_ids=6),
    track_sets(st.integers(1, 30), st.integers(1, 4), CROWD_BOX, max_ids=6),
)
def test_idf1_of_parsed_columns_is_the_brute_force_idtp(gt, pred):
    gt_cols = parse_ground_truth(write_ground_truth(gt))
    pred_cols = parse_ground_truth(write_ground_truth(pred))
    counts = matched_frames(gt, pred)
    # A spare zero row and column keep the matrix non-empty and change no total.
    gt_tracks, pred_tracks = track_entries(gt), track_entries(pred)
    weight = np.zeros((len(gt_tracks) + 1, len(pred_tracks) + 1), dtype=np.int64)
    gt_index = {tid: i for i, tid in enumerate(gt_tracks)}
    pred_index = {tid: i for i, tid in enumerate(pred_tracks)}
    for (gid, pid), count in counts.items():
        weight[gt_index[gid], pred_index[pid]] = count
    boxes = sum(map(len, gt_tracks.values())) + sum(map(len, pred_tracks.values()))
    expected = 2.0 * brute_force_assignment(weight) / boxes if boxes else 1.0
    assert idf1(gt_cols, pred_cols) == expected


@settings(max_examples=200)
@given(
    track_sets(st.integers(1, 30), st.integers(1, 3), CROWD_BOX, max_ids=8),
    track_sets(st.integers(1, 30), st.integers(1, 3), CROWD_BOX, max_ids=8),
)
def test_id_switches_in_crowds_match_the_per_pair_walk(gt, pred):
    # Up to 8 IDs a side on 3 frames and 3 positions: most frames have a GT
    # or predicted ID in several matched pairs, often at equal IoU, which the
    # greedy match decides.
    assert id_switches(gt, pred) == per_pair_id_switches(gt, pred)


@st.composite
def track_columns(draw, max_rows=12):
    """Columns of up to `max_rows` boxes with distinct (ID, frame) pairs,
    sorted by (ID, frame), as `TrackSet(**columns)` takes them."""
    pairs = sorted(
        draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 9)), max_size=max_rows,
                      unique=True))
    )
    n = len(pairs)
    boxes = [draw(ANY_BOX) for _ in range(n)]
    scores = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return dict(
        track_id=np.array([tid for tid, _ in pairs], dtype=np.int64),
        frame=np.array([frame for _, frame in pairs], dtype=np.int64),
        box=np.array(boxes, dtype=np.float64).reshape(-1, 4),
        score=np.array(scores, dtype=np.float64),
    )


@settings(max_examples=100)
@given(track_columns())
def test_trackset_round_trips_through_its_entries(cols):
    held = TrackSet(**cols)
    tracks = track_entries(held)
    again = track_set(tracks)
    assert again == held
    for name in ("track_id", "frame", "box", "score"):
        assert np.array_equal(getattr(again, name), cols[name]), name
    assert list(tracks) == sorted(tracks)
    assert len(again) == len(held) == len(tracks)
    assert again.num_boxes == held.num_boxes == sum(map(len, tracks.values())) == len(cols["frame"])
