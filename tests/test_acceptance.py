"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fcgtrack.clustering import cluster_matrix, cut, linkage_matrix
from fcgtrack.core import FcgConfig
from fcgtrack.io_mot import (
    parse_detections,
    parse_ground_truth,
    subsample,
    subsample_tracks,
    write_features,
    write_tracks,
)
from fcgtrack.metrics import id_switches, idf1
from fcgtrack.pipeline import generate_tracklets, run
from fcgtrack.synthdata import SynthConfig, generate
from fcgtrack.weighting import _temporal_factor
from oracles import (
    Box,
    Entry,
    box_displacement,
    brute_force_partition,
    build_level,
    cannot_link_mask,
    columns,
    cosine_distance,
    extrapolate,
    frame_rows,
    fuse_all,
    iou_distance,
    spatial_weights,
    track_entries,
    track_set,
    tracklet_distance,
    tracklet_frames,
    weighted_distance,
)

TOL = 1e-9


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {label}")
        raise
    print(f"PASS criterion {num}: {label}")


def det(frame, feature, box=(0.0, 0.0, 10.0, 10.0), score=1.0, row=0):
    return (frame, feature, box, score, row)


def basis(k, dim=8):
    v = np.zeros(dim)
    v[k] = 1.0
    return v


def test_criterion_1_constrained_linkage_matches_brute_force():
    with criterion(1, "constrained average-linkage equals O(n^3) oracle, 1000/1000"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        matches = 0
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            square = rng.uniform(0, 1, (n, n))
            square = (square + square.T) / 2
            np.fill_diagonal(square, 0.0)
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            density = rng.uniform(0, 0.3)
            cannot = [p for p in pairs if rng.random() < density]
            threshold = float(rng.uniform(0.01, 1.2))
            got = cut(linkage_matrix(square, cannot_link_mask(cannot, n)), threshold)
            expected = brute_force_partition(n, square, cannot, threshold)
            matches += got == expected
        elapsed = time.perf_counter() - start
        assert matches == 1000
        assert elapsed < 10.0


def test_criterion_2_formula_unit_suite():
    with criterion(2, "formula unit suite at 1e-9"):
        start = time.perf_counter()

        # element-wise medians
        median = lambda *dets: build_level([dets]).median[0]
        assert np.array_equal(median(det(1, [0.6, 0.8])), [0.6, 0.8])
        assert np.array_equal(
            median(det(1, [0.0, 1.0]), det(2, [1.0, 0.0]), det(3, [1.0, 1.0])), [1.0, 1.0]
        )
        assert np.array_equal(median(det(1, [0.0, 1.0]), det(2, [2.0, 3.0])), [1.0, 2.0])

        # box geometry
        assert iou_distance(Box(0, 0, 10, 10), Box(0, 0, 10, 10)) == 0.0
        assert iou_distance(Box(0, 0, 1, 1), Box(5, 5, 1, 1)) == 1.0
        assert iou_distance(Box(0, 0, 2, 2), Box(1, 1, 2, 2)) == pytest.approx(6 / 7, abs=TOL)
        b = Box(3, 7, 10, 20)
        assert box_displacement(b, b) == 0.0
        assert box_displacement(Box(0, 0, 10, 10), Box(5, 0, 10, 10)) == pytest.approx(0.5, abs=TOL)
        assert box_displacement(Box(0, 0, 10, 10), Box(0, 5, 10, 10)) == pytest.approx(0.5, abs=TOL)
        assert extrapolate(Box(4, 4, 8, 8), Box(4, 4, 8, 8), 5) == Box(4, 4, 8, 8)
        assert extrapolate(Box(0, 0, 10, 10), Box(2, 0, 10, 10), 3) == Box(8, 0, 10, 10)
        assert extrapolate(Box(0, 0, 10, 10), Box(1, 1, 12, 10), 2) == Box(3, 3, 16, 10)

        # appearance distances
        assert cosine_distance([0.3, 0.4], [0.3, 0.4]) == 0.0
        assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
        assert cosine_distance([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 - 1 / math.sqrt(2), abs=TOL)
        between = lambda a, b: tracklet_distance(build_level([[det(1, a)], [det(2, b)]]), 0, 1)
        assert between([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert between([1.0, 0.0], [0.0, 1.0]) == 1.0
        assert between([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 - 1 / math.sqrt(2), abs=TOL)

        # weighting factors
        cfg = FcgConfig()
        assert _temporal_factor(10, cfg) == 1.0
        assert _temporal_factor(41, cfg) == 4.0
        assert _temporal_factor(40, cfg) == 1.0
        bb = Box(0, 0, 10, 10)
        lam_c, lam_f = spatial_weights(bb, bb, cfg)
        assert lam_c == pytest.approx(0.15, abs=TOL) and lam_f == 1.0
        lam_c, lam_f = spatial_weights(bb, Box(30, 0, 10, 10), cfg)
        assert lam_c == 1.0 and lam_f == 2.0
        lam_c, _ = spatial_weights(Box(0, 0, 2, 2), Box(1, 1, 2, 2), cfg)
        assert lam_c == 1.0

        # combined weighted distance
        four = build_level([
            [det(1, [1.0, 0.0])],
            [det(42, [0.9, math.sqrt(1 - 0.81)], box=(100, 0, 10, 10))],
            [det(5, [0.9, math.sqrt(1 - 0.81)], box=(100, 0, 10, 10))],
            [det(2, [1.0, 0.0], box=(0, 0, 10, 10))],
        ])
        assert weighted_distance(four, 0, 1, cfg) == pytest.approx(0.8, abs=TOL)
        plain = FcgConfig(use_temporal=False, use_spatial=False, use_motion=False)
        assert weighted_distance(four, 0, 2, plain) == tracklet_distance(four, 0, 2)
        assert weighted_distance(four, 0, 3, cfg) == 0.0

        # clustering
        assert linkage_matrix(np.zeros((1, 1))).merges == ()
        three = np.array([[0, 0.1, 0.9], [0.1, 0, 0.8], [0.9, 0.8, 0]])
        dend = linkage_matrix(three)
        assert [(m.a, m.b) for m in dend.merges] == [(0, 1), (2, 3)]
        assert dend.merges[0].height == pytest.approx(0.1, abs=TOL)
        assert dend.merges[1].height == pytest.approx(0.85, abs=TOL)
        constrained = linkage_matrix(three, cannot_link_mask([(0, 1)], 3))
        assert [(m.a, m.b) for m in constrained.merges] == [(1, 2)]
        assert constrained.merges[0].height == pytest.approx(0.8, abs=TOL)
        assert cut(dend, 0.05) == [[0], [1], [2]]
        assert cut(dend, 0.5) == [[0, 1], [2]]
        assert cut(dend, 0.9) == [[0, 1, 2]]
        assert cluster_matrix(np.zeros((0, 0)), threshold=0.055) == []
        two = lambda d: np.array([[0.0, d], [d, 0.0]])
        assert cluster_matrix(two(0.04), threshold=0.055) == [[0, 1]]
        assert cluster_matrix(two(0.06), threshold=0.055) == [[0], [1]]

        # tracklet generation
        cfg8 = FcgConfig(feature_dim=8)
        assert frame_rows(generate_tracklets(columns([det(1, basis(0))]), cfg8)) == [[[0]]]
        dets = [
            det(1, basis(0), row=0), det(1, basis(1), row=1),
            det(2, basis(0), row=2), det(2, basis(1), row=3),
        ]
        (window,) = frame_rows(generate_tracklets(columns(dets), cfg8))
        assert len(window) == 2 and all(len(rows) == 2 for rows in window)
        pair = generate_tracklets(
            columns([det(1, basis(0), row=0), det(1, basis(0), row=1)]), cfg8
        )
        assert len(frame_rows(pair)[0]) == 2

        # lifted-frame fusion
        fused = fuse_all(build_level(
            [[det(f, basis(0), box=(0, 0, 10, 10)) for f in (1, 2)]],
            [[det(f, basis(0), box=(1, 0, 10, 10)) for f in (7, 8)]],
        ), cfg8)
        assert len(fused.median) == 1
        assert frozenset(tracklet_frames(fused, 0)) == frozenset({1, 2, 7, 8})
        fused = fuse_all(build_level([[det(1, basis(0))]], [[det(7, basis(1))]]), cfg8)
        assert len(fused.median) == 2
        merged = fuse_all(
            build_level([[det(1, [0.0, 1.0])]], [[det(7, [1.0, 0.0]), det(8, [1.0, 1.0])]]),
            FcgConfig(feature_dim=2, track_threshold=1.9),
        )
        assert np.array_equal(merged.median[0], [1.0, 1.0])

        # full runs
        assert track_entries(run(columns([]), cfg8)) == {}
        moving = [det(f, basis(0), box=(float(f), 0, 10, 10), row=f - 1) for f in range(1, 31)]
        ts = run(columns(moving), cfg8)
        assert list(track_entries(ts)) == [1] and len(track_entries(ts)[1]) == 30
        seq, gt = generate(SynthConfig(num_identities=2, num_frames=30, feature_dim=8, seed=2))
        ts = run(seq, cfg8)
        assert len(track_entries(ts)) == 2 and id_switches(gt, ts) == 0

        # detection ingestion
        cfg3 = FcgConfig(feature_dim=3)
        blob = write_features(np.array([[1.0, 0.0, 0.0]]))
        seq = parse_detections(b"1,-1,10,20,30,40,0.9,-1,-1,-1\n", blob, cfg3)
        assert (seq.frame[0], Box(*seq.box[0]), seq.score[0]) == (1, Box(10, 20, 30, 40), 0.9)
        seq = parse_detections(b"1,-1,10,20,30,40,0.5,-1,-1,-1\n", blob, cfg3)
        assert len(seq) == 0
        from fcgtrack.core import ParseError

        with pytest.raises(ParseError):
            parse_detections(
                b"1,-1,1,1,5,5,0.9,-1,-1,-1\n" * 3,
                write_features(np.ones((2, 3))),
                cfg3,
            )

        # result serialization
        assert write_tracks(track_set({})) == b""
        one = track_set({1: (Entry(1, Box(10, 20, 30, 40), 0.9),)})
        assert write_tracks(one) == b"1,1,10.00,20.00,30.00,40.00,0.9000,-1,-1,-1\n"
        again = parse_ground_truth(write_tracks(one))
        assert [(e.frame, e.bbox) for e in track_entries(again)[1]] == [(1, Box(10, 20, 30, 40))]

        # ground-truth ingestion
        ts = parse_ground_truth(b"1,5,1,2,3,4,1,1,1\n2,5,2,3,4,5,1,1,1\n")
        assert [e.frame for e in track_entries(ts)[5]] == [1, 2]
        ts = parse_ground_truth(b"1,5,1,2,3,4,0,1,1\n2,5,2,3,4,5,1,1,1\n")
        assert [e.frame for e in track_entries(ts)[5]] == [2]
        with pytest.raises(ParseError):
            parse_ground_truth(b"1,5,1,2,3,4,1,1,1\n1,5,2,3,4,5,1,1,1\n")

        # subsampling
        tenseq = columns(det(f, [1.0, 0.0], row=f - 1) for f in range(1, 11))
        assert subsample(tenseq, 1) is tenseq
        sub = subsample(tenseq, 2)
        assert sub.frame.tolist() == [1, 2, 3, 4, 5]
        thirty = columns(det(f, [1.0, 0.0], row=f - 1) for f in range(1, 31))
        assert subsample(thirty, 30).frame.tolist() == [1]

        # synthetic generator
        seq, gt = generate(SynthConfig(num_identities=2, num_frames=10, feature_dim=4, seed=1))
        assert len(seq) == 20
        feats = {1: [], 2: []}
        for feature in seq.feature:
            feats[int(np.argmax(feature)) + 1].append(feature)
        assert all(
            cosine_distance(a, b) == 0.0 for fs in feats.values() for a, b in zip(fs, fs[1:])
        )
        assert all(cosine_distance(a, b) == 1.0 for a in feats[1] for b in feats[2])
        occl = SynthConfig(
            num_identities=1, num_frames=10, feature_dim=2, occlusions=((1, 4, 6),), seed=1
        )
        seq, _ = generate(occl)
        assert len(seq) == 7
        (a, _), (b, _) = [generate(occl) for _ in range(2)]
        for name in ("frame", "box", "score", "row", "feature"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

        # identity metrics
        straight = lambda frames: tuple(Entry(f, Box(0, 0, 10, 10), 1.0) for f in frames)
        gt = track_set({1: straight(range(1, 11))})
        assert idf1(gt, track_set({7: straight(range(1, 11))})) == 1.0
        split = track_set({1: straight(range(1, 6)), 2: straight(range(6, 11))})
        assert idf1(gt, split) == pytest.approx(0.5, abs=TOL)
        assert idf1(gt, track_set({})) == 0.0
        assert id_switches(gt, track_set({7: straight(range(1, 11))})) == 0
        assert id_switches(gt, split) == 1
        four = track_set({1: straight([1, 2, 3, 4])})
        alternating = track_set({1: straight([1, 3]), 2: straight([2, 4])})
        assert id_switches(four, alternating) == 3

        assert time.perf_counter() - start < 1.0


CFG32 = FcgConfig(feature_dim=32)
SCENE3 = SynthConfig(
    num_identities=10, num_frames=300, feature_dim=32,
    feature_noise_sigma=0.02, motion_model="linear", seed=1,
)
SCENE6 = SynthConfig(
    num_identities=5, num_frames=300, feature_dim=16,
    feature_noise_sigma=0.05, motion_model="linear", seed=3,
)
CFG16 = FcgConfig(feature_dim=16)


def test_criterion_3_perfect_recovery():
    with criterion(3, "10 identities, 300 frames, sigma 0.02: IDF1 = 1.0, 0 switches"):
        start = time.perf_counter()
        seq, gt = generate(SCENE3)
        tracks = run(seq, CFG32)
        assert idf1(gt, tracks) == 1.0
        assert id_switches(gt, tracks) == 0
        assert time.perf_counter() - start < 30.0


def test_criterion_4_occlusion_reidentification():
    with criterion(4, "60-frame occlusion (> kt) re-associated with temporal weighting on"):
        scene = SynthConfig(
            num_identities=3, num_frames=160, feature_dim=32,
            feature_noise_sigma=0.02, occlusions=((2, 41, 100),), seed=1,
        )
        seq, gt = generate(scene)
        # the occluded identity's gap really exceeds the temporal horizon
        frames_2 = [e.frame for e in track_entries(gt)[2]]
        gap = frames_2[frames_2.index(40) + 1] - 40
        assert gap == 61 > CFG32.kt
        assert CFG32.use_temporal
        tracks = run(seq, CFG32)
        assert idf1(gt, tracks) == 1.0
        assert len(track_entries(tracks)) == 3


def test_criterion_5_same_frame_exclusivity():
    with criterion(5, "100 random synthetic configs: no track repeats a frame"):
        rng = np.random.default_rng(505)
        for _ in range(100):
            num_ids = int(rng.integers(1, 5))
            num_frames = int(rng.integers(5, 61))
            occlusions = []
            if num_frames > 10 and rng.random() < 0.5:
                ident = int(rng.integers(1, num_ids + 1))
                start = int(rng.integers(2, num_frames - 5))
                occlusions.append((ident, start, int(rng.integers(start, num_frames))))
            exits = []
            if rng.random() < 0.3:
                exits.append(
                    (int(rng.integers(1, num_ids + 1)), int(rng.integers(1, num_frames + 1)))
                )
            scene = SynthConfig(
                num_identities=num_ids,
                num_frames=num_frames,
                feature_dim=int(rng.integers(4, 17)),
                feature_noise_sigma=float(rng.uniform(0, 0.3)),
                motion_model=("linear", "sinusoidal")[int(rng.integers(0, 2))],
                occlusions=tuple(occlusions),
                exits=tuple(exits),
                seed=int(rng.integers(0, 2**32)),
            )
            seq, _ = generate(scene)
            cfg = FcgConfig(
                feature_dim=scene.feature_dim, window=int(rng.integers(2, 9))
            )
            tracks = run(seq, cfg)
            for entries in track_entries(tracks).values():
                frames = [e.frame for e in entries]
                assert len(frames) == len(set(frames))


def test_criterion_6_low_fps_robustness():
    with criterion(6, "IDF1 >= 0.95 after subsampling at ratios 2, 5, 10"):
        start = time.perf_counter()
        seq, gt = generate(SCENE6)
        for ratio in (2, 5, 10):
            sub_seq = subsample(seq, ratio)
            sub_gt = subsample_tracks(gt, ratio)
            tracks = run(sub_seq, CFG16)
            assert idf1(sub_gt, tracks) >= 0.95
        assert time.perf_counter() - start < 30.0


# --- criterion 7 scene -----------------------------------------------------
#
# Two identities always far apart. Appearance direction drifts at random
# window boundaries (cosine distance 0.08: above the fusion threshold, so the
# track fragments there unless the overlap easing pulls it back), and the
# second identity occasionally flickers toward the first one for a window
# (cosine distance 0.04: below threshold, blockable only by the far-distance
# doubling). Spatial weighting should repair drift fragments and refuse the
# cross-identity dips, so it can only reduce ID switches.

_C7_DIM = 8
_C7_WINDOWS = 20


def _c7_scene(seed, window=6):
    rng = np.random.default_rng([seed, 777])
    eye = np.eye(_C7_DIM)
    drift_angle = math.acos(0.92)
    dip_cos, dip_sin = 0.96, math.sqrt(1 - 0.96**2)

    angles = {1: 0.0, 2: 0.0}
    axes = {1: (eye[0], eye[2]), 2: (eye[1], eye[3])}
    dirs = {}
    dip_windows = set()
    for w in range(_C7_WINDOWS):
        for k in (1, 2):
            if w > 0 and rng.random() < 0.30:
                angles[k] += drift_angle
            u, v = axes[k]
            dirs[(k, w)] = math.cos(angles[k]) * u + math.sin(angles[k]) * v
        if rng.random() < 0.25:
            dip_windows.add(w)

    dets = []
    gt = {1: [], 2: []}
    row = 0
    for f in range(1, window * _C7_WINDOWS + 1):
        w = (f - 1) // window
        for k in (1, 2):
            if k == 1:
                box = (100.0 + 0.8 * f, 50.0, 50.0, 100.0)
            else:
                box = (1800.0 - 0.8 * f, 50.0, 50.0, 100.0)
            feat = dirs[(k, w)]
            if k == 2 and w in dip_windows:
                flicker = dip_cos * dirs[(1, w)] + dip_sin * eye[5]
                feat = flicker / np.linalg.norm(flicker)
            dets.append((f, feat, box, 1.0, row))
            gt[k].append(Entry(f, Box(*box), 1.0))
            row += 1
    return columns(dets), track_set({k: tuple(v) for k, v in gt.items()})


def test_criterion_7_spatial_ablation_direction():
    with criterion(7, "spatial weighting never hurts and strictly helps on >= 5 seeds"):
        cfg_on = FcgConfig(feature_dim=_C7_DIM)
        cfg_off = FcgConfig(feature_dim=_C7_DIM, use_spatial=False)
        strict = 0
        for seed in range(20):
            dets, gt = _c7_scene(seed)
            on = id_switches(gt, run(dets, cfg_on))
            off = id_switches(gt, run(dets, cfg_off))
            assert on <= off
            strict += on < off
        assert strict >= 5


def test_criterion_8_schedule_independence():
    with criterion(8, "criteria 3 and 6 byte-identical across three repeated runs"):
        seq3, _ = generate(SCENE3)
        outputs = [write_tracks(run(seq3, CFG32)) for _ in range(3)]
        assert outputs[0] == outputs[1] == outputs[2]

        seq6, _ = generate(SCENE6)
        for ratio in (2, 5, 10):
            dets = subsample(seq6, ratio)
            outputs = [write_tracks(run(dets, CFG16)) for _ in range(3)]
            assert outputs[0] == outputs[1] == outputs[2]


def test_criterion_9_window_size_plateau():
    with criterion(9, "IDF1 = 1.0 for every window size 2..6"):
        seq, gt = generate(SCENE3)
        for window in (2, 3, 4, 5, 6):
            cfg = FcgConfig(feature_dim=32, window=window)
            assert idf1(gt, run(seq, cfg)) == 1.0
