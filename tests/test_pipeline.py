import math

import numpy as np
import pytest

from fcgtrack.core import (
    BBox,
    Detection,
    DimensionMismatchError,
    FcgConfig,
    LiftedFrame,
    tracklet_new,
)
from fcgtrack.io_mot import write_tracks
from fcgtrack.metrics import id_switches, idf1
from fcgtrack.pipeline import (
    _frame_overlap_mask,
    _reduce_consecutive,
    fuse_lifted_frames,
    generate_tracklets,
    run,
)
from fcgtrack.synthdata import SynthConfig, generate

CFG = FcgConfig(feature_dim=8)


def det(frame, feature, box=(0.0, 0.0, 10.0, 10.0), row=0):
    return Detection(
        frame=frame, bbox=BBox(*box), score=1.0, feature=np.array(feature, float), source_row=row
    )


def basis(k, dim=8):
    v = np.zeros(dim)
    v[k] = 1.0
    return v


class TestGenerateTracklets:
    def test_single_detection(self):
        frames = generate_tracklets([det(1, basis(0))], CFG)
        assert len(frames) == 1
        lf = frames[0]
        assert (lf.level, lf.span_start, lf.span_end) == (1, 0, 1)
        assert len(lf.tracklets) == 1
        assert len(lf.tracklets[0]) == 1

    def test_two_identities_two_frames(self):
        dets = [
            det(1, basis(0), row=0),
            det(1, basis(1), row=1),
            det(2, basis(0), row=2),
            det(2, basis(1), row=3),
        ]
        frames = generate_tracklets(dets, CFG)
        assert len(frames) == 1
        tracklets = frames[0].tracklets
        assert len(tracklets) == 2
        assert all(len(t) == 2 for t in tracklets)
        for t in tracklets:
            feats = np.stack([d.feature for d in t.detections])
            assert np.array_equal(feats[0], feats[1])

    def test_same_frame_identical_features_stay_apart(self):
        dets = [det(1, basis(0), row=0), det(1, basis(0), row=1)]
        frames = generate_tracklets(dets, CFG)
        assert len(frames[0].tracklets) == 2
        assert all(len(t) == 1 for t in frames[0].tracklets)

    def test_window_bucketing(self):
        dets = [det(f, basis(0), row=f) for f in (1, 6, 7, 13)]
        frames = generate_tracklets(dets, CFG)
        assert [(lf.span_start, lf.span_end) for lf in frames] == [(0, 1), (1, 2), (2, 3)]
        assert [len(lf.tracklets) for lf in frames] == [1, 1, 1]
        assert {d.frame for d in frames[0].tracklets[0].detections} == {1, 6}

    def test_empty_windows_are_kept(self):
        dets = [det(1, basis(0)), det(20, basis(0))]
        frames = generate_tracklets(dets, CFG)
        assert len(frames) == math.ceil(20 / CFG.window)
        assert len(frames[1].tracklets) == 0

    def test_empty_input(self):
        assert generate_tracklets([], CFG) == []

    def test_workers_do_not_change_result(self):
        rng = np.random.default_rng(31)
        dets = [
            det(int(f), rng.normal(size=8), row=i)
            for i, f in enumerate(rng.integers(1, 40, size=60))
        ]
        base = generate_tracklets(dets, CFG, workers=1)
        for workers in (2, 4):
            assert generate_tracklets(dets, CFG, workers=workers) == base


class TestFuseLiftedFrames:
    def test_same_identity_fuses(self):
        t1 = tracklet_new([det(f, basis(0), box=(0, 0, 10, 10)) for f in (1, 2)])
        t2 = tracklet_new([det(f, basis(0), box=(1, 0, 10, 10)) for f in (7, 8)])
        a = LiftedFrame(1, 0, 1, (t1,))
        b = LiftedFrame(1, 1, 2, (t2,))
        fused = fuse_lifted_frames(a, b, CFG)
        assert (fused.level, fused.span_start, fused.span_end) == (2, 0, 2)
        assert len(fused.tracklets) == 1
        assert fused.tracklets[0].frame_set == frozenset({1, 2, 7, 8})

    def test_orthogonal_identities_stay_apart(self):
        t1 = tracklet_new([det(1, basis(0))])
        t2 = tracklet_new([det(7, basis(1))])
        fused = fuse_lifted_frames(
            LiftedFrame(1, 0, 1, (t1,)), LiftedFrame(1, 1, 2, (t2,)), CFG
        )
        assert len(fused.tracklets) == 2

    def test_merged_median_recomputed(self):
        t1 = tracklet_new([det(1, [0.0, 1.0])])
        t2 = tracklet_new([det(7, [1.0, 0.0]), det(8, [1.0, 1.0])])
        cfg = FcgConfig(feature_dim=2, track_threshold=1.9)
        fused = fuse_lifted_frames(
            LiftedFrame(1, 0, 1, (t1,)), LiftedFrame(1, 1, 2, (t2,)), cfg
        )
        assert len(fused.tracklets) == 1
        assert np.array_equal(fused.tracklets[0].median_feature, [1.0, 1.0])

    def test_frame_overlap_is_cannot_link(self):
        # same frame index on both sides of a non-consecutive fusion
        cfg = FcgConfig(feature_dim=8, consecutive=False, track_threshold=1.9)
        t1 = tracklet_new([det(3, basis(0))])
        t2 = tracklet_new([det(3, basis(0))])
        fused = fuse_lifted_frames(
            LiftedFrame(1, 0, 1, (t1,)), LiftedFrame(1, 0, 1, (t2,)), cfg
        )
        assert len(fused.tracklets) == 2

    def test_frame_overlap_mask_matches_frame_sets(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            tracklets = [
                tracklet_new(
                    det(int(f), basis(0))
                    for f in set(rng.integers(1, 10**9 if k % 3 else 30, size=4))
                )
                for k in range(int(rng.integers(1, 12)))
            ]
            mask = _frame_overlap_mask(tracklets)
            for i, ti in enumerate(tracklets):
                for j, tj in enumerate(tracklets):
                    assert mask[i, j] == bool(ti.frame_set & tj.frame_set)
        assert _frame_overlap_mask([]).shape == (0, 0)

    def test_adjacency_required_when_consecutive(self):
        a = LiftedFrame(1, 1, 2, (tracklet_new([det(7, basis(0))]),))
        b = LiftedFrame(1, 0, 1, (tracklet_new([det(1, basis(0))]),))
        with pytest.raises(ValueError):
            fuse_lifted_frames(a, b, CFG)


class TestRun:
    def test_empty_input(self):
        ts = run([], CFG)
        assert ts.tracks == {}

    def test_single_identity_thirty_frames(self):
        dets = [
            det(f, basis(0), box=(float(f), 0.0, 10.0, 10.0), row=f - 1)
            for f in range(1, 31)
        ]
        ts = run(dets, CFG)
        assert list(ts.tracks) == [1]
        assert len(ts.tracks[1]) == 30
        assert [e.frame for e in ts.tracks[1]] == list(range(1, 31))

    def test_two_orthogonal_identities(self):
        scfg = SynthConfig(num_identities=2, num_frames=30, feature_dim=8, seed=2)
        seq, gt = generate(scfg)
        ts = run(list(seq.detections), CFG)
        assert len(ts.tracks) == 2
        assert idf1(gt, ts) == 1.0
        assert id_switches(gt, ts) == 0

    def test_output_partitions_input(self):
        rng = np.random.default_rng(33)
        for trial in range(10):
            scfg = SynthConfig(
                num_identities=int(rng.integers(1, 5)),
                num_frames=int(rng.integers(5, 50)),
                feature_dim=8,
                feature_noise_sigma=float(rng.uniform(0, 0.3)),
                seed=int(rng.integers(0, 2**32)),
            )
            seq, _ = generate(scfg)
            ts = run(list(seq.detections), CFG)
            produced = sorted(
                (e.frame, e.bbox.x, e.bbox.y, e.bbox.w, e.bbox.h)
                for entries in ts.tracks.values()
                for e in entries
            )
            expected = sorted(
                (d.frame, d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h)
                for d in seq.detections
            )
            assert produced == expected

    def test_no_track_repeats_a_frame(self):
        rng = np.random.default_rng(34)
        for trial in range(10):
            scfg = SynthConfig(
                num_identities=int(rng.integers(2, 5)),
                num_frames=40,
                feature_dim=8,
                feature_noise_sigma=float(rng.uniform(0, 0.5)),
                seed=int(rng.integers(0, 2**32)),
            )
            seq, _ = generate(scfg)
            ts = run(list(seq.detections), CFG)
            for entries in ts.tracks.values():
                frames = [e.frame for e in entries]
                assert len(frames) == len(set(frames))

    def test_ids_ordered_by_first_frame(self):
        scfg = SynthConfig(
            num_identities=3,
            num_frames=30,
            feature_dim=8,
            seed=4,
            occlusions=((1, 1, 10), (2, 1, 5)),
        )
        seq, _ = generate(scfg)
        ts = run(list(seq.detections), CFG)
        first_frames = [entries[0].frame for _, entries in sorted(ts.tracks.items())]
        assert first_frames == sorted(first_frames)
        assert list(ts.tracks) == list(range(1, len(ts.tracks) + 1))

    def test_deterministic_and_schedule_independent(self):
        scfg = SynthConfig(
            num_identities=4, num_frames=50, feature_dim=8,
            feature_noise_sigma=0.05, seed=6,
        )
        seq, _ = generate(scfg)
        blobs = {
            workers: write_tracks(run(list(seq.detections), CFG, workers=workers))
            for workers in (1, 2, 8)
        }
        assert blobs[1] == blobs[2] == blobs[8]
        assert blobs[1] == write_tracks(run(list(seq.detections), CFG))

    def test_perfect_inputs_recover_identity_count(self):
        # pairwise-identical features per identity; cross distance 1 exceeds
        # threshold times the worst-case weight product 0.055 * 4 * 2
        scfg = SynthConfig(num_identities=5, num_frames=60, feature_dim=8, seed=7)
        seq, gt = generate(scfg)
        ts = run(list(seq.detections), CFG)
        assert len(ts.tracks) == 5
        assert idf1(gt, ts) == 1.0

    def test_non_consecutive_mode(self):
        cfg = FcgConfig(feature_dim=8, consecutive=False)
        scfg = SynthConfig(num_identities=3, num_frames=40, feature_dim=8, seed=8)
        seq, gt = generate(scfg)
        ts = run(list(seq.detections), cfg)
        assert len(ts.tracks) == 3
        assert idf1(gt, ts) == 1.0

    @pytest.mark.parametrize("second_frame", [2, 20])
    def test_mixed_feature_dimensions_raise_package_error(self, second_frame):
        # same window (stage 1) and different windows (stage 2)
        dets = [det(1, basis(0, dim=8)), det(second_frame, basis(0, dim=4), row=1)]
        with pytest.raises(DimensionMismatchError):
            run(dets, CFG)

    def test_hierarchy_depth_and_final_span(self):
        for num_frames in (6, 12, 30, 36, 59):
            dets = [det(f, basis(0), row=f) for f in range(1, num_frames + 1)]
            frames = generate_tracklets(dets, CFG)
            n_windows = math.ceil(num_frames / CFG.window)
            assert len(frames) == n_windows
            final = _reduce_consecutive(frames, CFG, workers=1)
            assert (final.span_start, final.span_end) == (0, n_windows)
            expected_levels = math.ceil(math.log2(n_windows)) + 1 if n_windows > 1 else 1
            assert final.level == expected_levels
