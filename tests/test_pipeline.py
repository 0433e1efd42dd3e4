import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from fcgtrack import clustering, pipeline
from fcgtrack.appearance import cosine_matrix

from fcgtrack.core import FcgConfig
from fcgtrack.io_mot import write_tracks
from fcgtrack.metrics import id_switches, idf1
from fcgtrack.pipeline import _fuse, _reduce_consecutive, generate_tracklets, run
from fcgtrack.synthdata import SynthConfig, generate
from oracles import (
    build_level,
    columns,
    frame_overlap_mask,
    frame_rows,
    frames_of,
    fuse_all,
    overlap_masks,
    same_level,
    track_entries,
    tracklet_frames,
    weighted_square,
)

CFG = FcgConfig(feature_dim=8)


def det(frame, feature, box=(0.0, 0.0, 10.0, 10.0), row=0):
    return (frame, feature, box, 1.0, row)


def basis(k, dim=8):
    v = np.zeros(dim)
    v[k] = 1.0
    return v


class TestGenerateTracklets:
    def test_single_detection(self):
        level = generate_tracklets(columns([det(1, basis(0))]), CFG)
        assert len(level) == 1
        assert level.bounds.tolist() == [0, 1]
        assert frame_rows(level) == [[[0]]]

    def test_two_identities_two_frames(self):
        dets = [
            det(1, basis(0), row=0),
            det(1, basis(1), row=1),
            det(2, basis(0), row=2),
            det(2, basis(1), row=3),
        ]
        level = generate_tracklets(columns(dets), CFG)
        assert len(level) == 1
        (tracklets,) = frame_rows(level)
        assert len(tracklets) == 2
        assert all(len(rows) == 2 for rows in tracklets)
        for rows in tracklets:
            feats = level.table.feature[rows]
            assert np.array_equal(feats[0], feats[1])

    def test_same_frame_identical_features_stay_apart(self):
        dets = [det(1, basis(0), row=0), det(1, basis(0), row=1)]
        assert frame_rows(generate_tracklets(columns(dets), CFG)) == [[[0], [1]]]

    def test_window_bucketing(self):
        dets = [det(f, basis(0), row=f) for f in (1, 6, 7, 13)]
        level = generate_tracklets(columns(dets), CFG)
        assert [len(frame) for frame in frame_rows(level)] == [1, 1, 1]
        # Lifted frame f is window f: frames 6f+1..6f+6.
        for f, tracklets in enumerate(frame_rows(level)):
            frames = level.table.frame[sum(tracklets, [])]
            assert np.all((frames > 6 * f) & (frames <= 6 * f + 6))
        assert frozenset(tracklet_frames(level, 0)) == {1, 6}

    def test_empty_windows_are_kept(self):
        dets = [det(1, basis(0)), det(20, basis(0))]
        level = generate_tracklets(columns(dets), CFG)
        assert len(level) == math.ceil(20 / CFG.window)
        assert frame_rows(level)[1] == []

    def test_empty_input(self):
        assert len(generate_tracklets(columns([]), CFG)) == 0

    def test_window_of_a_frame_beyond_float_precision(self):
        # Frames 2**60+1 and 2**60+2 share window 2 (frames 2**60+1..3*2**59);
        # a float ceil(frame / window) put both past the last window.
        dets = [det(2**60 + 1, basis(0), row=0), det(2**60 + 2, basis(0), row=1)]
        cfg = FcgConfig(feature_dim=8, window=2**59)
        assert frame_rows(generate_tracklets(columns(dets), cfg)) == [[], [], [[0, 1]]]
        assert run(columns(dets), cfg).track_id.tolist() == [1, 1]

    def test_window_bounds_at_the_int64_limit(self):
        # The end of the last window, 2 * 2**62, does not fit int64.
        dets = [det(1, basis(0), row=0), det(2**63 - 1, basis(0), row=1)]
        cfg = FcgConfig(feature_dim=8, window=2**62)
        assert frame_rows(generate_tracklets(columns(dets), cfg)) == [[[0]], [[1]]]
        assert run(columns(dets), cfg).frame.tolist() == [1, 2**63 - 1]


class TestFuseLiftedFrames:
    """A single fusion: `_fuse` of the two lifted frames of a level."""

    def test_same_identity_fuses(self):
        pair = build_level(
            [[det(f, basis(0), box=(0, 0, 10, 10)) for f in (1, 2)]],
            [[det(f, basis(0), box=(1, 0, 10, 10)) for f in (7, 8)]],
        )
        fused = fuse_all(pair, CFG)
        assert fused.bounds.tolist() == [0, 1]
        assert len(fused.median) == 1
        assert frozenset(tracklet_frames(fused, 0)) == frozenset({1, 2, 7, 8})

    def test_orthogonal_identities_stay_apart(self):
        pair = build_level([[det(1, basis(0))]], [[det(7, basis(1))]])
        assert len(fuse_all(pair, CFG).median) == 2

    def test_merged_median_recomputed(self):
        pair = build_level([[det(1, [0.0, 1.0])]], [[det(7, [1.0, 0.0]), det(8, [1.0, 1.0])]])
        fused = fuse_all(pair, FcgConfig(feature_dim=2, track_threshold=1.9))
        assert len(fused.median) == 1
        assert np.array_equal(fused.median[0], [1.0, 1.0])

    def test_frame_overlap_is_cannot_link(self):
        # same frame index on both sides of a non-consecutive fusion
        cfg = FcgConfig(feature_dim=8, consecutive=False, track_threshold=1.9)
        pair = build_level([[det(3, basis(0))]], [[det(3, basis(0))]])
        assert len(fuse_all(pair, cfg).median) == 2

    def test_frame_overlap_mask_matches_frame_sets(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            groups = [
                [
                    det(int(f), basis(0))
                    for f in set(rng.integers(1, 10**9 if k % 3 else 30, size=4))
                ]
                for k in range(int(rng.integers(1, 12)))
            ]
            level = build_level(groups)
            mask = overlap_masks(level, np.array([0]), np.array([len(groups)]))[0]
            expected = frame_overlap_mask(level)
            # The diagonal is never read: a tracklet cannot link with itself anyway.
            off = ~np.eye(len(groups), dtype=bool)
            assert np.array_equal(mask[off], expected[off])

    def test_frame_overlap_mask_pairs_rows_of_one_range_only(self):
        # Frame 5 is in both ranges, once each: no tracklet of either range overlaps another.
        level = build_level(
            [[det(5, basis(0))], [det(1, basis(0))]], [[det(9, basis(0))], [det(5, basis(0))]]
        )
        assert not overlap_masks(level, np.array([0, 2]), np.array([2, 2])).any()


class TestRun:
    def test_empty_input(self):
        ts = run(columns([]), CFG)
        assert track_entries(ts) == {}

    def test_single_identity_thirty_frames(self):
        dets = [
            det(f, basis(0), box=(float(f), 0.0, 10.0, 10.0), row=f - 1)
            for f in range(1, 31)
        ]
        ts = run(columns(dets), CFG)
        assert list(track_entries(ts)) == [1]
        assert len(track_entries(ts)[1]) == 30
        assert [e.frame for e in track_entries(ts)[1]] == list(range(1, 31))

    def test_two_orthogonal_identities(self):
        scfg = SynthConfig(num_identities=2, num_frames=30, feature_dim=8, seed=2)
        seq, gt = generate(scfg)
        ts = run(seq, CFG)
        assert len(track_entries(ts)) == 2
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
            ts = run(seq, CFG)
            produced = sorted(
                (e.frame, e.bbox.x, e.bbox.y, e.bbox.w, e.bbox.h)
                for entries in track_entries(ts).values()
                for e in entries
            )
            expected = sorted(
                (frame, *box) for frame, box in zip(seq.frame.tolist(), seq.box.tolist())
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
            ts = run(seq, CFG)
            for entries in track_entries(ts).values():
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
        ts = run(seq, CFG)
        first_frames = [entries[0].frame for _, entries in sorted(track_entries(ts).items())]
        assert first_frames == sorted(first_frames)
        assert list(track_entries(ts)) == list(range(1, len(track_entries(ts)) + 1))

    def test_tied_distances_merge_the_pair_of_the_smallest_creation_index(self):
        # B is 0.05 from A and from C, bit for bit, and A is 0.195 from C: the linkage merges
        # the tie's earlier pair (A, B), after which {A, B} is 0.1225 from C, above the cut.
        s = math.sqrt(1 - 0.95**2)
        features = np.array([[0.95, s], [1.0, 0.0], [0.95, -s]])
        dist = cosine_matrix(features)
        assert dist[0, 1] == dist[1, 2] and math.isclose(dist[0, 1], 0.05)
        assert math.isclose(dist[0, 2], 0.195)
        dets = [det(f + 1, features[f], row=f) for f in range(3)]
        assert run(columns(dets), FcgConfig(feature_dim=2)).track_id.tolist() == [1, 1, 2]

    def test_deterministic_and_schedule_independent(self):
        scfg = SynthConfig(
            num_identities=4, num_frames=50, feature_dim=8,
            feature_noise_sigma=0.05, seed=6,
        )
        seq, _ = generate(scfg)
        blobs = [write_tracks(run(seq, CFG)) for _ in range(3)]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_perfect_inputs_recover_identity_count(self):
        # pairwise-identical features per identity; cross distance 1 exceeds
        # threshold times the worst-case weight product 0.055 * 4 * 2
        scfg = SynthConfig(num_identities=5, num_frames=60, feature_dim=8, seed=7)
        seq, gt = generate(scfg)
        ts = run(seq, CFG)
        assert len(track_entries(ts)) == 5
        assert idf1(gt, ts) == 1.0

    def test_non_consecutive_mode(self):
        cfg = FcgConfig(feature_dim=8, consecutive=False)
        scfg = SynthConfig(num_identities=3, num_frames=40, feature_dim=8, seed=8)
        seq, gt = generate(scfg)
        ts = run(seq, cfg)
        assert len(track_entries(ts)) == 3
        assert idf1(gt, ts) == 1.0

    def test_hierarchy_depth_and_final_span(self, monkeypatch):
        levels = []
        fuse = pipeline._fuse

        def counting_fuse(level, cuts, clustered, cfg, *medians):
            levels.append(len(cuts) - 1)
            return fuse(level, cuts, clustered, cfg, *medians)

        monkeypatch.setattr(pipeline, "_fuse", counting_fuse)
        for num_frames in (6, 12, 30, 36, 59):
            dets = [det(f, basis(0), row=f) for f in range(1, num_frames + 1)]
            frames = generate_tracklets(columns(dets), CFG)
            n_windows = math.ceil(num_frames / CFG.window)
            assert len(frames) == n_windows
            levels.clear()  # stage 1 is a step of its own
            final = _reduce_consecutive(frames, CFG)
            # One lifted frame holds every detection.
            assert len(final) == 1 and final.offsets[final.bounds[-1]] == num_frames
            # One `_fuse` call per level of the reduction tree.
            assert len(levels) == math.ceil(math.log2(n_windows))

    @pytest.mark.parametrize(
        "num_frames,consecutive,levels", [(6, True, 1), (30, False, 1), (30, True, 3)]
    )
    def test_final_level_gets_no_medians(self, monkeypatch, num_frames, consecutive, levels):
        # `_medians` runs once per level that is fused again, and once for the level that
        # `generate_tracklets` returns: 5 windows fuse in 3 consecutive levels or 1 global one.
        seq, _ = generate(SynthConfig(
            num_identities=3, num_frames=num_frames, feature_dim=8, seed=4
        ))
        cfg = FcgConfig(feature_dim=8, consecutive=consecutive)
        fuse = pipeline._fuse
        # The tracks of a run whose every level, the final one too, gets its medians.
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "_fuse", lambda *args: fuse(*args[:4], True))
            whole = write_tracks(run(seq, cfg))
        calls = []
        medians = pipeline._medians

        def counting(*args):
            calls.append(args)
            return medians(*args)

        monkeypatch.setattr(pipeline, "_medians", counting)
        assert write_tracks(run(seq, cfg)) == whole
        assert len(calls) == levels


class TestLevelMemory:
    """Each stage clusters its level in chunks whose padded tensors stay within a fixed budget."""

    @pytest.mark.parametrize("stage", [1, 2])
    def test_chunks_stay_within_cell_budget(self, monkeypatch, stage):
        rng = np.random.default_rng(60)
        sizes = [int(n) for n in rng.integers(0, 7, 300)]
        sizes.insert(117, 400)
        # Instance k holds sizes[k] detections in frames 4k+1..4k+4, drawn
        # near a few axes so that some of them cluster.
        dets = []
        for k, n in enumerate(sizes):
            picks = sorted(rng.integers(0, 4, n).tolist())
            for f in picks:
                feature = basis(int(rng.integers(0, 3))) + rng.normal(0, 0.1, 8)
                dets.append(det(4 * k + 1 + f, feature, row=len(dets)))

        tensors = []
        link = clustering._link

        def recording_link(d, near, nn, n, limit):
            tensors.append(d.size)
            return link(d, near, nn, n, limit)

        monkeypatch.setattr(clustering, "_link", recording_link)
        loaded = []

        def releasing(build):
            # Each chunk's tensor is released before the next one is built.
            def load(group):
                assert all(ref() is None for ref in loaded)
                out = build(group)
                loaded.append(weakref.ref(out[0]))
                return out

            return load

        batch = pipeline.cluster_batch
        monkeypatch.setattr(
            pipeline, "cluster_batch",
            lambda sizes, load, *, threshold: batch(sizes, releasing(load), threshold=threshold),
        )
        cfg = FcgConfig(feature_dim=8, window=4)
        bounds = np.cumsum([0] + sizes).tolist()
        if stage == 1:
            built = frame_rows(generate_tracklets(columns(dets), cfg))
        else:
            # Each union is one fusion: its detections as tracklets of one, and an empty
            # partner frame.
            unions = [[[d] for d in dets[bounds[k] : bounds[k + 1]]] for k in range(len(sizes))]
            level = build_level(*(frame for union in unions for frame in (union, [])))
            cuts = np.arange(0, 2 * len(sizes) + 1, 2)
            built = frame_rows(_fuse(level, cuts, np.full(len(sizes), True), cfg))
        assert tensors and max(tensors) <= clustering.CHUNK_CELLS
        assert sum(tensors) < 3 * 400**2
        assert len(built) == len(sizes)

        table = pipeline._sorted_columns(columns(dets))
        for k, got in enumerate(built):
            lo, hi = bounds[k], bounds[k + 1]
            if stage == 1:
                frames = table.frame[lo:hi]
                partition = clustering.cluster_matrix(
                    np.where(
                        frames[:, None] == frames[None, :],
                        np.inf,
                        cosine_matrix(table.feature[lo:hi].astype(np.float64)),
                    ),
                    threshold=cfg.tracklet_threshold,
                )
                assert got == [(lo + np.array(m)).tolist() for m in partition]
            else:
                union = frames_of(level, 2 * k, 2 * k + 1)
                partition = clustering.cluster_matrix(
                    np.where(frame_overlap_mask(union), np.inf, weighted_square(union, cfg)),
                    threshold=cfg.track_threshold,
                )
                assert got == [sorted(lo + i for i in m) for m in partition]


    def test_global_fusion_peak_memory(self):
        # 40 identities over 25 windows: one stage-2 instance of 1,000
        # tracklets, where one n x n float64 matrix is 8 MB. Before stage 2
        # ran on per-level arrays its traced peak was 34,093,756 bytes
        # (about 4.3 such matrices); that is the bound.
        seq, _ = generate(SynthConfig(
            num_identities=40, num_frames=150, feature_dim=64, feature_noise_sigma=0.02, seed=3
        ))
        cfg = FcgConfig(feature_dim=64, consecutive=False)
        level = generate_tracklets(seq, cfg)
        assert len(level.median) == 1000
        tracemalloc.start()
        try:
            pipeline._fuse_global(level, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 34_093_756


class TestBatchedLevels:
    """Batched windows and levels give what one clustering per window or pair gives."""

    CFG3 = FcgConfig(feature_dim=8, window=3)
    SCENE = SynthConfig(
        num_identities=6, num_frames=150, feature_dim=8, feature_noise_sigma=0.08,
        occlusions=((2, 30, 80), (5, 60, 61)), exits=((4, 100),), seed=11,
    )

    def test_windows_match_one_clustering_per_window(self):
        seq, _ = generate(self.SCENE)
        level = generate_tracklets(seq, self.CFG3)
        assert len(level) == 50
        table = seq
        for f, rows in enumerate(frame_rows(level)):
            # Window f holds frames 3f+1..3f+3.
            lo, hi = np.searchsorted(table.frame, [f * 3, (f + 1) * 3], side="right")
            feats = table.feature[lo:hi].astype(np.float64)
            same = table.frame[lo:hi][:, None] == table.frame[lo:hi][None, :]
            partition = clustering.cluster_matrix(
                np.where(same, np.inf, cosine_matrix(feats)), threshold=self.CFG3.tracklet_threshold
            )
            assert rows == [(lo + np.array(m)).tolist() for m in partition]

    @pytest.mark.parametrize("motion", [False, True])
    def test_levels_match_pairwise_fusion(self, monkeypatch, motion):
        # Every level step of the reduction, frame by frame: a pair fused alone, or the odd
        # trailing frame carried.
        cfg = FcgConfig(feature_dim=8, window=3, use_motion=motion)
        seq, _ = generate(self.SCENE)
        frames = generate_tracklets(seq, cfg)
        steps = []
        fuse = pipeline._fuse

        def recording(level, cuts, clustered, cfg, *medians):
            steps.append((level, fuse(level, cuts, clustered, cfg, *medians)))
            return steps[-1][1]

        monkeypatch.setattr(pipeline, "_fuse", recording)
        final = _reduce_consecutive(frames, cfg)
        assert len(final) == 1 and steps[-1][1] is final and steps[0][0] is frames
        # The last step fuses the last two frames, and computes no median.
        pair = fuse_all(steps[-1][0], cfg)
        assert same_level(final, replace(pair, median=pair.median[:0]))
        for before, after in steps[:-1]:
            assert len(after) == (len(before) + 1) // 2
            for g in range(len(after)):
                alone = frames_of(before, 2 * g, min(2 * g + 2, len(before)))
                expected = fuse_all(alone, cfg) if len(alone) == 2 else alone
                assert same_level(frames_of(after, g, g + 1), expected)
