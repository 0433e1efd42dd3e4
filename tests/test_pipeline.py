import math
import tracemalloc
import weakref

import numpy as np
import pytest

from fcgtrack import clustering, pipeline
from fcgtrack.appearance import cosine_matrix

from fcgtrack.core import FcgConfig, LiftedFrame, level_of
from fcgtrack.io_mot import write_tracks
from fcgtrack.metrics import id_switches, idf1
from fcgtrack.pipeline import (
    _fuse,
    _reduce_consecutive,
    _share_frame,
    fuse_lifted_frames,
    generate_tracklets,
    run,
)
from fcgtrack.synthdata import SynthConfig, generate
from fcgtrack.weighting import weighted_matrix
from oracles import (
    columns,
    frame_overlap_mask,
    overlap_masks,
    track_entries,
    tracklet_frames,
    tracklets,
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
        frames = generate_tracklets(columns([det(1, basis(0))]), CFG)
        assert len(frames) == 1
        lf = frames[0]
        assert (lf.span_start, lf.span_end) == (0, 1)
        assert len(lf.tracklets) == 1
        assert len(lf.tracklets[0]) == 1

    def test_two_identities_two_frames(self):
        dets = [
            det(1, basis(0), row=0),
            det(1, basis(1), row=1),
            det(2, basis(0), row=2),
            det(2, basis(1), row=3),
        ]
        frames = generate_tracklets(columns(dets), CFG)
        assert len(frames) == 1
        tracklets = frames[0].tracklets
        assert len(tracklets) == 2
        assert all(len(t) == 2 for t in tracklets)
        for t in tracklets:
            feats = t.columns.feature[t.rows]
            assert np.array_equal(feats[0], feats[1])

    def test_same_frame_identical_features_stay_apart(self):
        dets = [det(1, basis(0), row=0), det(1, basis(0), row=1)]
        frames = generate_tracklets(columns(dets), CFG)
        assert len(frames[0].tracklets) == 2
        assert all(len(t) == 1 for t in frames[0].tracklets)

    def test_window_bucketing(self):
        dets = [det(f, basis(0), row=f) for f in (1, 6, 7, 13)]
        frames = generate_tracklets(columns(dets), CFG)
        assert [(lf.span_start, lf.span_end) for lf in frames] == [(0, 1), (1, 2), (2, 3)]
        assert [len(lf.tracklets) for lf in frames] == [1, 1, 1]
        assert frozenset(tracklet_frames(frames[0].tracklets[0])) == {1, 6}

    def test_empty_windows_are_kept(self):
        dets = [det(1, basis(0)), det(20, basis(0))]
        frames = generate_tracklets(columns(dets), CFG)
        assert len(frames) == math.ceil(20 / CFG.window)
        assert len(frames[1].tracklets) == 0

    def test_empty_input(self):
        assert list(generate_tracklets(columns([]), CFG)) == []


class TestFuseLiftedFrames:
    def test_same_identity_fuses(self):
        t1, t2 = tracklets(
            [det(f, basis(0), box=(0, 0, 10, 10)) for f in (1, 2)],
            [det(f, basis(0), box=(1, 0, 10, 10)) for f in (7, 8)],
        )
        a = LiftedFrame(0, 1, (t1,))
        b = LiftedFrame(1, 2, (t2,))
        fused = fuse_lifted_frames(a, b, CFG)
        assert (fused.span_start, fused.span_end) == (0, 2)
        assert len(fused.tracklets) == 1
        assert frozenset(tracklet_frames(fused.tracklets[0])) == frozenset({1, 2, 7, 8})

    def test_orthogonal_identities_stay_apart(self):
        t1, t2 = tracklets([det(1, basis(0))], [det(7, basis(1))])
        fused = fuse_lifted_frames(
            LiftedFrame(0, 1, (t1,)), LiftedFrame(1, 2, (t2,)), CFG
        )
        assert len(fused.tracklets) == 2

    def test_merged_median_recomputed(self):
        t1, t2 = tracklets([det(1, [0.0, 1.0])], [det(7, [1.0, 0.0]), det(8, [1.0, 1.0])])
        cfg = FcgConfig(feature_dim=2, track_threshold=1.9)
        fused = fuse_lifted_frames(
            LiftedFrame(0, 1, (t1,)), LiftedFrame(1, 2, (t2,)), cfg
        )
        assert len(fused.tracklets) == 1
        assert np.array_equal(fused.tracklets[0].median_feature, [1.0, 1.0])

    def test_frame_overlap_is_cannot_link(self):
        # same frame index on both sides of a non-consecutive fusion
        cfg = FcgConfig(feature_dim=8, consecutive=False, track_threshold=1.9)
        t1, t2 = tracklets([det(3, basis(0))], [det(3, basis(0))])
        fused = fuse_lifted_frames(
            LiftedFrame(0, 1, (t1,)), LiftedFrame(0, 1, (t2,)), cfg
        )
        assert len(fused.tracklets) == 2

    def test_frame_overlap_mask_matches_frame_sets(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            built = tracklets(*(
                [
                    det(int(f), basis(0))
                    for f in set(rng.integers(1, 10**9 if k % 3 else 30, size=4))
                ]
                for k in range(int(rng.integers(1, 12)))
            ))
            level = level_of([LiftedFrame(0, 1, tuple(built))])
            mask = overlap_masks(level, np.array([0]), np.array([len(built)]))[0]
            expected = frame_overlap_mask(built)
            # The diagonal is never read: a tracklet cannot link with itself anyway.
            off = ~np.eye(len(built), dtype=bool)
            assert np.array_equal(mask[off], expected[off])

    def test_frame_overlap_mask_pairs_rows_of_one_range_only(self):
        # Frame 5 is in both ranges, once each: no tracklet of either range overlaps another.
        built = tracklets(
            [det(5, basis(0))], [det(1, basis(0))], [det(9, basis(0))], [det(5, basis(0))]
        )
        level = level_of(
            [LiftedFrame(0, 1, tuple(built[:2])), LiftedFrame(1, 2, tuple(built[2:]))]
        )
        assert not overlap_masks(level, np.array([0, 2]), np.array([2, 2])).any()

    def test_share_frame_matches_frame_sets(self):
        # Pairs of any two tracklets of a level, in either order, across its lifted frames too.
        rng = np.random.default_rng(36)
        for _ in range(20):
            built = tracklets(*(
                [det(int(f), basis(0)) for f in set(rng.integers(1, 30, size=4))]
                for k in range(int(rng.integers(2, 12)))
            ))
            half = len(built) // 2
            level = level_of(
                [LiftedFrame(0, 1, tuple(built[:half])), LiftedFrame(1, 2, tuple(built[half:]))]
            )
            n = len(built)
            t, u = rng.integers(0, n, (2, 3 * n))
            expected = frame_overlap_mask(built)
            assert _share_frame(level, t, u).tolist() == [
                bool(expected[a, b]) and a != b for a, b in zip(t, u)
            ]
            assert not _share_frame(level, t[:0], u[:0]).any()

    def test_adjacency_required_when_consecutive(self):
        late, early = tracklets([det(7, basis(0))], [det(1, basis(0))])
        a = LiftedFrame(1, 2, (late,))
        b = LiftedFrame(0, 1, (early,))
        with pytest.raises(ValueError):
            fuse_lifted_frames(a, b, CFG)


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

        def counting_fuse(level, cuts, clustered, cfg):
            levels.append(len(cuts) - 1)
            return fuse(level, cuts, clustered, cfg)

        monkeypatch.setattr(pipeline, "_fuse", counting_fuse)
        for num_frames in (6, 12, 30, 36, 59):
            dets = [det(f, basis(0), row=f) for f in range(1, num_frames + 1)]
            frames = generate_tracklets(columns(dets), CFG)
            n_windows = math.ceil(num_frames / CFG.window)
            assert len(frames) == n_windows
            levels.clear()  # stage 1 is a step of its own
            (final,) = _reduce_consecutive(frames, CFG)
            assert (final.span_start, final.span_end) == (0, n_windows)
            # One `_fuse` call per level of the reduction tree.
            assert len(levels) == math.ceil(math.log2(n_windows))


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
            built = [_rows(f) for f in generate_tracklets(columns(dets), cfg)]
        else:
            singles = tracklets(*([d] for d in dets))
            unions = [singles[bounds[k] : bounds[k + 1]] for k in range(len(sizes))]
            # Each union is one fusion: its tracklets and an empty partner frame.
            level = level_of([
                LiftedFrame(2 * k + side, 2 * k + side + 1, tuple(u) if side == 0 else ())
                for k, u in enumerate(unions) for side in (0, 1)
            ])
            cuts = np.arange(0, 2 * len(sizes) + 1, 2)
            built = _fuse(level, cuts, np.full(len(sizes), True), cfg)
        assert tensors and max(tensors) <= clustering.CHUNK_CELLS
        assert sum(tensors) < 3 * 400**2
        assert len(built) == len(sizes)

        table = pipeline._sorted_columns(columns(dets))
        for k, got in enumerate(built):
            lo, hi = bounds[k], bounds[k + 1]
            if stage == 1:
                frames = table.frame[lo:hi]
                partition = clustering.cluster_matrix(
                    cosine_matrix(table.feature[lo:hi].astype(np.float64)),
                    frames[:, None] == frames[None, :],
                    threshold=cfg.tracklet_threshold,
                )
                assert got == [(lo + np.array(m)).tolist() for m in partition]
            else:
                union = unions[k]
                partition = clustering.cluster_matrix(
                    weighted_matrix(union, cfg),
                    frame_overlap_mask(union),
                    threshold=cfg.track_threshold,
                )
                assert _rows(got) == [
                    sorted(r for i in m for r in union[i].rows.tolist()) for m in partition
                ]


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


def _rows(frame):
    return [t.rows.tolist() for t in frame.tracklets]


class TestBatchedLevels:
    """Batched windows and levels give what one clustering per window or pair gives."""

    CFG3 = FcgConfig(feature_dim=8, window=3)
    SCENE = SynthConfig(
        num_identities=6, num_frames=150, feature_dim=8, feature_noise_sigma=0.08,
        occlusions=((2, 30, 80), (5, 60, 61)), exits=((4, 100),), seed=11,
    )

    def test_windows_match_one_clustering_per_window(self):
        seq, _ = generate(self.SCENE)
        frames = generate_tracklets(seq, self.CFG3)
        assert len(frames) == 50
        table = seq
        for frame in frames:
            lo, hi = np.searchsorted(
                table.frame, [frame.span_start * 3, frame.span_end * 3], side="right"
            )
            feats = table.feature[lo:hi].astype(np.float64)
            same = table.frame[lo:hi][:, None] == table.frame[lo:hi][None, :]
            partition = clustering.cluster_matrix(
                cosine_matrix(feats), same, threshold=self.CFG3.tracklet_threshold
            )
            assert _rows(frame) == [(lo + np.array(m)).tolist() for m in partition]

    @pytest.mark.parametrize("motion", [False, True])
    def test_levels_match_pairwise_fusion(self, motion):
        cfg = FcgConfig(feature_dim=8, window=3, use_motion=motion)
        seq, _ = generate(self.SCENE)
        frames = generate_tracklets(seq, cfg)
        expected = frames
        while len(expected) > 1:
            fused = [
                fuse_lifted_frames(expected[i], expected[i + 1], cfg)
                for i in range(0, len(expected) - 1, 2)
            ]
            if len(expected) % 2 == 1:
                fused.append(expected[-1])
            expected = fused
        (final,) = _reduce_consecutive(frames, cfg)
        top = expected[0]
        assert (final.span_start, final.span_end) == (top.span_start, top.span_end)
        assert _rows(final) == _rows(top)


class TestMixedTables:
    """Tracklets that index two detection tables are refused, not stacked."""

    ENTRIES = {
        "fuse_lifted_frames": lambda a, b: fuse_lifted_frames(
            LiftedFrame(0, 1, a), LiftedFrame(1, 2, b), CFG
        ),
        "weighted_matrix": lambda a, b: weighted_matrix(a + b, CFG),
        "assign_ids": lambda a, b: pipeline._assign_ids(level_of([LiftedFrame(0, 1, a + b)])),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_tracklets_of_two_sequences_raise(self, entry):
        scene = dict(num_identities=2, num_frames=6, feature_dim=8, feature_noise_sigma=0.02)
        seq_a, _ = generate(SynthConfig(**scene, seed=1))
        seq_b, _ = generate(SynthConfig(**scene, seed=2))
        (a,) = generate_tracklets(seq_a, CFG)
        (b,) = generate_tracklets(seq_b, CFG)
        with pytest.raises(ValueError, match="^tracklets index different detection tables$"):
            self.ENTRIES[entry](a.tracklets, b.tracklets)
        # The tracklets of one sequence are accepted.
        self.ENTRIES[entry](a.tracklets[:1], a.tracklets[1:])

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_tracklets_of_two_feature_widths_raise(self, entry):
        # The tables are told apart before any median is stacked.
        (a,) = tracklets([(1, [1.0, 0.0, 0.0])])
        (b,) = tracklets([(2, [1.0, 0.0, 0.0, 0.0])])
        with pytest.raises(ValueError, match="^tracklets index different detection tables$"):
            self.ENTRIES[entry]((a,), (b,))
