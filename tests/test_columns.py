"""The columnar data path: detection and track columns, index-array tracklets.

The CLI tracks a sequence as columns from parse to output, features as the
sidecar's float32 view. A float64 table rebuilt from per-row tuples must
give the same bytes.
"""

import numpy as np
import pytest

import fcgtrack.core as core
from fcgtrack.cli import main
from fcgtrack.core import (
    BBox,
    FcgConfig,
    FrameConflictError,
    LiftedFrame,
    TrackColumns,
    TrackEntry,
    TrackSet,
    Tracklet,
)
from fcgtrack.io_mot import (
    detection_features,
    parse_detections,
    parse_ground_truth,
    subsample,
    subsample_tracks,
    write_detections,
    write_features,
    write_ground_truth,
    write_tracks,
)
from fcgtrack.metrics import id_switches, idf1
from fcgtrack.pipeline import fuse_lifted_frames, generate_tracklets, run
from fcgtrack.synthdata import SynthConfig, generate
from oracles import columns, tracklets

SCENES = {
    "occluded": SynthConfig(
        num_identities=4, num_frames=60, feature_dim=16, feature_noise_sigma=0.05,
        occlusions=((2, 20, 35),), seed=3,
    ),
    "sinusoidal": SynthConfig(
        num_identities=3, num_frames=45, feature_dim=8, feature_noise_sigma=0.02,
        motion_model="sinusoidal", exits=((1, 30),), seed=11,
    ),
}


def det(frame, feature, box=(0.0, 0.0, 10.0, 10.0), row=0):
    return (frame, feature, box, 1.0, row)


def write_scene(scene, directory):
    seq, _ = generate(scene)
    directory.mkdir()
    (directory / "det.txt").write_bytes(write_detections(seq))
    (directory / "feats.fcgf").write_bytes(
        write_features(detection_features(seq, scene.feature_dim))
    )
    return directory / "det.txt", directory / "feats.fcgf"


@pytest.mark.parametrize("scene", sorted(SCENES))
@pytest.mark.parametrize("ratio", [1, 2, 5])
@pytest.mark.parametrize("flags", [(), ("--motion",), ("--non-consecutive",)])
def test_column_path_matches_detection_adapter(tmp_path, scene, ratio, flags):
    scene = SCENES[scene]
    det_path, feat_path = write_scene(scene, tmp_path / "seq")
    out = tmp_path / "out.txt"
    dim = str(scene.feature_dim)
    argv = ["track", "--det", str(det_path), "--features", str(feat_path), "--out", str(out),
            "--feature-dim", dim, "--ratio", str(ratio), *flags]
    assert main(argv) == 0

    cfg = FcgConfig(
        feature_dim=scene.feature_dim,
        use_motion="--motion" in flags,
        consecutive="--non-consecutive" not in flags,
    )
    seq = subsample(parse_detections(det_path.read_bytes(), feat_path.read_bytes(), cfg), ratio)
    # The sequence rebuilt row by row, as per-row detection objects held it.
    rows = zip(seq.frame.tolist(), seq.feature, seq.box.tolist(), seq.score.tolist(),
               seq.row.tolist())
    adapter = write_tracks(run(columns(rows), cfg))
    assert adapter
    assert out.read_bytes() == adapter == write_tracks(run(seq, cfg))


def test_eval_command_builds_no_track_entries_or_boxes(tmp_path, monkeypatch, capsys):
    scene = SCENES["occluded"]
    seq, truth = generate(scene)
    gt_path, pred_path = tmp_path / "gt.txt", tmp_path / "pred.txt"
    gt_path.write_bytes(write_ground_truth(truth))
    pred_path.write_bytes(write_tracks(run(seq, FcgConfig(feature_dim=16))))
    pred = TrackSet(tracks=parse_ground_truth(pred_path.read_bytes()).tracks)
    expected = f"idf1,{idf1(truth, pred):.6f}\nid_switches,{id_switches(truth, pred)}\n"
    built = []
    original_box = core.BBox.__post_init__
    original_entry = core.TrackEntry.__new__

    def count_entry(cls, *args, **kwargs):
        built.append(cls)
        return original_entry(cls, *args, **kwargs)

    monkeypatch.setattr(core.BBox, "__post_init__", lambda self: built.append(original_box(self)))
    monkeypatch.setattr(core.TrackEntry, "__new__", count_entry)
    assert main(["eval", "--gt", str(gt_path), "--pred", str(pred_path)]) == 0
    assert built == []
    assert capsys.readouterr().out == expected
    # Both counters are live.
    TrackEntry(1, BBox(0.0, 0.0, 1.0, 1.0), 1.0)
    assert len(built) == 2


class TestDetectionColumns:
    def test_columns_are_read_only(self):
        cols = columns([det(1, [1.0, 0.0])])
        with pytest.raises(ValueError):
            cols.feature[0, 0] = 2.0


class TestIndexTracklets:
    def test_tracklets_index_the_sequence_table(self):
        seq, _ = generate(SCENES["occluded"])
        cfg = FcgConfig(feature_dim=16)
        frames = generate_tracklets(seq, cfg)
        for lf in frames:
            for t in lf.tracklets:
                assert t.columns is seq
                assert np.all(np.diff(seq.frame[t.rows]) > 0)
                expected = np.median(seq.feature[t.rows], axis=0)
                assert np.array_equal(t.median_feature, expected)

    def test_single_member_cluster_is_carried_over(self):
        a, b = tracklets([det(1, [1.0, 0.0]), det(2, [1.0, 0.0])], [det(7, [0.0, 1.0])])
        fused = fuse_lifted_frames(
            LiftedFrame(0, 1, (a,)), LiftedFrame(1, 2, (b,)), FcgConfig(feature_dim=2)
        )
        assert fused.tracklets[0] is a and fused.tracklets[1] is b

    def test_merged_tracklet_median_covers_all_members(self):
        table = columns([det(f, [1.0, 0.1 * f], row=f) for f in (1, 2, 8, 9)])
        early = Tracklet.from_rows(table, np.array([0, 1]))
        late = Tracklet.from_rows(table, np.array([2, 3]))
        fused = fuse_lifted_frames(
            LiftedFrame(0, 1, (early,)), LiftedFrame(1, 2, (late,)),
            FcgConfig(feature_dim=2),
        )
        (merged,) = fused.tracklets
        assert merged.columns is table
        assert merged.rows.tolist() == [0, 1, 2, 3]
        assert np.array_equal(merged.median_feature, np.median(table.feature, axis=0))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k", [1, 2, 3, 6, 11])
    def test_median_matches_numpy(self, k, dtype):
        values = np.random.default_rng(k).normal(size=(k, 9)).astype(dtype)
        values[0, 0] = values[-1, 0]  # a tie
        median = core._median(values)
        assert median.dtype == np.float64
        assert np.array_equal(median, np.median(values.astype(np.float64), axis=0))


class TestTrackColumns:
    def columns(self, ids, frames):
        n = len(ids)
        return TrackColumns(
            track_id=np.array(ids, dtype=np.int64),
            frame=np.array(frames, dtype=np.int64),
            box=np.tile([1.0, 2.0, 3.0, 4.0], (n, 1)),
            score=np.ones(n),
        )

    def test_tracks_from_columns(self):
        ts = TrackSet(columns=self.columns([1, 1, 2], [1, 3, 2]))
        b = BBox(1.0, 2.0, 3.0, 4.0)
        assert ts.tracks == {1: (TrackEntry(1, b, 1.0), TrackEntry(3, b, 1.0)),
                             2: (TrackEntry(2, b, 1.0),)}
        assert len(ts) == 2 and ts.num_boxes == 3
        assert ts == TrackSet(tracks=ts.tracks)

    def test_columns_from_tracks(self):
        b = BBox(1.0, 2.0, 3.0, 4.0)
        ts = TrackSet(tracks={4: (TrackEntry(2, b, 0.5),), 1: (TrackEntry(5, b, 1.0),)})
        assert ts.columns.track_id.tolist() == [1, 4]
        assert ts.columns.frame.tolist() == [5, 2]
        assert write_tracks(ts) == write_tracks(TrackSet(columns=ts.columns))

    def test_rejects_repeated_frame_bad_id_and_unsorted_ids(self):
        with pytest.raises(FrameConflictError):
            TrackSet(columns=self.columns([1, 1], [2, 2]))
        with pytest.raises(ValueError, match="positive"):
            TrackSet(columns=self.columns([0], [1]))
        with pytest.raises(ValueError, match="sorted by track ID"):
            TrackSet(columns=self.columns([1, 2, 1], [5, 1, 3]))

    def test_takes_exactly_one_form(self):
        with pytest.raises(TypeError):
            TrackSet()
        with pytest.raises(TypeError):
            TrackSet(tracks={}, columns=self.columns([], []))

    def test_parsed_ground_truth_is_sorted_columns(self):
        ts = parse_ground_truth(b"3,9,1,2,3,4,1\n1,9,1,2,3,4,1\n2,4,5,6,7,8,1\n")
        assert "tracks" not in ts.__dict__
        assert ts.columns.track_id.tolist() == [4, 9, 9]
        assert ts.columns.frame.tolist() == [2, 1, 3]
        assert ts.columns.score.tolist() == [1.0, 1.0, 1.0]
        # IDs come back in ascending order, not in order of first appearance.
        assert list(ts.tracks) == [4, 9]

    @pytest.mark.parametrize("ratio", [2, 3, 7])
    def test_subsample_tracks_matches_entry_rule(self, ratio):
        _, truth = generate(SCENES["occluded"])
        expected = {}
        for tid, entries in truth.tracks.items():
            kept = tuple(
                TrackEntry((e.frame - 1) // ratio + 1, e.bbox, e.score)
                for e in entries
                if (e.frame - 1) % ratio == 0
            )
            if kept:
                expected[tid] = kept
        out = subsample_tracks(truth, ratio)
        assert "tracks" not in out.__dict__
        assert out == TrackSet(tracks=expected)

    def test_write_ground_truth_bytes(self):
        ts = TrackSet(
            tracks={
                9: (TrackEntry(1, BBox(0.1 + 0.2, -0.0, 1e-300, 2.5), 0.3),),
                2: (TrackEntry(1, BBox(1, 2, 3, 4), 1.0), TrackEntry(4, BBox(5, 6, 7, 8), 1.0)),
            }
        )
        assert write_ground_truth(ts) == (
            b"1,2,1.0,2.0,3.0,4.0,1,1,1\n"
            b"1,9,0.30000000000000004,-0.0,1e-300,2.5,1,1,1\n"
            b"4,2,5.0,6.0,7.0,8.0,1,1,1\n"
        )
        assert write_ground_truth(TrackSet(tracks={})) == b""

    def test_immutable(self):
        ts = TrackSet(tracks={})
        with pytest.raises(AttributeError):
            ts.tracks = {}
