"""The columnar data path: detection and track columns, index-array tracklets.

The CLI tracks a sequence as columns from parse to output, features as the
sidecar's float32 view. A float64 table rebuilt from per-row tuples must
give the same bytes.
"""

import numpy as np
import pytest

import fcgtrack.core as core
from fcgtrack.cli import main
from fcgtrack.core import FcgConfig, FrameConflictError, TrackSet
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
from fcgtrack.pipeline import generate_tracklets, run
from fcgtrack.synthdata import SynthConfig, generate
from oracles import (
    Box, Entry, build_level, columns, fuse_all, track_entries, track_set, tracklet_rows,
)

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


class TestDetectionColumns:
    def test_columns_are_read_only(self):
        cols = columns([det(1, [1.0, 0.0])])
        with pytest.raises(ValueError):
            cols.feature[0, 0] = 2.0


class TestIndexTracklets:
    def test_tracklets_index_the_sequence_table(self):
        seq, _ = generate(SCENES["occluded"])
        level = generate_tracklets(seq, FcgConfig(feature_dim=16))
        assert level.table is seq
        for rows, median in zip(tracklet_rows(level), level.median):
            assert np.all(np.diff(seq.frame[rows]) > 0)
            assert np.array_equal(median, np.median(seq.feature[rows], axis=0))

    def test_single_member_cluster_is_carried_over(self):
        pair = build_level([[det(1, [1.0, 0.0]), det(2, [1.0, 0.0])]], [[det(7, [0.0, 1.0])]])
        fused = fuse_all(pair, FcgConfig(feature_dim=2))
        # The same rows and the same median: nothing is recomputed.
        assert fused.table is pair.table
        assert tracklet_rows(fused) == tracklet_rows(pair)
        assert np.array_equal(fused.median, pair.median)

    def test_merged_tracklet_median_covers_all_members(self):
        pair = build_level(
            [[det(f, [1.0, 0.1 * f], row=f) for f in (1, 2)]],
            [[det(f, [1.0, 0.1 * f], row=f) for f in (8, 9)]],
        )
        fused = fuse_all(pair, FcgConfig(feature_dim=2))
        assert fused.table is pair.table
        assert tracklet_rows(fused) == [[0, 1, 2, 3]]
        assert np.array_equal(fused.median[0], np.median(pair.table.feature, axis=0))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k", [1, 2, 3, 6, 11, 16, 17, 30])
    def test_median_matches_numpy(self, k, dtype):
        values = np.random.default_rng(k).normal(size=(k, 9)).astype(dtype)
        values[0, 0] = values[-1, 0]  # a tie
        (median,) = core._medians(values, np.arange(k), np.array([0, k]), [0])
        assert median.dtype == np.float64
        assert np.array_equal(median, np.median(values.astype(np.float64), axis=0))


class TestMiddleNetwork:
    """A comparator network selects every input's middle ranks if it does so for every 0-1
    input (the 0-1 principle, Knuth, TAOCP vol. 3, 5.3.4): up to 20 wires that is checked
    on all 2**n columns, above on random three-valued ones."""

    def check(self, columns):
        """`core._middle_network(n)` on (n, C) columns leaves `np.sort`'s middle wires."""
        n = len(columns)
        planes = list(columns)
        for a, b in core._middle_network(n):
            low, high = planes[a], planes[b]
            planes[a], planes[b] = np.minimum(low, high), np.maximum(low, high)
        ordered = np.sort(columns, axis=0)
        assert np.array_equal(planes[(n - 1) // 2], ordered[(n - 1) // 2])
        assert np.array_equal(planes[n // 2], ordered[n // 2])

    @pytest.mark.parametrize("n", range(1, 21))
    def test_every_zero_one_column(self, n):
        column = np.arange(2**n)
        self.check(np.stack([(column >> w & 1).astype(np.int8) for w in range(n)]))

    @pytest.mark.parametrize("n", range(21, core.NETWORK_MAX_SIZE + 1))
    def test_random_columns_above_twenty(self, n):
        self.check(np.random.default_rng(n).integers(0, 3, (n, 200_000)).astype(np.int8))

    def test_comparator_counts(self):
        counts = [len(core._middle_network(n)) for n in (1, 2, 6, 12, 24, 32)]
        assert counts == [0, 1, 12, 35, 108, 157]
        assert all(a < b < n for n in range(1, 40) for a, b in core._middle_network(n))


class TestTrackColumns:
    def tracks(self, ids, frames):
        n = len(ids)
        return TrackSet(
            track_id=np.array(ids, dtype=np.int64),
            frame=np.array(frames, dtype=np.int64),
            box=np.tile([1.0, 2.0, 3.0, 4.0], (n, 1)),
            score=np.ones(n),
        )

    def test_tracks_from_columns(self):
        ts = self.tracks([1, 1, 2], [1, 3, 2])
        b = Box(1.0, 2.0, 3.0, 4.0)
        assert track_entries(ts) == {1: (Entry(1, b, 1.0), Entry(3, b, 1.0)),
                                     2: (Entry(2, b, 1.0),)}
        assert len(ts) == 2 and ts.num_boxes == 3
        assert ts == track_set(track_entries(ts))

    def test_columns_from_tracks(self):
        b = Box(1.0, 2.0, 3.0, 4.0)
        ts = track_set({4: (Entry(2, b, 0.5),), 1: (Entry(5, b, 1.0),)})
        assert ts.track_id.tolist() == [1, 4]
        assert ts.frame.tolist() == [5, 2]
        assert write_tracks(ts) == write_tracks(TrackSet(ts.track_id, ts.frame, ts.box, ts.score))

    def test_rejects_repeated_frame_bad_id_and_unsorted_ids(self):
        with pytest.raises(FrameConflictError):
            self.tracks([1, 1], [2, 2])
        with pytest.raises(ValueError, match="positive"):
            self.tracks([0], [1])
        with pytest.raises(ValueError, match="sorted by track ID"):
            self.tracks([1, 2, 1], [5, 1, 3])

    def test_takes_exactly_one_form(self):
        # The four columns; the track ID -> entries mapping form is gone.
        with pytest.raises(TypeError):
            TrackSet()
        with pytest.raises(TypeError):
            TrackSet(tracks={})

    def test_parsed_ground_truth_is_sorted_columns(self):
        ts = parse_ground_truth(b"3,9,1,2,3,4,1\n1,9,1,2,3,4,1\n2,4,5,6,7,8,1\n")
        assert not hasattr(ts, "tracks")
        assert ts.track_id.tolist() == [4, 9, 9]
        assert ts.frame.tolist() == [2, 1, 3]
        assert ts.score.tolist() == [1.0, 1.0, 1.0]
        # IDs come back in ascending order, not in order of first appearance.
        assert list(track_entries(ts)) == [4, 9]

    @pytest.mark.parametrize("ratio", [2, 3, 7])
    def test_subsample_tracks_matches_entry_rule(self, ratio):
        _, truth = generate(SCENES["occluded"])
        expected = {}
        for tid, entries in track_entries(truth).items():
            kept = tuple(
                Entry((e.frame - 1) // ratio + 1, e.bbox, e.score)
                for e in entries
                if (e.frame - 1) % ratio == 0
            )
            if kept:
                expected[tid] = kept
        out = subsample_tracks(truth, ratio)
        assert not hasattr(out, "tracks")
        assert out == track_set(expected)

    def test_write_ground_truth_bytes(self):
        ts = track_set(
            {
                9: (Entry(1, Box(0.1 + 0.2, -0.0, 1e-300, 2.5), 0.3),),
                2: (Entry(1, Box(1, 2, 3, 4), 1.0), Entry(4, Box(5, 6, 7, 8), 1.0)),
            }
        )
        assert write_ground_truth(ts) == (
            b"1,2,1.0,2.0,3.0,4.0,1,1,1\n"
            b"1,9,0.30000000000000004,-0.0,1e-300,2.5,1,1,1\n"
            b"4,2,5.0,6.0,7.0,8.0,1,1,1\n"
        )
        assert write_ground_truth(track_set({})) == b""

    def test_immutable(self):
        ts = self.tracks([1], [1])
        with pytest.raises(AttributeError):
            ts.frame = np.array([2])
        for name in ("track_id", "frame", "box", "score"):
            with pytest.raises(ValueError):
                getattr(ts, name)[0] = 2
