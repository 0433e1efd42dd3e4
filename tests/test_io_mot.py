import numpy as np
import pytest

from fcgtrack.core import BBox, FcgConfig, ParseError, TrackEntry, TrackSet
from fcgtrack.io_mot import (
    SequenceInput,
    detection_features,
    parse_detections,
    parse_ground_truth,
    read_features,
    subsample,
    subsample_tracks,
    write_detections,
    write_features,
    write_ground_truth,
    write_tracks,
)

CFG = FcgConfig(feature_dim=3)


def feats(rows):
    return write_features(np.array(rows, dtype=float))


def detfile(*lines):
    return ("\n".join(lines) + "\n").encode()


class TestFeatureBlob:
    def test_round_trip(self):
        m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = read_features(write_features(m))
        assert out.shape == (2, 3)
        assert np.array_equal(out, m)

    def test_f32_precision_is_stable(self):
        m = np.array([[0.1, 0.2, 0.3]])
        once = read_features(write_features(m))
        twice = read_features(write_features(once))
        assert np.array_equal(once, twice)

    def test_bad_magic(self):
        blob = b"XXXX" + write_features(np.zeros((1, 3)))[4:]
        with pytest.raises(ParseError, match="magic"):
            read_features(blob)

    def test_bad_version(self):
        import struct

        blob = struct.pack("<4sIII", b"FCGF", 9, 0, 3)
        with pytest.raises(ParseError, match="version"):
            read_features(blob)

    def test_truncated_payload(self):
        blob = write_features(np.zeros((2, 3)))[:-4]
        with pytest.raises(ParseError, match="length"):
            read_features(blob)


class TestParseDetections:
    def test_basic_row(self):
        seq = parse_detections(
            detfile("1,-1,10,20,30,40,0.9,-1,-1,-1"),
            feats([[1.0, 0.0, 0.0]]),
            CFG,
        )
        assert len(seq.detections) == 1
        d = seq.detections[0]
        assert d.frame == 1
        assert d.bbox == BBox(10, 20, 30, 40)
        assert d.score == 0.9
        assert d.source_row == 0
        assert np.array_equal(d.feature, [1.0, 0.0, 0.0])

    def test_score_filter(self):
        seq = parse_detections(
            detfile(
                "1,-1,10,20,30,40,0.5,-1,-1,-1",
                "1,-1,10,20,30,40,0.9,-1,-1,-1",
            ),
            feats([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            CFG,
        )
        assert len(seq.detections) == 1
        # the kept detection carries its own feature row, not the dropped one
        assert np.array_equal(seq.detections[0].feature, [0.0, 1.0, 0.0])
        assert seq.detections[0].source_row == 1

    def test_row_count_mismatch(self):
        with pytest.raises(ParseError, match="3 detection rows but 2 feature rows"):
            parse_detections(
                detfile(
                    "1,-1,1,1,1,1,0.9,-1,-1,-1",
                    "2,-1,1,1,1,1,0.9,-1,-1,-1",
                    "3,-1,1,1,1,1,0.9,-1,-1,-1",
                ),
                feats([[1, 0, 0], [0, 1, 0]]),
                CFG,
            )

    def test_nonpositive_box_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_detections(
                detfile(
                    "1,-1,1,1,5,5,0.9,-1,-1,-1",
                    "1,-1,1,1,0,5,0.9,-1,-1,-1",
                ),
                feats([[1, 0, 0], [1, 0, 0]]),
                CFG,
            )

    def test_malformed_line_names_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_detections(
                detfile("1,-1,abc,1,5,5,0.9,-1,-1,-1"), feats([[1, 0, 0]]), CFG
            )

    def test_too_few_fields(self):
        with pytest.raises(ParseError, match="at least 7 fields"):
            parse_detections(detfile("1,-1,1,1"), feats([[1, 0, 0]]), CFG)

    def test_dim_mismatch_with_config(self):
        with pytest.raises(ParseError, match="dimension"):
            parse_detections(
                detfile("1,-1,1,1,5,5,0.9,-1,-1,-1"),
                write_features(np.ones((1, 5))),
                CFG,
            )

    def test_nan_coordinate_names_line(self):
        with pytest.raises(ParseError, match="line 2: box must be finite"):
            parse_detections(
                detfile(
                    "1,-1,1,1,5,5,0.9,-1,-1,-1",
                    "2,-1,nan,1,5,5,0.9,-1,-1,-1",
                ),
                feats([[1, 0, 0], [1, 0, 0]]),
                CFG,
            )

    def test_inf_feature_names_line(self):
        with pytest.raises(ParseError, match="line 2: non-finite feature"):
            parse_detections(
                detfile(
                    "1,-1,1,1,5,5,0.9,-1,-1,-1",
                    "2,-1,1,1,5,5,0.9,-1,-1,-1",
                ),
                feats([[1, 0, 0], [1, np.inf, 0]]),
                CFG,
            )

    def test_zero_norm_feature_names_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_detections(
                detfile("1,-1,1,1,5,5,0.9,-1,-1,-1"), feats([[0, 0, 0]]), CFG
            )

    def test_sorted_by_frame_then_row(self):
        seq = parse_detections(
            detfile(
                "2,-1,1,1,5,5,0.9,-1,-1,-1",
                "1,-1,1,1,5,5,0.9,-1,-1,-1",
                "1,-1,2,2,5,5,0.9,-1,-1,-1",
            ),
            feats([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            CFG,
        )
        assert [(d.frame, d.source_row) for d in seq.detections] == [
            (1, 1),
            (1, 2),
            (2, 0),
        ]

    def test_source_rows_unique(self):
        seq = parse_detections(
            detfile(*(f"{f},-1,1,1,5,5,0.9,-1,-1,-1" for f in (1, 1, 2, 3))),
            feats([[1, 0, 0]] * 4),
            CFG,
        )
        rows = [d.source_row for d in seq.detections]
        assert len(rows) == len(set(rows))


class TestWriteTracks:
    def test_empty(self):
        assert write_tracks(TrackSet(tracks={})) == b""

    def test_single_row_format(self):
        ts = TrackSet(tracks={1: (TrackEntry(1, BBox(10, 20, 30, 40), 0.9),)})
        assert write_tracks(ts) == b"1,1,10.00,20.00,30.00,40.00,0.9000,-1,-1,-1\n"

    def test_sorted_by_frame_then_id(self):
        b = BBox(0, 0, 1, 1)
        ts = TrackSet(
            tracks={
                2: (TrackEntry(1, b, 1.0), TrackEntry(2, b, 1.0)),
                1: (TrackEntry(2, b, 1.0),),
            }
        )
        lines = write_tracks(ts).decode().splitlines()
        keys = [tuple(map(int, ln.split(",")[:2])) for ln in lines]
        assert keys == [(1, 2), (2, 1), (2, 2)]

    def test_round_trip_through_gt_parser(self):
        ts = TrackSet(
            tracks={
                1: (TrackEntry(1, BBox(10.25, 20.5, 30.75, 40.0), 0.9),),
                2: (TrackEntry(1, BBox(1, 2, 3, 4), 0.8), TrackEntry(3, BBox(5, 6, 7, 8), 0.7)),
            }
        )
        parsed = parse_ground_truth(write_tracks(ts))
        assert set(parsed.tracks) == {1, 2}
        for tid in (1, 2):
            got = [(e.frame, e.bbox) for e in parsed.tracks[tid]]
            want = [(e.frame, e.bbox) for e in ts.tracks[tid]]
            assert got == want


class TestParseGroundTruth:
    def test_two_rows_one_track(self):
        ts = parse_ground_truth(detfile("1,5,1,2,3,4,1,1,1", "2,5,2,3,4,5,1,1,1"))
        assert list(ts.tracks) == [5]
        assert [e.frame for e in ts.tracks[5]] == [1, 2]

    def test_flag_zero_excluded(self):
        ts = parse_ground_truth(detfile("1,5,1,2,3,4,0,1,1", "2,5,2,3,4,5,1,1,1"))
        assert [e.frame for e in ts.tracks[5]] == [2]

    def test_duplicate_frame_id_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_ground_truth(detfile("1,5,1,2,3,4,1,1,1", "1,5,2,3,4,5,1,1,1"))

    def test_keeps_file_ids(self):
        ts = parse_ground_truth(detfile("1,42,1,2,3,4,1,1,1"))
        assert list(ts.tracks) == [42]

    def test_gt_round_trip(self):
        ts = TrackSet(
            tracks={
                3: (TrackEntry(1, BBox(1.5, 2.25, 3.125, 4.0), 1.0),),
                9: (TrackEntry(2, BBox(10, 20, 30, 40), 1.0),),
            }
        )
        again = parse_ground_truth(write_ground_truth(ts))
        assert again == ts


class TestDetectionRoundTrip:
    def test_write_then_parse_is_identity(self):
        rng = np.random.default_rng(55)
        from fcgtrack.core import Detection

        dets = tuple(
            Detection(
                frame=f,
                bbox=BBox(*rng.uniform(1, 500, 2), *rng.uniform(1, 80, 2)),
                score=1.0,
                feature=rng.normal(size=3).astype(np.float32).astype(np.float64),
                source_row=f - 1,
            )
            for f in range(1, 8)
        )
        seq = SequenceInput(detections=dets, name="t")
        cfg = FcgConfig(feature_dim=3)
        again = parse_detections(
            write_detections(seq), write_features(detection_features(seq)), cfg, name="t"
        )
        assert again.detections == dets


class TestSubsample:
    def seq(self, frames):
        from fcgtrack.core import Detection

        dets = tuple(
            Detection(
                frame=f,
                bbox=BBox(0, 0, 1, 1),
                score=1.0,
                feature=np.array([1.0, 0.0, 0.0]),
                source_row=i,
            )
            for i, f in enumerate(frames)
        )
        return SequenceInput(detections=dets, name="s")

    def test_ratio_one_is_identity(self):
        s = self.seq(range(1, 11))
        assert subsample(s, 1) is s

    def test_ratio_two(self):
        out = subsample(self.seq(range(1, 11)), 2)
        assert [d.frame for d in out.detections] == [1, 2, 3, 4, 5]
        kept_rows = [d.source_row for d in out.detections]
        assert kept_rows == [0, 2, 4, 6, 8]
        assert out.fps_ratio_applied == 2

    def test_ratio_thirty_keeps_one_frame(self):
        out = subsample(self.seq(range(1, 31)), 30)
        assert [d.frame for d in out.detections] == [1]

    def test_composition(self):
        s = self.seq(range(1, 41))
        twice = subsample(subsample(s, 2), 2)
        direct = subsample(s, 4)
        assert twice.detections == direct.detections
        assert twice.fps_ratio_applied == direct.fps_ratio_applied == 4

    def test_subsample_tracks_matches_rule(self):
        b = BBox(0, 0, 1, 1)
        ts = TrackSet(
            tracks={1: tuple(TrackEntry(f, b, 1.0) for f in range(1, 11))}
        )
        out = subsample_tracks(ts, 5)
        assert [e.frame for e in out.tracks[1]] == [1, 2]

    def test_subsample_tracks_drops_emptied_tracks(self):
        b = BBox(0, 0, 1, 1)
        ts = TrackSet(tracks={1: (TrackEntry(2, b, 1.0),)})
        assert subsample_tracks(ts, 2).tracks == {}

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            subsample(self.seq([1]), 0)
