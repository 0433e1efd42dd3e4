import numpy as np
import pytest

from fcgtrack.core import FcgConfig, ParseError, TrackSet
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
from fcgtrack.synthdata import SynthConfig, generate
from oracles import Box, Entry, columns, track_entries, track_set

CFG = FcgConfig(feature_dim=3)
COLUMNS = ("frame", "box", "score", "row", "feature")


def feats(rows):
    return write_features(np.array(rows, dtype=float))


def detfile(*lines):
    return ("\n".join(lines) + "\n").encode()


def read_back(blob, cfg=CFG):
    """The feature rows of a sidecar `blob`, as `parse_detections` reads them for one
    detection a row."""
    rows = int(np.frombuffer(blob, dtype="<u4", count=1, offset=8)[0])
    det = b"".join(b"%d,-1,0,0,10,10,0.9\n" % (r + 1) for r in range(rows))
    return parse_detections(det, blob, cfg).feature


class TestFeatureBlob:
    def test_round_trip(self):
        m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = read_back(write_features(m))
        assert out.shape == (2, 3)
        assert np.array_equal(out, m)

    def test_f32_precision_is_stable(self):
        m = np.array([[0.1, 0.2, 0.3]])
        once = read_back(write_features(m))
        twice = read_back(write_features(once))
        assert np.array_equal(once, twice)

    def test_bad_magic(self):
        blob = b"XXXX" + write_features(np.zeros((1, 3)))[4:]
        with pytest.raises(ParseError, match="magic"):
            read_back(blob)

    def test_bad_version(self):
        import struct

        blob = struct.pack("<4sIII", b"FCGF", 9, 0, 3)
        with pytest.raises(ParseError, match="version"):
            read_back(blob)

    def test_truncated_payload(self):
        blob = write_features(np.zeros((2, 3)))[:-4]
        with pytest.raises(ParseError, match="length"):
            read_back(blob)

    @pytest.mark.parametrize(
        "shape, message",
        [((2**32, 0), "rows must be <= 4294967295, got 4294967296"),
         ((0, 2**32), "dimension must be <= 4294967295, got 4294967296"),
         ((3, 0), "dimension must be >= 1, got 0")],
    )
    def test_header_fields_beyond_u32_are_refused(self, shape, message):
        with pytest.raises(ValueError, match=f"^feature {message}$"):
            write_features(np.zeros(shape))

    def test_one_dimensional_array_is_refused(self):
        with pytest.raises(ValueError, match=r"^expected a 2-d feature matrix, got shape \(3,\)$"):
            write_features(np.zeros(3))

    def test_integer_matrix_is_written_as_float32(self):
        m = np.array([[1, -2, 3], [0, 7, 2**24]])
        blob = write_features(m)
        assert np.array_equal(np.frombuffer(blob, dtype="<f4", offset=16).reshape(2, 3), m)
        assert np.array_equal(read_back(blob), m)

    def test_largest_u32_dimension_is_written(self):
        blob = write_features(np.zeros((0, 2**32 - 1)))
        assert read_back(blob, FcgConfig(feature_dim=2**32 - 1)).shape == (0, 2**32 - 1)


class TestParseDetections:
    def test_basic_row(self):
        seq = parse_detections(
            detfile("1,-1,10,20,30,40,0.9,-1,-1,-1"),
            feats([[1.0, 0.0, 0.0]]),
            CFG,
        )
        assert len(seq) == 1
        assert seq.frame[0] == 1
        assert Box(*seq.box[0]) == Box(10, 20, 30, 40)
        assert seq.score[0] == 0.9
        assert seq.row[0] == 0
        assert np.array_equal(seq.feature[0], [1.0, 0.0, 0.0])

    def test_score_filter(self):
        seq = parse_detections(
            detfile(
                "1,-1,10,20,30,40,0.5,-1,-1,-1",
                "1,-1,10,20,30,40,0.9,-1,-1,-1",
            ),
            feats([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            CFG,
        )
        assert len(seq) == 1
        # the kept detection carries its own feature row, not the dropped one
        assert np.array_equal(seq.feature[0], [0.0, 1.0, 0.0])
        assert seq.row[0] == 1

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
        assert list(zip(seq.frame.tolist(), seq.row.tolist())) == [
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
        rows = seq.row.tolist()
        assert len(rows) == len(set(rows))


class TestWriteTracks:
    def test_empty(self):
        assert write_tracks(track_set({})) == b""

    def test_single_row_format(self):
        ts = track_set({1: (Entry(1, Box(10, 20, 30, 40), 0.9),)})
        assert write_tracks(ts) == b"1,1,10.00,20.00,30.00,40.00,0.9000,-1,-1,-1\n"

    def test_rows_as_one_f_string_each_would_format_them(self):
        rng = np.random.default_rng(8)
        edges = [0.005, 0.015, 2.675, -0.0, 1e-9, 123456789.125, 0.99995, 0.00005]
        values = np.concatenate([edges, rng.uniform(-1e4, 1e4, 200), rng.uniform(0, 1, 200)])
        box = rng.choice(values, (300, 4))
        score = rng.choice(values, 300)
        frame = rng.integers(1, 2**40, 300)
        ts = TrackSet(np.arange(1, 301), frame, box, score)
        order = np.lexsort((ts.track_id, ts.frame))
        expected = "".join(
            f"{f},{t},{x:.2f},{y:.2f},{w:.2f},{h:.2f},{s:.4f},-1,-1,-1\n"
            for f, t, (x, y, w, h), s in zip(
                frame[order].tolist(), ts.track_id[order].tolist(), box[order].tolist(),
                score[order].tolist(),
            )
        )
        assert write_tracks(ts) == expected.encode()

    def test_three_decimal_boxes_splice_percent_rows_among_array_rows(self):
        # A value of three decimals ending in 5 is a near-tie at two, such as 2.675: its row
        # is written with `%` and spliced among the rows built as arrays.
        rng = np.random.default_rng(74)
        box = np.round(rng.uniform(-5, 2000, (3000, 4)), 3)
        score = np.round(rng.uniform(0, 1, 3000), 3)
        frame = rng.integers(1, 400, 3000)
        ts = TrackSet(np.arange(1, 3001), frame, box, score)
        tie = (np.rint(np.abs(box) * 1000) % 10 == 5).any(axis=1)
        assert 0.1 < tie.mean() < 0.9
        order = np.lexsort((ts.track_id, ts.frame))
        expected = "".join(
            f"{f},{t},{x:.2f},{y:.2f},{w:.2f},{h:.2f},{s:.4f},-1,-1,-1\n"
            for f, t, (x, y, w, h), s in zip(
                frame[order].tolist(), ts.track_id[order].tolist(), box[order].tolist(),
                score[order].tolist(),
            )
        )
        assert write_tracks(ts) == expected.encode()

    def test_sorted_by_frame_then_id(self):
        b = Box(0, 0, 1, 1)
        ts = track_set(
            {
                2: (Entry(1, b, 1.0), Entry(2, b, 1.0)),
                1: (Entry(2, b, 1.0),),
            }
        )
        lines = write_tracks(ts).decode().splitlines()
        keys = [tuple(map(int, ln.split(",")[:2])) for ln in lines]
        assert keys == [(1, 2), (2, 1), (2, 2)]

    def test_round_trip_through_gt_parser(self):
        ts = track_set(
            {
                1: (Entry(1, Box(10.25, 20.5, 30.75, 40.0), 0.9),),
                2: (Entry(1, Box(1, 2, 3, 4), 0.8), Entry(3, Box(5, 6, 7, 8), 0.7)),
            }
        )
        parsed = parse_ground_truth(write_tracks(ts))
        assert set(track_entries(parsed)) == {1, 2}
        for tid in (1, 2):
            got = [(e.frame, e.bbox) for e in track_entries(parsed)[tid]]
            want = [(e.frame, e.bbox) for e in track_entries(ts)[tid]]
            assert got == want


class TestParseGroundTruth:
    def test_two_rows_one_track(self):
        ts = parse_ground_truth(detfile("1,5,1,2,3,4,1,1,1", "2,5,2,3,4,5,1,1,1"))
        assert list(track_entries(ts)) == [5]
        assert [e.frame for e in track_entries(ts)[5]] == [1, 2]

    def test_flag_zero_excluded(self):
        ts = parse_ground_truth(detfile("1,5,1,2,3,4,0,1,1", "2,5,2,3,4,5,1,1,1"))
        assert [e.frame for e in track_entries(ts)[5]] == [2]

    def test_duplicate_frame_id_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_ground_truth(detfile("1,5,1,2,3,4,1,1,1", "1,5,2,3,4,5,1,1,1"))

    def test_keeps_file_ids(self):
        ts = parse_ground_truth(detfile("1,42,1,2,3,4,1,1,1"))
        assert list(track_entries(ts)) == [42]

    def test_gt_round_trip(self):
        ts = track_set(
            {
                3: (Entry(1, Box(1.5, 2.25, 3.125, 4.0), 1.0),),
                9: (Entry(2, Box(10, 20, 30, 40), 1.0),),
            }
        )
        again = parse_ground_truth(write_ground_truth(ts))
        assert again == ts


class TestDetectionRoundTrip:
    def test_write_then_parse_is_identity(self):
        rng = np.random.default_rng(55)
        rows = []
        for f in range(1, 8):
            box = (*rng.uniform(1, 500, 2), *rng.uniform(1, 80, 2))
            feature = rng.normal(size=3).astype(np.float32).astype(np.float64)
            rows.append((f, feature, box, 1.0, f - 1))
        seq = columns(rows)
        cfg = FcgConfig(feature_dim=3)
        again = parse_detections(
            write_detections(seq), write_features(detection_features(seq)), cfg, name="t"
        )
        for name in COLUMNS:
            assert np.array_equal(getattr(again, name), getattr(seq, name)), name


class TestDetectionFeatures:
    NO_ONE = SynthConfig(
        num_identities=2, num_frames=5, feature_dim=4, exits=((1, 1), (2, 1))
    )

    def test_empty_table_keeps_its_width(self):
        seq, _ = generate(self.NO_ONE)
        assert seq.feature.shape == (0, 4)
        assert detection_features(seq).shape == (0, 4)
        again = parse_detections(
            write_detections(seq), write_features(detection_features(seq)), FcgConfig(feature_dim=4)
        )
        assert again.feature.shape == (0, 4)

    def test_feature_dim_must_match_the_table(self):
        seq, _ = generate(SynthConfig(num_identities=2, num_frames=5, feature_dim=4))
        assert detection_features(seq, 4) is seq.feature
        for table in (seq, generate(self.NO_ONE)[0]):
            with pytest.raises(ValueError, match="^feature_dim 3 does not match"):
                detection_features(table, 3)


class TestSubsample:
    def seq(self, frames):
        return columns(
            (f, np.array([1.0, 0.0, 0.0]), (0, 0, 1, 1), 1.0, i) for i, f in enumerate(frames)
        )

    def test_ratio_one_is_identity(self):
        s = self.seq(range(1, 11))
        assert subsample(s, 1) is s

    def test_ratio_two(self):
        out = subsample(self.seq(range(1, 11)), 2)
        assert out.frame.tolist() == [1, 2, 3, 4, 5]
        kept_rows = out.row.tolist()
        assert kept_rows == [0, 2, 4, 6, 8]

    def test_ratio_thirty_keeps_one_frame(self):
        out = subsample(self.seq(range(1, 31)), 30)
        assert out.frame.tolist() == [1]

    def test_composition(self):
        s = self.seq(range(1, 41))
        twice = subsample(subsample(s, 2), 2)
        direct = subsample(s, 4)
        for name in COLUMNS:
            assert np.array_equal(getattr(twice, name), getattr(direct, name)), name

    def test_subsample_tracks_matches_rule(self):
        b = Box(0, 0, 1, 1)
        ts = track_set(
            {1: tuple(Entry(f, b, 1.0) for f in range(1, 11))}
        )
        out = subsample_tracks(ts, 5)
        assert [e.frame for e in track_entries(out)[1]] == [1, 2]

    def test_subsample_tracks_drops_emptied_tracks(self):
        b = Box(0, 0, 1, 1)
        ts = track_set({1: (Entry(2, b, 1.0),)})
        assert track_entries(subsample_tracks(ts, 2)) == {}

    def test_subsample_tracks_at_ratio_one_is_the_input(self):
        ts = track_set({1: (Entry(2, Box(0, 0, 1, 1), 1.0),)})
        assert subsample_tracks(ts, 1) is ts

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            subsample(self.seq([1]), 0)

    @pytest.mark.parametrize("ratio", [2.5, 2.0, True, "2"])
    def test_rejects_a_ratio_that_is_not_an_integer(self, ratio):
        ts = track_set({1: tuple(Entry(f, Box(0, 0, 1, 1), 1.0) for f in range(1, 12))})
        for apply, table in ((subsample, self.seq(range(1, 12))), (subsample_tracks, ts)):
            with pytest.raises(ValueError, match="^ratio must be an integer, got "):
                apply(table, ratio)

    def test_accepts_an_int64_ratio(self):
        assert subsample(self.seq(range(1, 12)), np.int64(5)).frame.tolist() == [1, 2, 3]
