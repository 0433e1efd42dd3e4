"""Parse errors of `parse_detections` and `parse_ground_truth`: which line is
reported, with what message.

Each bad-row kind is pinned to its exact `ParseError` text. When several
rows are bad the first bad line in the file is reported, whatever the kinds.
Detection rows whose score is below the threshold are dropped before the
box-finiteness, score and feature checks, but after the field, frame and
box-size checks. Ground-truth rows with a zero flag are dropped after the
field checks and before every other check.
"""

import re

import numpy as np
import pytest

from fcgtrack.core import FcgConfig, ParseError
from fcgtrack.cli import main
from fcgtrack.io_mot import (
    _parse_ground_truth_rows,
    parse_detections,
    parse_ground_truth,
    write_features,
)
from oracles import track_entries

CFG = FcgConfig(feature_dim=3, score_threshold=0.7)
GOOD = "1,-1,1,1,5,5,0.9,-1,-1,-1"
DROPPED = 0.5  # a score below CFG.score_threshold
UNIT = [1.0, 0.0, 0.0]


def parse(lines, features=None):
    features = [UNIT] * len(lines) if features is None else features
    data = ("\n".join(lines) + "\n").encode()
    return parse_detections(data, write_features(np.array(features, dtype=float)), CFG,
                            name="det.txt")


def raises_exactly(message, lines, features=None):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse(lines, features)


class TestEachKind:
    @pytest.mark.parametrize(
        "row, message",
        [
            ("2,-1,1,1", "expected at least 7 fields, got 4"),
            ("1.5,-1,1,1,5,5,0.9", "invalid literal for int() with base 10: '1.5'"),
            ("x,-1,1,1,5,5,0.9", "invalid literal for int() with base 10: 'x'"),
            ("2,-1,1,abc,5,5,0.9", "could not convert string to float: 'abc'"),
            ("2,-1,1,1,5,5,high", "could not convert string to float: 'high'"),
            ("0,-1,1,1,5,5,0.9", "frame index 0 < 1"),
            ("-4,-1,1,1,5,5,0.9", "frame index -4 < 1"),
            ("2,-1,1,1,0,5,0.9", "nonpositive box size 0.0x5.0"),
            ("2,-1,1,1,5,-1,0.9", "nonpositive box size 5.0x-1.0"),
            ("2,-1,nan,1,5,5,0.9", "box must be finite, got x=nan, y=1.0, w=5.0, h=5.0"),
            ("2,-1,1,inf,5,5,0.9", "box must be finite, got x=1.0, y=inf, w=5.0, h=5.0"),
            ("2,-1,1,1,nan,5,0.9", "box must be finite, got x=1.0, y=1.0, w=nan, h=5.0"),
            ("2,-1,1,1,5,inf,0.9", "box must be finite, got x=1.0, y=1.0, w=5.0, h=inf"),
            ("2,-1,1,1,5,5,1.5", "score must be in [0, 1], got 1.5"),
            ("2,-1,1,1,5,5,nan", "score must be in [0, 1], got nan"),
        ],
    )
    def test_row_message(self, row, message):
        raises_exactly(f"det.txt line 2: {message}", [GOOD, row])

    @pytest.mark.parametrize(
        "feature, message",
        [
            ([1.0, np.inf, 0.0], "non-finite feature vector or norm (source row 1)"),
            ([np.nan, 0.0, 0.0], "non-finite feature vector or norm (source row 1)"),
            ([0.0, 0.0, 0.0], "zero-norm feature vector (source row 1)"),
        ],
    )
    def test_feature_message(self, feature, message):
        raises_exactly(f"det.txt line 2: {message}", [GOOD, GOOD], [UNIT, feature])

    # Squares of 1e20 overflow float32 and squares of 1e-30 underflow it to 0; in float64
    # both norms are finite and positive, so the rows are kept.
    @pytest.mark.parametrize("scale", [1e20, -1e20, 1e-30, -1e-30])
    @pytest.mark.parametrize("suffix", ["", "\x0b"], ids=["plain", "row-walk"])
    def test_feature_norm_outside_float32_range(self, scale, suffix):
        feature = [scale, scale / 2, 0.0]
        seq = parse([GOOD + suffix, GOOD + suffix], [UNIT, feature])
        assert seq.row.tolist() == [0, 1]
        assert seq.feature[1].tolist() == np.float32(feature).tolist()

    def test_blank_lines_count_toward_line_numbers(self):
        with pytest.raises(ParseError, match=r"^det\.txt line 4: frame index 0 < 1$"):
            parse_detections(
                f"\n{GOOD}\n\n0,-1,1,1,5,5,0.9\n".encode(),
                write_features(np.array([UNIT, UNIT])),
                CFG,
                name="det.txt",
            )


class TestFirstBadLineWins:
    @pytest.mark.parametrize(
        "first, second",
        [
            ("2,-1,1,1,0,5,0.9", "3,-1,abc,1,5,5,0.9"),
            ("2,-1,abc,1,5,5,0.9", "3,-1,1,1,0,5,0.9"),
            ("2,-1,nan,1,5,5,0.9", "3,-1"),
            ("2,-1,1,1,5,5,1.5", "0,-1,1,1,5,5,0.9"),
            ("0,-1,1,1,5,5,0.9", "3,-1,1,1,5,5,1.5"),
            ("2,-1", "3,-1,nan,1,5,5,0.9"),
        ],
    )
    def test_earlier_line_reported(self, first, second):
        with pytest.raises(ParseError, match=r"^det\.txt line 2: "):
            parse([GOOD, first, GOOD, second])

    def test_bad_feature_before_malformed_row(self):
        with pytest.raises(ParseError, match=r"^det\.txt line 2: zero-norm"):
            parse([GOOD, GOOD, "3,-1"], [UNIT, [0.0, 0.0, 0.0], UNIT])

    def test_malformed_row_before_bad_feature(self):
        with pytest.raises(ParseError, match=r"^det\.txt line 2: expected at least 7"):
            parse([GOOD, "3,-1", GOOD], [UNIT, UNIT, [0.0, 0.0, 0.0]])

    def test_dropped_bad_row_is_skipped_for_a_later_one(self):
        raises_exactly(
            "det.txt line 3: frame index 0 < 1",
            [GOOD, f"2,-1,nan,1,5,5,{DROPPED}", "0,-1,1,1,5,5,0.9"],
            [UNIT, [0.0, 0.0, 0.0], UNIT],
        )


class TestDroppedRows:
    @pytest.mark.parametrize(
        "feature", [[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0], [np.nan, 1.0, 0.0]]
    )
    def test_bad_feature_passes(self, feature):
        seq = parse([GOOD, f"2,-1,1,1,5,5,{DROPPED}"], [UNIT, feature])
        assert seq.row.tolist() == [0]

    @pytest.mark.parametrize(
        "box", ["nan,1,5,5", "1,inf,5,5", "1,1,nan,5", "1,1,5,nan", "-inf,1,5,inf"]
    )
    def test_non_finite_box_passes(self, box):
        seq = parse([GOOD, f"2,-1,{box},{DROPPED}"])
        assert seq.row.tolist() == [0]

    @pytest.mark.parametrize(
        "row, message",
        [
            (f"2,-1,1,1,0,5,{DROPPED}", "nonpositive box size 0.0x5.0"),
            (f"2,-1,1,1,5,-inf,{DROPPED}", "nonpositive box size 5.0x-inf"),
            (f"2,-1,abc,1,5,5,{DROPPED}", "could not convert string to float: 'abc'"),
            (f"2.0,-1,1,1,5,5,{DROPPED}", "invalid literal for int() with base 10: '2.0'"),
            (f"0,-1,1,1,5,5,{DROPPED}", "frame index 0 < 1"),
            ("2,-1,1,1,5,5", "expected at least 7 fields, got 6"),
        ],
    )
    def test_malformed_or_nonpositive_still_raises(self, row, message):
        raises_exactly(f"det.txt line 2: {message}", [GOOD, row])


class TestFrameRange:
    def test_frame_beyond_int64_is_a_parse_error(self):
        # Frames are held as int64; a larger index names its line instead of
        # overflowing later in the pipeline.
        big = 2**63
        raises_exactly(
            f"det.txt line 2: frame index {big} > {big - 1}",
            [GOOD, f"{big},-1,1,1,5,5,{DROPPED}"],
        )

    def test_largest_int64_frame_parses(self):
        seq = parse([f"{2**63 - 1},-1,1,1,5,5,0.9"])
        assert seq.frame.tolist() == [2**63 - 1]


GT_GOOD = "1,1,1,1,5,5,1,1,1"
MAX = 2**63 - 1


def parse_gt(lines):
    return parse_ground_truth(("\n".join(lines) + "\n").encode(), name="gt.txt")


def gt_raises_exactly(message, lines):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_gt(lines)


def gt_rows(ts):
    return [(e.frame, tid) for tid, entries in track_entries(ts).items() for e in entries]


class TestGroundTruthEachKind:
    @pytest.mark.parametrize(
        "row, message",
        [
            ("2,1,1,1", "expected at least 7 fields, got 4"),
            ("2,1,1,1,5,5", "expected at least 7 fields, got 6"),
            ("1.5,1,1,1,5,5,1", "invalid literal for int() with base 10: '1.5'"),
            ("x,1,1,1,5,5,1", "invalid literal for int() with base 10: 'x'"),
            ("2,2.0,1,1,5,5,1", "invalid literal for int() with base 10: '2.0'"),
            ("2,id,1,1,5,5,1", "invalid literal for int() with base 10: 'id'"),
            ("2,1,abc,1,5,5,1", "could not convert string to float: 'abc'"),
            ("2,1,1,1,5,h,1", "could not convert string to float: 'h'"),
            ("2,1,1,1,5,5,yes", "could not convert string to float: 'yes'"),
            ("0,1,1,1,5,5,1", "frame index 0 < 1"),
            ("-4,1,1,1,5,5,1", "frame index -4 < 1"),
            ("0,0,1,1,5,5,1", "frame index 0 < 1"),
            ("2,0,1,1,5,5,1", "track id 0 < 1"),
            ("2,-3,1,1,5,5,1", "track id -3 < 1"),
            ("1,1,2,2,6,6,1", "duplicate (frame, id) (1, 1)"),
            ("1,1,nan,1,0,5,1", "duplicate (frame, id) (1, 1)"),
            ("2,1,nan,1,5,5,1", "box must be finite, got x=nan, y=1.0, w=5.0, h=5.0"),
            ("2,1,1,-inf,5,5,1", "box must be finite, got x=1.0, y=-inf, w=5.0, h=5.0"),
            ("2,1,1,1,inf,5,1", "box must be finite, got x=1.0, y=1.0, w=inf, h=5.0"),
            ("2,1,1,1,5,nan,1", "box must be finite, got x=1.0, y=1.0, w=5.0, h=nan"),
            ("2,1,1,1,nan,0,1", "box must be finite, got x=1.0, y=1.0, w=nan, h=0.0"),
            ("2,1,1,1,0,5,1", "box size must be positive, got w=0.0, h=5.0"),
            ("2,1,1,1,5,-1,1", "box size must be positive, got w=5.0, h=-1.0"),
        ],
    )
    def test_row_message(self, row, message):
        gt_raises_exactly(f"gt.txt line 2: {message}", [GT_GOOD, row])

    def test_duplicate_names_the_second_line(self):
        gt_raises_exactly(
            "gt.txt line 4: duplicate (frame, id) (3, 7)",
            ["3,7,1,1,5,5,1", GT_GOOD, "4,7,1,1,5,5,1", "3,7,9,9,5,5,1"],
        )

    def test_blank_lines_count_toward_line_numbers(self):
        with pytest.raises(ParseError, match=r"^gt\.txt line 4: track id 0 < 1$"):
            parse_ground_truth(f"\n{GT_GOOD}\n\n2,0,1,1,5,5,1\n".encode(), name="gt.txt")


class TestGroundTruthFlagZero:
    @pytest.mark.parametrize(
        "row",
        [
            "0,1,1,1,5,5,0",
            "2,0,1,1,5,5,0",
            "2,-3,1,1,5,5,0.0",
            "1,1,1,1,5,5,0",  # would repeat (1, 1)
            "2,1,nan,1,5,5,0",
            "2,1,1,1,0,-5,-0.0",
            f"{MAX + 1},1,1,1,5,5,0",
            f"2,{10**20},1,1,5,5,0",
        ],
    )
    def test_skips_every_later_check(self, row):
        assert gt_rows(parse_gt([GT_GOOD, row])) == [(1, 1)]

    def test_dropped_row_does_not_claim_its_frame_and_id(self):
        ts = parse_gt(["1,1,1,1,5,5,0", GT_GOOD])
        assert gt_rows(ts) == [(1, 1)]
        assert track_entries(ts)[1][0].bbox.w == 5.0

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2,1,1,1,5,0", "expected at least 7 fields, got 6"),
            ("2.5,1,1,1,5,5,0", "invalid literal for int() with base 10: '2.5'"),
            ("2,1,abc,1,5,5,0", "could not convert string to float: 'abc'"),
        ],
    )
    def test_still_needs_well_formed_fields(self, row, message):
        gt_raises_exactly(f"gt.txt line 2: {message}", [GT_GOOD, row])

    def test_nan_flag_is_not_zero(self):
        gt_raises_exactly("gt.txt line 2: frame index 0 < 1", [GT_GOOD, "0,1,1,1,5,5,nan"])


class TestResultsScoreColumn:
    """A results file's seventh column is a score in [0, 1]: no row is dropped by it."""

    @staticmethod
    def parse(lines):
        data = ("\n".join(lines) + "\n").encode()
        return parse_ground_truth(data, name="res.txt", results=True)

    @pytest.mark.parametrize("score", ["0", "0.0000", "-0.0", "0.5"])
    def test_keeps_every_score(self, score):
        ts = self.parse([GT_GOOD, f"2,1,1,1,5,5,{score},-1,-1,-1"])
        assert gt_rows(ts) == [(1, 1), (2, 1)]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,1,1,1,5,5,0", "frame index 0 < 1"),
            ("2,0,1,1,5,5,0", "track id 0 < 1"),
            ("1,1,1,1,5,5,0", "duplicate (frame, id) (1, 1)"),
            ("2,1,1,1,0,5,0", "box size must be positive, got w=0.0, h=5.0"),
            (f"{MAX + 1},1,1,1,5,5,0", f"frame index {MAX + 1} > {MAX}"),
            ("2,1,abc,1,5,5,0", "could not convert string to float: 'abc'"),
        ],
    )
    def test_zero_score_row_is_checked(self, row, message):
        with pytest.raises(ParseError, match=f"^{re.escape(f'res.txt line 2: {message}')}$"):
            self.parse([GT_GOOD, row])

    @pytest.mark.parametrize("score", ["1.5", "-0.2", "nan", "inf", "1.0001", "-1e-300"])
    def test_rejects_score_outside_unit_interval(self, score):
        # Plain files take the array checks, the rest (nan, inf) the row walk
        # at once; both name the line.
        message = f"res.txt line 2: score {float(score)} outside [0, 1]"
        lines = [GT_GOOD, f"2,1,1,1,5,5,{score},-1,-1,-1", "3,1,1,1,5,5,7"]
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            self.parse(lines)
        data = ("\n".join(lines) + "\n").encode()
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            _parse_ground_truth_rows(data, "res.txt", results=True)
        # Ground truth reads the same column as a flag, with no range.
        assert gt_rows(parse_gt(lines)) == [(1, 1), (2, 1), (3, 1)]

    def test_eval_rejects_score_outside_unit_interval(self, tmp_path, capsys):
        (tmp_path / "gt.txt").write_text(f"{GT_GOOD}\n")
        (tmp_path / "res.txt").write_text("1,1,1,1,5,5,1.5,-1,-1,-1\n")
        argv = ["eval", "--gt", str(tmp_path / "gt.txt"), "--pred", str(tmp_path / "res.txt")]
        assert main(argv) == 2
        assert "res.txt line 1: score 1.5 outside [0, 1]" in capsys.readouterr().err

    def test_array_checks_match_the_row_walk(self):
        data = f"{GT_GOOD}\n2,1,1,1,5,5,0\n3,1,1,1,5,5,0.25\n".encode()
        fast = parse_ground_truth(data, "res.txt", results=True)
        assert fast == _parse_ground_truth_rows(data, "res.txt", results=True)
        assert gt_rows(fast) == [(1, 1), (2, 1), (3, 1)]


class TestGroundTruthFirstBadLineWins:
    @pytest.mark.parametrize(
        "first, second",
        [
            ("2,1,1,1,0,5,1", "3,1,abc,1,5,5,1"),
            ("2,1,abc,1,5,5,1", "0,1,1,1,5,5,1"),
            ("2,1,nan,1,5,5,1", "3,1"),
            ("2,0,1,1,5,5,1", "1,1,1,1,5,5,1"),
            ("1,1,1,1,5,5,1", "3,0,1,1,5,5,1"),
            ("2,1", "3,1,nan,1,5,5,1"),
            ("0,1,1,1,5,5,1", "3,x,1,1,5,5,1"),
        ],
    )
    def test_earlier_line_reported(self, first, second):
        with pytest.raises(ParseError, match=r"^gt\.txt line 2: "):
            parse_gt([GT_GOOD, first, GT_GOOD.replace("1,1,", "5,1,", 1), second])


def parsed_or_error(parse, data):
    try:
        return parse(data, "gt.txt")
    except ParseError as exc:
        return str(exc)


def test_ground_truth_array_checks_match_the_row_walk():
    # Random files of good rows and every bad-row kind. Fields that do not
    # convert or do not fit int64 are rare, so most files reach the array
    # checks; the per-row walk is the reference for what they accept.
    rng = np.random.default_rng(2016)
    pick = lambda values, p: str(rng.choice(values, p=p))  # noqa: E731
    outcomes = set()
    for _ in range(3000):
        lines = []
        for _ in range(rng.integers(0, 7)):
            fields = [
                pick(["1", "2", "3", "0", "-1"], [0.3, 0.3, 0.3, 0.05, 0.05]),
                pick(["1", "2", "7", "0", "-2"], [0.3, 0.3, 0.3, 0.05, 0.05]),
                *(pick(["1", "5", "-1", "nan", "inf"], [0.4, 0.4, 0.1, 0.05, 0.05])
                  for _ in range(2)),
                *(pick(["1", "5", "0", "-1", "nan", "inf"], [0.4, 0.4, 0.05, 0.05, 0.05, 0.05])
                  for _ in range(2)),
                pick(["1", "0", "-0.0", "nan"], [0.8, 0.1, 0.05, 0.05]),
                "1", "1",
            ]
            kind = rng.integers(0, 60)
            if kind == 0:
                fields = fields[:6]
            elif kind == 1:
                fields[rng.integers(0, 7)] = "1.5x"
            elif kind == 2:
                fields[rng.integers(0, 2)] = str(MAX + 1)
            lines.append(",".join(fields))
        data = ("\n".join(lines) + "\n").encode()
        got = parsed_or_error(parse_ground_truth, data)
        assert got == parsed_or_error(_parse_ground_truth_rows, data), lines
        outcomes.add(got.split(": ", 1)[1].split(" ")[0] if isinstance(got, str) else "ok")
    # Every outcome occurs: a parse, and each kind of message.
    assert outcomes == {"ok", "expected", "invalid", "could", "frame", "track", "duplicate", "box"}


class TestGroundTruthRange:
    def test_frame_beyond_int64_is_a_parse_error(self):
        gt_raises_exactly(
            f"gt.txt line 2: frame index {10**20} > {MAX}",
            [GT_GOOD, f"{10**20},1,0,0,10,10,1,1,1"],
        )

    def test_id_beyond_int64_is_a_parse_error(self):
        gt_raises_exactly(
            f"gt.txt line 2: track id {MAX + 1} > {MAX}",
            [GT_GOOD, f"1,{MAX + 1},0,0,10,10,1,1,1"],
        )

    def test_largest_int64_frame_and_id_parse(self):
        assert gt_rows(parse_gt([f"{MAX},{MAX},0,0,10,10,1,1,1"])) == [(MAX, MAX)]

    @pytest.mark.parametrize("row", [f"{10**20},1,0,0,10,10,1,1,1", f"1,{10**20},0,0,10,10,1"])
    @pytest.mark.parametrize("side", ["--gt", "--pred"])
    def test_eval_exits_with_data_error(self, tmp_path, capsys, row, side):
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text(GT_GOOD + "\n")
        bad.write_text(f"{GT_GOOD}\n{row}\n")
        files = {"--gt": good, "--pred": good, side: bad}
        argv = ["eval", "--gt", str(files["--gt"]), "--pred", str(files["--pred"])]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: bad.txt line 2: ")


class TestNotUtf8:
    """A byte that is not UTF-8 names the file and the line that holds it."""

    # The bad byte sits on line 3 (line 2 is blank).
    DET = b"1,-1,1,1,5,5,0.9,-1,-1,-1\n\n2,-1,1,\xff1,5,5,0.9,-1,-1,-1\n"
    GT = b"1,1,1,1,5,5,1,1,1\n\n2,1,1,\xff1,5,5,1,1,1\n"
    # A lead byte cut short by the end of its line.
    CUT = b"1,1,1,1,5,5,1,1,1\n2,1,1,1,5,5,1\xc3\n"

    def test_detections(self):
        feats = write_features(np.array([UNIT, UNIT]))
        with pytest.raises(ParseError, match=r"^det\.txt line 3: not UTF-8 text$"):
            parse_detections(self.DET, feats, CFG, name="det.txt")

    @pytest.mark.parametrize("results", [False, True])
    def test_ground_truth_and_results(self, results):
        with pytest.raises(ParseError, match=r"^gt\.txt line 3: not UTF-8 text$"):
            parse_ground_truth(self.GT, name="gt.txt", results=results)
        with pytest.raises(ParseError, match=r"^gt\.txt line 2: not UTF-8 text$"):
            parse_ground_truth(self.CUT, name="gt.txt", results=results)

    def test_row_walk(self):
        with pytest.raises(ParseError, match=r"^gt\.txt line 3: not UTF-8 text$"):
            _parse_ground_truth_rows(self.GT, "gt.txt")

    def test_commands(self, tmp_path, capsys):
        det, feats = tmp_path / "det.txt", tmp_path / "feats.fcgf"
        det.write_bytes(self.DET)
        feats.write_bytes(write_features(np.array([UNIT, UNIT])))
        out = tmp_path / "res.txt"
        assert main(["track", "--det", str(det), "--features", str(feats), "--out", str(out),
                     "--feature-dim", "3"]) == 2
        assert capsys.readouterr().err == "error: det.txt line 3: not UTF-8 text\n"
        assert not out.exists()

        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_bytes(b"1,1,1,1,5,5,1,1,1\n")
        bad.write_bytes(self.GT)
        assert main(["eval", "--gt", str(bad), "--pred", str(good)]) == 2
        assert capsys.readouterr().err == "error: bad.txt line 3: not UTF-8 text\n"
        assert main(["eval", "--gt", str(good), "--pred", str(bad)]) == 2
        assert capsys.readouterr().err == "error: bad.txt line 3: not UTF-8 text\n"
