"""Parse errors of `parse_detections`: which line is reported, with what message.

Each bad-row kind is pinned to its exact `ParseError` text. When several
rows are bad the first bad line in the file is reported, whatever the kinds.
Rows whose score is below the threshold are dropped before the box-finiteness,
score and feature checks, but after the field, frame and box-size checks.
"""

import re

import numpy as np
import pytest

from fcgtrack.core import FcgConfig, ParseError
from fcgtrack.io_mot import parse_detections, write_features

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
        assert [d.source_row for d in seq.detections] == [0]

    @pytest.mark.parametrize(
        "box", ["nan,1,5,5", "1,inf,5,5", "1,1,nan,5", "1,1,5,nan", "-inf,1,5,inf"]
    )
    def test_non_finite_box_passes(self, box):
        seq = parse([GOOD, f"2,-1,{box},{DROPPED}"])
        assert [d.source_row for d in seq.detections] == [0]

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
        assert seq.columns.frame.tolist() == [2**63 - 1]
