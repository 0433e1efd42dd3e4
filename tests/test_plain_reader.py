"""The C-reader path of the CSV parsers against the per-line reference.

`io_mot._plain_fields` hands a file whose bytes are all in `io_mot._PLAIN`
to numpy's C reader; any other file, and any file that reader refuses or
warns on, goes to `_line_fields` and the per-row walkers. Setting `_PLAIN`
to no bytes sends every file down the per-line path, which is the
reference: both paths must give the same columns, bit for bit, or the same
`ParseError` text.
"""

import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from fcgtrack import io_mot
from fcgtrack.core import FcgConfig, ParseError
from fcgtrack.io_mot import parse_detections, parse_ground_truth, write_features

CFG = FcgConfig(feature_dim=3, score_threshold=0.5)
UNIT = [1.0, 0.0, 0.0]
GOOD = "1,-1,1,1,5,5,0.9,-1,-1,-1"
MAX = 2**63 - 1

# The first five entries of INTS and FLOATS are ordinary field values.
INTS = ["1", "2", "3", "12", "+3", "007", "-0", "0", "-1", str(MAX), str(-MAX - 1),
        str(MAX + 1), str(-MAX - 2), "1.0", "1e3", "", "-", "+", " 4", "5\t"]
FLOATS = ["1", "5", "0.25", "0.9", "-0", "-0.0", "+.5", "5.", "1e1", "1E-1", "-1", "0",
          "1e999", "4.9e-324", "0.1", "1e", "-", ".", "", " 5", "5\t", "1 5", "+-1"]
# Whitespace around a row, or a whole line of it.
BLANKS = ["", " ", "\t", "\r", " \t "]


def random_file(rng) -> bytes:
    """A file of up to 8 lines over `_PLAIN`: mostly good rows, some odd."""
    def field(values, odd):
        return values[rng.integers(len(values) if rng.random() < odd else 5)]

    def blank(p):
        return BLANKS[rng.integers(len(BLANKS))] if rng.random() < p else ""

    lines = []
    for _ in range(rng.integers(0, 9)):
        if rng.random() < 0.04:
            lines.append(blank(1.0))
            continue
        fields = [field(INTS, 0.05), field(INTS, 0.05), *(field(FLOATS, 0.03) for _ in range(5))]
        fields += ["-1"] * int(rng.integers(0, 4))
        if rng.random() < 0.02:
            fields = fields[: rng.integers(5, 7)]
        lines.append(blank(0.1) + ",".join(fields) + blank(0.1))
    end = "\r\n" if rng.random() < 0.3 else "\n"
    return (end.join(lines) + end * int(rng.integers(0, 3))).encode()


def data_lines(data):
    return sum(1 for _ in io_mot._data_lines(data, "x"))


def outcome(parse, data):
    """Each parsed column as (dtype, shape, bytes), or the ParseError text."""
    try:
        cols = parse(data).columns
    except ParseError as exc:
        return str(exc)
    arrays = (getattr(cols, f.name) for f in fields(cols))
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def parse_det(data):
    features = write_features(np.array([UNIT] * data_lines(data)).reshape(-1, 3))
    return parse_detections(data, features, CFG, name="det.txt")


PARSERS = {
    "detections": (1, parse_det),
    "ground truth": (2, lambda data: parse_ground_truth(data, "gt.txt")),
    "results": (2, lambda data: parse_ground_truth(data, "res.txt", results=True)),
}


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_c_reader_matches_the_line_reference(kind, monkeypatch):
    ints, parse = PARSERS[kind]
    rng = np.random.default_rng(1610)
    plain = parsed = 0
    messages = set()
    for _ in range(1500):
        data = random_file(rng)
        assert not data.translate(None, io_mot._PLAIN)
        fast = io_mot._plain_fields(data, ints)
        if fast is not None:
            plain += 1
            lines = [line for _, line in io_mot._data_lines(data, "x")]
            reference = io_mot._line_fields(lines, ints)
            assert reference is not None, data
            for got, want in zip(fast, reference):
                assert (got.dtype, got.shape) == (want.dtype, want.shape), data
                assert got.tobytes() == want.tobytes(), data
        got = outcome(parse, data)
        with monkeypatch.context() as m:
            m.setattr(io_mot, "_PLAIN", b"")
            assert outcome(parse, data) == got, data
        if isinstance(got, str):
            messages.add(got.split(": ", 1)[1].split(" ")[0])
        else:
            parsed += 1
    # Both paths are taken, and files parse as well as fail in several ways.
    assert 400 < plain < 1100 and parsed > 250, (plain, parsed)
    assert {"invalid", "could", "expected"} <= messages


class TestPinned:
    """Inputs the C reader must not decide: the walker's message and line."""

    @staticmethod
    def det_raises(message, data, rows):
        features = write_features(np.array([UNIT] * rows))
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_detections(data, features, CFG, name="det.txt")

    def test_file_separator_byte_inside_a_field(self):
        # numpy's reader strips \x1c from the ends of a field as whitespace;
        # Python's float refuses it.
        data = f"{GOOD}\n2,-1,\x1c1,1,5,5,0.9\n".encode()
        assert io_mot._plain_fields(data, 1) is None
        self.det_raises("det.txt line 2: could not convert string to float: '\\x1c1'", data, 2)
        with pytest.raises(ParseError, match=r"^gt\.txt line 2: could not convert string "):
            parse_ground_truth(b"1,1,1,1,5,5,1\n2,1,\x1c1,1,5,5,1\n", "gt.txt")

    @pytest.mark.filterwarnings("error")
    def test_float_written_frame(self):
        # numpy before 2.0 reads "1.0" into an int64 column with a
        # DeprecationWarning, which the C-reader path takes as a refusal.
        data = f"{GOOD}\n1.0,-1,1,1,5,5,0.9\n".encode()
        assert io_mot._plain_fields(data, 1) is None
        self.det_raises("det.txt line 2: invalid literal for int() with base 10: '1.0'", data, 2)
        with pytest.raises(
            ParseError, match=re.escape("gt.txt line 2: invalid literal for int() with base 10: '1.0'")
        ):
            parse_ground_truth(b"1,1,1,1,5,5,1\n1.0,1,1,1,5,5,1\n", "gt.txt")

    @pytest.mark.parametrize("blank", [" ", "\t", " \r", "\t \t"])
    def test_whitespace_only_line_counts_toward_line_numbers(self, blank):
        data = f"{GOOD}\n{blank}\n0,-1,1,1,5,5,0.9\n".encode()
        self.det_raises("det.txt line 3: frame index 0 < 1", data, 2)
        with pytest.raises(ParseError, match=r"^gt\.txt line 3: track id 0 < 1$"):
            parse_ground_truth(f"1,1,1,1,5,5,1\n{blank}\n2,0,1,1,5,5,1\n".encode(), "gt.txt")

    def test_whitespace_only_line_is_not_a_row(self):
        data = f"{GOOD}\n \t\n2,-1,1,1,5,5,0.9\n".encode()
        seq = parse_detections(data, write_features(np.array([UNIT, UNIT])), CFG)
        assert seq.columns.frame.tolist() == [1, 2]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("data", [b"", b"\n", b"\r\n\n", b" \n\t\n"])
class TestEmptyInput:
    """No data lines: zero rows, with warnings as errors, and no warning
    shown when they are not (numpy's reader warns on input with no data)."""

    @staticmethod
    def twice(parse):
        first = parse()
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            second = parse()
        assert shown == []
        return first, second

    def test_detections(self, data):
        for seq in self.twice(lambda: parse_detections(data, write_features(np.zeros((0, 3))), CFG)):
            assert len(seq.columns) == 0

    @pytest.mark.parametrize("results", [False, True])
    def test_ground_truth_and_results(self, data, results):
        for tracks in self.twice(lambda: parse_ground_truth(data, results=results)):
            assert tracks.num_boxes == 0
