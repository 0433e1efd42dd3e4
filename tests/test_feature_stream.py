"""`parse_detections` reads the feature sidecar as a stream and keeps only the
rows `ratio` tracks: the same columns as `subsample` of a full parse, the same
errors, and memory that follows the kept rows, not the sidecar."""

import io
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcgtrack import io_mot
from fcgtrack.cli import main
from fcgtrack.core import DetectionColumns, FcgConfig, ParseError
from fcgtrack.io_mot import parse_detections, subsample, write_detections, write_features

COLUMNS = ("frame", "box", "score", "row", "feature")
UNIT = [1.0, 0.0, 0.0]
CFG = FcgConfig(feature_dim=3, score_threshold=0.7)


def same_columns(a, b):
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def detfile(*lines):
    return ("\n".join(lines) + "\n").encode()


class Pipe(io.RawIOBase):
    """A raw stream that cannot seek and gives at most `most` bytes a read."""

    def __init__(self, data, most=5):
        self.data, self.at, self.most = data, 0, most

    def readable(self):
        return True

    def readinto(self, b):
        got = self.data[self.at : self.at + min(len(b), self.most)]
        b[: len(got)] = got
        self.at += len(got)
        return len(got)


class Truncated(io.BytesIO):
    """A seekable stream whose reads end after `cut` bytes, though seeking
    still measures the whole length: a file cut short while it is read."""

    def __init__(self, data, cut):
        super().__init__(data)
        self.cut = cut

    def readinto(self, b):
        room = max(0, self.cut - self.tell())
        return super().readinto(memoryview(b).cast("B")[:room])


def scene(frames, dim, seed=0):
    """CSV and sidecar bytes of one detection per entry of `frames`, in that
    order, with random boxes, scores in [0, 1] and features."""
    rng = np.random.default_rng(seed)
    n = len(frames)
    box = np.column_stack([rng.uniform(0, 500, (n, 2)), rng.uniform(1, 80, (n, 2))])
    feature = rng.normal(size=(n, dim)).astype(np.float32)
    cols = DetectionColumns(
        np.asarray(frames, dtype=np.int64), box, rng.uniform(0, 1, n), np.arange(n), feature
    )
    return write_detections(cols), write_features(feature)


class TestMemory:
    """On a scene whose sidecar is about 16 MB, the traced peak of a `ratio` 5
    read stays far below it: the sidecar is never held whole."""

    DIM = 512
    FRAMES = np.repeat(np.arange(1, 801), 10)  # 8,000 rows, 1,600 of them in kept frames

    @pytest.fixture
    def files(self, tmp_path):
        det, blob = scene(self.FRAMES, self.DIM, seed=3)
        (tmp_path / "det.txt").write_bytes(det)
        (tmp_path / "feats.fcgf").write_bytes(blob)
        return tmp_path, len(blob)

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_parse_with_ratio(self, files):
        path, size = files
        cfg = FcgConfig(feature_dim=self.DIM, score_threshold=0.0)
        det = (path / "det.txt").read_bytes()
        with open(path / "feats.fcgf", "rb") as stream:
            seq, peak = self.traced_peak(lambda: parse_detections(det, stream, cfg, ratio=5))
        assert peak < size / 2
        full = parse_detections(det, (path / "feats.fcgf").read_bytes(), cfg)
        same_columns(seq, subsample(full, 5))

    def test_subsample_command(self, files):
        path, size = files
        argv = ["subsample", "--det", str(path / "det.txt"), "--features",
                str(path / "feats.fcgf"), "--ratio", "5", "--out-dir", str(path / "r5"),
                "--feature-dim", str(self.DIM), "--score-threshold", "0"]
        code, peak = self.traced_peak(lambda: main(argv))
        assert code == 0
        assert peak < size / 2
        assert (path / "r5" / "feats.fcgf").stat().st_size == 16 + 1600 * self.DIM * 4


@st.composite
def scenes(draw):
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(0, 24))
    frames = draw(st.lists(st.integers(1, 15), min_size=n, max_size=n))
    scores = draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]), min_size=n, max_size=n))
    # Mostly unit vectors; now and then a zero, NaN or inf component, which a kept row refuses.
    component = st.sampled_from([1.0, 1.0, 1.0, -2.0, 0.5, 0.0, 0.0, np.nan, np.inf])
    features = draw(st.lists(st.lists(component, min_size=dim, max_size=dim),
                             min_size=n, max_size=n))
    widths = draw(st.lists(st.sampled_from(["4", "4", "4", "0", "nan"]), min_size=n, max_size=n))
    lines = [f"{f},-1,1,2,{w},5,{s}" for f, w, s in zip(frames, widths, scores)]
    return dim, detfile(*lines), write_features(np.array(features).reshape(n, dim))


def outcome(call):
    try:
        return call()
    except ParseError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(
    scenes(),
    st.integers(1, 7),
    st.sampled_from([0.0, 0.4, 0.7, 1.0]),
    st.sampled_from([1, 3, 7]),
    st.sampled_from(["bytes", "stream", "pipe"]),
    st.booleans(),
)
def test_equals_subsample_of_a_full_parse(scene, ratio, threshold, chunk_rows, kind, walked):
    """Same columns, or the same error, as `subsample` of a full parse, for any
    ratio, threshold, frame order, chunk size and kind of stream; `walked`
    makes the CSV one the C reader does not take."""
    dim, det, blob = scene
    if walked:
        det = det.replace(b"\n", b"\x0b\n")
    cfg = FcgConfig(feature_dim=dim, score_threshold=threshold)
    want = outcome(lambda: subsample(parse_detections(det, blob, cfg), ratio))
    source = {"bytes": blob, "stream": io.BytesIO(blob), "pipe": Pipe(blob)}[kind]
    with mock.patch.object(io_mot, "_CHUNK_BYTES", 4 * dim * chunk_rows):
        got = outcome(lambda: parse_detections(det, source, cfg, ratio=ratio))
    if isinstance(want, str):
        assert got == want
    else:
        same_columns(got, want)


class TestDroppedFrames:
    """A row in a frame that `ratio` drops is checked as any other: frame 2
    is dropped at ratio 2, and its errors are those of a full parse."""

    @pytest.mark.parametrize("walked", [False, True])
    @pytest.mark.parametrize(
        "row, feature, message",
        [
            ("2,-1,1,1,5,5,0.9", [np.nan, 0, 0],
             "non-finite feature vector or norm (source row 1)"),
            ("2,-1,1,1,5,5,0.9", [0, 0, 0], "zero-norm feature vector (source row 1)"),
            ("2,-1,nan,1,5,5,0.9", UNIT, "box must be finite, got x=nan, y=1.0, w=5.0, h=5.0"),
            ("2,-1,1,1,0,5,0.5", UNIT, "nonpositive box size 0.0x5.0"),
            ("2,-1,1,1,5,5,1.5", UNIT, "score must be in [0, 1], got 1.5"),
        ],
    )
    def test_error_as_in_a_full_parse(self, row, feature, message, walked):
        det = detfile("1,-1,1,1,5,5,0.9", row, "3,-1,1,1,5,5,0.9")
        if walked:
            det = det.replace(b"\n", b"\x0b\n")
        blob = write_features(np.array([UNIT, feature, UNIT], dtype=float))
        text = f"^{re.escape(f'det.txt line 2: {message}')}$"
        with pytest.raises(ParseError, match=text):
            parse_detections(det, blob, CFG, name="det.txt")
        with pytest.raises(ParseError, match=text):
            parse_detections(det, io.BytesIO(blob), CFG, name="det.txt", ratio=2)


class TestStreams:
    DET = detfile("2,-1,1,1,5,5,0.9", "1,-1,2,2,5,5,0.9", "3,-1,3,3,5,5,0.9")
    BLOB = write_features(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]))

    def test_a_stream_that_cannot_seek_is_read_whole(self):
        pipe = Pipe(self.BLOB, most=3)
        assert not pipe.seekable()
        same_columns(parse_detections(self.DET, pipe, CFG, ratio=2),
                     parse_detections(self.DET, self.BLOB, CFG, ratio=2))

    def test_the_length_is_measured_from_the_stream_position(self):
        stream = io.BytesIO(b"junk" + self.BLOB)
        stream.seek(4)
        same_columns(parse_detections(self.DET, stream, CFG),
                     parse_detections(self.DET, self.BLOB, CFG))

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    @pytest.mark.parametrize("cut", [0, 10, 16, 20, 28, 40, 51])
    def test_a_short_read_raises(self, cut, chunk_rows):
        # The sidecar is 52 bytes: a header of 16 and three rows of 12.
        with mock.patch.object(io_mot, "_CHUNK_BYTES", 12 * chunk_rows):
            with pytest.raises(ParseError, match="^feature blob ended early: a read gave"):
                parse_detections(self.DET, Truncated(self.BLOB, cut), CFG)

    def test_a_header_shorter_than_its_size_is_refused_first(self):
        with pytest.raises(ParseError, match="^feature blob shorter than its header$"):
            parse_detections(self.DET, io.BytesIO(self.BLOB[:10]), CFG)

    def test_the_largest_dimension_with_no_rows_allocates_nothing(self):
        blob = write_features(np.zeros((0, 2**32 - 1)))
        seq = parse_detections(b"", io.BytesIO(blob), FcgConfig(feature_dim=2**32 - 1))
        assert seq.feature.shape == (0, 2**32 - 1)
