"""Reading and writing MOTChallenge-style files, plus fps subsampling.

Detections travel as a CSV file ("frame,id,x,y,w,h,conf,...") with a binary
feature sidecar; feature row i belongs to CSV data line i. Results are written
as "frame,id,x,y,w,h,score,-1,-1,-1" rows with fixed decimal precision.
"""

from __future__ import annotations

import io
import struct
import warnings
from dataclasses import dataclass, replace
from typing import NoReturn

import numpy as np

from .core import (
    BBox,
    Detection,
    DetectionColumns,
    DetectionView,
    FcgConfig,
    MAX_INT,
    FcgError,
    ParseError,
    TrackColumns,
    TrackSet,
)

FEATURE_MAGIC = b"FCGF"
FEATURE_VERSION = 1
_HEADER = struct.Struct("<4sIII")
# Rows and dimension are u32 fields of the header.
FEATURE_HEADER_MAX = 2**32 - 1

# CSV lines converted per block by `_line_fields`.
_BLOCK_LINES = 4096
# The bytes of files that `_plain_fields` hands to numpy's C reader: digits,
# signs, decimal point, exponent, comma, and the whitespace of line ends.
_PLAIN = b"0123456789+-.eE, \t\r\n"


@dataclass(frozen=True, init=False, eq=False)
class SequenceInput:
    """Score-filtered detections of one sequence, held as columns.

    `parse_detections` sorts them by (frame, source row). The constructor
    also takes `Detection` objects (`SequenceInput(detections=...)`, kept in
    the given order), and `detections` reads them back, built on access.
    """

    columns: DetectionColumns

    def __init__(self, detections=(), *, columns: DetectionColumns | None = None):
        if columns is None:
            columns = DetectionColumns.from_detections(detections)
        object.__setattr__(self, "columns", columns)

    @property
    def detections(self) -> DetectionView:
        return DetectionView(self.columns)


def write_features(features: np.ndarray) -> bytes:
    """Serialize an (R, D) feature matrix to the binary sidecar format."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"expected a 2-d feature matrix, got shape {features.shape}")
    rows, dim = features.shape
    for field, value in (("rows", rows), ("dimension", dim)):
        if value > FEATURE_HEADER_MAX:
            raise ValueError(f"feature {field} must be <= {FEATURE_HEADER_MAX}, got {value}")
    header = _HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, rows, dim)
    return header + features.astype("<f4").tobytes()


def read_features(blob: bytes) -> np.ndarray:
    """Parse the binary feature sidecar into an (R, D) float32 matrix.

    The matrix is a read-only view of `blob`, the values exactly as stored;
    compute with them in float64.
    """
    if len(blob) < _HEADER.size:
        raise ParseError("feature blob shorter than its header")
    magic, version, rows, dim = _HEADER.unpack_from(blob, 0)
    if magic != FEATURE_MAGIC:
        raise ParseError(f"bad feature blob magic {magic!r}")
    if version != FEATURE_VERSION:
        raise ParseError(f"unsupported feature blob version {version}")
    if dim < 1:
        raise ParseError(f"feature blob declares dimension {dim}")
    expected = _HEADER.size + 4 * rows * dim
    if len(blob) != expected:
        raise ParseError(
            f"feature blob length {len(blob)} does not match header "
            f"({rows} rows x {dim} dims needs {expected})"
        )
    data = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size)
    return data.reshape(rows, dim)


def _data_lines(data: bytes, name: str):
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{name} line {lineno}: not UTF-8 text") from exc
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def _plain_fields(data: bytes, ints: int):
    """`_line_fields` of the data lines of `data` in one call to numpy's C
    reader, or None where that reader might judge a line differently.

    Taken only when every byte is in `_PLAIN`: within that alphabet the C
    reader accepts no value that Python's `int` or `float` refuses and
    converts the rest to the same bits, while it refuses whitespace-only
    lines, a line end inside a line and a float-written integer (which older
    numpy accepts with a DeprecationWarning). It skips empty lines, as
    `_data_lines` does, so its rows are the data lines. Any error or warning
    gives None; so does an empty file, on which it warns.
    """
    if data.translate(None, _PLAIN):
        return None
    dtype = [(f"i{k}", "<i8") for k in range(ints)] + [(f"v{k}", "<f8") for k in range(5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(
                io.BytesIO(data),
                dtype=dtype,
                delimiter=",",
                comments=None,
                usecols=[*range(ints), 2, 3, 4, 5, 6],
                ndmin=1,
            )
        except (ValueError, Warning):
            return None
    names = table.dtype.names
    return np.stack([table[n] for n in names[:ints]]), np.stack([table[n] for n in names[ints:]])


def _line_fields(lines: list[str], ints: int):
    """An (ints, N) int64 array of the first `ints` columns, and a (5, N)
    float64 array of x, y, w, h and the seventh column (confidence or flag).

    None when a line has fewer than 7 fields, or a field does not convert or
    does not fit int64. Lines are split in blocks, so only one block of field
    strings is alive at a time. The reference for `_plain_fields`.
    """
    whole = np.empty((ints, len(lines)), dtype=np.int64)
    values = np.empty((5, len(lines)), dtype=np.float64)
    for start in range(0, len(lines), _BLOCK_LINES):
        fields = [line.split(",", 7) for line in lines[start : start + _BLOCK_LINES]]
        if min(map(len, fields)) < 7:
            return None
        columns = list(zip(*fields))
        stop = start + len(fields)
        try:
            for k in range(ints):
                whole[k, start:stop] = list(map(int, columns[k]))
            for k in range(5):
                values[k, start:stop] = list(map(float, columns[2 + k]))
        except (ValueError, OverflowError):
            return None
    return whole, values


def _fields(data: bytes, ints: int, name: str):
    """The number of data lines in `data`, and their `_line_fields` arrays
    or None.

    The C reader (`_plain_fields`) converts plain files; any other file, or
    one it refuses, is split into lines and converted by `_line_fields`.
    """
    parsed = _plain_fields(data, ints)
    if parsed is not None:
        return parsed[1].shape[1], parsed
    lines = [line for _, line in _data_lines(data, name)]
    return len(lines), _line_fields(lines, ints)


def _raise_first_error(
    det_data: bytes, features: np.ndarray, cfg: FcgConfig, name: str
) -> NoReturn:
    """Check the rows one by one and raise for the first bad one."""
    for row_idx, (lineno, line) in enumerate(_data_lines(det_data, name)):
        fields = line.split(",")
        if len(fields) < 7:
            raise ParseError(
                f"{name} line {lineno}: expected at least 7 fields, got {len(fields)}"
            )
        try:
            frame = int(fields[0])
            x, y, w, h = (float(v) for v in fields[2:6])
            conf = float(fields[6])
        except ValueError as exc:
            raise ParseError(f"{name} line {lineno}: {exc}") from exc
        if frame < 1:
            raise ParseError(f"{name} line {lineno}: frame index {frame} < 1")
        if frame > MAX_INT:
            raise ParseError(f"{name} line {lineno}: frame index {frame} > {MAX_INT}")
        if w <= 0 or h <= 0:
            raise ParseError(f"{name} line {lineno}: nonpositive box size {w}x{h}")
        if conf < cfg.score_threshold:
            continue
        try:
            Detection(
                frame=frame,
                bbox=BBox(x, y, w, h),
                score=conf,
                feature=features[row_idx],
                source_row=row_idx,
            )
        except (FcgError, ValueError) as exc:
            raise ParseError(f"{name} line {lineno}: {exc}") from exc
    # Only reached if the array checks flagged a row these checks accept.
    raise ParseError(f"{name}: invalid detection rows")


def parse_detections(
    det_data: bytes, feature_data: bytes, cfg: FcgConfig, name: str = "det"
) -> SequenceInput:
    """Parse a detection CSV plus its feature sidecar into a SequenceInput.

    Rows with confidence below cfg.score_threshold are dropped (their feature
    rows are skipped with them); invalid boxes or malformed lines raise with
    the offending line number, the first one in the file. The sidecar must
    carry exactly one feature row per CSV data line, at the configured
    dimension.

    The rows are converted column by column and checked as arrays; only
    when a check fails are they walked one by one to name the first bad line.
    A dropped row must still be well formed, with a positive box size; its
    box finiteness, score range and feature are not checked.
    """
    features = read_features(feature_data)
    if features.shape[1] != cfg.feature_dim:
        raise ParseError(
            f"{name}: feature dimension {features.shape[1]} does not match "
            f"configured {cfg.feature_dim}"
        )
    count, parsed = _fields(det_data, 1, name)
    if count != features.shape[0]:
        raise ParseError(
            f"{name}: {count} detection rows but {features.shape[0]} feature rows"
        )
    if parsed is None:
        _raise_first_error(det_data, features, cfg, name)
    (frame,), (x, y, w, h, conf) = parsed
    box = np.stack([x, y, w, h], axis=1)
    kept = ~(conf < cfg.score_threshold)
    squared = np.einsum("ij,ij->i", features, features, dtype=np.float64)
    valid = np.isfinite(box).all(axis=1) & (conf >= 0.0) & (conf <= 1.0)
    valid &= np.isfinite(squared) & (squared > 0.0)
    if np.any((frame < 1) | (w <= 0) | (h <= 0) | (kept & ~valid)):
        _raise_first_error(det_data, features, cfg, name)

    rows = np.flatnonzero(kept)
    rows = rows[np.argsort(frame[rows], kind="stable")]
    if len(rows) == count and np.all(rows[1:] > rows[:-1]):
        # Every row kept and already in frame order: the features stay a view
        # of the sidecar.
        columns = DetectionColumns(frame, box, conf, rows, features)
    else:
        columns = DetectionColumns(frame[rows], box[rows], conf[rows], rows, features[rows])
    return SequenceInput(columns=columns)


def write_detections(seq: SequenceInput) -> bytes:
    """Serialize detections to CSV with full-precision coordinates, id column -1."""
    cols = seq.columns
    lines = [
        f"{frame},-1,{x!r},{y!r},{w!r},{h!r},{score!r},-1,-1,-1"
        for frame, (x, y, w, h), score in zip(
            cols.frame.tolist(), cols.box.tolist(), cols.score.tolist()
        )
    ]
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def detection_features(seq: SequenceInput, feature_dim: int | None = None) -> np.ndarray:
    """Feature matrix aligned with write_detections row order.

    `feature_dim` fixes the column count when the sequence is empty.
    """
    if not len(seq.columns):
        return np.zeros((0, feature_dim if feature_dim else 1), dtype=np.float64)
    return seq.columns.feature


def write_tracks(tracks: TrackSet) -> bytes:
    """Serialize tracks to result rows sorted by (frame, id).

    Coordinates carry 2 decimals, scores 4; the stream is newline-terminated
    with no trailing blank line.
    """
    cols = tracks.columns
    order = np.lexsort((cols.track_id, cols.frame))
    lines = [
        f"{frame},{tid},{x:.2f},{y:.2f},{w:.2f},{h:.2f},{score:.4f},-1,-1,-1"
        for frame, tid, (x, y, w, h), score in zip(
            cols.frame[order].tolist(),
            cols.track_id[order].tolist(),
            cols.box[order].tolist(),
            cols.score[order].tolist(),
        )
    ]
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def _sorted_tracks(track_id: np.ndarray, frame: np.ndarray, box: np.ndarray) -> TrackColumns:
    """Ground-truth columns sorted by (track ID, frame), every score 1.0."""
    order = np.lexsort((frame, track_id))
    return TrackColumns(
        track_id=track_id[order], frame=frame[order], box=box[order], score=np.ones(len(order))
    )


def _parse_ground_truth_rows(gt_data: bytes, name: str, results: bool = False) -> TrackSet:
    """Parse the rows one by one, raising for the first bad one.

    The reference for the array checks of `parse_ground_truth`, which hands
    over to it when conversion or a check fails. The one such input it
    accepts is a zero-flag ground-truth row whose frame or ID does not fit
    int64.
    """
    ids: list[int] = []
    frames: list[int] = []
    boxes: list[tuple[float, float, float, float]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, line in _data_lines(gt_data, name):
        fields = line.split(",")
        if len(fields) < 7:
            raise ParseError(
                f"{name} line {lineno}: expected at least 7 fields, got {len(fields)}"
            )
        try:
            frame = int(fields[0])
            tid = int(fields[1])
            x, y, w, h = (float(v) for v in fields[2:6])
            flag = float(fields[6])
        except ValueError as exc:
            raise ParseError(f"{name} line {lineno}: {exc}") from exc
        if flag == 0 and not results:
            continue
        if frame < 1:
            raise ParseError(f"{name} line {lineno}: frame index {frame} < 1")
        if frame > MAX_INT:
            raise ParseError(f"{name} line {lineno}: frame index {frame} > {MAX_INT}")
        if tid < 1:
            raise ParseError(f"{name} line {lineno}: track id {tid} < 1")
        if tid > MAX_INT:
            raise ParseError(f"{name} line {lineno}: track id {tid} > {MAX_INT}")
        if (frame, tid) in seen:
            raise ParseError(f"{name} line {lineno}: duplicate (frame, id) ({frame}, {tid})")
        seen.add((frame, tid))
        try:
            BBox(x, y, w, h)
        except ValueError as exc:
            raise ParseError(f"{name} line {lineno}: {exc}") from exc
        ids.append(tid)
        frames.append(frame)
        boxes.append((x, y, w, h))
    return TrackSet(
        columns=_sorted_tracks(
            np.array(ids, dtype=np.int64),
            np.array(frames, dtype=np.int64),
            np.array(boxes, dtype=np.float64).reshape(-1, 4),
        )
    )


def parse_ground_truth(gt_data: bytes, name: str = "gt", *, results: bool = False) -> TrackSet:
    """Parse ground-truth CSV rows into track columns sorted by (ID, frame).

    Rows with a zero flag column (the seventh) are dropped once their fields
    convert, before any other check. With `results` the rows are a results
    file's, whose seventh column is a score, and none is dropped by it. A
    kept row needs frame >= 1, ID >= 1, both within int64, a finite box of
    positive size and a (frame, ID) pair no earlier kept row has; the first
    bad line in the file raises. Track IDs are kept as found in the file (not
    renumbered); every score is 1.0.

    The rows are converted column by column and checked as arrays; only
    when a check fails are they walked one by one to name the first bad line.
    """
    _, parsed = _fields(gt_data, 2, name)
    if parsed is None:
        return _parse_ground_truth_rows(gt_data, name, results)
    (frame, tid), (x, y, w, h, flag) = parsed
    kept = (flag != 0) | results
    cols = _sorted_tracks(tid[kept], frame[kept], np.stack([x, y, w, h], axis=1)[kept])
    ids, frames, box = cols.track_id, cols.frame, cols.box
    valid = (frames >= 1) & (ids >= 1)
    valid &= np.isfinite(box).all(axis=1) & (box[:, 2:] > 0).all(axis=1)
    repeated = (ids[1:] == ids[:-1]) & (frames[1:] == frames[:-1])
    if not valid.all() or repeated.any():
        return _parse_ground_truth_rows(gt_data, name, results)
    return TrackSet(columns=cols)


def write_ground_truth(tracks: TrackSet) -> bytes:
    """Serialize a TrackSet as ground-truth rows (flag 1, class 1, visibility 1).

    Rows are sorted by (frame, id); coordinates keep full precision.
    """
    cols = tracks.columns
    order = np.lexsort((cols.track_id, cols.frame))
    lines = [
        f"{frame},{tid},{x!r},{y!r},{w!r},{h!r},1,1,1"
        for frame, tid, (x, y, w, h) in zip(
            cols.frame[order].tolist(), cols.track_id[order].tolist(), cols.box[order].tolist()
        )
    ]
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def check_ratio(ratio: int) -> int:
    """`ratio` as a subsampling ratio: an int64 of at least 1, else ValueError."""
    if ratio < 1:
        raise ValueError(f"ratio must be >= 1, got {ratio}")
    if ratio > MAX_INT:
        raise ValueError(f"ratio must be <= {MAX_INT}, got {ratio}")
    return ratio


def _subsampled(frame: np.ndarray, ratio: int) -> tuple[np.ndarray, np.ndarray]:
    """The subsampling rule at a checked `ratio`: frame f is kept when
    (f-1) % ratio == 0 and becomes (f-1)//ratio + 1, a consecutive grid in
    the same order. Returns the kept positions in `frame` and their frames.
    """
    offset = frame - 1
    kept = np.flatnonzero(offset % ratio == 0)
    return kept, offset[kept] // ratio + 1


def subsample(seq: SequenceInput, ratio: int) -> SequenceInput:
    """Keep every ratio-th frame of a sequence, renumbered (see `_subsampled`)."""
    if check_ratio(ratio) == 1:
        return seq
    kept, frame = _subsampled(seq.columns.frame, ratio)
    return SequenceInput(columns=replace(seq.columns.take(kept), frame=frame))


def subsample_tracks(tracks: TrackSet, ratio: int) -> TrackSet:
    """Apply the subsampling rule to a TrackSet (for low-fps evaluation).

    A track with no kept frame disappears; the columns stay sorted.
    """
    if check_ratio(ratio) == 1:
        return tracks
    cols = tracks.columns
    kept, frame = _subsampled(cols.frame, ratio)
    return TrackSet(
        columns=TrackColumns(cols.track_id[kept], frame, cols.box[kept], cols.score[kept])
    )
