"""Reading and writing MOTChallenge-style files, plus fps subsampling.

Detections travel as a CSV file ("frame,id,x,y,w,h,conf,...") with a binary
feature sidecar; feature row i belongs to CSV data line i. Results are written
as "frame,id,x,y,w,h,score,-1,-1,-1" rows with fixed decimal precision.
"""

from __future__ import annotations

import io
import math
import struct
import warnings
from dataclasses import replace

import numpy as np

from .core import DetectionColumns, FcgConfig, MAX_INT, ParseError, TrackSet

FEATURE_MAGIC = b"FCGF"
FEATURE_VERSION = 1
_HEADER = struct.Struct("<4sIII")
# Rows and dimension are u32 fields of the header.
FEATURE_HEADER_MAX = 2**32 - 1

# The bytes of files that `_plain_fields` hands to numpy's C reader: digits,
# signs, decimal point, exponent, comma, and the whitespace of line ends.
_PLAIN = b"0123456789+-.eE, \t\r\n"


def write_features(features: np.ndarray) -> bytes:
    """Serialize an (R, D) feature matrix to the binary sidecar format."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"expected a 2-d feature matrix, got shape {features.shape}")
    rows, dim = features.shape
    for field, value in (("rows", rows), ("dimension", dim)):
        if value > FEATURE_HEADER_MAX:
            raise ValueError(f"feature {field} must be <= {FEATURE_HEADER_MAX}, got {value}")
    if dim < 1:
        raise ValueError(f"feature dimension must be >= 1, got {dim}")
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
    """An (ints, N) int64 array of the first `ints` columns of the N data
    lines of `data`, and a (5, N) float64 array of x, y, w, h and the seventh
    column, in one call to numpy's C reader; or None where that reader might
    judge a line differently from `_rows`.

    Taken only when every byte is in `_PLAIN`: within that alphabet the C
    reader accepts no value that Python's `int` or `float` refuses and
    converts the rest to the same bits, while it refuses whitespace-only
    lines, a line end inside a line, a value beyond int64 and a float-written
    integer (which older numpy accepts with a DeprecationWarning). It skips
    empty lines, as `_data_lines` does, so its rows are the data lines. Any
    error or warning gives None; so does an empty file, on which it warns.
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


def _rows(data: bytes, name: str, ints: int):
    """For each data line of `data`: its line number, its first `ints` fields
    as ints, and x, y, w, h and the seventh field as floats. The first line
    with fewer than 7 fields, or a field that does not convert, raises."""
    for lineno, line in _data_lines(data, name):
        fields = line.split(",")
        if len(fields) < 7:
            raise ParseError(f"{name} line {lineno}: expected at least 7 fields, got {len(fields)}")
        try:
            whole = list(map(int, fields[:ints]))
            values = list(map(float, fields[2:7]))
        except ValueError as exc:
            raise ParseError(f"{name} line {lineno}: {exc}") from exc
        yield lineno, whole, values


def _check_box(x: float, y: float, w: float, h: float, where: str) -> None:
    """Raise a ParseError at `where` unless the box is finite with a positive size."""
    if not all(map(math.isfinite, (x, y, w, h))):
        raise ParseError(f"{where}: box must be finite, got x={x}, y={y}, w={w}, h={h}")
    if not (w > 0 and h > 0):
        raise ParseError(f"{where}: box size must be positive, got w={w}, h={h}")


def _detection_rows(det_data: bytes, features: np.ndarray, cfg: FcgConfig, name: str):
    """Check the rows one by one and raise for the first bad one; when all
    pass, their frame, box and score columns."""
    # Any inf or NaN component makes the squared norm non-finite.
    squared = np.einsum("ij,ij->i", features, features, dtype=np.float64).tolist()
    frames: list[int] = []
    values: list[list[float]] = []
    for row_idx, (lineno, (frame,), row) in enumerate(_rows(det_data, name, 1)):
        x, y, w, h, conf = row
        where = f"{name} line {lineno}"
        if frame < 1:
            raise ParseError(f"{where}: frame index {frame} < 1")
        if frame > MAX_INT:
            raise ParseError(f"{where}: frame index {frame} > {MAX_INT}")
        if w <= 0 or h <= 0:
            raise ParseError(f"{where}: nonpositive box size {w}x{h}")
        frames.append(frame)
        values.append(row)
        if conf < cfg.score_threshold:
            continue
        _check_box(x, y, w, h, where)
        if not 0.0 <= conf <= 1.0:
            raise ParseError(f"{where}: score must be in [0, 1], got {conf}")
        if not math.isfinite(squared[row_idx]):
            raise ParseError(f"{where}: non-finite feature vector or norm (source row {row_idx})")
        if not squared[row_idx] > 0.0:
            raise ParseError(f"{where}: zero-norm feature vector (source row {row_idx})")
    columns = np.array(values, dtype=np.float64).reshape(-1, 5)
    return np.array(frames, dtype=np.int64), columns[:, :4].copy(), columns[:, 4].copy()


def parse_detections(
    det_data: bytes, feature_data: bytes, cfg: FcgConfig, name: str = "det"
) -> DetectionColumns:
    """Parse a detection CSV plus its feature sidecar into columns sorted by
    (frame, source row).

    Rows with confidence below cfg.score_threshold are dropped (their feature
    rows are skipped with them); invalid boxes or malformed lines raise with
    the offending line number, the first one in the file. The sidecar must
    carry exactly one feature row per CSV data line, at the configured
    dimension.

    A plain file (see `_plain_fields`) is converted column by column and
    checked as arrays; any other file, and a plain one that fails a check,
    is walked row by row (`_detection_rows`), which names the first bad line.
    A dropped row must still be well formed, with a positive box size; its
    box finiteness, score range and feature are not checked.
    """
    features = read_features(feature_data)
    if features.shape[1] != cfg.feature_dim:
        raise ParseError(
            f"{name}: feature dimension {features.shape[1]} does not match "
            f"configured {cfg.feature_dim}"
        )
    parsed = _plain_fields(det_data, 1)
    count = sum(1 for _ in _data_lines(det_data, name)) if parsed is None else parsed[1].shape[1]
    if count != features.shape[0]:
        raise ParseError(
            f"{name}: {count} detection rows but {features.shape[0]} feature rows"
        )
    if parsed is None:
        frame, box, conf = _detection_rows(det_data, features, cfg, name)
    else:
        (frame,), (x, y, w, h, conf) = parsed
        box = np.stack([x, y, w, h], axis=1)
        squared = np.einsum("ij,ij->i", features, features, dtype=np.float64)
        valid = np.isfinite(box).all(axis=1) & (conf >= 0.0) & (conf <= 1.0)
        valid &= np.isfinite(squared) & (squared > 0.0)
        # A dropped row needs only a frame >= 1 and a positive box size.
        if np.any((frame < 1) | (w <= 0) | (h <= 0) | ~(valid | (conf < cfg.score_threshold))):
            frame, box, conf = _detection_rows(det_data, features, cfg, name)
    kept = ~(conf < cfg.score_threshold)
    rows = np.flatnonzero(kept)
    rows = rows[np.argsort(frame[rows], kind="stable")]
    if len(rows) == count and np.all(rows[1:] > rows[:-1]):
        # Every row kept and already in frame order: the features stay a view
        # of the sidecar.
        return DetectionColumns(frame, box, conf, rows, features)
    return DetectionColumns(frame[rows], box[rows], conf[rows], rows, features[rows])


def _csv(template: str, *columns: list) -> bytes:
    """One `template % row` line per row of the columns, each line newline-terminated."""
    return "".join(map((template + "\n").__mod__, zip(*columns))).encode("utf-8")


def write_detections(cols: DetectionColumns) -> bytes:
    """Serialize detections to CSV with full-precision coordinates, id column -1."""
    return _csv(
        "%d,-1,%r,%r,%r,%r,%r,-1,-1,-1",
        cols.frame.tolist(), *cols.box.T.tolist(), cols.score.tolist(),
    )


def detection_features(cols: DetectionColumns, feature_dim: int | None = None) -> np.ndarray:
    """Feature matrix aligned with write_detections row order: `cols.feature`.

    A given `feature_dim` must equal the table's feature width.
    """
    if feature_dim is not None and feature_dim != cols.feature.shape[1]:
        raise ValueError(
            f"feature_dim {feature_dim} does not match the table's width {cols.feature.shape[1]}"
        )
    return cols.feature


def write_tracks(tracks: TrackSet) -> bytes:
    """Serialize tracks to result rows sorted by (frame, id).

    Coordinates carry 2 decimals, scores 4; the stream is newline-terminated
    with no trailing blank line.
    """
    order = np.lexsort((tracks.track_id, tracks.frame))
    return _csv(
        "%d,%d,%.2f,%.2f,%.2f,%.2f,%.4f,-1,-1,-1",
        tracks.frame[order].tolist(), tracks.track_id[order].tolist(),
        *tracks.box[order].T.tolist(), tracks.score[order].tolist(),
    )


def _sorted_tracks(track_id: np.ndarray, frame: np.ndarray, box: np.ndarray) -> tuple:
    """Ground-truth columns sorted by (track ID, frame), every score 1.0:
    the `TrackSet` fields in order, not yet checked."""
    order = np.lexsort((frame, track_id))
    return track_id[order], frame[order], box[order], np.ones(len(order))


def _parse_ground_truth_rows(gt_data: bytes, name: str, results: bool = False) -> TrackSet:
    """Parse the rows one by one, raising for the first bad one.

    The reader of files `_plain_fields` does not take, and the reference for
    the array checks of `parse_ground_truth`, which hands over to it when a
    check fails.
    """
    ids: list[int] = []
    frames: list[int] = []
    boxes: list[tuple[float, float, float, float]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, (frame, tid), (x, y, w, h, flag) in _rows(gt_data, name, 2):
        if results and not 0.0 <= flag <= 1.0:
            raise ParseError(f"{name} line {lineno}: score {flag} outside [0, 1]")
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
        _check_box(x, y, w, h, f"{name} line {lineno}")
        ids.append(tid)
        frames.append(frame)
        boxes.append((x, y, w, h))
    return TrackSet(
        *_sorted_tracks(
            np.array(ids, dtype=np.int64),
            np.array(frames, dtype=np.int64),
            np.array(boxes, dtype=np.float64).reshape(-1, 4),
        )
    )


def parse_ground_truth(gt_data: bytes, name: str = "gt", *, results: bool = False) -> TrackSet:
    """Parse ground-truth CSV rows into track columns sorted by (ID, frame).

    Rows with a zero flag column (the seventh) are dropped once their fields
    convert, before any other check. With `results` the rows are a results
    file's, whose seventh column is a score in [0, 1], and none is dropped
    by it. A kept row needs frame >= 1, ID >= 1, both within int64, a finite
    box of positive size and a (frame, ID) pair no earlier kept row has; the
    first bad line in the file raises. Track IDs are kept as found in the
    file (not renumbered); every score is 1.0.

    A plain file (see `_plain_fields`) is converted column by column and
    checked as arrays; any other file, and a plain one that fails a check,
    is walked row by row (`_parse_ground_truth_rows`), which names the first
    bad line.
    """
    parsed = _plain_fields(gt_data, 2)
    if parsed is None:
        return _parse_ground_truth_rows(gt_data, name, results)
    (frame, tid), (x, y, w, h, flag) = parsed
    kept = (flag != 0) | results
    columns = _sorted_tracks(tid[kept], frame[kept], np.stack([x, y, w, h], axis=1)[kept])
    ids, frames, box, _ = columns
    valid = (frames >= 1) & (ids >= 1)
    valid &= np.isfinite(box).all(axis=1) & (box[:, 2:] > 0).all(axis=1)
    repeated = (ids[1:] == ids[:-1]) & (frames[1:] == frames[:-1])
    misscored = results and not ((flag >= 0.0) & (flag <= 1.0)).all()
    if not valid.all() or repeated.any() or misscored:
        return _parse_ground_truth_rows(gt_data, name, results)
    # Built only now: the checks above hand bad rows to the line-numbered reader.
    return TrackSet(*columns)


def write_ground_truth(tracks: TrackSet) -> bytes:
    """Serialize a TrackSet as ground-truth rows (flag 1, class 1, visibility 1).

    Rows are sorted by (frame, id); coordinates keep full precision.
    """
    order = np.lexsort((tracks.track_id, tracks.frame))
    return _csv(
        "%d,%d,%r,%r,%r,%r,1,1,1",
        tracks.frame[order].tolist(), tracks.track_id[order].tolist(),
        *tracks.box[order].T.tolist(),
    )


def check_ratio(ratio: int) -> int:
    """`ratio` as a subsampling ratio: an int64 of at least 1, else ValueError."""
    if isinstance(ratio, bool) or not isinstance(ratio, (int, np.integer)):
        raise ValueError(f"ratio must be an integer, got {ratio!r}")
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


def subsample(cols: DetectionColumns, ratio: int) -> DetectionColumns:
    """Keep every ratio-th frame of a sequence, renumbered (see `_subsampled`)."""
    if check_ratio(ratio) == 1:
        return cols
    kept, frame = _subsampled(cols.frame, ratio)
    return replace(cols.take(kept), frame=frame)


def subsample_tracks(tracks: TrackSet, ratio: int) -> TrackSet:
    """Apply the subsampling rule to a TrackSet (for low-fps evaluation).

    A track with no kept frame disappears; the columns stay sorted.
    """
    if check_ratio(ratio) == 1:
        return tracks
    kept, frame = _subsampled(tracks.frame, ratio)
    return TrackSet(tracks.track_id[kept], frame, tracks.box[kept], tracks.score[kept])
