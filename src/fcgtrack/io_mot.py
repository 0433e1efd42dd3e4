"""Reading and writing MOTChallenge-style files, plus fps subsampling.

Detections travel as a CSV file ("frame,id,x,y,w,h,conf,...") with a binary
feature sidecar; feature row i belongs to CSV data line i. Results are written
as "frame,id,x,y,w,h,score,-1,-1,-1" rows with fixed decimal precision.
"""

from __future__ import annotations

import io
import math
import os
import struct
import warnings
from contextlib import contextmanager
from dataclasses import replace
from typing import BinaryIO

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

# Bytes of feature rows `parse_detections` reads from a sidecar at a time (at
# least one row).
_CHUNK_BYTES = 1 << 20


def write_features(features: np.ndarray) -> bytes:
    """Serialize an (R, D) feature matrix to the binary sidecar format, each
    value rounded to float32 once (from float64 for any other dtype). A
    C-ordered float32 matrix is copied only into the returned bytes."""
    features = np.asarray(features)
    if features.dtype not in (np.float32, np.float64):
        features = features.astype(np.float64)
    if features.ndim != 2:
        raise ValueError(f"expected a 2-d feature matrix, got shape {features.shape}")
    rows, dim = features.shape
    for field, value in (("rows", rows), ("dimension", dim)):
        if value > FEATURE_HEADER_MAX:
            raise ValueError(f"feature {field} must be <= {FEATURE_HEADER_MAX}, got {value}")
    if dim < 1:
        raise ValueError(f"feature dimension must be >= 1, got {dim}")
    header = _HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, rows, dim)
    return b"".join((header, np.ascontiguousarray(features, dtype="<f4")))


def _feature_shape(head: bytes, length: int) -> tuple[int, int]:
    """The (rows, dimension) of a sidecar of `length` bytes that starts with
    `head`: the header checked (magic, version, dimension), then the length it
    implies."""
    if len(head) < _HEADER.size:
        raise ParseError("feature blob shorter than its header")
    magic, version, rows, dim = _HEADER.unpack_from(head, 0)
    if magic != FEATURE_MAGIC:
        raise ParseError(f"bad feature blob magic {magic!r}")
    if version != FEATURE_VERSION:
        raise ParseError(f"unsupported feature blob version {version}")
    if dim < 1:
        raise ParseError(f"feature blob declares dimension {dim}")
    expected = _HEADER.size + 4 * rows * dim
    if length != expected:
        raise ParseError(
            f"feature blob length {length} does not match header "
            f"({rows} rows x {dim} dims needs {expected})"
        )
    return rows, dim


def _feature_stream(features: bytes | BinaryIO) -> tuple:
    """A sidecar given as bytes or as a binary stream: a seekable stream at
    its first row, its rows and its dimension (`_feature_shape`, the length
    measured from the stream's position). A stream that cannot seek, such as
    a pipe, is read whole first."""
    if isinstance(features, (bytes, bytearray, memoryview)):
        features = io.BytesIO(features)
    elif not features.seekable():
        features = io.BytesIO(features.read())
    start = features.tell()
    length = features.seek(0, io.SEEK_END) - start
    features.seek(start)
    head = bytearray(min(length, _HEADER.size))
    _fill(features, head)
    return (features, *_feature_shape(head, length))


@contextmanager
def _named(name):
    """Put the base name of the sidecar's path `name` (a stream's `name`
    attribute) in front of the message of a ParseError raised inside; with no
    path name the error passes unchanged."""
    try:
        yield
    except ParseError as exc:
        if not isinstance(name, str):
            raise
        raise ParseError(f"{os.path.basename(name)}: {exc}") from None


def _fill(stream, buffer) -> None:
    """Fill the writable `buffer` from `stream`, or raise ParseError if the
    stream ends first: a buffer is never used with bytes of an earlier read."""
    target = np.asarray(buffer).reshape(-1).view(np.uint8)
    done = 0
    while done < len(target):
        got = stream.readinto(target[done:])
        if not got:
            raise ParseError(
                f"feature blob ended early: a read gave {done} of {len(target)} bytes"
            )
        done += got


def _stream_rows(stream, rows: int, dim: int, taken: np.ndarray) -> tuple:
    """Read the `rows` x `dim` float32 rows of a sidecar stream at its first
    row, `_CHUNK_BYTES` at a time into one buffer of at most `rows` rows.
    Returns the squared norms of every row (`_squared_norms`) and the rows
    `taken` (distinct source rows, in any order) as a float32 array, each
    copied once from the buffer to its place."""
    dst = np.argsort(taken, kind="stable")
    src = taken[dst]
    squared = np.empty(rows)
    out = np.empty((len(taken), dim), dtype="<f4")
    step = max(1, _CHUNK_BYTES // (4 * dim))
    buffer = np.empty((min(step, rows), dim), dtype="<f4")
    lo = 0
    for start in range(0, rows, step):
        n = min(step, rows - start)
        hi = int(np.searchsorted(src, start + n))
        chunk = buffer[:n]
        _fill(stream, chunk)
        out[dst[lo:hi]] = chunk[src[lo:hi] - start]
        squared[start : start + n] = _squared_norms(chunk)
        lo = hi
    return squared, out


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
    return _line_rows(_data_lines(data, name), name, ints)


def _line_rows(lines, name: str, ints: int):
    """`_rows` of the (line number, line) pairs `_data_lines` gives."""
    for lineno, line in lines:
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


def _squared_norms(features: np.ndarray) -> np.ndarray:
    """Squared row norms of float32 features, good only for being finite and > 0: float32 sums,
    which imply it for float64, and float64 sums where float32 gives inf, NaN or 0."""
    squared = np.einsum("ij,ij->i", features, features).astype(np.float64)
    redo = np.flatnonzero(~(np.isfinite(squared) & (squared > 0.0)))
    squared[redo] = np.einsum("ij,ij->i", features[redo], features[redo], dtype=np.float64)
    return squared


def _valid(box: np.ndarray, conf: np.ndarray, squared: np.ndarray) -> np.ndarray:
    """Which rows pass the checks of a kept row beyond the box size: a finite
    box, a score in [0, 1] and a finite, nonzero feature."""
    valid = np.isfinite(box).all(axis=1) & (conf >= 0.0) & (conf <= 1.0)
    return valid & np.isfinite(squared) & (squared > 0.0)


def _detection_rows(lines, squared: np.ndarray, cfg: FcgConfig, name: str):
    """Check the rows of the data lines (as `_data_lines` gives them) one by
    one, with the squared norms of their feature rows, and raise for the
    first bad one; when all pass, their frame, box and score columns."""
    # Any inf or NaN component makes the squared norm non-finite.
    squared = squared.tolist()
    frames: list[int] = []
    values: list[list[float]] = []
    for row_idx, (lineno, (frame,), row) in enumerate(_line_rows(lines, name, 1)):
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
    det_data: bytes, features: bytes | BinaryIO, cfg: FcgConfig, name: str = "det",
    ratio: int = 1,
) -> DetectionColumns:
    """Parse a detection CSV plus its feature sidecar into columns sorted by
    (frame, source row), keeping every `ratio`-th frame: the columns of
    `subsample(parse_detections(det_data, features, cfg, name), ratio)`.

    `features` is the sidecar as bytes or as a binary stream at its start.
    Its header and length are checked first; then the CSV is parsed, which
    fixes the rows to keep; then the sidecar is read once, `_CHUNK_BYTES` at
    a time into one buffer, and each kept feature row is copied from it to
    its place, so neither the whole sidecar nor its dropped rows are held in
    memory. A stream that cannot seek, such as a pipe, is read whole first.
    Sidecar errors start with the base name of the stream's `name`, when it
    is a path, as CSV errors start with `name`.

    Rows with confidence below cfg.score_threshold are dropped (their feature
    rows are skipped with them); invalid boxes or malformed lines raise with
    the offending line number, the first one in the file. The sidecar must
    carry exactly one feature row per CSV data line, at the configured
    dimension. A dropped row must still be well formed, with a positive box
    size; its box finiteness, score range and feature are not checked. Rows
    in frames that `ratio` drops are checked as any other.

    A plain file (see `_plain_fields`) is converted column by column and
    checked as arrays; any other file is converted by the row walk
    (`_detection_rows`), and its features checked as arrays. Any file that
    fails a check is walked row by row, which names the first bad line.
    """
    check_ratio(ratio)
    # Read before a pipe is copied into a nameless buffer.
    source = getattr(features, "name", None)
    with _named(source):
        stream, rows, dim = _feature_stream(features)
        if dim != cfg.feature_dim:
            raise ParseError(f"feature dimension {dim} does not match configured {cfg.feature_dim}")
    parsed = _plain_fields(det_data, 1)
    lines = _data_lines(det_data, name)
    if parsed is None:
        # The C reader does not take the file: split it once, to count and to walk its lines.
        lines = list(lines)
    count = len(lines) if parsed is None else parsed[1].shape[1]
    if count != rows:
        raise ParseError(f"{name}: {count} detection rows but {rows} feature rows")
    if parsed is not None:
        (frame,), (x, y, w, h, conf) = parsed
        box = np.stack([x, y, w, h], axis=1)
    else:
        try:
            # With every norm valid the walk checks the lines alone. A bad
            # feature on an earlier line must be named first, so the error
            # waits for the norms.
            frame, box, conf = _detection_rows(lines, np.ones(count), cfg, name)
        except ParseError:
            frame = box = conf = None
    if frame is None:
        taken = np.zeros(0, dtype=np.int64)
    else:
        kept = ~(conf < cfg.score_threshold)
        taken = np.flatnonzero(kept)
        at, frame_out = _subsampled(frame[taken], ratio)
        order = np.argsort(frame_out, kind="stable")
        taken, frame_out = taken[at[order]], frame_out[order]
    with _named(source):
        squared, feature = _stream_rows(stream, rows, dim, taken)
    if frame is None or np.any(
        # A dropped row needs only a frame >= 1 and a positive box size.
        (frame < 1) | (box[:, 2] <= 0) | (box[:, 3] <= 0)
        | (kept & ~_valid(box, conf, squared))
    ):
        # Raises: the row walk is the reference the array checks agree with.
        _detection_rows(lines, squared, cfg, name)
    return DetectionColumns(frame_out, box[taken], conf[taken], taken, feature)


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


# Decimal places of the x, y, w, h and score columns of a result row.
_PLACES = (2, 2, 2, 2, 4)


def _digits(v: np.ndarray, least: int) -> np.ndarray:
    """The ASCII decimal digits of the nonnegative int64 column `v`, one row a place (most
    significant first) of a (width, N) uint8 array as wide as the largest value needs; leading
    zeros beyond a value's last `least` places are 0 bytes."""
    width = max(least, len(str(int(v.max(initial=0)))))
    digits = np.empty((width, len(v)), dtype=np.uint8)
    for place in range(width):
        blank = v == 0
        v, digit = np.divmod(v, 10)
        row = digits[width - 1 - place]
        np.add(digit, 48, out=row, casting="unsafe")
        if place >= least:
            row[blank] = 0
    return digits


def _track_rows(frame: np.ndarray, track_id: np.ndarray, values: np.ndarray) -> bytes:
    """The rows `write_tracks` writes for these columns (`values` holds x, y, w, h and score).

    A value x with d places prints as rint(|x| * 10**d), a point before its last d digits, after
    a minus sign where x's sign bit is set. `%` rounds the exact binary value, ties to even, and
    `rint` of the computed product agrees whenever the product is more than its spacing from a
    half-integer: the exact product then lies on the same side. That fails for near-ties such as
    2.675, for NaN, and for every product of 2**51 or more (spacing 0.5 or more; inf is clipped
    to 2**53 first). The other rows, but those of negative frames, fill one (width, N) matrix
    with their digits, beside each remaining row's `%` line, and its 0 bytes (padding, blank
    places and plus signs) are dropped in one pass.
    """
    scaled = np.minimum(np.abs(values), 2.0**53) * 10.0 ** np.array(_PLACES)
    decided = (np.abs(scaled - np.floor(scaled) - 0.5) > np.spacing(scaled)).all(1) & (frame >= 0)
    kept = np.flatnonzero(decided)
    at = kept if len(kept) < len(frame) else slice(None)  # views when every row is kept

    def text(chars: bytes) -> np.ndarray:
        return np.broadcast_to(np.frombuffer(chars, np.uint8)[:, None], (len(chars), len(kept)))

    pieces = [_digits(frame[at], 1), text(b","), _digits(track_id[at], 1)]
    for x, n, places in zip(values[at].T, np.rint(scaled[at].T).astype(np.int64), _PLACES):
        whole = _digits(n, places + 1)
        pieces += [text(b","), np.signbit(x)[None] * np.uint8(45), whole[:-places], text(b"."),
                   whole[-places:]]
    pieces.append(text(b",-1,-1,-1\n"))
    rows = np.concatenate(pieces)
    if len(kept) < len(frame):
        rest = np.flatnonzero(~decided)
        lines = np.array(_csv(  # `%` lines, padded with 0 bytes to the longest
            "%d,%d,%.2f,%.2f,%.2f,%.2f,%.4f,-1,-1,-1", frame[rest].tolist(),
            track_id[rest].tolist(), *values[rest].T.tolist()).splitlines(keepends=True))
        spliced = np.zeros((max(len(rows), lines.itemsize), len(frame)), dtype=np.uint8)
        spliced[: len(rows), kept] = rows
        spliced[: lines.itemsize, rest] = lines.view(np.uint8).reshape(len(rest), -1).T
        rows = spliced
    return rows.T.tobytes().translate(None, b"\0")


def write_tracks(tracks: TrackSet) -> bytes:
    """Serialize tracks to result rows sorted by (frame, id).

    Coordinates carry 2 decimals, scores 4, rounded as `%.2f` and `%.4f`
    round; the stream is newline-terminated with no trailing blank line.
    Rows are built as arrays (`_track_rows`); a row with a value that rule
    cannot decide is written with `%`, which is the reference, and spliced in.
    """
    order = np.lexsort((tracks.track_id, tracks.frame))
    values = np.column_stack((tracks.box[order], tracks.score[order]))
    return _track_rows(tracks.frame[order], tracks.track_id[order], values)


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
