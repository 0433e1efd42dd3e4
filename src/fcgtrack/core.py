"""Core domain types: boxes, detections, tracklets, lifted frames, config, tracks.

Everything here is immutable after construction.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


# Distance of a pair that may never share a cluster. Every admissible cut
# threshold lies strictly below it, so no cut can apply a forbidden merge.
CANNOT_LINK = 1.0e6

# Frame indices, track IDs and frame counts (window, subsampling ratio) are
# held as int64.
MAX_INT = np.iinfo(np.int64).max


class FcgError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfigError(FcgError):
    """A configuration value is out of its admissible range."""


class EmptyInputError(FcgError):
    """An operation that requires at least one element got none."""


class FrameConflictError(FcgError):
    """Two detections claim the same frame inside one tracklet."""


class DimensionMismatchError(FcgError):
    """Feature vectors with different dimensions were combined."""


class DegenerateFeatureError(FcgError):
    """A feature vector is zero or non-finite; cosine distance is undefined."""


class ParseError(FcgError):
    """Malformed input data; the message carries file/line context."""


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.base is not None or arr.flags.writeable:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box as (left, top, width, height) in pixels."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("x", "y", "w", "h"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (
            math.isfinite(self.x)
            and math.isfinite(self.y)
            and math.isfinite(self.w)
            and math.isfinite(self.h)
        ):
            raise ValueError(
                f"box must be finite, got x={self.x}, y={self.y}, w={self.w}, h={self.h}"
            )
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box size must be positive, got w={self.w}, h={self.h}")

    @property
    def right(self) -> float:
        return self.x + self.w

    @property
    def bottom(self) -> float:
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True, eq=False)
class Detection:
    """One object instance in one frame with its appearance feature."""

    frame: int
    bbox: BBox
    score: float
    feature: np.ndarray
    source_row: int = -1

    def __eq__(self, other):
        if not isinstance(other, Detection):
            return NotImplemented
        return (
            self.frame == other.frame
            and self.bbox == other.bbox
            and self.score == other.score
            and self.source_row == other.source_row
            and np.array_equal(self.feature, other.feature)
        )

    def __hash__(self):
        return hash(
            (self.frame, self.bbox, self.score, self.source_row, self.feature.tobytes())
        )

    def __post_init__(self):
        object.__setattr__(self, "frame", int(self.frame))
        object.__setattr__(self, "score", float(self.score))
        object.__setattr__(self, "source_row", int(self.source_row))
        if self.frame < 1:
            raise ValueError(f"frame index must be >= 1, got {self.frame}")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        feat = _frozen_array(self.feature)
        if feat.ndim != 1 or feat.size == 0:
            raise DimensionMismatchError(
                f"feature must be a nonempty 1-d vector (source row {self.source_row})"
            )
        norm = float(np.linalg.norm(feat))
        # Any inf or NaN component makes the norm non-finite, as does a norm
        # too large for cosine distance to square.
        if not math.isfinite(norm):
            raise DegenerateFeatureError(
                f"non-finite feature vector or norm (source row {self.source_row})"
            )
        if not norm > 0.0:
            raise DegenerateFeatureError(
                f"zero-norm feature vector (source row {self.source_row})"
            )
        object.__setattr__(self, "feature", feat)


@dataclass(frozen=True, eq=False)
class DetectionColumns:
    """Detections as parallel columns, one entry per detection in each.

    `frame` (N,) int64, `box` (N, 4) float64 rows of (x, y, w, h), `score`
    (N,) float64, `row` (N,) int64 source rows and `feature` (N, D): float32
    as read from a feature sidecar, float64 from `Detection` objects; every
    computation on features is done in float64. The arrays are made
    read-only; the constructor checks nothing else, so callers hand it
    validated values (`parse_detections`, `from_detections`).
    """

    frame: np.ndarray
    box: np.ndarray
    score: np.ndarray
    row: np.ndarray
    feature: np.ndarray

    def __post_init__(self):
        for name in ("frame", "box", "score", "row", "feature"):
            getattr(self, name).setflags(write=False)

    @classmethod
    def from_detections(cls, detections) -> "DetectionColumns":
        """Columns of `Detection` objects, in the given order."""
        dets = list(detections)
        dims = sorted({d.feature.shape[0] for d in dets})
        if len(dims) > 1:
            raise DimensionMismatchError(f"feature dimensions differ: {dims}")
        return cls(
            frame=np.array([d.frame for d in dets], dtype=np.int64),
            box=np.array(
                [(d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h) for d in dets], dtype=np.float64
            ).reshape(-1, 4),
            score=np.array([d.score for d in dets], dtype=np.float64),
            row=np.array([d.source_row for d in dets], dtype=np.int64),
            feature=np.stack([d.feature for d in dets]) if dets else np.zeros((0, 0)),
        )

    @classmethod
    def concat(cls, tables) -> "DetectionColumns":
        """The rows of several tables, one after the other."""
        tables = list(tables)
        dims = sorted({t.feature.shape[1] for t in tables})
        if len(dims) > 1:
            raise DimensionMismatchError(f"feature dimensions differ: {dims}")
        return cls(
            *(
                np.concatenate([getattr(t, name) for t in tables])
                for name in ("frame", "box", "score", "row", "feature")
            )
        )

    def __len__(self) -> int:
        return len(self.frame)

    def take(self, index) -> "DetectionColumns":
        """The rows selected by an index array or a boolean mask."""
        return DetectionColumns(
            self.frame[index], self.box[index], self.score[index], self.row[index],
            self.feature[index],
        )

    def detection(self, i) -> Detection:
        """Row `i` as a `Detection`."""
        return Detection(
            frame=int(self.frame[i]),
            bbox=BBox(*self.box[i].tolist()),
            score=float(self.score[i]),
            feature=self.feature[i],
            source_row=int(self.row[i]),
        )


class DetectionView(Sequence):
    """Rows of a `DetectionColumns` as `Detection` objects, built on access.

    Compares equal to any sequence of equal detections, tuples included.
    """

    __slots__ = ("_columns", "_rows")

    def __init__(self, columns: DetectionColumns, rows=None):
        self._columns = columns
        self._rows = range(len(columns)) if rows is None else rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self._columns.detection(r) for r in self._rows[i])
        return self._columns.detection(self._rows[i])

    def __eq__(self, other):
        if isinstance(other, (str, bytes)) or not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"DetectionView({tuple(self)!r})"


def _median(values: np.ndarray) -> np.ndarray:
    """Element-wise float64 median over the rows of a finite (k, D) array.

    The same values as `np.median(values.astype(np.float64), axis=0)`: the
    middle row of the column-sorted array, or the mean (a + b) / 2 of the two
    middle rows, taken in float64.
    """
    ordered = np.sort(values, axis=0)
    half = len(ordered) // 2
    middle = ordered[half].astype(np.float64)
    if len(ordered) % 2:
        return middle
    return (ordered[half - 1].astype(np.float64) + middle) / 2


@dataclass(frozen=True, eq=False)
class Tracklet:
    """Detections of one object: rows of a detection table, ascending in frame.

    The element-wise median of their features is cached (even counts use the
    mean of the two middle values). Tracklets of one sequence share its
    table. Construct through :func:`tracklet_new` or :meth:`from_rows`.
    """

    columns: DetectionColumns
    rows: np.ndarray
    median_feature: np.ndarray

    @classmethod
    def from_rows(cls, columns: DetectionColumns, rows: np.ndarray) -> "Tracklet":
        """Tracklet of table rows already in ascending frame order; not validated."""
        median = _median(columns.feature[rows])
        median.setflags(write=False)
        rows.setflags(write=False)
        return cls(columns=columns, rows=rows, median_feature=median)

    def __eq__(self, other):
        if not isinstance(other, Tracklet):
            return NotImplemented
        return self.detections == other.detections and np.array_equal(
            self.median_feature, other.median_feature
        )

    def __hash__(self):
        return hash((tuple(self.detections), self.median_feature.tobytes()))

    @property
    def detections(self) -> DetectionView:
        return DetectionView(self.columns, self.rows)

    @property
    def frame_set(self) -> frozenset[int]:
        return frozenset(self.columns.frame[self.rows].tolist())

    @property
    def first_frame(self) -> int:
        return int(self.columns.frame[self.rows[0]])

    @property
    def last_frame(self) -> int:
        return int(self.columns.frame[self.rows[-1]])

    def __len__(self) -> int:
        return len(self.rows)


def tracklet_new(detections) -> Tracklet:
    """Build a tracklet from detections of one object.

    Detections are sorted by frame and the element-wise median of their
    features is cached. Raises on an empty list, duplicate frame indices, or
    mixed feature dimensions.
    """
    dets = list(detections)
    if not dets:
        raise EmptyInputError("a tracklet needs at least one detection")
    dims = {d.feature.shape[0] for d in dets}
    if len(dims) != 1:
        raise DimensionMismatchError(f"mixed feature dimensions in tracklet: {sorted(dims)}")
    frames = [d.frame for d in dets]
    if len(set(frames)) != len(frames):
        dup = sorted(f for f in set(frames) if frames.count(f) > 1)
        raise FrameConflictError(f"duplicate frame indices in tracklet: {dup}")
    dets.sort(key=lambda d: d.frame)
    return Tracklet.from_rows(DetectionColumns.from_detections(dets), np.arange(len(dets)))


def common_columns(tracklets) -> tuple[DetectionColumns | None, list[np.ndarray]]:
    """One table holding the detections of all `tracklets`, and each one's rows in it.

    Tracklets of one sequence share its table, which comes back as it is;
    tracklets built apart (through :func:`tracklet_new`) are stacked into a
    new table. The table is None when there are no tracklets.
    """
    tables = {id(t.columns): t.columns for t in tracklets}
    if len(tables) <= 1:
        return next(iter(tables.values()), None), [t.rows for t in tracklets]
    offset, start = {}, 0
    for key, table in tables.items():
        offset[key] = start
        start += len(table)
    stacked = DetectionColumns.concat(tables.values())
    return stacked, [t.rows + offset[id(t.columns)] for t in tracklets]


@dataclass(frozen=True)
class LiftedFrame:
    """An artificial time instant holding tracklets over a span of window indices."""

    span_start: int
    span_end: int
    tracklets: tuple[Tracklet, ...]

    def __post_init__(self):
        if not (self.span_start >= 0 and self.span_end > self.span_start):
            raise ValueError(
                f"invalid span [{self.span_start}, {self.span_end}]"
            )
        object.__setattr__(self, "tracklets", tuple(self.tracklets))


@dataclass(frozen=True)
class FcgConfig:
    """All tracking constants in one place.

    The numeric defaults are the tuned operating point; the boolean toggles
    select the weighting terms applied during tracklet fusion.
    """

    window: int = 6
    tracklet_threshold: float = 0.055
    track_threshold: float = 0.055
    kt: int = 40
    ct: float = 4.0
    off: float = 0.15
    kf: float = 2.0
    cf: float = 2.0
    score_threshold: float = 0.7
    use_temporal: bool = True
    use_spatial: bool = True
    use_motion: bool = False
    consecutive: bool = True
    feature_dim: int = 2048

    def __post_init__(self):
        if self.window < 1:
            raise InvalidConfigError(f"window must be >= 1, got {self.window}")
        if self.window > MAX_INT:
            raise InvalidConfigError(f"window must be <= {MAX_INT}, got {self.window}")
        for name in ("tracklet_threshold", "track_threshold"):
            value = getattr(self, name)
            if not 0 < value < CANNOT_LINK:
                raise InvalidConfigError(
                    f"{name} must be in (0, {CANNOT_LINK}), got {value}"
                )
        if not self.kt >= 0:
            raise InvalidConfigError(f"kt must be >= 0, got {self.kt}")
        if not self.ct >= 1:
            raise InvalidConfigError(f"ct must be >= 1, got {self.ct}")
        if not 0 < self.off <= 1:
            raise InvalidConfigError(f"off must be in (0, 1], got {self.off}")
        if not self.kf >= 0:
            raise InvalidConfigError(f"kf must be >= 0, got {self.kf}")
        if not self.cf >= 1:
            raise InvalidConfigError(f"cf must be >= 1, got {self.cf}")
        if not 0.0 <= self.score_threshold <= 1.0:
            raise InvalidConfigError("score_threshold must be in [0, 1]")
        if self.feature_dim < 1:
            raise InvalidConfigError(f"feature_dim must be >= 1, got {self.feature_dim}")


class TrackEntry(NamedTuple):
    frame: int
    bbox: BBox
    score: float


@dataclass(frozen=True, eq=False)
class TrackColumns:
    """Labeled boxes as parallel columns, sorted by (track ID, frame).

    `track_id` and `frame` (N,) int64, `box` (N, 4) float64 rows of
    (x, y, w, h), `score` (N,) float64. The arrays are made read-only.
    """

    track_id: np.ndarray
    frame: np.ndarray
    box: np.ndarray
    score: np.ndarray

    def __post_init__(self):
        for name in ("track_id", "frame", "box", "score"):
            getattr(self, name).setflags(write=False)


class TrackSet:
    """Final labeled tracks, held as `TrackColumns`.

    Within a track frames are strictly increasing (one box per frame per ID).
    Pipeline output additionally numbers IDs 1..K in order of first
    appearance; parsed ground truth keeps the IDs found in the file.

    Built from columns (`TrackSet(columns=...)`) or from a mapping of track
    ID to its (frame, box, score) entries (`TrackSet(tracks=...)`), which is
    converted to columns; an ID with no entries holds no rows. `tracks` is a
    view of the columns built on first use, IDs in ascending order. Two
    TrackSets are equal when their columns are. Immutable.
    """

    def __init__(self, tracks=None, *, columns: TrackColumns | None = None):
        if (tracks is None) == (columns is None):
            raise TypeError("TrackSet takes either tracks or columns")
        if columns is None:
            columns = _entry_columns(dict(tracks))
        ids, frames = columns.track_id, columns.frame
        if np.any(ids < 1):
            raise ValueError(f"track IDs must be positive, got {int(ids.min())}")
        if np.any(ids[1:] < ids[:-1]):
            raise ValueError("track columns must be sorted by track ID")
        if np.any((ids[1:] == ids[:-1]) & (frames[1:] <= frames[:-1])):
            raise FrameConflictError("a track has non-increasing frames")
        self.__dict__["columns"] = columns

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: TrackSet is immutable")

    @cached_property
    def tracks(self) -> dict[int, tuple[TrackEntry, ...]]:
        cols = self.columns
        tracks: dict[int, list[TrackEntry]] = {}
        for tid, frame, box, score in zip(
            cols.track_id.tolist(), cols.frame.tolist(), cols.box.tolist(), cols.score.tolist()
        ):
            tracks.setdefault(tid, []).append(TrackEntry(frame, BBox(*box), score))
        return {tid: tuple(entries) for tid, entries in tracks.items()}

    def __eq__(self, other):
        if not isinstance(other, TrackSet):
            return NotImplemented
        a, b = self.columns, other.columns
        return all(
            np.array_equal(getattr(a, name), getattr(b, name))
            for name in ("track_id", "frame", "box", "score")
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"TrackSet(tracks={self.tracks!r})"

    @property
    def num_boxes(self) -> int:
        return len(self.columns.frame)

    def __len__(self) -> int:
        return len(np.unique(self.columns.track_id))


def _entry_columns(tracks: dict) -> TrackColumns:
    """Columns of a track ID -> entries mapping, sorted by ID, entries in order."""
    if min(tracks, default=1) < 1:
        # An ID with no entries holds no row to be checked as a column.
        raise ValueError(f"track IDs must be positive, got {min(tracks)}")
    rows = [(tid, e) for tid in sorted(tracks) for e in tracks[tid]]
    return TrackColumns(
        track_id=np.array([tid for tid, _ in rows], dtype=np.int64),
        frame=np.array([e.frame for _, e in rows], dtype=np.int64),
        box=np.array(
            [(e.bbox.x, e.bbox.y, e.bbox.w, e.bbox.h) for _, e in rows], dtype=np.float64
        ).reshape(-1, 4),
        score=np.array([e.score for _, e in rows], dtype=np.float64),
    )
