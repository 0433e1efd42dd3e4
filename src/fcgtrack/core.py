"""Core domain types: boxes, detection columns, tracklets, lifted frames, config, tracks.

Everything here is immutable after construction.
"""

from __future__ import annotations

import math
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


class FrameConflictError(FcgError):
    """A track's frames are not strictly increasing (two boxes claim one frame)."""


class DimensionMismatchError(FcgError):
    """Feature vectors with different dimensions were combined."""


class DegenerateFeatureError(FcgError):
    """A feature vector is zero or non-finite; cosine distance is undefined."""


class ParseError(FcgError):
    """Malformed input data; the message carries file/line context."""


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
class DetectionColumns:
    """Detections as parallel columns, one entry per detection in each.

    `frame` (N,) int64, `box` (N, 4) float64 rows of (x, y, w, h), `score`
    (N,) float64, `row` (N,) int64 source rows and `feature` (N, D): float32
    as read from a feature sidecar, float64 from `synthdata.generate`; every
    computation on features is done in float64. The arrays are made
    read-only; the constructor checks nothing else, so callers hand it
    validated values (`parse_detections`, `generate`).
    """

    frame: np.ndarray
    box: np.ndarray
    score: np.ndarray
    row: np.ndarray
    feature: np.ndarray

    def __post_init__(self):
        for name in ("frame", "box", "score", "row", "feature"):
            getattr(self, name).setflags(write=False)

    def __len__(self) -> int:
        return len(self.frame)

    def take(self, index) -> "DetectionColumns":
        """The rows selected by an index array or a boolean mask."""
        return DetectionColumns(
            self.frame[index], self.box[index], self.score[index], self.row[index],
            self.feature[index],
        )


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
    table. Construct through :meth:`from_rows`.
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


def _shared_table(tracklets) -> DetectionColumns:
    """The one detection table that all of a nonempty list of tracklets index."""
    table = tracklets[0].columns
    if any(t.columns is not table for t in tracklets):
        raise ValueError("tracklets index different detection tables")
    return table


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
