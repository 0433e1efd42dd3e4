"""Core domain types: detection columns, tracklets, lifted frames, config, track columns.

Everything here is immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class DegenerateFeatureError(FcgError):
    """A feature vector is zero or non-finite; cosine distance is undefined."""


class ParseError(FcgError):
    """Malformed input data; the message carries file/line context."""


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


@dataclass(frozen=True, eq=False)
class TrackSet:
    """Final labeled tracks as parallel columns, sorted by (track ID, frame).

    `track_id` and `frame` (N,) int64, `box` (N, 4) float64 rows of
    (x, y, w, h), `score` (N,) float64; the arrays are made read-only. IDs
    are positive and within a track frames are strictly increasing (one box
    per frame per ID). Pipeline output numbers IDs 1..K in order of first
    appearance; parsed ground truth keeps the IDs found in the file. Two
    TrackSets are equal when their columns are; `len` counts the tracks.
    """

    track_id: np.ndarray
    frame: np.ndarray
    box: np.ndarray
    score: np.ndarray

    def __post_init__(self):
        for name in ("track_id", "frame", "box", "score"):
            getattr(self, name).setflags(write=False)
        ids, frames = self.track_id, self.frame
        if np.any(ids < 1):
            raise ValueError(f"track IDs must be positive, got {int(ids.min())}")
        if np.any(ids[1:] < ids[:-1]):
            raise ValueError("track columns must be sorted by track ID")
        if np.any((ids[1:] == ids[:-1]) & (frames[1:] <= frames[:-1])):
            raise FrameConflictError("a track has non-increasing frames")

    def __eq__(self, other):
        if not isinstance(other, TrackSet):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("track_id", "frame", "box", "score")
        )

    __hash__ = None

    @property
    def num_boxes(self) -> int:
        return len(self.frame)

    def __len__(self) -> int:
        return len(np.unique(self.track_id))
