"""Core domain types: boxes, detections, tracklets, lifted frames, config, tracks.

Everything here is immutable after construction and safe to share across
worker threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


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
class Tracklet:
    """A frame-disjoint run of detections with a cached element-wise median feature.

    Construct through :func:`tracklet_new`; the constructor is not validated.
    """

    detections: tuple[Detection, ...]
    median_feature: np.ndarray
    frame_set: frozenset[int]

    def __eq__(self, other):
        if not isinstance(other, Tracklet):
            return NotImplemented
        return self.detections == other.detections and np.array_equal(
            self.median_feature, other.median_feature
        )

    def __hash__(self):
        return hash((self.detections, self.median_feature.tobytes()))

    @property
    def first(self) -> Detection:
        return self.detections[0]

    @property
    def last(self) -> Detection:
        return self.detections[-1]

    @property
    def first_frame(self) -> int:
        return self.detections[0].frame

    @property
    def last_frame(self) -> int:
        return self.detections[-1].frame

    def __len__(self) -> int:
        return len(self.detections)


def tracklet_new(detections) -> Tracklet:
    """Build a tracklet from detections of one object.

    Detections are sorted by frame and the element-wise median of their
    features is cached (even counts use the mean of the two middle values).
    Raises on an empty list, duplicate frame indices, or mixed feature
    dimensions.
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
    median = np.median(np.stack([d.feature for d in dets]), axis=0)
    return Tracklet(
        detections=tuple(dets),
        median_feature=_frozen_array(median),
        frame_set=frozenset(frames),
    )


@dataclass(frozen=True)
class LiftedFrame:
    """An artificial time instant holding tracklets over a span of window indices."""

    level: int
    span_start: int
    span_end: int
    tracklets: tuple[Tracklet, ...]

    def __post_init__(self):
        if self.level < 1:
            raise ValueError(f"hierarchy level must be >= 1, got {self.level}")
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
        if not self.tracklet_threshold > 0:
            raise InvalidConfigError("tracklet_threshold must be > 0")
        if not self.track_threshold > 0:
            raise InvalidConfigError("track_threshold must be > 0")
        if self.kt < 0:
            raise InvalidConfigError(f"kt must be >= 0, got {self.kt}")
        if not self.ct >= 1:
            raise InvalidConfigError(f"ct must be >= 1, got {self.ct}")
        if not 0 < self.off <= 1:
            raise InvalidConfigError(f"off must be in (0, 1], got {self.off}")
        if self.kf < 0:
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


@dataclass(frozen=True)
class TrackSet:
    """Final labeled tracks: track ID to its (frame, box, score) rows.

    Within a track frames are strictly increasing (one box per frame per ID).
    Pipeline output additionally numbers IDs 1..K in order of first
    appearance; parsed ground truth keeps the IDs found in the file.
    """

    tracks: dict[int, tuple[TrackEntry, ...]]

    def __post_init__(self):
        object.__setattr__(self, "tracks", dict(self.tracks))
        for tid, entries in self.tracks.items():
            if tid < 1:
                raise ValueError(f"track IDs must be positive, got {tid}")
            frames = [e.frame for e in entries]
            if any(b <= a for a, b in zip(frames, frames[1:])):
                raise FrameConflictError(
                    f"track {tid} has non-increasing frames: {frames}"
                )

    @property
    def num_boxes(self) -> int:
        return sum(len(entries) for entries in self.tracks.values())

    def __len__(self) -> int:
        return len(self.tracks)
