"""Core domain types: detection columns, per-level tracklet tables, config, track columns.

Everything here is immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


# Distance of a pair that may never share a cluster. Every admissible cut
# threshold lies strictly below it, so no cut can apply a forbidden merge.
CANNOT_LINK = 1.0e6

# Frame indices, track IDs and frame counts (window, subsampling ratio) are
# held as int64.
MAX_INT = np.iinfo(np.int64).max

# `_medians` orders groups of at most NETWORK_MAX_SIZE rows by network when they fill a
# (groups x D) plane of NETWORK_MIN_CELLS cells or more, the measured crossover.
NETWORK_MAX_SIZE = 32
NETWORK_MIN_CELLS = 2048

# Bytes of feature rows `_medians` gathers and orders at a time (at least one group).
_BLOCK_BYTES = 1 << 20


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


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[i]..starts[i]+lengths[i]-1."""
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


@lru_cache(maxsize=None)
def _middle_network(n: int) -> tuple:
    """Comparators (a, b), a < b, that bring sorted ranks (n-1)//2 and n//2 to those wires:
    Batcher's odd-even merge sort, less the comparators on wires >= n (absent inputs, +inf, never
    move) and those that cannot reach the middle wires. n = 6, 12, 24, 32 keep 12, 35, 108, 157."""
    full = [(i, i + k) for p in (1 << e for e in range((n - 1).bit_length()))
            for k in (p >> e for e in range(p.bit_length())) for j in range(k % p, n - k, 2 * k)
            for i in range(j, min(j + k, n - k)) if i // (2 * p) == (i + k) // (2 * p)]
    need, kept = {(n - 1) // 2, n // 2}, []
    for a, b in reversed(full):
        if a in need or b in need:
            need |= {a, b}
            kept.append((a, b))
    return tuple(kept[::-1])


def _medians(feature: np.ndarray, members: np.ndarray, offsets: np.ndarray, groups) -> np.ndarray:
    """Float64 medians of the groups of rows members[offsets[g]:offsets[g+1]] of a finite
    (N, D) feature array: the values of `np.median(x.astype(np.float64), axis=0)`, a middle
    value or the mean of the two in float64. The groups of one size form `size` (groups x D)
    planes, gathered `_BLOCK_BYTES` of rows at a time into one buffer and ordered there in the
    features' dtype: in place by `_middle_network`, one `np.minimum` and one `np.maximum` of
    whole planes a comparator, where `NETWORK_MAX_SIZE` and `NETWORK_MIN_CELLS` allow for the
    whole size class, else by sorting. On float32 planes of D = 200 (best of 20 calls, 2 cores),
    860 groups of 6 take 13.8 ms to sort and 2.3 ms by network, 95 of 24 2.5 and 1.5 ms, 10 of
    32 0.29 and 0.40 ms (about 1 us a ufunc call). With no multi-MB temporary, `run` takes 131
    minor faults a repeated `lowfps_crowd` track, against 1,475 with whole-class gathers. The
    two orders can differ only in the sign of a zero median component, which moves no
    cosine's bits.
    """
    start = offsets[groups]
    sizes = offsets[np.asarray(groups) + 1] - start
    dim = feature.shape[1]
    out = np.empty((len(sizes), dim))
    block_rows = max(_BLOCK_BYTES // max(1, feature.itemsize * dim), sizes.max(initial=0))
    buffer = np.empty(min(block_rows, sizes.sum()) * dim, dtype=feature.dtype)
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        which = np.flatnonzero(sizes == size)
        network = size <= NETWORK_MAX_SIZE and len(which) * dim >= NETWORK_MIN_CELLS
        for lo in range(0, len(which), block_rows // size):
            block = which[lo : lo + block_rows // size]
            values = buffer[: size * len(block) * dim].reshape(size, len(block), dim)
            rows = members[start[block] + np.arange(size)[:, None]]
            # "clip" (the rows are in range) lets `take` write `values` unbuffered.
            np.take(feature, rows, axis=0, out=values, mode="clip")
            planes = list(values)
            if network:
                low = np.empty_like(planes[0])
                for a, b in _middle_network(size):
                    np.minimum(planes[a], planes[b], out=low)
                    np.maximum(planes[a], planes[b], out=planes[b])
                    planes[a], low = low, planes[a]
            else:
                values.sort(axis=0)
            middle = planes[size // 2]
            if size % 2 == 0:
                middle = np.add(planes[size // 2 - 1], middle, dtype=np.float64)
                middle *= 0.5
            out[block] = middle
    return out


def _connected(count: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected-component label of each node of the graph on nodes 0..count-1 with edges
    (a[e], b[e]): the smallest node of its component.

    Label propagation over node arrays: every round hooks each root adjacent to a smaller root
    to the smallest of those, then jumps pointers until every node points at its root. Edges
    inside one tree are dropped; a round without a cross edge ends it. The smallest hook of a
    root comes from a `np.lexsort` of the cross edges, which `track` runs anyway: the first call
    of `np.minimum.at`, or of an integer `np.sort`, maps more of numpy's code and so raises the
    peak RSS of a run by about 0.1-0.4 MB.
    """
    label = np.arange(count)
    while True:
        la, lb = label[a], label[b]
        cross = la != lb
        if not cross.any():
            return label
        a, b, la, lb = a[cross], b[cross], la[cross], lb[cross]
        hi, lo = np.maximum(la, lb), np.minimum(la, lb)
        order = np.lexsort((lo, hi))
        hi, lo = hi[order], lo[order]
        first = np.concatenate(([True], hi[1:] != hi[:-1]))
        label[hi[first]] = lo[first]
        while True:
            root = label[label]
            if np.array_equal(root, label):
                break
            label = root


def _grouped(rows: np.ndarray, label: np.ndarray, n: int, width: int):
    """`members` and `offsets` (see `Level`) of the table rows `rows`, all below `width`,
    labelled 0..n-1: each label's rows ascending."""
    offsets = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(label, minlength=n), out=offsets[1:])
    return rows[np.argsort(label * width + rows)], offsets


@dataclass(frozen=True, eq=False)
class Level:
    """One level of the fusion tree: its lifted frames as arrays over one detection table.

    `table` is sorted by (frame, row). Tracklet t is the rows
    members[offsets[t]:offsets[t+1]], ascending (so in frame order), with
    median feature median[t]; tracklets are numbered in strictly increasing
    order of their first row. Lifted frame f holds tracklets
    bounds[f]..bounds[f+1]-1. Only the final level of stage 2, which is not
    fused again, has an empty `median` (no rows).
    """

    table: DetectionColumns
    members: np.ndarray
    offsets: np.ndarray
    median: np.ndarray
    bounds: np.ndarray

    def __post_init__(self):
        for name in ("members", "offsets", "median", "bounds"):
            getattr(self, name).setflags(write=False)

    def __len__(self) -> int:
        return len(self.bounds) - 1


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
        if not 1 <= self.ct < np.inf:
            raise InvalidConfigError(f"ct must be finite and >= 1, got {self.ct}")
        if not 0 < self.off <= 1:
            raise InvalidConfigError(f"off must be in (0, 1], got {self.off}")
        if not self.kf >= 0:
            raise InvalidConfigError(f"kf must be >= 0, got {self.kf}")
        if not 1 <= self.cf < np.inf:
            raise InvalidConfigError(f"cf must be finite and >= 1, got {self.cf}")
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
        # The IDs are sorted: count where they change.
        ids = self.track_id
        return int(np.count_nonzero(ids[1:] != ids[:-1])) + bool(len(ids))
