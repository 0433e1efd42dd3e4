"""Deterministic synthetic sequences with ground truth for testing trackers.

Identity k carries the k-th standard basis vector as its appearance prototype,
so with zero noise the within-identity cosine distance is exactly 0 and the
cross-identity distance exactly 1. All randomness comes from counter-style
streams keyed by (seed, identity[, frame]); emission order never affects the
generated values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DetectionColumns, InvalidConfigError, TrackSet
from .io_mot import FEATURE_HEADER_MAX

MOTION_MODELS = ("linear", "sinusoidal")


@dataclass(frozen=True)
class SynthConfig:
    num_identities: int
    num_frames: int
    feature_dim: int = 2048
    feature_noise_sigma: float = 0.0
    motion_model: str = "linear"
    occlusions: tuple[tuple[int, int, int], ...] = ()
    exits: tuple[tuple[int, int], ...] = ()
    arena: tuple[float, float] = (1920.0, 1080.0)
    box_size: tuple[float, float] = (50.0, 100.0)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "occlusions", tuple(tuple(o) for o in self.occlusions))
        object.__setattr__(self, "exits", tuple(tuple(e) for e in self.exits))
        object.__setattr__(self, "arena", tuple(self.arena))
        object.__setattr__(self, "box_size", tuple(self.box_size))
        if self.num_identities < 1:
            raise InvalidConfigError("num_identities must be >= 1")
        if self.num_frames < 1:
            raise InvalidConfigError("num_frames must be >= 1")
        if self.feature_dim < self.num_identities:
            raise InvalidConfigError(
                f"feature_dim {self.feature_dim} must be >= num_identities "
                f"{self.num_identities} (one prototype axis per identity)"
            )
        if self.feature_dim > FEATURE_HEADER_MAX:
            raise InvalidConfigError(
                f"feature_dim must be <= {FEATURE_HEADER_MAX}, got {self.feature_dim}"
            )
        sigma = self.feature_noise_sigma
        if not (sigma >= 0 and math.isfinite(sigma)):
            raise InvalidConfigError(f"feature_noise_sigma must be finite and >= 0, got {sigma}")
        if self.motion_model not in MOTION_MODELS:
            raise InvalidConfigError(
                f"motion_model must be one of {MOTION_MODELS}, got {self.motion_model!r}"
            )
        if not (0 <= self.seed < 2**64):
            raise InvalidConfigError("seed must be a 64-bit unsigned integer")
        for identity, start, end in self.occlusions:
            if not 1 <= identity <= self.num_identities:
                raise InvalidConfigError(f"occlusion for unknown identity {identity}")
            if not 1 <= start <= end <= self.num_frames:
                raise InvalidConfigError(
                    f"occlusion frames [{start}, {end}] outside [1, {self.num_frames}]"
                )
        for identity, exit_frame in self.exits:
            if not 1 <= identity <= self.num_identities:
                raise InvalidConfigError(f"exit for unknown identity {identity}")
            if not 1 <= exit_frame <= self.num_frames:
                raise InvalidConfigError(
                    f"exit frame {exit_frame} outside [1, {self.num_frames}]"
                )
        for name in ("arena", "box_size"):
            if not all(map(math.isfinite, getattr(self, name))):
                raise InvalidConfigError(f"{name} must be finite, got {getattr(self, name)}")
        bw, bh = self.box_size
        if bw <= 0 or bh <= 0:
            raise InvalidConfigError("box_size must be positive")
        if self.arena[0] <= bw or self.arena[1] <= bh:
            raise InvalidConfigError("arena must be larger than the box size")


def _reflect(p: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # Fold p into [lo, hi] as if bouncing off both ends; `SynthConfig`
    # makes the arena larger than the box, so hi > lo.
    span = hi - lo
    q = np.remainder(p - lo, 2.0 * span)
    return lo + span - np.abs(q - span)


def _identity_boxes(cfg: SynthConfig, identity: int) -> np.ndarray:
    """(num_frames, 4) boxes of one identity, row t at frame t + 1."""
    rng = np.random.default_rng([cfg.seed, identity])
    bw, bh = cfg.box_size
    max_x = cfg.arena[0] - bw
    max_y = cfg.arena[1] - bh
    x0 = rng.uniform(0.0, max_x)
    y0 = rng.uniform(0.0, max_y)
    t = np.arange(cfg.num_frames, dtype=np.float64)
    steps = range(cfg.num_frames)
    if cfg.motion_model == "linear":
        vx = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
        vy = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
        x = _reflect(x0 + vx * t, 0.0, max_x)
        y = _reflect(y0 + vy * t, 0.0, max_y)
    else:
        ax = rng.uniform(0.1, 0.45) * max_x
        ay = rng.uniform(0.1, 0.45) * max_y
        px = rng.uniform(40.0, 120.0)
        py = rng.uniform(40.0, 120.0)
        phx = rng.uniform(0.0, 2.0 * math.pi)
        phy = rng.uniform(0.0, 2.0 * math.pi)
        cx = rng.uniform(ax, max_x - ax)
        cy = rng.uniform(ay, max_y - ay)
        # math.sin, not np.sin: numpy's vectorised sine may round differently.
        x = cx + ax * np.array([math.sin(2.0 * math.pi * k / px + phx) for k in steps])
        y = cy + ay * np.array([math.sin(2.0 * math.pi * k / py + phy) for k in steps])
    return np.stack([x, y, np.full_like(t, bw), np.full_like(t, bh)], axis=1)


def generate(cfg: SynthConfig) -> tuple[DetectionColumns, TrackSet]:
    """Emit detections and matching ground truth for the configured scene.

    Occluded frames and frames at or past an identity's exit produce nothing.
    Detections are emitted frame by frame, identities in order within a
    frame; their source rows count from 0 in that order. Scores are fixed at
    1.0; ground-truth track IDs equal identity numbers.
    """
    visible = np.ones((cfg.num_frames, cfg.num_identities), dtype=bool)
    for identity, start, end in cfg.occlusions:
        visible[start - 1 : end, identity - 1] = False
    for identity, exit_frame in cfg.exits:
        visible[exit_frame - 1 :, identity - 1] = False
    t, k = np.nonzero(visible)  # frame-major, as emitted
    boxes = np.stack([_identity_boxes(cfg, i + 1) for i in range(cfg.num_identities)], axis=1)
    box = boxes[t, k]
    feature = np.zeros((len(t), cfg.feature_dim))
    feature[np.arange(len(t)), k] = 1.0
    if cfg.feature_noise_sigma != 0.0:
        for n, (frame, identity) in enumerate(zip((t + 1).tolist(), (k + 1).tolist())):
            rng = np.random.default_rng([cfg.seed, identity, frame])
            v = feature[n] + rng.normal(0.0, cfg.feature_noise_sigma, cfg.feature_dim)
            feature[n] = v / np.linalg.norm(v)
    frame = t + 1
    seq = DetectionColumns(frame, box, np.ones(len(t)), np.arange(len(t)), feature)
    order = np.lexsort((frame, k))
    truth = TrackSet(k[order] + 1, frame[order], box[order], np.ones(len(t)))
    return seq, truth
