"""Deterministic synthetic sequences with ground truth for testing trackers.

Identity k carries the k-th standard basis vector as its appearance prototype,
so with zero noise the within-identity cosine distance is exactly 0 and the
cross-identity distance exactly 1. All randomness comes from counter-style
streams keyed by (seed, identity[, frame]); emission order never affects the
generated values.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .core import BBox, Detection, InvalidConfigError, TrackEntry, TrackSet
from .io_mot import FEATURE_HEADER_MAX, SequenceInput

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


def _reflect(p: float, lo: float, hi: float) -> float:
    # Fold p into [lo, hi] as if bouncing off both ends.
    span = hi - lo
    if span <= 0:
        return lo
    q = (p - lo) % (2.0 * span)
    return lo + span - abs(q - span)


def _identity_boxes(cfg: SynthConfig, identity: int) -> list[BBox]:
    rng = np.random.default_rng([cfg.seed, identity])
    bw, bh = cfg.box_size
    max_x = cfg.arena[0] - bw
    max_y = cfg.arena[1] - bh
    x0 = rng.uniform(0.0, max_x)
    y0 = rng.uniform(0.0, max_y)
    boxes = []
    if cfg.motion_model == "linear":
        vx = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
        vy = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
        for t in range(cfg.num_frames):
            boxes.append(
                BBox(
                    _reflect(x0 + vx * t, 0.0, max_x),
                    _reflect(y0 + vy * t, 0.0, max_y),
                    bw,
                    bh,
                )
            )
    else:
        ax = rng.uniform(0.1, 0.45) * max_x
        ay = rng.uniform(0.1, 0.45) * max_y
        px = rng.uniform(40.0, 120.0)
        py = rng.uniform(40.0, 120.0)
        phx = rng.uniform(0.0, 2.0 * math.pi)
        phy = rng.uniform(0.0, 2.0 * math.pi)
        cx = rng.uniform(ax, max_x - ax)
        cy = rng.uniform(ay, max_y - ay)
        for t in range(cfg.num_frames):
            boxes.append(
                BBox(
                    cx + ax * math.sin(2.0 * math.pi * t / px + phx),
                    cy + ay * math.sin(2.0 * math.pi * t / py + phy),
                    bw,
                    bh,
                )
            )
    return boxes


def _feature(cfg: SynthConfig, identity: int, frame: int) -> np.ndarray:
    proto = np.zeros(cfg.feature_dim, dtype=np.float64)
    proto[identity - 1] = 1.0
    if cfg.feature_noise_sigma == 0.0:
        return proto
    rng = np.random.default_rng([cfg.seed, identity, frame])
    v = proto + rng.normal(0.0, cfg.feature_noise_sigma, cfg.feature_dim)
    return v / np.linalg.norm(v)


def generate(cfg: SynthConfig) -> tuple[SequenceInput, TrackSet]:
    """Emit detections and matching ground truth for the configured scene.

    Occluded frames and frames at or past an identity's exit produce nothing.
    Scores are fixed at 1.0; ground-truth track IDs equal identity numbers.
    """
    hidden: dict[int, set[int]] = defaultdict(set)
    for identity, start, end in cfg.occlusions:
        hidden[identity].update(range(start, end + 1))
    for identity, exit_frame in cfg.exits:
        hidden[identity].update(range(exit_frame, cfg.num_frames + 1))

    boxes = {k: _identity_boxes(cfg, k) for k in range(1, cfg.num_identities + 1)}
    detections: list[Detection] = []
    gt: dict[int, list[TrackEntry]] = defaultdict(list)
    row = 0
    for frame in range(1, cfg.num_frames + 1):
        for identity in range(1, cfg.num_identities + 1):
            if frame in hidden[identity]:
                continue
            bbox = boxes[identity][frame - 1]
            detections.append(
                Detection(
                    frame=frame,
                    bbox=bbox,
                    score=1.0,
                    feature=_feature(cfg, identity, frame),
                    source_row=row,
                )
            )
            gt[identity].append(TrackEntry(frame, bbox, 1.0))
            row += 1

    seq = SequenceInput(detections=tuple(detections))
    truth = TrackSet(tracks={k: tuple(v) for k, v in gt.items()})
    return seq, truth
