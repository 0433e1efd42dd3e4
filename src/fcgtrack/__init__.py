"""Appearance-driven multi-object tracking by hierarchical tracklet clustering.

Detections with re-identification features are clustered into short tracklets
inside temporal windows, then the tracklets are fused across lifted frames
with spatio-temporal weighting until one set of tracks remains.
"""

from .appearance import cosine_matrix
from .clustering import (
    CANNOT_LINK,
    Dendrogram,
    Merge,
    cluster_matrix,
    cut,
    linkage_matrix,
)
from .core import (
    DegenerateFeatureError,
    DetectionColumns,
    FcgConfig,
    FcgError,
    FrameConflictError,
    InvalidConfigError,
    Level,
    LiftedFrame,
    ParseError,
    TrackSet,
    Tracklet,
)
from .io_mot import (
    parse_detections,
    parse_ground_truth,
    read_features,
    subsample,
    subsample_tracks,
    write_detections,
    write_features,
    write_ground_truth,
    write_tracks,
)
from .metrics import id_switches, idf1
from .pipeline import fuse_lifted_frames, generate_tracklets, run
from .synthdata import SynthConfig, generate
from .weighting import weighted_matrix

__version__ = "0.1.0"

__all__ = [
    "CANNOT_LINK",
    "DegenerateFeatureError",
    "Dendrogram",
    "DetectionColumns",
    "FcgConfig",
    "FcgError",
    "FrameConflictError",
    "InvalidConfigError",
    "Level",
    "LiftedFrame",
    "Merge",
    "ParseError",
    "SynthConfig",
    "TrackSet",
    "Tracklet",
    "cluster_matrix",
    "cosine_matrix",
    "cut",
    "fuse_lifted_frames",
    "generate",
    "generate_tracklets",
    "id_switches",
    "idf1",
    "linkage_matrix",
    "parse_detections",
    "parse_ground_truth",
    "read_features",
    "run",
    "subsample",
    "subsample_tracks",
    "weighted_matrix",
    "write_detections",
    "write_features",
    "write_ground_truth",
    "write_tracks",
]
