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
    ParseError,
    TrackSet,
)
from .io_mot import (
    parse_detections,
    parse_ground_truth,
    subsample,
    subsample_tracks,
    write_detections,
    write_features,
    write_ground_truth,
    write_tracks,
)
from .metrics import id_switches, idf1
from .pipeline import generate_tracklets, run
from .synthdata import SynthConfig, generate

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
    "Merge",
    "ParseError",
    "SynthConfig",
    "TrackSet",
    "cluster_matrix",
    "cosine_matrix",
    "cut",
    "generate",
    "generate_tracklets",
    "id_switches",
    "idf1",
    "linkage_matrix",
    "parse_detections",
    "parse_ground_truth",
    "run",
    "subsample",
    "subsample_tracks",
    "write_detections",
    "write_features",
    "write_ground_truth",
    "write_tracks",
]
