"""Appearance-driven multi-object tracking by hierarchical tracklet clustering.

Detections with re-identification features are clustered into short tracklets
inside temporal windows, then the tracklets are fused across lifted frames
with spatio-temporal weighting until one set of tracks remains.
"""

from .appearance import cosine_distance, cosine_matrix, feature_matrix, tracklet_distance
from .clustering import (
    CANNOT_LINK,
    Dendrogram,
    Merge,
    cluster_matrix,
    cut,
    linkage_matrix,
)
from .core import (
    BBox,
    DegenerateFeatureError,
    DetectionColumns,
    DimensionMismatchError,
    FcgConfig,
    FcgError,
    FrameConflictError,
    InvalidConfigError,
    LiftedFrame,
    ParseError,
    TrackColumns,
    TrackEntry,
    TrackSet,
    Tracklet,
)
from .geometry import box_displacement, extrapolate, iou_distance
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
from .weighting import spatial_weights, temporal_weight, weighted_distance, weighted_matrix

__version__ = "0.1.0"

__all__ = [
    "BBox",
    "CANNOT_LINK",
    "DegenerateFeatureError",
    "Dendrogram",
    "DetectionColumns",
    "DimensionMismatchError",
    "FcgConfig",
    "FcgError",
    "FrameConflictError",
    "InvalidConfigError",
    "LiftedFrame",
    "Merge",
    "ParseError",
    "SynthConfig",
    "TrackColumns",
    "TrackEntry",
    "TrackSet",
    "Tracklet",
    "box_displacement",
    "cluster_matrix",
    "cosine_distance",
    "cosine_matrix",
    "cut",
    "extrapolate",
    "feature_matrix",
    "fuse_lifted_frames",
    "generate",
    "generate_tracklets",
    "id_switches",
    "idf1",
    "iou_distance",
    "linkage_matrix",
    "parse_detections",
    "parse_ground_truth",
    "read_features",
    "run",
    "spatial_weights",
    "subsample",
    "subsample_tracks",
    "temporal_weight",
    "tracklet_distance",
    "weighted_distance",
    "weighted_matrix",
    "write_detections",
    "write_features",
    "write_ground_truth",
    "write_tracks",
]
