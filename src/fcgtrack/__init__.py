"""Appearance-driven multi-object tracking by hierarchical tracklet clustering.

Detections with re-identification features are clustered into short tracklets
inside temporal windows, then the tracklets are fused across lifted frames
with spatio-temporal weighting until one set of tracks remains.
"""

from .appearance import cosine_distance, cosine_matrix, feature_matrix, tracklet_distance
from .clustering import (
    CANNOT_LINK,
    CondensedMatrix,
    ConstraintSet,
    Dendrogram,
    Merge,
    cluster,
    cluster_matrix,
    cut,
    linkage,
    linkage_matrix,
)
from .core import (
    BBox,
    DegenerateFeatureError,
    Detection,
    DimensionMismatchError,
    EmptyInputError,
    FcgConfig,
    FcgError,
    FrameConflictError,
    InvalidConfigError,
    LiftedFrame,
    ParseError,
    TrackEntry,
    TrackSet,
    Tracklet,
    tracklet_new,
)
from .geometry import box_displacement, extrapolate, iou_distance
from .io_mot import (
    SequenceInput,
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
from .weighting import (
    PairContext,
    pair_context,
    spatial_weights,
    temporal_weight,
    weighted_distance,
    weighted_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BBox",
    "CANNOT_LINK",
    "CondensedMatrix",
    "ConstraintSet",
    "DegenerateFeatureError",
    "Dendrogram",
    "Detection",
    "DimensionMismatchError",
    "EmptyInputError",
    "FcgConfig",
    "FcgError",
    "FrameConflictError",
    "InvalidConfigError",
    "LiftedFrame",
    "Merge",
    "PairContext",
    "ParseError",
    "SequenceInput",
    "SynthConfig",
    "TrackEntry",
    "TrackSet",
    "Tracklet",
    "box_displacement",
    "cluster",
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
    "linkage",
    "linkage_matrix",
    "pair_context",
    "parse_detections",
    "parse_ground_truth",
    "read_features",
    "run",
    "spatial_weights",
    "subsample",
    "subsample_tracks",
    "temporal_weight",
    "tracklet_distance",
    "tracklet_new",
    "weighted_distance",
    "weighted_matrix",
    "write_detections",
    "write_features",
    "write_ground_truth",
    "write_tracks",
]
