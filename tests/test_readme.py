"""The README's library example runs as written and names only existing API."""

import re
from pathlib import Path

import fcgtrack

README = Path(__file__).resolve().parents[1] / "README.md"
# Names of the per-object detection, track and tracklet layers that the package no longer has.
GONE = ("Detection", "DetectionView", "SequenceInput", "EmptyInputError", "tracklet_new",
        "common_columns", "from_detections",
        "BBox", "TrackEntry", "TrackColumns", "DimensionMismatchError", "box_array",
        "iou_distance", "box_displacement", "extrapolate", "feature_matrix", "cosine_distance",
        "tracklet_distance", "temporal_weight", "spatial_weights", "weighted_distance",
        "frame_set", "first_frame", "last_frame", "_entry_columns",
        "Tracklet", "LiftedFrame", "level_of", "fuse_lifted_frames", "weighted_matrix",
        "median_feature", "read_features")


def python_block(text):
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    return block


def test_library_example_prints_perfect_idf1(capsys):
    exec(python_block(README.read_text(encoding="utf-8")), {})
    assert capsys.readouterr().out == "1.0\n"


def test_names_no_removed_api():
    text = README.read_text(encoding="utf-8")
    for name in GONE:
        assert not hasattr(fcgtrack, name)
        assert not re.search(rf"\b{name}\b", text), name
    assert ".detections" not in text
    assert ".tracks" not in text and "tracks=" not in text
