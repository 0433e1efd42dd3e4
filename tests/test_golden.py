"""Golden output: the sha256 of `write_tracks(run(...))` on small generated scenes.

The digests were taken from the tracker before stage 2 moved onto per-level
arrays, and pin every output byte of the scenes below across such
refactors; that of `noisy_motion` was taken before stage 2 weighed only the
pairs its cut can reach, and those of the two `sigma_07` scenes while the
linkage still had a second, single-instance loop, and that of `sigma_03`
while `weighting._share_frame` still paired every same-frame row of the
tracklets it was asked about, and that of `sigma_05` while `pairs` still took
one index array per axis. A scene whose digest moves
has changed behaviour, not layout. SciPy's average linkage, the paper's, gives
the same bytes.
"""

import hashlib

import pytest

from fcgtrack import pipeline
from fcgtrack.core import FcgConfig
from fcgtrack.io_mot import subsample, write_tracks
from fcgtrack.pipeline import run
from fcgtrack.synthdata import SynthConfig, generate
from oracles import scipy_cluster_batch

# Eight identities over 60 frames with re-appearances, an exit and enough
# noise that some tracklets fragment and stage 2 has medians to recompute.
BUSY = SynthConfig(
    num_identities=8, num_frames=60, feature_dim=16, feature_noise_sigma=0.06,
    occlusions=((2, 10, 25), (5, 30, 33), (7, 1, 12)), exits=((3, 44),), seed=17,
)
# 42 frames, so 7 windows of 6: level sizes 7, 4, 2, 1, with an odd
# trailing lifted frame at the first level. Nobody is seen in frames 13-24,
# so windows 2 and 3 are empty and so is one fusion.
GAPPED = SynthConfig(
    num_identities=3, num_frames=42, feature_dim=8, feature_noise_sigma=0.05,
    occlusions=((1, 13, 24), (2, 13, 30), (3, 7, 24)), seed=23,
)
# Noisy enough that stage 2 links about 200 components that are not cliques,
# with motion extrapolation on: the linkage core and the motion weights,
# which no benchmark workload reaches.
NOISY = SynthConfig(
    num_identities=12, num_frames=60, feature_dim=16, feature_noise_sigma=0.07, seed=3,
)
# 60 identities over 120 frames, 7,200 detections: stage 1 and stage 2 each
# link hundreds of components in one tensor, stepped together down to the
# last one.
SIGMA_07 = SynthConfig(
    num_identities=60, num_frames=120, feature_dim=64, feature_noise_sigma=0.07, seed=3,
)
# The same scene at sigma = 0.03, where same-identity distances sit at the
# threshold: stage 2 asks thousands of pairs whose frame spans interleave
# whether they share a frame, in levels crowded with tracklets.
SIGMA_03 = SynthConfig(
    num_identities=60, num_frames=120, feature_dim=64, feature_noise_sigma=0.03, seed=3,
)
# And at sigma = 0.05, where stage 1 leaves singletons that only the overlap
# factor `off` of the spatial weights joins in stage 2.
SIGMA_05 = SynthConfig(
    num_identities=60, num_frames=120, feature_dim=64, feature_noise_sigma=0.05, seed=3,
)

SCENES = {
    "default": (BUSY, 1, FcgConfig(feature_dim=16)),
    "motion": (BUSY, 1, FcgConfig(feature_dim=16, use_motion=True)),
    "non_consecutive": (BUSY, 1, FcgConfig(feature_dim=16, consecutive=False)),
    "gapped": (GAPPED, 1, FcgConfig(feature_dim=8)),
    "ratio_3": (BUSY, 3, FcgConfig(feature_dim=16)),
    "noisy_motion": (NOISY, 1, FcgConfig(feature_dim=16, use_motion=True)),
    "sigma_03": (SIGMA_03, 1, FcgConfig(feature_dim=64)),
    "sigma_05": (SIGMA_05, 1, FcgConfig(feature_dim=64)),
    "sigma_07": (SIGMA_07, 1, FcgConfig(feature_dim=64)),
    "sigma_07_motion": (SIGMA_07, 1, FcgConfig(feature_dim=64, use_motion=True)),
}

GOLDEN = {
    "default": "33f490bb6513f23bd12a7014715fb23114f375f718c3b7533cdfa555c9af7ecb",
    "motion": "c820c98827780696b32f67b7f0b682e19d40127b6b36b37b1738f64c73586c74",
    "non_consecutive": "37b423383adb1e23da881ef7e1504001801515034dc74039a4d32dab584df262",
    "gapped": "94118ae78fb3d3ef2e130c41b2bad44f297326b7d9f725bc61dc1d7c56b553c9",
    "ratio_3": "503b38bbe4e01d341c6699e6b6465437f5e14a78fd457f35c3a4097590b35783",
    "noisy_motion": "dbad3a6642c1465f1909d57ff95aba424f28739ab78c64c248c8f827288e5c0c",
    "sigma_03": "40e6426a48d9ecd6f37b7acb72d8253369c43853f1eeffb0380b3453cf8d078e",
    "sigma_05": "03ec8ec4fe19b6caa212b11ab7d283c228db7561b4819ea518ac76152b68a025",
    "sigma_07": "843f6446c76445d25079c100124b7a814dbd5f166bace9214b174b73facb14df",
    "sigma_07_motion": "e50cc33b1f735647f786e0d8a55eb14764f534aa10e20f076284880d7b0bf613",
}


def _digest(scene):
    synth, ratio, cfg = SCENES[scene]
    detections, _ = generate(synth)
    return hashlib.sha256(write_tracks(run(subsample(detections, ratio), cfg))).hexdigest()


@pytest.mark.parametrize("scene", sorted(SCENES))
def test_track_output_bytes(scene):
    assert _digest(scene) == GOLDEN[scene]


@pytest.mark.parametrize("scene", sorted(SCENES))
def test_scipy_average_linkage_gives_the_same_bytes(scene, monkeypatch):
    pytest.importorskip("scipy.cluster.hierarchy")
    monkeypatch.setattr(pipeline, "cluster_batch", scipy_cluster_batch)
    assert _digest(scene) == GOLDEN[scene]
