import hashlib
import re

import numpy as np
import pytest

from fcgtrack.core import InvalidConfigError
from fcgtrack.io_mot import detection_features, write_detections, write_ground_truth
from fcgtrack.synthdata import SynthConfig, generate
from oracles import cosine_distance, track_entries


class TestGenerate:
    def test_counts_and_exact_distances_with_zero_noise(self):
        seq, gt = generate(SynthConfig(num_identities=2, num_frames=10, feature_dim=4, seed=1))
        assert len(seq) == 20
        by_id = {}
        for feature in seq.feature:
            by_id.setdefault(int(np.argmax(feature)), []).append(feature)
        same = [
            cosine_distance(a, b)
            for feats in by_id.values()
            for a, b in zip(feats, feats[1:])
        ]
        cross = [
            cosine_distance(a, b)
            for a in by_id[0]
            for b in by_id[1]
        ]
        assert all(d == 0.0 for d in same)
        assert all(d == 1.0 for d in cross)

    def test_occlusion_removes_frames(self):
        cfg = SynthConfig(
            num_identities=1, num_frames=10, feature_dim=2,
            occlusions=((1, 4, 6),), seed=1,
        )
        seq, gt = generate(cfg)
        assert len(seq) == 7
        assert set(seq.frame.tolist()) == {1, 2, 3, 7, 8, 9, 10}
        assert [e.frame for e in track_entries(gt)[1]] == [1, 2, 3, 7, 8, 9, 10]

    def test_exit_removes_tail(self):
        cfg = SynthConfig(
            num_identities=1, num_frames=10, feature_dim=2, exits=((1, 8),), seed=1
        )
        seq, _ = generate(cfg)
        assert seq.frame.tolist() == list(range(1, 8))

    def test_deterministic_bytes(self):
        cfg = SynthConfig(
            num_identities=3, num_frames=25, feature_dim=8,
            feature_noise_sigma=0.1, motion_model="sinusoidal", seed=99,
        )
        a_seq, a_gt = generate(cfg)
        b_seq, b_gt = generate(cfg)
        assert write_detections(a_seq) == write_detections(b_seq)
        assert write_ground_truth(a_gt) == write_ground_truth(b_gt)
        assert np.array_equal(detection_features(a_seq), detection_features(b_seq))

    def test_gt_and_sequence_share_boxes(self):
        cfg = SynthConfig(
            num_identities=3, num_frames=15, feature_dim=4,
            occlusions=((2, 5, 9),), exits=((3, 12),), seed=5,
        )
        seq, gt = generate(cfg)
        from_seq = sorted(
            (frame, *box) for frame, box in zip(seq.frame.tolist(), seq.box.tolist())
        )
        from_gt = sorted(
            (e.frame, e.bbox.x, e.bbox.y, e.bbox.w, e.bbox.h)
            for entries in track_entries(gt).values()
            for e in entries
        )
        assert from_seq == from_gt

    def test_noise_increases_within_identity_distance(self):
        def mean_within(sigma):
            dists = []
            for seed in range(100):
                cfg = SynthConfig(
                    num_identities=1, num_frames=2, feature_dim=16,
                    feature_noise_sigma=sigma, seed=seed,
                )
                seq, _ = generate(cfg)
                dists.append(
                    cosine_distance(seq.feature[0], seq.feature[1])
                )
            return float(np.mean(dists))

        assert mean_within(0.1) > mean_within(0.02)

    def test_unit_norm_features(self):
        cfg = SynthConfig(
            num_identities=2, num_frames=5, feature_dim=8,
            feature_noise_sigma=0.2, seed=3,
        )
        seq, _ = generate(cfg)
        for feature in seq.feature:
            assert np.linalg.norm(feature) == pytest.approx(1.0, abs=1e-12)

    def test_boxes_stay_in_arena(self):
        for model in ("linear", "sinusoidal"):
            cfg = SynthConfig(
                num_identities=4, num_frames=400, feature_dim=4,
                motion_model=model, arena=(400.0, 300.0), box_size=(30.0, 60.0),
                seed=11,
            )
            seq, _ = generate(cfg)
            for x, y, w, h in seq.box.tolist():
                assert 0.0 <= x and x + w <= 400.0 + 1e-9
                assert 0.0 <= y and y + h <= 300.0 + 1e-9

    def test_source_rows_follow_emission_order(self):
        seq, _ = generate(SynthConfig(num_identities=2, num_frames=5, feature_dim=2, seed=1))
        assert seq.row.tolist() == list(range(10))


class TestSynthConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_identities": 0, "num_frames": 5},
            {"num_identities": 2, "num_frames": 0},
            {"num_identities": 5, "num_frames": 5, "feature_dim": 3},
            {"num_identities": 1, "num_frames": 5, "feature_noise_sigma": -0.1},
            {"num_identities": 1, "num_frames": 5, "motion_model": "warp"},
            {"num_identities": 1, "num_frames": 5, "occlusions": ((1, 0, 3),)},
            {"num_identities": 1, "num_frames": 5, "occlusions": ((2, 1, 3),)},
            {"num_identities": 1, "num_frames": 5, "exits": ((1, 9),)},
            {"num_identities": 1, "num_frames": 5, "arena": (40.0, 300.0)},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(InvalidConfigError):
            SynthConfig(**kwargs)


    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"seed": 2**64}, "seed must be a 64-bit unsigned integer"),
            ({"exits": ((2, 3),)}, "exit for unknown identity 2"),
            ({"box_size": (0.0, 100.0)}, "box_size must be positive"),
            ({"box_size": (50.0, -1.0)}, "box_size must be positive"),
        ],
    )
    def test_rejects_naming_the_rule(self, kwargs, message):
        with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
            SynthConfig(num_identities=1, num_frames=5, **kwargs)


class TestNonFiniteConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("feature_noise_sigma", float("nan")),
            ("feature_noise_sigma", float("inf")),
            ("arena", (float("nan"), 500.0)),
            ("arena", (1920.0, float("inf"))),
            ("arena", (float("inf"), float("inf"))),
            ("box_size", (float("nan"), 5.0)),
            ("box_size", (50.0, float("nan"))),
            ("box_size", (float("inf"), 5.0)),
        ],
    )
    def test_rejected_naming_the_field(self, field, value):
        with pytest.raises(InvalidConfigError, match=f"^{field} must be finite"):
            SynthConfig(num_identities=1, num_frames=5, **{field: value})

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--arena", "nanx500", "arena must be finite, got (nan, 500.0)"),
            ("--box", "50xinf", "box_size must be finite, got (50.0, inf)"),
            ("--sigma", "nan", "feature_noise_sigma must be finite and >= 0, got nan"),
            ("--sigma", "inf", "feature_noise_sigma must be finite and >= 0, got inf"),
        ],
    )
    def test_synth_command_names_the_field(self, tmp_path, capsys, flag, value, message):
        from fcgtrack.cli import main

        argv = ["synth", "--identities", "2", "--frames", "5", "--feature-dim", "4",
                "--out-dir", str(tmp_path / "seq"), flag, value]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "seq").exists()


class TestFeatureDimBound:
    """The sidecar header stores the dimension as u32, so larger ones are refused up front."""

    @pytest.mark.parametrize("dim", ["4294967296", "99999999999999999999"])
    def test_synth_command_names_the_field(self, tmp_path, capsys, dim):
        from fcgtrack.cli import main

        argv = ["synth", "--identities", "1", "--frames", "1", "--exit", "1:1",
                "--feature-dim", dim, "--out-dir", str(tmp_path / "seq")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: feature_dim must be <= 4294967295, got {dim}\n"
        assert not (tmp_path / "seq").exists()


class TestPinnedSynthBytes:
    """`synth` writes these exact files; the benchmark's inputs come from the same generator."""

    SCENES = {
        "linear, occlusion and exit": (
            ["--identities", "4", "--frames", "40", "--sigma", "0.02", "--seed", "3",
             "--feature-dim", "8", "--occlude", "2:10:20", "--exit", "3:30"],
            {
                "det.txt": "0e4828b6110d28bc5625ddef7f8a1cc0fccd68986aed9b4d1e0c4a25278d6ec0",
                "feats.fcgf": "edf689a51a30a5d407e4565d97e0f4ec0ea2685f8d1fc62663273b31a20481a1",
                "gt.txt": "66c94084f9d80759daab324d03e4ea8ede4382e127c39e39570029ad6f03ca30",
            },
        ),
        "sinusoidal": (
            ["--identities", "3", "--frames", "50", "--motion-model", "sinusoidal",
             "--sigma", "0.05", "--seed", "11", "--feature-dim", "8"],
            {
                "det.txt": "61fa6afadb58a4e44eef4bb1f2bf90e328158f07dfbc365657e09b77adbdbcd2",
                "feats.fcgf": "6e539c6c1b86e5e5e6601ddd8c1ef76cadc3c2cb59c47188c3672de0162a6993",
                "gt.txt": "e89c86a27ab604b74a6dfd276ddaa4c03a594b516264fb8030ff1e0a7b70d70f",
            },
        ),
        "every identity exits at frame 1": (
            ["--identities", "2", "--frames", "5", "--exit", "1:1", "--exit", "2:1",
             "--feature-dim", "4"],
            {
                "det.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "feats.fcgf": "ba221db5f00305aae19b2f8c3e2a5b772999237ecab0c5a5eaca2ba222a33343",
                "gt.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            },
        ),
    }

    @pytest.mark.parametrize("scene", sorted(SCENES))
    def test_sha256(self, tmp_path, scene):
        from fcgtrack.cli import main

        argv, expected = self.SCENES[scene]
        assert main(["synth", *argv, "--out-dir", str(tmp_path)]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected
        }
        assert digests == expected
