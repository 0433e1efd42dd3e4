from fcgtrack.cli import main
from fcgtrack.core import FcgConfig
from fcgtrack.io_mot import parse_detections, parse_ground_truth, write_ground_truth, write_tracks
from fcgtrack.pipeline import run
from oracles import Box, Entry, track_entries, track_set


def synth_args(out_dir, identities=3, frames=40, sigma=0.02, seed=7, dim=8):
    return [
        "synth",
        "--identities", str(identities),
        "--frames", str(frames),
        "--sigma", str(sigma),
        "--seed", str(seed),
        "--feature-dim", str(dim),
        "--out-dir", str(out_dir),
    ]


class TestSynth:
    def test_writes_three_files(self, tmp_path):
        assert main(synth_args(tmp_path / "seq")) == 0
        for name in ("det.txt", "feats.fcgf", "gt.txt"):
            assert (tmp_path / "seq" / name).exists()

    def test_deterministic(self, tmp_path):
        assert main(synth_args(tmp_path / "a")) == 0
        assert main(synth_args(tmp_path / "b")) == 0
        for name in ("det.txt", "feats.fcgf", "gt.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_occlusion_and_exit_flags(self, tmp_path):
        args = synth_args(tmp_path / "seq") + ["--occlude", "1:5:10", "--exit", "2:30"]
        assert main(args) == 0
        det = (tmp_path / "seq" / "det.txt").read_text()
        assert det.count("\n") < 3 * 40


class TestTrack:
    def test_matches_in_process_run(self, tmp_path):
        seq_dir = tmp_path / "seq"
        assert main(synth_args(seq_dir)) == 0
        out = tmp_path / "res.txt"
        assert main(
            [
                "track",
                "--det", str(seq_dir / "det.txt"),
                "--features", str(seq_dir / "feats.fcgf"),
                "--out", str(out),
                "--feature-dim", "8",
            ]
        ) == 0
        cfg = FcgConfig(feature_dim=8)
        seq = parse_detections(
            (seq_dir / "det.txt").read_bytes(),
            (seq_dir / "feats.fcgf").read_bytes(),
            cfg,
            name="det.txt",
        )
        expected = write_tracks(run(seq, cfg))
        assert out.read_bytes() == expected

    def test_repeat_runs_identical(self, tmp_path):
        seq_dir = tmp_path / "seq"
        assert main(synth_args(seq_dir)) == 0
        outs = []
        for name in ("r1.txt", "r2.txt"):
            out = tmp_path / name
            assert main(
                [
                    "track",
                    "--det", str(seq_dir / "det.txt"),
                    "--features", str(seq_dir / "feats.fcgf"),
                    "--out", str(out),
                    "--feature-dim", "8",
                ]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_all_config_flags_accepted(self, tmp_path):
        seq_dir = tmp_path / "seq"
        assert main(synth_args(seq_dir)) == 0
        out = tmp_path / "res.txt"
        code = main(
            [
                "track",
                "--det", str(seq_dir / "det.txt"),
                "--features", str(seq_dir / "feats.fcgf"),
                "--out", str(out),
                "--window", "4",
                "--tracklet-threshold", "0.06",
                "--track-threshold", "0.06",
                "--kt", "30",
                "--ct", "3",
                "--off", "0.2",
                "--kf", "1.5",
                "--cf", "2.5",
                "--score-threshold", "0.5",
                "--feature-dim", "8",
                "--no-temporal",
                "--no-spatial",
                "--motion",
                "--non-consecutive",
                "--threads", "2",
            ]
        )
        assert code == 0
        assert out.exists()


class TestEval:
    def test_prints_metric_lines(self, tmp_path, capsys):
        seq_dir = tmp_path / "seq"
        assert main(synth_args(seq_dir)) == 0
        out = tmp_path / "res.txt"
        assert main(
            [
                "track",
                "--det", str(seq_dir / "det.txt"),
                "--features", str(seq_dir / "feats.fcgf"),
                "--out", str(out),
                "--feature-dim", "8",
            ]
        ) == 0
        capsys.readouterr()
        assert main(["eval", "--gt", str(seq_dir / "gt.txt"), "--pred", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["idf1,1.000000", "id_switches,0"]

    def test_zero_score_result_rows_are_scored(self, tmp_path, capsys):
        # In a results file the seventh column is a score, not a flag.
        boxes = (Box(0, 0, 10, 10), Box(1, 0, 10, 10))
        gt, pred = tmp_path / "gt.txt", tmp_path / "res.txt"
        gt.write_bytes(write_ground_truth(track_set({
            1: tuple(Entry(f, b, 1.0) for f, b in enumerate(boxes, 1))
        })))
        pred.write_bytes(write_tracks(track_set({
            1: tuple(Entry(f, b, 0.0) for f, b in enumerate(boxes, 1))
        })))
        assert ",0.0000," in pred.read_text()
        assert main(["eval", "--gt", str(gt), "--pred", str(pred)]) == 0
        assert capsys.readouterr().out.splitlines() == ["idf1,1.000000", "id_switches,0"]


class TestSubsampleCommand:
    def test_composes_with_track(self, tmp_path):
        seq_dir = tmp_path / "seq"
        assert main(synth_args(seq_dir, frames=60)) == 0
        sub_dir = tmp_path / "sub"
        assert main(
            [
                "subsample",
                "--det", str(seq_dir / "det.txt"),
                "--features", str(seq_dir / "feats.fcgf"),
                "--ratio", "3",
                "--out-dir", str(sub_dir),
                "--gt", str(seq_dir / "gt.txt"),
                "--feature-dim", "8",
            ]
        ) == 0
        res_a = tmp_path / "a.txt"
        res_b = tmp_path / "b.txt"
        assert main(
            [
                "track",
                "--det", str(sub_dir / "det.txt"),
                "--features", str(sub_dir / "feats.fcgf"),
                "--out", str(res_a),
                "--feature-dim", "8",
            ]
        ) == 0
        assert main(
            [
                "track",
                "--det", str(seq_dir / "det.txt"),
                "--features", str(seq_dir / "feats.fcgf"),
                "--out", str(res_b),
                "--feature-dim", "8",
                "--ratio", "3",
            ]
        ) == 0
        assert res_a.read_bytes() == res_b.read_bytes()
        assert (sub_dir / "gt.txt").exists()

    def test_gt_subsampled_consistently(self, tmp_path):
        seq_dir = tmp_path / "seq"
        assert main(synth_args(seq_dir, frames=30)) == 0
        sub_dir = tmp_path / "sub"
        assert main(
            [
                "subsample",
                "--det", str(seq_dir / "det.txt"),
                "--features", str(seq_dir / "feats.fcgf"),
                "--ratio", "2",
                "--out-dir", str(sub_dir),
                "--gt", str(seq_dir / "gt.txt"),
                "--feature-dim", "8",
            ]
        ) == 0
        gt = parse_ground_truth((sub_dir / "gt.txt").read_bytes())
        frames = {e.frame for entries in track_entries(gt).values() for e in entries}
        assert frames == set(range(1, 16))


class TestExitCodes:
    def test_usage_error_unknown_flag(self, capsys):
        assert main(["track", "--bogus"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_usage_error_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_data_error_missing_file(self, tmp_path, capsys):
        code = main(
            [
                "track",
                "--det", str(tmp_path / "missing.txt"),
                "--features", str(tmp_path / "missing.fcgf"),
                "--out", str(tmp_path / "out.txt"),
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_data_error_bad_blob(self, tmp_path, capsys):
        det = tmp_path / "det.txt"
        det.write_text("1,-1,1,1,5,5,0.9,-1,-1,-1\n")
        blob = tmp_path / "feats.fcgf"
        blob.write_bytes(b"NOPE" + b"\x00" * 16)
        code = main(
            [
                "track",
                "--det", str(det),
                "--features", str(blob),
                "--out", str(tmp_path / "out.txt"),
            ]
        )
        assert code == 2
        assert "magic" in capsys.readouterr().err
