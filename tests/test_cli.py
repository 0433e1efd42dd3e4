import os
import stat
import struct

import pytest

from fcgtrack import cli
from fcgtrack.cli import _write, main
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


def track_args(seq_dir, out):
    return ["track", "--det", str(seq_dir / "det.txt"), "--features", str(seq_dir / "feats.fcgf"),
            "--out", str(out), "--feature-dim", "8"]


def halved_dimension(blob):
    """A sidecar's header rewritten to twice the rows at half the dimension: its length still
    matches, and the dimension does not match the configured one."""
    magic, version, rows, dim = struct.unpack_from("<4sIII", blob)
    return struct.pack("<4sIII", magic, version, 2 * rows, dim // 2) + blob[16:]


def subsample_args(seq_dir, out_dir):
    return ["subsample", "--det", str(seq_dir / "det.txt"), "--features",
            str(seq_dir / "feats.fcgf"), "--ratio", "2", "--out-dir", str(out_dir),
            "--gt", str(seq_dir / "gt.txt"), "--feature-dim", "8"]


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

    @pytest.mark.parametrize(
        "corrupt",
        [lambda blob: b"NOPE" + blob[4:], lambda blob: blob[:-5], halved_dimension],
        ids=["bad-magic", "truncated", "dimension"],
    )
    def test_sidecar_errors_name_the_features_file(self, tmp_path, capsys, corrupt):
        seq = tmp_path / "seq"
        assert main(synth_args(seq)) == 0
        feats = seq / "feats.fcgf"
        feats.write_bytes(corrupt(feats.read_bytes()))
        assert main(track_args(seq, tmp_path / "res.txt")) == 2
        assert capsys.readouterr().err.startswith("error: feats.fcgf: ")

    def test_zero_dimension_header_names_the_sidecar(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        assert main(synth_args(seq)) == 0
        feats = seq / "feats.fcgf"
        blob = feats.read_bytes()
        feats.write_bytes(blob[:12] + struct.pack("<I", 0) + blob[16:])
        assert main(track_args(seq, tmp_path / "res.txt")) == 2
        assert capsys.readouterr().err == "error: feats.fcgf: feature blob declares dimension 0\n"

    @pytest.mark.parametrize(
        "exc", [MemoryError(), MemoryError("Unable to allocate 1.33 TiB for an array")],
        ids=["bare", "numpy"],
    )
    def test_memory_error_is_a_data_error(self, tmp_path, capsys, monkeypatch, exc):
        # A frame index near 2**40 makes `run` ask numpy for more memory than exists.
        seq = tmp_path / "seq"
        assert main(synth_args(seq)) == 0

        def exhausted(*args):
            raise exc

        monkeypatch.setattr(cli, "run", exhausted)
        assert main(track_args(seq, tmp_path / "res.txt")) == 2
        err = capsys.readouterr().err
        assert err == f"error: {exc or 'MemoryError'}\n"


class TestParser:
    def test_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_no_flag_leaks_into_the_next_call(self, tmp_path, monkeypatch):
        """argparse copies an append flag's default before appending, so the one
        parser gives a later `synth` without `--occlude` no occlusions."""
        occlusions, generate = [], cli.generate

        def spy(cfg):
            occlusions.append(cfg.occlusions)
            return generate(cfg)

        monkeypatch.setattr(cli, "generate", spy)
        assert main(synth_args(tmp_path / "a") + ["--occlude", "1:5:9"]) == 0
        assert main(synth_args(tmp_path / "b")) == 0
        assert occlusions == [((1, 5, 9),), ()]
        assert main(["track", "--det", "det.txt"]) == 1


class TestWrite:
    """`_write` rewrites a file in place, never truncating it to zero bytes first."""

    NEW = b"0123456789\n" * 10

    @pytest.mark.parametrize(
        "old", [b"x" * 500, b"y" * 7, b"z" * 110], ids=["longer", "shorter", "equal"]
    )
    def test_an_existing_file_ends_holding_the_new_bytes(self, tmp_path, old):
        path = tmp_path / "out.txt"
        path.write_bytes(old)
        path.chmod(0o640)
        before = path.stat()
        _write(path, self.NEW)
        after = path.stat()
        assert path.read_bytes() == self.NEW
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)

    def test_a_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_bytes(b"x" * 500)
        link.symlink_to(target)
        _write(link, self.NEW)
        assert link.is_symlink() and target.read_bytes() == self.NEW

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_a_pipe_is_written(self):
        r, w = os.pipe()
        with os.fdopen(r, "rb") as reader:
            try:
                _write(f"/dev/fd/{w}", self.NEW)
            finally:
                os.close(w)
            assert reader.read() == self.NEW

    def test_dev_null_is_written(self):
        _write(os.devnull, self.NEW)
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_no_existing_output_is_truncated(self, tmp_path, monkeypatch):
        """`synth`, `subsample` and `track` rerun over their own longer outputs open each
        with `os.open` without O_TRUNC and never cut one to zero bytes; each output then
        equals that of a run into new files."""

        def run_all(top, frames):
            assert main(synth_args(top / "seq", frames=frames)) == 0
            assert main(subsample_args(top / "seq", top / "sub")) == 0
            assert main(track_args(top / "seq", top / "res.txt")) == 0
            files = ("det.txt", "feats.fcgf", "gt.txt")
            return [top / "res.txt"] + [top / d / name for d in ("seq", "sub") for name in files]

        run_all(tmp_path / "old", 40)
        opened, cuts = {}, []
        real_open, real_ftruncate = os.open, os.ftruncate

        def spy_open(path, flags, *args, **kwargs):
            opened[os.fspath(path)] = flags
            return real_open(path, flags, *args, **kwargs)

        def spy_ftruncate(fd, length):
            cuts.append(length)
            return real_ftruncate(fd, length)

        monkeypatch.setattr(os, "open", spy_open)
        monkeypatch.setattr(os, "ftruncate", spy_ftruncate)
        outputs = run_all(tmp_path / "old", 30)
        monkeypatch.undo()
        assert {str(path) for path in outputs} <= opened.keys()
        assert not any(opened[str(path)] & os.O_TRUNC for path in outputs)
        assert len(cuts) == len(outputs) and 0 not in cuts
        for path, fresh in zip(outputs, run_all(tmp_path / "new", 30)):
            assert path.read_bytes() == fresh.read_bytes()
