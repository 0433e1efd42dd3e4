"""`track` and `subsample` reject an out-of-range --ratio alike, and `track`
an out-of-range --threads or --window, each before reading any file."""

import threading

import pytest

from fcgtrack.cli import main
from test_cli import synth_args


@pytest.fixture
def seq_dir(tmp_path):
    path = tmp_path / "seq"
    assert main(synth_args(path, frames=12)) == 0
    return path


def track(seq_dir, out, *flags):
    return main(
        [
            "track",
            "--det", str(seq_dir / "det.txt"),
            "--features", str(seq_dir / "feats.fcgf"),
            "--out", str(out),
            "--feature-dim", "8",
            *flags,
        ]
    )


@pytest.mark.parametrize("ratio", ["0", "-3"])
def test_track_rejects_ratio_below_one(seq_dir, tmp_path, capsys, ratio):
    out = tmp_path / "out.txt"
    assert track(seq_dir, out, "--ratio", ratio) == 2
    assert capsys.readouterr().err == f"error: ratio must be >= 1, got {ratio}\n"
    assert not out.exists()


def test_subsample_message_is_the_same(seq_dir, tmp_path, capsys):
    code = main(
        [
            "subsample",
            "--det", str(seq_dir / "det.txt"),
            "--features", str(seq_dir / "feats.fcgf"),
            "--ratio", "0",
            "--out-dir", str(tmp_path / "sub"),
            "--feature-dim", "8",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: ratio must be >= 1, got 0\n"


def test_track_rejects_negative_threads(seq_dir, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert track(seq_dir, out, "--threads", "-1") == 2
    assert capsys.readouterr().err == "error: threads must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "1", "2"])
def test_track_accepts_nonnegative_threads(seq_dir, tmp_path, threads):
    assert track(seq_dir, tmp_path / "a.txt", "--threads", threads) == 0
    assert track(seq_dir, tmp_path / "b.txt") == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


@pytest.mark.parametrize("threads", ["0", "8"])
def test_threads_start_no_thread(seq_dir, tmp_path, monkeypatch, threads):
    # seq_dir spans 12 frames, two windows at the default window of 6.
    assert track(seq_dir, tmp_path / "one.txt", "--threads", "1") == 0

    def refuse(self):
        raise AssertionError(f"thread started: {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert track(seq_dir, tmp_path / "many.txt", "--threads", threads) == 0
    assert (tmp_path / "many.txt").read_bytes() == (tmp_path / "one.txt").read_bytes()


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_track_rejects_kf_that_is_not_nonnegative(seq_dir, tmp_path, capsys, value):
    out = tmp_path / "out.txt"
    assert track(seq_dir, out, "--kf", value) == 2
    assert capsys.readouterr().err == f"error: kf must be >= 0, got {float(value)}\n"
    assert not out.exists()


@pytest.fixture
def empty_dir(tmp_path):
    import numpy as np

    from fcgtrack.io_mot import write_features

    path = tmp_path / "empty"
    path.mkdir()
    (path / "det.txt").write_bytes(b"")
    (path / "feats.fcgf").write_bytes(write_features(np.zeros((0, 8))))
    return path


@pytest.mark.parametrize("flag", ["--track-threshold", "--tracklet-threshold"])
@pytest.mark.parametrize("value", ["inf", "1e6", "2e6"])
def test_track_rejects_threshold_at_or_above_cannot_link(
    seq_dir, empty_dir, tmp_path, capsys, flag, value
):
    field = flag[2:].replace("-", "_")
    for source in (seq_dir, empty_dir):
        out = tmp_path / "out.txt"
        assert track(source, out, flag, value) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be in (0, 1000000.0), got ")
        assert not out.exists()


BEYOND_INT64 = "99999999999999999999"
INT64_MAX = 2**63 - 1


def missing_input(tmp_path, command, *flags):
    # No input file exists, so an error about a flag shows it was checked first.
    missing = tmp_path / "missing"
    out = ["--out", str(tmp_path / "out.txt")] if command == "track" else [
        "--out-dir", str(tmp_path / "sub")]
    return main(
        [
            command,
            "--det", str(missing / "det.txt"),
            "--features", str(missing / "feats.fcgf"),
            *out,
            *flags,
        ]
    )


@pytest.mark.parametrize("command", ["track", "subsample"])
@pytest.mark.parametrize(
    "ratio, message",
    [
        ("0", "ratio must be >= 1, got 0"),
        ("-3", "ratio must be >= 1, got -3"),
        (BEYOND_INT64, f"ratio must be <= {INT64_MAX}, got {BEYOND_INT64}"),
        (str(INT64_MAX + 1), f"ratio must be <= {INT64_MAX}, got {INT64_MAX + 1}"),
    ],
)
def test_ratio_is_checked_before_any_file_is_read(tmp_path, capsys, command, ratio, message):
    assert missing_input(tmp_path, command, "--ratio", ratio) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.txt").exists() and not (tmp_path / "sub").exists()


def test_window_beyond_int64_is_checked_before_any_file_is_read(tmp_path, capsys):
    assert missing_input(tmp_path, "track", "--window", BEYOND_INT64) == 2
    assert capsys.readouterr().err == (
        f"error: window must be <= {INT64_MAX}, got {BEYOND_INT64}\n"
    )


@pytest.mark.parametrize("flag", ["--ratio", "--window"])
def test_largest_int64_is_accepted(seq_dir, tmp_path, flag):
    assert track(seq_dir, tmp_path / "out.txt", flag, str(INT64_MAX)) == 0
    assert (tmp_path / "out.txt").exists()


def test_subsample_at_largest_int64_keeps_frame_one(seq_dir, tmp_path):
    from fcgtrack.io_mot import parse_ground_truth

    out_dir = tmp_path / "sub"
    assert main(
        [
            "subsample",
            "--det", str(seq_dir / "det.txt"),
            "--features", str(seq_dir / "feats.fcgf"),
            "--gt", str(seq_dir / "gt.txt"),
            "--ratio", str(INT64_MAX),
            "--out-dir", str(out_dir),
            "--feature-dim", "8",
        ]
    ) == 0
    gt = parse_ground_truth((out_dir / "gt.txt").read_bytes())
    assert set(gt.frame.tolist()) == {1}
    assert {line.split(",")[0] for line in (out_dir / "det.txt").read_text().splitlines()} == {"1"}
