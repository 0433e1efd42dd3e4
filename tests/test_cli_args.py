"""`track` rejects out-of-range --ratio and --threads the way `subsample` does."""

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
