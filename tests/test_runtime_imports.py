"""The command line runs on numpy alone: no subcommand imports scipy."""

import json
import os
import types
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs each subcommand in one fresh interpreter and reports, after each call,
# its exit code and every loaded module whose top-level package is scipy.
SCRIPT = """
import json, sys
from fcgtrack.cli import main

out = sys.argv[1]
seq = ["--det", out + "/seq/det.txt", "--features", out + "/seq/feats.fcgf",
       "--feature-dim", "8"]
calls = [
    ["synth", "--identities", "3", "--frames", "30", "--sigma", "0.02",
     "--seed", "7", "--feature-dim", "8", "--out-dir", out + "/seq"],
    ["track", *seq, "--out", out + "/res.txt"],
    ["subsample", *seq, "--ratio", "2", "--out-dir", out + "/half",
     "--gt", out + "/seq/gt.txt"],
    ["eval", "--gt", out + "/seq/gt.txt", "--pred", out + "/res.txt"],
]
report = []
for argv in calls:
    code = main(argv)
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    report.append([argv[0], code, loaded])
print(json.dumps(report))
"""


def test_no_subcommand_imports_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert [name for name, _, _ in report] == ["synth", "track", "subsample", "eval"]
    for name, code, loaded in report:
        assert code == 0, name
        assert loaded == [], name


def test_every_exported_name_resolves():
    import fcgtrack

    assert len(set(fcgtrack.__all__)) == len(fcgtrack.__all__)
    missing = [name for name in fcgtrack.__all__ if not hasattr(fcgtrack, name)]
    assert missing == []
    # Every public name the package imports is exported, and nothing else.
    public = {
        name for name, value in vars(fcgtrack).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(fcgtrack.__all__)


# Counts the tracks of a TrackSet, then runs `track`, in one fresh interpreter,
# and reports whether numpy.ma (about 1.3 MB of RSS) was imported.
MA_SCRIPT = """
import sys
import numpy as np
from fcgtrack.cli import main
from fcgtrack.core import TrackSet

out = sys.argv[1]
tracks = TrackSet(np.array([1, 1, 4]), np.array([1, 2, 1]), np.zeros((3, 4)), np.ones(3))
assert len(tracks) == 2
assert main(["synth", "--identities", "3", "--frames", "30", "--sigma", "0.02", "--seed", "7",
             "--feature-dim", "8", "--out-dir", out + "/seq"]) == 0
before = "numpy.ma" in sys.modules
assert main(["track", "--det", out + "/seq/det.txt", "--features", out + "/seq/feats.fcgf",
             "--feature-dim", "8", "--out", out + "/res.txt"]) == 0
print(before, "numpy.ma" in sys.modules)
"""


def test_counting_tracks_and_tracking_leave_numpy_ma_unimported(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", MA_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
