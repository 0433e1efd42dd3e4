"""Byte mutations of a small `synth` scene's input files, run through `cli.main`.

Flipping, deleting or inserting bytes, or duplicating a span, of the feature
sidecar (then `track`, at ratios 1-3) or of the ground truth (then `eval`
against the unmutated scene's results at that ratio): `cli.main` returns 0,
or returns 2 with stderr starting `error: ` and the mutated file's name. It
never raises.

The detection CSV is left out: its largest frame sizes the window arrays of
`pipeline.generate_tracklets`, so a mutated frame such as 10**12 asks for
gigabytes before anything can refuse it.
"""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fcgtrack.cli import main  # noqa: E402

RATIOS = (1, 2, 3)


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """The directory of a 4-identity scene, with its ground truth and results at each ratio
    (`gt_<r>.txt`, `res_<r>.txt`) and the sidecar's bytes."""
    root = tmp_path_factory.mktemp("scene")
    synth = ["synth", "--identities", "4", "--frames", "30", "--sigma", "0.02", "--seed", "11",
             "--feature-dim", "8", "--out-dir", str(root)]
    assert main(synth) == 0
    for r in RATIOS:
        sub = root / f"sub_{r}"
        assert main(["subsample", "--det", str(root / "det.txt"), "--features",
                     str(root / "feats.fcgf"), "--gt", str(root / "gt.txt"), "--ratio", str(r),
                     "--feature-dim", "8", "--out-dir", str(sub)]) == 0
        (root / f"gt_{r}.txt").write_bytes((sub / "gt.txt").read_bytes())
        assert main(_track(root, root / "feats.fcgf", r, root / f"res_{r}.txt")) == 0
    return root


def _track(root, features, ratio, out):
    return ["track", "--det", str(root / "det.txt"), "--features", str(features),
            "--ratio", str(ratio), "--feature-dim", "8", "--out", str(out)]


@st.composite
def mutated(draw, blob):
    """`blob` after one to three mutations, each at an offset in its first 32 bytes (the
    sidecar's header, the first CSV rows) or anywhere."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.one_of(st.integers(0, 31), st.integers(0, len(blob)))) % (len(blob) + 1)
        kind = draw(st.sampled_from(["flip", "delete", "insert", "duplicate"]))
        if kind == "flip" and at < len(blob):
            blob = blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1 :]
        elif kind == "delete":
            blob = blob[:at] + blob[at + draw(st.integers(1, 16)) :]
        elif kind == "insert":
            blob = blob[:at] + draw(st.binary(min_size=1, max_size=16)) + blob[at:]
        elif kind == "duplicate":
            blob = blob[:at] + blob[at : at + draw(st.integers(1, 64))] + blob[at:]
    return blob


def _exits_cleanly(argv, name):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0 or (code == 2 and err.getvalue().startswith(f"error: {name}")), (
        code, err.getvalue())


@settings(max_examples=150)
@given(data=st.data(), ratio=st.sampled_from(RATIOS))
def test_mutated_sidecar(scene, data, ratio):
    bad = scene / "bad" / "feats.fcgf"
    bad.parent.mkdir(exist_ok=True)
    bad.write_bytes(data.draw(mutated((scene / "feats.fcgf").read_bytes())))
    _exits_cleanly(_track(scene, bad, ratio, scene / "bad" / "res.txt"), "feats.fcgf")


@settings(max_examples=150)
@given(data=st.data(), ratio=st.sampled_from(RATIOS))
def test_mutated_ground_truth(scene, data, ratio):
    bad = scene / "bad" / "gt.txt"
    bad.parent.mkdir(exist_ok=True)
    bad.write_bytes(data.draw(mutated((scene / f"gt_{ratio}.txt").read_bytes())))
    _exits_cleanly(["eval", "--gt", str(bad), "--pred", str(scene / f"res_{ratio}.txt")], "gt.txt")
