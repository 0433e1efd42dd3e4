"""fcgtrack benchmark: track and eval synthetic scenes through the real CLI.

    python3 bench/run_bench.py --workload dense --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that has `src/fcgtrack`; nothing needs to be
installed. The workload's inputs come from `synthdata.generate` with the
given seed and are cached under `.bench_cache/` per (workload, seed).
`--seconds` is spent on fresh interpreters (bench/op.py): set-up probes and
one process that repeats `track` with `--threads 1` and `eval` calls on its
output. While they run, the reference loop of bench/calib.py gauges the
host's speed, and every call is reported in seconds at the reference speed;
each metric is the median of its calls.

Every operation is checked: exit code 0, output that `parse_ground_truth`
accepts, no (frame, id) twice, and the same output sha256 and scores across
the whole run. The last stdout line is one JSON object with keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The exit code is 0 only when every check passed. A readable summary, the
environment and the path of a results file with every sample go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Callable, NamedTuple

from calib import REFERENCE_IMPORT, REFERENCE_IMPORT_S, normalized, speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CACHE = ROOT / ".bench_cache"

WINDOW = 6  # FcgConfig().window, which every workload tracks with.
EVALS_PER_TRACK = 3
SETUP_PROBES = 4  # per untraced run, besides the worker; each also times the reference import
OP_TIMEOUT_S = 150
EVAL_OUTPUT = re.compile(r"idf1,(\d+\.\d+)\nid_switches,(\d+)\n")


def _lowfps_crowd(seed: int) -> dict:
    # 200 identities enter 30 frames apart and live 120-180 frames, so about
    # five are present at a time. Entry is an occlusion from frame 1. Every
    # fourth identity is hidden for 40 frames mid-life and re-appears. The
    # second half enters `gap` frames late, which leaves 300 frames without
    # detections: empty windows and empty fusions.
    n, step, gap = 200, 30, 420
    entry = {k: 1 + step * (k - 1) + (gap if k > n // 2 else 0) for k in range(1, n + 1)}
    life = {k: 120 + 15 * (k % 5) for k in entry}
    frames = max(entry[k] + life[k] for k in entry) - 1
    occlusions, exits = [], []
    for k in entry:
        if entry[k] > 1:
            occlusions.append((k, 1, entry[k] - 1))
        if k % 4 == 0:
            occlusions.append((k, entry[k] + 50, entry[k] + 89))
        if entry[k] + life[k] <= frames:
            exits.append((k, entry[k] + life[k]))
    dim = 200  # one prototype axis per identity
    return dict(num_identities=n, num_frames=frames, feature_dim=dim,
                # D * sigma^2 = 0.0256 as in the D=64, sigma=0.02 scenes;
                # an unscaled sigma fragments the scene (ROADMAP scene L).
                feature_noise_sigma=math.sqrt(0.0256 / dim),
                occlusions=tuple(occlusions), exits=tuple(exits), seed=seed)


class Workload(NamedTuple):
    synth: Callable[[int], dict]  # SynthConfig fields for a seed
    ratio: int  # `track --ratio`; ground truth is subsampled to match
    flags: tuple[str, ...]  # further `track` flags
    shape: dict[str, int]  # input shape that every seed must reproduce exactly


WORKLOADS = {
    "dense": Workload(
        lambda seed: dict(num_identities=30, num_frames=30, feature_dim=64,
                          feature_noise_sigma=0.02, seed=seed),
        1, ("--feature-dim", "64"),
        dict(rows=900, dets=900, ids=30, windows=5, windows_empty=0),
    ),
    "lowfps_crowd": Workload(
        _lowfps_crowd, 5, ("--feature-dim", "200"),
        dict(rows=28000, dets=5600, ids=200, windows=218, windows_empty=10),
    ),
    "global_fusion": Workload(
        lambda seed: dict(num_identities=20, num_frames=150, feature_dim=64,
                          feature_noise_sigma=0.02, seed=seed),
        1, ("--feature-dim", "64", "--non-consecutive"),
        dict(rows=3000, dets=3000, ids=20, windows=25, windows_empty=0),
    ),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _write_inputs(name: str, seed: int, target: Path) -> None:
    from fcgtrack.io_mot import (detection_features, subsample_tracks,
                                 write_detections, write_features,
                                 write_ground_truth)
    from fcgtrack.synthdata import SynthConfig, generate

    workload = WORKLOADS[name]
    cfg = SynthConfig(**workload.synth(seed))
    seq, truth = generate(cfg)
    tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    (tmp / "det.txt").write_bytes(write_detections(seq))
    (tmp / "feats.fcgf").write_bytes(
        write_features(detection_features(seq, cfg.feature_dim)))
    # Ground truth on the tracked frame grid, as `fcgtrack subsample --gt` writes it.
    (tmp / "gt.txt").write_bytes(
        write_ground_truth(subsample_tracks(truth, workload.ratio)))
    tmp.rename(target)


def _input_shape(files: dict[str, Path], ratio: int) -> dict[str, int]:
    frames = [int(line.split(",", 1)[0])
              for line in files["det"].read_text().splitlines() if line]
    kept = {(f - 1) // ratio + 1 for f in frames if (f - 1) % ratio == 0}
    windows = math.ceil(max(kept) / WINDOW)
    busy = {(f - 1) // WINDOW for f in kept}
    ids = {line.split(",")[1] for line in files["gt"].read_text().splitlines() if line}
    return dict(rows=len(frames),
                dets=sum(1 for f in frames if (f - 1) % ratio == 0),
                ids=len(ids), windows=windows, windows_empty=windows - len(busy))


def prepare_inputs(name: str, seed: int) -> dict[str, Path]:
    """Generate (once per workload and seed) and shape-check the input files."""
    target = CACHE / f"{name}-{seed}"
    if not target.is_dir():
        _write_inputs(name, seed, target)
    files = {"det": target / "det.txt", "features": target / "feats.fcgf",
             "gt": target / "gt.txt"}
    expected = WORKLOADS[name].shape
    shape = _input_shape(files, WORKLOADS[name].ratio)
    if shape != expected:
        raise BenchError(f"{name} seed {seed}: input shape {shape}, expected {expected}")
    return files


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one process, one thread
    return env


def _run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "op.py"), *argv], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=OP_TIMEOUT_S)


def check_tracks(blob: bytes) -> str | None:
    """Reason the track output is invalid, or None when it is valid."""
    from fcgtrack.core import FcgError
    from fcgtrack.io_mot import parse_ground_truth

    try:
        parse_ground_truth(blob, name="track output")
    except (FcgError, ValueError) as exc:
        return f"parse_ground_truth rejected the output: {exc}"
    seen = set()
    for line in blob.decode().splitlines():
        frame, tid = line.split(",")[:2]
        if (frame, tid) in seen:
            return f"track {tid} repeats frame {frame}"
        seen.add((frame, tid))
    return None


class Run:
    """The processes of one benchmark run and the checks on their operations."""

    def __init__(self, name: str, files: dict[str, Path], out: Path):
        self.name = name
        self.files = files
        self.out = out
        self.attempted = 0
        self.failures: list[str] = []
        self.sha = None
        self.scores = None
        self.processes: list[dict] = []
        self.setups: list[float] = []
        self.reference_imports: list[float] = []

    def _fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def setup_probe(self) -> None:
        """Time set-up in one fresh interpreter and the reference import in another."""
        for argv, into in ((["--setup-only"], self.setups),
                           (["--reference-import", REFERENCE_IMPORT], self.reference_imports)):
            proc = _run_child(argv)
            if proc.returncode != 0:
                raise BenchError(f"set-up probe failed:\n{proc.stderr}")
            into.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])

    def process(self, traced: bool, seconds: float) -> None:
        """Run one fresh process of operations for about `seconds`; check and keep it."""
        workload = WORKLOADS[self.name]
        self.out.unlink(missing_ok=True)
        argv = ["--det", str(self.files["det"]), "--features", str(self.files["features"]),
                "--gt", str(self.files["gt"]), "--out", str(self.out),
                "--seconds", repr(seconds), "--evals", str(EVALS_PER_TRACK)]
        if traced:
            argv.append("--trace")
        try:
            proc = _run_child([*argv, "--", "--ratio", str(workload.ratio), *workload.flags])
        except subprocess.TimeoutExpired:
            self.attempted += 1
            self._fail(f"process timed out after {OP_TIMEOUT_S} s")
            return
        if proc.returncode != 0:
            self.attempted += 1
            self._fail(f"process exited {proc.returncode}:\n{proc.stderr}")
            return
        result = json.loads(proc.stdout.splitlines()[-1])
        self.setups.append(result["setup_s"])
        for op in (*result["tracks"], *result["evals"]):
            op["s"] = normalized(op["begin"], op["end"], result["samples"])
            if "layers" in op:
                scale = speed(op["begin"], op["end"], result["samples"])
                op["layers"] = {name: value * scale if name.endswith("_s") else value
                                for name, value in op["layers"].items()}
        for track in result["tracks"]:
            self.attempted += 1
            if track["rc"] != 0:
                self._fail(f"track exited {track['rc']}:\n{proc.stderr}")
                continue
            self.sha = self.sha or track["sha256"]
            if track["sha256"] != self.sha:
                self._fail(f"track output sha256 {track['sha256']} differs from {self.sha}")
        if self.out.is_file():
            problem = check_tracks(self.out.read_bytes())
            if problem is not None:
                self._fail(f"track: {problem}")
        for ev in result["evals"]:
            self.attempted += 1
            match = EVAL_OUTPUT.fullmatch(ev["stdout"]) if ev["rc"] == 0 else None
            scores = (float(match[1]), int(match[2])) if match else None
            self.scores = self.scores or scores
            if scores is None or scores != self.scores:
                self._fail(f"eval exited {ev['rc']} with {ev['stdout']!r}")
        result["traced"] = traced
        self.processes.append(result)

    def samples(self, key: str, traced: bool = False) -> list[float]:
        """Times of the calls at the reference speed."""
        return [op["s"] for p in self.processes if p["traced"] == traced for op in p[key]]



def measure(run: Run, seconds: float, trace: bool) -> None:
    """Spend `seconds` on fresh processes: set-up probes around one worker.

    An untraced run times set-up in SETUP_PROBES probes, half before and
    half after the worker. A traced run has no probes; it runs an untraced
    worker and then a traced one, so that the tracing overhead is measured
    under like conditions.
    """
    begin = time.perf_counter()
    run.setup_probe()  # compiles bytecode and fills the page cache
    probe_s = time.perf_counter() - begin
    run.setups.clear()
    run.reference_imports.clear()
    deadline = time.perf_counter() + seconds
    before = 0 if trace else SETUP_PROBES // 2
    after = 0 if trace else SETUP_PROBES - before
    for _ in range(before):
        run.setup_probe()
    kinds = (False, True) if trace else (False,)
    for i, traced in enumerate(kinds):
        if run.failures:
            return
        # The worker's own set-up and the probes after it come out of its share.
        share = (deadline - time.perf_counter() - after * probe_s) / (len(kinds) - i)
        run.process(traced, share - probe_s)
    for _ in range(after):
        run.setup_probe()


def end_to_end(run: Run, shape: dict[str, int]) -> dict[str, float]:
    track_s = statistics.median(run.samples("tracks"))
    idf1, switches = run.scores
    return {
        "setup_s": statistics.median(run.setups) * REFERENCE_IMPORT_S
                   / statistics.median(run.reference_imports),
        "track_s": track_s,
        "dets_per_s": shape["dets"] / track_s,
        "eval_s": statistics.median(run.samples("evals")),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in run.processes),
        "idf1": idf1,
        # ID switches themselves are 0 on every workload; counted on top of
        # the identities they are never 0 and still rise with each switch.
        "id_runs": shape["ids"] + switches,
        "ok_frac": 1.0,  # every operation passed its checks
    }


def per_layer(run: Run, files: dict[str, Path]) -> dict[str, float]:
    traced = [p for p in run.processes if p["traced"]]
    layers = {}
    for key in ("tracks", "evals"):
        calls = [op["layers"] for p in traced for op in p[key]]
        layers.update({name: statistics.median(c[name] for c in calls) for name in calls[0]})
    layers["io_mot.bytes_in"] = sum(files[k].stat().st_size for k in ("det", "features"))
    layers["trace.overhead_s"] = (statistics.median(run.samples("tracks", traced=True))
                                  - statistics.median(run.samples("tracks")))
    return layers


def environment() -> dict[str, object]:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "nproc": os.cpu_count(),
            "cpu": cpu, "platform": platform.platform()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be a 64-bit unsigned integer")

    try:
        if not (ROOT / "src" / "fcgtrack" / "__init__.py").is_file():
            raise BenchError(f"no fcgtrack sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = spec["per_layer" if args.trace else "end_to_end"]
        sys.path.insert(0, str(ROOT / "src"))
        files = prepare_inputs(args.workload, args.seed)
        out = files["det"].parent / f"out{os.getpid()}.txt"
        run = Run(args.workload, files, out)
        try:
            measure(run, args.seconds, bool(args.trace))
        finally:
            out.unlink(missing_ok=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    failed = len(run.failures)
    values: dict[str, float] = {}
    if not run.failures:
        shape = WORKLOADS[args.workload].shape
        values = per_layer(run, files) if args.trace else end_to_end(run, shape)
        missing = {m["name"] for m in declared} ^ set(values)
        if missing:
            print(f"benchmark error: metrics {sorted(missing)} not both declared and "
                  f"measured", file=sys.stderr)
            return 2
    elif not args.trace:
        values["ok_frac"] = 1.0 - failed / run.attempted
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    report = {"correct": failed == 0, "attempted": run.attempted,
              "failed": failed, "metrics": metrics}

    env = environment()
    record = CACHE / "results" / (
        f"{args.workload}-{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
        f"-{os.getpid()}.json")
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"args": vars(args), "environment": env,
                                  "report": report, "failures": run.failures,
                                  "processes": run.processes, "setups": run.setups,
                                  "reference_imports": run.reference_imports}, indent=1))
    print(f"{args.workload} seed {args.seed}: {len(run.processes)} processes, "
          f"{len(run.samples('tracks'))} untraced tracks, {len(run.setups)} set-ups; "
          f"failed_frac {failed}/{run.attempted}", file=sys.stderr)
    if run.scores:
        print(f"  idf1 {run.scores[0]}  id_switches {run.scores[1]}", file=sys.stderr)
    traced = [p for p in run.processes if p["traced"]]
    if traced:
        # A boundary a refactor removed reads 0 instead of failing the run.
        print(f"  absent boundaries: {traced[0]['absent']}  "
              f"hook errors: {traced[0]['hook_errors']}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"  environment: {json.dumps(env)}\n  results: {record}", file=sys.stderr)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
