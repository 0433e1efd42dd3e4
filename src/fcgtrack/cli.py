"""Command-line entry point: track, synth, eval, and subsample subcommands.

Exit codes: 0 success, 1 usage error, 2 data error (bad files, format
violations, input too large for memory). All tracking constants are settable
through flags named after the configuration fields; repeated runs of one
command are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from dataclasses import fields
from pathlib import Path

from .core import FcgConfig, FcgError
from .io_mot import (
    check_ratio,
    detection_features,
    parse_detections,
    parse_ground_truth,
    subsample_tracks,
    write_detections,
    write_features,
    write_ground_truth,
    write_tracks,
)
from .metrics import evaluate
from .pipeline import run
from .synthdata import SynthConfig, generate

_DEFAULTS = FcgConfig()


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _numbers(metavar: str, sep: str, kind: type):
    """An argparse type: `metavar`'s fields, split at `sep`, each read as `kind`."""
    count = len(metavar.lower().split(sep))

    def parse(text: str) -> tuple:
        try:
            values = tuple(kind(v) for v in text.lower().split(sep))
        except ValueError:
            values = ()
        if len(values) != count:
            raise argparse.ArgumentTypeError(f"expected {metavar}, got {text!r}")
        return values

    return parse


# The boolean fields of FcgConfig, each set by a flag that flips its default.
_TOGGLES = {
    "use_temporal": ("--no-temporal", "disable temporal weighting"),
    "use_spatial": ("--no-spatial", "disable spatial weighting"),
    "use_motion": ("--motion", "enable constant-velocity motion"),
    "consecutive": ("--non-consecutive", "one global fusion step"),
}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One flag per FcgConfig field: `--field-name VALUE`, or its toggle."""
    for f in fields(FcgConfig):
        if f.name not in _TOGGLES:
            flag = "--" + f.name.replace("_", "-")
            p.add_argument(flag, dest=f.name, type=type(f.default), default=f.default)
    for name, (flag, text) in _TOGGLES.items():
        default = getattr(_DEFAULTS, name)
        p.add_argument(
            flag, dest=name, action="store_const", const=not default, default=default, help=text
        )


def _config(args: argparse.Namespace) -> FcgConfig:
    return FcgConfig(**{f.name: getattr(args, f.name) for f in fields(FcgConfig)})


def _detections(args: argparse.Namespace, cfg: FcgConfig):
    """The detections of `--det` and `--features`, subsampled by `--ratio`
    as they are read: the sidecar is read as a stream, so the feature rows of
    dropped frames are never held."""
    det = Path(args.det).read_bytes()
    with open(args.features, "rb") as features:
        return parse_detections(det, features, cfg, name=Path(args.det).name, ratio=args.ratio)


def _write(path, data: bytes) -> None:
    """Write `data` to `path` in place: the file is opened without truncating
    it, written from its start, and a regular file is then cut to the length
    written. A file rewritten this way keeps its inode and mode and is never
    cut to zero bytes first, which on ext4 would force block allocation and
    writeback at close; a pipe or device is written as any writer would."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _cmd_track(args: argparse.Namespace) -> int:
    check_ratio(args.ratio)
    if args.threads < 0:
        raise ValueError(f"threads must be >= 0, got {args.threads}")
    cfg = _config(args)
    seq = _detections(args, cfg)
    tracks = run(seq, cfg)
    _write(args.out, write_tracks(tracks))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = SynthConfig(
        num_identities=args.identities,
        num_frames=args.frames,
        feature_dim=args.feature_dim,
        feature_noise_sigma=args.sigma,
        motion_model=args.motion_model,
        occlusions=tuple(args.occlude),
        exits=tuple(args.exit),
        arena=args.arena,
        box_size=args.box,
        seed=args.seed,
    )
    seq, truth = generate(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write(out_dir / "det.txt", write_detections(seq))
    _write(out_dir / "feats.fcgf", write_features(detection_features(seq, cfg.feature_dim)))
    _write(out_dir / "gt.txt", write_ground_truth(truth))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    gt = parse_ground_truth(Path(args.gt).read_bytes(), name=Path(args.gt).name)
    pred = parse_ground_truth(
        Path(args.pred).read_bytes(), name=Path(args.pred).name, results=True
    )
    score, switches = evaluate(gt, pred, args.iou_threshold)
    print(f"idf1,{score:.6f}")
    print(f"id_switches,{switches}")
    return 0


def _cmd_subsample(args: argparse.Namespace) -> int:
    check_ratio(args.ratio)
    cfg = FcgConfig(score_threshold=args.score_threshold, feature_dim=args.feature_dim)
    sub = _detections(args, cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write(out_dir / "det.txt", write_detections(sub))
    _write(out_dir / "feats.fcgf", write_features(detection_features(sub, cfg.feature_dim)))
    if args.gt is not None:
        truth = parse_ground_truth(Path(args.gt).read_bytes(), name=Path(args.gt).name)
        _write(out_dir / "gt.txt", write_ground_truth(subsample_tracks(truth, args.ratio)))
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process. It keeps no state
    between `parse_args` calls: argparse copies an append flag's default list
    before it appends."""
    parser = _Parser(prog="fcgtrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_track = sub.add_parser("track", help="track a detection file into a result file")
    p_track.add_argument("--det", required=True, help="detections CSV")
    p_track.add_argument("--features", required=True, help="feature sidecar (.fcgf)")
    p_track.add_argument("--out", required=True, help="output result file")
    p_track.add_argument("--ratio", type=int, default=1, help="subsample before tracking")
    p_track.add_argument(
        "--threads", type=int, default=1, help="accepted and ignored: tracking is sequential"
    )
    _add_config_flags(p_track)
    p_track.set_defaults(func=_cmd_track)

    p_synth = sub.add_parser("synth", help="generate a synthetic sequence")
    p_synth.add_argument("--identities", type=int, required=True)
    p_synth.add_argument("--frames", type=int, required=True)
    p_synth.add_argument("--sigma", type=float, default=0.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--feature-dim", type=int, default=2048)
    p_synth.add_argument("--motion-model", choices=["linear", "sinusoidal"], default="linear")
    p_synth.add_argument("--occlude", type=_numbers("id:start:end", ":", int),
                         action="append", default=[], metavar="ID:START:END")
    p_synth.add_argument("--exit", type=_numbers("id:frame", ":", int), action="append",
                         default=[], metavar="ID:FRAME")
    size = _numbers("WxH", "x", float)
    p_synth.add_argument("--arena", type=size, default=(1920.0, 1080.0), metavar="WxH")
    p_synth.add_argument("--box", type=size, default=(50.0, 100.0), metavar="WxH")
    p_synth.set_defaults(func=_cmd_synth)

    p_eval = sub.add_parser("eval", help="score a result file against ground truth")
    p_eval.add_argument("--gt", required=True)
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--iou-threshold", type=float, default=0.5)
    p_eval.set_defaults(func=_cmd_eval)

    p_sub = sub.add_parser("subsample", help="write a lower-fps copy of a sequence")
    p_sub.add_argument("--det", required=True)
    p_sub.add_argument("--features", required=True)
    p_sub.add_argument("--ratio", type=int, required=True)
    p_sub.add_argument("--out-dir", required=True)
    p_sub.add_argument("--gt", default=None, help="also subsample this ground-truth file")
    p_sub.add_argument("--score-threshold", type=float, default=_DEFAULTS.score_threshold)
    p_sub.add_argument("--feature-dim", type=int, default=_DEFAULTS.feature_dim)
    p_sub.set_defaults(func=_cmd_subsample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (FcgError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
