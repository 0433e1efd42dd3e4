"""Command-line entry point: track, synth, eval, and subsample subcommands.

Exit codes: 0 success, 1 usage error, 2 data error (bad files, format
violations). All tracking constants are settable through flags named after
the configuration fields; repeated runs of one command are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import FcgConfig, FcgError
from .io_mot import (
    detection_features,
    parse_detections,
    parse_ground_truth,
    subsample,
    subsample_tracks,
    write_detections,
    write_features,
    write_ground_truth,
    write_tracks,
)
from .metrics import id_switches, idf1
from .pipeline import run
from .synthdata import SynthConfig, generate

_DEFAULTS = FcgConfig()


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _size(text: str) -> tuple[float, float]:
    try:
        w, h = text.lower().split("x")
        return float(w), float(h)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected WxH, got {text!r}") from exc


def _occlusion(text: str) -> tuple[int, int, int]:
    try:
        identity, start, end = (int(v) for v in text.split(":"))
        return identity, start, end
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected id:start:end, got {text!r}") from exc


def _exit_spec(text: str) -> tuple[int, int]:
    try:
        identity, frame = (int(v) for v in text.split(":"))
        return identity, frame
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected id:frame, got {text!r}") from exc


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", type=int, default=_DEFAULTS.window)
    p.add_argument("--tracklet-threshold", type=float, default=_DEFAULTS.tracklet_threshold)
    p.add_argument("--track-threshold", type=float, default=_DEFAULTS.track_threshold)
    p.add_argument("--kt", type=int, default=_DEFAULTS.kt)
    p.add_argument("--ct", type=float, default=_DEFAULTS.ct)
    p.add_argument("--off", type=float, default=_DEFAULTS.off)
    p.add_argument("--kf", type=float, default=_DEFAULTS.kf)
    p.add_argument("--cf", type=float, default=_DEFAULTS.cf)
    p.add_argument("--score-threshold", type=float, default=_DEFAULTS.score_threshold)
    p.add_argument("--feature-dim", type=int, default=_DEFAULTS.feature_dim)
    p.add_argument("--no-temporal", action="store_true", help="disable temporal weighting")
    p.add_argument("--no-spatial", action="store_true", help="disable spatial weighting")
    p.add_argument("--motion", action="store_true", help="enable constant-velocity motion")
    p.add_argument("--non-consecutive", action="store_true", help="one global fusion step")


def _config(args: argparse.Namespace) -> FcgConfig:
    return FcgConfig(
        window=args.window,
        tracklet_threshold=args.tracklet_threshold,
        track_threshold=args.track_threshold,
        kt=args.kt,
        ct=args.ct,
        off=args.off,
        kf=args.kf,
        cf=args.cf,
        score_threshold=args.score_threshold,
        use_temporal=not args.no_temporal,
        use_spatial=not args.no_spatial,
        use_motion=args.motion,
        consecutive=not args.non_consecutive,
        feature_dim=args.feature_dim,
    )


def _cmd_track(args: argparse.Namespace) -> int:
    if args.ratio < 1:
        raise ValueError(f"ratio must be >= 1, got {args.ratio}")
    if args.threads < 0:
        raise ValueError(f"threads must be >= 0, got {args.threads}")
    cfg = _config(args)
    seq = parse_detections(
        Path(args.det).read_bytes(),
        Path(args.features).read_bytes(),
        cfg,
        name=Path(args.det).name,
    )
    if args.ratio > 1:
        seq = subsample(seq, args.ratio)
    tracks = run(seq.columns, cfg)
    Path(args.out).write_bytes(write_tracks(tracks))
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
    (out_dir / "det.txt").write_bytes(write_detections(seq))
    (out_dir / "feats.fcgf").write_bytes(
        write_features(detection_features(seq, cfg.feature_dim))
    )
    (out_dir / "gt.txt").write_bytes(write_ground_truth(truth))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    gt = parse_ground_truth(Path(args.gt).read_bytes(), name=Path(args.gt).name)
    pred = parse_ground_truth(
        Path(args.pred).read_bytes(), name=Path(args.pred).name, results=True
    )
    print(f"idf1,{idf1(gt, pred, args.iou_threshold):.6f}")
    print(f"id_switches,{id_switches(gt, pred, args.iou_threshold)}")
    return 0


def _cmd_subsample(args: argparse.Namespace) -> int:
    cfg = FcgConfig(score_threshold=args.score_threshold, feature_dim=args.feature_dim)
    seq = parse_detections(
        Path(args.det).read_bytes(),
        Path(args.features).read_bytes(),
        cfg,
        name=Path(args.det).name,
    )
    sub = subsample(seq, args.ratio)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "det.txt").write_bytes(write_detections(sub))
    (out_dir / "feats.fcgf").write_bytes(
        write_features(detection_features(sub, cfg.feature_dim))
    )
    if args.gt is not None:
        truth = parse_ground_truth(Path(args.gt).read_bytes(), name=Path(args.gt).name)
        (out_dir / "gt.txt").write_bytes(
            write_ground_truth(subsample_tracks(truth, args.ratio))
        )
    return 0


def _build_parser() -> _Parser:
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
    p_synth.add_argument("--occlude", type=_occlusion, action="append", default=[],
                         metavar="ID:START:END")
    p_synth.add_argument("--exit", type=_exit_spec, action="append", default=[],
                         metavar="ID:FRAME")
    p_synth.add_argument("--arena", type=_size, default=(1920.0, 1080.0), metavar="WxH")
    p_synth.add_argument("--box", type=_size, default=(50.0, 100.0), metavar="WxH")
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
    except (FcgError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
