"""Operations of one benchmark process, started fresh by run_bench.py.

Times `import fcgtrack.cli` plus building its parser (set-up). Then, at
least once and until `--seconds` is used up, runs `track` through `fcgtrack.cli.main` followed by `--evals` `eval`
calls on its output, while calib.Sampler gauges the host speed. The peak
RSS is read right after the first `track`, so it is that of a fresh process
that has tracked once. With `--trace` the calls run under spans.Tracer and
each call's per-layer metrics are added. `--setup-only` stops after
set-up. Prints one JSON object on stdout: the start and end of every call
and every speed sample, which run_bench.py turns into times.
`--reference-import MODULE` instead times only `import MODULE` and stops.

    python3 bench/op.py --det D --features F --gt G --out O --seconds 10 \\
        --evals 2 [--trace] -- <extra track flags>
"""

import sys
import time


def peak_rss_mb() -> float:
    """Peak RSS of this process image, in MB.

    Not ru_maxrss: across exec it keeps the high-water mark of the parent
    that spawned this process, run_bench.py.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6  # the value is in KiB
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    # Set-up is timed first, before this script imports anything else, so
    # that it counts every module `track` needs.
    t0 = time.perf_counter()
    if sys.argv[1:2] == ["--reference-import"]:
        __import__(sys.argv[2])
        print('{"setup_s": %r}' % (time.perf_counter() - t0))
        return
    import fcgtrack.cli as cli

    build_parser = getattr(cli, "_build_parser", None)
    if build_parser is not None:
        build_parser()
    setup_s = time.perf_counter() - t0

    import argparse
    import contextlib
    import hashlib
    import io
    import json
    from pathlib import Path

    from calib import WINDOW_S, Sampler

    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    for flag in ("--det", "--features", "--gt", "--out"):
        ap.add_argument(flag)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--evals", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("track_flags", nargs="*")
    args = ap.parse_args()
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        result.update(absent=tracer.absent)

    track_argv = ["track", "--det", args.det, "--features", args.features,
                  "--out", args.out, "--threads", "1", *args.track_flags]
    eval_argv = ["eval", "--gt", args.gt, "--pred", args.out]
    result.update(tracks=[], evals=[])
    sampler = Sampler(None if tracer is None else tracer.exclude)
    sampler.start()
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            begin = time.perf_counter()
            if tracer is None:
                rc = cli.main(track_argv)
            else:
                with tracer.span("cli.track") as root:
                    rc = cli.main(track_argv)
            track = {"rc": rc, "begin": begin, "end": time.perf_counter()}
            if "peak_rss_mb" not in result:
                result["peak_rss_mb"] = peak_rss_mb()
            result["tracks"].append(track)
            if rc != 0:
                break
            track["sha256"] = hashlib.sha256(Path(args.out).read_bytes()).hexdigest()
            if tracer is not None:
                track["layers"] = spans.track_metrics(tracer.spans, root)
                tracer.spans.clear()

            for _ in range(args.evals):
                out = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(out):
                    rc = cli.main(eval_argv)
                ev = {"rc": rc, "begin": start, "end": time.perf_counter(),
                      "stdout": out.getvalue()}
                if tracer is not None:
                    ev["layers"] = spans.eval_metrics(tracer.spans)
                    tracer.spans.clear()
                result["evals"].append(ev)
            now = time.perf_counter()
            if now + (now - begin) > deadline:
                break
        # Samples after the last call, for its share of the window.
        time.sleep(WINDOW_S)
    finally:
        sampler.stop()
    result["samples"] = sampler.samples
    if tracer is not None:
        result["hook_errors"] = sorted(tracer.hook_errors)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
