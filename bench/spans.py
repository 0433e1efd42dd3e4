"""Span tracing of fcgtrack from outside the package, for the traced benchmark run.

`Tracer.install()` replaces module attributes with wrappers that record one
span per call: name, start, end, parent span and the counts a hook reads off
the arguments or the result. Each wrapper replaces the name a caller looks up
at call time (for example `fcgtrack.cli.run`, not `fcgtrack.pipeline.run`),
so the wrapped call sites are exactly the layer boundaries. Per-pair
functions stay unwrapped: a wrapper costs more than they do.

Spans stay in memory; `track_metrics()` and `eval_metrics()` turn them into
per-layer self times and counts after the run. A boundary that the package no longer has is listed
in `absent` and its metrics read 0, so a refactor never fails the run.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Fusion rounds reported one by one; deeper rounds would need a new metric.
MAX_FUSE_LEVELS = 8

GENERATE = "pipeline.generate_tracklets"
FUSE_NAMES = ("pipeline.fuse_lifted_frames", "pipeline._fuse_global")


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _cluster_call(args, kwargs):
    items = _arg(args, kwargs, 0, "items")
    constraints = kwargs.get("constraints", args[2] if len(args) > 2 else None)
    attrs = {
        "n": len(items),
        "cannot_link": len(constraints.cannot_link) if constraints is not None else 0,
    }
    if items and hasattr(items[0], "first_frame"):
        # Stage-2 items are tracklets: count the pairs whose frame spans
        # interleave, which weighted_distance answers with the sentinel.
        first = np.array([t.first_frame for t in items])
        last = np.array([t.last_frame for t in items])
        ordered = (last[:, None] < first[None, :]) | (last[None, :] < first[:, None])
        attrs["interleaved"] = int(np.triu(~ordered, k=1).sum())
    return attrs


def _fuse_call(args, kwargs):
    a, b = args[0], args[1]
    return {"level": a.level, "tracklets_in": len(a.tracklets) + len(b.tracklets)}


def _fuse_global_call(args, kwargs):
    frames = _arg(args, kwargs, 0, "frames")
    return {"level": 1, "tracklets_in": sum(len(f.tracklets) for f in frames)}


def _windows_result(frames):
    return {
        "windows": len(frames),
        "windows_empty": sum(1 for f in frames if not f.tracklets),
        "tracklets": sum(len(f.tracklets) for f in frames),
    }


# (module, attribute, span name, call hook, return hook)
TARGETS = (
    ("fcgtrack.cli", "parse_detections", "io_mot.parse_detections", None,
     lambda r: {"dets": len(r.detections)}),
    ("fcgtrack.io_mot", "read_features", "io_mot.read_features", None,
     lambda r: {"rows": int(r.shape[0])}),
    ("fcgtrack.cli", "subsample", "io_mot.subsample", None,
     lambda r: {"dets": len(r.detections)}),
    ("fcgtrack.cli", "run", "pipeline.run",
     lambda a, k: {"dets": len(_arg(a, k, 0, "detections"))},
     lambda r: {"tracks": len(r.tracks)}),
    ("fcgtrack.cli", "write_tracks", "io_mot.write_tracks", None,
     lambda r: {"bytes": len(r)}),
    ("fcgtrack.cli", "parse_ground_truth", "metrics.parse_ground_truth", None, None),
    ("fcgtrack.cli", "idf1", "metrics.idf1", None, None),
    ("fcgtrack.cli", "id_switches", "metrics.id_switches", None, None),
    ("fcgtrack.pipeline", "generate_tracklets", GENERATE, None, _windows_result),
    ("fcgtrack.pipeline", "fuse_lifted_frames", FUSE_NAMES[0], _fuse_call, None),
    ("fcgtrack.pipeline", "_fuse_global", FUSE_NAMES[1], _fuse_global_call, None),
    ("fcgtrack.pipeline", "_assign_ids", "pipeline.assign_ids", None, None),
    ("fcgtrack.pipeline", "cluster", "clustering.cluster", _cluster_call, None),
    ("fcgtrack.pipeline", "tracklet_new", "core.tracklet_new", None, None),
    ("fcgtrack.clustering", "linkage", "clustering.linkage", None,
     lambda r: {"merges": len(r.merges)}),
    ("fcgtrack.clustering", "cut", "clustering.cut",
     lambda a, k: {"n": _arg(a, k, 0, "dendrogram").n},
     lambda r: {"clusters": len(r)}),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "stage", "attrs", "hooks_s")

    def __init__(self, name, parent, stage, attrs):
        self.name = name
        self.parent = parent
        self.stage = stage
        self.attrs = attrs
        self.start = self.end = 0.0
        self.hooks_s = 0.0  # spent in hooks and speed samples, not the program

    @property
    def duration(self) -> float:
        return self.end - self.start - self.hooks_s


class Tracer:
    """Records spans around the wrapped functions of one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.hook_errors: set[str] = set()
        self._stack: list[Span] = []

    def _open(self, name, attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        stage = 1 if name == GENERATE else (parent.stage if parent else 0)
        span = Span(name, parent, stage, attrs)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def exclude(self, seconds: float) -> None:
        """Take `seconds` the process spent outside the program out of the open spans."""
        for span in self._stack:
            span.hooks_s += seconds

    def _hook(self, name, hook, *args) -> dict:
        if hook is None:
            return {}
        start = time.perf_counter()
        try:
            return hook(*args)
        except (AttributeError, TypeError, IndexError, KeyError):
            # The boundary changed shape; its counts read 0, the run goes on.
            self.hook_errors.add(name)
            return {}
        finally:
            self.exclude(time.perf_counter() - start)

    @contextmanager
    def span(self, name):
        span = self._open(name, {})
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, on_call, on_return):
        def traced(*args, **kwargs):
            attrs = self._hook(name, on_call, args, kwargs)
            span = self._open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            attrs.update(self._hook(name, on_return, result))
            return result

        return traced

    def install(self):
        for module_name, attr, name, on_call, on_return in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, on_call, on_return))


def _self_times(spans) -> dict[int, float]:
    own = {id(s): s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[id(s.parent)] -= s.duration
    return own


def track_metrics(spans, root: Span) -> dict[str, float]:
    """Per-layer metrics of one traced `track` call rooted at `root`."""
    own = _self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name):
        return sum(s.duration for s in by_name[name])

    def count(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    m: dict[str, float] = {"cli.track_overhead_s": own[id(root)]}

    m["io_mot.parse_s"] = sum(own[id(s)] for s in by_name["io_mot.parse_detections"])
    m["io_mot.read_features_s"] = total("io_mot.read_features")
    m["io_mot.subsample_s"] = total("io_mot.subsample")
    m["io_mot.write_tracks_s"] = total("io_mot.write_tracks")
    m["io_mot.rows_in"] = count("io_mot.read_features", "rows")
    m["io_mot.dets_kept"] = count("pipeline.run", "dets")
    m["io_mot.bytes_out"] = count("io_mot.write_tracks", "bytes")

    stage1 = total(GENERATE)
    assign = total("pipeline.assign_ids")
    m["pipeline.stage1_s"] = stage1
    m["pipeline.stage2_s"] = total("pipeline.run") - stage1 - assign
    m["pipeline.assign_s"] = assign
    fuses = [s for name in FUSE_NAMES for s in by_name[name]]
    for k in range(1, MAX_FUSE_LEVELS + 1):
        level = [s for s in fuses if s.attrs.get("level") == k]
        m[f"pipeline.fuse_level_{k}_s"] = sum(s.duration for s in level)
        m[f"pipeline.fuse_level_{k}_tracklets_in"] = sum(
            s.attrs["tracklets_in"] for s in level
        )
    m["pipeline.windows"] = count(GENERATE, "windows")
    m["pipeline.windows_empty"] = count(GENERATE, "windows_empty")
    m["pipeline.fusions"] = len(fuses)
    m["pipeline.fusions_empty"] = sum(
        1 for s in fuses if s.attrs.get("tracklets_in", 1) == 0
    )
    m["pipeline.tracklets_stage1"] = count(GENERATE, "tracklets")
    m["pipeline.tracks_out"] = count("pipeline.run", "tracks")

    def of_stage(name, stage):
        return [s for s in by_name[name] if (1 if s.stage == 1 else 2) == stage]

    for stage, layer in ((1, "appearance"), (2, "weighting")):
        calls = of_stage("clustering.cluster", stage)
        pairs = sum(s.attrs.get("n", 0) * (s.attrs.get("n", 0) - 1) // 2 for s in calls)
        m[f"{layer}.matrix_s"] = sum(own[id(s)] for s in calls)
        m[f"{layer}.pairs"] = pairs
        if stage == 2:
            m["weighting.pairs_interleaved"] = sum(s.attrs.get("interleaved", 0) for s in calls)

        links = of_stage("clustering.linkage", stage)
        cuts = of_stage("clustering.cut", stage)
        merges = sum(s.attrs.get("merges", 0) for s in links)
        applied = sum(s.attrs.get("n", 0) - s.attrs.get("clusters", 0) for s in cuts)
        p = f"clustering.s{stage}."
        m[p + "calls"] = len(calls)
        m[p + "max_n"] = max((s.attrs.get("n", 0) for s in calls), default=0)
        m[p + "pairs"] = pairs
        m[p + "cannot_link"] = sum(s.attrs.get("cannot_link", 0) for s in calls)
        m[p + "linkage_s"] = sum(s.duration for s in links)
        m[p + "cut_s"] = sum(s.duration for s in cuts)
        m[p + "merges"] = merges
        m[p + "merges_applied"] = applied
        m[p + "merge_yield"] = applied / merges if merges else 0.0

    m["core.tracklet_new_calls"] = len(by_name["core.tracklet_new"])
    m["core.tracklet_new_s"] = total("core.tracklet_new")
    return m


def eval_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced `eval` call."""
    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    return {
        "metrics.parse_gt_s": total("metrics.parse_ground_truth"),
        "metrics.idf1_s": total("metrics.idf1"),
        "metrics.id_switches_s": total("metrics.id_switches"),
    }

