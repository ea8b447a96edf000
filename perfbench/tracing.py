"""Layer spans recorded from outside the program.

The traced run replaces module attributes the program calls through with
pass-through wrappers that time each call. Nothing in the program changes:
a wrapper calls the original with the same arguments and returns its
result untouched. Spans are kept in memory; a span's self time is its
duration minus the time its direct children cover.

Spans are recorded only inside a root span (a command, or scene set-up), so
the benchmark's own checks, which call the same library functions, stay
out of the per-layer numbers.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from stein_icp import cli, cloud, correspondence, evaluation, stein, synthetic


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    children: float = 0.0   # total duration of direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    engine_results: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    # -- recording --------------------------------------------------------

    @contextmanager
    def root(self, name: str):
        """A command or a set-up step; layer spans are only kept inside one."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter())
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].children += span.duration
        self.spans.append(span)

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, owner, attr: str, name: str, on_call=None, *, root=False) -> None:
        """Replace owner.attr by a timing pass-through. on_call(args, result)
        may record counts for the call; a root wrapper records even outside
        any other span."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if not (self._stack or root):
                return original(*args, **kwargs)
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if on_call is not None:
                on_call(args, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- summaries --------------------------------------------------------

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_total(self, name: str) -> float:
        return sum(s.self_time for s in self.spans if s.name == name)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark's commands cross.

    The engine reaches the kd-tree, the kernel and the rotation helpers
    through names imported into `stein`; the commands reach the I/O,
    optimizers and evaluation through names imported into `cli`.
    """
    w = tracer.wrap
    w(cli, "main", "cli.main", root=True)
    w(cli, "load_cloud", "cloud.load")
    w(cli, "run_stein_icp", "stein.run_stein_icp")
    w(cli, "mc_ground_truth", "evaluation.mc_ground_truth")
    w(cli, "metrics_report", "evaluation.metrics")
    w(cli, "kde_1d", "evaluation.kde")
    w(cli, "pose_summary", "evaluation.summary")
    w(evaluation, "fit_gaussian", "evaluation.fit")
    w(synthetic, "make_scene", "synthetic.make_scene")
    w(cloud, "write_cloud", "cloud.write")

    def on_engine(args, result):
        tracer.engine_results.append(result)

    def on_query(args, result):
        tracer.count("correspondence.queries", len(result[0]))

    def on_rotation(args, result):
        tracer.count("stein.particle_iters", np.size(args[0]))

    def on_direction(args, result):
        k = np.shape(args[0])[0]
        tracer.count("stein.kernel_pairs", k * k)

    w(stein, "run_particle_engine", "stein.engine", on_engine)
    w(stein, "build_index", "correspondence.build")
    w(correspondence.NeighborIndex, "query", "correspondence.query", on_query)
    w(stein, "median_bandwidth", "stein.bandwidth")
    w(stein, "stein_direction", "stein.direction", on_direction)
    w(stein, "rotation_from_euler", "geometry.rotation_from_euler", on_rotation)
    w(stein, "rotation_partials", "geometry.rotation_partials")
    return tracer


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one wrapped call adds to a direct call, calibrated in process:
    a no-op timed with and without a wrapper (with a counting hook, as most
    layer wrappers have), inside a root span; the median of `repeats`."""

    class Probe:
        @staticmethod
        def noop():
            return None

    tracer = Tracer()
    direct = Probe.noop
    tracer.wrap(Probe, "noop", "probe", lambda args, result: tracer.count("probe", 1))
    wrapped = Probe.noop
    costs = []
    with tracer.root("calibration"):
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                direct()
            plain = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            costs.append((time.perf_counter() - start - plain) / calls)
    tracer.uninstall()
    return statistics.median(costs)


PHASES = ("sampling", "transform", "matching", "gradients", "update")


def layer_metrics(tracer: Tracer, solves: int, setups: int) -> dict:
    """Per-layer metrics: times in seconds and counts, each per solve (one
    workload cycle of commands) or per scene set-up."""
    per = 1.0 / max(solves, 1)
    t = tracer.total
    phases = {p: sum(r.timings.get(p, 0.0) for r in tracer.engine_results) for p in PHASES}
    queries = tracer.counts.get("correspondence.queries", 0)
    query_s = t("correspondence.query")
    kernel_s = t("stein.bandwidth") + t("stein.direction")
    out = {
        "correspondence.query_s": (query_s * per, "s"),
        "correspondence.queries": (queries * per, "count"),
        "correspondence.us_per_query": (1e6 * query_s / queries if queries else 0.0, "us"),
        "correspondence.build_s": (t("correspondence.build") * per, "s"),
        "stein.bandwidth_s": (t("stein.bandwidth") * per, "s"),
        "stein.direction_s": (t("stein.direction") * per, "s"),
        "stein.kernel_pairs": (tracer.counts.get("stein.kernel_pairs", 0) * per, "count"),
        # The engine's gradients phase less what it spends in named calls:
        # the stacked cost/gradient arithmetic that runs inline.
        "sgd.gradient_s": ((phases["gradients"] - kernel_s
                            - t("geometry.rotation_partials")) * per, "s"),
        "geometry.rotation_s": ((t("geometry.rotation_from_euler")
                                 + t("geometry.rotation_partials")) * per, "s"),
        "stein.engine_self_s": (tracer.self_total("stein.engine") * per, "s"),
        "stein.particle_iters": (tracer.counts.get("stein.particle_iters", 0) * per, "count"),
        "stein.failed_restarts": (sum(int(r.failed.sum()) for r in tracer.engine_results)
                                  * per, "count"),
        "cloud.load_s": (t("cloud.load") * per, "s"),
        "cli.self_s": (tracer.self_total("cli.main") * per, "s"),
        "evaluation.metrics_s": (t("evaluation.metrics") * per, "s"),
        "evaluation.kde_s": (t("evaluation.kde") * per, "s"),
        "evaluation.fit_s": (t("evaluation.fit") * per, "s"),
        "synthetic.make_scene_s": (t("synthetic.make_scene") / max(setups, 1), "s"),
        "cloud.write_s": (t("cloud.write") / max(setups, 1), "s"),
    }
    for p in PHASES:
        out[f"stein.phase.{p}_s"] = (phases[p] * per, "s")
    return out
