"""stein-icp benchmark: time-to-posterior and posterior fidelity.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each workload is a closed loop: one
caller runs the user-facing commands (stein_icp.cli.main, in process), one
at a time, at least twice and until S seconds have passed, and checks every
output file the commands wrote. Solver seeds follow --seed. The last line of
stdout is one JSON object:

* --trace 0: end-to-end metrics. solve_s is the median wall time of one
  workload cycle of commands; setup_s the median of several scene set-ups
  (synthetic scene generation plus writing the PLY files); ovl the median
  over the cycles of the output samples' overlap with the committed Monte
  Carlo reference.
* --trace 1: per-layer metrics from a separate traced run, whose spans are
  recorded by wrappers installed from tracing.py. Its first seed is solved
  untraced, untraced under tracemalloc (solve_peak_mb), then traced; both
  later outputs must be bitwise equal to the first. tracing.overhead_frac is
  the count of wrapped calls times a per-call wrapper cost calibrated in
  process, over the traced solve time.

The line before it holds the details: environment, every solve time and
fidelity, the sample count and any failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The engine runs with one worker; keep BLAS from adding threads of its own
# (set before numpy loads; an explicit setting in the environment wins).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SETUP_REPEATS = 21
# Every run solves at least twice, so that each run also times a solve whose
# seed comes from --seed.
MIN_SOLVES = 2


def _import_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "stein_icp" / "__init__.py").is_file():
        raise SystemExit(f"error: no stein_icp sources under {src}; "
                         "run from the root of a stein-icp checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def environment() -> dict:
    import numpy as np
    import scipy

    import workloads as W

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "engine_workers": int(W.THREADS),
    }


def _read_samples(path: Path):
    import numpy as np

    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Workload:
    """One workload's scene, commands and checks, run in a work directory."""

    def __init__(self, spec: dict, work: Path):
        import workloads as W

        self.spec = spec
        self.work = work
        self.reference = W.reference_path(spec["scene"]["name"])
        self._reference_dist = None
        self.scene_flags: list = []
        self.cycles = 0

    def setup(self) -> float:
        import workloads as W

        start = time.perf_counter()
        self.scene_flags = W.write_scene(self.spec["scene"], self.work)
        return time.perf_counter() - start

    def solve(self, seed: int) -> tuple[float, list, Path]:
        """Run one cycle of commands; returns (seconds, exit codes, output dir)."""
        from stein_icp import cli

        import workloads as W

        self.cycles += 1
        out = self.work / f"solve-{self.cycles}"
        command = self.spec["command"]
        argv = ([command] + self.scene_flags + self.spec["flags"]
                + ["--seed", str(seed), "--threads", W.THREADS, "--out", str(out)])
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            codes.append(cli.main(argv))
            if command == "ground-truth" and codes[0] == 0:
                codes.append(cli.main(["evaluate", "--posterior", str(out / "mc_samples.csv"),
                                       "--reference-samples", str(self.reference),
                                       "--out", str(out)]))
            elapsed = time.perf_counter() - start
        return elapsed, codes, out

    def samples(self, out: Path):
        name = "mc_samples.csv" if self.spec["command"] == "ground-truth" else "samples.csv"
        return _read_samples(out / name)

    def check(self, codes: list, out: Path, expect=None) -> tuple[int, int, list]:
        """Grade one cycle as a user would, from the files it wrote. With
        `expect` (samples of an untraced solve of the same seed), the output
        must also be bitwise equal to it.

        Returns (commands attempted, commands failed, reasons)."""
        import numpy as np

        attempted = 2 if self.spec["command"] == "ground-truth" else 1
        reasons = [f"exit code {c}" for c in codes if c != 0]
        if codes[0] == 0:
            try:
                samples = self.samples(out)
                problem = self.spec["check"](samples)
            except (OSError, ValueError) as e:
                samples, problem = None, f"unreadable output: {e}"
            if problem:
                reasons.append(problem)
            if expect is not None and not np.array_equal(samples, expect):
                reasons.append("output differs bitwise from the untraced solve of this seed")
        if len(codes) == 2 and codes[1] == 0:
            problem = self._check_evaluate(out)
            if problem:
                reasons.append(problem)
        return attempted, min(len(reasons), attempted), reasons

    def _check_evaluate(self, out: Path) -> str | None:
        """evaluate's metrics.json must agree with the benchmark's own report."""
        try:
            written = json.loads((out / "metrics.json").read_text())
        except (OSError, ValueError) as e:
            return f"unreadable metrics.json: {e}"
        expected = self.fidelity(out)
        if written["kl_6d"] != expected["kl_6d"] or written["ovl"] != expected["ovl"]:
            return f"metrics.json {written['kl_6d']}/{written['ovl']} != {expected}"
        return None

    def fidelity(self, out: Path) -> dict:
        from stein_icp.evaluation import PoseDistribution, metrics_report

        if self._reference_dist is None:
            self._reference_dist = PoseDistribution.from_samples(_read_samples(self.reference))
        candidate = PoseDistribution.from_samples(self.samples(out))
        report = metrics_report(candidate, self._reference_dist)
        return {"kl_6d": report["kl_6d"], "ovl": report["ovl"]}


# Fidelity of a cycle whose command failed: the worst values.
NO_FIDELITY = {"kl_6d": 1e9, "ovl": 0.0}


def run(name: str, spec: dict, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, details)."""
    import tracing
    import workloads as W

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".perfbench_tmp"))
    tracer = tracing.Tracer() if trace else None
    tally = {"attempted": 0, "failed": 0}
    reasons: list = []
    times: list = []
    fidelity: list = []
    peak_mb = None
    wl = Workload(spec, work)

    def graded(solve_seed, expect=None, trace_memory=False):
        nonlocal peak_mb
        if trace_memory:
            tracemalloc.start()
        elapsed, codes, out = wl.solve(solve_seed)
        if trace_memory:
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        attempted, failed, why = wl.check(codes, out, expect)
        tally["attempted"] += attempted
        tally["failed"] += failed
        reasons.extend(why)
        return elapsed, codes, out

    try:
        if tracer is not None:
            tracing.install(tracer)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            with tracer.root("setup") if tracer else contextlib.nullcontext():
                setup_times.append(wl.setup())
        if tracer is not None:
            tracer.uninstall()
        setup_spans = len(tracer.spans) if tracer else 0

        start = time.perf_counter()
        if tracer is not None:
            # The first seed is solved untraced, untraced under tracemalloc
            # (which slows a solve by 30-65%, so no timed cycle runs under
            # it), then traced: every output must be bitwise equal.
            first = W.solver_seed(seed, 0)
            untraced, codes, out = graded(first)
            expect = wl.samples(out) if codes[0] == 0 else None
            graded(first, expect, trace_memory=True)
            tracing.install(tracer)
            elapsed, codes, out = graded(first, expect)
            times.append(elapsed)
            fidelity.append(wl.fidelity(out) if codes[0] == 0 else NO_FIDELITY)
        solve = len(times)
        while wl.cycles < MIN_SOLVES or time.perf_counter() - start < seconds:
            elapsed, codes, out = graded(W.solver_seed(seed, solve))
            times.append(elapsed)
            fidelity.append(wl.fidelity(out) if codes[0] == 0 else NO_FIDELITY)
            solve += 1
    finally:
        tracemalloc.stop()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()     # only once no other run uses it

    attempted, failed = tally["attempted"], tally["failed"]
    kl = statistics.median(f["kl_6d"] for f in fidelity)
    ovl = statistics.median(f["ovl"] for f in fidelity)
    details = {
        "workload": name, "seed": seed, "trace": bool(trace),
        "environment": environment(),
        "solves": len(times), "solve_times_s": times, "setup_times_s": setup_times,
        "fidelity": fidelity,
        "commands_attempted": attempted, "commands_failed": failed,
        "failed_frac": failed / attempted, "failures": reasons[:10],
    }
    if tracer is None:
        metrics = {
            "solve_s": (statistics.median(times), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "ovl": (ovl, "fraction"),
        }
    else:
        metrics = tracing.layer_metrics(tracer, solves=len(times), setups=len(setup_times))
        calls = len(tracer.spans) - setup_spans
        cost = tracing.wrapper_cost()
        metrics["tracing.overhead_frac"] = (calls * cost / sum(times), "ratio")
        metrics["kl_6d"] = (kl, "nats")
        metrics["solve_peak_mb"] = (peak_mb, "MB")
        metrics["failed_frac"] = (failed / attempted, "fraction")
        details["untraced_time_s"] = untraced
        details["traced_calls"] = calls
        details["wrapper_cost_s"] = cost
        # One pair of solves: mostly the machine's drift, not the wrappers.
        details["traced_over_untraced"] = times[0] / untraced - 1.0
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _import_program()
    import workloads as W

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(W.WORKLOADS)}")
    result, details = run(args.workload, W.WORKLOADS[args.workload], args.seed,
                          args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
