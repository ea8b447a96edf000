"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._import_program()

import workloads as W  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Workload overrides: argparse keeps the last of a repeated flag.
TINY_FLAGS = {
    "blob-register": ["--particles", "6", "--batch-size", "20", "--iterations", "4"],
    "ring-swarm": ["--particles", "6", "--batch-size", "20", "--iterations", "4"],
    "block-ground-truth": ["--runs", "6", "--batch-size", "20", "--iterations", "4"],
}


def tiny(name, check):
    spec = W.WORKLOADS[name]
    return {**spec, "scene": {**spec["scene"], "n": 300},
            "flags": spec["flags"] + TINY_FLAGS[name], "check": check}


def passes(samples):
    return None


def fails(samples):
    return "deliberate failure"


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def emitted(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name):
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(W.WORKLOADS)
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, details = run.run(name, tiny(name, passes), seed=3, seconds=0.01, trace=trace)
        assert emitted(result) == declared(kind)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
        assert details["environment"]["engine_workers"] == 1
    # The traced run counts the engine's calls from outside.
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    assert layers["correspondence.queries"] > 0
    assert layers["stein.particle_iters"] > 0
    assert layers["solve_peak_mb"] > 0
    assert (layers["stein.kernel_pairs"] == 0) == (name == "block-ground-truth")
    assert (layers["evaluation.kde_s"] > 0) == (name == "block-ground-truth")


def test_failing_check_raises_failed_frac():
    name = "blob-register"
    result, details = run.run(name, tiny(name, fails), seed=0, seconds=0.01, trace=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["failed_frac"]["value"] == 1.0
    assert details["failures"][0] == "deliberate failure"


def test_fidelity_repeats_for_a_fixed_seed():
    name = "ring-swarm"
    first, first_details = run.run(name, tiny(name, passes), seed=5, seconds=0.01, trace=False)
    again, again_details = run.run(name, tiny(name, passes), seed=5, seconds=0.01, trace=False)
    assert first["metrics"]["ovl"] == again["metrics"]["ovl"]
    assert first_details["fidelity"] == again_details["fidelity"]


def test_tracing_overhead_is_estimated_from_calls():
    name = "ring-swarm"
    result, details = run.run(name, tiny(name, passes), seed=2, seconds=0.01, trace=True)
    assert details["traced_calls"] > 0 and details["wrapper_cost_s"] > 0
    overhead = result["metrics"]["tracing.overhead_frac"]["value"]
    assert overhead == pytest.approx(details["traced_calls"] * details["wrapper_cost_s"]
                                     / sum(details["solve_times_s"]))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "blob-register",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
