"""Regenerate the committed Monte Carlo reference posteriors.

    python3 perfbench/make_references.py

Runs `stein-icp ground-truth` with 1000 restarts and the acceptance-suite
*_MC configs on each benchmark scene, with a solver seed that no workload
uses, and writes references/<scene>_mc.csv for all three scenes plus a
fresh references/manifest.json, which records the exact command lines, how
long each took and the environment.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

import run

run._import_program()
ROOT = run.ROOT

from stein_icp import cli  # noqa: E402

import workloads as W  # noqa: E402


def make_reference(scene: str) -> dict:
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_tmp") as tmp:
        tmp = Path(tmp)
        scene_flags = W.write_scene(W.SCENES[scene], tmp)
        flags = (["--runs", str(W.REFERENCE_RUNS)] + W.MC_FLAGS[scene]
                 + ["--seed", str(W.REFERENCE_SOLVER_SEED), "--threads", W.THREADS])
        start = time.perf_counter()
        code = cli.main(["ground-truth"] + scene_flags + flags + ["--out", str(tmp)])
        elapsed = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"ground-truth failed on {scene} with exit code {code}")
        shutil.copyfile(tmp / "mc_samples.csv", W.reference_path(scene))
    return {
        "scene": W.SCENES[scene],
        "argv": ["stein-icp", "ground-truth", "--source", "source.ply",
                 "--reference", "reference.ply"] + flags,
        "seconds": round(elapsed, 2),
    }


def main() -> int:
    manifest = {}
    for scene in W.SCENES:
        manifest[scene] = make_reference(scene)
        manifest[scene]["environment"] = run.environment()
        print(f"{scene}: {manifest[scene]['seconds']} s", flush=True)
    (W.REFERENCE_DIR / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
