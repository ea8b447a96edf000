"""Command line interface.

Subcommands: register, ground-truth, evaluate, odometry, synth.
Every command reads an optional INI config file (--config FILE, section
named after the command); explicit flags override file values, and unknown
config keys are rejected. Exit codes: 0 success, 1 numerical failure,
2 bad input. The solver is single-threaded and data-parallel over
particles; --threads accepts only 1.

Each solver option is the IcpConfig/SteinConfig field of the same name
(the prior options map onto PriorConfig's fields) and takes that field's
dataclass default; this module holds only its parser. register runs one
solve path, the Stein engine at the median-heuristic kernel bandwidth,
stepped by Adam; the one-pose SGD-ICP baseline is `--particles 1
--trans-range 0 --rot-range 0` (from --init-center, without a prior),
which reproduces run_sgd_icp bit for bit. --metric plane on a reference
without normals estimates them first (estimate_normals, over 10 neighbors).
register and ground-truth share one load, solve and write sequence, and
each writes diagnostics.json next to its samples and summary: the
solve's wall time (seconds), the time to load both clouds and estimate the
reference normals that --metric plane needs (load_seconds), the time to
write the samples and the summary (write_seconds), the engine loop's own
time (engine_seconds), the time it took to build the exact index and the
coarse table before the loop (build_seconds), the five phase times on that
loop's clock (phases), the share of the exact index's queries its cell grid
certified (certified_share), the number of cells that grid filled
(filled_cells) and the points matched on the coarse table (coarse_queries).
ground-truth's also lists failed_restarts: the index, iteration and cause
of each restart the engine froze. Timings stay out of summary.json and
mc_summary.json, which are byte-stable across reruns. evaluate reads a
sample file as the xyz-csv cloud reader reads its rows, with an optional
header row.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .cloud import (FORMATS, _read_body, _text_rows, estimate_normals, format_table, load_cloud,
                    write_cloud)
from .errors import InputError, NumericalError, check_count
from .evaluation import (
    ANGULAR_DIMS,
    DIMENSION_NAMES,
    PoseDistribution,
    kde_1d,
    metrics_report,
    pose_summary,
)
from .geometry import Pose6D, wrap_angle
from .odometry import build_trajectory, check_level, ellipse_rows, trajectory_rows
from .sgd import IcpConfig
from .stein import UNIFORM_PRIOR, PriorConfig, SteinConfig, mc_ground_truth, run_stein_icp
from .synthetic import BLOCK_GAP, make_scene

__all__ = ["main"]


def _parse_floats(s, n: int) -> tuple:
    vals = [float(v) for v in str(s).replace(",", " ").split()]
    if len(vals) != n:
        raise InputError(f"expected {n} comma-separated numbers, got {len(vals)} in {s!r}")
    return tuple(vals)


_parse_pose = partial(_parse_floats, n=6)
_parse_triple = partial(_parse_floats, n=3)


def _parse_range(s):
    vals = [float(v) for v in str(s).replace(",", " ").split()]
    if len(vals) == 1:
        return vals[0]
    if len(vals) == 3:
        return tuple(vals)
    raise InputError(f"range must be 1 or 3 numbers, got {s!r}")


def _parse_natural(s) -> int:
    n = int(s)
    if n < 0:
        raise ValueError(s)
    return n


def _parse_threads(s) -> int:
    if int(s) != 1:
        raise ValueError(s)
    return 1


def _parse_bool(s) -> bool:
    if isinstance(s, bool):
        return s
    text = str(s).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise InputError(f"cannot parse boolean from {s!r}")


# What each parser accepts, for the message naming a value it rejects.
_EXPECTED = {int: "an integer", float: "a number", _parse_natural: "a non-negative integer",
             _parse_threads: "1 (the solver is single-threaded)"}


# Parser of each solver option. An option is the IcpConfig/SteinConfig field
# of the same name, or the PriorConfig field _PRIOR_FIELDS names, and its
# default is that field's dataclass default. The same parsers digest
# config-file strings, so file values and flags behave identically.
_SOLVER_PARSERS = {
    "metric": str, "batch_size": int, "step_size": float, "iterations": int,
    "max_dist": float, "likelihood_scale": float,
    "seed": _parse_natural,
    "particles": int, "repulsion": _parse_bool,
    "init_center": _parse_pose,
    "trans_range": _parse_range, "rot_range": _parse_range,
    "prior": str, "prior_mean": _parse_pose, "prior_variance": _parse_triple,
    "prior_kappa": _parse_triple,
}
_PRIOR_FIELDS = {"prior": "kind", "prior_mean": "mean",
                 "prior_variance": "trans_variance", "prior_kappa": "kappa"}
_SOLVER_DEFAULTS = {**{f.name: f.default for f in fields(SteinConfig)},
                    **{opt: getattr(UNIFORM_PRIOR, name) for opt, name in _PRIOR_FIELDS.items()}}


def _solver_options(names) -> dict:
    return {name: (_SOLVER_PARSERS[name], _SOLVER_DEFAULTS[name]) for name in names}


_ICP = _solver_options(f.name for f in fields(IcpConfig))
_STEIN = _solver_options(f.name for f in fields(SteinConfig))
_INIT = _solver_options(("init_center", "trans_range", "rot_range"))
_PRIOR = _solver_options(_PRIOR_FIELDS)

# Every command that solves also takes this, as (parser, default).
_RUN = {
    "threads": (_parse_threads, 1),   # validated only: the solver is single-threaded
}

# The default of an option a command cannot run without.
REQUIRED = object()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stein-icp", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for cmd, (handler, opts) in _COMMANDS.items():
        p = sub.add_parser(cmd, help=handler.__doc__)
        p.add_argument("--config", default=None, help="INI config file")
        for dest in opts:
            flag = "--" + dest.replace("_", "-")
            p.add_argument(flag, dest=dest, default=None, metavar="V")
    return parser


def _parse_option(label: str, parse, raw):
    """parse(raw); a bad value is an InputError naming its flag or config key."""
    try:
        return parse(raw)
    except InputError as e:
        raise InputError(f"{label}: {e}") from None
    except ValueError:
        expected = _EXPECTED.get(parse, "comma-separated numbers")
        raise InputError(f"{label}: expected {expected}, got {raw!r}") from None


def _effective(args, opts: dict) -> dict:
    """Merge flag values over config-file values over the defaults of the
    command's options, opts; a REQUIRED option left unset is bad input."""
    merged = {}
    file_vals = {}
    if args.config:
        ini = configparser.ConfigParser()
        try:
            read = ini.read(args.config)
            items = ini.items(args.command) if ini.has_section(args.command) else []
        except (configparser.Error, UnicodeDecodeError) as e:
            errors = getattr(e, "errors", None)          # ParsingError: [(lineno, line)]
            line = getattr(e, "lineno", None) or (errors[0][0] if errors else None)
            where = f"{args.config}:{line}" if line else args.config
            raise InputError(f"{where}: {str(e).splitlines()[0].split(']: ')[-1]}") from None
        if not read:
            raise InputError(f"cannot read config file {args.config}")
        for key, raw in items:
            dest = key.replace("-", "_")
            if dest not in opts:
                raise InputError(f"unknown config key {key!r} for command {args.command!r}")
            file_vals[dest] = raw
    for dest, (parse, default) in opts.items():
        flag = "--" + dest.replace("_", "-")
        if getattr(args, dest) is not None:
            merged[dest] = _parse_option(flag, parse, getattr(args, dest))
        elif dest in file_vals:
            merged[dest] = _parse_option(f"{args.config}: {flag[2:]}", parse, file_vals[dest])
        else:
            merged[dest] = default
    for dest, value in merged.items():
        if value is REQUIRED:
            raise InputError(f"--{dest.replace('_', '-')} is required")
    return merged


def _load_pair(cfg: dict):
    return load_cloud(cfg["source"]), _plane_ready(load_cloud(cfg["reference"]), cfg)


def _plane_ready(reference, cfg: dict):
    """The reference, with estimated normals when point-to-plane matching
    needs them and it carries none."""
    if cfg["metric"] == "plane" and reference.normals is None:
        reference = estimate_normals(reference)
    return reference


def _config(cls, cfg: dict):
    """An IcpConfig or SteinConfig from the options named after its fields."""
    return cls(**{f.name: cfg[f.name] for f in fields(cls)})


def _prior_config(cfg: dict) -> PriorConfig:
    return PriorConfig(**{name: cfg[opt] for opt, name in _PRIOR_FIELDS.items()})


def _write_csv(header, values, path: Path, index: bool = False) -> None:
    """The one writer of the CSV artifacts: a header row, then the float
    table (format_table), comma separated with "\r\n" line ends."""
    path.write_text(",".join(header) + "\r\n" + format_table(values, ",", "\r\n", index),
                    newline="")


def _read_samples(path) -> np.ndarray:
    """The (n, 6) sample rows of a CSV, read as numeric text like an xyz-csv
    cloud (cloud._text_rows and cloud._read_body): blank and comment (#)
    rows are skipped, and a byte that is not UTF-8, a row that is not 6
    numbers or a file without sample rows is bad input, at its line where
    it has one. The first row may be a header."""
    rows, linenos = _text_rows(Path(path).read_bytes(), path)
    try:
        list(map(float, rows[0].split() if rows else ()))
    except ValueError:
        rows, linenos = rows[1:], linenos[1:]          # the header
    if not rows:
        raise InputError(f"{path}: no sample rows")
    for row, lineno in zip(rows, linenos):
        if (width := len(row.split())) != 6:
            raise InputError(f"{path}:{lineno}: expected 6 columns, got {width}")
    return _read_body(rows, linenos, 6, path, list(range(6)), None)[0]


def _write_json(payload: dict, path: Path) -> None:
    """The one writer of the JSON artifacts: indented, keys sorted."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _timed(call, *args, **kwargs):
    """call(*args, **kwargs) and the seconds it took."""
    start = time.perf_counter()
    result = call(*args, **kwargs)
    return result, time.perf_counter() - start


def _write_posterior(dist: PoseDistribution, samples: Path, summary: Path) -> None:
    """The samples CSV and the summary JSON of a solve."""
    _write_csv(DIMENSION_NAMES, dist.samples, samples)
    _write_json(_summary_payload(dist), summary)


def _summary_payload(dist: PoseDistribution) -> dict:
    return {
        "mean": {n: float(v) for n, v in zip(DIMENSION_NAMES, dist.mean)},
        "covariance": [[float(v) for v in row] for row in dist.covariance],
        "per_dimension": pose_summary(dist),
        "samples": int(len(dist)),
    }


def _diagnostics_payload(seconds: float, engine, load_seconds: float,
                         write_seconds: float) -> dict:
    """The keys of diagnostics.json every solving command writes, from the
    solve's wall time and its EngineResult, the time _load_pair took and
    the time the artifacts written before diagnostics.json took."""
    counts = engine.match_counts
    return {"seconds": seconds, "load_seconds": load_seconds, "write_seconds": write_seconds,
            "engine_seconds": engine.loop_seconds,
            "build_seconds": engine.build_seconds, "phases": engine.timings,
            "certified_share": counts["certified"] / counts["queried"],
            "filled_cells": counts["filled"],
            "coarse_queries": counts["coarse_queried"]}


def _trace_means(trace: np.ndarray) -> np.ndarray:
    """The (T + 1, 6) mean poses of a (T + 1, K, 6) particle trace.
    Translations are averaged; each angle is the first particle's, less
    the mean of its wrapped offsets to every particle's, so that a swarm
    that straddles +-pi averages on the circle and one particle's angles
    keep their bits (subtracting 0.0 keeps even -0.0)."""
    mean = trace.mean(axis=1)
    lead = trace[:, 0, 3:]
    offsets = wrap_angle(lead[:, None] - trace[:, :, 3:])
    mean[:, 3:] = wrap_angle(lead - offsets.mean(axis=1))
    return mean


def _print_pose(label: str, pose: np.ndarray) -> None:
    parts = ", ".join(f"{n}={v:.6f}" for n, v in zip(DIMENSION_NAMES, pose))
    print(f"{label}: {parts}")


# --------------------------------------------------------------------------
# Commands


def _solve(cfg: dict, solve, samples: str, summary: str):
    """The solve path of register and ground-truth: load the pair
    (_load_pair), solve it with solve(source, reference), which returns the
    PoseDistribution and its EngineResult, and write the samples CSV and
    the summary JSON under the names samples and summary in --out. Returns
    (out, dist, engine, diagnostics), diagnostics being the payload of
    diagnostics.json, which the command writes."""
    (source, reference), load_seconds = _timed(_load_pair, cfg)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    (dist, engine), seconds = _timed(solve, source, reference)
    _, write_seconds = _timed(_write_posterior, dist, out / samples, out / summary)
    return out, dist, engine, _diagnostics_payload(seconds, engine, load_seconds, write_seconds)


def cmd_register(cfg: dict) -> int:
    """estimate the pose posterior aligning --source onto --reference"""
    config, prior = _config(SteinConfig, cfg), _prior_config(cfg)
    out, dist, engine, diagnostics = _solve(
        cfg, lambda source, reference: run_stein_icp(source, reference, config, prior,
                                                     full_output=True),
        "samples.csv", "summary.json")
    _write_json(diagnostics, out / "diagnostics.json")
    if cfg["trace"]:
        mean_poses = _trace_means(engine.particle_trace)
        _write_csv(["iteration", "cost", *DIMENSION_NAMES],
                   np.column_stack([engine.cost_trace, mean_poses[1:]]), out / "trace.csv",
                   index=True)
    _print_pose("mean pose", dist.mean)
    print(f"wrote {out / 'samples.csv'} ({len(dist)} samples) in {diagnostics['seconds']:.2f}s")
    return 0


def cmd_ground_truth(cfg: dict) -> int:
    """Monte-Carlo reference posterior from many independent restarts"""
    check_count("--runs", cfg["runs"], 1)
    config = SteinConfig(particles=cfg["runs"], **{name: cfg[name] for name in (*_ICP, *_INIT)})
    out, dist, engine, diagnostics = _solve(
        cfg, lambda source, reference: mc_ground_truth(source, reference, config,
                                                       full_output=True),
        "mc_samples.csv", "mc_summary.json")
    diagnostics["failed_restarts"] = [{"restart": j, "iteration": it, "cause": cause}
                                      for it, j, cause in engine.failures]
    _write_json(diagnostics, out / "diagnostics.json")
    _print_pose("mc mean pose", dist.mean)
    print(f"wrote {out / 'mc_samples.csv'} ({len(dist)} of {cfg['runs']} runs) "
          f"in {diagnostics['seconds']:.2f}s")
    return 0


def cmd_evaluate(cfg: dict) -> int:
    """compare a posterior sample set against a reference sample set"""
    posterior = PoseDistribution.from_samples(_read_samples(cfg["posterior"]))
    reference = PoseDistribution.from_samples(_read_samples(cfg["reference_samples"]))
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    report = metrics_report(posterior, reference)
    _write_json(report, out / "metrics.json")
    if cfg["kde"]:
        for d, name in enumerate(DIMENSION_NAMES):
            angular = d in ANGULAR_DIMS
            if len(posterior) < 2:
                break
            grid, dens = kde_1d(posterior.samples[:, d], angular=angular)
            _write_csv([name, "density"], np.column_stack([grid, dens]), out / f"kde_{name}.csv")
    print(f"kl_6d={report['kl_6d']:.6g} kl_translation={report['kl_translation']:.6g} "
          f"kl_rotation={report['kl_rotation']:.6g} ovl={report['ovl']:.4f}")
    return 0


def cmd_odometry(cfg: dict) -> int:
    """chain pairwise registrations over a frame directory"""
    check_level(cfg["level"])
    frame_dir = Path(cfg["frames"])
    if not frame_dir.is_dir():
        raise InputError(f"{frame_dir} is not a directory")
    try:
        paths = sorted(p for p in frame_dir.glob(cfg["pattern"]) if p.is_file())
    except (ValueError, NotImplementedError) as e:
        raise InputError(f"--pattern: {e}") from None
    if len(paths) < 2:
        raise InputError(f"need at least 2 frames matching {cfg['pattern']!r} in {frame_dir}")
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    clouds = [load_cloud(p) for p in paths]
    # Every frame but the last is a reference; all are ready before any solve.
    references = [_plane_ready(c, cfg) for c in clouds[:-1]]
    steps = []
    base = _config(SteinConfig, cfg)
    for i in range(1, len(clouds)):
        # Frame i registered onto frame i-1; seeds decorrelate across steps.
        step_cfg = replace(base, seed=base.seed + i)
        steps.append(run_stein_icp(clouds[i], references[i - 1], step_cfg))
    traj = build_trajectory(steps)
    cov_names = [f"cov_{i}{j}" for i in range(6) for j in range(i, 6)]
    _write_csv(["index", *DIMENSION_NAMES, *cov_names],
               [[*pose, *tri] for _, pose, tri in trajectory_rows(traj)],
               out / "trajectory.csv", index=True)
    _write_csv(["index", "center_x", "center_y", "semi_major", "semi_minor", "angle", "level"],
               [[cx, cy, *axes, angle, level]
                for _, (cx, cy), axes, angle, level in ellipse_rows(traj, level=cfg["level"])],
               out / "ellipses.csv", index=True)
    _write_json({"frames": [p.name for p in paths], "steps": len(steps)}, out / "frames.json")
    final = traj.transforms[-1][:3, 3]
    print(f"chained {len(steps)} steps over {len(paths)} frames; "
          f"final position ({final[0]:.4f}, {final[1]:.4f}, {final[2]:.4f})")
    return 0


def cmd_synth(cfg: dict) -> int:
    """write a synthetic benchmark scene with known ground truth"""
    fmt = cfg["format"]
    if fmt not in FORMATS:
        raise InputError(f"format must be one of {FORMATS}, got {fmt!r}")
    kwargs = {"n": cfg["points"], "noise": cfg["noise"], "seed": cfg["seed"]}
    if cfg["true_pose"] is not None:
        if cfg["scene"] == "block":
            raise InputError("the block scene keeps its exact two-mode geometry; "
                             "--true-pose is not supported for it")
        kwargs["true_pose"] = Pose6D.from_array(cfg["true_pose"])
    source, reference, true_pose = make_scene(cfg["scene"], **kwargs)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    suffix = ".csv" if fmt == "xyz-csv" else f".{fmt}"
    write_cloud(source, out / f"source{suffix}", fmt)
    write_cloud(reference, out / f"reference{suffix}", fmt)
    payload = {
        "scene": cfg["scene"], "points": cfg["points"], "noise": cfg["noise"],
        "seed": cfg["seed"],
        "true_pose": {n: float(v) for n, v in zip(DIMENSION_NAMES, true_pose.to_array())},
        "note": ("source and reference are independent samplings of one surface, the "
                 "reference posed by true_pose, both with independent sensor noise; "
                 "registration of source onto reference recovers true_pose"),
    }
    if cfg["scene"] == "block":
        payload["x_modes"] = [-BLOCK_GAP / 2, BLOCK_GAP / 2]
        payload["note"] = ("two equally valid alignments: the source plate onto either "
                           "reference plate; x posterior modes at x_modes")
    _write_json(payload, out / "ground_truth.json")
    print(f"wrote {cfg['scene']} scene to {out}")
    return 0


# Each command once: its handler, whose docstring is its help line, and its
# options as {dest: (parser, default)}.
_COMMANDS = {
    "register": (cmd_register, {
        "source": (str, REQUIRED), "reference": (str, REQUIRED),
        "out": (str, "."), "trace": (_parse_bool, False),
        **_STEIN, **_PRIOR, **_RUN,
    }),
    "ground-truth": (cmd_ground_truth, {
        "source": (str, REQUIRED), "reference": (str, REQUIRED),
        "runs": (int, 1000), "out": (str, "."),
        **_ICP, **_INIT, **_RUN,
    }),
    "evaluate": (cmd_evaluate, {
        "posterior": (str, REQUIRED), "reference_samples": (str, REQUIRED),
        "out": (str, "."), "kde": (_parse_bool, True),
    }),
    "odometry": (cmd_odometry, {
        "frames": (str, REQUIRED), "pattern": (str, "*"),
        "out": (str, "."), "level": (float, 0.95),
        **_STEIN, **_RUN,
    }),
    "synth": (cmd_synth, {
        "scene": (str, "blob"), "points": (_parse_natural, 5000), "noise": (float, 0.005),
        "out": (str, "."), "format": (str, "ply"),
        "true_pose": (_parse_pose, None),
        "seed": (_parse_natural, 0),
    }),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    handler, opts = _COMMANDS[args.command]
    try:
        return handler(_effective(args, opts))
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 1
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
