"""End-to-end command line checks: every subcommand on small inputs, config
file precedence, determinism of the written artifacts, and exit codes."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stein_icp import (IcpConfig, InputError, PointCloud, Pose6D, PoseDistribution,
                       SteinConfig, estimate_normals, load_cloud, run_sgd_icp, write_cloud)
from stein_icp import cli
from stein_icp.cli import main

from test_cloud import bits, finite_floats


@pytest.fixture()
def pair(tmp_path, rng):
    """A small registration pair on disk: a wavy surface and a shifted copy."""
    pts = rng.uniform(-1, 1, (300, 3))
    pts[:, 2] = 0.25 * np.sin(3 * pts[:, 0]) + 0.15 * np.cos(2 * pts[:, 1])
    ref = tmp_path / "reference.ply"
    src = tmp_path / "source.ply"
    write_cloud(PointCloud(pts), ref)
    write_cloud(PointCloud(pts + [0.05, -0.03, 0.02]), src)
    return src, ref


_FAST = ["--particles", "6", "--iterations", "15", "--batch-size", "60",
         "--trans-range", "0.05", "--rot-range", "0.02"]
_GT_FAST = ["--runs", "4", "--iterations", "15", "--batch-size", "60",
            "--trans-range", "0.05", "--rot-range", "0.02"]


# The numeric options of _SOLVER_PARSERS, each a SteinConfig field.
_NUMERIC_SOLVER_OPTIONS = tuple(name for name, parse in cli._SOLVER_PARSERS.items()
                                if parse in (int, float, cli._parse_natural))

# The one-pose SGD-ICP baseline: one particle starting at --init-center.
_ONE_POSE = ["--particles", "1", "--trans-range", "0", "--rot-range", "0"]


class _ConfigAccepted(Exception):
    """Raised in place of reading the clouds: every option was accepted."""


def _stop_before_loading(cfg):
    raise _ConfigAccepted


def _register(src, ref, out, *extra):
    return main(["register", "--source", str(src), "--reference", str(ref),
                 "--out", str(out), *_FAST, *extra])


class TestSynth:
    def test_writes_scene_files(self, tmp_path):
        out = tmp_path / "scene"
        rc = main(["synth", "--scene", "blob", "--points", "400", "--out", str(out),
                   "--true-pose", "0.1 0 0 0 0 0.2"])
        assert rc == 0
        source = load_cloud(out / "source.ply")
        reference = load_cloud(out / "reference.ply")
        assert len(source) == 400 and len(reference) == 400
        payload = json.loads((out / "ground_truth.json").read_text())
        assert payload["true_pose"]["x"] == 0.1
        assert payload["true_pose"]["yaw"] == 0.2
        assert payload["scene"] == "blob"
        assert "note" in payload

    def test_block_scene_records_modes_and_rejects_pose(self, tmp_path):
        out = tmp_path / "block"
        rc = main(["synth", "--scene", "block", "--points", "300", "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "ground_truth.json").read_text())
        assert payload["x_modes"] == [-0.25, 0.25]
        rc = main(["synth", "--scene", "block", "--points", "300",
                   "--out", str(tmp_path / "b2"), "--true-pose", "0.1 0 0 0 0 0"])
        assert rc == 2
        assert not (tmp_path / "b2").exists()

    def test_format_selection(self, tmp_path):
        out = tmp_path / "csv_scene"
        rc = main(["synth", "--scene", "ring", "--points", "200", "--out", str(out),
                   "--format", "xyz-csv"])
        assert rc == 0
        assert (out / "source.csv").exists()
        assert main(["synth", "--format", "laz", "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    def test_negative_point_count_is_bad_input(self, tmp_path, capsys):
        assert main(["synth", "--points", "-5", "--out", str(tmp_path / "n")]) == 2
        assert "--points: expected a non-negative integer" in capsys.readouterr().err
        assert main(["synth", "--noise", "-1", "--out", str(tmp_path / "synth")]) == 2
        assert "noise must be non-negative" in capsys.readouterr().err

    def test_unknown_scene(self, tmp_path):
        assert main(["synth", "--scene", "torus", "--out", str(tmp_path / "t")]) == 2
        assert not (tmp_path / "t").exists()


class TestRegister:
    def test_outputs_and_row_count(self, pair, tmp_path, capsys):
        src, ref = pair
        out = tmp_path / "reg"
        assert _register(src, ref, out) == 0
        lines = (out / "samples.csv").read_text().strip().splitlines()
        assert lines[0] == "x,y,z,roll,pitch,yaw"
        assert len(lines) == 1 + 6  # header plus one row per particle
        summary = json.loads((out / "summary.json").read_text())
        assert summary["samples"] == 6
        assert set(summary["mean"]) == {"x", "y", "z", "roll", "pitch", "yaw"}
        assert len(summary["covariance"]) == 6
        assert "mean pose" in capsys.readouterr().out
        artifacts = {"samples.csv", "summary.json", "diagnostics.json"}
        assert {p.name for p in out.iterdir()} == artifacts
        assert _register(src, ref, tmp_path / "traced", "--trace", "1") == 0
        assert {p.name for p in (tmp_path / "traced").iterdir()} == artifacts | {"trace.csv"}
        assert _register(src, ref, tmp_path / "sgd", *_ONE_POSE) == 0
        assert {p.name for p in (tmp_path / "sgd").iterdir()} == artifacts

    def test_reruns_are_byte_identical(self, pair, tmp_path):
        src, ref = pair
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert _register(src, ref, out1) == 0
        assert _register(src, ref, out2) == 0
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_trace_file(self, pair, tmp_path):
        src, ref = pair
        out = tmp_path / "traced"
        assert _register(src, ref, out, "--trace", "true") == 0
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,cost,x,y,z,roll,pitch,yaw"
        assert len(lines) == 1 + 15

    def test_non_finite_config_value_is_bad_input(self, pair, tmp_path):
        src, ref = pair
        assert _register(src, ref, tmp_path / "nan", "--step-size", "nan") == 2

    def test_sgd_method_gives_single_sample(self, pair, tmp_path):
        """The one-pose baseline is the one-particle engine run: its one
        sample and its trace equal run_sgd_icp's pose and traces bit for bit."""
        src, ref = pair
        out = tmp_path / "sgd"
        assert _register(src, ref, out, *_ONE_POSE, "--trace", "true") == 0
        pose, sgd = run_sgd_icp(load_cloud(src), load_cloud(ref), Pose6D(),
                                IcpConfig(batch_size=60, iterations=15))
        samples = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(samples, pose.to_array()[None])
        trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(trace[:, 0], np.arange(15))
        np.testing.assert_array_equal(trace[:, 1], sgd.cost_trace)
        np.testing.assert_array_equal(trace[:, 2:], sgd.particle_trace[1:, 0])

    @pytest.mark.parametrize("command, option, value", [
        ("register", "method", "sgd"),
        ("register", "bandwidth", "median"),
        ("odometry", "bandwidth", "median"),
    ], ids=["method", "bandwidth", "odometry-bandwidth"])
    def test_retired_option_is_not_an_option(self, tmp_path, capsys, command, option, value):
        """One solve path at the median-heuristic bandwidth: neither the
        flag nor the config key that chose another exists."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, f"--{option}", value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: --{option}" in capsys.readouterr().err
        ini = tmp_path / "retired.ini"
        ini.write_text(f"[{command}]\n{option} = {value}\n")
        assert main([command, "--config", str(ini)]) == 2
        assert (f"unknown config key '{option}' for command '{command}'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("run", ["stein", "sgd"])
    @pytest.mark.parametrize("flags, message", [
        (["--prior", "gaussian"], "prior kind must be 'uniform' or 'informed'"),
        (["--prior", "informed", "--prior-variance=-1,1,1"], "trans_variance must be"),
    ])
    def test_prior_flags_are_validated(self, pair, tmp_path, capsys, run, flags, message):
        """Checked for the swarm and for the one-pose baseline alike."""
        src, ref = pair
        run_flags = _ONE_POSE if run == "sgd" else []
        assert _register(src, ref, tmp_path / "p", *run_flags, *flags) == 2
        assert message in capsys.readouterr().err

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(_NUMERIC_SOLVER_OPTIONS),
           value=st.one_of(st.integers(), st.floats(),
                           st.sampled_from([0, -1, 0.0, -0.0, 2.5, -2.5, 1e-300,
                                            float("nan"), float("inf"), float("-inf")])))
    def test_cli_and_library_reject_the_same_values(self, name, value):
        """register exits 2 naming the option exactly when the config
        rejects the value. The clouds are never read: an accepted value
        reaches the stubbed loader and stops there."""
        try:
            SteinConfig(**{name: value})
            rejected = False
        except InputError:
            rejected = True
        flag = "--" + name.replace("_", "-")
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
            mp.setattr(cli, "_load_pair", _stop_before_loading)
            try:
                rc = main(["register", "--source", "s.ply", "--reference", "r.ply",
                           f"{flag}={value!r}"])
            except _ConfigAccepted:
                rc = None
        if rejected:
            assert rc == 2
            assert flag in err.getvalue() or f"{name} " in err.getvalue()
        else:
            assert rc is None, err.getvalue()

    def test_batch_size_larger_than_cloud_is_bad_input(self, tmp_path, rng, capsys):
        cloud = tmp_path / "cloud.ply"
        write_cloud(PointCloud(rng.uniform(-1, 1, (5000, 3))), cloud)
        rc = main(["register", "--source", str(cloud), "--reference", str(cloud),
                   "--out", str(tmp_path / "o"), "--batch-size", "5001"])
        assert rc == 2
        assert "batch size must satisfy 1 <= m <= 5000, got 5001" in capsys.readouterr().err

    def test_missing_source_file(self, pair, tmp_path):
        _, ref = pair
        rc = main(["register", "--source", str(tmp_path / "absent.ply"),
                   "--reference", str(ref), "--out", str(tmp_path / "o"), *_FAST])
        assert rc == 2

    def test_numerical_failure_exit_code(self, pair, tmp_path, rng, capsys):
        src, ref = pair
        far = tmp_path / "far.ply"
        write_cloud(PointCloud(load_cloud(src).points + [50.0, 0.0, 0.0]), far)
        rc = main(["register", "--source", str(far), "--reference", str(ref),
                   "--out", str(tmp_path / "o"), *_FAST, "--max-dist", "0.01"])
        assert rc == 1
        assert "numerical failure" in capsys.readouterr().err

    def test_overflowing_pose_is_numerical_failure(self, pair, tmp_path, capsys):
        src, ref = pair
        rc = main(["register", "--source", str(src), "--reference", str(ref),
                   "--out", str(tmp_path / "o"), *_FAST, "--init-center", "1e300,0,0,0,0,0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: iteration 0: particle(s) [0, 1, 2, 3, 4, 5]")
        assert "floating-point range" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    def test_non_finite_moved_point_is_numerical_failure(self, pair, tmp_path, capsys):
        """A source point near the float limit turned by 45 degrees of yaw
        overflows to inf or nan: exit 1 naming the iteration and particles,
        no traceback and no warning."""
        _, ref = pair
        src = tmp_path / "huge.ply"
        write_cloud(PointCloud([[1.5e308, 1.5e308, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), src)
        rc = main(["register", "--source", str(src), "--reference", str(ref),
                   "--out", str(tmp_path / "o"), "--particles", "2", "--iterations", "2",
                   "--batch-size", "3", "--init-center", f"0,0,0,0,0,{np.pi / 4!r}",
                   "--trans-range", "0.01", "--rot-range", "0.01"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: iteration 0: particle(s) [0, 1]")
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_tied_match_on_a_reference_whose_extent_overflows(self, tmp_path, capsys):
        """The source point lies midway between two reference points, next
        to points at +-1e308: the tie resolves, and the run succeeds."""
        src, ref = tmp_path / "src.ply", tmp_path / "ref.ply"
        write_cloud(PointCloud([[0.05, 0.0, 0.0]]), src)
        write_cloud(PointCloud([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [1e308, 0.0, 0.0],
                                [-1e308, 0.0, 0.0]]), ref)
        rc = main(["register", "--source", str(src), "--reference", str(ref),
                   "--out", str(tmp_path / "o"), "--particles", "1", "--iterations", "3",
                   "--batch-size", "1", "--trans-range", "0", "--rot-range", "0"])
        assert rc == 0, capsys.readouterr().err
        assert json.loads((tmp_path / "o" / "summary.json").read_text())["samples"] == 1

    def test_config_file_and_flag_precedence(self, pair, tmp_path):
        src, ref = pair
        ini = tmp_path / "run.ini"
        ini.write_text("[register]\nparticles = 4\niterations = 15\n"
                       "batch-size = 60\ntrans-range = 0.05\nrot-range = 0.02\n")
        out_file = tmp_path / "from_file"
        rc = main(["register", "--source", str(src), "--reference", str(ref),
                   "--out", str(out_file), "--config", str(ini)])
        assert rc == 0
        assert len((out_file / "samples.csv").read_text().strip().splitlines()) == 5
        out_flag = tmp_path / "flag_wins"
        rc = main(["register", "--source", str(src), "--reference", str(ref),
                   "--out", str(out_flag), "--config", str(ini), "--particles", "6"])
        assert rc == 0
        assert len((out_flag / "samples.csv").read_text().strip().splitlines()) == 7

    def test_unknown_config_key(self, pair, tmp_path, capsys):
        src, ref = pair
        ini = tmp_path / "bad.ini"
        ini.write_text("[register]\nparticle-count = 4\n")
        rc = main(["register", "--source", str(src), "--reference", str(ref),
                   "--out", str(tmp_path / "o"), "--config", str(ini)])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_shared_batch_is_not_an_option(self, pair, tmp_path, capsys):
        """Every particle draws its own minibatches; neither the flag nor the
        config key that shared one batch across the swarm exists."""
        src, ref = pair
        with pytest.raises(SystemExit) as exit_info:
            _register(src, ref, tmp_path / "flag", "--shared-batch", "true")
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --shared-batch" in capsys.readouterr().err
        ini = tmp_path / "shared.ini"
        ini.write_text("[register]\nshared_batch = true\n")
        assert _register(src, ref, tmp_path / "ini", "--config", str(ini)) == 2
        assert "unknown config key 'shared_batch'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line", [
        ("iterations = 3\n", 1),                                    # no section header
        ("[register]\niterations = 3\niterations = 4\n", 3),        # key given twice
        ("[register]\n[register]\n", 2),                            # section given twice
        ("[register]\nparticles\n", 2),                             # no value
    ])
    def test_malformed_config_file_is_bad_input(self, pair, tmp_path, capsys, text, line):
        src, ref = pair
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        rc = main(["register", "--source", str(src), "--reference", str(ref),
                   "--out", str(tmp_path / "o"), "--config", str(ini)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{ini}:{line}: " in err
        assert "Traceback" not in err

    def test_malformed_config_value_names_file_and_key(self, pair, tmp_path, capsys):
        src, ref = pair
        ini = tmp_path / "bad.ini"
        ini.write_text("[register]\nbatch-size = lots\n")
        rc = main(["register", "--source", str(src), "--reference", str(ref),
                   "--out", str(tmp_path / "o"), "--config", str(ini)])
        assert rc == 2
        assert f"{ini}: batch-size: expected an integer, got 'lots'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--iterations", "abc", "--iterations: expected an integer, got 'abc'"),
        ("--step-size", "fast", "--step-size: expected a number, got 'fast'"),
        ("--init-center", "0,0,x,0,0,0",
         "--init-center: expected comma-separated numbers, got '0,0,x,0,0,0'"),
        ("--trans-range", "0.1,0.2", "--trans-range: range must be 1 or 3 numbers"),
        ("--seed", "-1", "--seed: expected a non-negative integer, got '-1'"),
        ("--repulsion", "maybe", "--repulsion: cannot parse boolean from 'maybe'"),
        *(("--threads", v, f"--threads: expected 1 (the solver is single-threaded), got '{v}'")
          for v in ("2", "0", "-5", "abc")),
    ])
    def test_malformed_flag_names_the_flag(self, pair, tmp_path, capsys, flag, value, message):
        src, ref = pair
        assert _register(src, ref, tmp_path / "o", flag, value) == 2
        assert message in capsys.readouterr().err

    def test_missing_config_file(self, pair, tmp_path):
        src, ref = pair
        rc = main(["register", "--source", str(src), "--reference", str(ref),
                   "--out", str(tmp_path / "o"), "--config", str(tmp_path / "no.ini")])
        assert rc == 2

    def test_comma_separated_init_center(self, pair, tmp_path):
        src, ref = pair
        rc = _register(src, ref, tmp_path / "c", "--init-center", "0.01,0,0,0,0,0")
        assert rc == 0


class TestGroundTruth:
    def test_outputs(self, pair, tmp_path, capsys):
        src, ref = pair
        out = tmp_path / "gt"
        rc = main(["ground-truth", "--source", str(src), "--reference", str(ref),
                   "--out", str(out), "--runs", "6", "--iterations", "25",
                   "--batch-size", "60", "--trans-range", "0.05",
                   "--rot-range", "0.02"])
        assert rc == 0
        lines = (out / "mc_samples.csv").read_text().strip().splitlines()
        assert len(lines) == 7
        summary = json.loads((out / "mc_summary.json").read_text())
        assert summary["samples"] == 6
        assert "mc mean pose" in capsys.readouterr().out

    def test_deterministic(self, pair, tmp_path):
        src, ref = pair
        args = ["--runs", "4", "--iterations", "20", "--batch-size", "60",
                "--trans-range", "0.05", "--rot-range", "0.02"]
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        for out in (out1, out2):
            assert main(["ground-truth", "--source", str(src), "--reference",
                         str(ref), "--out", str(out), *args]) == 0
        assert (out1 / "mc_samples.csv").read_bytes() == (out2 / "mc_samples.csv").read_bytes()

    def test_overflowing_restarts_are_frozen(self, pair, tmp_path, capsys):
        src, ref = pair
        rc = main(["ground-truth", "--source", str(src), "--reference", str(ref),
                   "--out", str(tmp_path / "gt"), "--runs", "4", "--iterations", "3",
                   "--batch-size", "60", "--init-center", "1e300,0,0,0,0,0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "numerical failure: 4 of 4 restarts failed\n"

    def test_non_finite_init_center_is_bad_input(self, pair, tmp_path, capsys):
        src, ref = pair
        rc = main(["ground-truth", "--source", str(src), "--reference", str(ref),
                   "--out", str(tmp_path / "gt"), "--runs", "2", "--iterations", "2",
                   "--init-center", "nan,0,0,0,0,0"])
        assert rc == 2
        assert "init_center must have 6 finite entries" in capsys.readouterr().err


class TestEvaluate:
    def _samples_file(self, tmp_path, rng, name="post.csv", n=60):
        path = tmp_path / name
        samples = rng.normal(0, 0.05, (n, 6))
        rows = ["x,y,z,roll,pitch,yaw"]
        rows += [",".join(repr(float(v)) for v in row) for row in samples]
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_self_comparison_is_near_perfect(self, tmp_path, rng, capsys):
        post = self._samples_file(tmp_path, rng)
        out = tmp_path / "eval"
        rc = main(["evaluate", "--posterior", str(post),
                   "--reference-samples", str(post), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["kl_6d"] < 1e-6
        assert report["ovl"] > 0.999
        for name in ("x", "y", "z", "roll", "pitch", "yaw"):
            assert (out / f"kde_{name}.csv").exists()
        assert "kl_6d=" in capsys.readouterr().out

    def test_kde_can_be_disabled(self, tmp_path, rng):
        post = self._samples_file(tmp_path, rng)
        out = tmp_path / "nokde"
        rc = main(["evaluate", "--posterior", str(post),
                   "--reference-samples", str(post), "--out", str(out),
                   "--kde", "false"])
        assert rc == 0
        assert not list(out.glob("kde_*.csv"))

    def test_register_output_feeds_evaluate(self, pair, tmp_path, rng):
        src, ref = pair
        reg_out = tmp_path / "reg"
        assert _register(src, ref, reg_out) == 0
        other = self._samples_file(tmp_path, rng, "ref.csv")
        out = tmp_path / "cross"
        rc = main(["evaluate", "--posterior", str(reg_out / "samples.csv"),
                   "--reference-samples", str(other), "--out", str(out)])
        assert rc == 0
        assert (out / "metrics.json").exists()

    def test_malformed_inputs(self, tmp_path, rng):
        good = self._samples_file(tmp_path, rng)
        bad_text = tmp_path / "bad.csv"
        bad_text.write_text("x,y,z,roll,pitch,yaw\n1,2,3,abc,5,6\n")
        assert main(["evaluate", "--posterior", str(bad_text),
                     "--reference-samples", str(good),
                     "--out", str(tmp_path / "o1")]) == 2
        bad_width = tmp_path / "narrow.csv"
        bad_width.write_text("x,y,z\n1,2,3\n")
        assert main(["evaluate", "--posterior", str(bad_width),
                     "--reference-samples", str(good),
                     "--out", str(tmp_path / "o2")]) == 2
        assert main(["evaluate", "--posterior", str(tmp_path / "absent.csv"),
                     "--reference-samples", str(good),
                     "--out", str(tmp_path / "o3")]) == 2


class TestSamplesFile:
    @settings(max_examples=25, deadline=None)
    @given(rows=st.lists(st.tuples(*[finite_floats] * 6), min_size=1, max_size=4))
    def test_write_read_bitwise_property(self, rows):
        """The samples writer and reader share the single float format:
        every finite float64 comes back bit for bit."""
        samples = np.array(rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "samples.csv"
            cli._write_csv(["x", "y", "z", "roll", "pitch", "yaw"], samples, path)
            back = cli._read_samples(path)
        np.testing.assert_array_equal(bits(back), bits(samples))


_ODO_FAST = ["--particles", "4", "--iterations", "10", "--batch-size", "50",
             "--trans-range", "0.02", "--rot-range", "0.01"]


class TestOdometry:
    def _frames(self, tmp_path, rng, count, step=0.1, name="frames"):
        frames = tmp_path / name
        frames.mkdir()
        base = rng.uniform(-1, 1, (300, 3))
        base[:, 2] = 0.25 * np.sin(3 * base[:, 0]) + 0.15 * np.cos(2 * base[:, 1])
        for i in range(count):
            write_cloud(PointCloud(base + [step * i, 0.0, 0.0]),
                        frames / f"frame_{i}.ply")
        return frames

    @pytest.mark.parametrize("flag, value, message", [
        ("--order", "3", "order must be 2 or 4, got 3"),
        ("--level", "1.5", "level must be in (0, 1), got 1.5"),
    ])
    def test_bad_order_or_level_fails_before_any_frame_is_read(
            self, tmp_path, rng, monkeypatch, capsys, flag, value, message):
        frames = self._frames(tmp_path, rng, 3)
        read = []
        monkeypatch.setattr(cli, "load_cloud", lambda path: read.append(path))
        out = tmp_path / "o"
        assert main(["odometry", "--frames", str(frames), "--out", str(out),
                     *_ODO_FAST, flag, value]) == 2
        assert message in capsys.readouterr().err
        assert read == []
        assert not out.exists() or list(out.iterdir()) == []

    def test_plane_metric_matches_frames_with_normals(self, tmp_path, rng):
        """Normals estimated by the command give the same bytes as frames
        that already carry those normals."""
        frames = self._frames(tmp_path, rng, 3, step=0.02)
        ready = tmp_path / "ready"
        ready.mkdir()
        for path in sorted(frames.iterdir()):
            write_cloud(estimate_normals(load_cloud(path), k=10), ready / path.name)
        outputs = []
        for name, source in (("estimated", frames), ("carried", ready)):
            out = tmp_path / name
            assert main(["odometry", "--frames", str(source), "--out", str(out),
                         "--metric", "plane", "--normals-k", "10", *_ODO_FAST]) == 0
            outputs.append([(out / f).read_bytes() for f in ("trajectory.csv", "ellipses.csv")])
        assert outputs[0] == outputs[1]

    def test_plane_metric_small_reference_fails_before_any_solve(
            self, tmp_path, rng, monkeypatch, capsys):
        frames = self._frames(tmp_path, rng, 3)
        # frame_1 is the reference of the second step only.
        write_cloud(PointCloud(rng.uniform(-1, 1, (5, 3))), frames / "frame_1.ply")
        solves = []
        monkeypatch.setattr(cli, "run_stein_icp", lambda *a, **k: solves.append(a))
        out = tmp_path / "o"
        assert main(["odometry", "--frames", str(frames), "--out", str(out),
                     "--metric", "plane", "--normals-k", "10", *_ODO_FAST]) == 2
        assert "needs at least k points" in capsys.readouterr().err
        assert solves == []
        assert list(out.iterdir()) == []

    def test_identical_frames_give_identity_step(self, tmp_path, rng):
        frames = tmp_path / "same"
        frames.mkdir()
        pts = rng.uniform(-1, 1, (250, 3))
        pts[:, 2] = 0.2 * np.sin(3 * pts[:, 0])
        for name in ("a.ply", "b.ply"):
            write_cloud(PointCloud(pts), frames / name)
        out = tmp_path / "odo"
        rc = main(["odometry", "--frames", str(frames), "--out", str(out),
                   "--particles", "6", "--iterations", "40", "--batch-size", "60",
                   "--step-size", "0.02", "--trans-range", "0.03",
                   "--rot-range", "0.01", "--likelihood-scale", "100000"])
        assert rc == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header, start pose, one step
        final = [float(v) for v in lines[-1].split(",")[1:7]]
        assert np.abs(final).max() < 0.01
        meta = json.loads((out / "frames.json").read_text())
        assert meta == {"frames": ["a.ply", "b.ply"], "steps": 1}

    def test_translation_sequence_recovers_path(self, tmp_path, rng):
        frames = self._frames(tmp_path, rng, 5)
        out = tmp_path / "path"
        rc = main(["odometry", "--frames", str(frames), "--out", str(out),
                   "--particles", "8", "--iterations", "100", "--batch-size", "80",
                   "--step-size", "0.02", "--trans-range", "0.15",
                   "--rot-range", "0.02", "--likelihood-scale", "100000"])
        assert rc == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:7] == ["index", "x", "y", "z", "roll", "pitch", "yaw"]
        assert len(header) == 7 + 21
        assert len(lines) == 1 + 5
        final = [float(v) for v in lines[-1].split(",")[1:7]]
        # each of the four steps moves the cloud +0.1 in x, so the sensor
        # track accumulates to -0.4
        assert final[0] == pytest.approx(-0.4, abs=0.01)
        assert abs(final[1]) < 0.005 and abs(final[2]) < 0.005
        ellipse_lines = (out / "ellipses.csv").read_text().strip().splitlines()
        assert ellipse_lines[0] == "index,center_x,center_y,semi_major,semi_minor,angle,level"
        assert len(ellipse_lines) == 1 + 5
        majors = [float(l.split(",")[3]) for l in ellipse_lines[1:]]
        assert majors == sorted(majors)  # uncertainty grows along the chain

    def test_frames_sorted_lexicographically(self, tmp_path, rng):
        frames = tmp_path / "unordered"
        frames.mkdir()
        pts = rng.uniform(-1, 1, (250, 3))
        pts[:, 2] = 0.2 * np.sin(3 * pts[:, 0])
        for name in ("c.ply", "a.ply", "b.ply"):
            write_cloud(PointCloud(pts), frames / name)
        (frames / "notes.txt").write_text("not a cloud\n")
        out = tmp_path / "sorted"
        rc = main(["odometry", "--frames", str(frames), "--out", str(out),
                   "--pattern", "*.ply", "--particles", "4", "--iterations", "10",
                   "--batch-size", "50", "--trans-range", "0.02",
                   "--rot-range", "0.01"])
        assert rc == 0
        meta = json.loads((out / "frames.json").read_text())
        assert meta["frames"] == ["a.ply", "b.ply", "c.ply"]

    def test_input_validation(self, tmp_path, rng):
        frames = tmp_path / "single"
        frames.mkdir()
        pts = rng.uniform(-1, 1, (100, 3))
        write_cloud(PointCloud(pts), frames / "only.ply")
        assert main(["odometry", "--frames", str(frames),
                     "--out", str(tmp_path / "o")]) == 2
        assert main(["odometry", "--frames", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "o2")]) == 2

    def test_unusable_pattern_is_bad_input(self, tmp_path, rng, capsys):
        frames = self._frames(tmp_path, rng, 2)
        assert main(["odometry", "--frames", str(frames), "--pattern", "",
                     "--out", str(tmp_path / "o")]) == 2
        assert "--pattern:" in capsys.readouterr().err


_ODD = [[-0.0, 5e-324, 1e16, 1e-05, 0.1, -2.5], [1.0, -1e-300, 0.5, 3.0, -0.0, 1e-05]]


class TestArtifactBytes:
    """The bytes of every CSV artifact, pinned as literals written before the
    bulk codec: a header row, floats as repr (nan, -0.0, 5e-324 and 1e+16
    included), a leading integer index where the file has one, "\r\n" ends.
    The solvers are stubbed with fixed results, so only the writers are
    under test."""

    @pytest.fixture
    def frames(self, tmp_path, rng):
        frames = tmp_path / "frames"
        frames.mkdir()
        for name in ("a.ply", "b.ply"):
            write_cloud(PointCloud(rng.uniform(-1, 1, (20, 3))), frames / name)
        return frames

    def test_register_samples_and_trace(self, frames, tmp_path, monkeypatch):
        dist = PoseDistribution(samples=np.array(_ODD), mean=np.zeros(6),
                                covariance=0.01 * np.eye(6))
        trace = np.array([[[0.0] * 6], _ODD[:1], [[0.25, -1.0, 2.0, 0.0, 1e-05, 0.1]]])
        engine = SimpleNamespace(cost_trace=np.array([0.1, np.nan]), particle_trace=trace,
                                 timings={}, loop_seconds=0.0, build_seconds=0.0,
                                 match_counts={"queried": 2, "certified": 1, "filled": 1,
                                               "coarse_queried": 0})
        monkeypatch.setattr(cli, "run_stein_icp", lambda *args, **kwargs: (dist, engine))
        out = tmp_path / "reg"
        assert main(["register", "--source", str(frames / "a.ply"), "--reference",
                     str(frames / "b.ply"), "--trace", "1", "--out", str(out)]) == 0
        assert (out / "samples.csv").read_bytes() == (
            b"x,y,z,roll,pitch,yaw\r\n-0.0,5e-324,1e+16,1e-05,0.1,-2.5\r\n"
            b"1.0,-1e-300,0.5,3.0,-0.0,1e-05\r\n")
        assert (out / "trace.csv").read_bytes() == (
            b"iteration,cost,x,y,z,roll,pitch,yaw\r\n0,0.1,0.0,5e-324,1e+16,1e-05,0.1,-2.5\r\n"
            b"1,nan,0.25,-1.0,2.0,0.0,1e-05,0.1\r\n")

    def test_evaluate_kde(self, tmp_path, rng, monkeypatch):
        posterior = tmp_path / "post.csv"
        posterior.write_text("\n".join(",".join(map(repr, row))
                                       for row in rng.normal(0, 0.05, (10, 6)).tolist()))
        grid, density = np.array([-0.0, 1e-05, 0.1]), np.array([5e-324, 1e16, 0.5])
        monkeypatch.setattr(cli, "kde_1d", lambda *args, **kwargs: (grid, density))
        out = tmp_path / "eval"
        assert main(["evaluate", "--posterior", str(posterior), "--reference-samples",
                     str(posterior), "--out", str(out)]) == 0
        assert (out / "kde_yaw.csv").read_bytes() == (
            b"yaw,density\r\n-0.0,5e-324\r\n1e-05,1e+16\r\n0.1,0.5\r\n")

    def test_odometry_trajectory_and_ellipses(self, frames, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_stein_icp", lambda *args, **kwargs: None)
        monkeypatch.setattr(cli, "build_trajectory",
                            lambda steps, order: SimpleNamespace(transforms=[np.eye(4)] * 2))
        monkeypatch.setattr(cli, "trajectory_rows", lambda traj: iter([
            (0, np.array(_ODD[0]), np.arange(21) / 7.0),
            (1, np.array(_ODD[1]), -np.arange(21) * 1e-05)]))
        monkeypatch.setattr(cli, "ellipse_rows", lambda traj, level: iter([
            (0, (-0.0, 5e-324), np.array([1e16, 1e-05]), 0.1, level),
            (1, (1.5, -2.0), np.array([0.3, 0.2]), -0.0, level)]))
        out = tmp_path / "odo"
        assert main(["odometry", "--frames", str(frames), "--out", str(out)]) == 0
        cov_names = ",".join(f"cov_{i}{j}" for i in range(6) for j in range(i, 6)).encode()
        assert (out / "trajectory.csv").read_bytes() == (
            b"index,x,y,z,roll,pitch,yaw," + cov_names + b"\r\n"
            b"0,-0.0,5e-324,1e+16,1e-05,0.1,-2.5,0.0,0.14285714285714285,0.2857142857142857,"
            b"0.42857142857142855,0.5714285714285714,0.7142857142857143,0.8571428571428571,"
            b"1.0,1.1428571428571428,1.2857142857142858,1.4285714285714286,1.5714285714285714,"
            b"1.7142857142857142,1.8571428571428572,2.0,2.142857142857143,2.2857142857142856,"
            b"2.4285714285714284,2.5714285714285716,2.7142857142857144,2.857142857142857\r\n"
            b"1,1.0,-1e-300,0.5,3.0,-0.0,1e-05,0.0,-1e-05,-2e-05,-3.0000000000000004e-05,"
            b"-4e-05,-5e-05,-6.000000000000001e-05,-7.000000000000001e-05,-8e-05,-9e-05,"
            b"-0.0001,-0.00011,-0.00012000000000000002,-0.00013000000000000002,"
            b"-0.00014000000000000001,-0.00015000000000000001,-0.00016,-0.00017,-0.00018,"
            b"-0.00019,-0.0002\r\n")
        assert (out / "ellipses.csv").read_bytes() == (
            b"index,center_x,center_y,semi_major,semi_minor,angle,level\r\n"
            b"0,-0.0,5e-324,1e+16,1e-05,0.1,0.95\r\n1,1.5,-2.0,0.3,0.2,-0.0,0.95\r\n")


PHASES = {"sampling", "transform", "matching", "gradients", "update"}


class TestDiagnostics:
    """register's diagnostics.json: the solve's wall time, the engine loop's
    own time, the index and table build time, the phase times on that
    loop's clock, the grid's share and the coarse table's queries."""

    def test_phases_cover_the_engine_loop(self, tmp_path):
        scene = tmp_path / "scene"
        assert main(["synth", "--scene", "blob", "--points", "2000", "--out", str(scene)]) == 0
        out = tmp_path / "reg"
        rc = main(["register", "--source", str(scene / "source.ply"),
                   "--reference", str(scene / "reference.ply"), "--out", str(out),
                   "--particles", "20", "--iterations", "40",
                   "--batch-size", "100", "--threads", "1",
                   "--trans-range", "0.05", "--rot-range", "0.02"])
        assert rc == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert set(diag) == {"seconds", "engine_seconds", "build_seconds", "phases",
                             "certified_share", "filled_cells", "coarse_queries"}
        assert set(diag["phases"]) == PHASES
        # the five phases account for nearly all of the engine loop's time
        assert sum(diag["phases"].values()) / diag["engine_seconds"] > 0.95
        assert 0.5 < diag["certified_share"] <= 1.0
        assert isinstance(diag["filled_cells"], int) and diag["filled_cells"] > 0
        # the coarse table answers iterations 0 to 40 // 3 - 1
        assert diag["coarse_queries"] == 20 * 100 * 13
        assert 0 < diag["engine_seconds"] <= diag["seconds"]
        # the builds run before the loop, inside the solve
        assert 0 < diag["build_seconds"] <= diag["seconds"] - diag["engine_seconds"]

    def test_plane_metric_estimates_normals(self, pair, tmp_path):
        src, ref = pair
        assert load_cloud(ref).normals is None
        out = tmp_path / "plane"
        assert _register(src, ref, out, "--metric", "plane") == 0
        assert set(json.loads((out / "diagnostics.json").read_text())["phases"]) == PHASES


class TestThreadsFlag:
    """--threads stays on the command line but accepts only 1: the solver
    is single-threaded."""

    @pytest.mark.parametrize("command, samples, fast", [
        ("register", "samples.csv", _FAST),
        ("ground-truth", "mc_samples.csv", _GT_FAST),
    ])
    def test_one_thread_leaves_outputs_unchanged(self, pair, tmp_path, command, samples, fast):
        src, ref = pair
        ini = tmp_path / "threads.ini"
        ini.write_text(f"[{command}]\nthreads = 1\n")
        written = []
        for name, extra in (("plain", []), ("flag", ["--threads", "1"]),
                            ("ini", ["--config", str(ini)])):
            out = tmp_path / name
            assert main([command, "--source", str(src), "--reference", str(ref),
                         "--out", str(out), *fast, *extra]) == 0
            written.append((out / samples).read_bytes())
        assert written[1] == written[0]
        assert written[2] == written[0]

    def test_other_config_value_is_bad_input(self, pair, tmp_path, capsys):
        src, ref = pair
        ini = tmp_path / "threads.ini"
        ini.write_text("[register]\nthreads = 4\n")
        rc = main(["register", "--source", str(src), "--reference", str(ref),
                   "--out", str(tmp_path / "o"), "--config", str(ini)])
        assert rc == 2
        assert f"{ini}: threads: expected 1" in capsys.readouterr().err


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "stein-icp" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["register"], "--source is required"),
        (["register", "--source", "s.ply"], "--reference is required"),
        (["ground-truth", "--reference", "r.ply"], "--source is required"),
        (["evaluate", "--posterior", "p.csv"], "--reference-samples is required"),
        (["odometry"], "--frames is required"),
        # a malformed value is reported before a missing option
        (["register", "--iterations", "abc"], "--iterations: expected an integer, got 'abc'"),
    ])
    def test_missing_required_option(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bench_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--scene", "blob"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_fresh_import_leaves_out_scipy_stats(self):
        """A command runs as one process, so what the CLI imports is part of
        its wall time: a fresh import of the CLI loads neither scipy.stats
        nor scipy.integrate."""
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import stein_icp.cli; "
                "print([m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert done.stdout == "[]\n"
