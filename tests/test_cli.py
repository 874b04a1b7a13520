"""Command-line interface: subcommands, config handling, exit codes,
output formats, determinism."""

import dataclasses
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import conicrecovery
from conicrecovery import __version__, harness
from conicrecovery.cli import _parse_problem, build_parser, main, write_records

SMALL_SWEEP = {"problem": {"kind": "sparse", "s": 1, "d": 8},
               "m_grid": [4, 8], "trials": 2, "seed": 3}
# the bytes `sweep --config` prints for SMALL_SWEEP
SMALL_SWEEP_CSV = """\
# config_digest=2e8afecdebd9521b seed=3 predicted_width_sq=6.158883 predicted_m=14
m,successes,trials,success_rate,mean_rel_error,mean_solve_iters,nonconverged
4,2,2,1.000000,2.853082e-09,65.0,0
8,2,2,1.000000,2.624479e-12,10.0,0
"""
SMALL_CURVE = {"problem": {"kind": "sparse", "s": 1, "d": 8},
               "eta_grid": [0.0, 0.1], "m": 8, "trials": 2, "seed": 3}
# every flag of each one-shot subcommand that a config may set
ONE_SHOT = {
    "width": {"problem": "lowrank", "s": 2, "d": 12, "r": 1, "d1": 4,
              "d2": 5, "k": 3, "trials": 20, "seed": 5},
    "smallball": {"d": 8, "subspace-dim": 3, "m": 10, "xi": 0.5, "t": 2.0,
                  "trials": 50, "seed": 5},
    "lambda-min": {"d": 6, "m": 12, "cone": "subspace", "k": 2, "seed": 5},
    "recover": {"s": 1, "d": 12, "m": 10, "eta": 0.05, "seed": 5},
    "phaselift": {"d": 2, "m": 4, "seed": 5},
}
README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def config_path(tmp_path, cfg, name="cfg.json"):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def as_flags(values):
    return [arg for key, value in values.items()
            for arg in (f"--{key}", str(value))]


@pytest.fixture
def config_paths(tmp_path):
    """Paths of the small sweep and error-curve configs, for argv templates."""
    return {"sweep": config_path(tmp_path, SMALL_SWEEP, "sweep.json"),
            "curve": config_path(tmp_path, SMALL_CURVE, "curve.json")}


class TestWidth:
    def test_sparse_closed_form(self, capsys):
        code, out, _ = run(capsys, "width", "--problem", "sparse",
                           "--s", "5", "--d", "100")
        assert code == 0
        assert "39.957323" in out
        assert "closed-form-bound" in out

    def test_sparse_with_mc(self, capsys):
        code, out, _ = run(capsys, "width", "--problem", "sparse",
                           "--s", "2", "--d", "16", "--trials", "50")
        assert code == 0
        assert "monte-carlo-descent" in out

    def test_lowrank(self, capsys):
        code, out, _ = run(capsys, "width", "--problem", "lowrank",
                           "--r", "1", "--d1", "10", "--d2", "10")
        assert code == 0
        assert "57.000000" in out

    def test_subspace(self, capsys):
        code, out, _ = run(capsys, "width", "--problem", "subspace", "--k", "7")
        assert code == 0
        assert "7.000000" in out

    def test_unknown_problem(self, capsys):
        code, _, err = run(capsys, "width", "--problem", "fourier")
        assert code == 1

    def test_json_lines_format(self, capsys):
        code, out, _ = run(capsys, "width", "--problem", "sparse",
                           "--s", "5", "--d", "100", "--format", "json-lines")
        assert code == 0
        rec = json.loads(out.strip().split("\n")[0])
        assert rec["method"] == "closed-form-bound"

    @pytest.mark.parametrize("argv, method", [
        (("--problem", "lowrank", "--r", "1", "--d1", "4", "--d2", "4"),
         "monte-carlo-descent"),
        (("--problem", "subspace", "--k", "7"), "monte-carlo-subspace"),
    ])
    def test_monte_carlo_row(self, capsys, argv, method):
        code, out, _ = run(capsys, "width", *argv, "--trials", "20",
                           "--format", "json-lines")
        assert code == 0
        closed, mc = [json.loads(line) for line in out.splitlines()]
        assert closed["method"] == "closed-form-bound"
        assert mc["method"] == method and mc["trials"] == 20
        assert float(mc["std_error"]) > 0

    def test_single_subspace_trial(self, capsys):
        code, out, err = run(capsys, "width", "--problem", "subspace", "--k", "3",
                             "--trials", "1", "--format", "json-lines")
        assert code == 0 and err == ""
        mc = json.loads(out.splitlines()[1])
        assert mc["trials"] == 1 and mc["std_error"] == "0.000000"

    def test_out_file(self, capsys, tmp_path):
        path = str(tmp_path / "w.csv")
        code, out, _ = run(capsys, "width", "--problem", "sparse",
                           "--s", "5", "--d", "100", "--out", path)
        assert code == 0 and out == ""
        assert "39.957323" in open(path).read()


class TestSeedDeterminism:
    @pytest.mark.parametrize("argv", [
        ("width", "--problem", "sparse", "--s", "2", "--d", "12",
         "--trials", "20", "--seed", "5"),
        ("smallball", "--d", "8", "--m", "10", "--trials", "50", "--seed", "5"),
        ("lambda-min", "--d", "4", "--m", "8", "--seed", "5"),
        ("recover", "--s", "1", "--d", "12", "--m", "10", "--seed", "5"),
        ("phaselift", "--d", "2", "--m", "3", "--seed", "5"),
    ])
    def test_byte_identical_stdout(self, capsys, argv):
        _, a, _ = run(capsys, *argv)
        _, b, _ = run(capsys, *argv)
        assert a == b and a


class TestSolverCommands:
    def test_phaselift_small_exact(self, capsys):
        code, out, _ = run(capsys, "phaselift", "--d", "2", "--m", "3",
                           "--seed", "1", "--format", "json-lines")
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["converged"] is True
        assert float(rec["residual"]) <= 1e-6

    def test_recover_reports_rel_error(self, capsys):
        code, out, _ = run(capsys, "recover", "--s", "1", "--d", "16",
                           "--m", "12", "--format", "json-lines")
        assert code == 0
        rec = json.loads(out.strip())
        assert float(rec["rel_error"]) <= 1e-4

    def test_strict_mode_nonconvergence(self, capsys, tmp_path):
        # undersampled instance that cannot converge in 0 extra headroom
        # is hard to force; instead check strict mode passes on success
        code, _, _ = run(capsys, "recover", "--s", "1", "--d", "12",
                         "--m", "10", "--strict")
        assert code == 0

    def test_lambda_min(self, capsys):
        code, out, _ = run(capsys, "lambda-min", "--d", "4", "--m", "10",
                           "--cone", "full")
        assert code == 0
        assert "exact,True" in out


class TestOneShotConfig:
    @pytest.mark.parametrize("command", list(ONE_SHOT))
    def test_config_equals_flags(self, capsys, tmp_path, command):
        path = config_path(tmp_path, ONE_SHOT[command])
        code, from_config, err = run(capsys, command, "--config", path)
        assert code == 0 and from_config and err == ""
        assert from_config == run(capsys, command,
                                  *as_flags(ONE_SHOT[command]))[1]

    @pytest.mark.parametrize("command, flag, value", [
        ("width", "d2", 6), ("smallball", "xi", 0.25),
        ("lambda-min", "k", 3), ("recover", "m", 11), ("phaselift", "m", 3),
    ])
    def test_flag_overrides_config(self, capsys, tmp_path, command, flag,
                                   value):
        path = config_path(tmp_path, ONE_SHOT[command])
        code, out, _ = run(capsys, command, "--config", path,
                           f"--{flag}", str(value))
        assert code == 0
        assert out == run(capsys, command, *as_flags(
            {**ONE_SHOT[command], flag: value}))[1]
        assert out != run(capsys, command, "--config", path)[1]

    def test_null_trials_gives_no_monte_carlo_row(self, capsys, tmp_path):
        path = config_path(tmp_path, {"problem": "subspace", "k": 3,
                                      "trials": None})
        code, out, _ = run(capsys, "width", "--config", path)
        assert code == 0 and "monte-carlo" not in out
        assert out == run(capsys, "width", "--problem", "subspace",
                          "--k", "3")[1]

    @pytest.mark.parametrize("command, cfg", [
        ("width", {"s": "x"}), ("smallball", {"m": "x"}),
        ("lambda-min", {"m": "x"}), ("recover", {"s": "x"}),
        ("phaselift", {"m": "x"}),
        # a value is converted even where this run does not read the flag,
        # as the same value given as a flag is
        ("width", {"problem": "sparse", "r": "x"}),
        ("lambda-min", {"cone": "full", "k": "x"}),
    ])
    def test_non_integer_value_exits_1(self, capsys, tmp_path, command, cfg):
        code, out, err = run(capsys, command, "--config",
                             config_path(tmp_path, cfg))
        assert code == 1 and out == ""
        assert "invalid literal for int()" in err


class TestSweepCommand:
    def test_missing_config(self, capsys):
        code, _, err = run(capsys, "sweep", "--config", "missing.cfg")
        assert code == 1

    def test_no_config(self, capsys):
        code, _, err = run(capsys, "sweep")
        assert code == 1
        assert "config" in err

    def test_sweep_from_config(self, capsys, tmp_path):
        cfg = {"problem": {"kind": "sparse", "s": 1, "d": 8},
               "m_grid": [4, 8], "trials": 2, "seed": 3}
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code, out, _ = run(capsys, "sweep", "--config", path)
        assert code == 0
        assert out.startswith("# config_digest=")
        assert "m,successes,trials" in out

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = {"problem": {"kind": "sparse", "s": 1, "d": 8},
               "m_grid": [8], "trials": 2, "seed": 3}
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        _, a, _ = run(capsys, "sweep", "--config", path)
        _, b, _ = run(capsys, "sweep", "--config", path, "--seed", "99")
        assert a != b

    def test_bad_problem_kind(self, capsys, tmp_path):
        cfg = {"problem": {"kind": "tv"}, "m_grid": [4]}
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code, _, _ = run(capsys, "sweep", "--config", path)
        assert code == 1

    def test_error_curve(self, capsys, tmp_path):
        cfg = {"problem": {"kind": "sparse", "s": 1, "d": 8},
               "eta_grid": [0.0, 0.1], "m": 8, "trials": 2, "seed": 3}
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code, out, _ = run(capsys, "error-curve", "--config", path)
        assert code == 0
        assert out.startswith("eta,mean_error,bound,nonconverged\n")

    def test_error_curve_strict_nonconvergence(self, capsys, tmp_path,
                                               monkeypatch):
        # the CLI has no iteration-budget flag; cap it under the harness
        run_curve = harness.run_error_curve

        def capped(config, *args, **kwargs):
            config = dataclasses.replace(
                config, solver=dataclasses.replace(config.solver, max_iters=3))
            return run_curve(config, *args, **kwargs)

        monkeypatch.setattr(harness, "run_error_curve", capped)
        cfg = {"problem": {"kind": "sparse", "s": 1, "d": 8},
               "eta_grid": [0.1], "m": 4, "trials": 2, "seed": 3}
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code, out, _ = run(capsys, "error-curve", "--config", path)
        assert code == 0
        assert out.strip().split("\n")[1].endswith(",2")
        code, _, _ = run(capsys, "error-curve", "--config", path, "--strict")
        assert code == 2


class TestRecordFormats:
    @pytest.mark.parametrize("argv", [
        ("width", "--problem", "sparse", "--s", "2", "--d", "12",
         "--trials", "10"),
        ("smallball", "--d", "8", "--m", "10", "--trials", "50"),
        ("lambda-min", "--d", "4", "--m", "8"),
        ("recover", "--s", "1", "--d", "12", "--m", "10"),
        ("phaselift", "--d", "2", "--m", "3"),
        ("sweep", "--config", "{sweep}"),
        ("error-curve", "--config", "{curve}"),
    ])
    def test_json_lines_keys_match_csv_header(self, capsys, config_paths,
                                              argv):
        argv = [a.format(**config_paths) for a in argv]
        code, csv_out, _ = run(capsys, *argv)
        assert code == 0
        code, json_out, _ = run(capsys, *argv, "--format", "json-lines")
        assert code == 0
        header, *rows = [line for line in csv_out.splitlines()
                         if not line.startswith("#")]
        recs = [json.loads(line) for line in json_out.splitlines()]
        if csv_out.startswith("#"):  # the metadata object comes first
            recs = recs[1:]
        assert len(recs) == len(rows) >= 1
        assert all(sorted(rec) == sorted(header.split(",")) for rec in recs)

    def test_sweep_json_lines(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep", "--config",
                           config_path(tmp_path, SMALL_SWEEP),
                           "--format", "json-lines")
        assert code == 0
        meta, *rows = [json.loads(line) for line in out.splitlines()]
        result = harness.run_phase_transition(harness.ExperimentConfig(
            harness.SparseL1(1, 8), (4, 8), trials=2, seed=3))
        assert meta == {"config_digest": result.config_digest, "seed": 3,
                        "predicted_width_sq":
                            f"{result.predicted_width_sq:.6f}",
                        "predicted_m": result.predicted_m}
        assert [(r["m"], r["successes"]) for r in rows] == [
            (row.m, row.successes) for row in result.rows]

    def test_sweep_csv_pinned(self, capsys, config_paths):
        code, out, _ = run(capsys, "sweep", "--config", config_paths["sweep"])
        assert code == 0
        assert out == SMALL_SWEEP_CSV


class TestRecordOutput:
    def test_byte_identical_rerun(self, capsys, config_paths):
        a = run(capsys, "sweep", "--config", config_paths["sweep"])
        b = run(capsys, "sweep", "--config", config_paths["sweep"])
        assert a == b and a[1]

    def test_metadata_comment_line(self, capsys, config_paths):
        _, out, _ = run(capsys, "sweep", "--config", config_paths["sweep"])
        digest = harness.ExperimentConfig(harness.SparseL1(1, 8), (4, 8),
                                          trials=2, seed=3).digest()
        assert out.splitlines()[0].startswith(f"# config_digest={digest} ")

    def test_grid_rows_emitted(self, capsys, tmp_path):
        cfg = {**SMALL_SWEEP, "m_grid": list(range(2, 26, 2))}
        _, out, _ = run(capsys, "sweep", "--config", config_path(tmp_path, cfg))
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert len(lines) == 1 + 12  # header + rows

    def test_file_output(self, capsys, config_paths, tmp_path):
        path = str(tmp_path / "sweep.csv")
        code, out, _ = run(capsys, "sweep", "--config", config_paths["sweep"],
                           "--out", path)
        assert code == 0 and out == ""
        with open(path) as fh:
            assert fh.read() == SMALL_SWEEP_CSV

    def test_write_failure_has_path_context(self, capsys, config_paths,
                                            tmp_path):
        bad = str(tmp_path / "no" / "such" / "dir.csv")
        code, out, err = run(capsys, "sweep", "--config",
                             config_paths["sweep"], "--out", bad)
        assert code == 1 and out == ""
        assert err.startswith("error: failed writing records to ")
        assert "dir.csv" in err

    def test_unknown_format_rejected(self):
        # argparse restricts --format, so only a direct call can reach this
        with pytest.raises(ValueError, match="unknown record format"):
            write_records([{"m": 1}], io.StringIO(), "xml")


class TestEntryPoint:
    """``python -m conicrecovery.cli`` through ``sys.exit(main())``."""

    @staticmethod
    def run_module(*argv):
        src = str(Path(conicrecovery.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run([sys.executable, "-m", "conicrecovery.cli",
                               *argv], capture_output=True, text=True,
                              env=env, timeout=120)

    def test_sweep_prints_pinned_csv(self, config_paths):
        proc = self.run_module("sweep", "--config", config_paths["sweep"])
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == SMALL_SWEEP_CSV

    def test_empty_m_grid_exits_1(self, tmp_path):
        path = config_path(tmp_path, {**SMALL_SWEEP, "m_grid": []})
        proc = self.run_module("sweep", "--config", path)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: m_grid must not be empty\n"


class TestProblemConfig:
    @pytest.mark.parametrize("spec, problem", [
        ({"kind": "sparse", "s": 4, "d": 128}, harness.SparseL1(4, 128)),
        ({"kind": "lowrank", "r": 1, "d1": 8, "d2": 6},
         harness.LowRankS1(1, 8, 6)),
        ({"kind": "phase", "d": 16}, harness.PhaseRetrieval(16)),
    ])
    def test_builds_each_kind(self, spec, problem):
        assert _parse_problem({"problem": spec}) == problem

    @pytest.mark.parametrize("spec", [
        {"kind": "sparse", "s": 4},
        {"kind": "lowrank", "r": 1, "d2": 6},
        {"kind": "phase"},
    ])
    def test_missing_field_exits_1(self, capsys, tmp_path, spec):
        cfg = {"problem": spec, "m_grid": [4], "trials": 1}
        code, _, err = run(capsys, "sweep", "--config",
                           config_path(tmp_path, cfg))
        assert code == 1
        assert "missing field" in err

    @pytest.mark.parametrize("argv", [
        ("sweep", "--config", "{sweep}"),
        ("error-curve", "--config", "{curve}"),
        ("smallball", "--d", "8", "--m", "10"),
        ("width", "--problem", "subspace", "--k", "3"),
        ("width", "--problem", "sparse", "--s", "2", "--d", "16"),
    ])
    def test_zero_trials_rejected(self, capsys, config_paths, argv):
        argv = [a.format(**config_paths) for a in argv]
        code, out, err = run(capsys, *argv, "--trials", "0")
        assert code == 1 and out == ""
        if argv[0] == "smallball":  # --trials is its sample count
            assert err == "error: need n_samples >= 1\n"

    def test_sweep_without_m_grid_exits_1(self, capsys, tmp_path):
        cfg = {"problem": {"kind": "sparse", "s": 1, "d": 8}, "trials": 2}
        code, out, err = run(capsys, "sweep", "--config",
                             config_path(tmp_path, cfg))
        assert code == 1 and out == ""
        assert "m_grid must not be empty" in err


    @pytest.mark.parametrize("command, cfg", [
        ("sweep", {**SMALL_SWEEP, "eta": None}),
        ("sweep", {**SMALL_SWEEP, "m_grid": None}),
        ("sweep", {**SMALL_SWEEP, "problem": {"kind": "sparse", "s": None,
                                               "d": 8}}),
        ("sweep", {**SMALL_SWEEP, "problem": {"kind": "phase", "d": [1]}}),
        ("phaselift", {"d": [1]}),
        ("sweep", {**SMALL_SWEEP, "m_grid": "48"}),
        ("error-curve", {**SMALL_CURVE, "eta_grid": "12"}),
    ])
    def test_wrong_json_type_exits_1(self, capsys, tmp_path, command, cfg):
        # null or a list where a number belongs: one error line, no traceback
        code, out, err = run(capsys, command, "--config",
                             config_path(tmp_path, cfg))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, cfg", [
        ("sweep", {"problem": {"kind": "phase", "d": 3}, "m_grid": [12],
                   "trials": 2, "eta": 0.5}),
        ("error-curve", {"problem": {"kind": "phase", "d": 3}, "m": 30,
                         "eta_grid": [0.1, 1.0]}),
    ])
    def test_phase_with_noise_exits_1(self, capsys, tmp_path, command, cfg):
        # PhaseLift measurements are noiseless; eta is refused, not dropped
        code, out, err = run(capsys, command, "--config",
                             config_path(tmp_path, cfg))
        assert code == 1 and out == ""
        assert err == ("error: phase retrieval measurements are noiseless; "
                       "eta must be 0\n")

    @pytest.mark.parametrize("argv, message", [
        (("recover", "--s", "0", "--d", "16", "--m", "8"), "1 <= s <= d"),
        (("recover", "--s", "20", "--d", "16"), "1 <= s <= d"),
        (("phaselift", "--d", "0"), "d >= 1"),
        (("lambda-min", "--d", "10", "--m", "40", "--cone", "subspace",
          "--k", "20"), "1 <= k <= d"),
        (("smallball", "--d", "20", "--subspace-dim", "30"), "1 <= k <= d"),
        (("lambda-min", "--d", "10", "--m", "40", "--cone", "subspace",
          "--k", "-1"), "1 <= k <= d"),
        (("smallball", "--d", "20", "--subspace-dim", "-2"), "1 <= k <= d"),
        (("smallball", "--d", "-3"), "must be at least 1"),
        (("smallball", "--d", "0"), "must be at least 1"),
    ])
    def test_out_of_range_field_exits_1(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert message in err

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "sparse", "s": 0, "d": 8}, "1 <= s <= d"),
        ({"kind": "lowrank", "r": 7, "d1": 8, "d2": 6}, "1 <= r <= min"),
    ])
    def test_out_of_range_problem_exits_1(self, capsys, tmp_path, spec,
                                          message):
        cfg = {"problem": spec, "m_grid": [4], "trials": 1}
        code, out, err = run(capsys, "sweep", "--config",
                             config_path(tmp_path, cfg))
        assert code == 1 and out == ""
        assert message in err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    @pytest.mark.parametrize("argv", [
        ("width", "--bogus"),
        # flags that a subcommand does not read are not accepted
        ("lambda-min", "--trials", "5"),
        ("recover", "--trials", "5"),
        ("phaselift", "--trials", "5"),
        ("width", "--strict"),
        ("smallball", "--strict"),
        ("lambda-min", "--strict"),
    ])
    def test_unknown_flag(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 1 and out == ""

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 1

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert __version__ in out


def readme_cli_section():
    return README.read_text().split("\n## CLI\n", 1)[1]


class TestReadme:
    def test_one_shot_examples_run(self, capsys):
        block = readme_cli_section().split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [shlex.split(line, comments=True)
                 for line in block.splitlines()]
        examples = [argv[1:] for argv in lines
                    if argv and "--config" not in argv]
        assert len(examples) == 6
        for argv in examples:
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out, argv

    def test_flag_table_matches_parser(self):
        shared = {"command", "config", "seed", "out", "format"}
        table = {}
        for row in re.findall(r"^\| (`.*?`) \| (.*) \|$",
                              readme_cli_section(), re.M):
            for command in re.findall(r"`([\w-]+)`", row[0]):
                table[command] = {flag.replace("-", "_") for flag in
                                  re.findall(r"`--([\w-]+)", row[1])} - shared
        parser = build_parser()
        parsed = {command: set(vars(parser.parse_args([command]))) - shared
                  for command in table}
        assert len(table) == 7 and table == parsed
