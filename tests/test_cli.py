"""Command-line interface: subcommands, config handling, exit codes,
output formats, determinism."""

import dataclasses
import json

import pytest

from conicrecovery import __version__, harness
from conicrecovery.cli import _parse_problem, main

SMALL_SWEEP = {"problem": {"kind": "sparse", "s": 1, "d": 8},
               "m_grid": [4, 8], "trials": 2, "seed": 3}
SMALL_CURVE = {"problem": {"kind": "sparse", "s": 1, "d": 8},
               "eta_grid": [0.0, 0.1], "m": 8, "trials": 2, "seed": 3}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def config_path(tmp_path, cfg, name="cfg.json"):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


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
        assert out.startswith("eta,mean_error,bound,violations,nonconverged\n")

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
        assert out.strip().split("\n")[1].endswith(",0,2")
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

    def test_sweep_csv_is_harness_csv(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep", "--config",
                           config_path(tmp_path, SMALL_SWEEP))
        assert code == 0
        assert out == harness.sweep_csv_text(harness.run_phase_transition(
            harness.ExperimentConfig(harness.SparseL1(1, 8), (4, 8),
                                     trials=2, seed=3)))


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
        code, out, _ = run(capsys, *[a.format(**config_paths) for a in argv],
                           "--trials", "0")
        assert code == 1 and out == ""


    @pytest.mark.parametrize("argv, message", [
        (("recover", "--s", "0", "--d", "16", "--m", "8"), "1 <= s <= d"),
        (("recover", "--s", "20", "--d", "16"), "1 <= s <= d"),
        (("phaselift", "--d", "0"), "d >= 1"),
        (("lambda-min", "--d", "10", "--m", "40", "--cone", "subspace",
          "--k", "20"), "1 <= k <= d"),
        (("smallball", "--d", "20", "--subspace-dim", "30"), "1 <= k <= d"),
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

    def test_unknown_flag(self, capsys):
        assert run(capsys, "width", "--bogus")[0] == 1

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 1

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert __version__ in out
