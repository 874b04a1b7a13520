"""Phase-transition sweeps, error curves, and record output."""

import io

import numpy as np
import pytest

from conicrecovery.harness import (
    ErrorCurveRow,
    ExperimentConfig,
    LowRankS1,
    PhaseRetrieval,
    SparseL1,
    SweepRow,
    SweepResult,
    emit_csv,
    run_error_curve,
    run_phase_transition,
    sweep_csv_text,
    write_records,
)
from conicrecovery import solve
from conicrecovery.solve import SolverOptions


def small_config(**kw):
    defaults = dict(problem=SparseL1(s=1, d=8), m_grid=(4, 8), trials=2, seed=3)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_rejects_nonincreasing_grid(self):
        with pytest.raises(ValueError):
            small_config(m_grid=(8, 8))
        with pytest.raises(ValueError):
            small_config(m_grid=(8, 4))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            small_config(trials=0)

    @pytest.mark.parametrize("make", [
        lambda: SparseL1(s=0, d=8), lambda: SparseL1(s=9, d=8),
        lambda: LowRankS1(r=0, d1=4, d2=4), lambda: LowRankS1(r=3, d1=4, d2=2),
        lambda: PhaseRetrieval(d=0),
    ])
    def test_rejects_out_of_range_problem(self, make):
        with pytest.raises(ValueError):
            make()

    def test_digest_depends_on_inputs(self):
        a = small_config().digest()
        assert a == small_config().digest()
        assert a != small_config(seed=4).digest()
        assert a != small_config(problem=SparseL1(s=2, d=8)).digest()
        assert len(a) == 16


class TestSweep:
    def test_deterministic_rerun(self):
        cfg = small_config(trials=1)
        a = run_phase_transition(cfg)
        b = run_phase_transition(cfg)
        assert a == b

    def test_square_system_always_succeeds(self):
        # m = d noiseless Gaussian: the operator is invertible a.s., so
        # the feasible set is a single point and recovery is exact
        cfg = ExperimentConfig(problem=SparseL1(s=2, d=12), m_grid=(12,),
                               trials=5, seed=1)
        res = run_phase_transition(cfg)
        assert res.rows[0].success_rate == 1.0
        assert res.rows[0].nonconverged == 0

    def test_row_counts_match_grid(self):
        cfg = small_config(m_grid=tuple(range(2, 26, 2)))  # 12 points
        res = run_phase_transition(cfg)
        assert len(res.rows) == 12
        assert [r.m for r in res.rows] == list(range(2, 26, 2))

    def test_predicted_thresholds_attached(self):
        res = run_phase_transition(small_config())
        assert res.predicted_width_sq == pytest.approx(
            2 * 1 * np.log(8) + 2)
        assert res.predicted_m >= res.predicted_width_sq

    def test_lowrank_and_phase_cells_run(self):
        res = run_phase_transition(ExperimentConfig(
            problem=LowRankS1(r=1, d1=4, d2=4), m_grid=(16,), trials=2, seed=2))
        assert res.rows[0].success_rate == 1.0
        res = run_phase_transition(ExperimentConfig(
            problem=PhaseRetrieval(d=4), m_grid=(32,), trials=2, seed=2))
        assert res.rows[0].success_rate == 1.0

    def test_fifty_percent_interpolation(self):
        rows = (SweepRow(10, 2, 10, 0.2, 0.5, 10.0, 0),
                SweepRow(20, 8, 10, 0.8, 0.1, 10.0, 0))
        res = SweepResult(rows, "x", 0, 10.0, 20)
        assert res.fifty_percent_m() == pytest.approx(15.0)

    def test_fifty_percent_none_when_never_crossed(self):
        rows = (SweepRow(10, 1, 10, 0.1, 0.5, 10.0, 0),)
        assert SweepResult(rows, "x", 0, 10.0, 20).fifty_percent_m() is None

    def test_row_validation(self):
        with pytest.raises(ValueError):
            SweepRow(10, 11, 10, 1.1, 0.0, 1.0, 0)


class TestErrorCurve:
    def test_zero_noise_recovers(self):
        cfg = ExperimentConfig(problem=SparseL1(s=1, d=16), m_grid=(16,),
                               trials=3, seed=5)
        rows = run_error_curve(cfg, [0.0], m=16, lambda_hat=1.0,
                               lambda_certified=True)
        assert rows[0].mean_error <= 1e-4
        assert rows[0].violations == 0
        assert rows[0].nonconverged == 0

    def test_nonconverged_trials_counted(self):
        # a 3-iteration budget stops every solve short of convergence
        cfg = ExperimentConfig(problem=SparseL1(s=1, d=16), m_grid=(8,),
                               trials=3, seed=5,
                               solver=SolverOptions(max_iters=3))
        rows = run_error_curve(cfg, [0.0, 0.1], m=8)
        assert [r.nonconverged for r in rows] == [3, 3]

    def test_bound_doubles_with_eta(self):
        cfg = ExperimentConfig(problem=SparseL1(s=1, d=16), m_grid=(16,),
                               trials=2, seed=5)
        rows = run_error_curve(cfg, [0.1, 0.2], m=16, lambda_hat=2.0)
        assert rows[1].bound == pytest.approx(2 * rows[0].bound)
        assert rows[0].bound == pytest.approx(0.1)

    def test_gordon_fallback_when_lambda_missing(self):
        cfg = ExperimentConfig(problem=SparseL1(s=1, d=16), m_grid=(64,),
                               trials=2, seed=5)
        rows = run_error_curve(cfg, [0.1], m=64)
        assert isinstance(rows[0], ErrorCurveRow)
        assert rows[0].bound > 0
        assert rows[0].violations == 0   # uncertified bounds never flag

    def test_observed_error_below_certified_bound(self):
        # generous certified lambda: errors must stay under 2*eta/lambda
        cfg = ExperimentConfig(problem=SparseL1(s=1, d=12), m_grid=(12,),
                               trials=5, seed=6)
        rows = run_error_curve(cfg, [0.05, 0.1], m=12, lambda_hat=0.1,
                               lambda_certified=True)
        assert all(r.violations == 0 for r in rows)

    def test_lowrank_noisy_curve_pinned(self, monkeypatch):
        # every projection of these cells solves the eta > 0 secular
        # equation; the means and the DR iteration count of each cell were
        # recorded with a bracketed brentq root-find per projection
        iters = []
        recover = solve.recover_constrained

        def counted(*args, **kwargs):
            res = recover(*args, **kwargs)
            iters.append(res.iterations)
            return res

        monkeypatch.setattr(solve, "recover_constrained", counted)
        cfg = ExperimentConfig(problem=LowRankS1(r=1, d1=8, d2=8), m_grid=(55,),
                               trials=20, seed=1)
        rows = run_error_curve(cfg, [0.1, 0.3, 1.0], m=55)
        np.testing.assert_allclose(
            [r.mean_error for r in rows],
            [0.0025580745664138785, 0.00765924336882823, 0.018508899603851013],
            rtol=1e-12, atol=0)
        assert [r.nonconverged for r in rows] == [0, 0, 0]
        assert iters == [
            2740, 2910, 4190, 2780, 2530, 3160, 3050, 5830, 2590, 2790,
            3130, 2990, 2200, 2120, 3330, 4100, 2320, 2620, 2620, 2390,
            920, 870, 830, 1060, 1020, 1490, 1060, 1070, 890, 1010,
            1130, 1330, 1230, 1550, 1710, 820, 1200, 1100, 1160, 1010,
            330, 470, 360, 450, 310, 340, 300, 340, 390, 370,
            400, 410, 430, 490, 500, 340, 370, 390, 350, 380]


class TestCsv:
    def test_byte_identical_rerun(self):
        cfg = small_config()
        a = sweep_csv_text(run_phase_transition(cfg))
        b = sweep_csv_text(run_phase_transition(cfg))
        assert a == b

    def test_empty_sweep_header_only(self):
        res = SweepResult((), "abc", 0, 1.0, 2)
        text = sweep_csv_text(res)
        lines = text.strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1].split(",")[0] == "m"
        assert len(lines) == 2

    def test_grid_rows_emitted(self):
        cfg = small_config(m_grid=tuple(range(2, 26, 2)))
        text = sweep_csv_text(run_phase_transition(cfg))
        lines = [ln for ln in text.strip().split("\n")
                 if ln and not ln.startswith("#")]
        assert len(lines) == 1 + 12  # header + rows

    def test_metadata_comment_line(self):
        res = run_phase_transition(small_config())
        text = sweep_csv_text(res)
        assert text.startswith(f"# config_digest={res.config_digest}")

    def test_file_output(self, tmp_path):
        res = run_phase_transition(small_config())
        path = str(tmp_path / "sweep.csv")
        emit_csv(res, path)
        with open(path) as fh:
            assert fh.read() == sweep_csv_text(res)

    def test_write_failure_has_path_context(self, tmp_path):
        res = run_phase_transition(small_config())
        bad = str(tmp_path / "no" / "such" / "dir.csv")
        with pytest.raises(OSError, match="dir.csv"):
            emit_csv(res, bad)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            write_records([], ["m"], io.StringIO(), "xml")

    def test_stringio_target(self):
        res = run_phase_transition(small_config())
        buf = io.StringIO()
        emit_csv(res, buf)
        assert buf.getvalue() == sweep_csv_text(res)
