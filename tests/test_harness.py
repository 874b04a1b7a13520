"""Phase-transition sweeps, error curves, and their records as CSV."""

import dataclasses
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
    run_error_curve,
    run_phase_transition,
)
from conicrecovery import harness, solve
from conicrecovery.cli import write_records
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

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, float("nan")])
    def test_rejects_nonpositive_success_threshold(self, threshold):
        # a negative threshold would report 0 successes in every row
        with pytest.raises(ValueError, match="success_threshold"):
            small_config(success_threshold=threshold)

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
        # the acceptance 01-03 sweeps: their CSVs carry these digests
        acceptance = [
            ExperimentConfig(SparseL1(s=4, d=128),
                             (8, 16, 24, 32, 40, 48, 54, 64, 72, 80, 88, 96),
                             trials=25, eta=0.0, seed=20260826),
            ExperimentConfig(LowRankS1(r=1, d1=8, d2=8), (20, 55), trials=25,
                             seed=7),
            ExperimentConfig(PhaseRetrieval(d=16), (128,), trials=50, seed=11),
        ]
        assert [cfg.digest() for cfg in acceptance] == [
            "7f8e1f206c5e4967", "b2f4d4669f7cc35f", "e8e893d8e8ea3730"]


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

    def test_phase_rejects_noise_before_any_cell(self, monkeypatch):
        # PhaseLift measurements carry no noise: a nonzero eta would be
        # dropped, so both experiments refuse it before solving anything
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness, "_run_cell", no_cell)
        cfg = ExperimentConfig(PhaseRetrieval(d=3), (12,), trials=2)
        with pytest.raises(ValueError, match="eta must be 0"):
            run_phase_transition(dataclasses.replace(cfg, eta=0.5))
        with pytest.raises(ValueError, match="eta must be 0"):
            run_error_curve(cfg, [0.0, 0.1], 30)

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

    @pytest.mark.parametrize("d", [8, 16])
    def test_phaselift_threshold_proportional_to_d(self, d):
        # PhaseLift needs m ~ d measurements: the 50% crossing stays a fixed
        # multiple of d.  A 2,000-iteration budget keeps the sweep tier-1
        # sized; capped near-threshold cells count as failures, so m50/d
        # reads 1.80 (d=8) and 2.25 (d=16) here against 1.65 and 1.96 at
        # the default budget (seed 3, 20 trials).  With a prox step of 1,
        # d=16 read 2.62.
        cfg = ExperimentConfig(
            problem=PhaseRetrieval(d=d), trials=10, seed=3,
            m_grid=(3 * d // 2, 9 * d // 4, 3 * d),
            solver=SolverOptions(max_iters=2_000))
        m50 = run_phase_transition(cfg).fifty_percent_m()
        assert m50 is not None and 1.5 <= m50 / d <= 2.5


class TestErrorCurve:
    def test_zero_noise_recovers(self):
        cfg = ExperimentConfig(problem=SparseL1(s=1, d=16), m_grid=(16,),
                               trials=3, seed=5)
        rows = run_error_curve(cfg, [0.0], m=16)
        assert rows[0].mean_error <= 1e-4
        assert rows[0].nonconverged == 0

    def test_nonconverged_trials_counted(self):
        # a 3-iteration budget stops every solve short of convergence
        cfg = ExperimentConfig(problem=SparseL1(s=1, d=16), m_grid=(8,),
                               trials=3, seed=5,
                               solver=SolverOptions(max_iters=3))
        rows = run_error_curve(cfg, [0.0, 0.1], m=8)
        assert [r.nonconverged for r in rows] == [3, 3]

    def test_bound_doubles_with_eta(self):
        # at m=64 the Gordon lambda sqrt(63) - w - 2 is positive
        cfg = ExperimentConfig(problem=SparseL1(s=1, d=16), m_grid=(64,),
                               trials=2, seed=5)
        rows = run_error_curve(cfg, [0.1, 0.2], m=64)
        lam = np.sqrt(63) - np.sqrt(SparseL1(s=1, d=16).width_sq()) - 2
        assert rows[0].bound == pytest.approx(0.2 / lam)
        assert rows[1].bound == pytest.approx(2 * rows[0].bound)

    def test_gordon_fallback_when_lambda_missing(self):
        # below the Gordon threshold lambda clips to 0 and the bound is inf
        cfg = ExperimentConfig(problem=SparseL1(s=1, d=16), m_grid=(8,),
                               trials=2, seed=5)
        rows = run_error_curve(cfg, [0.0, 0.1], m=8)
        assert isinstance(rows[0], ErrorCurveRow)
        assert [r.bound for r in rows] == [float("inf")] * 2

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


def sweep_csv(result, out):
    write_records([dataclasses.asdict(r) for r in result.rows], out,
                  meta={"config_digest": result.config_digest})


class TestCsv:
    def test_file_output(self, tmp_path):
        res = run_phase_transition(small_config())
        path = str(tmp_path / "sweep.csv")
        sweep_csv(res, path)
        buf = io.StringIO()
        sweep_csv(res, buf)
        with open(path) as fh:
            assert fh.read() == buf.getvalue()

    def test_stringio_target(self):
        res = run_phase_transition(small_config())
        buf = io.StringIO()
        sweep_csv(res, buf)
        meta, header, *rows = buf.getvalue().splitlines()
        assert meta == f"# config_digest={res.config_digest}"
        assert header.split(",") == [f.name for f in
                                     dataclasses.fields(SweepRow)]
        assert [int(row.split(",")[0]) for row in rows] == [4, 8]
