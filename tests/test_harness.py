"""Phase-transition sweeps, error curves, and their records as CSV."""

import dataclasses
import io
import math

import numpy as np
import pytest
from scipy.optimize import linprog

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
from conicrecovery.measure import measure_with_noise
from conicrecovery.rng import generator
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

    @pytest.mark.parametrize("field, value, message", [
        pytest.param("trials", 2.5, "trials must be an integer", id="2.5"),
        pytest.param("trials", True, "trials must be an integer", id="True"),
        ("seed", 2.5, "seed must be an integer"),
        ("seed", True, "seed must be an integer"),
        ("eta", -0.1, "eta must be nonnegative"),
        ("eta", math.nan, "eta must be nonnegative"),
        ("eta", math.inf, "eta must be finite"),
    ])
    def test_rejects_non_integer_trials(self, field, value, message):
        # unchecked, 2.5 trials failed only inside the sweep's range(), and
        # True ran a one-trial sweep under a digest other than trials=1's;
        # a NaN eta was refused only once the config ran
        with pytest.raises(ValueError, match=message):
            small_config(**{field: value})

    def test_integral_float_trials_read_as_int(self):
        # equal values give equal digests and cell seeds: seed=3.0 hashed
        # "3.0:..." and ran another experiment than seed=3
        for field, value, same, kind in [("trials", 2.0, 2, int),
                                         ("seed", 3.0, 3, int),
                                         ("eta", 0, 0.0, float),
                                         ("success_threshold", 1, 1.0, float)]:
            cfg = small_config(**{field: value})
            assert getattr(cfg, field) == same
            assert type(getattr(cfg, field)) is kind
            assert cfg.digest() == small_config(**{field: same}).digest()

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
        # the solver budget changes the rows; the default stays unhashed
        assert a != small_config(solver=SolverOptions(max_iters=3)).digest()
        assert a == small_config(solver=SolverOptions()).digest()
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

    def test_phase_instance_takes_noise(self):
        # noise of norm eta reaches the SDP with its eta: the estimate fits
        # the data to within eta, and its error is of the order of eta
        res, rel = harness.solve_instance(PhaseRetrieval(8), 40, 3, 0.5,
                                          SolverOptions())
        assert res.converged and res.residual_norm <= 0.5 * (1 + 1e-6)
        assert 0 < rel <= 0.5

    def test_phaselift_rel_error_is_frobenius_ratio(self):
        # the signal is the lifted X = x x^t of the unit x drawn first from
        # the cell's generator, and rel is ||X_hat - X|| / ||X||, the ratio
        # a recount from the measured truth gives; in acceptance-03 cell
        # (0, 4) it differs in the last bits from ||X_hat - X|| / ||x||^2
        seed = harness._cell_seed(11, 0, 4)
        res, rel = harness.solve_instance(PhaseRetrieval(16), 128, seed, 0.0,
                                          SolverOptions())
        x = generator(seed).standard_normal(16)
        x = x / np.linalg.norm(x)
        lifted = np.outer(x, x)
        err = np.linalg.norm(res.estimate - lifted)
        assert PhaseRetrieval(16).draw(generator(seed)).tobytes() == \
            lifted.tobytes()
        assert rel == err / np.linalg.norm(lifted)
        assert rel != err / np.linalg.norm(x) ** 2

    def test_fifty_percent_interpolation(self):
        rows = (SweepRow(10, 2, 10, 0.2, 0.5, 10.0, 0),
                SweepRow(20, 8, 10, 0.8, 0.1, 10.0, 0))
        res = SweepResult(rows, "x", 0, 10.0, 20)
        assert res.fifty_percent_m() == pytest.approx(15.0)

    def test_fifty_percent_at_first_row_when_already_crossed(self):
        rows = (SweepRow(10, 6, 10, 0.6, 0.5, 10.0, 0),
                SweepRow(20, 9, 10, 0.9, 0.1, 10.0, 0))
        assert SweepResult(rows, "x", 0, 10.0, 20).fifty_percent_m() == 10.0

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


def draw_cell(problem, m, seed, eta):
    """(x, op, y) of the cell that ``solve_instance`` seeds with ``seed``."""
    rng = generator(seed)
    x = problem.draw(rng)
    op = problem.operator(m, int(rng.integers(0, 2 ** 62)))
    y = measure_with_noise(op, x, noise_norm=eta,
                           seed=int(rng.integers(0, 2 ** 62)))
    return x, op, y


class TestCertifiedFailure:
    THR = 1e-4
    # 20 sub-threshold cells, trial t of each row seeded _cell_seed(1, m, t)
    CELLS = ([(SparseL1(4, 128), m, 0.0) for m in (8, 16, 24)]
             + [(SparseL1(4, 128), 16, 0.1), (LowRankS1(1, 8, 8), 20, 0.0)])
    TRIALS = 4

    def cells(self):
        for problem, m, eta in self.CELLS:
            for t in range(self.TRIALS):
                yield problem, m, eta, harness._cell_seed(1, m, t)

    def test_verdicts_equal_with_and_without_the_floor(self):
        certified = []
        for problem, m, eta, seed in self.cells():
            (res, rel), (free, free_rel) = (
                harness.solve_instance(problem, m, seed, eta, SolverOptions(),
                                       thr)
                for thr in (self.THR, None))
            assert free.stop_reason == "converged"
            assert ((res.converged and rel <= self.THR)
                    == (free_rel <= self.THR))
            if res.stop_reason == "certified_fail":
                certified.append((type(problem).__name__, m, eta))
                assert res.iterations < free.iterations
            else:  # the floor never fires: the same solve, bit for bit
                assert res.stop_reason == "converged"
                assert res.estimate.tobytes() == free.estimate.tobytes()
        assert len(certified) == 15
        assert {c[0] for c in certified} == {"SparseL1", "LowRankS1"}
        assert ("SparseL1", 16, 0.1) in certified

    def test_certified_l1_cells_fail_at_the_lp_minimizer(self):
        # soundness against HiGHS: the floor is ||x||_1 - sqrt(d) thr ||x||,
        # and a certified cell's LP minimizer lies more than thr ||x|| from x
        checked = 0
        for problem, m, eta, seed in self.cells():
            if not (isinstance(problem, SparseL1) and eta == 0.0):
                continue
            res, _ = harness.solve_instance(problem, m, seed, eta,
                                            SolverOptions(), self.THR)
            if res.stop_reason != "certified_fail":
                continue
            x, op, y = draw_cell(problem, m, seed, eta)
            floor = (np.abs(x).sum()
                     - math.sqrt(problem.d) * self.THR * np.linalg.norm(x))
            assert problem.failure_floor(x, self.THR) == pytest.approx(
                floor, rel=1e-15)
            assert res.objective < floor
            n = problem.d
            lp = linprog(np.ones(2 * n), A_eq=np.hstack([op.rows, -op.rows]),
                         b_eq=y, bounds=(0, None), method="highs")
            assert lp.status == 0
            x_lp = lp.x[:n] - lp.x[n:]
            assert np.linalg.norm(x_lp - x) > self.THR * np.linalg.norm(x)
            assert np.abs(x_lp).sum() <= res.objective * (1 + 1e-6)
            checked += 1
        assert checked == 7

    def test_only_norm_program_sweeps_take_a_floor(self, monkeypatch):
        floors = []
        loop = solve._douglas_rachford

        def spy(*args, floor=-math.inf):
            floors.append(floor)
            return loop(*args, floor=floor)

        monkeypatch.setattr(solve, "_douglas_rachford", spy)
        config = ExperimentConfig(problem=SparseL1(4, 128), m_grid=(16,),
                                  trials=2, seed=1)
        run_error_curve(config, [0.1], m=16)
        run_phase_transition(dataclasses.replace(
            config, problem=PhaseRetrieval(4)))
        assert floors == [-math.inf] * 4
        run_phase_transition(config)
        assert all(math.isfinite(f) for f in floors[4:]) and len(floors) == 6


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

    def test_noisy_phase_curve_linear_in_eta(self):
        # the chapter's stability claim for PhaseLift: over two decades of
        # eta the mean error stays within a factor 2 of a multiple of eta
        # (0.088 to 0.151 times eta), and no cell caps; the bound is inf,
        # as Gordon's lambda does not hold for lifted rows
        cfg = ExperimentConfig(problem=PhaseRetrieval(d=8), m_grid=(48,),
                               trials=6, seed=1)
        rows = run_error_curve(cfg, [0.01, 0.03, 0.1, 0.3, 1.0], m=48)
        assert [r.nonconverged for r in rows] == [0] * 5
        assert [r.bound for r in rows] == [float("inf")] * 5
        ratios = [r.mean_error / r.eta for r in rows]
        assert 0.05 <= min(ratios) and max(ratios) <= 2 * min(ratios)

    def test_lowrank_noisy_curve_pinned(self, monkeypatch):
        # every projection of these cells solves the eta > 0 secular
        # equation; the means and the DR iteration count of each cell were
        # recorded with the Newton secular solve, the prox step 0.2 * eta
        # and guarded Anderson steps from the first iteration
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
        means = [r.mean_error for r in rows]
        np.testing.assert_allclose(
            means,
            [0.0025580712128173734, 0.007659244152982926, 0.018508893485768556],
            rtol=1e-12, atol=0)
        # the plain step's means, from 7,730 DR iterations: both loops stop
        # within the tolerance of the same solutions
        np.testing.assert_allclose(
            means,
            [0.002558072568636908, 0.007659240233204125, 0.018508897945854298],
            rtol=1e-6, atol=0)
        assert [r.nonconverged for r in rows] == [0, 0, 0]
        assert iters == [
            80, 60, 70, 70, 80, 70, 90, 70, 70, 70,
            70, 80, 110, 90, 70, 80, 100, 70, 70, 70,
            50, 50, 50, 60, 50, 50, 50, 50, 70, 50,
            40, 50, 50, 50, 60, 50, 60, 70, 50, 50,
            40, 40, 40, 50, 50, 40, 40, 40, 40, 50,
            50, 40, 40, 50, 40, 30, 40, 40, 40, 50]

    def test_l1_noisy_curve_pinned(self, monkeypatch):
        # the l1 twin of the low-rank curve: every eta > 0 projection of a
        # dense operator goes through the stored Q^t Phi; the means and the
        # DR iteration count of each cell were recorded with guarded
        # Anderson steps from the first iteration
        iters = []
        recover = solve.recover_constrained

        def counted(*args, **kwargs):
            res = recover(*args, **kwargs)
            iters.append(res.iterations)
            return res

        monkeypatch.setattr(solve, "recover_constrained", counted)
        cfg = ExperimentConfig(problem=SparseL1(s=4, d=128), m_grid=(54,),
                               trials=6, seed=3)
        rows = run_error_curve(cfg, [0.1, 1.0], m=54)
        means = [r.mean_error for r in rows]
        np.testing.assert_allclose(
            means, [0.005590165507288539, 0.05576421645706061],
            rtol=1e-12, atol=0)
        # the plain step's means, from 4,650 DR iterations
        np.testing.assert_allclose(
            means, [0.005590166723923327, 0.05576422527477631],
            rtol=1e-6, atol=0)
        assert [r.nonconverged for r in rows] == [0, 0]
        assert iters == [130, 110, 110, 80, 120, 110,
                         100, 100, 100, 80, 90, 100]


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
