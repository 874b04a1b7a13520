"""Tests of the benchmark itself: every check accepts a correct output and
rejects a deliberately wrong one, and the printed metric names match
BENCHMARK.json.

    python3 -m pytest bench/test_bench.py
"""

import dataclasses
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scipy import integrate

from conicrecovery import harness, measure, reg, smallball, width
from conicrecovery.conic import DescentCone, Subspace, lambda_min_empirical
from conicrecovery.harness import ExperimentConfig, LowRankS1, PhaseRetrieval, SparseL1

import hostspeed
import layers
import oracles
import run
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
THR = 1e-4


def captured(body):
    cells = []
    with layers.capture(cells):
        out = body()
    return out, cells


def replace_result(cell, **changes):
    return dataclasses.replace(cell, result=dataclasses.replace(cell.result,
                                                                **changes))


@pytest.fixture(scope="module")
def l1_sweep():
    cfg = ExperimentConfig(SparseL1(s=2, d=20), (6, 16), trials=2, seed=3)
    return captured(lambda: harness.run_phase_transition(cfg))


@pytest.fixture(scope="module")
def phase_sweep():
    cfg = ExperimentConfig(PhaseRetrieval(d=4), (40,), trials=2, seed=3)
    return captured(lambda: harness.run_phase_transition(cfg))


@pytest.fixture(scope="module")
def curve():
    cfg = ExperimentConfig(LowRankS1(r=1, d1=4, d2=4), (14,), trials=2, seed=3)
    return captured(lambda: harness.run_error_curve(cfg, (0.1, 0.5), 14))


def test_l1_cells_match_lp_and_reject_wrong_outputs(l1_sweep):
    result, cells = l1_sweep
    assert len(cells) == 4
    assert all(oracles.l1_cell_ok(c, THR) for c in cells)
    solved = [c for c in cells if c.result.converged
              and oracles.rel_error(c.result.estimate, c.truth) <= THR]
    assert solved, "the m=16 row should recover"
    cell = solved[0]
    wrong_estimate = replace_result(cell, estimate=cell.result.estimate + 1e-2)
    wrong_objective = replace_result(cell, objective=cell.result.objective * (1 + 1e-4))
    assert not oracles.l1_cell_ok(wrong_estimate, THR)
    assert not oracles.l1_cell_ok(wrong_objective, THR)


def test_sweep_counts_reject_altered_success_count(l1_sweep, phase_sweep):
    for result, cells in (l1_sweep, phase_sweep):
        assert oracles.sweep_counts_ok(result.rows, cells, THR)
        row = result.rows[-1]
        rows = result.rows[:-1] + (dataclasses.replace(
            row, successes=row.successes - 1,
            success_rate=(row.successes - 1) / row.trials),)
        assert not oracles.sweep_counts_ok(rows, cells, THR)
        assert not oracles.sweep_counts_ok(result.rows, cells[:-1], THR)


def test_phaselift_cells_and_wrong_outputs(phase_sweep):
    _, cells = phase_sweep
    assert all(oracles.phaselift_cell_ok(c, THR) for c in cells)
    cell = cells[0]
    est = cell.result.estimate
    v = np.linalg.eigh(est)[1][:, 0]  # a null direction of the estimate
    for wrong in (1.01 * est,                     # trace above xx^t, misfit
                  est - 1e-3 * np.outer(v, v),    # not PSD
                  est + 1e-3 * np.outer(v, v)):   # PSD, but off the data
        assert not oracles.phaselift_cell_ok(replace_result(cell, estimate=wrong), THR)


def test_lowrank_cells_and_curve_means(curve):
    rows, cells = curve
    assert all(oracles.lowrank_cell_ok(c) for c in cells)
    assert oracles.curve_means_ok(rows, cells, trials=2)
    cell = cells[0]
    assert not oracles.lowrank_cell_ok(
        replace_result(cell, estimate=1.5 * cell.result.estimate))
    assert not oracles.lowrank_cell_ok(
        replace_result(cell, estimate=cell.result.estimate + 0.05 * np.eye(4)))
    shifted = [dataclasses.replace(rows[0], mean_error=rows[0].mean_error * 1.001)]
    assert not oracles.curve_means_ok(shifted + rows[1:], cells, trials=2)


def test_almt_closed_form_matches_quadrature():
    s, d = 4, 128

    def j(tau):
        tail, _ = integrate.quad(
            lambda u: (u - tau) ** 2 * math.exp(-u * u / 2) / math.sqrt(2 * math.pi),
            tau, np.inf)
        return s * (1 + tau ** 2) + 2 * (d - s) * tail

    taus = np.linspace(0.0, 4.0, 4001)
    assert oracles.almt_l1(s, d) == pytest.approx(min(map(j, taus)), rel=1e-5)
    assert oracles.almt_l1(s, d) == pytest.approx(18.585, abs=1e-3)


def test_estimator_checks_reject_shifted_means():
    x = np.zeros(128)
    x[:4] = [1.0, -1.0, 1.0, -1.0]
    f = reg.L1Norm(x_ref=x)
    est = width.mc_width_sq_descent(f, trials=300, seed=1)
    assert oracles.l1_width_ok(est, 4, 128)
    assert not oracles.l1_width_ok(dataclasses.replace(est, value=est.value + 3.0), 4, 128)
    assert not oracles.l1_width_ok(dataclasses.replace(est, value=3.0), 4, 128)

    x_s1 = np.outer(np.arange(1.0, 9.0), np.ones(8))
    est = width.mc_width_sq_descent(reg.Schatten1Norm(x_ref=x_s1), trials=100, seed=1)
    assert oracles.s1_width_ok(est, 1, 8, 8)
    assert not oracles.s1_width_ok(dataclasses.replace(est, value=46.0), 1, 8, 8)

    rows = measure.gaussian_row_sampler(128)
    basis = Subspace(np.random.default_rng(0).standard_normal((128, 10)))
    est = smallball.estimate_mean_empirical_width(rows, basis, 64, trials=2000, seed=1)
    assert oracles.subspace_width_ok(est, 10)
    assert not oracles.subspace_width_ok(
        dataclasses.replace(est, w_hat=est.w_hat + 6 * est.std_error), 10)

    est = smallball.estimate_marginal_tail(rows, workloads._unit_directions, 0.5,
                                           n_dirs=20, n_samples=5000, seed=1)
    assert oracles.tail_ok(est)
    assert not oracles.tail_ok(dataclasses.replace(est, q_mean=est.q_mean + 0.03))

    est = smallball.bowling_width_descent(f, rows, 64, trials=200, seed=1)
    assert oracles.bowling_ok(est, 4, 128)
    assert not oracles.bowling_ok(dataclasses.replace(est, w_hat=5.0), 4, 128)


def test_lambda_heuristic_check():
    x = np.zeros(16)
    x[:2] = [1.0, -1.0]
    op = measure.gaussian_ensemble(24, 16, seed=2)
    res = lambda_min_empirical(op, DescentCone(reg.L1Norm(x_ref=x)),
                               restarts=2, iters=50, seed=1)
    assert oracles.lambda_heuristic_ok(res, op.rows)
    sigma_min = np.linalg.svd(op.rows, compute_uv=False)[-1]
    assert not oracles.lambda_heuristic_ok(
        dataclasses.replace(res, value=0.9 * sigma_min), op.rows)


def test_round_time_leaves_out_host_speed_samples(monkeypatch):
    monkeypatch.setattr(hostspeed, "kernel", lambda: time.sleep(0.02))
    monkeypatch.setattr(hostspeed, "SAMPLE_EVERY_S", 0.0)
    cfg = ExperimentConfig(SparseL1(s=1, d=8), (6,), trials=3, seed=0)
    speed = hostspeed.Sampler()
    start = time.perf_counter()
    r = run.run_round(workloads.WORKLOADS["l1-sweep"], cfg, layers, speed)
    elapsed = time.perf_counter() - start
    assert len(speed.samples) == 3  # one per solve
    assert r.seconds <= elapsed - speed.spent
    assert speed.spent >= 0.06
    assert speed.scale() == pytest.approx(hostspeed.NOMINAL_S
                                          / statistics.fmean(speed.samples))


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(monkeypatch, capsys, trace, key):
    tiny = dataclasses.replace(
        workloads.WORKLOADS["l1-sweep"],
        build=lambda seed: ExperimentConfig(SparseL1(s=1, d=8), (6,), trials=1,
                                            seed=seed))
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny)
    monkeypatch.setattr(run, "setup_seconds", lambda name, seed: 1.0)
    code = run.main(["--workload", "tiny", "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)])
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0 and out["correct"] and out["failed"] == 0
    assert out["attempted"] == 1 + trace
    assert list(out["metrics"]) == [m["name"] for m in SPEC[key]]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[key]}


def test_workload_names_match_benchmark_json():
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
