"""The four workloads: inputs drawn from the benchmark seed, one timed round
through the package's public entry points, and the checks of a round.

``build(seed)`` is set-up; ``body(inputs)`` is one round and returns its
output; ``check(inputs, output, cells)`` returns (failed operations,
aggregate checks passed).  An operation is one recovery cell, or one
estimator call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from conicrecovery import conic, harness, measure, reg, smallball, solve, width
from conicrecovery.harness import ExperimentConfig, LowRankS1, PhaseRetrieval, SparseL1

import oracles

L1_GRID = (8, 16, 24, 32, 40, 48, 54, 64, 72, 80, 88, 96)  # acceptance 01
L1_TRIALS = 60
PHASE_GRID = (288, 336, 384)
PHASE_TRIALS = 6
CURVE_M = 55
CURVE_ETAS = (0.1, 0.3, 1.0)
CURVE_TRIALS = 20


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], object]
    body: Callable[[object], object]
    ops: Callable[[object], int]
    check: Callable[[object, object, list], tuple[int, bool]]
    # (owner, attr) calls on entry to which the host's speed may be sampled
    checkpoints: tuple = ()


def _sweep_ops(cfg):
    return len(cfg.m_grid) * cfg.trials


def _check_cells(cell_ok):
    def check(cfg, result, cells):
        failed = sum(not cell_ok(c, cfg.success_threshold) for c in cells)
        failed += _sweep_ops(cfg) - len(cells)
        return failed, oracles.sweep_counts_ok(result.rows, cells,
                                               cfg.success_threshold)
    return check


def _check_curve(cfg, rows, cells):
    failed = sum(not oracles.lowrank_cell_ok(c) for c in cells)
    failed += len(CURVE_ETAS) * cfg.trials - len(cells)
    return failed, oracles.curve_means_ok(rows, cells, cfg.trials)


# ---------------------------------------------------------------------------
# estimators: one call per entry of ESTIMATORS, each with its own check

L1_S, L1_D = 4, 128
S1_R, S1_D = 1, 8
SUB_K, ROWS_M = 10, 64
TAIL_XI = 0.5
LAM_S, LAM_D, LAM_M = 2, 16, 24


def _build_estimators(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    x_l1 = np.zeros(L1_D)
    x_l1[rng.choice(L1_D, L1_S, replace=False)] = rng.choice([-1.0, 1.0], L1_S)
    x_s1 = rng.standard_normal((S1_D, S1_R)) @ rng.standard_normal((S1_R, S1_D))
    x_lam = np.zeros(LAM_D)
    x_lam[rng.choice(LAM_D, LAM_S, replace=False)] = rng.choice([-1.0, 1.0], LAM_S)
    seeds = [int(v) for v in rng.integers(0, 2 ** 62, size=7)]
    return {
        "l1": reg.L1Norm(x_ref=x_l1),
        "s1": reg.Schatten1Norm(x_ref=x_s1),
        "lam": reg.L1Norm(x_ref=x_lam),
        "subspace": conic.Subspace(rng.standard_normal((L1_D, SUB_K))),
        "rows": measure.gaussian_row_sampler(L1_D),
        "op": measure.gaussian_ensemble(LAM_M, LAM_D, seed=seeds[6]),
        "seeds": seeds,
    }


def _unit_directions(rng, n):
    u = rng.standard_normal((n, L1_D))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


ESTIMATORS = {
    "width.l1": (
        lambda e: width.mc_width_sq_descent(e["l1"], trials=4000, seed=e["seeds"][0]),
        lambda e, r: oracles.l1_width_ok(r, L1_S, L1_D)),
    "width.s1": (
        lambda e: width.mc_width_sq_descent(e["s1"], trials=2000, seed=e["seeds"][1]),
        lambda e, r: oracles.s1_width_ok(r, S1_R, S1_D, S1_D)),
    "smallball.bowling": (
        lambda e: smallball.bowling_width_descent(e["l1"], e["rows"], ROWS_M,
                                                  trials=2500, seed=e["seeds"][2]),
        lambda e, r: oracles.bowling_ok(r, L1_S, L1_D)),
    "smallball.empirical_width": (
        lambda e: smallball.estimate_mean_empirical_width(
            e["rows"], e["subspace"], ROWS_M, trials=10_000, seed=e["seeds"][3]),
        lambda e, r: oracles.subspace_width_ok(r, SUB_K)),
    "smallball.marginal_tail": (
        lambda e: smallball.estimate_marginal_tail(
            e["rows"], _unit_directions, TAIL_XI, n_dirs=50, n_samples=40_000,
            seed=e["seeds"][4]),
        lambda e, r: oracles.tail_ok(r)),
    "conic.lambda_min": (
        lambda e: conic.lambda_min_empirical(e["op"], conic.DescentCone(e["lam"]),
                                             restarts=8, iters=300,
                                             seed=e["seeds"][5]),
        lambda e, r: oracles.lambda_heuristic_ok(r, e["op"].rows)),
}


def _run_estimators(e):
    out = {}
    for name, (call, _) in ESTIMATORS.items():
        try:
            out[name] = call(e)
        except Exception as exc:  # a raising estimator is a failed operation
            out[name] = exc
    return out


def _check_estimators(e, out, cells):
    failed = sum(isinstance(r, Exception) or not ok(e, r)
                 for (_, ok), r in zip(ESTIMATORS.values(), out.values()))
    return failed, not cells


WORKLOADS = {
    "l1-sweep": Workload(
        build=lambda seed: ExperimentConfig(SparseL1(s=4, d=128), L1_GRID,
                                            trials=L1_TRIALS, eta=0.0, seed=seed),
        body=lambda cfg: harness.run_phase_transition(cfg),
        ops=_sweep_ops,
        check=_check_cells(oracles.l1_cell_ok),
        checkpoints=((solve, "recover_constrained"),)),
    "phaselift-d48": Workload(
        build=lambda seed: ExperimentConfig(PhaseRetrieval(d=48), PHASE_GRID,
                                            trials=PHASE_TRIALS, seed=seed),
        body=lambda cfg: harness.run_phase_transition(cfg),
        ops=_sweep_ops,
        check=_check_cells(oracles.phaselift_cell_ok),
        checkpoints=((solve, "phase_retrieval_sdp"),)),
    "lowrank-noisy-curve": Workload(
        build=lambda seed: ExperimentConfig(LowRankS1(r=1, d1=8, d2=8), (CURVE_M,),
                                            trials=CURVE_TRIALS, seed=seed),
        body=lambda cfg: harness.run_error_curve(cfg, CURVE_ETAS, CURVE_M),
        ops=lambda cfg: len(CURVE_ETAS) * cfg.trials,
        check=_check_curve,
        checkpoints=((solve, "recover_constrained"),)),
    "estimators": Workload(
        build=_build_estimators,
        body=_run_estimators,
        ops=lambda e: len(ESTIMATORS),
        check=_check_estimators,
        checkpoints=((width, "mc_width_sq_descent"),
                     (smallball, "bowling_width_descent"),
                     (smallball, "estimate_mean_empirical_width"),
                     (smallball, "estimate_marginal_tail"),
                     (conic, "lambda_min_empirical"),
                     (reg.Regularizer, "min_subdiff_dist_sq"))),
}
