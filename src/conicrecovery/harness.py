"""Declarative experiments: the problem table, phase-transition sweeps
and error-vs-noise curves.

Every (m, trial) cell gets its own derived Philox stream, so sweeps are
reproducible bit for bit from (config, seed) and cells could run in any
order; reduction happens in index order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import measure, solve, width
from .conic import deterministic_error_bound
from .reg import L1Norm, Schatten1Norm
from .rng import generator


# ---------------------------------------------------------------------------
# problem table: signal, operator, width bound and regularizer of each class

@dataclass(frozen=True)
class SparseL1:
    """s-sparse sign vectors in R^d, recovered by l1 minimization."""

    s: int
    d: int

    def __post_init__(self):
        self.width_sq()  # rejects s outside 1..d

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        x = np.zeros(self.d)
        support = rng.choice(self.d, size=self.s, replace=False)
        x[support] = rng.choice([-1.0, 1.0], size=self.s)
        return x

    def width_sq(self) -> float:
        return width.sparse_width_bound(self.s, self.d)

    def mc_width_sq(self, trials: int, seed: int) -> width.WidthEstimate:
        """Monte Carlo squared width at the reference signal e_1 + ... + e_s."""
        x = np.zeros(self.d)
        x[:self.s] = 1.0
        return width.mc_width_sq_descent(L1Norm(x), trials, seed)

    def operator(self, m: int, seed: int) -> measure.MeasurementOperator:
        return measure.gaussian_ensemble(m, self.d, seed=seed)

    def regularizer(self) -> L1Norm:
        return L1Norm()


@dataclass(frozen=True)
class LowRankS1:
    """Rank-r d1 x d2 matrices G1 G2^t, recovered by Schatten-1 minimization."""

    r: int
    d1: int
    d2: int

    def __post_init__(self):
        self.width_sq()  # rejects r outside 1..min(d1, d2)

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        g1 = rng.standard_normal((self.d1, self.r))
        g2 = rng.standard_normal((self.d2, self.r))
        return g1 @ g2.T

    def width_sq(self) -> float:
        return width.rank_width_bound(self.r, self.d1, self.d2)

    def mc_width_sq(self, trials: int, seed: int) -> width.WidthEstimate:
        """Monte Carlo squared width at the reference signal diag(1_r, 0)."""
        x = np.zeros((self.d1, self.d2))
        np.fill_diagonal(x[:self.r, :self.r], 1.0)
        return width.mc_width_sq_descent(Schatten1Norm(x), trials, seed)

    def operator(self, m: int, seed: int) -> measure.MeasurementOperator:
        return measure.gaussian_matrix_ensemble(m, self.d1, self.d2, seed=seed)

    def regularizer(self) -> Schatten1Norm:
        return Schatten1Norm()


@dataclass(frozen=True)
class PhaseRetrieval:
    """Unit vectors in R^d seen through |<psi_i, x>|^2, recovered by PhaseLift."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("need d >= 1")

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        x = rng.standard_normal(self.d)
        return x / np.linalg.norm(x)

    def width_sq(self) -> float:
        # the width bound scales like d; no closed-form constant
        return float(self.d)

    def operator(self, m: int, seed: int) -> measure.MeasurementOperator:
        return measure.lifted_phase_ensemble(m, self.d, seed=seed)


Problem = SparseL1 | LowRankS1 | PhaseRetrieval

MARGIN = 3.0  # C in the sample-complexity threshold ceil(w^2 + C w)


def solve_instance(problem: Problem, m: int, x: np.ndarray, op_seed: int,
                   eta: float, noise_seed: int, opts: solve.SolverOptions):
    """Measure ``x`` with m draws of the problem's ensemble and recover it.

    Returns (result, rel_error): ||x_hat - x|| / ||x|| for the norm problems,
    ||X_hat - x x^t|| / ||x||^2 for PhaseLift, whose measurements carry no
    noise (``eta`` and ``noise_seed`` are unused).
    """
    op = problem.operator(m, op_seed)
    if isinstance(problem, PhaseRetrieval):
        x_lift = np.outer(x, x)
        y = measure.apply(op, x_lift)
        res = solve.phase_retrieval_sdp(op, y, opts)
        return res, float(np.linalg.norm(res.estimate - x_lift)
                          / np.linalg.norm(x) ** 2)
    y = measure.measure_with_noise(op, x, noise_norm=eta, seed=noise_seed)
    res = solve.recover_constrained(problem.regularizer(), op, y, eta, opts)
    return res, float(np.linalg.norm(res.estimate - x) / np.linalg.norm(x))


@dataclass(frozen=True)
class ExperimentConfig:
    problem: Problem
    m_grid: tuple[int, ...]
    trials: int = 25
    eta: float = 0.0
    success_threshold: float = 1e-4
    seed: int = 0
    solver: solve.SolverOptions = field(default_factory=solve.SolverOptions)

    def __post_init__(self):
        grid = tuple(int(m) for m in self.m_grid)
        if not grid:
            raise ValueError("m_grid must not be empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("m_grid must be strictly increasing")
        object.__setattr__(self, "m_grid", grid)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.success_threshold > 0:
            raise ValueError("success_threshold must be positive")

    def digest(self) -> str:
        blob = json.dumps({
            "problem": [type(self.problem).__name__, asdict(self.problem)],
            "m_grid": list(self.m_grid), "trials": self.trials,
            "eta": self.eta, "success_threshold": self.success_threshold,
            "seed": self.seed, "margin": MARGIN,
        }, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SweepRow:
    m: int
    successes: int
    trials: int
    success_rate: float
    mean_rel_error: float
    mean_solve_iters: float
    nonconverged: int

    def __post_init__(self):
        if self.successes > self.trials or not 0 <= self.success_rate <= 1:
            raise ValueError("inconsistent sweep row")


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    config_digest: str
    seed: int
    predicted_width_sq: float
    predicted_m: int

    def fifty_percent_m(self) -> float | None:
        """Linear interpolation of the 50%-success point between the
        bracketing grid rows; None when the sweep never crosses 0.5."""
        prev = None
        for row in self.rows:
            if prev is not None and prev.success_rate < 0.5 <= row.success_rate:
                lo, hi = prev, row
                span = hi.success_rate - lo.success_rate
                frac = (0.5 - lo.success_rate) / span if span > 0 else 0.5
                return lo.m + frac * (hi.m - lo.m)
            prev = row
        if self.rows and self.rows[0].success_rate >= 0.5:
            return float(self.rows[0].m)
        return None


# ---------------------------------------------------------------------------
# sweeps

def _cell_seed(root: int, m_index: int, trial: int) -> int:
    # stable per-cell seed derivation independent of evaluation order
    h = hashlib.sha256(f"{root}:{m_index}:{trial}".encode()).digest()
    return int.from_bytes(h[:8], "little")


def _run_cell(problem: Problem, m: int, cell_seed: int, eta: float,
              threshold: float, opts: solve.SolverOptions):
    """Solve one instance; returns (success, rel_error, iters, converged)."""
    rng = generator(cell_seed)
    x_true = problem.draw(rng)
    op_seed = int(rng.integers(0, 2 ** 62))
    noise_seed = int(rng.integers(0, 2 ** 62))
    res, rel = solve_instance(problem, m, x_true, op_seed, eta, noise_seed,
                              opts)
    return res.converged and rel <= threshold, rel, res.iterations, res.converged


def _run_grid(config: ExperimentConfig, points, index0: int = 0):
    """Run ``config.trials`` cells at each (m, eta) point, seeding the cells
    of point i by its index ``index0 + i``; returns, per point, the cells'
    (success, rel_error, iters, converged) in trial order.

    A negative eta, or for ``PhaseRetrieval``, whose measurements carry no
    noise, a nonzero one, is rejected before any cell runs."""
    if any(eta < 0 for _, eta in points):
        raise ValueError("eta must be nonnegative")
    if isinstance(config.problem, PhaseRetrieval) and any(
            eta != 0 for _, eta in points):
        raise ValueError("phase retrieval measurements are noiseless; "
                         "eta must be 0")
    return [[_run_cell(config.problem, m,
                       _cell_seed(config.seed, index0 + i, trial), eta,
                       config.success_threshold, config.solver)
             for trial in range(config.trials)]
            for i, (m, eta) in enumerate(points)]


def run_phase_transition(config: ExperimentConfig) -> SweepResult:
    """Sweep the measurement count and tally recovery successes per m."""
    grid = _run_grid(config, [(m, config.eta) for m in config.m_grid])
    rows = []
    for m, cells in zip(config.m_grid, grid):
        ok, rels, iters, conv = zip(*cells)
        successes = sum(ok)
        rows.append(SweepRow(m, successes, config.trials,
                             successes / config.trials, float(np.mean(rels)),
                             float(np.mean(iters)), conv.count(False)))
    w_sq = config.problem.width_sq()
    m_pred = width.sample_complexity_gaussian(math.sqrt(w_sq), MARGIN)
    return SweepResult(tuple(rows), config.digest(), config.seed, w_sq, m_pred)


# ---------------------------------------------------------------------------
# error-vs-noise curves

@dataclass(frozen=True)
class ErrorCurveRow:
    eta: float
    mean_error: float
    bound: float
    nonconverged: int  # trials whose solve stopped unconverged


def run_error_curve(config: ExperimentConfig, eta_grid,
                    m: int) -> list[ErrorCurveRow]:
    """Mean observed error over all trials, converged or not, and the
    2*eta/lambda bound per noise level.

    lambda is the Gordon prediction sqrt(m-1) - w - 2 with the closed-form
    width bound w, clipped at 0, so the bound is probabilistic, not
    certified.
    """
    w = math.sqrt(config.problem.width_sq())
    lam = max(width.gordon_lower_bound(m, w, 2.0), 0.0)
    etas = [float(eta) for eta in eta_grid]
    grid = _run_grid(config, [(m, eta) for eta in etas], index0=10_000)
    rows = []
    for eta, cells in zip(etas, grid):
        _, rels, _, conv = zip(*cells)
        rows.append(ErrorCurveRow(eta, float(np.mean(rels)),
                                  deterministic_error_bound(eta, lam),
                                  conv.count(False)))
    return rows
