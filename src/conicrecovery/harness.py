"""Declarative experiments: the problem table, phase-transition sweeps
and error-vs-noise curves.

Every (m, trial) cell has its own seed, from which ``solve_instance`` draws
its instance, so sweeps are reproducible bit for bit from (config, seed)
and any cell replays alone; reduction happens in index order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import measure, solve, width
from .measure import as_int, check_eta
from .conic import deterministic_error_bound
from .reg import L1Norm, Schatten1Norm
from .rng import generator


# ---------------------------------------------------------------------------
# problem table: signal, operator, width bound and program of each class

class _GaussianRows:
    """A norm program over Gaussian rows: ``norm`` is its regularizer and
    ``lipschitz()`` the norm's Lipschitz constant in the Frobenius norm."""

    def recover(self, op, y, eta, opts,
                floor: float = -math.inf) -> solve.RecoveryResult:
        return solve.recover_constrained(self.norm(), op, y, eta, opts, floor)

    def failure_floor(self, x: np.ndarray, thr: float) -> float:
        """f(x) - L thr ||x||.  f is L-Lipschitz, so a feasible point with f
        below this floor puts every minimizer more than thr ||x|| from x:
        the solve cannot succeed at threshold thr."""
        return (self.norm().value(x)
                - self.lipschitz() * thr * float(np.linalg.norm(x)))

    def noise_lambda(self, m: int) -> float:
        """Gordon's prediction sqrt(m-1) - w - 2 of the minimum conic
        singular value, w the closed-form width bound, clipped at 0."""
        w = math.sqrt(self.width_sq())
        return max(width.gordon_lower_bound(m, w, 2.0), 0.0)


@dataclass(frozen=True)
class SparseL1(_GaussianRows):
    """s-sparse sign vectors in R^d, recovered by l1 minimization."""

    s: int
    d: int
    norm = L1Norm

    def __post_init__(self):
        self.width_sq()  # rejects s outside 1..d

    def lipschitz(self) -> float:
        return math.sqrt(self.d)

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


@dataclass(frozen=True)
class LowRankS1(_GaussianRows):
    """Rank-r d1 x d2 matrices G1 G2^t, recovered by Schatten-1 minimization."""

    r: int
    d1: int
    d2: int
    norm = Schatten1Norm

    def __post_init__(self):
        self.width_sq()  # rejects r outside 1..min(d1, d2)

    def lipschitz(self) -> float:
        return math.sqrt(min(self.d1, self.d2))

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


@dataclass(frozen=True)
class PhaseRetrieval:
    """Unit vectors x in R^d seen through |<psi_i, x>|^2: the signal is the
    lifted x x^t, recovered by PhaseLift."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("need d >= 1")

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        x = rng.standard_normal(self.d)
        x = x / np.linalg.norm(x)
        return np.outer(x, x)

    def width_sq(self) -> float:
        # the width bound scales like d; no closed-form constant
        return float(self.d)

    def operator(self, m: int, seed: int) -> measure.MeasurementOperator:
        return measure.lifted_phase_ensemble(m, self.d, seed=seed)

    def noise_lambda(self, m: int) -> float:
        return 0.0  # Gordon's lambda holds for Gaussian rows, not lifted ones

    def recover(self, op, y, eta, opts) -> solve.RecoveryResult:
        return solve.phase_retrieval_sdp(op, y, eta, opts)


Problem = SparseL1 | LowRankS1 | PhaseRetrieval

MARGIN = 3.0  # C in the sample-complexity threshold ceil(w^2 + C w)


def solve_instance(problem: Problem, m: int, seed: int, eta: float,
                   opts: solve.SolverOptions, thr: float | None = None):
    """Draw from ``generator(seed)`` the signal x, then the operator seed,
    then the noise seed; measure x with m draws of the problem's ensemble
    plus noise of norm eta, and recover it with the problem's program.

    Given a sweep's success threshold ``thr``, a norm program stops as
    ``"certified_fail"`` once a feasible iterate falls below
    ``problem.failure_floor(x, thr)``.  PhaseLift takes no floor: its
    feasible iterate is not PSD.

    Returns (result, ||x_hat - x|| / ||x||), Frobenius for matrix signals.
    """
    rng = generator(seed)
    x = problem.draw(rng)
    op = problem.operator(m, int(rng.integers(0, 2 ** 62)))
    y = measure.measure_with_noise(op, x, noise_norm=eta,
                                   seed=int(rng.integers(0, 2 ** 62)))
    if thr is None or isinstance(problem, PhaseRetrieval):
        res = problem.recover(op, y, eta, opts)
    else:
        res = problem.recover(op, y, eta, opts, problem.failure_floor(x, thr))
    return res, float(np.linalg.norm(res.estimate - x) / np.linalg.norm(x))


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep's inputs.  ``seed`` and the grid read as integers, ``eta``
    and ``success_threshold`` as floats, so equal values give equal cell
    seeds and digests (3.0 runs as 3); ``eta`` must pass ``check_eta``.
    The digest covers ``solver`` only where it differs from the default."""

    problem: Problem
    m_grid: tuple[int, ...]
    trials: int = 25
    eta: float = 0.0
    success_threshold: float = 1e-4
    seed: int = 0
    solver: solve.SolverOptions = field(default_factory=solve.SolverOptions)

    def __post_init__(self):
        grid = tuple(as_int(m, "m_grid entry") for m in self.m_grid)
        if not grid:
            raise ValueError("m_grid must not be empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("m_grid must be strictly increasing")
        object.__setattr__(self, "m_grid", grid)
        object.__setattr__(self, "trials", as_int(self.trials, "trials"))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
        object.__setattr__(self, "eta", float(self.eta))
        check_eta(self.eta)
        object.__setattr__(self, "success_threshold",
                           float(self.success_threshold))
        if not self.success_threshold > 0:
            raise ValueError("success_threshold must be positive")

    def digest(self) -> str:
        inputs = {
            "problem": [type(self.problem).__name__, asdict(self.problem)],
            "m_grid": list(self.m_grid), "trials": self.trials,
            "eta": self.eta, "success_threshold": self.success_threshold,
            "seed": self.seed, "margin": MARGIN,
        }
        if self.solver != solve.SolverOptions():  # keeps the default's digests
            inputs["solver"] = [self.solver.max_iters, float(self.solver.tol)]
        blob = json.dumps(inputs, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SweepRow:
    m: int
    successes: int
    trials: int
    success_rate: float
    mean_rel_error: float
    mean_solve_iters: float
    nonconverged: int  # every cell that did not converge
    certified_fail: int = 0  # of those, the ones proven to fail

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
                lo, hi = prev.success_rate, row.success_rate
                return prev.m + (0.5 - lo) / (hi - lo) * (row.m - prev.m)
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


def _run_grid(config: ExperimentConfig, points, index0: int = 0,
              thr: float | None = None):
    """Run ``config.trials`` cells at each (m, eta) point, trial t of point
    i seeded ``_cell_seed(config.seed, index0 + i, t)``; returns, per point,
    the cells' ``solve_instance`` (result, rel_error) pairs in trial order.
    An eta that ``measure.check_eta`` refuses is rejected before any cell
    runs."""
    for _, eta in points:
        measure.check_eta(eta)
    return [[solve_instance(config.problem, m,
                            _cell_seed(config.seed, index0 + i, trial), eta,
                            config.solver, thr)
             for trial in range(config.trials)]
            for i, (m, eta) in enumerate(points)]


def run_phase_transition(config: ExperimentConfig) -> SweepResult:
    """Sweep the measurement count and tally recovery successes per m.  A
    cell succeeds when it converges within ``success_threshold`` of x; a
    norm program's cell stops early once it is certain to fail
    (``solve_instance``)."""
    thr = config.success_threshold
    grid = _run_grid(config, [(m, config.eta) for m in config.m_grid], thr=thr)
    rows = []
    for m, cells in zip(config.m_grid, grid):
        results, rels = zip(*cells)
        ok = sum(res.converged and rel <= thr for res, rel in cells)
        rows.append(SweepRow(m, ok, config.trials, ok / config.trials,
                             float(np.mean(rels)),
                             float(np.mean([r.iterations for r in results])),
                             sum(not r.converged for r in results),
                             sum(r.stop_reason == "certified_fail"
                                 for r in results)))
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
    2*eta/lambda bound per noise level, lambda = ``problem.noise_lambda(m)``:
    Gordon's prediction, so the bound is probabilistic, not certified, and
    inf where lambda is 0 (below Gordon's threshold, and for PhaseLift).
    """
    lam = config.problem.noise_lambda(m)
    etas = [float(eta) for eta in eta_grid]
    grid = _run_grid(config, [(m, eta) for eta in etas], index0=10_000)
    return [ErrorCurveRow(eta, float(np.mean([rel for _, rel in cells])),
                          deterministic_error_bound(eta, lam),
                          sum(not res.converged for res, _ in cells))
            for eta, cells in zip(etas, grid)]
