"""Declarative experiments: phase-transition sweeps, error-vs-noise curves,
and CSV emission.

Every (m, trial) cell gets its own derived Philox stream, so sweeps are
reproducible byte-for-byte from (config, seed) and cells could run in any
order; reduction happens in index order.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import measure, solve, width
from .reg import L1Norm, Schatten1Norm
from .rng import generator


@dataclass(frozen=True)
class SparseL1:
    s: int
    d: int


@dataclass(frozen=True)
class LowRankS1:
    r: int
    d1: int
    d2: int


@dataclass(frozen=True)
class PhaseRetrieval:
    d: int


Problem = SparseL1 | LowRankS1 | PhaseRetrieval


@dataclass(frozen=True)
class ExperimentConfig:
    problem: Problem
    m_grid: tuple[int, ...]
    trials: int = 25
    eta: float = 0.0
    success_threshold: float = 1e-4
    seed: int = 0
    margin: float = 3.0         # C in the sample-complexity threshold
    solver: solve.SolverOptions = field(default_factory=solve.SolverOptions)

    def __post_init__(self):
        grid = tuple(int(m) for m in self.m_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("m_grid must be strictly increasing")
        if not grid:
            object.__setattr__(self, "m_grid", ())
        else:
            object.__setattr__(self, "m_grid", grid)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")

    def digest(self) -> str:
        blob = json.dumps({
            "problem": [type(self.problem).__name__, asdict(self.problem)],
            "m_grid": list(self.m_grid), "trials": self.trials,
            "eta": self.eta, "success_threshold": self.success_threshold,
            "seed": self.seed, "margin": self.margin,
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
# instance generation

def _draw_signal(problem: Problem, rng: np.random.Generator) -> np.ndarray:
    if isinstance(problem, SparseL1):
        x = np.zeros(problem.d)
        support = rng.choice(problem.d, size=problem.s, replace=False)
        x[support] = rng.choice([-1.0, 1.0], size=problem.s)
        return x
    if isinstance(problem, LowRankS1):
        g1 = rng.standard_normal((problem.d1, problem.r))
        g2 = rng.standard_normal((problem.d2, problem.r))
        return g1 @ g2.T
    if isinstance(problem, PhaseRetrieval):
        x = rng.standard_normal(problem.d)
        return x / np.linalg.norm(x)
    raise TypeError(f"unknown problem: {problem!r}")


def _predicted_width_sq(problem: Problem) -> float:
    if isinstance(problem, SparseL1):
        return width.sparse_width_bound(problem.s, problem.d)
    if isinstance(problem, LowRankS1):
        return width.rank_width_bound(problem.r, problem.d1, problem.d2)
    # phase retrieval: the width bound scales like d; no closed-form constant
    return float(problem.d)


def _cell_seed(root: int, m_index: int, trial: int) -> int:
    # stable per-cell seed derivation independent of evaluation order
    h = hashlib.sha256(f"{root}:{m_index}:{trial}".encode()).digest()
    return int.from_bytes(h[:8], "little")


def _run_cell(problem: Problem, m: int, cell_seed: int, eta: float,
              threshold: float, opts: solve.SolverOptions):
    """Solve one instance; returns (success, rel_error, iters, converged)."""
    rng = generator(cell_seed)
    x_true = _draw_signal(problem, rng)
    op_seed = int(rng.integers(0, 2 ** 62))
    noise_seed = int(rng.integers(0, 2 ** 62))

    if isinstance(problem, PhaseRetrieval):
        op = measure.lifted_phase_ensemble(m, problem.d, seed=op_seed)
        x_lift = np.outer(x_true, x_true)
        y = measure.apply(op, x_lift)
        res = solve.phase_retrieval_sdp(op, y, opts)
        rel = float(np.linalg.norm(res.estimate - x_lift)
                    / np.linalg.norm(x_true) ** 2)
    else:
        if isinstance(problem, SparseL1):
            op = measure.gaussian_ensemble(m, problem.d, seed=op_seed)
            f = L1Norm(d=problem.d)
        else:
            op = measure.gaussian_matrix_ensemble(m, problem.d1, problem.d2,
                                                  seed=op_seed)
            f = Schatten1Norm(shape=(problem.d1, problem.d2))
        y = measure.measure_with_noise(op, x_true, noise_norm=eta,
                                       seed=noise_seed)
        res = solve.recover_constrained(f, op, y, eta, opts)
        rel = float(np.linalg.norm(res.estimate - x_true)
                    / np.linalg.norm(x_true))
    success = res.converged and rel <= threshold
    return success, rel, res.iterations, res.converged


def run_phase_transition(config: ExperimentConfig) -> SweepResult:
    """Sweep the measurement count and tally recovery successes per m."""
    rows = []
    for mi, m in enumerate(config.m_grid):
        successes = 0
        nonconv = 0
        rels = []
        iters = []
        for trial in range(config.trials):
            ok, rel, its, conv = _run_cell(
                config.problem, m, _cell_seed(config.seed, mi, trial),
                config.eta, config.success_threshold, config.solver)
            successes += ok
            nonconv += not conv
            rels.append(rel)
            iters.append(its)
        rows.append(SweepRow(m, successes, config.trials,
                             successes / config.trials,
                             float(np.mean(rels)), float(np.mean(iters)),
                             nonconv))
    w_sq = _predicted_width_sq(config.problem)
    m_pred = width.sample_complexity_gaussian(math.sqrt(w_sq), config.margin)
    return SweepResult(tuple(rows), config.digest(), config.seed, w_sq, m_pred)


# ---------------------------------------------------------------------------
# error-vs-noise curves

@dataclass(frozen=True)
class ErrorCurveRow:
    eta: float
    mean_error: float
    bound: float
    violations: int    # observed error above a certified bound
    nonconverged: int  # trials whose solve stopped unconverged


def run_error_curve(config: ExperimentConfig, eta_grid, m: int,
                    lambda_hat: float | None = None,
                    lambda_certified: bool = False,
                    t: float = 2.0) -> list[ErrorCurveRow]:
    """Mean observed error over all trials, converged or not, and the
    2*eta/lambda bound per noise level.

    When ``lambda_hat`` is omitted, the Gordon prediction
    sqrt(m-1) - w - t with the closed-form width bound stands in (then the
    bound is probabilistic, not certified).
    """
    if lambda_hat is None:
        w = math.sqrt(_predicted_width_sq(config.problem))
        lambda_hat = max(width.gordon_lower_bound(m, w, t), 0.0)
        lambda_certified = False
    rows = []
    for ei, eta in enumerate(eta_grid):
        errors = []
        nonconv = 0
        for trial in range(config.trials):
            _, rel, _, conv = _run_cell(
                config.problem, m, _cell_seed(config.seed, 10_000 + ei, trial),
                float(eta), config.success_threshold, config.solver)
            errors.append(rel)
            nonconv += not conv
        bound = (2.0 * float(eta) / lambda_hat if lambda_hat > 0
                 else float("inf"))
        mean_err = float(np.mean(errors))
        violations = (sum(e > bound + 1e-12 for e in errors)
                      if lambda_certified else 0)
        rows.append(ErrorCurveRow(float(eta), mean_err, bound, violations,
                                  nonconv))
    return rows


# ---------------------------------------------------------------------------
# CSV emission

def emit_csv(result: SweepResult, path_or_file) -> None:
    """Write a sweep as RFC-4180 CSV with '#' metadata comment lines.

    Output is deterministic: no timestamps, rows in grid order.
    """
    own = isinstance(path_or_file, str)
    fh = open(path_or_file, "w", newline="") if own else path_or_file
    try:
        fh.write(f"# config_digest={result.config_digest} seed={result.seed} "
                 f"predicted_width_sq={result.predicted_width_sq:.6f} "
                 f"predicted_m={result.predicted_m}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["m", "successes", "trials", "success_rate",
                         "mean_rel_error", "mean_solve_iters", "nonconverged"])
        for row in result.rows:
            writer.writerow([row.m, row.successes, row.trials,
                             f"{row.success_rate:.6f}",
                             f"{row.mean_rel_error:.6e}",
                             f"{row.mean_solve_iters:.1f}",
                             row.nonconverged])
    except OSError as exc:
        raise OSError(f"failed writing sweep CSV to {path_or_file!r}: {exc}") from exc
    finally:
        if own:
            fh.close()


def sweep_csv_text(result: SweepResult) -> str:
    buf = io.StringIO()
    emit_csv(result, buf)
    return buf.getvalue()
