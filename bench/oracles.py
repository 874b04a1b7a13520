"""Correctness checks computed apart from the package.

Each recovery check takes one captured ``layers.Cell``; each estimator
check takes the estimator's return value and the reference computed
here from a closed form or from a separate numpy/scipy call.  A check
returns True when the output is consistent with its reference.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special
from scipy.optimize import brentq, linprog

TOL = 1e-6          # feasibility and objective tolerance of the checks


def rel_error(estimate, truth) -> float:
    """||estimate - truth|| / ||truth|| (Frobenius for matrices)."""
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))


def lp_min_l1(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """argmin ||x||_1 s.t. A x = y, as the HiGHS LP over x = u - v, u, v >= 0."""
    n = a.shape[1]
    res = linprog(np.ones(2 * n), A_eq=np.hstack([a, -a]), b_eq=y,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return res.x[:n] - res.x[n:]


def l1_cell_ok(cell, threshold: float) -> bool:
    """DR's success verdict equals the LP's; a converged DR objective is
    within TOL (relative) of the LP optimum."""
    res, truth = cell.result, cell.truth
    x_lp = lp_min_l1(cell.operator().rows, cell.y)
    lp_ok = rel_error(x_lp, truth) <= threshold
    dr_ok = res.converged and rel_error(res.estimate, truth) <= threshold
    if lp_ok != dr_ok:
        return False
    lp_opt = float(np.sum(np.abs(x_lp)))
    return not res.converged or abs(res.objective - lp_opt) <= TOL * lp_opt


def phaselift_cell_ok(cell, threshold: float) -> bool:
    """PSD, fits the data, trace at most that of the feasible xx^t, and
    close to xx^t."""
    est, truth = cell.result.estimate, cell.truth
    psi = cell.operator().vectors
    fitted = np.sum((psi @ est) * psi, axis=1)          # psi_i^t X psi_i
    scale = max(1.0, float(np.max(np.abs(cell.y))))
    norm_sq = float(np.trace(truth))                    # ||x||^2
    return (float(np.linalg.eigvalsh(est)[0]) >= -TOL * norm_sq
            and float(np.max(np.abs(fitted - cell.y))) <= TOL * scale
            and float(np.trace(est)) <= norm_sq + TOL * norm_sq
            and float(np.linalg.norm(est - truth)) / norm_sq <= threshold)


def lowrank_cell_ok(cell) -> bool:
    """The estimate lies in the noise ball and, the truth being feasible,
    its Schatten-1 norm does not exceed the truth's."""
    est, truth = cell.result.estimate, cell.truth
    residual = float(np.linalg.norm(cell.operator().rows @ est.ravel() - cell.y))
    nuc = float(np.sum(np.linalg.svd(est, compute_uv=False)))
    nuc_truth = float(np.sum(np.linalg.svd(truth, compute_uv=False)))
    return residual <= cell.eta * (1 + TOL) and nuc <= nuc_truth * (1 + TOL)


def sweep_counts_ok(rows, cells, threshold: float) -> bool:
    """Every row's success and non-convergence counts equal a recount of
    the captured cells (cells arrive in grid order, ``trials`` per row)."""
    i = 0
    for row in rows:
        block = cells[i:i + row.trials]
        i += row.trials
        ok = sum(c.result.converged and rel_error(c.result.estimate, c.truth)
                 <= threshold for c in block)
        nonconv = sum(not c.result.converged for c in block)
        if len(block) != row.trials or (ok, nonconv) != (row.successes,
                                                         row.nonconverged):
            return False
    return i == len(cells)


def curve_means_ok(rows, cells, trials: int) -> bool:
    """Every curve row's mean_error equals the mean recomputed from the
    captured estimates and truths of its ``trials`` cells."""
    if len(cells) != trials * len(rows):
        return False
    for k, row in enumerate(rows):
        block = cells[k * trials:(k + 1) * trials]
        mean = float(np.mean([rel_error(c.result.estimate, c.truth)
                              for c in block]))
        if not math.isclose(mean, row.mean_error, rel_tol=1e-12):
            return False
    return True


# ---------------------------------------------------------------------------
# estimator references

def _phi(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)


def _gauss_tail(t):
    return 0.5 * special.erfc(t / math.sqrt(2))


def almt_l1(s: int, d: int) -> float:
    """J* = inf_tau s(1+tau^2) + (d-s) 2 int_tau^inf (u-tau)^2 phi(u) du,
    the Amelunxen-Lotz-McCoy-Tropp bound on the statistical dimension of
    the l1 descent cone at an s-sparse point of R^d."""
    def j(t):
        tail = (1 + t * t) * _gauss_tail(t) - t * _phi(t)
        return s * (1 + t * t) + 2 * (d - s) * tail

    def dj(t):  # J'(t) / 2; increasing, negative at 0 when s < d
        return s * t - 2 * (d - s) * (_phi(t) - t * _gauss_tail(t))

    if s == d:
        return float(d)
    return j(brentq(dj, 0.0, 40.0, xtol=1e-14))


def l1_width_ok(est, s: int, d: int) -> bool:
    j = almt_l1(s, d)
    se = est.std_error
    return j - 2 * math.sqrt(d / s) - 3 * se <= est.value <= j + 3 * se


def s1_width_ok(est, r: int, d1: int, d2: int) -> bool:
    return est.value <= 3 * r * (d1 + d2 - r)


def chi_mean(k: int) -> float:
    """E ||g|| for g ~ N(0, I_k)."""
    return math.sqrt(2) * math.exp(special.gammaln((k + 1) / 2)
                                   - special.gammaln(k / 2))


def subspace_width_ok(est, k: int) -> bool:
    return abs(est.w_hat - chi_mean(k)) <= 4 * est.std_error


def tail_ok(est) -> bool:
    p = float(special.erfc(est.xi / math.sqrt(2)))
    return abs(est.q_mean - p) <= 4 * math.sqrt(p * (1 - p) / est.n_samples)


def bowling_ok(est, s: int, d: int) -> bool:
    return est.w_hat <= math.sqrt(almt_l1(s, d)) + 3 * est.std_error


def lambda_heuristic_ok(result, a: np.ndarray) -> bool:
    """An upper-bound heuristic over unit directions cannot fall below
    sigma_min(A) (needs m >= d)."""
    sigma_min = math.sqrt(max(float(np.linalg.eigvalsh(a.T @ a)[0]), 0.0))
    return result.value >= sigma_min * (1 - 1e-9)
