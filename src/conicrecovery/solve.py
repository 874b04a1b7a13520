"""Convex recovery solvers.

Both programs -- norm minimization over a residual ball, and trace
minimization over the PSD cone with affine data constraints -- are solved
by Douglas-Rachford splitting between the regularizer's prox and an exact
projection onto the data-consistency set.  In the eigenbasis of the Gram
matrix G = Phi Phi^*, the ball projection's Lagrange multiplier solves a
trust-region secular equation, which warm-started Newton solves in a few
steps; the affine (eta = 0) projection is the pseudo-inverse correction.  It
needs only Phi, Phi^* and G, so both operator kinds share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# bench/layers.py times its solve.rootfind layer through this name
from scipy.optimize import brentq  # noqa: F401

from .measure import MeasurementOperator, OperatorKind, _adjoint, _forward, gram
from .reg import Regularizer, TracePSD


@dataclass(frozen=True)
class SolverOptions:
    """``max_iters`` caps the DR iterations.  ``tol`` is the relative
    stopping tolerance: a solve converges once both the DR step ||v - x||
    and the constraint violation of the prox iterate v are at most
    ``tol * scale``, with scale = max(1, ||y||) (max(1, max |y_i|) for
    PhaseLift)."""

    max_iters: int = 20_000
    tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class RecoveryResult:
    estimate: np.ndarray
    objective: float
    residual_norm: float
    iterations: int
    converged: bool
    infeasible: bool = False

    @property
    def stop_reason(self) -> str:
        """Why the solve stopped: ``infeasible`` (the data-consistency set
        is empty), ``converged`` or ``max_iters``."""
        if self.infeasible:
            return "infeasible"
        return "converged" if self.converged else "max_iters"


# eigh resolves the eigenvalues of G only to about m * eps * lambda_max;
# smaller ones are taken as zero (rank-deficient operator)
_EIG_CUT = 10.0 * np.finfo(float).eps
# Newton converges in 2-3 steps from a warm start; the cap only bounds a
# stall at rounding level
_NEWTON_MAX_STEPS = 100


class _BallProjector:
    """Exact Euclidean projection onto {x : ||Phi x - y|| <= eta}: with
    G = Q diag(lam) Q^t and c = Q^t (Phi p - y), it is
    p - Phi^*(Q (mu c / (1 + mu lam))) for the multiplier mu >= 0.

    mu solves the trust-region secular equation ||r(mu)|| = delta, with
    r(mu) = c / (1 + mu lam) and delta^2 = eta^2 - ||y_perp||^2 (More and
    Sorensen, 1983).  psi(mu) = 1/||r(mu)|| - 1/delta is concave and
    increasing, so Newton on psi, clamped at 0, steps from the right of the
    root to its left and from there rises to it monotonically.  Each call
    starts from the previous call's multiplier; the projector lives for one
    solve, so solves stay deterministic.  When delta^2 <= 0 (eta = 0, or an
    empty set) the projection is the mu -> infinity limit, the
    pseudo-inverse correction p - Phi^*(Q (c / lam)).
    """

    def __init__(self, op: MeasurementOperator, y: np.ndarray, eta: float):
        self.op, self.y = op, y
        lam, q = np.linalg.eigh(gram(op))
        keep = lam > _EIG_CUT * op.m * np.max(lam, initial=0.0)
        self.lam, self.q = lam[keep], q[:, keep]
        y_perp = y - self.q @ (self.q.T @ y)  # part of y outside range(Phi)
        y_perp_sq = float(np.dot(y_perp, y_perp))
        ynorm = float(np.linalg.norm(y))
        self.infeasible = math.sqrt(y_perp_sq) > max(eta, 1e-10 * max(1.0, ynorm))
        self.delta_sq = max(eta ** 2 - y_perp_sq, 0.0)
        self.mu = 0.0  # warm start for the next secular solve

    def __call__(self, p: np.ndarray) -> np.ndarray:
        c = self.q.T @ (_forward(self.op, p) - self.y)  # range-space residual coords
        if self.delta_sq == 0.0:
            return p - _adjoint(self.op, self.q @ (c / self.lam))
        if np.dot(c, c) <= self.delta_sq:
            return p
        mu = self._secular_root(c)
        return p - _adjoint(self.op, self.q @ (mu * c / (1.0 + mu * self.lam)))

    def _secular_root(self, c: np.ndarray) -> float:
        """Newton on psi from the last multiplier; needs ||c||^2 > delta^2."""
        lam, mu = self.lam, self.mu
        delta = math.sqrt(self.delta_sq)
        for _ in range(_NEWTON_MAX_STEPS):
            shrink = 1.0 + mu * lam
            r = c / shrink
            rr = float(r @ r)
            # -psi / psi' = (||r|| / delta - 1) ||r||^2 / sum(r_i^2 lam_i / shrink_i)
            step = (math.sqrt(rr) / delta - 1.0) * rr / float(r @ (r * lam / shrink))
            new = max(mu + step, 0.0)
            done = abs(new - mu) <= 1e-14 * max(mu, 1.0)
            mu = new
            if done:
                break
        self.mu = mu
        return mu


def _douglas_rachford(f: Regularizer, proj: _BallProjector, shape, scale: float,
                      opts: SolverOptions, feas_fn):
    """DR iteration on f + indicator(C) over flat signals of the given shape;
    returns (x_feas, v_prox, iters, conv), never converged when C is empty.

    ``feas_fn(v)`` measures the constraint violation of the prox iterate,
    used with the primal residual ||v - x|| for stopping.
    """
    w = np.zeros(math.prod(shape))
    x = v = w
    converged = False
    it = 0
    gate = opts.tol * scale
    for it in range(1, opts.max_iters + 1):
        x = proj(w)
        v = f.prox((2.0 * x - w).reshape(shape), 1.0).ravel()
        step = v - x
        w = w + step
        if it % 10 == 0 or it == opts.max_iters:
            if np.linalg.norm(step) <= gate and feas_fn(v) <= gate:
                converged = True
                break
    return x, v, it, converged and not proj.infeasible


def recover_constrained(f: Regularizer, op: MeasurementOperator,
                        y: np.ndarray, eta: float,
                        opts: SolverOptions | None = None) -> RecoveryResult:
    """Minimize f(x) subject to ||Phi x - y|| <= eta."""
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    opts = opts or SolverOptions()
    if op.kind is not OperatorKind.DENSE:
        raise ValueError("constrained recovery needs a dense operator; "
                         "use phase_retrieval_sdp for lifted ensembles")
    y = np.asarray(y, dtype=float)
    proj = _BallProjector(op, y, eta)
    shape = op.signal_shape
    scale = max(1.0, float(np.linalg.norm(y)))

    def feas(vflat):
        return max(0.0, float(np.linalg.norm(_forward(op, vflat) - y)) - eta)

    x, v, iters, converged = _douglas_rachford(f, proj, shape, scale, opts, feas)
    estimate = x.reshape(shape)  # projection output: feasible by construction
    residual = float(np.linalg.norm(_forward(op, x) - y))
    return RecoveryResult(estimate, f.value(estimate), residual, iters,
                          converged, infeasible=proj.infeasible)


def phase_retrieval_sdp(op: MeasurementOperator, y: np.ndarray,
                        opts: SolverOptions | None = None) -> RecoveryResult:
    """Minimize trace(X) over PSD X with trace(X Psi_i) = y_i.

    The estimate returned is the PSD prox iterate; its per-measurement
    violation max_i |trace(X Psi_i) - y_i| is reported as the residual.
    """
    if op.kind is not OperatorKind.LIFTED:
        raise ValueError("phase retrieval needs a lifted rank-one operator")
    y = np.asarray(y, dtype=float)
    if y.shape != (op.m,):
        raise ValueError("measurement vector length mismatch")
    if np.any(y < -1e-10):
        raise ValueError("phase retrieval measurements are magnitudes (y >= 0)")
    opts = opts or SolverOptions()
    d = op.signal_shape[0]
    proj = _BallProjector(op, y, 0.0)
    scale = max(1.0, float(np.max(np.abs(y))))

    def feas(vflat):
        return float(np.max(np.abs(_forward(op, vflat) - y))) if op.m else 0.0

    x, v, iters, converged = _douglas_rachford(
        TracePSD(d=d), proj, (d, d), scale, opts, feas)
    estimate = v.reshape(d, d)   # prox output: PSD by construction
    estimate = 0.5 * (estimate + estimate.T)
    violation = float(np.max(np.abs(_forward(op, estimate.ravel()) - y)))
    return RecoveryResult(estimate, float(np.trace(estimate)), violation,
                          iters, converged, infeasible=proj.infeasible)

