"""Convex recovery solvers.

Both programs -- norm minimization over a residual ball, and trace
minimization over the PSD cone with affine data constraints -- are solved
by Douglas-Rachford splitting between the regularizer's prox and an exact
projection onto the data-consistency set.  The ball projection reduces to
a 1-D root-find on the Lagrange multiplier in the eigenbasis of the Gram
matrix G = Phi Phi^*; the affine (eta = 0) projection is the pseudo-inverse
correction.  It needs only Phi, Phi^* and G, so both operator kinds share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

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


# eigh resolves the eigenvalues of G only to about m * eps * lambda_max;
# smaller ones are taken as zero (rank-deficient operator)
_EIG_CUT = 10.0 * np.finfo(float).eps


def _excess(mu: float, c: np.ndarray, lam: np.ndarray, offset: float) -> float:
    """Squared residual minus eta^2 after a shrink with multiplier mu."""
    return float(np.sum((c / (1.0 + mu * lam)) ** 2) + offset)


class _BallProjector:
    """Exact Euclidean projection onto {x : ||Phi x - y|| <= eta}: with
    G = Q diag(lam) Q^t and c = Q^t (Phi p - y), it is
    p - Phi^*(Q (mu c / (1 + mu lam))) for the multiplier mu >= 0."""

    def __init__(self, op: MeasurementOperator, y: np.ndarray, eta: float):
        self.op, self.y, self.eta = op, y, eta
        lam, q = np.linalg.eigh(gram(op))
        keep = lam > _EIG_CUT * op.m * np.max(lam, initial=0.0)
        self.lam, self.q = lam[keep], q[:, keep]
        y_perp = y - self.q @ (self.q.T @ y)  # part of y outside range(Phi)
        self.y_perp_sq = float(np.dot(y_perp, y_perp))
        ynorm = float(np.linalg.norm(y))
        self.infeasible = math.sqrt(self.y_perp_sq) > max(eta, 1e-10 * max(1.0, ynorm))

    def __call__(self, p: np.ndarray) -> np.ndarray:
        c = self.q.T @ (_forward(self.op, p) - self.y)  # range-space residual coords
        if self.eta == 0.0:
            return p - _adjoint(self.op, self.q @ (c / self.lam))
        args = (c, self.lam, self.y_perp_sq - self.eta ** 2)
        if _excess(0.0, *args) <= 0:
            return p
        hi = 1.0
        while _excess(hi, *args) > 0 and hi < 1e18:
            hi *= 4.0
        if _excess(hi, *args) > 0:
            mu = hi  # empty constraint set; best-effort shrink, flagged upstream
        else:
            mu = brentq(_excess, 0.0, hi, args=args, xtol=1e-14, rtol=1e-14)
        return p - _adjoint(self.op, self.q @ (mu * c / (1.0 + mu * self.lam)))


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


def extract_rank1(x_mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Top-eigenpair factorization of a PSD matrix.

    Returns (x, residual) with x = sqrt(lam_1) v_1, the sign fixed so the
    largest-magnitude entry of x is positive, and residual the relative
    Frobenius defect ||X - x x^t|| / ||X|| (zero for the zero matrix).
    """
    x_mat = np.asarray(x_mat, dtype=float)
    norm = np.linalg.norm(x_mat)
    if norm == 0.0:
        return np.zeros(x_mat.shape[0]), 0.0
    lam, vecs = np.linalg.eigh(0.5 * (x_mat + x_mat.T))
    top = max(float(lam[-1]), 0.0)
    x = math.sqrt(top) * vecs[:, -1]
    if x[np.argmax(np.abs(x))] < 0:
        x = -x
    residual = float(np.linalg.norm(x_mat - np.outer(x, x)) / norm)
    return x, residual
