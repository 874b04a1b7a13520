"""Convex recovery solvers.

Both programs -- norm minimization over a residual ball, and trace
minimization over the PSD cone with affine data constraints -- are solved
by Douglas-Rachford splitting between the regularizer's prox and an exact
projection onto the data-consistency set.  In the eigenbasis of the Gram
matrix G = Phi Phi^*, the ball projection's Lagrange multiplier solves a
trust-region secular equation, which warm-started Newton solves in a few
steps; the affine (eta = 0) projection is the pseudo-inverse correction.  It
needs only Phi, Phi^* and G, so both operator kinds share it.  A dense
operator at eta = 0 applies the pseudo-inverse Phi^+ as one n x m matrix,
built once from the same eigendecomposition of G; a lifted operator never
forms it (it would be the m x d^2 design), so its projector keeps O(md)
memory.  Norm minimization takes the prox step 0.2 * eta, a fixed fraction
of the noise level, and 1 at eta = 0 (see ``recover_constrained``); trace
minimization takes 0.3 * mean(y), a fixed fraction of the trace that the
data imply (see ``phase_retrieval_sdp``).

The projector owns a solve's data y and eta and its misfit norm (max |.| for
PhaseLift), which scales the stopping gate and measures the residual.  Its
infeasibility test ||y_perp|| > max(eta, 1e-10 ||y||) has no absolute floor.

The DR loop owns its iterate w, the reflection 2x - w and the step v - x:
it allocates them once per solve and updates them in place.  The projector
and the prox return fresh arrays and never their input, so an in-place
update cannot reach the x and v they returned.
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
    ``tol * scale``, scale = the misfit norm of y (||y||, max |y_i| for
    PhaseLift), or 1 when y = 0: relative at every signal scale."""

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
# PhaseLift's DR prox step, as a fraction of the trace scale mean(y)
_TRACE_STEP = 0.3
# the norm problems' DR prox step at eta > 0, as a fraction of eta
_BALL_STEP = 0.2


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
    pseudo-inverse correction p - Phi^+ (Phi p - y) with
    Phi^+ = Phi^* Q diag(1/lam) Q^t.  For a dense operator Phi^+ is built
    once here, an n x m matrix the size of Phi, from the same eigenvectors
    and keep mask, so a projection costs two matrix-vector products; a
    lifted operator applies Phi, Q^t, Q and Phi^* in turn.  ``misfit(v)`` is
    norm(Phi v - y) in the solve's norm; ``scale`` = norm(y) or 1 sets the gate.
    """

    def __init__(self, op: MeasurementOperator, y: np.ndarray, eta: float,
                 norm=np.linalg.norm):
        y = np.asarray(y, dtype=float)
        if y.shape != (op.m,):
            raise ValueError("measurement vector length mismatch")
        if eta < 0:
            raise ValueError("eta must be nonnegative")
        self.op, self.y, self.eta, self.norm = op, y, eta, norm
        self.scale = float(norm(y)) or 1.0
        lam, q = np.linalg.eigh(gram(op))
        keep = lam > _EIG_CUT * op.m * np.max(lam, initial=0.0)
        self.lam, self.q = lam[keep], q[:, keep]
        y_perp = y - self.q @ (self.q.T @ y)  # part of y outside range(Phi)
        y_perp_sq = float(np.dot(y_perp, y_perp))
        self.infeasible = (math.sqrt(y_perp_sq)
                           > max(eta, 1e-10 * float(np.linalg.norm(y))))
        self.delta_sq = max(eta ** 2 - y_perp_sq, 0.0)
        self.mu = 0.0  # warm start for the next secular solve
        self.pinv = None
        if self.delta_sq == 0.0 and op.kind is OperatorKind.DENSE:
            self.pinv = (op.rows.T @ (self.q / self.lam)) @ self.q.T

    def __call__(self, p: np.ndarray) -> np.ndarray:
        if self.pinv is not None:  # .dot: the same gemv as @, dispatched faster
            return p - self.pinv.dot(self.op.rows.dot(p) - self.y)
        c = self.q.T @ (_forward(self.op, p) - self.y)  # range-space residual coords
        if self.delta_sq == 0.0:
            return p - _adjoint(self.op, self.q @ (c / self.lam))
        if np.dot(c, c) <= self.delta_sq:
            return p.copy()
        mu = self._secular_root(c)
        return p - _adjoint(self.op, self.q @ (mu * c / (1.0 + mu * self.lam)))

    def misfit(self, v: np.ndarray) -> float:
        return float(self.norm(_forward(self.op, v.ravel()) - self.y))

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


def _douglas_rachford(f: Regularizer, proj: _BallProjector,
                      opts: SolverOptions, gamma: float):
    """DR iteration on gamma * f + indicator(C) over flat signals of shape
    ``proj.op.signal_shape``, with prox step gamma > 0; returns (x_feas,
    v_prox, iters, conv), never converged when C is empty.

    It stops once the primal residual ||v - x|| and the prox iterate's
    constraint violation ``proj.misfit(v) - proj.eta`` are both at most
    ``opts.tol * proj.scale``.

    The loop owns the DR point w, the reflection z = 2x - w and the step
    v - x: it allocates them once and updates them in place.  The
    projector and the prox return fresh arrays, so x and v never alias
    them.
    """
    shape = proj.op.signal_shape
    n = math.prod(shape)
    w, z, step = np.zeros(n), np.empty(n), np.empty(n)
    z_signal = z.reshape(shape)  # a view: the prox reads z as a signal
    x = v = w
    converged = False
    it = 0
    gate = opts.tol * proj.scale
    for it in range(1, opts.max_iters + 1):
        x = proj(w)
        np.multiply(x, 2.0, out=z)
        z -= w
        v = f.prox(z_signal, gamma).ravel()
        np.subtract(v, x, out=step)
        w += step
        if it % 10 == 0 or it == opts.max_iters:
            if (np.linalg.norm(step) <= gate
                    and proj.misfit(v) - proj.eta <= gate):
                converged = True
                break
    return x, v, it, converged and not proj.infeasible


def recover_constrained(f: Regularizer, op: MeasurementOperator,
                        y: np.ndarray, eta: float,
                        opts: SolverOptions | None = None) -> RecoveryResult:
    """Minimize f(x) subject to ||Phi x - y|| <= eta.

    For eta > 0, DR runs on gamma * f + indicator(ball) with
    gamma = 0.2 * eta; at eta = 0 it keeps gamma = 1.  f is a norm, so
    prox_{gamma f}(c z) = c prox_{(gamma / c) f}(z) for c > 0: scaling
    (y, eta) by c scales the ball, the solution, the step and, by
    induction from w = 0, every DR iterate by c, and the stopping gate
    scales with ||y||, so an eta > 0 solve takes the same iterations at
    every data scale.  A fixed gamma = 1 is a different step relative to
    the data at each scale.  Measured on the 60 cells of the Schatten-1
    8 x 8 rank-1 error curve at m = 55, eta in {0.1, 0.3, 1.0} (seed 1),
    against a reference solve at tol 1e-13:

        step           DR iterations   max deviation / ||x||
        gamma = 1             90,570   9.0e-8
        0.1 * eta              9,390   2.5e-7
        0.2 * eta              7,730   8.0e-8
        0.5 * eta             11,900   8.8e-8

    Too small a step (0.1 * eta) stops farther from the solution at the
    same tolerance.  At eta = 0 the set is affine, with no length scale
    of its own; gamma = 1 is kept there, so the eta = 0 iteration count
    still depends on the scale of y.
    """
    opts = opts or SolverOptions()
    if op.kind is not OperatorKind.DENSE:
        raise ValueError("constrained recovery needs a dense operator; "
                         "use phase_retrieval_sdp for lifted ensembles")
    proj = _BallProjector(op, y, eta)
    gamma = _BALL_STEP * eta if eta > 0 else 1.0
    x, v, iters, converged = _douglas_rachford(f, proj, opts, gamma)
    estimate = x.reshape(op.signal_shape)  # projection output: feasible
    return RecoveryResult(estimate, f.value(estimate), proj.misfit(estimate),
                          iters, converged, infeasible=proj.infeasible)


def phase_retrieval_sdp(op: MeasurementOperator, y: np.ndarray,
                        opts: SolverOptions | None = None) -> RecoveryResult:
    """Minimize trace(X) over PSD X with trace(X Psi_i) = y_i.

    The estimate returned is the PSD prox iterate; its per-measurement
    violation max_i |trace(X Psi_i) - y_i| is reported as the residual.

    DR runs on gamma * (trace + PSD indicator) with gamma = 0.3 * mean(y)
    (gamma = 1 when y = 0, whose solution X = 0 is reached at once).  The
    prox shifts the spectrum down by gamma, so gamma is measured in units
    of trace(X).  Scaling y by c > 0 scales the affine set, the solution
    and, with gamma proportional to y, every DR iterate by c, so the
    iteration count does not depend on the signal's norm (the stopping
    gate scales with max y_i too).  For Gaussian sampling vectors
    E[y_i] = E[(psi_i^t x)^2] = ||x||^2 = trace(x x^t), so mean(y) is the
    data's estimate of trace(X).  A fixed gamma = 1 is the
    whole trace of a unit signal.  Measured on unit signals, fractions 0.2
    to 0.5 of mean(y) take 2 to 2.6 times fewer DR iterations than
    gamma = 1 at d = 48, m = 6d to 8d, and converge in more near-threshold
    cells at d = 8 and 16; 0.3 took the fewest iterations in the d = 8 rows
    at m = 14 to 20 and was within 10% of the fewest (0.4) at d = 48.
    """
    if op.kind is not OperatorKind.LIFTED:
        raise ValueError("phase retrieval needs a lifted rank-one operator")
    proj = _BallProjector(op, y, 0.0, lambda r: np.max(np.abs(r), initial=0.0))
    if np.any(proj.y < -1e-10):
        raise ValueError("phase retrieval measurements are magnitudes (y >= 0)")
    opts = opts or SolverOptions()
    mean_y = float(np.mean(proj.y))
    gamma = _TRACE_STEP * mean_y if mean_y > 0 else 1.0
    x, v, iters, converged = _douglas_rachford(TracePSD(), proj, opts, gamma)
    estimate = v.reshape(op.signal_shape)   # prox output: PSD by construction
    estimate = 0.5 * (estimate + estimate.T)
    return RecoveryResult(estimate, float(np.trace(estimate)),
                          proj.misfit(estimate), iters, converged,
                          infeasible=proj.infeasible)

