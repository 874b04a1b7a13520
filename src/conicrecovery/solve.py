"""Convex recovery solvers.

Both programs -- norm minimization, and trace minimization over the PSD
cone, each over the residual ball ||Phi x - y|| <= eta -- are solved by
Douglas-Rachford splitting between the regularizer's prox and an exact
projection onto the data-consistency set.  In the eigenbasis of the Gram
matrix G = Phi Phi^*, the ball projection's Lagrange multiplier solves a
trust-region secular equation, which warm-started Newton solves in a few
steps.  The affine (eta = 0) projection is the pseudo-inverse correction
p - Phi^* G^-1 (Phi p - y).  It needs G^-1, not the spectrum, so for both
operator kinds it factors G by Cholesky (LAPACK dpotrf), wherever dpocon's
reciprocal condition estimate exceeds the eigh cut ``_EIG_CUT * m``, that
is where eigh would keep every eigenvalue.  A dense operator then builds
Phi^+ = (G^-1 Phi)^t once (dpotrs), an n x m matrix the size of Phi,
applied with one matrix-vector product; a lifted one never forms Phi^+
(it would be the m x d^2 design), keeps G^-1 (dpotri) and O(md) memory.
A singular or ill-conditioned G (m > n, or lifted m > d(d+1)/2, among
them) takes the eigenbasis of G instead, as does every eta > 0 projector,
whose secular equation needs the spectrum.  Both routes factor G, so both
square the condition number of Phi.  A PhaseLift DR step applies Phi and
Phi^* once each and the PSD prox, which computes only the eigenpairs above
the step (``reg.TracePSD``): near the rank-one solution that is one pair
of the d x d iterate, not a full eigendecomposition.  Every DR solve takes
its prox step by one rule, chosen by the loop (``_douglas_rachford``):
gamma = 0.2 * eta at eta > 0, and 0.3 * mean|y_i| at eta = 0 (1 when
y = 0), so a solve takes the same iterations at every data scale.

The projector owns a solve's data y and eta; ||y|| scales the stopping gate
and ||Phi x - y|| is the residual.  It refuses a non-finite y before any
iteration.  Its infeasibility test ||y_perp|| > max(eta, 1e-10 ||y||) has
no absolute floor.

The DR loop owns its iterate w, the reflection 2x - w and the step v - x:
it allocates them once per solve and updates them in place.  The projector
and the prox return fresh arrays and never their input, so an in-place
update cannot reach the x and v they returned.

A DR solve takes a damped type-II Anderson step over its last 10 steps,
guarded against a residual growth (``_douglas_rachford``): from iteration
1,000 at eta = 0, so only the slow solves take it and the rest keep the
plain step bit for bit, and from the first at eta > 0, over a ball, where
the unguarded step diverged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# bench/layers.py times its solve.rootfind layer through this name
from scipy.optimize import brentq  # noqa: F401
from scipy.linalg import blas, lapack

from .measure import (MeasurementOperator, OperatorKind, _adjoint, _forward,
                      as_int, check_eta, gram)
from .reg import Regularizer, TracePSD


@dataclass(frozen=True)
class SolverOptions:
    """``max_iters`` caps the DR iterations.  ``tol`` is the relative
    stopping tolerance: a solve converges once both the DR step ||v - x||
    and the constraint violation of the prox iterate v are at most
    ``tol * scale``, scale = ||y||, or 1 when y = 0: relative at every
    signal scale.  A bool or fractional ``max_iters`` and a non-finite
    ``tol`` are refused: at tol = inf every solve would stop at its first
    check, and at NaN none would converge."""

    max_iters: int = 20_000
    tol: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "max_iters",
                           as_int(self.max_iters, "max_iters"))
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")


@dataclass(frozen=True)
class RecoveryResult:
    """``stop_reason`` says why the solve stopped: ``"infeasible"`` (the
    data-consistency set is empty), ``"converged"``, ``"certified_fail"``
    (a feasible iterate fell below the caller's floor on f) or
    ``"max_iters"``."""

    estimate: np.ndarray
    objective: float
    residual_norm: float
    iterations: int
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


# eigh resolves the eigenvalues of G only to about m * eps * lambda_max;
# smaller ones are taken as zero (rank-deficient operator)
_EIG_CUT = 10.0 * np.finfo(float).eps
# Newton converges in 2-3 steps from a warm start; the cap only bounds a
# stall at rounding level
_NEWTON_MAX_STEPS = 100
# Newton stops once its step is at most this times max(mu, 1); see
# _BallProjector._secular_root
_NEWTON_STOP = 1e-10
# eta = 0 DR solves take Anderson steps from this iteration on (eta > 0
# ones from the first), over the differences of the last _ANDERSON_MEMORY
# steps, damped by _ANDERSON_DAMPING ||g||^2, and reject one whose next
# residual exceeds _ANDERSON_GUARD times the solve's smallest; see _Anderson
# and _douglas_rachford
_ANDERSON_START = 1_000
_ANDERSON_MEMORY = 10
_ANDERSON_DAMPING = 1e-5
_ANDERSON_GUARD = 2.0
# every DR solve's prox step: _BALL_STEP * eta at eta > 0, and
# _DATA_STEP * mean|y_i| at eta = 0; see _douglas_rachford
_BALL_STEP = 0.2
_DATA_STEP = 0.3


def _gram_factor(g: np.ndarray) -> np.ndarray | None:
    """The lower Cholesky factor of G, in one Fortran-ordered m x m array
    (the upper triangle is left over); None unless G is positive definite
    with LAPACK's reciprocal condition estimate above the eigh cut, where
    eigh would have kept every eigenvalue."""
    chol, info = lapack.dpotrf(g, lower=1, clean=0)  # a Fortran-ordered copy
    if info != 0:
        return None
    rcond, info = lapack.dpocon(chol, float(np.linalg.norm(g, 1)), uplo="L")
    return chol if info == 0 and rcond > _EIG_CUT * g.shape[0] else None


class _BallProjector:
    """Exact Euclidean projection onto {x : ||Phi x - y|| <= eta}.

    At eta = 0, wherever ``_gram_factor`` factors G, the data are always
    consistent and the projection is p - Phi^+ (Phi p - y) with
    Phi^+ = Phi^* G^-1: a dense projector stores Phi^+ = (G^-1 Phi)^t,
    n x m, and applies it with one matrix-vector product; a lifted one
    applies Phi, G^-1 (one ``dsymv`` on the lower triangle that LAPACK
    returns) and Phi^*.

    Otherwise, with G = Q diag(lam) Q^t over the eigenvalues above the cut
    and c = Q^t (Phi p - y), it is p - Phi^*(Q (mu c / (1 + mu lam))) for
    the multiplier mu >= 0, which solves the trust-region secular equation
    ||r(mu)|| = delta, with r(mu) = c / (1 + mu lam) and
    delta^2 = eta^2 - ||y_perp||^2 (More and Sorensen, 1983).
    psi(mu) = 1/||r(mu)|| - 1/delta is concave and increasing, so Newton on
    psi, clamped at 0, steps from the right of the root to its left and
    from there rises to it monotonically.  Each call starts from the
    previous call's multiplier; the projector lives for one solve, so
    solves stay deterministic.  When delta^2 <= 0 (eta = 0, or an empty
    set) the projection is the mu -> infinity limit, with
    Phi^+ = Phi^* Q diag(1/lam) Q^t, which a dense projector builds once.
    At delta^2 > 0 a dense projector stores B = Q^t Phi instead, k x n, and
    applies the correction as p - B^t (mu c / (1 + mu lam)).  A lifted
    projector applies Phi, Q^t, Q and Phi^* in turn.  ``misfit(v)`` is
    ||Phi v - y||; ``scale`` = ||y||, or 1 when y = 0, sets the gate.
    """

    def __init__(self, op: MeasurementOperator, y: np.ndarray, eta: float):
        y = np.asarray(y, dtype=float)
        if y.shape != (op.m,):
            raise ValueError("measurement vector length mismatch")
        check_eta(eta)  # first: an infinite eta's noise makes y infinite
        if not np.isfinite(y).all():
            raise ValueError("measurement vector must be finite")
        self.op, self.y, self.eta = op, y, eta
        self.scale = float(np.linalg.norm(y)) or 1.0
        self.mu = 0.0  # warm start for the next secular solve
        self.pinv = self.ginv = self.qt_rows = None
        g = gram(op)
        chol = _gram_factor(g) if eta == 0.0 else None  # g stays intact
        if chol is not None:  # G is invertible: range(Phi) is all of R^m
            self.infeasible, self.delta_sq = False, 0.0
            if op.kind is OperatorKind.DENSE:  # Phi^+ = (G^-1 Phi)^t
                self.pinv = lapack.dpotrs(chol, op.rows, lower=1)[0].T
            else:  # dpotrf succeeded, so dpotri cannot fail
                self.ginv = lapack.dpotri(chol, lower=1, overwrite_c=1)[0]
            return
        lam, q = np.linalg.eigh(g)
        keep = lam > _EIG_CUT * op.m * np.max(lam, initial=0.0)
        self.lam, self.q = lam[keep], q[:, keep]
        y_perp = y - self.q @ (self.q.T @ y)  # part of y outside range(Phi)
        y_perp_sq = float(np.dot(y_perp, y_perp))
        self.infeasible = (math.sqrt(y_perp_sq)
                           > max(eta, 1e-10 * self.scale))
        self.delta_sq = max(eta ** 2 - y_perp_sq, 0.0)
        if op.kind is not OperatorKind.DENSE:
            return
        if self.delta_sq == 0.0:
            self.pinv = (op.rows.T @ (self.q / self.lam)) @ self.q.T
        else:
            self.qt_rows = self.q.T @ op.rows  # k x n: no larger than Phi

    def __call__(self, p: np.ndarray) -> np.ndarray:
        if self.pinv is not None:  # .dot: the same gemv as @, dispatched faster
            return p - self.pinv.dot(self.op.rows.dot(p) - self.y)
        if self.ginv is not None:
            r = _forward(self.op, p) - self.y
            return p - _adjoint(self.op, blas.dsymv(1.0, self.ginv, r, lower=1))
        c = self.q.T @ (_forward(self.op, p) - self.y)  # range-space residual coords
        if self.delta_sq == 0.0:
            return p - _adjoint(self.op, self.q @ (c / self.lam))
        if np.dot(c, c) <= self.delta_sq:
            return p.copy()
        mu = self._secular_root(c)
        if self.qt_rows is not None:
            return p - self.qt_rows.T.dot(mu * c / (1.0 + mu * self.lam))
        return p - _adjoint(self.op, self.q @ (mu * c / (1.0 + mu * self.lam)))

    def misfit(self, v: np.ndarray) -> float:
        return float(np.linalg.norm(_forward(self.op, v.ravel()) - self.y))

    def _secular_root(self, c: np.ndarray) -> float:
        """Newton on psi from the last multiplier; needs ||c||^2 > delta^2.

        It stops once a step s is at most 1e-10 max(mu, 1).  Newton
        converges quadratically, so the error left after that step is of
        order K s^2, with K = |psi''| / (2 psi') at the root: far inside the
        1e-12 relative error that ``TestSecularSolve`` checks against brentq
        on Gram spreads up to 1e12.  On those 60 cases the multiplier lands
        within 2.2e-15 max(mu, 1) of the brentq root.
        """
        lam, mu = self.lam, self.mu
        delta = math.sqrt(self.delta_sq)
        for _ in range(_NEWTON_MAX_STEPS):
            shrink = 1.0 + mu * lam
            r = c / shrink
            rr = float(r @ r)
            # -psi / psi' = (||r|| / delta - 1) ||r||^2 / sum(r_i^2 lam_i / shrink_i)
            step = (math.sqrt(rr) / delta - 1.0) * rr / float(r @ (r * lam / shrink))
            new = max(mu + step, 0.0)
            done = abs(new - mu) <= _NEWTON_STOP * max(mu, 1.0)
            mu = new
            if done:
                break
        self.mu = mu
        return mu


class _Anderson:
    """Type-II Anderson acceleration of the DR map w -> w + g, g = v - x
    (Walker and Ni, 2011; Fu, Zhang and Boyd, 2019).

    Ring buffers hold the rows dg_i = g_{i+1} - g_i and
    df_i = (w_{i+1} - w_i) + dg_i of the last ``_ANDERSON_MEMORY`` steps,
    and ``h`` their Gram matrix H = dg dg^t, updated by one product per
    step.  ``step(g)`` sets ``dw`` to the increment g - df^t gamma, where
    (H + r I) gamma = dg g (LAPACK dposv) with the ridge
    r = 1e-10 tr(H) + ``_ANDERSON_DAMPING`` ||g||^2; an empty memory, or a
    system dposv cannot factor, gives the plain increment g.

    The tr(H) term only conditions the solve.  The ||g||^2 term damps
    gamma where the recent residuals barely differ: on a stretch where
    DR drifts with an almost constant residual, the undamped step fits
    dg at 1e-4 of ||g|| with weights ||gamma|| ~ 1e4, jumps 1,000 times
    farther than the plain step and can stall there, residual constant,
    until the budget runs out.
    """

    def __init__(self, n: int):
        self.dg = np.zeros((_ANDERSON_MEMORY, n))
        self.df = np.zeros((_ANDERSON_MEMORY, n))
        self.h = np.zeros((_ANDERSON_MEMORY, _ANDERSON_MEMORY))
        # H's diagonal ||dg_i||^2 as floats: summing 10 of them in Python
        # is faster than a NumPy reduction
        self.sq = [0.0] * _ANDERSON_MEMORY
        # H + ridge, factored in place by dposv; a view of its diagonal
        self.a = np.empty_like(self.h, order="F")
        self.a_diag = self.a.T.reshape(-1)[::_ANDERSON_MEMORY + 1]
        self.g_prev, self.dw = np.empty(n), np.empty(n)
        self.rows = self.slot = 0  # rows filled; the slot the next replaces
        self.paired = False  # g_prev and dw hold the previous step
        self.accelerated = False  # dw is an Anderson increment, not g_prev
        self.w_prev, self.least = np.empty(n), math.inf

    def step(self, g: np.ndarray) -> None:
        if self.paired:
            j = self.slot
            dg = np.subtract(g, self.g_prev, out=self.dg[j])
            np.add(self.dw, dg, out=self.df[j])
            self.h[j] = self.h[:, j] = row = self.dg.dot(dg)
            self.sq[j] = float(row[j])
            self.slot = (j + 1) % _ANDERSON_MEMORY
            self.rows = min(self.rows + 1, _ANDERSON_MEMORY)
        self.paired = True
        np.copyto(self.g_prev, g)
        k = self.rows
        if k:
            np.copyto(self.a, self.h)
            diag = self.a_diag[:k]
            diag += (1e-10 * sum(self.sq[:k])
                     + _ANDERSON_DAMPING * float(g.dot(g)))
            gam, info = lapack.dposv(self.a[:k, :k], self.dg[:k].dot(g),
                                     lower=1, overwrite_a=1)[1:]
            if info == 0:
                np.subtract(g, gam.dot(self.df[:k]), out=self.dw)
                self.accelerated = True
                return
        np.copyto(self.dw, g)
        self.accelerated = False

    def advance(self, w: np.ndarray, g: np.ndarray) -> None:
        """Move the DR point w, whose residual is g, in place to w + dw.

        It first checks the last step: if that was an accelerated one and
        ||g|| exceeds ``_ANDERSON_GUARD`` times the smallest residual seen
        so far, the step is rejected.  w is set to the previous point's
        plain step, w_prev + g_prev, and the memory is emptied, so the next
        step is plain too."""
        r = math.sqrt(float(g.dot(g)))
        if self.accelerated and r > _ANDERSON_GUARD * self.least:
            np.add(self.w_prev, self.g_prev, out=w)
            self.rows = self.slot = 0
            self.paired = self.accelerated = False
            return
        self.least = min(self.least, r)
        np.copyto(self.w_prev, w)
        self.step(g)
        w += self.dw


def _douglas_rachford(f: Regularizer, proj: _BallProjector,
                      opts: SolverOptions | None, floor: float = -math.inf):
    """DR iteration on gamma * f + indicator(C) over flat signals of shape
    ``proj.op.signal_shape``, with ``opts`` by default ``SolverOptions()``;
    returns (x_feas, v_prox, iters, reason).

    Every 10th iteration (and the last) it checks, in order:

    - ``"converged"``: the primal residual ||v - x|| and the prox iterate's
      constraint violation ``proj.misfit(v) - proj.eta`` are both at most
      ``opts.tol * proj.scale``;
    - ``"certified_fail"``: f(x) of the projected, feasible iterate x is
      below ``floor``.  A caller that knows the true signal sets the floor
      so that this proves every minimizer lies too far from it for the
      solve to succeed, whatever the budget; the default, -inf, never
      stops.

    Otherwise it runs to ``"max_iters"``; any reason reads ``"infeasible"``
    when C is empty.  The loop owns the DR point w, the reflection
    z = 2x - w and the step v - x: it allocates them once and updates them
    in place.  The projector and the prox return fresh arrays, so x and v
    never alias them.

    One rule, read from the projector, sets the prox step gamma and the
    Anderson start for all three programs: at eta > 0, gamma = 0.2 * eta
    (``_BALL_STEP``) from iteration 1; at eta = 0, gamma = 0.3 * mean|y_i|
    (``_DATA_STEP``; 1 when y = 0) from ``_ANDERSON_START`` (1,000).  f is
    positively homogeneous (a norm, or the trace on the PSD cone), so
    prox_{gamma f}(c z) = c prox_{(gamma / c) f}(z) for c > 0: scaling
    (y, eta) by c scales gamma and, by induction from w = 0, every DR
    iterate by c, and the gate follows ||y||, so a solve takes the same
    iterations at every data scale.  For PhaseLift, mean(y) estimates
    trace(X) (E[y_i] = ||x||^2 for Gaussian psi_i), and its y_i are
    magnitudes, so mean|y_i| = mean(y_i).

    From ``start`` on, the plain update w <- w + (v - x) becomes a damped
    type-II Anderson step over the last ``_ANDERSON_MEMORY`` (10) steps
    (``_Anderson``), guarded: an accelerated step after which ||v - x||
    exceeds ``_ANDERSON_GUARD`` (2) times the smallest residual of the
    solve so far is rejected, w goes back to the previous point plus its
    plain step, and the memory starts empty (a residual safeguard after
    Zhang, O'Donoghue and Boyd, 2020, who guard a type-I step).  Before
    ``start`` the loop is the plain one bit for bit.
    """
    opts = opts or SolverOptions()
    shape = proj.op.signal_shape
    n = math.prod(shape)
    w, z, step = np.zeros(n), np.empty(n), np.empty(n)
    z_signal = z.reshape(shape)  # a view: the prox reads z as a signal
    x = v = w
    reason = "max_iters"
    it = 0
    gate = opts.tol * proj.scale
    if proj.eta > 0.0:
        start, gamma = 1, _BALL_STEP * proj.eta
    else:
        start = _ANDERSON_START
        gamma = _DATA_STEP * float(np.mean(np.abs(proj.y))) or 1.0
    accel = None
    for it in range(1, opts.max_iters + 1):
        x = proj(w)
        np.multiply(x, 2.0, out=z)
        z -= w
        v = f.prox(z_signal, gamma).ravel()
        np.subtract(v, x, out=step)
        if it < start:
            w += step
        else:
            accel = accel or _Anderson(n)
            accel.advance(w, step)
        if it % 10 and it != opts.max_iters:
            continue
        if (np.linalg.norm(step) <= gate
                and proj.misfit(v) - proj.eta <= gate):
            reason = "converged"
            break
        if floor > -math.inf and f.value(x.reshape(shape)) < floor:
            reason = "certified_fail"
            break
    return x, v, it, "infeasible" if proj.infeasible else reason


def recover_constrained(f: Regularizer, op: MeasurementOperator,
                        y: np.ndarray, eta: float,
                        opts: SolverOptions | None = None,
                        floor: float = -math.inf) -> RecoveryResult:
    """Minimize f(x) subject to ||Phi x - y|| <= eta.

    DR runs on gamma * f + indicator(ball), with the step gamma that
    ``_douglas_rachford`` reads from (y, eta); a solve takes the same
    iterations at every data scale.  A feasible iterate with f below
    ``floor`` stops it as ``"certified_fail"``.
    """
    if op.kind is not OperatorKind.DENSE:
        raise ValueError("constrained recovery needs a dense operator; "
                         "use phase_retrieval_sdp for lifted ensembles")
    proj = _BallProjector(op, y, eta)
    x, v, iters, reason = _douglas_rachford(f, proj, opts, floor=floor)
    estimate = x.reshape(op.signal_shape)  # projection output: feasible
    return RecoveryResult(estimate, f.value(estimate), proj.misfit(estimate),
                          iters, reason)


def phase_retrieval_sdp(op: MeasurementOperator, y: np.ndarray, eta: float,
                        opts: SolverOptions | None = None) -> RecoveryResult:
    """Minimize trace(X) over PSD X with ||(trace(X Psi_i))_i - y|| <= eta.

    The estimate returned is the PSD prox iterate, and its residual is its
    violation ||Phi(X) - y||.  The y_i are magnitudes up to the noise: a
    y_i < -eta (less 1e-10 ||y||) is refused.

    DR takes the step gamma of ``_douglas_rachford``: at eta = 0 it is
    0.3 * mean(y), a fixed fraction of the trace that the data imply (1
    when y = 0, whose solution X = 0 is reached at once).
    """
    if op.kind is not OperatorKind.LIFTED:
        raise ValueError("phase retrieval needs a lifted rank-one operator")
    proj = _BallProjector(op, y, eta)
    if np.any(proj.y < -eta - 1e-10 * proj.scale):
        raise ValueError("phase retrieval measurements are magnitudes "
                         "(y_i >= -eta)")
    x, v, iters, reason = _douglas_rachford(TracePSD(), proj, opts)
    estimate = v.reshape(op.signal_shape)   # prox output: PSD by construction
    estimate = 0.5 * (estimate + estimate.T)
    return RecoveryResult(estimate, float(np.trace(estimate)),
                          proj.misfit(estimate), iters, reason)
