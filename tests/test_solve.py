"""Recovery solvers: constrained norm minimization and the phase-retrieval
trace-minimization program, checked against brute-force oracles."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.optimize import brentq

from conicrecovery import solve
from conicrecovery.harness import (
    ExperimentConfig,
    LowRankS1,
    PhaseRetrieval,
    SparseL1,
    _cell_seed,
    run_phase_transition,
    solve_instance,
)
from conicrecovery.measure import (
    MeasurementOperator,
    OperatorKind,
    apply,
    gaussian_ensemble,
    gaussian_matrix_ensemble,
    gram,
    lifted_phase_ensemble,
    measure_with_noise,
)
from conicrecovery.reg import L1Norm, Schatten1Norm, TracePSD
from conicrecovery.rng import generator
from conicrecovery.solve import (
    RecoveryResult,
    SolverOptions,
    _BallProjector,
    phase_retrieval_sdp,
    recover_constrained,
)

import test_reg


def dense_op(mat):
    mat = np.asarray(mat, dtype=float)
    return MeasurementOperator(OperatorKind.DENSE, mat.shape[0],
                               (mat.shape[1],), rows=mat)


def l1_equality_oracle(a, y):
    """Brute-force minimum l1 norm subject to A x = y, for d <= 4.

    An optimal basic solution is supported on at most m coordinates;
    enumerate all support subsets, solve the restricted system by least
    squares, keep consistent candidates.
    """
    m, d = a.shape
    best = math.inf
    for size in range(0, min(m, d) + 1):
        for sub in itertools.combinations(range(d), size):
            if size == 0:
                if np.linalg.norm(y) < 1e-9:
                    best = min(best, 0.0)
                continue
            xs, *_ = np.linalg.lstsq(a[:, sub], y, rcond=None)
            if np.linalg.norm(a[:, sub] @ xs - y) < 1e-9:
                best = min(best, float(np.sum(np.abs(xs))))
    return best


def phase_linear_oracle(op, y):
    """Solve the d=2, m=3 phase constraints as a 3x3 linear system in the
    symmetric matrix entries (x11, x12, x22)."""
    psis = op.vectors
    rows = np.stack([
        [p[0] ** 2, 2 * p[0] * p[1], p[1] ** 2] for p in psis])
    sol = np.linalg.solve(rows, y)
    return np.array([[sol[0], sol[1]], [sol[1], sol[2]]])


def explicit_design(op):
    """The operator as an explicit m x n matrix: its rows when dense, the
    vectorized rank-one matrices psi_i psi_i^t when lifted."""
    if op.kind is OperatorKind.DENSE:
        return np.asarray(op.rows)
    return np.einsum("id,ie->ide", op.vectors, op.vectors).reshape(op.m, -1)


def ball_projection_oracle(a, y, eta, p):
    """Projection of p onto {x : ||A x - y|| <= eta} from the SVD of A.

    eta = 0 is the minimum-norm least-squares correction; eta > 0 shrinks
    along the right singular vectors with the multiplier found by
    bisection on the residual norm, which decreases in the multiplier.
    """
    if eta == 0.0:
        return p - np.linalg.lstsq(a, a @ p - y, rcond=None)[0]
    if np.linalg.norm(a @ p - y) <= eta:
        return p
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > s[0] * 1e-10
    u, s, vt = u[:, keep], s[keep], vt[keep]
    c = u.T @ (a @ p - y)
    perp_sq = float(np.sum((y - u @ (u.T @ y)) ** 2))

    def shrunk(mu):
        return p - vt.T @ (mu * s * c / (1.0 + mu * s ** 2))

    def resid_sq(mu):
        return float(np.sum((c / (1.0 + mu * s ** 2)) ** 2)) + perp_sq

    lo, hi = 0.0, 1.0
    while resid_sq(hi) > eta ** 2:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if resid_sq(mid) > eta ** 2 else (lo, mid)
    return shrunk(hi)


def l1_kkt_residuals(a, y, eta, x):
    """KKT residuals of x for min ||x||_1 s.t. ||A x - y|| <= eta, eta > 0,
    with the constraint active (eta < ||y||).

    At the optimum, lam * g is a subgradient of ||.||_1 at x for
    g = -A^t (A x - y) and a multiplier lam > 0: lam g_i = sign x_i on the
    support and |lam g_i| <= 1 off it.  The support is |x_i| above 1e-6
    max |x|, and lam = 1 / mean |g_i| over it.  Returns the relative
    misfit error | ||A x - y|| - eta | / eta, max |lam g_i - sign x_i| on
    the support and max |lam g_i| off it.
    """
    r = a @ x - y
    g = -a.T @ r
    supp = np.abs(x) > 1e-6 * np.max(np.abs(x))
    lam = 1.0 / np.mean(np.abs(g[supp]))
    return (abs(np.linalg.norm(r) - eta) / eta,
            float(np.max(np.abs(lam * g[supp] - np.sign(x[supp])))),
            float(np.max(np.abs(lam * g[~supp]), initial=0.0)))


def l1_kkt_ok(a, y, eta, x):
    misfit, on, off = l1_kkt_residuals(a, y, eta, x)
    return misfit <= 1e-9 and on <= 1e-5 and off <= 1 + 1e-5


def _lift(x):
    return np.outer(x, x)


def faint_vector_op(m, d, scale, seed):
    """Lifted m x d operator whose first sampling vector is scaled by
    ``scale``: its Gram row and column scale by scale^2, so G keeps a
    Cholesky factor while its condition number grows like scale^-4."""
    psi = generator(seed).standard_normal((m, d))
    psi[0] *= scale
    return MeasurementOperator(OperatorKind.LIFTED, m, (d, d), vectors=psi)


def eigh_calls(monkeypatch):
    """The list to which every later np.linalg.eigh call appends the shape
    of its matrix."""
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda g: calls.append(g.shape) or eigh(g))
    return calls


def ill_conditioned_op(m, n, cond, seed):
    """Dense m x n operator (m <= n) with singular values log-spaced from
    1 down to 1/cond."""
    rng = generator(seed)
    u = np.linalg.qr(rng.standard_normal((m, m)))[0]
    v = np.linalg.qr(rng.standard_normal((n, m)))[0]
    return dense_op(u @ np.diag(np.logspace(0, -math.log10(cond), m)) @ v.T)


# (operator, signal drawn for consistent data); the first has a Gram
# condition number of 1e6, the next four a singular Gram matrix: dense
# with m > n, lifted with m > d(d+1)/2.  Lifted ones with m < d(d+1)/2 have
# a positive definite G, which "lifted-d8-m34" nearly fills (d(d+1)/2 = 36),
# while "lifted-faint" scales one sampling vector by 1e-8: G is positive
# definite but so ill-conditioned that eigh drops its smallest eigenvalue,
# and the SVD oracle the matching singular value
PROJECTOR_CASES = {
    "dense-cond-1e3": lambda: (ill_conditioned_op(6, 10, 1e3, seed=29),
                               generator(28).standard_normal(10)),
    "dense-6x10": lambda: (gaussian_ensemble(6, 10, seed=30),
                           generator(31).standard_normal(10)),
    "dense-matrix-10x(3x4)": lambda: (gaussian_matrix_ensemble(10, 3, 4, seed=32),
                                      generator(33).standard_normal((3, 4))),
    "lifted-d5-m12": lambda: (lifted_phase_ensemble(12, 5, seed=34),
                              _lift(generator(35).standard_normal(5))),
    "dense-12x5": lambda: (gaussian_ensemble(12, 5, seed=36),
                           generator(37).standard_normal(5)),
    "dense-40x8": lambda: (gaussian_ensemble(40, 8, seed=38),
                           generator(39).standard_normal(8)),
    "lifted-d2-m4": lambda: (lifted_phase_ensemble(4, 2, seed=40),
                             _lift(generator(41).standard_normal(2))),
    "lifted-d4-m30": lambda: (lifted_phase_ensemble(30, 4, seed=42),
                              _lift(generator(43).standard_normal(4))),
    "lifted-d8-m34": lambda: (lifted_phase_ensemble(34, 8, seed=56),
                              _lift(generator(57).standard_normal(8))),
    "lifted-faint": lambda: (faint_vector_op(20, 6, 1e-8, seed=58),
                             _lift(generator(59).standard_normal(6))),
}
SINGULAR_CASES = ["dense-12x5", "dense-40x8", "lifted-d2-m4", "lifted-d4-m30"]
DENSE_CASES = [c for c in PROJECTOR_CASES if c.startswith("dense")]
# operators whose eta = 0 projector factors G by Cholesky
CHOLESKY_CASES = ["lifted-d5-m12", "lifted-d8-m34"]
DENSE_CHOLESKY_CASES = ["dense-6x10", "dense-matrix-10x(3x4)", "dense-cond-1e3"]


class TestBallProjector:
    @pytest.mark.parametrize("case", PROJECTOR_CASES)
    @pytest.mark.parametrize("eta", [0.0, 0.3])
    def test_matches_svd_oracle(self, case, eta):
        op, x = PROJECTOR_CASES[case]()
        a = explicit_design(op)
        rng = generator(44)
        ys = [apply(op, x)]
        if eta:  # also data off range(Phi) but inside the ball
            e = rng.standard_normal(op.m)
            ys.append(ys[0] + 0.5 * eta * e / np.linalg.norm(e))
        for y in ys:
            proj = _BallProjector(op, y, eta)
            assert not proj.infeasible
            for _ in range(5):
                p = 3.0 * rng.standard_normal(op.signal_shape).ravel()
                got = proj(p)
                want = ball_projection_oracle(a, y, eta, p)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)
                assert np.linalg.norm(a @ got - y) <= eta + 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("eta", [0.0, 0.3])
    def test_rejects_non_finite_data(self, bad, eta):
        # refused before any iteration: unguarded, a NaN in y runs the whole
        # DR budget to a NaN residual, and the SDP fails inside its prox
        y = np.ones(20)
        y[7] = bad
        dense = gaussian_ensemble(20, 40, seed=5)
        lifted = lifted_phase_ensemble(20, 4, seed=5)
        for op in (dense, lifted):
            with pytest.raises(ValueError, match="must be finite"):
                _BallProjector(op, y, eta)
        with pytest.raises(ValueError, match="must be finite"):
            recover_constrained(L1Norm(), dense, y, eta)
        with pytest.raises(ValueError, match="must be finite"):
            phase_retrieval_sdp(lifted, y, eta)

    @pytest.mark.parametrize("case", DENSE_CASES)
    def test_dense_eta_zero_matches_gram_correction(self, case):
        # the correction p - Phi^+ (Phi p - y) against the SVD pseudo-inverse
        # of the design, whichever route the projector takes; both routes
        # factor G = Phi Phi^t, so the error may grow like eps kappa(G)
        op, x = PROJECTOR_CASES[case]()
        a = explicit_design(op)
        y = apply(op, x)
        proj = _BallProjector(op, y, 0.0)
        pinv = np.linalg.pinv(a)
        tol = max(1e-12, 4.0 * np.finfo(float).eps * np.linalg.cond(a) ** 2)
        rng = generator(48)
        for _ in range(5):
            p = 3.0 * rng.standard_normal(a.shape[1])
            np.testing.assert_allclose(proj(p), p - pinv @ (a @ p - y), rtol=0,
                                       atol=tol * max(1.0, np.linalg.norm(p)))

    @pytest.mark.parametrize("case", DENSE_CASES)
    def test_dense_eta_positive_matches_gram_correction(self, case):
        # a dense operator at eta > 0 applies its correction through the
        # stored Q^t Phi; it agrees with Phi^* (Q (mu c / (1 + mu lam)))
        # taken at the projector's own multiplier
        op, x = PROJECTOR_CASES[case]()
        a = explicit_design(op)
        y = apply(op, x)
        proj = _BallProjector(op, y, 0.3)
        assert proj.qt_rows.shape == (proj.lam.size, a.shape[1])
        rng = generator(48)
        for _ in range(5):
            p = 3.0 * rng.standard_normal(a.shape[1])
            c = proj.q.T @ (a @ p - y)
            assert np.dot(c, c) > proj.delta_sq  # p lies outside the ball
            got = proj(p)
            mu = proj.mu
            want = p - a.T @ (proj.q @ (mu * c / (1.0 + mu * proj.lam)))
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * max(1.0, np.linalg.norm(p)))

    @pytest.mark.parametrize("case, eta", [
        (c, eta) for c in PROJECTOR_CASES for eta in (0.0, 0.3)
        if not (c in DENSE_CASES and eta == 0.0)])
    def test_no_pseudo_inverse_matrix_otherwise(self, case, eta):
        # lifted: Phi^+ would be the m x d^2 design; eta > 0: the secular
        # path forms its residual in the Gram eigenbasis
        op, x = PROJECTOR_CASES[case]()
        proj = _BallProjector(op, apply(op, x), eta)
        n = math.prod(op.signal_shape)
        assert not any(np.shape(v) == (n, op.m) for v in vars(proj).values())

    @pytest.mark.parametrize("case", CHOLESKY_CASES)
    def test_positive_definite_lifted_gram_skips_eigh(self, monkeypatch, case):
        # at eta = 0 the projection needs G^-1 alone, not the spectrum
        op, x = PROJECTOR_CASES[case]()

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        y = apply(op, x)
        proj = _BallProjector(op, y, 0.0)
        assert proj.ginv is not None and not proj.infeasible
        got = proj(generator(49).standard_normal(op.signal_shape).ravel())
        assert (np.linalg.norm(apply(op, got.reshape(op.signal_shape)) - y)
                <= 1e-10 * np.linalg.norm(y))

    def test_ill_conditioned_lifted_gram_takes_eigenbasis(self, monkeypatch):
        # dpotrf factors G, but dpocon's reciprocal condition estimate is
        # below _EIG_CUT * m, so the projector falls back to eigh
        op, x = PROJECTOR_CASES["lifted-faint"]()
        assert solve.lapack.dpotrf(gram(op), lower=1)[1] == 0
        calls = eigh_calls(monkeypatch)
        proj = _BallProjector(op, apply(op, x), 0.0)
        assert proj.ginv is None and calls == [(op.m, op.m)]
        assert proj.lam.size == op.m - 1 and not proj.infeasible

    @pytest.mark.parametrize("case", DENSE_CHOLESKY_CASES)
    def test_positive_definite_dense_gram_skips_eigh(self, monkeypatch, case):
        op, x = PROJECTOR_CASES[case]()

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        y = apply(op, x)
        proj = _BallProjector(op, y, 0.0)
        assert not proj.infeasible
        got = proj(generator(49).standard_normal(op.signal_shape).ravel())
        assert (np.linalg.norm(apply(op, got.reshape(op.signal_shape)) - y)
                <= 1e-10 * np.linalg.norm(y))

    @pytest.mark.parametrize("case", ["dense-12x5", "dense-cond-1e7"])
    def test_dense_gram_fallback_takes_eigenbasis(self, monkeypatch, case):
        # m > n leaves G singular; at kappa(Phi) = 1e7 dpotrf factors G, but
        # dpocon's estimate is below _EIG_CUT * m, and eigh then drops the
        # smallest eigenvalue, so consistent data read infeasible (the known
        # limit of a Gram projector)
        if case == "dense-cond-1e7":
            op = ill_conditioned_op(6, 10, 1e7, seed=29)
            x = generator(28).standard_normal(10)
            assert solve.lapack.dpotrf(gram(op), lower=1)[1] == 0
        else:
            op, x = PROJECTOR_CASES[case]()
        calls = eigh_calls(monkeypatch)
        proj = _BallProjector(op, apply(op, x), 0.0)
        assert calls == [(op.m, op.m)]
        assert proj.infeasible == (case == "dense-cond-1e7")

    def test_l1_sweep_takes_no_eigh(self, monkeypatch):
        # every cell of an m < d sweep has a well-conditioned G
        calls = eigh_calls(monkeypatch)
        result = run_phase_transition(
            ExperimentConfig(SparseL1(2, 32), (8, 16, 24), trials=3, seed=1))
        assert len(result.rows) == 3 and calls == []

    @pytest.mark.parametrize("case", SINGULAR_CASES)
    def test_singular_gram_consistent_data(self, case):
        # the affine set {X : Phi X = y} meets the signal space (symmetric
        # matrices, for lifted operators) in the one point x
        op, x = PROJECTOR_CASES[case]()
        proj = _BallProjector(op, apply(op, x), 0.0)
        assert not proj.infeasible
        assert np.linalg.matrix_rank(explicit_design(op)) == proj.lam.size
        p = generator(45).standard_normal(op.signal_shape)
        if op.kind is OperatorKind.LIFTED:
            p = 0.5 * (p + p.T)
        assert np.linalg.norm(proj(p.ravel()) - x.ravel()) <= 1e-8

    @pytest.mark.parametrize("case", SINGULAR_CASES)
    def test_singular_gram_off_range_infeasible(self, case):
        op, x = PROJECTOR_CASES[case]()
        a = explicit_design(op)
        u = np.linalg.svd(a)[0][:, np.linalg.matrix_rank(a):]
        y = apply(op, x) + u.sum(axis=1)   # unit steps off range(Phi)
        for eta in (0.0, 0.5):
            assert _BallProjector(op, y, eta).infeasible

    @pytest.mark.parametrize("case", SINGULAR_CASES)
    def test_singular_gram_solvers(self, case):
        op, x = PROJECTOR_CASES[case]()
        if op.kind is OperatorKind.LIFTED:
            solve = phase_retrieval_sdp
        else:
            def solve(op, y, eta, opts=None):
                return recover_constrained(L1Norm(), op, y, eta, opts)
        y = apply(op, x)
        res = solve(op, y, 0.0)
        assert res.converged and res.stop_reason != "infeasible"
        assert np.linalg.norm(res.estimate - x) <= 1e-8 * np.linalg.norm(x)
        # y + 1 stays a valid magnitude vector and leaves range(Phi)
        bad = solve(op, y + 1.0, 0.0, SolverOptions(max_iters=50))
        assert bad.stop_reason == "infeasible" and not bad.converged

    @pytest.mark.parametrize("case", ["dense-6x10", "lifted-d5-m12"])
    @pytest.mark.parametrize("eta", [0.0, 0.3])
    def test_returns_fresh_array(self, case, eta):
        # the DR loop updates its iterate in place after projecting it; x
        # itself is inside the ball, and at eta = 0 a dense operator takes
        # the Phi^+ branch
        op, x = PROJECTOR_CASES[case]()
        p = x.ravel().copy()
        proj = _BallProjector(op, apply(op, x), eta)
        assert not np.shares_memory(proj(p), p)

    def test_lifted_memory_stays_below_design(self):
        # the m x d^2 lifted design alone would take m * d^2 * 8 bytes
        d, m = 64, 512
        op = lifted_phase_ensemble(m, d, seed=46)
        y = apply(op, _lift(generator(47).standard_normal(d)))
        tracemalloc.start()
        try:
            phase_retrieval_sdp(op, y, 0.0, SolverOptions(max_iters=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * d * d * 8


def secular_root_ref(c, lam, delta_sq):
    """Multiplier with sum (c / (1 + mu lam))^2 = delta_sq, by brentq on a
    doubling bracket; the reference for the projector's Newton solve."""
    def excess(mu):
        return float(np.sum((c / (1.0 + mu * lam)) ** 2)) - delta_sq

    hi = 1.0
    while excess(hi) > 0:
        hi *= 2.0
    return brentq(excess, 0.0, hi, xtol=1e-14, rtol=1e-14)


# (operator, consistent data): Gram eigenvalues spread 1e12 and about 130
SECULAR_CASES = {
    "dense-cond-1e6": lambda: (ill_conditioned_op(6, 10, 1e6, seed=50),
                               generator(51).standard_normal(10)),
    "dense-matrix-12x(4x4)": lambda: (gaussian_matrix_ensemble(12, 4, 4, seed=52),
                                      generator(53).standard_normal((4, 4))),
}
# delta^2 as a fraction of ||c||^2: near 1 the multiplier is near 0, near 0
# it is large
SECULAR_TARGETS = [1.0 - 1e-12, 1.0 - 1e-6, 0.5, 1e-6, 1e-12]


class TestSecularSolve:
    def _setup(self, case, target):
        """(design, point, projector, c) with delta^2 = target * ||c||^2."""
        op, x = SECULAR_CASES[case]()
        a = explicit_design(op)
        y = apply(op, x)
        p = 3.0 * generator(54).standard_normal(a.shape[1])
        proj = _BallProjector(op, y, math.sqrt(target) * np.linalg.norm(a @ p - y))
        return a, p, proj, proj.q.T @ (a @ p - y)

    @pytest.mark.parametrize("case", SECULAR_CASES)
    @pytest.mark.parametrize("target", SECULAR_TARGETS)
    @pytest.mark.parametrize("start", [0.0, 0.1, 0.9, 1.1, 10.0, 1e6])
    def test_matches_brentq(self, case, target, start):
        # warm start = start * root; from the right of the root Newton
        # lands left of it, possibly clamped at 0
        a, p, proj, c = self._setup(case, target)
        assert proj.lam.max() / proj.lam.min() > (1e11 if "cond" in case else 100)
        ref = secular_root_ref(c, proj.lam, proj.delta_sq)
        proj.mu = start * ref
        got = proj(p)
        assert abs(proj.mu - ref) <= 1e-12 * max(ref, 1.0)
        r = c / (1.0 + proj.mu * proj.lam)
        assert float(r @ r) == pytest.approx(proj.delta_sq, rel=1e-12)
        want = p - a.T @ (proj.q @ (ref * c / (1.0 + ref * proj.lam)))
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-10 * np.linalg.norm(p))

    def test_inside_ball_unchanged(self):
        _, p, proj, _ = self._setup("dense-matrix-12x(4x4)", 1.0 + 1e-9)
        proj.mu = 5.0
        np.testing.assert_array_equal(proj(p), p)
        assert proj.mu == 5.0

    @pytest.mark.parametrize("case", SINGULAR_CASES[:2])
    def test_empty_set_takes_eta_zero_correction(self, case):
        op, x = PROJECTOR_CASES[case]()
        a = explicit_design(op)
        u = np.linalg.svd(a)[0][:, np.linalg.matrix_rank(a):]
        y = apply(op, x) + u.sum(axis=1)   # ||y_perp||^2 = m - rank > eta^2
        for eta in (0.5, 0.99 * math.sqrt(u.shape[1])):
            proj = _BallProjector(op, y, eta)
            assert proj.infeasible
            p = generator(55).standard_normal(a.shape[1])
            np.testing.assert_array_equal(proj(p), _BallProjector(op, y, 0.0)(p))
            res = recover_constrained(L1Norm(), op, y, eta,
                                      SolverOptions(max_iters=50))
            assert res.stop_reason == "infeasible"


def reference_douglas_rachford(f, proj, opts, accelerate=True,
                               floor=-math.inf):
    """The DR loop written with a fresh array for every intermediate, the
    l1 prox as sign(z) (|z| - t)_+ and Phi^+ applied with ``@``: the
    arithmetic that the solver's in-place loop must reproduce bit for bit.
    Its prox step is 0.2 eta at eta > 0 and 0.3 mean|y_i| at eta = 0 (1
    when y = 0).
    At eta = 0 from iteration 1,000 on, and at eta > 0 from the first, it
    takes the Anderson step over lists of 10 row slots, stacked afresh for
    every product, with the solver's slot order and ridge.  An accelerated
    step whose next residual exceeds twice the smallest so far is undone:
    w becomes the previous point plus its residual, and the memory starts
    empty.  ``accelerate=False`` gives the plain loop.  At a check that
    does not converge, f of the projected iterate below ``floor`` stops it
    as ``certified_fail``."""
    opts = opts or SolverOptions()
    shape = proj.op.signal_shape

    def prox(z, t):
        if isinstance(f, L1Norm):
            return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)
        return f.prox(z, t)

    def project(p):
        if proj.pinv is not None:
            return p - proj.pinv @ (proj.op.rows @ p - proj.y)
        return proj(p)

    start = (1_000 if proj.eta == 0.0 else 1) if accelerate else math.inf
    gamma = (0.2 * proj.eta if proj.eta > 0.0
             else 0.3 * float(np.mean(np.abs(proj.y))) or 1.0)
    size = 10
    n = math.prod(shape)
    dg_rows, df_rows = [np.zeros(n)] * size, [np.zeros(n)] * size
    h = np.zeros((size, size))
    rows = slot = 0
    g_prev = dw = w_prev = None
    anderson_dw = False  # the last increment came from the Anderson solve
    least = math.inf
    w = np.zeros(n)
    x = v = w
    reason = "max_iters"
    it = 0
    gate = opts.tol * proj.scale
    for it in range(1, opts.max_iters + 1):
        x = project(w)
        v = prox((2.0 * x - w).reshape(shape), gamma).ravel()
        step = v - x
        if it < start:
            w = w + step
        elif anderson_dw and np.linalg.norm(step) > 2.0 * least:
            w = w_prev + g_prev
            rows = slot = 0
            g_prev = None
            anderson_dw = False
        else:
            least = min(least, float(np.linalg.norm(step)))
            w_prev = w
            if g_prev is not None:
                dg = step - g_prev
                dg_rows[slot], df_rows[slot] = dg, dw + dg
                row = np.array(dg_rows) @ dg
                h = h.copy()
                h[slot], h[:, slot] = row, row
                slot, rows = (slot + 1) % size, min(rows + 1, size)
            g_prev = dw = step
            anderson_dw = False
            if rows:
                hk = h[:rows, :rows]
                ridge = (1e-10 * sum(float(d) for d in np.diag(hk))
                         + 1e-5 * float(step @ step))
                _, gam, info = lapack.dposv(hk + ridge * np.eye(rows),
                                            np.array(dg_rows[:rows]) @ step,
                                            lower=1)
                if info == 0:
                    dw = step - gam @ np.array(df_rows[:rows])
                    anderson_dw = True
            w = w + dw
        if ((it % 10 == 0 or it == opts.max_iters)
                and np.linalg.norm(step) <= gate
                and proj.misfit(v) - proj.eta <= gate):
            reason = "converged"
            break
        if ((it % 10 == 0 or it == opts.max_iters)
                and f.value(x.reshape(shape)) < floor):
            reason = "certified_fail"
            break
    return x, v, it, "infeasible" if proj.infeasible else reason


# (problem, m, eta, trial): the l1 cells at m = 16 and 54 take the Phi^+
# branch, the low-rank ones the secular solve (eta = 0.3) and the
# inside-ball branch (eta = 3 ||y||).  The l1 m = 16 cells t = 4 and 12
# take Anderson steps past iteration 1,000 (to 1,480 and 2,260); in t = 26
# and 32 (to 3,020 and 8,210) the guard also rejects 3 steps and 1 step.
# The eta > 0 cells take Anderson steps from the first iteration;
# ``rejecting_cell`` below is one more, whose guard rejects steps.
REFERENCE_CELLS = (
    [(SparseL1(4, 128), m, 0.0, t) for m in (16, 54) for t in range(6)]
    + [(SparseL1(4, 128), 16, 0.0, t) for t in (12, 26, 32)]
    + [(SparseL1(4, 128), 54, 1e-3, 0)]
    + [(LowRankS1(1, 8, 8), 55, eta, t) for eta in (0.3, "3|y|")
       for t in range(3)]
    + [(PhaseRetrieval(8), 24, 0.0, t) for t in range(3)])


def solve_reference_cell(problem, m, eta, trial):
    rng = generator(1000 * m + trial)
    x = problem.draw(rng)
    op = problem.operator(m, int(rng.integers(0, 2 ** 62)))
    if eta == "3|y|":
        y = apply(op, x)
        eta = 3.0 * float(np.linalg.norm(y))
    else:
        y = measure_with_noise(op, x, noise_norm=eta,
                               seed=int(rng.integers(0, 2 ** 62)))
    return problem.recover(op, y, eta, SolverOptions())


def rejecting_cell():
    # the l1 cell of TestStopReason.test_converged: unguarded, its Anderson
    # steps ran to max_iters at objective 2,421, where ||x||_1 = 1
    op = gaussian_ensemble(6, 12, seed=9)
    return l1_solve(op, apply(op, np.eye(12)[3]), 0.1)


def assert_matches_reference(monkeypatch, run):
    got = run()
    with monkeypatch.context() as patch:
        patch.setattr(solve, "_douglas_rachford", reference_douglas_rachford)
        want = run()
    assert got.estimate.tobytes() == want.estimate.tobytes()
    assert got.iterations == want.iterations
    assert got.stop_reason == want.stop_reason


class TestInPlaceDrStep:
    @pytest.mark.parametrize("problem, m, eta, trial", REFERENCE_CELLS,
                             ids=[f"{type(p).__name__}-m{m}-eta{e}-t{t}"
                                  for p, m, e, t in REFERENCE_CELLS])
    def test_bit_identical_to_allocating_loop(self, monkeypatch, problem, m,
                                              eta, trial):
        assert_matches_reference(
            monkeypatch, lambda: solve_reference_cell(problem, m, eta, trial))

    def test_rejecting_cell_bit_identical(self, monkeypatch):
        assert_matches_reference(monkeypatch, rejecting_cell)

    def test_certified_cell_bit_identical(self, monkeypatch):
        # an l1 sweep cell that the floor stops at its 11th check
        def run():
            return solve_instance(SparseL1(4, 128), 16, _cell_seed(1, 16, 0),
                                  0.0, SolverOptions(), 1e-4)[0]

        res = run()
        assert (res.stop_reason, res.iterations) == ("certified_fail", 110)
        assert_matches_reference(monkeypatch, run)

    def test_reference_cells_reach_the_anderson_start(self, monkeypatch):
        # the cells above that pin the accelerated step at eta = 0 past
        # iteration 1,000, where the guard rejects a step, and the 6 x 12
        # cell that pins a rejection at eta > 0, long before it: only a
        # rejection leaves the memory unpaired
        rejected = []

        class Counting(solve._Anderson):
            def advance(self, w, g):
                super().advance(w, g)
                rejected.append(not self.paired)

        monkeypatch.setattr(solve, "_Anderson", Counting)
        for m, trial in ((16, 26), (16, 32)):
            rejected.clear()
            res = solve_reference_cell(SparseL1(4, 128), m, 0.0, trial)
            assert res.converged
            assert res.iterations > solve._ANDERSON_START
            assert any(rejected)
        rejected.clear()
        res = rejecting_cell()
        assert res.converged
        assert res.iterations < solve._ANDERSON_START
        assert any(rejected)


class TestAndersonStep:
    # the first 10 trials of the m = 8 and 16 rows of the seed-1 l1 sweep
    # (d = 128, s = 4, eta = 0); the plain step capped one of them at
    # 20,000 iterations
    CELLS = [(i, m, t) for i, m in enumerate((8, 16)) for t in range(10)]

    def test_verdicts_do_not_depend_on_the_budget(self):
        thr = 1e-4
        accelerated = 0
        for i, m, t in self.CELLS:
            seed = _cell_seed(1, i, t)
            (res, rel), (big, big_rel) = (
                solve_instance(SparseL1(4, 128), m, seed, 0.0,
                               SolverOptions(max_iters=budget))
                for budget in (20_000, 80_000))
            assert res.stop_reason == big.stop_reason == "converged"
            assert res.iterations == big.iterations
            assert res.estimate.tobytes() == big.estimate.tobytes()
            assert (rel <= thr) == (big_rel <= thr)
            accelerated += res.iterations > solve._ANDERSON_START
        assert accelerated == 18

    def test_constant_residual_takes_the_plain_step(self):
        # an exactly repeated residual gives dg = 0: H = 0, the damping
        # alone is the system, and the weights vanish
        acc = solve._Anderson(4)
        g = np.array([1.0, -2.0, 0.5, 0.0])
        for _ in range(3):
            acc.step(g)
            np.testing.assert_array_equal(acc.dw, g)
        assert acc.rows == 2
        zero = np.zeros(4)      # then H = 0 with no damping: dposv fails
        acc.step(zero)
        acc.step(zero)
        np.testing.assert_array_equal(acc.dw, zero)

    def test_damping_bounds_the_weights(self):
        # residuals that differ by 1e-6 of their norm: undamped, the least
        # squares fit would take weights of order 1e6
        rng = generator(3)
        g0 = rng.standard_normal(50)
        acc = solve._Anderson(50)
        for _ in range(12):
            acc.step(g0 + 1e-6 * np.linalg.norm(g0) * rng.standard_normal(50))
        assert np.linalg.norm(acc.dw) <= 2.0 * np.linalg.norm(g0)

    def test_rejected_step_returns_to_the_plain_step(self):
        acc = solve._Anderson(3)
        w = np.zeros(3)
        acc.advance(w, np.array([1.0, 0.0, 0.0]))   # empty memory: plain
        assert not acc.accelerated
        acc.advance(w, np.array([0.5, 0.5, 0.0]))   # one row: accelerated
        assert acc.accelerated and acc.rows == 1
        w_prev, g_prev = acc.w_prev.copy(), acc.g_prev.copy()
        np.testing.assert_array_equal(w_prev, [1.0, 0.0, 0.0])
        acc.advance(w, np.array([0.0, 0.0, 2.1]))   # > 2 * least = 2 ||g||
        assert w.tobytes() == (w_prev + g_prev).tobytes()
        assert (acc.rows, acc.slot, acc.paired) == (0, 0, False)
        g = np.array([0.25, 0.5, 0.0])              # memory empty: plain
        acc.advance(w, g)
        np.testing.assert_array_equal(acc.dw, g)
        assert w.tobytes() == (w_prev + g_prev + g).tobytes()

    def test_accepted_step_within_the_guard(self):
        acc = solve._Anderson(3)
        w = np.zeros(3)
        acc.advance(w, np.array([1.0, 0.0, 0.0]))
        acc.advance(w, np.array([0.5, 0.5, 0.0]))
        acc.advance(w, np.array([0.0, 0.0, 1.4]))   # < 2 * least = 1.41...
        assert acc.paired and acc.rows == 2

    # per problem/m pair at eta = 0.01 and 1.0, trials 0 and 1 of seed root
    # 5; the plain step needs 24,450 DR iterations for these 16 cells
    NOISY_CELLS = [(p, m, eta, t)
                   for p, ms in ((SparseL1(4, 128), (30, 54)),
                                 (LowRankS1(1, 8, 8), (30, 55)))
                   for m in ms for eta in (0.01, 1.0) for t in range(2)]

    def test_noisy_cells_converge_in_fewer_iterations(self, monkeypatch):
        def total(cells):
            iters = 0
            for problem, m, eta, t in cells:
                res, _ = solve_instance(problem, m,
                                        _cell_seed(5, 30_000 + m, t), eta,
                                        SolverOptions())
                assert res.stop_reason == "converged"
                iters += res.iterations
            return iters

        accelerated = total(self.NOISY_CELLS)
        monkeypatch.setattr(solve, "_douglas_rachford", functools.partial(
            reference_douglas_rachford, accelerate=False))
        assert accelerated < total(self.NOISY_CELLS)

    def test_noisy_phaselift_cell_converges(self):
        # the plain step caps this cell at 20,000 iterations
        res, rel = solve_instance(PhaseRetrieval(16), 96,
                                  _cell_seed(2, 40_096, 0), 1e-3,
                                  SolverOptions())
        assert res.stop_reason == "converged"
        assert rel < 1e-3


class TestConstrainedRecovery:
    def test_hand_case_against_grid_oracle(self):
        # min |x1|+|x2| s.t. (x1-3)^2 + x2^2 <= 1
        op = dense_op(np.eye(2))
        y = np.array([3.0, 0.0])
        res = recover_constrained(L1Norm(), op, y, eta=1.0)
        assert res.converged
        np.testing.assert_allclose(res.estimate, [2.0, 0.0], atol=1e-6)
        xs = np.linspace(1.5, 3.5, 401)
        ys = np.linspace(-1.0, 1.0, 401)
        gx, gy = np.meshgrid(xs, ys)
        feas = (gx - 3.0) ** 2 + gy ** 2 <= 1.0 + 1e-12
        grid_min = np.min(np.abs(gx[feas]) + np.abs(gy[feas]))
        assert res.objective <= grid_min + 1e-6

    def test_eta_zero_square_invertible(self):
        rng = generator(1)
        a = rng.standard_normal((4, 4))
        x = rng.standard_normal(4)
        res = recover_constrained(L1Norm(), dense_op(a), a @ x, eta=0.0)
        assert res.converged
        np.testing.assert_allclose(res.estimate, x, atol=1e-6)

    def test_sparse_recovery_instances(self):
        # s=1 in d=32 from m=20 Gaussian measurements, noiseless
        d, m = 32, 20
        for trial in range(5):
            rng = generator(200 + trial)
            x = np.zeros(d)
            x[rng.integers(0, d)] = float(rng.choice([-1.0, 1.0]))
            op = gaussian_ensemble(m, d, seed=300 + trial)
            res = recover_constrained(L1Norm(), op, apply(op, x), eta=0.0)
            assert res.converged
            assert np.linalg.norm(res.estimate - x) <= 1e-4

    def test_matches_l1_lp_oracle_small_d(self):
        rng = generator(2)
        for trial in range(10):
            d = int(rng.integers(2, 5))
            m = int(rng.integers(1, d))
            a = rng.standard_normal((m, d))
            x = np.zeros(d)
            x[rng.integers(0, d)] = float(rng.choice([-1.0, 1.0]))
            y = a @ x
            res = recover_constrained(L1Norm(), dense_op(a), y, eta=0.0)
            assert res.converged
            assert res.objective <= l1_equality_oracle(a, y) + 1e-5

    def test_low_rank_recovery(self):
        d1 = d2 = 6
        rng = generator(3)
        x = np.outer(rng.standard_normal(d1), rng.standard_normal(d2))
        op = gaussian_matrix_ensemble(30, d1, d2, seed=4)
        f = Schatten1Norm()
        res = recover_constrained(f, op, apply(op, x), eta=0.0)
        assert res.converged
        assert np.linalg.norm(res.estimate - x) / np.linalg.norm(x) <= 1e-4

    def test_feasibility_at_convergence(self):
        rng = generator(5)
        opts = SolverOptions()
        for trial in range(10):
            d, m = 10, 6
            a = rng.standard_normal((m, d))
            x = rng.standard_normal(d)
            eta = float(rng.uniform(0.0, 0.5))
            y = a @ x + (rng.standard_normal(m) * 0.01 if eta else 0.0)
            res = recover_constrained(L1Norm(), dense_op(a), y, eta, opts)
            if res.converged:
                scale = max(1.0, float(np.linalg.norm(y)))
                assert res.residual_norm <= eta + 10 * opts.tol * scale

    def test_tol_gates_reported_violation(self):
        # PhaseLift returns the prox iterate, whose violation tol gates: a
        # converged solve reports at most tol * ||y||, and a looser tol
        # stops no later
        d, m = 6, 14
        op = lifted_phase_ensemble(m, d, seed=500)
        y = apply(op, _lift(generator(400).standard_normal(d)))
        scale = float(np.linalg.norm(y))
        iters = []
        for tol in (1e-4, 1e-6, 1e-8):
            res = phase_retrieval_sdp(op, y, 0.0, SolverOptions(tol=tol))
            assert res.converged
            assert res.residual_norm <= tol * scale * (1 + 1e-9)
            iters.append(res.iterations)
        assert iters == sorted(iters) and iters[0] < iters[-1]

    def test_infeasible_eta_detected(self):
        # y has a component outside range(A) larger than eta
        a = np.array([[1.0, 0.0]])
        op = MeasurementOperator(OperatorKind.DENSE, 1, (2,), rows=a)
        # make it genuinely infeasible: A maps onto R^1, any y reachable;
        # use a rank-deficient 2-row operator instead
        a2 = np.array([[1.0, 0.0], [1.0, 0.0]])
        op2 = dense_op(a2)
        y = np.array([1.0, -1.0])   # needs opposite signs: impossible
        res = recover_constrained(L1Norm(), op2, y, eta=0.1)
        assert res.stop_reason == "infeasible" and not res.converged

    @pytest.mark.parametrize("c", [1.0, 1e-8, 1e-10])
    def test_infeasible_at_every_data_scale(self, c):
        # y leaves range(A) by 1e-5 ||y|| at every scale c; the verdict is
        # relative to ||y||, also where ||y_perp|| is far below 1e-10
        op = gaussian_ensemble(40, 20, seed=3)
        x = np.zeros(20)
        x[[2, 9, 15]] = [1.0, -2.0, 0.5]
        y = apply(op, x)
        u = np.linalg.svd(op.rows)[0][:, 20:]   # orthogonal to range(A)
        e = u @ generator(4).standard_normal(20)
        y_off = c * (y + 1e-5 * np.linalg.norm(y) * e / np.linalg.norm(e))
        assert _BallProjector(op, y_off, 0.0).infeasible
        res = recover_constrained(L1Norm(), op, y_off, 0.0,
                                  SolverOptions(max_iters=50))
        assert res.stop_reason == "infeasible"

    @pytest.mark.parametrize("op", [
        gaussian_ensemble(40, 20, seed=3), gaussian_ensemble(20, 40, seed=5),
        lifted_phase_ensemble(24, 8, seed=15)], ids=["40x20", "20x40", "lifted"])
    def test_consistent_tiny_data_stays_feasible(self, op):
        x = generator(6).standard_normal(op.signal_shape[0])
        y = apply(op, np.outer(x, x) if op.kind is OperatorKind.LIFTED else x)
        assert not _BallProjector(op, 1e-12 * y, 0.0).infeasible

    @pytest.mark.parametrize("eta", [0.0, 0.1])
    def test_rejects_wrong_length_y(self, eta):
        op = gaussian_ensemble(6, 4, seed=0)
        with pytest.raises(ValueError, match="measurement vector length"):
            recover_constrained(L1Norm(), op, np.ones(5), eta)
        with pytest.raises(ValueError, match="measurement vector length"):
            phase_retrieval_sdp(lifted_phase_ensemble(3, 2, seed=0),
                                np.ones(4), eta)

    def test_rejects_negative_eta_and_lifted(self):
        op = gaussian_ensemble(3, 2, seed=0)
        with pytest.raises(ValueError):
            recover_constrained(L1Norm(), op, np.zeros(3), eta=-1.0)
        lop = lifted_phase_ensemble(3, 2, seed=0)
        with pytest.raises(ValueError):
            recover_constrained(L1Norm(), lop, np.zeros(3), eta=0.0)

    @pytest.mark.parametrize("c", [1e-3, 1e-6])
    @pytest.mark.parametrize("problem, m, eta", [
        (SparseL1(4, 64), 40, 0.1), (LowRankS1(1, 8, 8), 55, 0.3),
        (PhaseRetrieval(8), 48, 0.3)], ids=["l1", "s1", "phase"])
    def test_noisy_solve_scale_covariant(self, problem, m, eta, c):
        # the eta > 0 prox step is 0.2 * eta and the gate follows ||y||, so
        # scaling (y, eta) by c scales every DR iterate by c: the same
        # iterations and estimate / c at every data scale
        x = problem.draw(generator(7))
        op = problem.operator(m, 8)
        y = measure_with_noise(op, x, noise_norm=eta, seed=9)
        res = problem.recover(op, y, eta, SolverOptions())
        res_c = problem.recover(op, c * y, c * eta, SolverOptions())
        assert res.converged and res_c.converged
        assert res_c.iterations == res.iterations
        np.testing.assert_allclose(
            res_c.estimate / c, res.estimate,
            rtol=0, atol=1e-12 * np.linalg.norm(res.estimate))

    @pytest.mark.parametrize("c", [1e-3, 1e-6])
    @pytest.mark.parametrize("problem, m", [
        (SparseL1(4, 64), 40), (LowRankS1(1, 8, 8), 55),
        (PhaseRetrieval(8), 30)], ids=["l1", "s1", "phase"])
    def test_exact_solve_scale_covariant(self, problem, m, c):
        # the eta = 0 prox step is 0.3 mean|y_i|, so scaling y by c scales
        # every DR iterate by c.  A fixed step of 1 takes the l1 cell 50,
        # 1,890 and 20,000 (capped, at 0.60 relative error) iterations at
        # c = 1, 1e-3 and 1e-6
        x = problem.draw(generator(7))
        op = problem.operator(m, 8)
        y = apply(op, x)
        res = problem.recover(op, y, 0.0, SolverOptions())
        res_c = problem.recover(op, c * y, 0.0, SolverOptions())
        assert res.converged and res_c.converged
        assert res_c.iterations == res.iterations
        rel, rel_c = (np.linalg.norm(est - x) / np.linalg.norm(x)
                      for est in (res.estimate, res_c.estimate / c))
        assert rel < 1e-6 and abs(rel_c - rel) <= 1e-6
        np.testing.assert_allclose(
            res_c.estimate / c, res.estimate,
            rtol=0, atol=1e-12 * np.linalg.norm(res.estimate))

    @pytest.mark.parametrize("factor", [1.0, 10.0])
    @pytest.mark.parametrize("problem, m", [
        (SparseL1(4, 64), 40), (LowRankS1(1, 8, 8), 55)], ids=["l1", "s1"])
    def test_eta_at_least_norm_y_gives_zero(self, problem, m, factor):
        # x = 0 is feasible once eta >= ||y||, and f(0) = 0 is the minimum
        x = problem.draw(generator(7))
        op = problem.operator(m, 8)
        y = apply(op, x)
        res = problem.recover(op, y, factor * float(np.linalg.norm(y)),
                              SolverOptions())
        assert res.converged and res.iterations == 10
        assert np.max(np.abs(res.estimate)) <= 1e-12 * np.linalg.norm(x)

    def test_nonconvergence_reported(self):
        op = gaussian_ensemble(6, 12, seed=9)
        x = generator(10).standard_normal(12)
        y = apply(op, x)
        res = recover_constrained(L1Norm(), op, y, 0.0,
                                  SolverOptions(max_iters=3))
        assert not res.converged
        assert res.iterations == 3


class TestL1KktOracle:
    """min ||x||_1 s.t. ||A x - y|| <= eta against its optimality
    conditions, the eta > 0 counterpart of the LP oracle at eta = 0."""

    @staticmethod
    def cell(m, eta, trial):
        problem = SparseL1(4, 128)
        rng = generator(1000 * m + 10 * trial + round(10 * eta))
        x = problem.draw(rng)
        op = problem.operator(m, int(rng.integers(0, 2 ** 62)))
        y = measure_with_noise(op, x, noise_norm=eta,
                               seed=int(rng.integers(0, 2 ** 62)))
        return L1Norm(), op, y

    @pytest.mark.parametrize("eta", [0.1, 0.3, 1.0])
    @pytest.mark.parametrize("m", [24, 54])
    def test_converged_estimates_satisfy_kkt(self, m, eta):
        for trial in range(3):
            f, op, y = self.cell(m, eta, trial)
            res = recover_constrained(f, op, y, eta)
            assert res.converged
            assert l1_kkt_ok(op.rows, y, eta, res.estimate), \
                l1_kkt_residuals(op.rows, y, eta, res.estimate)

    @pytest.mark.parametrize("eta", [0.1, 1.0])
    def test_rejects_early_stopped_estimate(self, eta):
        # 50 DR iterations leave the support's subgradient off by about 2.5
        f, op, y = self.cell(54, eta, 0)
        res = recover_constrained(f, op, y, eta, SolverOptions(max_iters=50))
        assert not res.converged
        assert not l1_kkt_ok(op.rows, y, eta, res.estimate)


class TestPhaseRetrievalSdp:
    def test_d2_m3_linear_system_oracle(self):
        for trial in range(5):
            rng = generator(600 + trial)
            x = np.array([1.0, 0.0]) if trial == 0 else rng.standard_normal(2)
            op = lifted_phase_ensemble(3, 2, seed=700 + trial)
            y = apply(op, np.outer(x, x))
            res = phase_retrieval_sdp(op, y, 0.0)
            assert res.converged
            oracle = phase_linear_oracle(op, y)
            assert np.linalg.eigvalsh(oracle).min() >= -1e-8
            np.testing.assert_allclose(res.estimate, oracle, atol=1e-6)

    def test_zero_measurements_zero_solution(self):
        op = lifted_phase_ensemble(4, 3, seed=1)
        res = phase_retrieval_sdp(op, np.zeros(4), 0.0)
        assert res.converged
        np.testing.assert_allclose(res.estimate, np.zeros((3, 3)), atol=1e-8)

    @pytest.mark.parametrize("c", [2.0, 1.0 / 64.0, 1e-3, 1e-6])
    def test_estimate_scales_with_data(self, c):
        # the prox step follows mean(y) and the stopping gate ||y||, so
        # scaling y by c scales every DR iterate and the gate by c; a fixed
        # step of 1 took 430 iterations at c = 1/64 against 50 at c = 1, and
        # a gate floored at 1 stopped after 10 at c = 1e-6, at 3.9e-3
        # relative error (m = 24 < d(d+1)/2: X is not fixed by the data)
        op = lifted_phase_ensemble(24, 8, seed=15)
        x = generator(16).standard_normal(8)
        xx = np.outer(x, x)
        y = apply(op, xx)
        res = phase_retrieval_sdp(op, y, 0.0)
        res_c = phase_retrieval_sdp(op, c * y, 0.0)
        assert res.converged and res_c.converged
        np.testing.assert_allclose(res_c.estimate, c * res.estimate,
                                   rtol=1e-8, atol=0)
        assert res_c.iterations == res.iterations
        rel = np.linalg.norm(res.estimate - xx) / np.linalg.norm(xx)
        rel_c = np.linalg.norm(res_c.estimate - c * xx) / np.linalg.norm(c * xx)
        assert rel_c == pytest.approx(rel, rel=1e-3)

    def test_d16_rank_one_recovery(self):
        d, m = 16, 128
        rng = generator(11)
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        op = lifted_phase_ensemble(m, d, seed=12)
        y = apply(op, np.outer(x, x))
        res = phase_retrieval_sdp(op, y, 0.0)
        assert res.converged
        rel = np.linalg.norm(res.estimate - np.outer(x, x))
        assert rel <= 1e-4

    def test_estimate_is_psd(self):
        op = lifted_phase_ensemble(10, 4, seed=13)
        x = generator(14).standard_normal(4)
        y = apply(op, np.outer(x, x))
        res = phase_retrieval_sdp(op, y, 0.0)
        assert np.linalg.eigvalsh(res.estimate).min() >= -1e-10

    @staticmethod
    def orthogonal_first_vector_op():
        # psi_0 orthogonal to x, so y_0 = (psi_0^t x)^2 is 0 up to rounding
        x = generator(1).standard_normal(8)
        psi = generator(2).standard_normal((40, 8))
        psi[0] -= (psi[0] @ x) / (x @ x) * x
        return x, MeasurementOperator(OperatorKind.LIFTED, 40, (8, 8),
                                      vectors=psi)

    @pytest.mark.parametrize("c", [1.0, 1e4, 1e6])
    def test_magnitude_floor_is_relative(self, c):
        # y_0 rounds to -3.1e-8 at c = 1e4 (max y_i = 3.2e9), which a floor
        # of -1e-10 refused; the floor is -1e-10 ||y||
        x, op = self.orthogonal_first_vector_op()
        xx = np.outer(c * x, c * x)
        res = phase_retrieval_sdp(op, apply(op, xx), 0.0)
        assert res.converged
        assert np.linalg.norm(res.estimate - xx) <= 1e-10 * np.linalg.norm(xx)

    def test_negative_magnitude_relative_to_max_rejected(self):
        x, op = self.orthogonal_first_vector_op()
        y = apply(op, np.outer(x, x))
        y[0] = -1e-3 * np.max(y)
        with pytest.raises(ValueError, match="magnitudes"):
            phase_retrieval_sdp(op, y, 0.0)

    def test_noisy_magnitudes_down_to_minus_eta(self):
        # noise of norm eta takes the y_i near 0 below it, by at most eta:
        # such data are solved inside the ball, and a y_i below -eta less
        # the floor is refused
        x, op = self.orthogonal_first_vector_op()
        eta = 0.3
        y = measure_with_noise(op, np.outer(x, x), noise_norm=eta, seed=9)
        assert np.any(y < 0)
        res = phase_retrieval_sdp(op, y, eta)
        assert res.converged
        assert res.residual_norm <= eta + 1e-8 * np.linalg.norm(y)
        y[0] = -eta
        assert phase_retrieval_sdp(op, y, eta, SolverOptions(
            max_iters=10)).stop_reason != "infeasible"
        y[0] = -eta - 1e-6 * np.linalg.norm(y)
        with pytest.raises(ValueError, match="magnitudes"):
            phase_retrieval_sdp(op, y, eta)

    def test_prox_matches_spectrum_where_dsyevr_fails(self, monkeypatch):
        # +-1 sampling vectors measure e_1 e_1^t as y = 1, and the first
        # prox gets 0.425 I plus rounding at step 0.3, where LAPACK's
        # value-range dsyevr reports info = 1; every prox of the solve must
        # match the full-spectrum formula
        psi = generator(48001).choice([-1.0, 1.0], size=(48, 8))
        op = MeasurementOperator(OperatorKind.LIFTED, 48, (8, 8), vectors=psi)
        prox, devs = TracePSD.prox, []

        def checked(self, z, t):
            got = prox(self, z, t)
            devs.append(np.linalg.norm(got - test_reg.eigh_prox(z, t))
                        / np.linalg.norm(z))
            return got

        monkeypatch.setattr(TracePSD, "prox", checked)
        res = phase_retrieval_sdp(op, apply(op, np.diag([1.0] + [0.0] * 7)),
                                  0.0)
        assert res.converged and len(devs) == res.iterations
        assert max(devs) <= 1e-12

    def test_rejects_bad_inputs(self):
        op = lifted_phase_ensemble(3, 2, seed=0)
        with pytest.raises(ValueError):
            phase_retrieval_sdp(op, -np.ones(3), 0.0)  # negative magnitudes
        with pytest.raises(ValueError):
            phase_retrieval_sdp(op, np.ones(4), 0.0)   # length mismatch
        dop = gaussian_ensemble(3, 2, seed=0)
        with pytest.raises(ValueError):
            phase_retrieval_sdp(dop, np.ones(3), 0.0)  # not lifted


class TestGramCholeskyFallback:
    def test_eigenbasis_fallback_solves_alike(self, monkeypatch):
        # one PhaseLift row (positive definite G: m = 22 < d(d+1)/2 = 36)
        # solved through the Cholesky inverse, then with dpotrf reporting
        # failure, so that every cell takes the eigh projector
        problem, m, thr = PhaseRetrieval(8), 22, 1e-4

        def row():
            return [solve_instance(problem, m, _cell_seed(5, 0, t), 0.0,
                                   SolverOptions()) for t in range(5)]

        fast = row()
        monkeypatch.setattr(solve.lapack, "dpotrf", lambda g, **kw: (g, 1))
        slow = row()
        for (res, rel), (ref, ref_rel) in zip(fast, slow):
            assert res.iterations == ref.iterations
            assert res.converged == ref.converged
            assert (res.converged and rel <= thr) == (ref.converged and ref_rel <= thr)
            # the signal x is a unit vector: ||x x^t|| = ||x||^2 = 1
            assert np.linalg.norm(res.estimate - ref.estimate) <= 1e-9


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(max_iters=0)
        with pytest.raises(ValueError):
            SolverOptions(tol=0.0)
        with pytest.raises(ValueError):
            SolverOptions(tol=-1e-8)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol_refused(self, tol):
        with pytest.raises(ValueError, match="tol"):
            SolverOptions(tol=tol)

    @pytest.mark.parametrize("max_iters", [2.5, True, False])
    def test_bool_or_fractional_max_iters_refused(self, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            SolverOptions(max_iters=max_iters)

    def test_integral_max_iters_read_as_int(self):
        opts = SolverOptions(max_iters=30.0)
        assert opts.max_iters == 30 and type(opts.max_iters) is int
        op = gaussian_ensemble(6, 12, seed=9)
        y = apply(op, generator(10).standard_normal(12))
        res = recover_constrained(L1Norm(), op, y, 0.1, opts)
        assert res.iterations == 30 and res.stop_reason == "max_iters"

    def test_result_fields(self):
        r = RecoveryResult(np.zeros(2), 0.0, 0.0, 5, "converged")
        assert r.converged and not hasattr(r, "infeasible")


def l1_solve(op, y, eta, opts=None):
    return recover_constrained(L1Norm(), op, y, eta, opts)


class TestStopReason:
    # each test solves with both programs; ``converged`` is read from the
    # stop reason, never stored beside it
    @staticmethod
    def phaselift_data():
        op = lifted_phase_ensemble(24, 8, seed=15)
        x = generator(6).standard_normal(8)
        return op, apply(op, np.outer(x, x))

    def check(self, res, reason):
        assert res.stop_reason == reason
        assert res.converged == (res.stop_reason == "converged")

    def test_converged(self):
        op = gaussian_ensemble(6, 12, seed=9)
        self.check(l1_solve(op, apply(op, np.eye(12)[3]), 0.1), "converged")
        self.check(phase_retrieval_sdp(*self.phaselift_data(), 0.0),
                   "converged")

    def test_max_iters(self):
        op = gaussian_ensemble(6, 12, seed=9)
        y = apply(op, generator(10).standard_normal(12))
        opts = SolverOptions(max_iters=3)
        for res in (l1_solve(op, y, 0.1, opts),
                    phase_retrieval_sdp(*self.phaselift_data(), 0.0, opts)):
            assert res.iterations == 3
            self.check(res, "max_iters")

    def test_infeasible(self):
        # two equal rows cannot reach opposite signs
        op = dense_op([[1.0, 0.0], [1.0, 0.0]])
        self.check(l1_solve(op, np.array([1.0, -1.0]), 0.1), "infeasible")
        # y + 1 stays a valid magnitude vector and leaves range(Phi)
        op, x = PROJECTOR_CASES["lifted-d4-m30"]()
        self.check(phase_retrieval_sdp(op, apply(op, x) + 1.0, 0.0,
                                       SolverOptions(max_iters=50)),
                   "infeasible")
