"""Recovery solvers: constrained norm minimization and the phase-retrieval
trace-minimization program, checked against brute-force oracles."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from conicrecovery import solve
from conicrecovery.harness import LowRankS1, PhaseRetrieval, SparseL1
from conicrecovery.measure import (
    MeasurementOperator,
    OperatorKind,
    apply,
    gaussian_ensemble,
    gaussian_matrix_ensemble,
    lifted_phase_ensemble,
    measure_with_noise,
)
from conicrecovery.reg import L1Norm, Schatten1Norm
from conicrecovery.rng import generator
from conicrecovery.solve import (
    RecoveryResult,
    SolverOptions,
    _BallProjector,
    phase_retrieval_sdp,
    recover_constrained,
)


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


def ill_conditioned_op(m, n, cond, seed):
    """Dense m x n operator (m <= n) with singular values log-spaced from
    1 down to 1/cond."""
    rng = generator(seed)
    u = np.linalg.qr(rng.standard_normal((m, m)))[0]
    v = np.linalg.qr(rng.standard_normal((n, m)))[0]
    return dense_op(u @ np.diag(np.logspace(0, -math.log10(cond), m)) @ v.T)


# (operator, signal drawn for consistent data); the first has a Gram
# condition number of 1e6, the last four a singular Gram matrix: dense
# with m > n, lifted with m > d(d+1)/2
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
}
SINGULAR_CASES = ["dense-12x5", "dense-40x8", "lifted-d2-m4", "lifted-d4-m30"]
DENSE_CASES = [c for c in PROJECTOR_CASES if c.startswith("dense")]


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

    @pytest.mark.parametrize("case", DENSE_CASES)
    def test_dense_eta_zero_matches_gram_correction(self, case):
        # a dense operator at eta = 0 applies Phi^+ as one n x m matrix; it
        # agrees with the correction taken through the Gram eigenbasis
        op, x = PROJECTOR_CASES[case]()
        a = explicit_design(op)
        y = apply(op, x)
        proj = _BallProjector(op, y, 0.0)
        assert proj.pinv.shape == (a.shape[1], op.m)
        rng = generator(48)
        for _ in range(5):
            p = 3.0 * rng.standard_normal(a.shape[1])
            want = p - a.T @ (proj.q @ ((proj.q.T @ (a @ p - y)) / proj.lam))
            np.testing.assert_allclose(proj(p), want, rtol=0,
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
            def solve(op, y, opts=None):
                return recover_constrained(L1Norm(), op, y, 0.0, opts)
        y = apply(op, x)
        res = solve(op, y)
        assert res.converged and not res.infeasible
        assert np.linalg.norm(res.estimate - x) <= 1e-8 * np.linalg.norm(x)
        # y + 1 stays a valid magnitude vector and leaves range(Phi)
        bad = solve(op, y + 1.0, SolverOptions(max_iters=50))
        assert bad.infeasible and not bad.converged

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
            phase_retrieval_sdp(op, y, SolverOptions(max_iters=5))
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
            assert res.infeasible and res.stop_reason == "infeasible"


def reference_douglas_rachford(f, proj, opts, gamma):
    """The DR loop written with a fresh array for every intermediate, the
    l1 prox as sign(z) (|z| - t)_+ and Phi^+ applied with ``@``: the
    arithmetic that the solver's in-place loop must reproduce bit for bit."""
    shape = proj.op.signal_shape

    def prox(z, t):
        if isinstance(f, L1Norm):
            return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)
        return f.prox(z, t)

    def project(p):
        if proj.pinv is not None:
            return p - proj.pinv @ (proj.op.rows @ p - proj.y)
        return proj(p)

    w = np.zeros(math.prod(shape))
    x = v = w
    converged = False
    it = 0
    gate = opts.tol * proj.scale
    for it in range(1, opts.max_iters + 1):
        x = project(w)
        v = prox((2.0 * x - w).reshape(shape), gamma).ravel()
        step = v - x
        w = w + step
        if it % 10 == 0 or it == opts.max_iters:
            if (np.linalg.norm(step) <= gate
                    and proj.misfit(v) - proj.eta <= gate):
                converged = True
                break
    return x, v, it, converged and not proj.infeasible


# (problem, m, eta, trial): the l1 cells at m = 16 and 54 take the Phi^+
# branch, the low-rank ones the secular solve (eta = 0.3) and the
# inside-ball branch (eta = 3 ||y||)
REFERENCE_CELLS = (
    [(SparseL1(4, 128), m, 0.0, t) for m in (16, 54) for t in range(6)]
    + [(LowRankS1(1, 8, 8), 55, eta, t) for eta in (0.3, "3|y|")
       for t in range(3)]
    + [(PhaseRetrieval(8), 24, 0.0, t) for t in range(3)])


def solve_reference_cell(problem, m, eta, trial):
    rng = generator(1000 * m + trial)
    x = problem.draw(rng)
    op = problem.operator(m, int(rng.integers(0, 2 ** 62)))
    if isinstance(problem, PhaseRetrieval):
        return phase_retrieval_sdp(op, apply(op, _lift(x)))
    if eta == "3|y|":
        y = apply(op, x)
        eta = 3.0 * float(np.linalg.norm(y))
    else:
        y = measure_with_noise(op, x, noise_norm=eta,
                               seed=int(rng.integers(0, 2 ** 62)))
    return recover_constrained(problem.regularizer(), op, y, eta)


class TestInPlaceDrStep:
    @pytest.mark.parametrize("problem, m, eta, trial", REFERENCE_CELLS,
                             ids=[f"{type(p).__name__}-m{m}-eta{e}-t{t}"
                                  for p, m, e, t in REFERENCE_CELLS])
    def test_bit_identical_to_allocating_loop(self, monkeypatch, problem, m,
                                              eta, trial):
        got = solve_reference_cell(problem, m, eta, trial)
        monkeypatch.setattr(solve, "_douglas_rachford",
                            reference_douglas_rachford)
        want = solve_reference_cell(problem, m, eta, trial)
        assert got.estimate.tobytes() == want.estimate.tobytes()
        assert got.iterations == want.iterations
        assert got.stop_reason == want.stop_reason


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
        # converged solve reports at most tol * max(1, max |y_i|), and a
        # looser tol stops no later
        d, m = 6, 14
        op = lifted_phase_ensemble(m, d, seed=500)
        y = apply(op, _lift(generator(400).standard_normal(d)))
        scale = max(1.0, float(np.max(np.abs(y))))
        iters = []
        for tol in (1e-4, 1e-6, 1e-8):
            res = phase_retrieval_sdp(op, y, SolverOptions(tol=tol))
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
        assert res.infeasible and not res.converged

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
            phase_retrieval_sdp(lifted_phase_ensemble(3, 2, seed=0), np.ones(4))

    def test_rejects_negative_eta_and_lifted(self):
        op = gaussian_ensemble(3, 2, seed=0)
        with pytest.raises(ValueError):
            recover_constrained(L1Norm(), op, np.zeros(3), eta=-1.0)
        lop = lifted_phase_ensemble(3, 2, seed=0)
        with pytest.raises(ValueError):
            recover_constrained(L1Norm(), lop, np.zeros(3), eta=0.0)

    @pytest.mark.parametrize("c", [1e-3, 1e-6])
    @pytest.mark.parametrize("problem, m, eta", [
        (SparseL1(4, 64), 40, 0.1), (LowRankS1(1, 8, 8), 55, 0.3)],
        ids=["l1", "s1"])
    def test_noisy_solve_scale_covariant(self, problem, m, eta, c):
        # the eta > 0 prox step is 0.2 * eta and the gate follows ||y||, so
        # scaling (y, eta) by c scales every DR iterate by c: the same
        # iterations and estimate / c at every data scale
        x = problem.draw(generator(7))
        op = problem.operator(m, 8)
        y = measure_with_noise(op, x, noise_norm=eta, seed=9)
        f = problem.regularizer()
        res = recover_constrained(f, op, y, eta)
        res_c = recover_constrained(f, op, c * y, c * eta)
        assert res.converged and res_c.converged
        assert res_c.iterations == res.iterations
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
        res = recover_constrained(problem.regularizer(), op, y,
                                  factor * float(np.linalg.norm(y)))
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
        return problem.regularizer(), op, y

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
            res = phase_retrieval_sdp(op, y)
            assert res.converged
            oracle = phase_linear_oracle(op, y)
            assert np.linalg.eigvalsh(oracle).min() >= -1e-8
            np.testing.assert_allclose(res.estimate, oracle, atol=1e-6)

    def test_zero_measurements_zero_solution(self):
        op = lifted_phase_ensemble(4, 3, seed=1)
        res = phase_retrieval_sdp(op, np.zeros(4))
        assert res.converged
        np.testing.assert_allclose(res.estimate, np.zeros((3, 3)), atol=1e-8)

    @pytest.mark.parametrize("c", [2.0, 1.0 / 64.0, 1e-3, 1e-6])
    def test_estimate_scales_with_data(self, c):
        # the prox step follows mean(y) and the stopping gate max y_i, so
        # scaling y by c scales every DR iterate and the gate by c; a fixed
        # step of 1 took 430 iterations at c = 1/64 against 50 at c = 1, and
        # a gate floored at 1 stopped after 10 at c = 1e-6, at 3.9e-3
        # relative error (m = 24 < d(d+1)/2: X is not fixed by the data)
        op = lifted_phase_ensemble(24, 8, seed=15)
        x = generator(16).standard_normal(8)
        xx = np.outer(x, x)
        y = apply(op, xx)
        res, res_c = phase_retrieval_sdp(op, y), phase_retrieval_sdp(op, c * y)
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
        res = phase_retrieval_sdp(op, y)
        assert res.converged
        rel = np.linalg.norm(res.estimate - np.outer(x, x))
        assert rel <= 1e-4

    def test_estimate_is_psd(self):
        op = lifted_phase_ensemble(10, 4, seed=13)
        x = generator(14).standard_normal(4)
        y = apply(op, np.outer(x, x))
        res = phase_retrieval_sdp(op, y)
        assert np.linalg.eigvalsh(res.estimate).min() >= -1e-10

    def test_rejects_bad_inputs(self):
        op = lifted_phase_ensemble(3, 2, seed=0)
        with pytest.raises(ValueError):
            phase_retrieval_sdp(op, -np.ones(3))      # negative magnitudes
        with pytest.raises(ValueError):
            phase_retrieval_sdp(op, np.ones(4))       # length mismatch
        dop = gaussian_ensemble(3, 2, seed=0)
        with pytest.raises(ValueError):
            phase_retrieval_sdp(dop, np.ones(3))      # not lifted


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(max_iters=0)
        with pytest.raises(ValueError):
            SolverOptions(tol=0.0)
        with pytest.raises(ValueError):
            SolverOptions(tol=-1e-8)

    def test_result_fields(self):
        r = RecoveryResult(np.zeros(2), 0.0, 0.0, 5, True)
        assert not r.infeasible


class TestStopReason:
    def test_converged(self):
        op = gaussian_ensemble(6, 12, seed=9)
        y = apply(op, np.eye(12)[3])
        res = recover_constrained(L1Norm(), op, y, 0.1)
        assert res.converged and res.stop_reason == "converged"

    def test_max_iters(self):
        op = gaussian_ensemble(6, 12, seed=9)
        y = apply(op, generator(10).standard_normal(12))
        res = recover_constrained(L1Norm(), op, y, 0.1,
                                  SolverOptions(max_iters=3))
        assert res.iterations == 3 and res.stop_reason == "max_iters"

    def test_infeasible(self):
        # two equal rows cannot reach opposite signs
        op = dense_op([[1.0, 0.0], [1.0, 0.0]])
        res = recover_constrained(L1Norm(), op, np.array([1.0, -1.0]), 0.1)
        assert not res.converged and res.stop_reason == "infeasible"
