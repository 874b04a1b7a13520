"""Minimum conic singular values, the deterministic error bound checked
against the solver, and conic weak duality on explicit low-dimensional
cones."""

import math

import numpy as np
import pytest
from scipy.optimize import nnls

from conicrecovery import measure, solve
from conicrecovery.conic import (
    DescentCone,
    Subspace,
    deterministic_error_bound,
    lambda_min_empirical,
)
from conicrecovery.measure import MeasurementOperator, OperatorKind, gaussian_ensemble
from conicrecovery.reg import L1Norm
from conicrecovery.rng import generator


def dense_op(mat):
    mat = np.asarray(mat, dtype=float)
    return MeasurementOperator(OperatorKind.DENSE, mat.shape[0],
                               (mat.shape[1],), rows=mat)


def cone_projection(gens, g):
    """Euclidean projection onto the cone generated by rows of gens.

    Nonnegative least squares on the generator matrix gives the conic
    coefficients of the nearest point; by polarity its norm equals
    dist(g, polar cone).
    """
    coef, _ = nnls(gens.T, g)
    return gens.T @ coef


def l1_cone_lambda_lower(mat, resolution=1e-4):
    """Certified lower bound on lambda_min of a 2-column matrix over the
    descent cone of l1 at (1, 0), {u : u_1 <= -|u_2|}.

    The cone's unit directions are the angles [3pi/4, 5pi/4]; every one lies
    within resolution/2 of the angular net, so the net minimum exceeds the
    true one by at most ||Phi|| * resolution.
    """
    thetas = np.arange(0.75 * np.pi, 1.25 * np.pi + resolution, resolution)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    net_min = float(np.min(np.linalg.norm(dirs @ mat.T, axis=1)))
    return net_min - np.linalg.norm(mat, 2) * resolution


class TestExactModes:
    def test_identity_full_space(self):
        res = lambda_min_empirical(dense_op(np.eye(4)), Subspace(np.eye(4)))
        assert res.value == pytest.approx(1.0)
        assert res.mode == "exact" and res.certified

    def test_diag_on_subspace(self):
        op = dense_op(np.diag([3.0, 2.0]))
        res = lambda_min_empirical(op, Subspace(np.array([[0.0], [1.0]])))
        assert res.value == pytest.approx(2.0)
        assert res.certified

    def test_full_space_matches_svd(self):
        op = gaussian_ensemble(12, 5, seed=3)
        res = lambda_min_empirical(op, Subspace(np.eye(5)))
        # the identity basis is exact: Phi @ I is Phi bit for bit
        assert res.value == np.linalg.svd(op.rows, compute_uv=False)[-1]

    @pytest.mark.parametrize("cone", [Subspace(np.eye(10)), Subspace(np.eye(10, 8))])
    def test_wide_restricted_matrix_has_zero_lambda(self, cone):
        # 5 rows restricted to 10 or 8 columns: Phi has a kernel in the cone
        op = gaussian_ensemble(5, 10, seed=0)
        res = lambda_min_empirical(op, cone)
        assert (res.value, res.mode, res.certified) == (0.0, "exact", True)
        assert deterministic_error_bound(0.1, res.value) == float("inf")

    def test_square_restricted_matrix_uses_svd(self):
        op = gaussian_ensemble(5, 10, seed=0)
        basis = np.eye(10, 5)
        res = lambda_min_empirical(op, Subspace(basis))
        assert res.value == np.linalg.svd(op.rows @ basis, compute_uv=False)[-1]
        assert res.value > 0

    @pytest.mark.parametrize("shape", [(3, 4), (3, 0), (3,)])
    def test_subspace_rejects_bad_basis_shape(self, shape):
        with pytest.raises(ValueError, match="1 <= k <= d"):
            Subspace(np.ones(shape))

    def test_dimension_mismatch(self):
        op = dense_op(np.eye(3))
        with pytest.raises(ValueError, match="cone dimension mismatch"):
            lambda_min_empirical(op, Subspace(np.eye(4)))
        with pytest.raises(ValueError, match="cone dimension mismatch"):
            lambda_min_empirical(op, DescentCone(L1Norm(np.ones(4))))
        with pytest.raises(ValueError, match="need a reference point"):
            lambda_min_empirical(op, DescentCone(L1Norm()))

    def test_lifted_operator_rejected(self):
        op = measure.lifted_phase_ensemble(3, 2, seed=0)
        with pytest.raises(ValueError):
            lambda_min_empirical(op, Subspace(np.eye(4)))


class TestHeuristicMode:
    def test_bracketed_by_member_and_full_space(self):
        # descent cone of l1 at e1 contains -e1 and sits inside R^d, so
        # the heuristic value is sandwiched between the full-space
        # smallest singular value and ||Phi(-e1)||
        d, m = 6, 12
        op = gaussian_ensemble(m, d, seed=15)
        x = np.zeros(d)
        x[0] = 1.0
        f = L1Norm(x)
        res = lambda_min_empirical(op, DescentCone(f), restarts=8, iters=200)
        assert res.mode == "upper-bound (heuristic)" and not res.certified
        full = np.linalg.svd(op.rows, compute_uv=False)[-1]
        member = float(np.linalg.norm(op.rows @ (-x)))
        assert full - 1e-9 <= res.value <= member + 1e-9

    def test_deterministic_in_seed(self):
        op = gaussian_ensemble(8, 4, seed=2)
        f = L1Norm(np.array([1.0, 0.0, 0.0, 0.0]))
        a = lambda_min_empirical(op, DescentCone(f), restarts=4, iters=100, seed=7)
        b = lambda_min_empirical(op, DescentCone(f), restarts=4, iters=100, seed=7)
        assert a.value == b.value


class TestErrorBound:
    def test_values(self):
        assert deterministic_error_bound(0.1, 2.0) == pytest.approx(0.1)
        assert deterministic_error_bound(0.0, 5.0) == 0.0
        assert deterministic_error_bound(1.0, 0.0) == float("inf")

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            deterministic_error_bound(-0.1, 1.0)

    def test_consistent_with_solver(self):
        # d=2 instance where the descent cone of l1 at (1,0) is spanned by
        # (-1,1) and (-1,-1); 2*eta over the certified net lower bound on
        # lambda_min must dominate the observed error
        x_true = np.array([1.0, 0.0])
        for trial in range(5):
            op = gaussian_ensemble(4, 2, seed=60 + trial)
            eta = 0.05
            y = measure.measure_with_noise(op, x_true, noise_norm=eta,
                                           seed=70 + trial)
            lam_lower = l1_cone_lambda_lower(op.rows)
            if lam_lower <= 0:
                continue
            sol = solve.recover_constrained(L1Norm(x_true), op, y, eta)
            assert sol.converged
            err = np.linalg.norm(sol.estimate - x_true)
            assert err <= deterministic_error_bound(eta, lam_lower) + 1e-8


class TestGordonValidity:
    def test_full_space_frequency(self):
        # smallest singular value of a 200 x 50 Gaussian matrix vs the
        # probabilistic lower bound sqrt(m-1) - sqrt(d) - t at t=2
        m, d, t = 200, 50, 2.0
        bound = math.sqrt(m - 1) - math.sqrt(d) - t
        hits = 0
        for trial in range(100):
            op = gaussian_ensemble(m, d, seed=1000 + trial)
            lam = lambda_min_empirical(op, Subspace(np.eye(d))).value
            hits += lam >= bound
        assert hits / 100 >= 1.0 - math.exp(-t * t / 2.0) - 0.02


class TestWeakDuality:
    def test_net_sup_below_polar_distance(self):
        # sup over the cone's unit sphere of <u, g> never exceeds the
        # distance from g to the polar cone (norm of the cone projection)
        rng = generator(66)
        for _ in range(10):
            d = int(rng.integers(2, 4))
            k = int(rng.integers(1, 4))
            gens = rng.standard_normal((k, d))
            gens /= np.linalg.norm(gens, axis=1, keepdims=True)
            # dense net of unit directions inside the cone
            w = rng.random((4000, k))
            net = w @ gens
            norms = np.linalg.norm(net, axis=1)
            net = net[norms > 1e-9] / norms[norms > 1e-9, None]
            for _ in range(20):
                g = rng.standard_normal(d)
                net_sup = float(np.max(net @ g))
                polar_dist = float(np.linalg.norm(cone_projection(gens, g)))
                assert net_sup <= polar_dist + 1e-9
