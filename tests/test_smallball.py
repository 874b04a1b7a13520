"""Marginal tail estimation, mean empirical width, bound assembly, and the
second-moment identity for lifted rank-one measurements."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from conicrecovery.conic import Subspace
from conicrecovery.measure import (
    gaussian_row_sampler,
    lifted_row_sampler,
    rademacher_atom,
    bounded_row_sampler,
    uniform_atom,
)
from conicrecovery.reg import L1Norm, TracePSD
from conicrecovery.rng import CHUNK_ITEMS, generator, spawn_generators
from conicrecovery.smallball import (
    SubgaussianParams,
    bowling_width_descent,
    estimate_marginal_tail,
    estimate_mean_empirical_width,
    paley_zygmund_tail,
    phase_second_moment,
    small_ball_lower_bound,
    subgaussian_conic_bound,
)


def sphere_dirs(d):
    def sample(rng, n):
        g = rng.standard_normal((n, d))
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    return sample


ROW_SAMPLERS = {
    "gaussian": lambda d: gaussian_row_sampler(d),
    "rademacher": lambda d: bounded_row_sampler(d, rademacher_atom()),
    "uniform": lambda d: bounded_row_sampler(d, uniform_atom()),
}


class TestMarginalTail:
    def test_zero_threshold_is_one(self):
        est = estimate_marginal_tail(gaussian_row_sampler(5), sphere_dirs(5),
                                     0.0, seed=1)
        assert est.q_min == 1.0 and est.q_mean == 1.0

    def test_gaussian_quartile(self):
        # <u, phi> is standard normal for any unit u; P{|N| >= 0.6745} = 1/2
        xi = 0.6745
        est = estimate_marginal_tail(gaussian_row_sampler(8), sphere_dirs(8),
                                     xi, n_dirs=20, n_samples=20_000, seed=2)
        truth = 2.0 * norm.sf(xi)
        se = math.sqrt(truth * (1 - truth) / 20_000)
        assert abs(est.q_mean - truth) <= 5 * se
        # the min over directions is biased low but not far at this scale
        assert est.q_min <= est.q_mean
        assert est.q_min >= truth - 6 * se

    def test_large_threshold_negligible(self):
        est = estimate_marginal_tail(gaussian_row_sampler(4), sphere_dirs(4),
                                     10.0, seed=3)
        assert est.q_min <= 1e-3

    def test_monotone_in_xi_shared_sample(self):
        xis = np.linspace(0.0, 3.0, 31)
        ests = estimate_marginal_tail(gaussian_row_sampler(6), sphere_dirs(6),
                                      xis, seed=4)
        qmins = [e.q_min for e in ests]
        qmeans = [e.q_mean for e in ests]
        assert all(b <= a for a, b in zip(qmins, qmins[1:]))
        assert all(b <= a for a, b in zip(qmeans, qmeans[1:]))

    def test_rejects_nonunit_directions(self):
        def bad(rng, n):
            return 2.0 * np.ones((n, 3)) / math.sqrt(3)
        with pytest.raises(ValueError):
            estimate_marginal_tail(gaussian_row_sampler(3), bad, 0.5)

    def test_rejects_zero_direction(self):
        def bad(rng, n):
            return np.zeros((n, 3))
        with pytest.raises(ValueError):
            estimate_marginal_tail(gaussian_row_sampler(3), bad, 0.5)

    def test_deterministic(self):
        a = estimate_marginal_tail(gaussian_row_sampler(3), sphere_dirs(3),
                                   0.5, seed=11)
        b = estimate_marginal_tail(gaussian_row_sampler(3), sphere_dirs(3),
                                   0.5, seed=11)
        assert a == b

    @pytest.mark.parametrize("sampler", ROW_SAMPLERS)
    def test_chunks_equal_one_sample_set(self, sampler):
        # reference: every sample drawn in one call, all inner products kept
        d, n_dirs, n_samples, seed = 6, 9, 4 * CHUNK_ITEMS + 37, 12
        xis = [0.0, 0.3, 0.8, 1.5]
        phi = ROW_SAMPLERS[sampler](d)
        rng_dirs, rng_phi = spawn_generators(seed, 2)
        dirs = sphere_dirs(d)(rng_dirs, n_dirs)
        inner = np.abs(phi(rng_phi, n_samples) @ dirs.T)
        ests = estimate_marginal_tail(phi, sphere_dirs(d), xis, n_dirs=n_dirs,
                                      n_samples=n_samples, seed=seed)
        for x, est in zip(xis, ests):
            freq = np.mean(inner >= x, axis=0)
            assert (est.q_min, est.q_mean) == (float(freq.min()), float(freq.mean()))


class TestEmpiricalWidth:
    def test_sphere_is_norm_of_h(self):
        # for the full sphere the per-trial sup is ||h||; with Gaussian
        # rows h is exactly N(0, I_d), so the mean is E||g_d||
        d = 9
        est = estimate_mean_empirical_width(gaussian_row_sampler(d), "sphere",
                                            m=7, trials=4000, seed=5)
        exact = math.sqrt(2) * math.gamma(5.0) / math.gamma(4.5)
        assert abs(est.w_hat - exact) <= 4 * est.std_error

    def test_subspace_matches_projected_norm(self):
        d, k = 12, 4
        sub = Subspace(np.eye(d)[:, :k])
        est = estimate_mean_empirical_width(gaussian_row_sampler(d), sub,
                                            m=50, trials=3000, seed=6)
        assert math.sqrt(k - 1) - 3 * est.std_error <= est.w_hat
        assert est.w_hat <= math.sqrt(k) + 3 * est.std_error

    def test_m_one_symmetric_ensemble(self):
        # m=1: h = +-phi_1; by sign symmetry of the Rademacher atom the
        # sphere sup ||h|| has the same distribution as ||phi_1|| = sqrt(d)
        d = 4
        est = estimate_mean_empirical_width(
            bounded_row_sampler(d, rademacher_atom()), "sphere", m=1,
            trials=200, seed=7)
        assert est.w_hat == pytest.approx(math.sqrt(d))
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            estimate_mean_empirical_width(gaussian_row_sampler(3), "sphere",
                                          m=0, trials=10)
        with pytest.raises(TypeError):
            estimate_mean_empirical_width(gaussian_row_sampler(3), object(),
                                          m=3, trials=2)


class TestBoundAssembly:
    def test_small_ball_direct_value(self):
        assert small_ball_lower_bound(0.5, 400, 0.9, 3.0, 1.0) == pytest.approx(2.5)

    def test_small_ball_vacuous_cases(self):
        assert small_ball_lower_bound(0.5, 100, 0.0, 3.0, 1.0) == pytest.approx(-6.5)
        assert small_ball_lower_bound(0.5, 100, 0.8, 0.0, 0.0) == pytest.approx(4.0)

    def test_small_ball_monotonicity(self):
        rng = generator(12)
        for _ in range(200):
            xi, w, t = rng.uniform(0.01, 2, size=3)
            q = float(rng.uniform(0.0, 0.9))
            m = int(rng.integers(1, 500))
            base = small_ball_lower_bound(xi, m, q, w, t)
            assert small_ball_lower_bound(xi, m + 10, q, w, t) >= base
            assert small_ball_lower_bound(xi, m, q + 0.1, w, t) >= base
            assert small_ball_lower_bound(xi, m, q, w + 0.5, t) <= base
            assert small_ball_lower_bound(xi, m, q, w, t + 0.5) <= base

    def test_small_ball_rejects_negative(self):
        with pytest.raises(ValueError):
            small_ball_lower_bound(-0.1, 10, 0.5, 1.0, 1.0)

    def test_paley_zygmund_values(self):
        assert paley_zygmund_tail(1.0, 1.0, 1.0 / 6.0) == pytest.approx(1.0 / 9.0)
        assert paley_zygmund_tail(2.0, 1.0, 0.0) == 1.0  # clipped at 1
        assert paley_zygmund_tail(1.0, 1.0, 0.499999) <= 1e-11

    def test_paley_zygmund_rejects_invalid_region(self):
        with pytest.raises(ValueError):
            paley_zygmund_tail(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            paley_zygmund_tail(-1.0, 1.0, 0.1)

    def test_subgaussian_bound_values(self):
        p = SubgaussianParams(alpha=1.0, sigma=1.0)
        assert subgaussian_conic_bound(p, 54 ** 2, 0.0, 0.0) == pytest.approx(1.0)
        assert subgaussian_conic_bound(p, 54 ** 2, 100.0, 0.0) < 0
        p2 = SubgaussianParams(alpha=1.0, sigma=2.0, c5=1.0)
        assert subgaussian_conic_bound(p2, 10 ** 4, 1.0, 0.0) == pytest.approx(
            100.0 / (4 * 54.0) - 2.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SubgaussianParams(alpha=0.0, sigma=1.0)
        assert SubgaussianParams(2.0, 1.0).rho == 0.5


class TestBowlingScheme:
    def test_gaussian_rows_match_direct_mc(self):
        # with Gaussian rows h is distributed exactly N(0, I), so the
        # bowling estimate must agree with an independent direct MC of
        # E sqrt(inf_tau dist^2) over standard Gaussians
        d = 16
        x = np.zeros(d)
        x[:2] = 1.0
        f = L1Norm(x)
        est = bowling_width_descent(f, gaussian_row_sampler(d), m=64,
                                    trials=1500, seed=13)
        rng = generator(987)
        direct = np.empty(1500)
        for i in range(1500):
            _, dist_sq = f.min_subdiff_dist_sq(rng.standard_normal(d))
            direct[i] = math.sqrt(dist_sq)
        dmean = float(np.mean(direct))
        dse = float(np.std(direct, ddof=1) / math.sqrt(1500))
        assert abs(est.w_hat - dmean) <= 3 * math.hypot(est.std_error, dse)

    def test_jensen_direction_vs_width_sq_estimator(self):
        # E dist <= sqrt(E dist^2): the bowling mean sits below the square
        # root of the width-squared MC estimate
        from conicrecovery.width import mc_width_sq_descent
        d = 16
        x = np.zeros(d)
        x[:2] = 1.0
        f = L1Norm(x)
        est = bowling_width_descent(f, gaussian_row_sampler(d), m=64,
                                    trials=1000, seed=14)
        sq = mc_width_sq_descent(f, trials=1000, seed=15)
        assert est.w_hat <= math.sqrt(sq.value) + 3 * est.std_error

    def test_lifted_scaling_with_dimension(self):
        # trace+PSD descent cone width grows like sqrt(d); compare d=16
        # against d=36 at m = 8d
        def estimate(d):
            v = np.zeros(d)
            v[0] = 1.0
            f = TracePSD(np.outer(v, v))
            return bowling_width_descent(f, lifted_row_sampler(d), m=8 * d,
                                         trials=120, seed=16).w_hat

        ratio = estimate(36) / estimate(16)
        assert ratio == pytest.approx(math.sqrt(36.0 / 16.0), rel=0.25)

    def test_deterministic(self):
        f = L1Norm(np.array([1.0, 0.0, 0.0]))
        a = bowling_width_descent(f, gaussian_row_sampler(3), 8, 20, seed=1)
        b = bowling_width_descent(f, gaussian_row_sampler(3), 8, 20, seed=1)
        assert a == b

    @pytest.mark.parametrize("sampler", ROW_SAMPLERS)
    @pytest.mark.parametrize("m", [63, 64])
    def test_chunks_equal_per_trial_loop(self, sampler, m):
        # one draw of m rows and m signs per trial, then one minimization
        # per trial (bowling) or the row norms of the stacked h (empirical
        # width of the sphere and of a subspace); a one-row product would
        # run as a matrix-vector multiply and differ in the last bits
        d, trials, seed = 5, CHUNK_ITEMS + 45, 17
        f = L1Norm(np.array([1.0, 0.0, -2.0, 0.0, 0.0]))
        sub = Subspace(generator(3).standard_normal((d, 3)))
        phi = ROW_SAMPLERS[sampler](d)
        rng_phi, rng_signs = spawn_generators(seed, 2)
        hs, bowl = np.empty((trials, d)), np.empty(trials)
        for i in range(trials):
            phis = phi(rng_phi, m)
            signs = rng_signs.choice([-1.0, 1.0], size=m)
            hs[i] = np.sum(signs[:, None] * phis, axis=0) / math.sqrt(m)
            bowl[i] = math.sqrt(max(f.min_subdiff_dist_sq(hs[i])[1], 0.0))
        vals = [bowl, np.linalg.norm(hs, axis=1),
                np.linalg.norm(hs @ sub.basis, axis=1)]
        ests = [bowling_width_descent(f, phi, m, trials, seed=seed),
                estimate_mean_empirical_width(phi, "sphere", m, trials, seed),
                estimate_mean_empirical_width(phi, sub, m, trials, seed)]
        for est, v in zip(ests, vals):
            assert est.w_hat == float(np.mean(v))
            assert est.std_error == float(np.std(v, ddof=1) / math.sqrt(trials))


class TestSmallBallValidity:
    def test_subspace_inequality_frequency(self):
        # exact left-hand side: smallest singular value of the m x k
        # projected Gaussian matrix; Q at 2*xi = normal quartile is 1/2
        # exactly, W_m analytic for a subspace
        d, k, m, trials = 20, 5, 60, 500
        xi = 0.6745 / 2.0
        q = 0.5
        w = math.sqrt(2) * math.gamma(3.0) / math.gamma(2.5)  # E||g_5||
        basis = np.eye(d)[:, :k]
        for t in (1.0, 2.0):
            bound = small_ball_lower_bound(xi, m, q, w, t)
            hits = 0
            for trial in range(trials):
                phi = generator(3000 + trial).standard_normal((m, d))
                lhs = np.linalg.svd(phi @ basis, compute_uv=False)[-1]
                hits += lhs >= bound
            assert hits / trials >= 1.0 - math.exp(-t * t / 2.0) - 0.02

    def test_paley_zygmund_below_estimated_tail(self):
        # the analytic lower bound must not exceed the estimated Q_{2 xi}
        # for ensembles with declared (alpha, sigma)
        cases = [
            (gaussian_row_sampler(10), 10, math.sqrt(2.0 / math.pi), 1.0),
            (bounded_row_sampler(10, rademacher_atom()), 10,
             2.0 ** -0.5, 1.0),
        ]
        for sampler, d, alpha, sigma in cases:
            for xi in (alpha / 6.0, alpha / 4.0):
                est = estimate_marginal_tail(sampler, sphere_dirs(d), 2 * xi,
                                             n_dirs=50, n_samples=4000, seed=17)
                se = math.sqrt(est.q_min * (1 - est.q_min) / 4000)
                assert paley_zygmund_tail(alpha, sigma, xi) <= est.q_min + 3 * se


class TestPhaseSecondMoment:
    def test_diagonal_unit(self):
        # U = e1 e1^t: <U, psi psi^t> = psi_1^2, second moment E psi^4 = 3
        u = np.zeros((4, 4))
        u[0, 0] = 1.0
        est, se = phase_second_moment(u, n_samples=100_000, seed=18)
        assert abs(est - 3.0) <= 4 * se

    def test_off_diagonal_unit(self):
        # U = (e1 e2^t + e2 e1^t)/sqrt(2): <U, psi psi^t> = sqrt(2) psi1 psi2,
        # second moment 2 * E psi1^2 psi2^2 = 2
        u = np.zeros((3, 3))
        u[0, 1] = u[1, 0] = 1.0 / math.sqrt(2)
        est, se = phase_second_moment(u, n_samples=100_000, seed=19)
        assert abs(est - 2.0) <= 4 * se

    def test_identity_formula_random(self):
        # E <U, psi psi^t>^2 = 2||U||_F^2 + (tr U)^2
        rng = generator(20)
        for _ in range(5):
            u = rng.standard_normal((5, 5))
            u = 0.5 * (u + u.T)
            u /= np.linalg.norm(u)
            est, se = phase_second_moment(u, n_samples=100_000,
                                          seed=int(rng.integers(0, 2 ** 32)))
            truth = 2.0 + np.trace(u) ** 2
            assert abs(est - truth) <= 4 * se
            assert est >= 2.0 - 3 * se

    def test_chunks_equal_per_trial_loop(self):
        # one psi and one quadratic form per sample
        n_samples, seed = CHUNK_ITEMS + 45, 21
        u = np.diag([3.0, -1.0, 0.0, 2.0]) + 0.5
        u /= np.linalg.norm(u)
        rng_phi, = spawn_generators(seed, 1)
        vals = np.empty(n_samples)
        for i in range(n_samples):
            psi = rng_phi.standard_normal((1, 4))
            vals[i] = np.einsum("ni,ij,nj->n", psi, u, psi)[0] ** 2
        est, se = phase_second_moment(u, n_samples, seed)
        assert est == float(np.mean(vals))
        assert se == float(np.std(vals, ddof=1) / math.sqrt(n_samples))

    def test_validation(self):
        with pytest.raises(ValueError):
            phase_second_moment(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            phase_second_moment(np.eye(2))  # Frobenius norm sqrt(2)
