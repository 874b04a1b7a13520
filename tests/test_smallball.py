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
from conicrecovery.reg import L1Norm, Schatten1Norm, TracePSD
from conicrecovery.rng import CHUNK_ITEMS, generator, spawn_generators
from conicrecovery.smallball import (
    bowling_width_descent,
    estimate_marginal_tail,
    estimate_mean_empirical_width,
    paley_zygmund_tail,
    phase_second_moment,
    small_ball_lower_bound,
)

from test_reg import point_min_dist_sq


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

# per-trial loop cases: a row sampler and a regularizer on its rows' shape
LOOP_CASES = {
    **{name: (make(5), L1Norm(np.array([1.0, 0.0, -2.0, 0.0, 0.0])))
       for name, make in ROW_SAMPLERS.items()},
    "lifted": (lifted_row_sampler(3),
               TracePSD(np.outer([1.0, -2.0, 0.0], [1.0, -2.0, 0.0]))),
}


def per_trial_h(phi, m, trials, seed, signed_sum=True):
    """h of each trial, flattened, drawn one trial at a time: m rows and m
    signs summed, or (``signed_sum=False``) one row and no sign."""
    rng_phi, rng_signs = spawn_generators(seed, 2)
    hs = []
    for _ in range(trials):
        if not signed_sum:
            hs.append(phi(rng_phi, 1).reshape(-1))
            continue
        phis = phi(rng_phi, m).reshape(m, -1)
        signs = rng_signs.choice([-1.0, 1.0], size=m)
        hs.append(np.sum(signs[:, None] * phis, axis=0) / math.sqrt(m))
    return np.array(hs)


def per_trial_estimates(f, sub, hs):
    """(w_hat, std_error) of the bowling bound (one minimization per trial),
    and of the sphere's and the subspace's width (row norms of the stacked
    h); a one-row product would run as a matrix-vector multiply and differ
    in the last bits."""
    bowl = [math.sqrt(max(point_min_dist_sq(f, h.reshape(f.ambient_shape))[1], 0.0))
            for h in hs]
    vals = [np.array(bowl), np.linalg.norm(hs, axis=1),
            np.linalg.norm(hs @ sub.basis, axis=1)]
    return [(float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(len(v))))
            for v in vals]


def width_estimates(f, sub, phi, m, trials, seed):
    """The three estimates of ``per_trial_estimates``, by the estimators."""
    ests = [bowling_width_descent(f, phi, m, trials, seed=seed),
            estimate_mean_empirical_width(phi, Subspace(np.eye(sub.basis.shape[0])),
                                          m, trials, seed),
            estimate_mean_empirical_width(phi, sub, m, trials, seed)]
    return [(e.w_hat, e.std_error) for e in ests]


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

    def test_rejects_no_directions(self):
        with pytest.raises(ValueError, match="n_dirs >= 1"):
            estimate_marginal_tail(gaussian_row_sampler(3), sphere_dirs(3),
                                   0.5, n_dirs=0)

    @pytest.mark.parametrize("xi", [-0.5, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_threshold(self, xi):
        # unchecked, a NaN threshold counted no exceedance and read q = 0
        with pytest.raises(ValueError, match="nonnegative and finite"):
            estimate_marginal_tail(gaussian_row_sampler(3), sphere_dirs(3), xi)

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
        for x in xis:
            est = estimate_marginal_tail(phi, sphere_dirs(d), x, n_dirs=n_dirs,
                                         n_samples=n_samples, seed=seed)
            freq = np.mean(inner >= x, axis=0)
            assert (est.q_min, est.q_mean) == (float(freq.min()), float(freq.mean()))


class TestEmpiricalWidth:
    def test_sphere_is_norm_of_h(self):
        # for the full sphere the per-trial sup is ||h||; with Gaussian
        # rows h is drawn directly as N(0, I_d), so the mean is E||g_d||
        # at every m
        d = 9
        est = estimate_mean_empirical_width(gaussian_row_sampler(d),
                                            Subspace(np.eye(d)), m=7,
                                            trials=4000, seed=5)
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
            bounded_row_sampler(d, rademacher_atom()), Subspace(np.eye(d)),
            m=1, trials=200, seed=7)
        assert est.w_hat == pytest.approx(math.sqrt(d))
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            estimate_mean_empirical_width(gaussian_row_sampler(3),
                                          Subspace(np.eye(3)), m=0, trials=10)
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

    @pytest.mark.parametrize("m", [0, 0.5])
    def test_small_ball_rejects_fewer_than_one_measurement(self, m):
        with pytest.raises(ValueError, match="m >= 1"):
            small_ball_lower_bound(0.5, m, 0.5, 1.0, 1.0)

    @pytest.mark.parametrize("slot", range(5))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_small_ball_rejects_non_finite(self, slot, bad):
        # unchecked, a NaN passed through and t = inf gave -inf
        args = [0.5, 100, 0.8, 1.0, 1.0]
        args[slot] = bad
        with pytest.raises(ValueError, match="finite"):
            small_ball_lower_bound(*args)

    def test_paley_zygmund_values(self):
        assert paley_zygmund_tail(1.0, 1.0, 1.0 / 6.0) == pytest.approx(1.0 / 9.0)
        assert paley_zygmund_tail(2.0, 1.0, 0.0) == 1.0  # clipped at 1
        assert paley_zygmund_tail(1.0, 1.0, 0.499999) <= 1e-11

    def test_paley_zygmund_rejects_invalid_region(self):
        with pytest.raises(ValueError):
            paley_zygmund_tail(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            paley_zygmund_tail(-1.0, 1.0, 0.1)

    @pytest.mark.parametrize("args", [
        (math.nan, 1.0, 0.1), (math.inf, 1.0, 0.1), (1.0, math.nan, 0.1),
        (1.0, math.inf, 0.1), (1.0, 1.0, math.nan), (1.0, 1.0, math.inf)])
    def test_paley_zygmund_rejects_non_finite(self, args):
        # unchecked, alpha = NaN gave min(1, NaN) = 1.0
        with pytest.raises(ValueError, match="finite"):
            paley_zygmund_tail(*args)



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
            _, dist_sq = point_min_dist_sq(f, rng.standard_normal(d))
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

    @pytest.mark.parametrize("sampler", LOOP_CASES)
    @pytest.mark.parametrize("m", [63, 64])
    def test_chunks_equal_per_trial_loop(self, sampler, m):
        # Gaussian rows: one row per trial, no sign; any other sampler: m
        # rows and m signs per trial
        trials, seed = CHUNK_ITEMS + 45, 17
        phi, f = LOOP_CASES[sampler]
        size = math.prod(f.ambient_shape)
        sub = Subspace(generator(3).standard_normal((size, 3)))
        hs = per_trial_h(phi, m, trials, seed, signed_sum=sampler != "gaussian")
        assert (width_estimates(f, sub, phi, m, trials, seed)
                == per_trial_estimates(f, sub, hs))


class TestSignedSumShortcut:
    def test_only_gaussian_rows_are_marked(self):
        # a normalized signed sum of Gaussian rows is one Gaussian row; a
        # sum of psi psi^t is not rank-one, and a Rademacher signed sum is
        # not Rademacher
        assert gaussian_row_sampler(4).signed_sum_closed is True
        assert gaussian_row_sampler((3, 2)).signed_sum_closed is True
        for phi in (lifted_row_sampler(3),
                    bounded_row_sampler(3, rademacher_atom()),
                    bounded_row_sampler(3, uniform_atom())):
            assert not hasattr(phi, "signed_sum_closed")

    def test_gaussian_estimate_does_not_depend_on_m(self):
        sub = Subspace(generator(4).standard_normal((6, 2)))
        f1 = L1Norm(np.array([0.0, 3.0, 0.0, -1.0, 0.0, 0.0]))
        fs = Schatten1Norm(np.outer([1.0, 2.0, 0.0], [0.0, 1.0]))
        rows, mats = gaussian_row_sampler(6), gaussian_row_sampler((3, 2))

        def estimates(m):
            return (estimate_mean_empirical_width(rows, sub, m, 300, seed=8),
                    bowling_width_descent(f1, rows, m, 300, seed=8),
                    bowling_width_descent(fs, mats, m, 300, seed=8))

        assert estimates(1) == estimates(7) == estimates(64)

    def test_shortcut_draws_the_signed_sum_law(self):
        def unmarked(d):
            gauss = gaussian_row_sampler(d)
            return lambda rng, n: gauss(rng, n)

        # an unmarked Gaussian sampler keeps the signed sum, bit for bit
        phi, (_, f) = unmarked(5), LOOP_CASES["gaussian"]
        sub = Subspace(generator(3).standard_normal((5, 3)))
        trials = CHUNK_ITEMS + 45
        assert (width_estimates(f, sub, phi, 63, trials, 19)
                == per_trial_estimates(f, sub, per_trial_h(phi, 63, trials, 19)))
        # and the direct draw estimates the same mean
        d, m, trials = 128, 64, 2000
        x = np.zeros(d)
        x[:4] = 1.0
        f, sub = L1Norm(x), Subspace(generator(5).standard_normal((d, 10)))
        for est in (lambda phi, seed: bowling_width_descent(f, phi, m, trials, seed),
                    lambda phi, seed: estimate_mean_empirical_width(
                        phi, sub, m, trials, seed)):
            direct, summed = est(gaussian_row_sampler(d), 20), est(unmarked(d), 21)
            assert abs(direct.w_hat - summed.w_hat) <= 4 * math.hypot(
                direct.std_error, summed.std_error)


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
