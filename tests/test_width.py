"""Closed-form width bounds, Monte Carlo width estimators, Gordon bound,
sample-complexity threshold."""

import math

import warnings

import numpy as np
import pytest

from conicrecovery.reg import L1Norm, Schatten1Norm, TracePSD
from conicrecovery.rng import CHUNK_ITEMS, generator
from conicrecovery.width import (
    WidthEstimate,
    WidthMethod,
    gordon_lower_bound,
    mc_subspace_width_sq,
    mc_width_sq_descent,
    rank_width_bound,
    sample_complexity_gaussian,
    sparse_width_bound,
    subspace_width_sq,
)


class TestClosedForms:
    def test_sparse_values(self):
        assert sparse_width_bound(5, 100) == pytest.approx(10 * math.log(20) + 10)
        assert sparse_width_bound(5, 100) == pytest.approx(39.957, abs=1e-3)
        assert sparse_width_bound(4, 128) == pytest.approx(35.726, abs=1e-3)

    def test_sparse_full_support(self):
        for d in (1, 7, 64):
            assert sparse_width_bound(d, d) == pytest.approx(2.0 * d)

    def test_sparse_rejects_bad_s(self):
        with pytest.raises(ValueError):
            sparse_width_bound(0, 10)
        with pytest.raises(ValueError):
            sparse_width_bound(11, 10)

    def test_sparse_monotone_in_s(self):
        for d in (37, 200):
            vals = [sparse_width_bound(s, d) for s in range(1, d + 1)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rank_values(self):
        assert rank_width_bound(1, 10, 10) == pytest.approx(57.0)
        assert rank_width_bound(2, 5, 7) == pytest.approx(60.0)
        for d in (2, 5, 9):
            assert rank_width_bound(d, d, d) == pytest.approx(3.0 * d * d)

    def test_rank_rejects_bad_r(self):
        with pytest.raises(ValueError):
            rank_width_bound(0, 4, 4)
        with pytest.raises(ValueError):
            rank_width_bound(5, 4, 6)

    def test_subspace(self):
        assert subspace_width_sq(0) == 0.0
        assert subspace_width_sq(7) == 7.0
        with pytest.raises(ValueError):
            subspace_width_sq(-1)


class TestGordonAndSampleComplexity:
    def test_gordon_values(self):
        assert gordon_lower_bound(100, 5, 2) == pytest.approx(math.sqrt(99) - 7)
        assert gordon_lower_bound(1, 0, 0) == 0.0
        assert gordon_lower_bound(50, 10, 0) == pytest.approx(-3.0)

    def test_gordon_rejects(self):
        with pytest.raises(ValueError):
            gordon_lower_bound(0, 1, 1)
        with pytest.raises(ValueError):
            gordon_lower_bound(10, -1, 0)

    def test_sample_complexity(self):
        assert sample_complexity_gaussian(6, 3) == 54
        assert sample_complexity_gaussian(0, 3) == 0
        assert sample_complexity_gaussian(math.sqrt(sparse_width_bound(4, 128)), 3) == 54


class TestMcDescent:
    def test_below_closed_form_sparse(self):
        x = np.zeros(128)
        x[:4] = 1.0
        est = mc_width_sq_descent(L1Norm(x), trials=2000, seed=0)
        assert est.method is WidthMethod.MONTE_CARLO_DESCENT
        assert est.value <= sparse_width_bound(4, 128) + 3 * est.std_error

    def test_full_support_below_2d(self):
        d = 16
        est = mc_width_sq_descent(L1Norm(np.ones(d)), trials=500, seed=1)
        assert est.value <= 2.0 * d + 3 * est.std_error
        assert est.value <= d + 3 * est.std_error  # E inf over tau of sum (g - tau s)^2 <= d

    def test_determinism_single_trial(self):
        f = L1Norm(np.array([1.0, 0.0, -1.0]))
        a = mc_width_sq_descent(f, trials=1, seed=5)
        b = mc_width_sq_descent(f, trials=1, seed=5)
        assert a.value == b.value
        assert a.std_error == 0.0

    def test_never_exceeds_bound_random_pairs(self):
        rng = generator(77)
        for _ in range(20):
            d = int(rng.integers(4, 40))
            s = int(rng.integers(1, d + 1))
            x = np.zeros(d)
            x[rng.choice(d, size=s, replace=False)] = rng.choice([-1.0, 1.0], s)
            est = mc_width_sq_descent(L1Norm(x), trials=300,
                                      seed=int(rng.integers(0, 2 ** 32)))
            assert est.value <= sparse_width_bound(s, d) + 3 * est.std_error

    def test_std_error_halves_with_quadrupled_trials(self):
        f = L1Norm(np.array([1.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0]))
        a = mc_width_sq_descent(f, trials=500, seed=3)
        b = mc_width_sq_descent(f, trials=2000, seed=3)
        # 4x trials -> se should halve, within 20%
        assert b.std_error == pytest.approx(a.std_error / 2.0, rel=0.2)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            mc_width_sq_descent(L1Norm(np.ones(2)), trials=0)

    @pytest.mark.parametrize("f", [
        L1Norm(np.r_[1.0, 0.0, -1.0, np.zeros(13)]),
        Schatten1Norm(np.outer([1.0, 2.0, 0.0, -1.0], [0.5, 0.0, 1.0, 1.0, 3.0])),
        TracePSD(np.outer([1.0, -1.0, 2.0], [1.0, -1.0, 2.0])),
    ])
    def test_chunks_equal_per_trial_loop(self, f):
        # one draw per trial, one minimization per trial
        trials, seed = CHUNK_ITEMS + 45, 8
        rng = generator(seed)
        vals = np.array([f.min_subdiff_dist_sq(rng.standard_normal(f.ambient_shape))[1]
                         for _ in range(trials)])
        est = mc_width_sq_descent(f, trials=trials, seed=seed)
        assert est.value == float(np.mean(vals))
        assert est.std_error == float(np.std(vals, ddof=1) / math.sqrt(trials))


class TestSubspaceSandwich:
    def test_sandwich_k_1_to_20(self):
        for k in range(1, 21):
            est = mc_subspace_width_sq(k, trials=10_000, seed=100 + k)
            assert est.value >= k - 1 - 3 * est.std_error
            assert est.value <= k + 3 * est.std_error

    def test_zero_dim(self):
        est = mc_subspace_width_sq(0)
        assert est.value == 0.0 and est.std_error == 0.0

    @pytest.mark.parametrize("k", [0, 4])
    def test_chunks_equal_per_trial_loop(self, k):
        # one draw and one norm per trial; the squared mean by the delta method
        trials, seed = CHUNK_ITEMS + 45, 8
        rng = generator(seed)
        norms = np.array([np.linalg.norm(rng.standard_normal((1, k)), axis=1)[0]
                          for _ in range(trials)])
        mean = float(np.mean(norms))
        se = float(np.std(norms, ddof=1) / math.sqrt(trials))
        est = mc_subspace_width_sq(k, trials=trials, seed=seed)
        assert (est.value, est.std_error) == (mean * mean, 2.0 * mean * se)

    @pytest.mark.parametrize("k", [0, 3])
    @pytest.mark.parametrize("trials", [0, -2])
    def test_rejects_nonpositive_trials(self, k, trials):
        with pytest.raises(ValueError):
            mc_subspace_width_sq(k, trials=trials)

    def test_single_trial_has_zero_std_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = mc_subspace_width_sq(3, trials=1, seed=2)
        assert est.std_error == 0.0 and est.trials == 1
        assert est.value == float(np.linalg.norm(generator(2).standard_normal(3))) ** 2

    def test_exact_mean_norm_oracle(self):
        # E||g_k|| = sqrt(2) * Gamma((k+1)/2) / Gamma(k/2); check k = 5
        k = 5
        exact = math.sqrt(2) * math.gamma(3.0) / math.gamma(2.5)
        est = mc_subspace_width_sq(k, trials=200_000, seed=9)
        assert math.sqrt(est.value) == pytest.approx(exact, abs=0.01)


class TestWidthEstimateType:
    def test_closed_form_carries_no_se(self):
        with pytest.raises(ValueError):
            WidthEstimate(1.0, 0.1, 0, WidthMethod.CLOSED_FORM_BOUND)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            WidthEstimate(-1.0, 0.0, 0, WidthMethod.CLOSED_FORM_BOUND)
