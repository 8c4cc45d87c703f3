import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pooltrial import EnvConfig, SeedPlan, derive_stream
from pooltrial.environment import (
    correlate_errors,
    dosage_normalizer,
    generate_errors,
    reward,
)

from oracles import dosage_update


class TestDosage:
    def test_first_action(self):
        assert dosage_update(0.0, 1, 0.95) == 1.0

    def test_all_ones_geometric(self):
        gamma = 0.95
        d = 0.0
        for k in range(1, 30):
            d = dosage_update(d, 1, gamma)
            expected = (1 - gamma**k) / (1 - gamma)
            assert d == pytest.approx(expected, rel=1e-12)
            assert d / dosage_normalizer(gamma) == pytest.approx(
                1 - gamma**k, rel=1e-12
            )

    def test_all_zeros(self):
        d = 0.0
        for _ in range(20):
            d = dosage_update(d, 0, 0.95)
        assert d == 0.0

    @given(
        actions=st.lists(st.integers(0, 1), min_size=1, max_size=40),
        gamma=st.floats(0.01, 0.99),
    )
    @settings(max_examples=100)
    def test_recursion_equals_discounted_sum(self, actions, gamma):
        d = 0.0
        for a in actions:
            d = dosage_update(d, a, gamma)
        t = len(actions) + 1
        direct = sum(gamma ** (t - 1 - k) * a for k, a in enumerate(actions, 1))
        assert d == pytest.approx(direct, rel=1e-9, abs=1e-12)
        assert 0.0 <= d / dosage_normalizer(gamma) <= 1.0 + 1e-12


class TestReward:
    def test_direct_substitution(self):
        env = EnvConfig(kappa0=0, kappa1=1, kappa2=0)
        assert reward(env, 0.5, 1, 0.0) == 0.5

    def test_with_noise(self):
        env = EnvConfig(kappa0=0, kappa1=5, kappa2=0)
        assert reward(env, 0.2, 0, 1.0) == 2.0

    def test_pure_noise(self):
        env = EnvConfig(kappa0=0, kappa1=0, kappa2=0)
        assert reward(env, 0.77, 1, -1.3) == -1.3

    @given(
        dn=st.floats(0, 1),
        a=st.integers(0, 1),
        eps=st.floats(-10, 10),
        k1=st.floats(-5, 5),
    )
    @settings(max_examples=100)
    def test_noise_conservation(self, dn, a, eps, k1):
        env = EnvConfig(kappa0=0.3, kappa1=k1, kappa2=0.2)
        diff = reward(env, dn, a, eps) - reward(env, dn, a, 0.0)
        assert diff == pytest.approx(eps, rel=1e-12, abs=1e-12)

    def test_monotone_in_dosage(self):
        env = EnvConfig(kappa1=2.0)
        lo = reward(env, 0.1, 0, 0.0)
        hi = reward(env, 0.9, 0, 0.0)
        assert hi > lo


class TestGenerateErrors:
    def _sample_corr(self, eps, lag):
        a = eps[:, :-lag].ravel() if lag else eps.ravel()
        b = eps[:, lag:].ravel() if lag else eps.ravel()
        return np.corrcoef(a, b)[0, 1]

    def test_lag1_correlation_matches_root(self):
        # theoretical lag-1 correlation is 0.5 ** 0.5 = 0.70710678
        stream = derive_stream(SeedPlan(9, 0), "errors")
        eps = generate_errors(stream, 10_000, 50, 0.5)
        c = np.corrcoef(eps[:, 0], eps[:, 1])[0, 1]
        assert abs(c - 0.7071067811865476) < 0.02

    def test_lag2_correlation_is_half(self):
        stream = derive_stream(SeedPlan(9, 1), "errors")
        eps = generate_errors(stream, 10_000, 50, 0.5)
        c = self._sample_corr(eps, 2)
        # MC standard error of a correlation ~ (1 - rho^2) / sqrt(N)
        se = (1 - 0.5**2) / np.sqrt(eps[:, 2:].size)
        assert abs(c - 0.5) < 4 * se

    @pytest.mark.parametrize("lag", [1, 2, 3, 5])
    def test_lag_k_profile(self, lag):
        stream = derive_stream(SeedPlan(9, 2), "errors")
        eps = generate_errors(stream, 10_000, 50, 0.5)
        target = 0.5 ** (lag / 2)
        c = self._sample_corr(eps, lag)
        se = (1 - target**2) / np.sqrt(eps[:, lag:].size)
        assert abs(c - target) < 4 * se

    def test_iid_limit(self):
        stream = derive_stream(SeedPlan(9, 3), "errors")
        n, T = 2000, 50
        eps = generate_errors(stream, n, T, 0.0)
        c = self._sample_corr(eps, 1)
        assert abs(c) < 3 / np.sqrt(n * T)

    def test_unit_marginals(self):
        stream = derive_stream(SeedPlan(9, 4), "errors")
        eps = generate_errors(stream, 20_000, 30, 0.5)
        col_vars = eps.var(axis=0)
        assert np.all(np.abs(col_vars - 1.0) < 0.05)
        assert np.all(np.abs(eps.mean(axis=0)) < 0.03)

    def test_rows_independent_across_users(self):
        stream = derive_stream(SeedPlan(9, 5), "errors")
        eps = generate_errors(stream, 10_000, 4, 0.5)
        c = np.corrcoef(eps[:-1, 0], eps[1:, 0])[0, 1]
        assert abs(c) < 4 / np.sqrt(eps.shape[0])

    @pytest.mark.parametrize("corr_base", [0.5, 0.0])
    def test_time_major_view_matches_user_major(self, corr_base):
        # the simulator correlates a contiguous (R, T + 1, n) copy through
        # its swapaxes view; the recursion must give the same bits
        draws = derive_stream(SeedPlan(9, 6), "errors").standard_normal((3, 40, 11))
        user_major = correlate_errors(draws.copy(), corr_base)
        time_major = np.ascontiguousarray(draws.swapaxes(-1, -2))
        correlate_errors(time_major.swapaxes(-1, -2), corr_base)
        assert time_major.swapaxes(-1, -2).tobytes() == user_major.tobytes()
