import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pooltrial import PolicySpec, SeedPlan, derive_stream
from pooltrial.errors import ConfigError
from pooltrial import policies
from pooltrial.policies import (
    clip_prob,
    policy_path,
    prob_slope,
    realized_from_p1,
)

from oracles import (
    lipschitz_bound,
    lipschitz_scan,
    mirror_prob_chain,
    path_oracle,
    policy_path_at,
    prob_action1,
    prob_grad,
    prob_realized,
    sample_action,
)

BOLTZ = PolicySpec(kind="boltzmann", rho=1.0, pi_min=0.1)
UNIFORM = PolicySpec(kind="constant_uniform", pi_min=0.1)
MIRROR = PolicySpec(kind="mirror_descent", pi_min=0.1, eta=1.0)

finite_vec = arrays(
    np.float64, 2, elements=st.floats(-5, 5, allow_nan=False)
)


def params(b0, b1):
    """Stacked policy parameter [beta0, beta1]."""
    return np.concatenate([np.asarray(b0, float), np.asarray(b1, float)])


def p1_at(spec, beta, state):
    """policy_path's action-1 probability for one state at decision time 2."""
    state = np.asarray(state, dtype=float)[None, None]
    pre = policy_path(spec, state, np.asarray(beta, dtype=float)[None])
    return clip_prob(pre, spec.pi_min)[0, 0]


class TestProbAction1:
    def test_zero_parameter(self):
        assert p1_at(BOLTZ, params([0, 0], [0, 0]), [1.0, 3.0]) == 0.5

    def test_clip_saturation(self):
        # expit(10) = 0.99995... clipped to 0.9
        assert p1_at(BOLTZ, params([0, 0], [10.0, 0.0]), [1.0, 0.0]) == 0.9

    def test_scalar_oracle_value(self):
        spec = PolicySpec(kind="boltzmann", rho=0.5, pi_min=0.1)
        p = p1_at(spec, params([0, 0], [1.0, 0.0]), [1.0, 0.0])
        assert p == pytest.approx(0.6224593312018546, abs=1e-12)

    def test_constant_uniform_ignores_params(self):
        assert p1_at(UNIFORM, params([3, 1], [9, -2]), [1.0, 4.0]) == 0.5

    def test_mirror_descent_step(self):
        # the first step starts from pi_1 = 0.5
        assert p1_at(MIRROR, params([0, 0], [0.2, 0.0]), [1.0, 0.0]) == pytest.approx(
            0.6
        )

    def test_mirror_descent_requires_prev(self):
        with pytest.raises(ConfigError):
            prob_action1(MIRROR, params([0, 0], [0.2, 0.0]), [1.0, 0.0])

    def test_rho_zero_collapses_to_half(self):
        spec = PolicySpec(kind="boltzmann", rho=0.0, pi_min=0.1)
        rng = np.random.default_rng(0)
        states = rng.normal(size=(3, 51, 2))
        pre = policy_path(spec, states, rng.normal(size=(50, 4)))
        assert np.all(clip_prob(pre, spec.pi_min) == 0.5)

    @given(s=finite_vec, b1=finite_vec)
    @settings(max_examples=200)
    def test_exploration_floor(self, s, b1):
        spec = PolicySpec(kind="boltzmann", rho=5.0, pi_min=0.1)
        p = p1_at(spec, params([0, 0], b1), s)
        assert 0.1 <= p <= 0.9

    @given(s=finite_vec, b1=finite_vec)
    @settings(max_examples=100)
    def test_probs_sum_to_one(self, s, b1):
        p1 = p1_at(BOLTZ, params([0, 0], b1), s)
        p0 = realized_from_p1(p1, 0, BOLTZ.pi_min)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-15)


class TestProbGrad:
    """The per-state gradient oracle that the dense stacked oracle uses."""

    def test_midpoint_value(self):
        g = prob_grad(BOLTZ, params([0, 0], [0.0, 0.0]), [1.0, 0.0], 1)
        assert np.allclose(g, [0, 0, 0.25, 0], atol=1e-15)

    def test_action0_flips_sign(self):
        g1 = prob_grad(BOLTZ, params([0, 0], [0.3, 0.1]), [1.0, 2.0], 1)
        g0 = prob_grad(BOLTZ, params([0, 0], [0.3, 0.1]), [1.0, 2.0], 0)
        assert np.allclose(g0, -g1)

    def test_saturated_is_zero(self):
        g = prob_grad(BOLTZ, params([0, 0], [10.0, 0.0]), [1.0, 0.0], 1)
        assert np.all(g == 0.0)
        state, beta = np.array([[[1.0, 0.0]]]), params([0, 0], [10.0, 0.0])
        pre = policy_path(BOLTZ, state, beta[None])
        assert np.all(prob_slope(BOLTZ, pre, [2]) == 0.0)

    def test_constant_uniform_zero(self):
        g = prob_grad(UNIFORM, params([1, 2], [3, 4]), [1.0, 2.0], 1)
        assert np.all(g == 0.0)
        assert np.all(prob_slope(UNIFORM, np.full((2, 3), 0.5), [2, 3, 4]) == 0.0)

    def test_beta0_block_zero(self, rng):
        for _ in range(20):
            g = prob_grad(
                BOLTZ, params(rng.normal(size=2), 0.2 * rng.normal(size=2)),
                rng.normal(size=2), 1,
            )
            assert np.all(g[:2] == 0.0)

    def _fd_check(self, spec, rng, n_cases=100, t=2):
        h, worst = 1e-6, 0.0
        cases = 0
        while cases < n_cases:
            b1 = 0.3 * rng.normal(size=2)
            s = rng.normal(size=2)
            prev = rng.uniform(0.25, 0.75) if spec.kind == "mirror_descent" else None
            a = int(rng.random() < 0.5)
            kw = dict(prev_prob1=prev, t=t)
            p_unc = (
                1 / (1 + np.exp(-spec.rho * (s @ b1)))
                if spec.kind == "boltzmann"
                else prev + 0.5 * spec.eta_at(t) * (s @ b1)
            )
            if not (spec.pi_min + 1e-3 < p_unc < 1 - spec.pi_min - 1e-3):
                continue
            cases += 1
            pars = params([0.0, 0.0], b1)
            g = prob_grad(spec, pars, s, a, **kw)
            for j in range(2):
                bp, bm = b1.copy(), b1.copy()
                bp[j] += h
                bm[j] -= h
                fp = prob_realized(spec, params([0, 0], bp), s, a, **kw)
                fm = prob_realized(spec, params([0, 0], bm), s, a, **kw)
                worst = max(worst, abs((fp - fm) / (2 * h) - g[2 + j]))
            # beta0 direction: derivative must be zero
            f0p = prob_realized(spec, params([h, 0], b1), s, a, **kw)
            f0m = prob_realized(spec, params([-h, 0], b1), s, a, **kw)
            worst = max(worst, abs((f0p - f0m) / (2 * h) - g[0]))
        return worst

    def test_finite_difference_boltzmann(self, rng):
        assert self._fd_check(BOLTZ, rng) < 1e-6

    def test_finite_difference_mirror(self, rng):
        assert self._fd_check(MIRROR, rng) < 1e-6


class TestSampleAction:
    def test_degenerate_probs(self):
        stream = derive_stream(SeedPlan(2, 0), "actions")
        assert np.all(sample_action(stream, np.ones(100)) == 1)
        assert np.all(sample_action(stream, np.zeros(100)) == 0)

    def test_mean_matches_prob(self):
        stream = derive_stream(SeedPlan(2, 1), "actions")
        draws = sample_action(stream, np.full(100_000, 0.5))
        assert abs(draws.mean() - 0.5) < 0.005


class TestLipschitz:
    def test_boltzmann_bound_value(self):
        spec = PolicySpec(kind="boltzmann", rho=2.0, pi_min=0.1)
        assert lipschitz_bound(spec, [1.0, 0.0]) == 0.5

    def test_mirror_bound_value(self):
        spec = PolicySpec(kind="mirror_descent", pi_min=0.1, eta=4.0)
        assert lipschitz_bound(spec, [1.0, 0.0]) == 2.0

    def test_constant_uniform_bound_zero(self):
        assert lipschitz_bound(UNIFORM, [1.0, 5.0]) == 0.0

    @pytest.mark.parametrize("kind", ["boltzmann", "mirror_descent"])
    def test_bound_dominates_differences(self, kind, rng):
        # the package's map at two nearby fits, one decision time apart
        if kind == "boltzmann":
            spec = PolicySpec(kind=kind, rho=3.0, pi_min=0.1)
        else:
            spec = PolicySpec(kind=kind, pi_min=0.1, eta=2.0)
        too_far, too_steep, chained = lipschitz_scan(spec, rng, 1000)
        assert too_far == 0 and too_steep == 0
        # a mirror-descent fit moves the later columns through the chain
        assert (chained > 0) == (kind == "mirror_descent")


class TestMirrorChain:
    def test_chain_starts_at_half_and_clips(self):
        spec = PolicySpec(kind="mirror_descent", pi_min=0.1, eta=2.0)
        betas = np.array([[0, 0, 10.0, 0.0], [0, 0, 10.0, 0.0]])
        state = np.array([[1.0, 0.0]])
        pre = policy_path(spec, state[:, None], betas)  # decision time 3
        assert clip_prob(pre, spec.pi_min)[0, 0] == 0.9  # two big positive steps
        assert pre[0, 0] == pytest.approx(0.9 + 10.0)  # the chain is clipped first
        assert mirror_prob_chain(spec, betas, state, 3)[0] == 0.9

    def test_eta_sequence_indexing(self):
        spec = PolicySpec(kind="mirror_descent", pi_min=0.1, eta=[1.0, 2.0, 3.0])
        assert spec.eta_at(2) == 1.0
        assert spec.eta_at(4) == 3.0
        with pytest.raises(ConfigError):
            spec.eta_at(5)


PATH_SPECS = {
    "boltzmann": PolicySpec(kind="boltzmann", rho=4.0, pi_min=0.1),
    "mirror_scalar": PolicySpec(kind="mirror_descent", pi_min=0.1, eta=0.7),
    "mirror_sequence": PolicySpec(
        kind="mirror_descent", pi_min=0.1, eta=[0.2 + 0.1 * k for k in range(12)]
    ),
    "constant_uniform": UNIFORM,
}


def random_path_inputs(seed, d_S=2):
    """Random states, fits and alternative betas; a few saturate the clip."""
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 6)), int(rng.integers(1, 12))
    states = rng.normal(size=(n, k + 1, d_S)) * rng.uniform(0.2, 3.0)
    states[..., 0] = 1.0
    beta_hats = rng.normal(size=(k, 2 * d_S)) * rng.uniform(0.05, 1.5)
    betas = beta_hats + 0.1 * rng.normal(size=beta_hats.shape)
    return rng, states, beta_hats, betas


# The oracles take beta1's through a matmul, whose summation order (and so
# its last bit) can depend on the batch size; the sweep sums term by term.
ORACLE_TOL = dict(rtol=1e-13, atol=1e-13)


class TestClipProb:
    """clip_prob's two ufuncs against np.clip, bit for bit."""

    @pytest.mark.parametrize("pi_min", [0.1, 0.05, 1e-3])
    def test_matches_np_clip(self, pi_min):
        rng = np.random.default_rng(17)
        hi = 1.0 - pi_min
        # random values inside, across and far beyond the interval, then the
        # bounds themselves, their neighbours, +-inf, NaN and signed zeros
        x = rng.normal(0.5, 0.6, size=(3, 4, 50)) * rng.choice([1.0, 1e3], (3, 4, 50))
        edges = [pi_min, hi, np.nextafter(pi_min, 0), np.nextafter(pi_min, 1),
                 np.nextafter(hi, 0), np.nextafter(hi, 1), np.inf, -np.inf,
                 np.nan, 0.0, -0.0, 1.0]
        x.reshape(-1)[: len(edges)] = edges
        x[2, 3, -len(edges):] = edges[::-1]
        strided = x[..., ::3].swapaxes(0, 2)
        for arg in (x, x[1], x[1, 2], strided, x[0, 0, 0], 1.0 - pi_min):
            got, want = clip_prob(arg, pi_min), np.clip(arg, pi_min, hi)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert np.isnan(clip_prob(x, pi_min).reshape(-1)[edges.index(np.nan)])

    def test_realized_from_p1_keeps_its_bits(self):
        rng = np.random.default_rng(18)
        p1 = np.clip(rng.uniform(0.0, 1.0, size=(2, 7, 40)), 0.1, 0.9)
        p1[0, 0, :3] = [0.1, 0.9, 0.5]
        actions = rng.integers(0, 2, size=p1.shape).astype(np.int8)
        want = np.clip(np.where(actions == 1, p1, 1.0 - p1), 0.1, 0.9)
        assert realized_from_p1(p1, actions, 0.1).tobytes() == want.tobytes()


class TestPolicyPath:
    """policy_path against the per-state oracles: one chain plus one step."""

    @pytest.mark.parametrize("name", sorted(PATH_SPECS))
    @given(seed=st.integers(0, 2**32 - 1), d_S=st.sampled_from([1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_full_path_matches_oracle(self, name, seed, d_S):
        spec = PATH_SPECS[name]
        _, states, beta_hats, betas = random_path_inputs(seed, d_S)
        # the alternative-fit case: one policy_path call per decision time
        for got, alt in (
            (policy_path(spec, states, beta_hats), None),
            (policy_path_at(spec, states, beta_hats, betas), betas),
        ):
            want = path_oracle(spec, states, beta_hats, alt)
            np.testing.assert_allclose(got, want, **ORACLE_TOL)

    @pytest.mark.parametrize("name", sorted(PATH_SPECS))
    @given(
        seed=st.integers(0, 2**32 - 1),
        d_S=st.sampled_from([1, 2]),
        batch=st.sampled_from([(), (2,), (2, 3)]),
        intercept=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_trailing_columns_match_full_path(self, name, seed, d_S, batch, intercept):
        # a few trailing columns take the chain's one-product path for the
        # fits before their first time, the full path takes none of it
        spec = PATH_SPECS[name]
        rng, states, beta_hats, _ = random_path_inputs(seed, d_S)
        if not intercept:  # a first state coordinate other than 1
            states[..., 0] = rng.normal(size=states.shape[:-1]) * 2.0
        scale = rng.uniform(0.5, 2.0, size=(*batch, 1, 1, 1))
        states, beta_hats = states * scale, beta_hats * scale[..., 0]
        full = policy_path(spec, states, beta_hats)
        k = beta_hats.shape[-2]
        # the single new column the simulator evaluates at decision time k + 1
        pre = policy_path(spec, states[..., -1:, :], beta_hats)
        assert np.array_equal(pre, full[..., -1:])
        # any trailing block of m columns, and an earlier time by truncating
        m = int(rng.integers(1, k + 2))
        pre = policy_path(spec, states[..., k + 1 - m :, :], beta_hats)
        assert np.array_equal(pre, full[..., k + 1 - m :])
        pre = policy_path(spec, states[..., -2:-1, :], beta_hats[..., :-1, :])
        assert np.array_equal(pre, full[..., -2:-1])
        # one call per decision time, each with its own fit, is the full path
        for idx in np.ndindex(*batch):
            pre = policy_path_at(spec, states[idx], beta_hats[idx], beta_hats[idx])
            assert np.array_equal(pre, full[idx])

    @pytest.mark.parametrize("name", sorted(PATH_SPECS))
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_slope_matches_oracle_gradient(self, name, seed):
        spec = PATH_SPECS[name]
        rng, states, beta_hats, _ = random_path_inputs(seed)
        n, T, d_S = states.shape
        actions = rng.integers(0, 2, size=(n, T))
        pre = policy_path(spec, states, beta_hats)
        slope = prob_slope(spec, pre[:, 1:], range(2, T + 1))
        sign = np.where(actions[:, 1:] == 1, 1.0, -1.0)
        for t in range(2, T + 1):
            prev = None
            if spec.kind == "mirror_descent":
                prev = mirror_prob_chain(spec, beta_hats, states[:, t - 1], t - 1)
            want = prob_grad(
                spec, beta_hats[t - 2], states[:, t - 1], actions[:, t - 1], prev, t
            )
            got = (sign * slope)[:, t - 2, None] * states[:, t - 1]
            assert np.all(want[:, :d_S] == 0.0)
            np.testing.assert_allclose(got, want[:, d_S:], **ORACLE_TOL)

    @pytest.mark.parametrize("name", sorted(PATH_SPECS))
    @given(seed=st.integers(0, 2**32 - 1), d_S=st.sampled_from([1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_batch_axes_match_single_trials(self, name, seed, d_S):
        # the simulator evaluates R trials at once along leading axes
        spec = PATH_SPECS[name]
        rng, states, beta_hats, _ = random_path_inputs(seed, d_S)
        scale = rng.uniform(0.5, 2.0, size=(2, 3, 1, 1, 1))
        batch = [states * scale, beta_hats * scale[..., 0]]
        pre = policy_path(spec, *batch)
        m = int(rng.integers(1, len(beta_hats) + 2))
        tail = policy_path(spec, batch[0][..., -m:, :], *batch[1:])
        for i, j in np.ndindex(2, 3):
            want = policy_path(spec, *(arr[i, j] for arr in batch))
            assert np.array_equal(pre[i, j], want)
            assert np.array_equal(tail[i, j], want[:, -m:])

    @pytest.mark.parametrize("block", [1, 7, 40])
    @pytest.mark.parametrize("name", ["mirror_scalar", "mirror_sequence"])
    def test_chain_blocks_match_one_product(self, name, block, monkeypatch):
        # blocks of fits smaller than a whole chain, as at oracle n, give the
        # bits of one product over every earlier fit
        spec, calls = PATH_SPECS[name], []
        for seed in range(20):
            _, states, beta_hats, _ = random_path_inputs(seed)
            for m in range(1, len(beta_hats) + 2):
                calls.append((spec, states[:, -m:], beta_hats))
        want = [policy_path(*call) for call in calls]
        monkeypatch.setattr(policies, "CHAIN_BLOCK", block)
        for call, pre in zip(calls, want):
            assert np.array_equal(policy_path(*call), pre)

    def test_rejects_inconsistent_shapes(self):
        states = np.ones((2, 4, 2))
        with pytest.raises(ConfigError):
            policy_path(BOLTZ, states, np.zeros((2, 4)))  # 4 columns need 3 fits
        with pytest.raises(ConfigError):  # a batch axis the states lack
            policy_path(BOLTZ, states, np.zeros((2, 3, 4)))
        with pytest.raises(ConfigError):
            policy_path(BOLTZ, states, np.zeros((3, 2)))
        with pytest.raises(ConfigError):  # batch axes that differ
            policy_path(BOLTZ, np.ones((2, 2, 4, 2)), np.zeros((3, 3, 4)))
