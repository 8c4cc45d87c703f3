import numpy as np
import pytest

from pooltrial import (
    EnvConfig,
    PolicySpec,
    SeedPlan,
    TrialConfig,
    adaptive_sandwich,
    confidence_interval,
    fit_theta,
    run_trial,
    sandwich,
    variance_report,
    weight_products,
)
from pooltrial import variance
from pooltrial.core import TrajectorySet
from pooltrial.errors import NumericalError, SingularBreadError, SingularPolicyBreadError
from pooltrial.policies import clip_prob, realized_from_p1
from pooltrial.simulator import run_trials
from pooltrial.variance import check_equivalence, invariance_norms, sandwich_covariance

from oracles import (
    dense_stacked_oracle,
    full_width_adaptive,
    full_width_invariance_norms,
    policy_path_at,
    prob_realized,
    weight_product_at,
)


@pytest.fixture(scope="module")
def hand_instance():
    """T=2, n=2 trajectory with chosen parameters (not fitted).

    Uses the intercept-only state (d_S = 1), the smallest configuration in
    which the time-1 policy Gram can be full rank with two users.
    """
    config = TrialConfig(
        n_users=2,
        horizon_T=2,
        state_dim=1,
        policy=PolicySpec(kind="boltzmann", rho=1.5),
    )
    states = np.ones((2, 2, 1))
    actions = np.array([[1, 0], [0, 1]], dtype=np.int8)
    rewards = np.array([[0.8, -0.2], [1.5, 0.4]])
    beta_hats = np.array([[0.1, 0.3]])
    probs = np.empty((2, 2))
    probs[:, 0] = 0.5
    probs[:, 1] = prob_realized(
        config.policy, beta_hats[0], states[:, 1], actions[:, 1]
    )
    return TrajectorySet(
        states=states,
        actions=actions,
        rewards=rewards,
        action_probs=probs,
        beta_hats=beta_hats,
        config=config,
    )


class TestWeights:
    def test_constant_uniform_gradients_zero(self, uniform_trajset):
        assert np.all(weight_products(uniform_trajset) == 0.0)

    def test_product_at_hat_is_one(self, small_trajset):
        prod = weight_product_at(small_trajset, small_trajset.beta_hats)
        assert np.all(prod == 1.0)

    def test_finite_difference_gradient(self, small_trajset, rng):
        # a beta1 coordinate j against column j - d_S of the stored half; a
        # beta0 coordinate moves no weight product
        w = weight_products(small_trajset)
        h, T = 1e-6, small_trajset.horizon_T
        d_S = small_trajset.config.state_dim
        assert w.shape == (small_trajset.n_users, T - 1, d_S)
        for _ in range(15):
            s = int(rng.integers(1, T))
            j = int(rng.integers(0, 4))
            bp = np.array(small_trajset.beta_hats)
            bm = np.array(small_trajset.beta_hats)
            bp[s - 1, j] += h
            bm[s - 1, j] -= h
            fd = (
                weight_product_at(small_trajset, bp)
                - weight_product_at(small_trajset, bm)
            ) / (2 * h)
            want = w[:, s - 1, j - d_S] if j >= d_S else 0.0
            assert np.abs(fd - want).max() < 1e-6

    def test_per_time_ratio_range(self, small_trajset, rng):
        # W_t is a ratio of two clipped probabilities
        pmin = small_trajset.config.policy.pi_min
        lo, hi = pmin / (1 - pmin), (1 - pmin) / pmin
        betas = small_trajset.beta_hats + rng.normal(size=small_trajset.beta_hats.shape)
        pre = policy_path_at(
            small_trajset.config.policy,
            small_trajset.states,
            small_trajset.beta_hats,
            betas,
        )
        num = realized_from_p1(clip_prob(pre, pmin), small_trajset.actions, pmin)
        ratio = num[:, 1:] / small_trajset.action_probs[:, 1:]
        assert np.all(ratio >= lo - 1e-12)
        assert np.all(ratio <= hi + 1e-12)

    def test_change_of_measure_mean_one(self):
        config = TrialConfig(
            n_users=4000,
            horizon_T=6,
            master_seed=31,
            policy=PolicySpec(kind="boltzmann", rho=1.0),
            env=EnvConfig(kappa1=1.0),
        )
        ts = run_trial(config, SeedPlan(31, 0))
        rng = np.random.default_rng(0)
        betas = np.asarray(ts.beta_hats) + 0.02 * rng.normal(
            size=np.shape(ts.beta_hats)
        )
        w = weight_product_at(ts, betas)
        band = 4 * w.std() / np.sqrt(config.n_users)
        assert abs(w.mean() - 1.0) <= band


class TestSandwich:
    def test_scalar_mean_reduces_to_variance(self, rng):
        r = rng.normal(size=400)
        scores = (r - r.mean())[:, None]
        cov = sandwich_covariance(scores, np.array([[-1.0]]))
        assert cov[0, 0] == pytest.approx(np.var(r), rel=1e-12)

    def test_symbolic_hand_instance(self):
        # exact rational oracle: psi rows (1,2), (3,5); bread [[-2,0],[-1,-3]]
        scores = np.array([[1.0, 2.0], [3.0, 5.0]])
        bread = np.array([[-2.0, 0.0], [-1.0, -3.0]])
        expected = np.array([[5.0 / 4.0, 1.0], [1.0, 29.0 / 36.0]])
        assert np.allclose(
            sandwich_covariance(scores, bread), expected, rtol=1e-12
        )

    def test_singular_bread_rejected(self, small_trajset):
        est = fit_theta(small_trajset)
        est.blocks.psi_dot = np.zeros((3, 3))
        with pytest.raises(SingularBreadError) as err:
            sandwich(small_trajset, est)
        assert err.value.cond == float("inf")

    def test_nan_bread_rejected(self, small_trajset):
        est = fit_theta(small_trajset)
        est.blocks.psi_dot = np.diag([-1.0, -1.0, -1.0])
        est.blocks.psi_dot[1, 0] = np.nan
        with pytest.raises(SingularBreadError) as err:
            sandwich(small_trajset, est)
        assert err.value.cond is None

    def test_scale_invariance(self, small_trajset):
        blocks = fit_theta(small_trajset).blocks
        base = sandwich_covariance(blocks.psi_mat, blocks.psi_dot)
        scaled = sandwich_covariance(3.7 * blocks.psi_mat, 3.7 * blocks.psi_dot)
        assert np.allclose(base, scaled, rtol=1e-12)

    def test_symmetric_psd(self, small_trajset):
        cov = sandwich(small_trajset, fit_theta(small_trajset))
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10 * np.trace(cov)


def m_blocks(result):
    """M_1..M_{T-1} = Psi_dot^{-1} K_t, the last block row of the stacked
    inverse without its theta block, as (..., d_theta, (T-1) d_t)."""
    gains = np.moveaxis(result.gains, -3, 0)
    return np.linalg.solve(result.est.blocks.psi_dot, np.concatenate(gains, axis=-1))


class TestAdaptiveSandwich:
    def test_dense_oracle_hand_instance(self, hand_instance):
        est = fit_theta(hand_instance)
        result = adaptive_sandwich(hand_instance, est)
        oracle = dense_stacked_oracle(hand_instance, est).cov
        assert np.abs(result.cov - oracle).max() < 1e-10

    def test_dense_oracle_simulated(self, small_trajset):
        est = fit_theta(small_trajset)
        result = adaptive_sandwich(small_trajset, est)
        oracle = dense_stacked_oracle(small_trajset, est).cov
        scale = np.abs(oracle).max()
        assert np.abs(result.cov - oracle).max() < 1e-10 * max(scale, 1.0)

    @pytest.mark.parametrize(
        "config",
        [
            TrialConfig(
                n_users=50,
                horizon_T=50,
                master_seed=3,
                policy=PolicySpec(kind="boltzmann", rho=5.0),
                env=EnvConfig(kappa1=5.0),
            ),
            TrialConfig(
                n_users=100,
                horizon_T=12,
                master_seed=4,
                policy=PolicySpec(kind="mirror_descent", eta=0.5),
                env=EnvConfig(kappa1=5.0),
            ),
        ],
        ids=["boltzmann_T50", "mirror_descent"],
    )
    def test_dense_oracle_last_row_and_v_hat(self, config):
        ts = run_trial(config, SeedPlan(config.master_seed, 0))
        est = fit_theta(ts)
        result = adaptive_sandwich(ts, est)
        oracle = dense_stacked_oracle(ts, est)
        assert np.abs(oracle.m_blocks).max() > 0.0
        for got, want in (
            (result.cov, oracle.cov),
            (m_blocks(result), oracle.m_blocks),
            (invariance_norms(ts, est), np.linalg.norm(oracle.v_hat, axis=(1, 2))),
        ):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_singular_policy_bread_reports_time(self, small_trajset):
        # no user treated at t = 1: the A*S columns of the time-1 policy
        # Gram vanish, so Phi_dot_1 is exactly singular
        actions = np.array(small_trajset.actions)
        actions[:, 0] = 0
        ts = TrajectorySet(
            states=small_trajset.states,
            actions=actions,
            rewards=small_trajset.rewards,
            action_probs=small_trajset.action_probs,
            beta_hats=small_trajset.beta_hats,
            config=small_trajset.config,
        )
        with pytest.raises(SingularPolicyBreadError) as err:
            adaptive_sandwich(ts, fit_theta(ts))
        assert err.value.t == 1
        assert err.value.cond == float("inf")

    def test_nan_policy_bread_reports_time(self, small_trajset):
        est = fit_theta(small_trajset)
        phi_dots = np.array(est.blocks.phi_dots)
        phi_dots[2, 0, 1] = np.nan
        est.blocks.phi_dots = phi_dots
        with pytest.raises(SingularPolicyBreadError) as err:
            adaptive_sandwich(small_trajset, est)
        assert (err.value.t, err.value.cond) == (3, None)

    def test_singular_psi_bread_rejected(self, small_trajset):
        # a zero Psi_dot while every policy block stays regular
        est = fit_theta(small_trajset)
        est.blocks.psi_dot = np.zeros((3, 3))
        with pytest.raises(SingularBreadError) as err:
            adaptive_sandwich(small_trajset, est)
        assert err.value.cond == float("inf")

    def test_dense_system_built_on_demand(self, small_trajset):
        est = fit_theta(small_trajset)
        result = adaptive_sandwich(small_trajset, est)
        assert "system" not in vars(result)
        check_equivalence(small_trajset, est, adaptive=result)
        assert "system" in vars(result)
        assert result.system.dim == (small_trajset.horizon_T - 1) * 4 + 3

    def test_constant_uniform_collapse(self, uniform_trajset):
        est = fit_theta(uniform_trajset)
        result = adaptive_sandwich(uniform_trajset, est)
        assert np.array_equal(result.cov, sandwich(uniform_trajset, est))
        assert np.all(result.gains == 0.0)
        assert np.all(invariance_norms(uniform_trajset, est) == 0.0)

    def test_scale_invariance(self, small_trajset):
        a = adaptive_sandwich(small_trajset, fit_theta(small_trajset)).cov
        est = fit_theta(small_trajset)
        est.blocks.psi_mat = 0.2 * est.blocks.psi_mat
        est.blocks.psi_dot = 0.2 * est.blocks.psi_dot
        b = adaptive_sandwich(small_trajset, est).cov
        assert np.allclose(a, b, rtol=1e-9)

    def test_psd(self, small_trajset):
        cov = adaptive_sandwich(small_trajset, fit_theta(small_trajset)).cov
        assert np.linalg.eigvalsh(cov).min() >= -1e-10 * np.trace(cov)

    def test_adaptive_dominates_at_paper_regime(self):
        config = TrialConfig(
            n_users=100,
            horizon_T=50,
            master_seed=17,
            policy=PolicySpec(kind="boltzmann", rho=5.0),
            env=EnvConfig(kappa1=5.0),
        )
        wins = 0
        reps = 60
        for r in range(reps):
            ts = run_trial(config, SeedPlan(17, r))
            est = fit_theta(ts)
            rep = variance_report(ts, est)
            wins += rep.se_adaptive[-1] > rep.se_sandwich[-1]
        assert wins >= 0.95 * reps


class TestEquivalence:
    def test_gap_on_simulated(self, small_trajset):
        est = fit_theta(small_trajset)
        gap, scale = check_equivalence(small_trajset, est)
        assert gap <= 1e-8 * scale

    def test_gap_random_T3(self):
        config = TrialConfig(
            n_users=40,
            horizon_T=3,
            master_seed=23,
            policy=PolicySpec(kind="boltzmann", rho=2.0),
            env=EnvConfig(kappa1=2.0),
        )
        ts = run_trial(config, SeedPlan(23, 0))
        est = fit_theta(ts)
        gap, scale = check_equivalence(ts, est)
        assert gap <= 1e-10 * scale

    def test_constant_uniform_meat_equals_plain(self, uniform_trajset):
        # zero weight gradients: corrected scores equal plain psi
        est = fit_theta(uniform_trajset)
        result = adaptive_sandwich(uniform_trajset, est)
        sand = sandwich(uniform_trajset, est)
        gap, _ = check_equivalence(uniform_trajset, est, adaptive=result)
        assert gap <= 1e-12 * np.abs(sand).max()

    def test_kernel_defect_opens_gap(self, small_trajset, monkeypatch):
        # the dense form does not go through the recursion's kernel, so a 1%
        # error there shows as a gap far above the tolerance
        est = fit_theta(small_trajset)
        kernel = variance.sandwich_covariance
        monkeypatch.setattr(variance, "sandwich_covariance", lambda *a: 1.01 * kernel(*a))
        gap, scale = check_equivalence(small_trajset, est)
        assert gap > 1e-8 * scale


class TestConfidenceInterval:
    def test_standard_quantile(self):
        lo, hi = confidence_interval(0.0, 1.0, 0.05)
        assert lo == pytest.approx(-1.959964, abs=5e-7)
        assert hi == pytest.approx(1.959964, abs=5e-7)

    def test_point_interval(self):
        assert confidence_interval(1.3, 0.0, 0.05).tolist() == [1.3, 1.3]

    def test_elementwise_on_arrays(self):
        center = np.array([[0.0, 2.5], [1.3, -1.0]])
        se = np.array([[1.0, 0.5], [0.0, 2.0]])
        got = confidence_interval(center, se, 0.05)
        assert got.shape == (2, 2, 2)
        for idx in np.ndindex(2, 2):
            want = confidence_interval(center[idx], se[idx], 0.05)
            assert got[idx].tobytes() == want.tobytes()

    def test_quantile_table_oracle(self):
        lo, hi = confidence_interval(2.5, 0.5, 0.05)
        assert lo == pytest.approx(1.520018, abs=5e-7)
        assert hi == pytest.approx(3.479982, abs=5e-7)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            confidence_interval(0.0, -1.0, 0.05)
        with pytest.raises(ValueError):
            confidence_interval(0.0, 1.0, 1.5)

    def test_rejects_nan_se(self):
        with pytest.raises(ValueError, match="se must be >= 0"):
            confidence_interval(0.0, float("nan"), 0.05)

    def test_rejects_nan_anywhere_in_se(self):
        se = np.array([[1.0, 0.5], [np.nan, 2.0]])
        with pytest.raises(ValueError, match="se must be >= 0"):
            confidence_interval(np.zeros((2, 2)), se, 0.05)


class TestVarianceReport:
    def test_report_fields(self, small_trajset):
        est = fit_theta(small_trajset)
        rep = variance_report(small_trajset, est, alpha=0.05, which="both")
        T, d_t, d_th = small_trajset.horizon_T, 4, 3
        assert rep.stacked_dim == (T - 1) * d_t + d_th
        assert rep.sandwich_cov.shape == (3, 3)
        assert rep.adaptive_cov.shape == (3, 3)
        assert len(rep.ci_sandwich) == 3
        d = rep.to_dict()
        assert set(d) == {
            "sandwich_cov",
            "adaptive_cov",
            "se_sandwich",
            "se_adaptive",
            "ci_sandwich",
            "ci_adaptive",
            "stacked_dim",
            "alpha",
            "theta_hat",
        }

    def test_sandwich_only(self, small_trajset):
        est = fit_theta(small_trajset)
        rep = variance_report(small_trajset, est, which="sandwich")
        assert rep.adaptive_cov is None
        assert rep.se_adaptive is None

    def test_ci_consistent_with_se(self, small_trajset):
        est = fit_theta(small_trajset)
        rep = variance_report(small_trajset, est, alpha=0.05)
        z = 1.959963984540054
        for j in range(3):
            lo, hi = rep.ci_adaptive[j]
            assert hi - lo == pytest.approx(2 * z * rep.se_adaptive[j], rel=1e-12)


# Each policy kind, with the state dimension it runs at (mirror descent with a
# scalar and with a per-time eta).
ETA_SEQUENCE = [0.3 + 0.05 * k for k in range(9)]
BATCH_POLICIES = {
    "boltzmann": (dict(kind="boltzmann", rho=5.0), 2),
    "mirror_scalar": (dict(kind="mirror_descent", eta=0.5), 2),
    "mirror_sequence": (dict(kind="mirror_descent", eta=ETA_SEQUENCE), 2),
    "constant_uniform": (dict(kind="constant_uniform"), 2),
    "boltzmann_state_dim1": (dict(kind="boltzmann", rho=5.0), 1),
}


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def same_row(report, r, want) -> bool:
    """Row r of a batched report is, bit for bit, the one-trajectory report."""
    for name in want.to_dict():
        got, one = getattr(report, name), getattr(want, name)
        if isinstance(got, np.ndarray):
            got = got[r]
        if not (got is one is None or same_bits(got, one)):
            return False
    return True


class TestBatchedEstimation:
    """A batch of R trajectories is estimated bit for bit as R separate calls."""

    @pytest.mark.parametrize("name", sorted(BATCH_POLICIES))
    def test_batch_matches_single_trajectories(self, name):
        policy, state_dim = BATCH_POLICIES[name]
        config = TrialConfig(
            n_users=30,
            horizon_T=10,
            state_dim=state_dim,
            master_seed=41,
            policy=PolicySpec(**policy),
            env=EnvConfig(kappa1=2.0),
        )
        trials = [run_trial(config, SeedPlan(41, r)) for r in range(4)]
        batch, _ = run_trials(config, [SeedPlan(41, r) for r in range(4)])
        est = fit_theta(batch)
        adaptive = adaptive_sandwich(batch, est)
        norms = invariance_norms(batch, est)
        report = variance_report(batch, est)
        sandwich_only = variance_report(batch, est, which="sandwich")
        for r, ts in enumerate(trials):
            one = fit_theta(ts)
            one_adaptive = adaptive_sandwich(ts, one)
            pairs = [
                (est.theta_hat[r], one.theta_hat),
                (est.blocks.psi_dot[r], one.blocks.psi_dot),
                (est.blocks.psi_mat[r], one.blocks.psi_mat),
                (est.blocks.phi_dots[r], one.blocks.phi_dots),
                (np.stack(est.blocks.phi_mats)[:, r], np.stack(one.blocks.phi_mats)),
                (weight_products(batch)[r], weight_products(ts)),
                (adaptive.cov[r], one_adaptive.cov),
                (adaptive.gains[r], one_adaptive.gains),
                (norms[r], invariance_norms(ts, one)),
            ]
            assert all(same_bits(got, want) for got, want in pairs)
            assert same_row(report, r, variance_report(ts, one))
            assert same_row(
                sandwich_only, r, variance_report(ts, one, which="sandwich")
            )

    def test_single_trajectory_batch_is_a_view(self, small_trajset):
        # run_trial's trajectory is row 0 of its R = 1 batch, whose arrays are
        # the step loop's own: no copy on the way
        for name in ("states", "actions", "rewards", "action_probs", "beta_hats"):
            arr = getattr(small_trajset, name)
            assert arr.base.shape == (1, *arr.shape)
            assert arr.base.flags.owndata


def raised_or(call):
    """``call()``, or the (class, t, cond) of the NumericalError it raises."""
    try:
        return call()
    except NumericalError as err:
        return type(err), getattr(err, "t", None), err.cond


def beta1_half_forms(ts, est):
    result = adaptive_sandwich(ts, est)
    return result.cov, m_blocks(result)


class TestFullWidthReference:
    """The beta1-half forms equal, bit for bit, the recursion and norms over
    gradients that store their zero beta0 half."""

    @pytest.mark.parametrize("state_dim", [1, 2])
    @pytest.mark.parametrize(
        "name", ["boltzmann", "mirror_scalar", "mirror_sequence", "constant_uniform"]
    )
    def test_tiny_designs_match_full_width(self, name, state_dim):
        # n = 3..8 at T = 6, with fitted policies and with policies frozen at
        # a fixed beta (whose tiny policy Grams the simulator never checks):
        # the batch and each of its trajectories
        outcomes = {"aborted": 0, "completed": 0}
        frozen = np.full((5, 2 * state_dim), 0.2)
        policy = dict(BATCH_POLICIES[name][0])
        if name == "mirror_sequence":  # one eta for each decision time 2..6
            policy["eta"] = ETA_SEQUENCE[:5]
        for n in range(3, 9):
            config = TrialConfig(
                n_users=n,
                horizon_T=6,
                state_dim=state_dim,
                master_seed=43,
                policy=PolicySpec(**policy),
                env=EnvConfig(kappa1=2.0),
            )
            for betas in (None, frozen):
                batch, _ = run_trials(
                    config, [SeedPlan(43, r) for r in range(4)], frozen_betas=betas
                )
                for ts in [batch, *(batch[r] for r in range(len(batch.states)))]:
                    est = raised_or(lambda: fit_theta(ts))
                    if isinstance(est, tuple):
                        continue
                    norms = invariance_norms(ts, est)
                    assert same_bits(norms, full_width_invariance_norms(ts, est))
                    got = raised_or(lambda: beta1_half_forms(ts, est))
                    want = raised_or(lambda: full_width_adaptive(ts, est))
                    if isinstance(want[0], type):
                        assert isinstance(got[0], type) and got == want
                        outcomes["aborted"] += 1
                    else:
                        assert all(same_bits(g, w) for g, w in zip(got, want))
                        outcomes["completed"] += 1
        assert outcomes["aborted"] > 0 and outcomes["completed"] > 0
