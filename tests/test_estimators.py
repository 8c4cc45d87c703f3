import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pooltrial import EnvConfig, PolicySpec, SeedPlan, TrialConfig, fit_theta, run_trial
from pooltrial.core import TrajectorySet
from pooltrial.errors import DegenerateDesignError
from pooltrial.estimators import (
    COND_LIMIT,
    GRAM_BLOCK_USERS,
    EstimationBlocks,
    check_conditioned,
    conditioning_errors,
    inference_design,
    inverse_or_none,
    policy_design,
    psi_matrix,
    solve_or_nan,
)
from pooltrial.simulator import run_trials
from pooltrial.variance import sandwich

from oracles import broadcast_phi_pieces, inference_gram, phi, phi_matrix, psi

KINDS = {
    "boltzmann": dict(kind="boltzmann", rho=5.0),
    "mirror_descent": dict(kind="mirror_descent", eta=0.5),
    "constant_uniform": dict(kind="constant_uniform"),
}


def toy_history(rng, T=6):
    states = np.column_stack([np.ones(T), rng.normal(size=T)])
    actions = rng.integers(0, 2, size=T)
    rewards = rng.normal(size=T)
    return states, actions, rewards


class TestPsi:
    def test_residual_annihilation(self, rng):
        states, actions, _ = toy_history(rng)
        theta = np.array([1.5, -0.3, 0.7])
        z = np.column_stack([states, actions])
        rewards = z @ theta  # data exactly on the model plane
        assert np.allclose(psi(states, actions, rewards, theta), 0.0, atol=1e-12)

    def test_direct_substitution(self):
        out = psi(np.array([[1.0, 0.0]]), np.array([1]), np.array([2.0]), np.zeros(3))
        assert np.allclose(out, [2.0, 0.0, 2.0])

    def test_symbolic_oracle(self, rng):
        import sympy as sp

        states, actions, rewards = toy_history(rng, T=4)
        theta = rng.normal(size=3)
        th = sp.symbols("t0 t1 t2")
        total = sp.Matrix([0, 0, 0])
        for t in range(4):
            s0, s1 = states[t]
            a, r = float(actions[t]), rewards[t]
            resid = r - th[0] * s0 - th[1] * s1 - th[2] * a
            total += resid * sp.Matrix([s0, s1, a])
        expected = np.array(
            [float(e.subs(dict(zip(th, theta)))) for e in total]
        )
        got = psi(states, actions, rewards, theta)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)

    @given(
        a=st.floats(-3, 3, allow_nan=False),
        b=st.floats(-3, 3, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_affine_in_parameters(self, a, b):
        rng = np.random.default_rng(7)
        states, actions, rewards = toy_history(rng)
        t1, t2 = rng.normal(size=3), rng.normal(size=3)
        lhs = psi(states, actions, rewards, a * t1 + b * t2)
        rhs = (
            a * psi(states, actions, rewards, t1)
            + b * psi(states, actions, rewards, t2)
            + (1 - a - b) * psi(states, actions, rewards, np.zeros(3))
        )
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)

    def test_scale_flag(self, rng):
        states, actions, rewards = toy_history(rng)
        theta = rng.normal(size=3)
        assert np.allclose(
            psi(states, actions, rewards, theta, scale=0.25),
            0.25 * psi(states, actions, rewards, theta),
        )


class TestPhi:
    def test_exact_fit_zero(self, rng):
        states, actions, _ = toy_history(rng)
        beta = np.array([0.2, 1.1, -0.4, 0.9])
        x = np.column_stack([states, actions[:, None] * states])
        rewards = x @ beta
        assert np.allclose(phi(states, actions, rewards, 6, beta), 0.0, atol=1e-12)

    def test_direct_substitution(self):
        out = phi(
            np.array([[1.0, 2.0]]), np.array([1]), np.array([3.0]), 1, np.zeros(4)
        )
        assert np.allclose(out, [3.0, 6.0, 3.0, 6.0])

    def test_symbolic_oracle(self, rng):
        import sympy as sp

        states, actions, rewards = toy_history(rng, T=5)
        beta = rng.normal(size=4)
        bs = sp.symbols("b0 b1 b2 b3")
        t_upto = 3
        total = sp.Matrix([0, 0, 0, 0])
        for t in range(t_upto):
            s0, s1 = states[t]
            a, r = float(actions[t]), rewards[t]
            resid = r - bs[0] * s0 - bs[1] * s1 - a * (bs[2] * s0 + bs[3] * s1)
            total += resid * sp.Matrix([s0, s1, a * s0, a * s1])
        expected = np.array([float(e.subs(dict(zip(bs, beta)))) for e in total])
        got = phi(states, actions, rewards, t_upto, beta)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_only_uses_first_t_times(self, rng):
        states, actions, rewards = toy_history(rng)
        beta = rng.normal(size=4)
        r2 = rewards.copy()
        r2[4:] += 100.0  # later times must not matter
        assert np.array_equal(
            phi(states, actions, rewards, 3, beta),
            phi(states, actions, r2, 3, beta),
        )


class TestFitTheta:
    def test_exact_root(self, small_trajset):
        est = fit_theta(small_trajset)
        z = inference_design(small_trajset)
        rhs = np.einsum("ntk,nt->k", z, small_trajset.rewards)
        data_scale = max(1.0, float(np.abs(rhs / small_trajset.n_users).max()))
        assert est.psi_residual_norm < 1e-8 * data_scale

    def test_interpolating_recovery(self):
        # single-user-style exact-plane data embedded in a tiny trajset
        from pooltrial.core import TrajectorySet

        config = TrialConfig(
            n_users=2, horizon_T=4, policy=PolicySpec(kind="constant_uniform")
        )
        rng = np.random.default_rng(5)
        states = np.stack(
            [np.column_stack([np.ones(4), rng.normal(size=4)]) for _ in range(2)]
        )
        actions = rng.integers(0, 2, size=(2, 4)).astype(np.int8)
        theta_true = np.array([0.5, -1.0, 2.0])
        z = np.concatenate([states, actions[..., None]], axis=2)
        rewards = z @ theta_true
        ts = TrajectorySet(
            states=states,
            actions=actions,
            rewards=rewards,
            action_probs=np.full((2, 4), 0.5),
            beta_hats=np.zeros((3, 4)),
            config=config,
        )
        est = fit_theta(ts)
        assert np.allclose(est.theta_hat, theta_true, rtol=1e-10)

    def test_normal_equation_oracle(self, small_trajset):
        est = fit_theta(small_trajset)
        z = inference_design(small_trajset).reshape(-1, 3)
        y = small_trajset.rewards.reshape(-1)
        brute = np.linalg.inv(z.T @ z) @ (z.T @ y)
        assert np.allclose(est.theta_hat, brute, rtol=1e-10)

    def test_zero_effect_large_n(self):
        config = TrialConfig(
            n_users=10_000,
            horizon_T=50,
            master_seed=77,
            policy=PolicySpec(kind="constant_uniform"),
            env=EnvConfig(kappa0=0.0, kappa1=0.0, kappa2=0.0),
        )
        ts = run_trial(config, SeedPlan(77, 0))
        est = fit_theta(ts)
        se = np.sqrt(sandwich(ts, est)[-1, -1] / config.n_users)
        assert abs(est.theta_hat[-1]) < 4 * se

    def test_user_order_invariance(self, small_trajset, rng):
        from pooltrial.core import TrajectorySet

        perm = rng.permutation(small_trajset.n_users)
        shuffled = TrajectorySet(
            states=small_trajset.states[perm],
            actions=small_trajset.actions[perm],
            rewards=small_trajset.rewards[perm],
            action_probs=small_trajset.action_probs[perm],
            beta_hats=small_trajset.beta_hats,
            config=small_trajset.config,
        )
        a, b = fit_theta(small_trajset), fit_theta(shuffled)
        assert np.allclose(a.theta_hat, b.theta_hat, rtol=1e-10)


class TestInferenceGram:
    """fit_theta's blocked BLAS Gram against the full design einsum."""

    # n % 4 != 0, within one block of users and across three
    @pytest.mark.parametrize("n", [37, 2 * GRAM_BLOCK_USERS + 37])
    @pytest.mark.parametrize("reps", [1, 3])
    @pytest.mark.parametrize("state_dim", [1, 2])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_matches_design_einsum(self, kind, state_dim, reps, n):
        config = TrialConfig(
            n_users=n, horizon_T=4, state_dim=state_dim, master_seed=41,
            policy=PolicySpec(**KINDS[kind]), env=EnvConfig(kappa1=2.0),
        )
        batch, errors = run_trials(config, [SeedPlan(41, r) for r in range(reps)])
        assert errors == [None] * reps
        est = fit_theta(batch)
        gram, rhs = inference_gram(batch)
        psi_dot, theta = est.blocks.psi_dot, est.theta_hat
        scale = np.abs(gram).max()
        assert np.abs(psi_dot + gram / n).max() <= 1e-12 * scale / n
        # theta-hat solves the einsum's normal equations to rounding
        resid = rhs - (gram @ theta[..., None])[..., 0]
        assert np.abs(resid).max() <= 1e-12 * scale * max(1.0, np.abs(theta).max())
        assert np.array_equal(psi_dot, psi_dot.swapaxes(-1, -2))
        for r in range(reps):
            one = fit_theta(batch[r])
            assert np.array_equal(one.theta_hat, theta[r])
            assert np.array_equal(one.blocks.psi_dot, psi_dot[r])


class TestPhiSweepReference:
    """The phi sweep (an einsum outer product per user, and one (n d, d) gemv
    per replication for the products with beta) equals, bit for bit, the
    sweep with broadcast outer products and one 4 x 4 gemv per user."""

    @pytest.mark.parametrize("state_dim", [1, 2])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_matches_broadcast_sweep(self, kind, state_dim):
        config = TrialConfig(
            n_users=23, horizon_T=9, state_dim=state_dim, master_seed=47,
            policy=PolicySpec(**KINDS[kind]), env=EnvConfig(kappa1=2.0),
        )
        batch, errors = run_trials(config, [SeedPlan(47, r) for r in range(3)])
        assert errors == [None] * 3
        # the batch along its leading axis, and each trajectory without one
        for ts in [batch, *(batch[r] for r in range(3))]:
            blocks = fit_theta(ts).blocks
            want_mats, want_dots = broadcast_phi_pieces(ts)
            assert len(blocks.phi_mats) == len(want_mats) == config.horizon_T - 1
            pairs = [*zip(blocks.phi_mats, want_mats), (blocks.phi_dots, want_dots)]
            for got, want in pairs:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    # one user and two (n d = d and 2 d rows), and 513 users (n d = 2,052 rows
    # at d_S = 2), where a BLAS gemv may take another kernel or split its rows
    @pytest.mark.parametrize("state_dim", [1, 2])
    @pytest.mark.parametrize("n, reps", [(1, 3), (2, 1), (513, 2)])
    def test_gemv_sizes(self, n, reps, state_dim):
        config = TrialConfig(
            n_users=max(n, 13), horizon_T=9, state_dim=state_dim, master_seed=53,
            policy=PolicySpec(kind="boltzmann", rho=1.0), env=EnvConfig(kappa1=2.0),
        )
        batch, errors = run_trials(config, [SeedPlan(53, r) for r in range(reps)])
        assert errors == [None] * reps
        # n = 1 and 2 are the first users of a 13-user trial, with its policy
        # fits: a config needs 2 users, and a well-posed policy fit more
        fields = ("states", "actions", "rewards", "action_probs")
        users = [getattr(batch, f)[:, :n] for f in fields]
        batch = TrajectorySet(*users, batch.beta_hats, config)
        for ts in [batch, *(batch[r] for r in range(reps))]:
            a = ts.actions[..., None].astype(float)
            x = np.concatenate([ts.states, a * ts.states], axis=-1)
            assert policy_design(ts).tobytes() == x.tobytes()
            # the sweep reads only the trajectories, not theta or psi_dot
            blocks = EstimationBlocks(ts, np.zeros(config.theta_dim), None)
            want_mats, want_dots = broadcast_phi_pieces(ts)
            pairs = [*zip(blocks.phi_mats, want_mats), (blocks.phi_dots, want_dots)]
            assert len(pairs) == config.horizon_T
            for got, want in pairs:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestJacobians:
    def test_hand_outer_product(self):
        # two users, two times, regressors [1, A]: [1, 1], [1, 0] and [1, 0], [1, 1]
        ts = TrajectorySet(
            states=np.ones((2, 2, 1)),
            actions=np.array([[1, 0], [0, 1]], dtype=np.int8),
            rewards=np.array([[0.8, -0.2], [1.5, 0.4]]),
            action_probs=np.full((2, 2), 0.5),
            beta_hats=np.zeros((1, 2)),
            config=TrialConfig(
                n_users=2, horizon_T=2, state_dim=1, policy=PolicySpec()
            ),
        )
        got = fit_theta(ts).blocks.psi_dot
        expected = -np.array([[4, 2], [2, 2]], dtype=float) / 2
        assert np.array_equal(got, expected)

    def test_psi_jacobian_finite_difference(self, small_trajset):
        est = fit_theta(small_trajset)
        jac = est.blocks.psi_dot
        h = 1e-6
        theta = est.theta_hat
        for j in range(3):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            col = (
                psi_matrix(small_trajset, tp).mean(axis=0)
                - psi_matrix(small_trajset, tm).mean(axis=0)
            ) / (2 * h)
            assert np.allclose(col, jac[:, j], atol=1e-6)

    def test_negative_definite_full_rank(self, small_trajset):
        jac = fit_theta(small_trajset).blocks.psi_dot
        assert np.allclose(jac, jac.T)
        assert np.linalg.eigvalsh(jac).max() < 0

    def test_parameter_free(self, small_trajset, rng):
        # the Jacobian of the linear score cannot depend on theta
        h = 1e-4
        jac = fit_theta(small_trajset).blocks.psi_dot
        for theta in [rng.normal(size=3), 10 * rng.normal(size=3)]:
            fd = np.empty((3, 3))
            for j in range(3):
                tp, tm = theta.copy(), theta.copy()
                tp[j] += h
                tm[j] -= h
                fd[:, j] = (
                    psi_matrix(small_trajset, tp).mean(axis=0)
                    - psi_matrix(small_trajset, tm).mean(axis=0)
                ) / (2 * h)
            assert np.allclose(fd, jac, atol=1e-5)

    def test_phi_jacobian_finite_difference(self, small_trajset):
        t = 4
        beta = np.asarray(small_trajset.beta_hats[t - 1])
        jac = fit_theta(small_trajset).blocks.phi_dots[t - 1]
        h = 1e-6
        for j in range(4):
            bp, bm = beta.copy(), beta.copy()
            bp[j] += h
            bm[j] -= h
            col = (
                phi_matrix(small_trajset, t, bp).mean(axis=0)
                - phi_matrix(small_trajset, t, bm).mean(axis=0)
            ) / (2 * h)
            assert np.allclose(col, jac[:, j], atol=1e-6)

    def test_degenerate_design_all_actions_zero(self):
        from oracles import fit_policy_params

        rng = np.random.default_rng(3)
        states = np.stack(
            [np.column_stack([np.ones(5), rng.normal(size=5)]) for _ in range(4)]
        )
        actions = np.zeros((4, 5))
        rewards = rng.normal(size=(4, 5))
        with pytest.raises(DegenerateDesignError):
            fit_policy_params(states, actions, rewards)

    @pytest.mark.parametrize(
        "gram, rhs",
        [
            (np.eye(2), np.array([1.0, np.inf])),
            (np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2)),
            (np.array([[1.0, np.nan], [np.nan, 1.0]]), np.ones(2)),
            (np.eye(2), np.array([np.nan, 1.0])),
            (1e-10 * np.eye(2), np.array([1e300, 1.0])),  # the solution overflows
        ],
    )
    def test_non_finite_normal_equations_degenerate(self, gram, rhs):
        coef = solve_or_nan(gram, rhs)
        with pytest.raises(DegenerateDesignError) as err:
            check_conditioned(
                gram[None], DegenerateDesignError, "policy design", first_t=3,
                solutions=coef[None],
            )
        assert err.value.t == 3

    def test_check_reports_earliest_index(self):
        # matrix 1 is well conditioned but its solution is non-finite, and
        # matrix 2 is non-finite: the earliest flagged index wins
        mats = np.stack([np.eye(2), np.eye(2), np.full((2, 2), np.nan)])
        solutions = np.array([[1.0, 1.0], [np.inf, 1.0], [1.0, 1.0]])
        with pytest.raises(DegenerateDesignError) as err:
            check_conditioned(
                mats, DegenerateDesignError, "policy design", first_t=1,
                solutions=solutions,
            )
        assert (err.value.t, err.value.cond) == (2, 1.0)

    def test_fit_theta_degenerate_design(self, rng):
        from pooltrial.core import TrajectorySet

        config = TrialConfig(
            n_users=4, horizon_T=5, policy=PolicySpec(kind="constant_uniform")
        )
        states = np.stack(
            [np.column_stack([np.ones(5), rng.normal(size=5)]) for _ in range(4)]
        )
        ts = TrajectorySet(
            states=states,
            actions=np.zeros((4, 5), dtype=np.int8),  # A column identically zero
            rewards=rng.normal(size=(4, 5)),
            action_probs=np.full((4, 5), 0.5),
            beta_hats=np.zeros((4, 4)),
            config=config,
        )
        with pytest.raises(DegenerateDesignError):
            fit_theta(ts)


def _with_singular_values(rng, values):
    """U diag(values) V' for random orthogonal U and V."""
    d = len(values)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (u * values) @ v.T


# 1e9 is SCREEN_LIMIT; the two around 1e12 straddle COND_LIMIT
SCREEN_CONDS = [1.0, 1e3, 1e8, 1e9, 0.999e12, 1.001e12, 1e16]
# 1e-300 and 1e-150 underflow the squared norms, 1e150 and 1e308 overflow them
SCREEN_SCALES = [1.0, 1e-300, 1e-150, 1e150, 1e308]


def _screen_cases(rng, d):
    """Finite matrices of prescribed 2-norm condition number and scale, then
    the non-finite ones."""
    cases = [
        scale * _with_singular_values(rng, np.geomspace(1.0, 1.0 / cond, d))
        for cond in SCREEN_CONDS
        for scale in SCREEN_SCALES
    ]
    nan, inf, ninf = np.eye(d), np.eye(d), np.eye(d)
    nan[0, -1], inf[-1, 0], ninf[0, 0] = np.nan, np.inf, -np.inf
    return cases + [nan, inf, ninf, np.full((d, d), np.nan)]


def _exactly_singular(rng, d):
    mat = _with_singular_values(rng, np.ones(d))
    mat[:, 1] = 0.0  # a zero column: the LU finds an exact zero pivot
    return mat


def _error_bits(errors):
    """(class, t, cond's bits, message) of each error, or None."""
    return [
        None if e is None else (
            type(e), e.t, None if e.cond is None else np.float64(e.cond).tobytes(), str(e)
        )
        for e in errors
    ]


class TestConditionScreen:
    """conditioning_errors' norm screen against an SVD of every matrix."""

    def _assert_same(self, mats, solutions=None, first_t=1, **kwargs):
        from oracles import svd_conditioning_errors

        got = conditioning_errors(
            mats, DegenerateDesignError, "policy design", first_t, solutions, **kwargs
        )
        want = svd_conditioning_errors(
            mats, DegenerateDesignError, "policy design", first_t, solutions
        )
        assert _error_bits(got) == _error_bits(want)
        return got

    @pytest.mark.parametrize("d", [2, 4])
    def test_each_case_reported_alone(self, d):
        # one matrix per stack, so every case is the matrix its error names
        rng = np.random.default_rng(d)
        cases = _screen_cases(rng, d)
        mats = np.stack(cases)[:, None]
        errors = self._assert_same(mats)
        conds = [e.cond for e in errors if e is not None and e.cond is not None]
        assert len(conds) == 2 * len(SCREEN_SCALES)  # 1.001e12 and 1e16 at each scale
        # a non-finite solution on each: every finite case reports its own cond
        solutions = np.ones((len(cases), 1, d))
        solutions[:, 0, -1] = np.nan
        errors = self._assert_same(mats, solutions, first_t=None)
        assert all(e is not None for e in errors)

    @pytest.mark.parametrize("d", [2, 4])
    def test_exactly_singular_matrix_fails_the_batched_inverse(self, d):
        rng = np.random.default_rng(10 + d)
        well = _with_singular_values(rng, np.ones(d))
        mats = np.stack([[well, well], [well, _exactly_singular(rng, d)]])
        assert inverse_or_none(mats) is None
        errors = self._assert_same(mats)
        assert errors[0] is None and errors[1].t == 2 and errors[1].cond > COND_LIMIT

    def test_non_finite_solution_on_a_cleared_matrix(self):
        rng = np.random.default_rng(5)
        mats = np.stack([_with_singular_values(rng, [1.0, 0.5, 0.25])] * 3)[None]
        solutions = np.ones((1, 3, 3))
        solutions[0, 1, 0] = np.inf
        (err,) = self._assert_same(mats, solutions)
        assert err.t == 2 and 3.99 < err.cond < 4.01

    @pytest.mark.parametrize("singular", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_batches(self, seed, singular):
        rng = np.random.default_rng(100 + seed)
        d, reps, k = 4, 12, 6
        cases = _screen_cases(rng, d)
        well = [_with_singular_values(rng, rng.uniform(0.5, 2.0, d)) for _ in range(40)]
        pool = cases + well  # about half the draws well conditioned
        mats = np.stack([pool[j] for j in rng.integers(len(pool), size=reps * k)])
        mats = mats.reshape(reps, k, d, d)
        if singular:
            mats[rng.integers(reps), rng.integers(k)] = _exactly_singular(rng, d)
        solutions = rng.standard_normal((reps, k, d))
        solutions[rng.random((reps, k)) < 0.1, 0] = np.nan
        self._assert_same(mats, solutions)
        self._assert_same(mats, solutions, inverses=inverse_or_none(mats))
        self._assert_same(mats[:, :, None], first_t=None)  # one matrix per stack
