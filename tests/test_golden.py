"""Golden SHA-256 digests of simulated trajectories.

The digests pin ``run_trial``'s output bit for bit for every policy kind
(mirror descent with a scalar and with a per-time eta, and with 1-dim
states) at two horizons, so that a refactor of the policy evaluation that
changes any trajectory fails here.  They were recorded with numpy 2.4.6 and
OpenBLAS on x86-64; another numpy or BLAS build may legitimately change the
last bits of the policy fits.  ``CSV_DIGESTS`` pins the bytes that
``TrajectorySet.save`` writes for two of the same trials.  ``TRIAL_ABORTS``
and ``ESTIMATION_ABORTS`` pin the error class, decision time and condition
number that degenerate trials and estimation inputs raise, to the same bits.
``COMMAND_DIGESTS`` pins the bytes of ``check.json`` from every ``check``
suite and of the coverage tables ``mc`` writes for a grid of two (kappa1,
rho) families at two sample sizes.
"""

import hashlib

import numpy as np
import pytest
import yaml

from pooltrial import (
    EnvConfig,
    PolicySpec,
    SeedPlan,
    TrialConfig,
    adaptive_sandwich,
    fit_theta,
    run_trial,
)
from pooltrial.cli import main
from pooltrial.core import TrajectorySet
from pooltrial.errors import (
    DegenerateDesignError,
    NumericalError,
    SingularBreadError,
    SingularPolicyBreadError,
)

FIELDS = ("states", "actions", "rewards", "action_probs", "beta_hats")
ETA_SEQUENCE = [0.3 + 0.06 * k for k in range(14)]
POLICIES = {
    "boltzmann": dict(kind="boltzmann", rho=5.0),
    "mirror_scalar": dict(kind="mirror_descent", eta=0.5),
    "mirror_sequence": dict(kind="mirror_descent", eta=ETA_SEQUENCE),
    "constant_uniform": dict(kind="constant_uniform"),
    "mirror_state_dim1": dict(kind="mirror_descent", eta=0.5),
}

DIGESTS = {
    ("boltzmann", 6): (
        "ae25171b1bf492863e5128ce779e37478da09e101502f6985d89591838205a17",
        "122fcf755d6d3d2b7e689dac1354ca580754adf93700239df26382dc822d2659",
        "6bd92847f967dd07253bb8c0b0b171e07145a1ca3cd2c1151033077b7a073f31",
        "1b74c7ce4cbb8ef9cadaae3618692b3f5b0b6341c9b877a854f0de95e5fa4799",
        "8fe26dd2e7ba5935d0853f75729aea5a640f4497052ae66f9935a3f764818831",
    ),
    ("boltzmann", 15): (
        "df1759cc94e9aae65396a6cafb35c381953af74b8a89e90acc7fd9064074eae4",
        "23130845c4b4060b5dd38e0aadf7bdff0a20692ee4eda31c869098f96a59606a",
        "a29e1a85bbec8535970f865d1afe59a32fd80510814d36c7672926084a9d3880",
        "ee7afcce0f506de8ecb9ec23a882d23e855dfe67a88199755ef4536acd0a4723",
        "394cfcd801c92b716493bfe29122a20d496023ef5a234e39da48158bee2d048f",
    ),
    ("mirror_scalar", 6): (
        "0d30c9b9e228afc06cee36bc9afd5186f371410e63e4cc437dc68ecf19dea41d",
        "139ba1d613d40868d97aefe2825a69633bd96129c6878ca6a1352117804bc362",
        "3637598fe40382a572f6c23206c347bfa5ecf40dfd3ce20ba58a4ccb392e737a",
        "04cc1b4197486f9d88b5739d4734559d9ea099b63c3b6f9be6f22d994ff9a6b9",
        "2514640b81252f7c6b9c1756573737285fd6bcb0aad277cc58bff71c3c0b5410",
    ),
    ("mirror_scalar", 15): (
        "249221965efdec83ff1bff6a95a60a7e89dbfe70824503e5d751f6e2edb22449",
        "99570607db051a1375fb7cda89fcd86f4f933403f232ca522d1d0f870b032ebe",
        "c4baaebd396dfde9b1f094c47abdd460397e231b5e6aa71c212e1985d55f1d9a",
        "7b39173c26d79a2015882793a54f9a801cb9474a8f8fcb0cdfae731315fb34ed",
        "eed37f5f185971d82234b751c3f19ec6d125e224713a06f1cfbd2adef17d0306",
    ),
    ("mirror_sequence", 6): (
        "0d30c9b9e228afc06cee36bc9afd5186f371410e63e4cc437dc68ecf19dea41d",
        "139ba1d613d40868d97aefe2825a69633bd96129c6878ca6a1352117804bc362",
        "3637598fe40382a572f6c23206c347bfa5ecf40dfd3ce20ba58a4ccb392e737a",
        "17991623e052a95ab23a944ccd96676841a4e90471d7d756e5e0ca1d986b41b7",
        "2514640b81252f7c6b9c1756573737285fd6bcb0aad277cc58bff71c3c0b5410",
    ),
    ("mirror_sequence", 15): (
        "494fa1c183feb43e9a4f4430ff9696498dcab9ac04f85a075b55aa4f17682374",
        "b5ed8427a454fe3cb32f299e8820b0347857951a63e98b6cdfb785256ca9a2de",
        "db3eba5ae5b9aa58496669856d037e2c28264fd27315c1cba242fb055ce15be8",
        "20129c60f56f3811bfb0f1622cb6e203d533ec5a0c21457d7e459be01198bd73",
        "f2aa8828bcfa664a17ecbfc396648f5ab839762310542fc0831e8049d7b922ba",
    ),
    ("constant_uniform", 6): (
        "51a555dbc7bd31a66e4c7db3d42635c99b59d6fbb66bee6226a63daff5965df1",
        "db1732e23e17151a48ad5bb357db81999d4cd8de9e5f1863487f33ae0bb25f2f",
        "e0acc708481462a2c75f116579dbca5aa945ce559ba4707ab6ef524658656bfb",
        "5ebba48cbc8c017e3b3b4bda732339cafad33d3bb0f91828ebb80ef542b4235c",
        "191f0f8d10a07cb57c1f6604019d2fdd12b3b73cce8ece9e3eff8ea2a51e335c",
    ),
    ("constant_uniform", 15): (
        "ed32eebb77568aa9f4f7c35787a04a0b5e18181b299bffce03a4fa94d1417d2b",
        "cadee8a5535c2cf5cfd56393e2ca3b67914fcc44e30aecb60138784494be2cd4",
        "3db5c1ef916f7b8eaf3a2e712b01b00e96be1b5009403701e52a9e13aa184fab",
        "0be2bf386eea535ed1c620643e9ea4d723bb77850b9b7a90a07f42dcfff94016",
        "f344f62cda54b70484d5423efc597149f562571bb8b925d27347f744e21bb019",
    ),
    ("mirror_state_dim1", 6): (
        "cacce830c17950b8218346d0ca8b96ad5d69b4924cc64903b74126881e668cf7",
        "b3de91a2a131f2a4ac83f311653fa85c48fc89581e80ce8c161daaff36fe3ed8",
        "4b0d2b3ea0296f6ac7750ccd2d91797300dbc69261dd4a2d4aa32a129d56a34b",
        "cc49895a855641b1947c9bb959082b72a40c9659cc2d89fe58be078c705e966c",
        "b2921efa0ce3c4d29c79656464a46d6e1a99477d6ba4ab3ba6b85c542fc91eee",
    ),
    ("mirror_state_dim1", 15): (
        "9c6073a316508c38b31628d5becf1763b0fb66b3a8dadf07b1e9f01bc134f878",
        "7c51809f81b50675b51a8e136534056ea21e3cedf42412723e501fc1ce8fa008",
        "05eb77c7dd111c509dbeb5a889599f0a1543d9b310a6584bae5cd0c5df3b0343",
        "5c397438bc0d12446803309b96c3e67ea4465ff58f50b2aa4aec0e5ff03f0258",
        "a068010c7286c3c91282a34bb42648f77f42f7a9acd58c63eb0152f12f956287",
    ),
}


CSV_DIGESTS = {
    ("boltzmann", 6): (
        "ad890cae0e73cefbc5d4709392b43d3b165497fb60feb8bf764bee7b6f6c382c",
        "ee68a783fddb832eb16e2b3dac1a32d99edce9ec41ba518c5bda10edf16565a1",
    ),
    ("mirror_state_dim1", 15): (
        "ff1ddaf5be64d5f05848f883aaae04b8c3489c7ca7c55845c682966953afd3e9",
        "2210a66a90dd5edc4caabb51a84ce147bfb5d72f15204862a1c44e7380309782",
    ),
}


def digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def golden_trial(name, horizon):
    config = TrialConfig(
        n_users=30,
        horizon_T=horizon,
        master_seed=17,
        state_dim=1 if name.endswith("dim1") else 2,
        policy=PolicySpec(pi_min=0.1, **POLICIES[name]),
        env=EnvConfig(kappa1=2.0),
    )
    return run_trial(config, SeedPlan(17, 3))


@pytest.mark.parametrize("name, horizon", sorted(DIGESTS))
def test_trajectory_digests(name, horizon):
    ts = golden_trial(name, horizon)
    got = tuple(digest(getattr(ts, f)) for f in FIELDS)
    assert dict(zip(FIELDS, got)) == dict(zip(FIELDS, DIGESTS[name, horizon]))


@pytest.mark.parametrize("name, horizon", sorted(CSV_DIGESTS))
def test_saved_csv_digests(name, horizon, tmp_path):
    golden_trial(name, horizon).save(tmp_path)
    got = tuple(
        hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
        for f in ("trajectories.csv", "beta_hats.csv")
    )
    assert got == CSV_DIGESTS[name, horizon]


# Degenerate-trial outcomes.  run_trial with T = 6 over n, policy kind and
# kappa1: for reps 0..3 the (t, cond) of the DegenerateDesignError it raises,
# or None where the trial completes.  cond is None for a non-finite policy
# design.  n = 2 and 3 are rank deficient at t = 1 whatever the rewards;
# kappa1 = 1e308 overflows, through a non-finite solution before a non-finite
# design at n = 50.  A row keyed by policy kind is the one row that differs
# across kinds.
INF = float("inf")
_N2 = ((1, 5.692690818254393e19), (1, 7.610957372872673e20), (1, INF),
       (1, 4.409579515356557e17))
_N3 = ((1, 3.2919869926673125e19), (1, 2.4598996111460313e20), (1, INF),
       (1, 9.913886225394703e17))
_N4 = ((1, 9.81972967593596e18), None, (1, 1.857617866506659e19), None)
_N4_OVERFLOW = ((1, 9.81972967593596e18), (3, None), (1, 1.857617866506659e19),
                (3, None))
_N5 = (None, None, (1, 1.8711197366972168e18), None)
_N5_OVERFLOW = ((3, None), (3, None), (1, 1.8711197366972168e18), (3, None))
TRIAL_ABORTS = {
    **{(2, k): _N2 for k in (1.0, 5.0, 1e308)},
    **{(3, k): _N3 for k in (1.0, 5.0, 1e308)},
    (4, 1.0): _N4, (4, 5.0): _N4, (4, 1e308): _N4_OVERFLOW,
    (5, 1.0): _N5, (5, 5.0): _N5, (5, 1e308): _N5_OVERFLOW,
    (50, 1.0): (None,) * 4, (50, 5.0): (None,) * 4,
    (50, 1e308): {
        "boltzmann": ((2, 8.677413749697116), (3, None), (3, None),
                      (2, 10.601666735917009)),
        "mirror_scalar": ((2, 9.496199443551026), (3, None), (3, None),
                          (2, 10.276949356203378)),
        "constant_uniform": ((2, 9.168847791120804), (3, None), (3, None),
                             (2, 11.11144065905978)),
    },
}


def trial_outcome(config, rep):
    try:
        run_trial(config, SeedPlan(29, rep))
    except DegenerateDesignError as err:
        return err.t, err.cond
    return None


@pytest.mark.parametrize("kind", ["boltzmann", "mirror_scalar", "constant_uniform"])
@pytest.mark.parametrize("n, kappa1", sorted(TRIAL_ABORTS))
def test_degenerate_trial_outcomes(n, kappa1, kind):
    config = TrialConfig(
        n_users=n,
        horizon_T=6,
        master_seed=29,
        policy=PolicySpec(**POLICIES[kind]),
        env=EnvConfig(kappa1=kappa1),
    )
    want = TRIAL_ABORTS[n, kappa1]
    if isinstance(want, dict):
        want = want[kind]
    assert tuple(trial_outcome(config, rep) for rep in range(4)) == want


def _estimation_aborts():
    """(name, call) of degenerate fit_theta and adaptive_sandwich inputs."""
    ts = golden_trial("boltzmann", 6)

    def variant(**arrays):
        return TrajectorySet(
            config=ts.config, **{f: arrays.get(f, getattr(ts, f)) for f in FIELDS}
        )

    def untreated(upto):
        actions = np.array(ts.actions)
        actions[:, :upto] = 0
        return variant(actions=actions)

    def with_block(name, value):
        est = fit_theta(ts)
        setattr(est.blocks, name, value)
        return adaptive_sandwich(ts, est)

    ill_phi_dots = np.array(fit_theta(ts).blocks.phi_dots)
    ill_phi_dots[3] = np.diag([-1.0, -1.0, -1.0, -1e-13])
    return {
        "fit_theta_untreated": lambda: fit_theta(untreated(6)),
        "fit_theta_overflow": lambda: fit_theta(
            variant(rewards=np.full(ts.rewards.shape, 1e307))
        ),
        "adaptive_untreated_t1": lambda: adaptive_sandwich(
            untreated(1), fit_theta(untreated(1))
        ),
        "adaptive_zero_psi_dot": lambda: with_block("psi_dot", np.zeros((3, 3))),
        "adaptive_ill_psi_dot": lambda: with_block(
            "psi_dot", np.diag([-1.0, -1.0, -1e-14])
        ),
        "adaptive_ill_phi_dot_4": lambda: with_block("phi_dots", ill_phi_dots),
    }


# (class, t, cond) each degenerate estimation input raises
ESTIMATION_ABORTS = {
    "fit_theta_untreated": (DegenerateDesignError, None, INF),
    "fit_theta_overflow": (DegenerateDesignError, None, 6.487546801429382),
    "adaptive_untreated_t1": (SingularPolicyBreadError, 1, INF),
    "adaptive_zero_psi_dot": (SingularBreadError, None, INF),
    "adaptive_ill_psi_dot": (SingularBreadError, None, 1e14),
    "adaptive_ill_phi_dot_4": (SingularPolicyBreadError, 4, 1e13),
}


@pytest.mark.parametrize("name", sorted(ESTIMATION_ABORTS))
def test_degenerate_estimation_outcomes(name):
    with pytest.raises(NumericalError) as err:
        _estimation_aborts()[name]()
    got = (type(err.value), getattr(err.value, "t", None), err.value.cond)
    assert got == ESTIMATION_ABORTS[name]


# SHA-256 of each command's output files, recorded before the layer above
# montecarlo.replicate was cut down; outputs are byte-identical across it
COMMAND_DIGESTS = {
    "check": {
        "check.json": "3125263b4b39fa4db41dfcb665b7a06bddd551f3213ded5ba0dabd24fec5116c",
    },
    "mc": {
        "table.csv": "9139073bd64ddcc9bb9e97b6847ecf8cb5793ed03f532980330d922fca215ec7",
        "table.json": "396278d0037a03437e17b7c80156444485ed25222c51bcde3d882b7c31bebca2",
    },
}
MC_CONFIG = {
    "trial": {"n_users": 40, "horizon_T": 6, "master_seed": 7},
    "policy": {"kind": "boltzmann", "rho": 2.0, "pi_min": 0.1},
    # kappa1 written as an integer; the grid leaves it out, so its one value
    # is the config's own
    "env": {"kappa1": 2},
    "grid": {"rho": [0.5, 5.0], "n_users": [40, 60]},
}


@pytest.mark.parametrize("command", sorted(COMMAND_DIGESTS))
def test_command_output_digests(command, tmp_path):
    config = tmp_path / "grid.yaml"
    config.write_text(yaml.safe_dump(MC_CONFIG))
    args = {
        "check": ["--suite", "all", "--reps", "40", "--oracle-n", "3000"],
        "mc": ["--config", str(config), "--reps", "30", "--oracle-n", "3000"],
    }[command]
    out = tmp_path / command
    assert main([command, *args, "--out", str(out)]) == 0
    got = {
        f: hashlib.sha256((out / f).read_bytes()).hexdigest()
        for f in COMMAND_DIGESTS[command]
    }
    assert got == COMMAND_DIGESTS[command]
