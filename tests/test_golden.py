"""Golden SHA-256 digests of simulated trajectories.

The digests pin ``run_trial``'s output bit for bit for every policy kind
(mirror descent with a scalar and with a per-time eta, and with 1-dim
states) at two horizons, so that a refactor of the policy evaluation that
changes any trajectory fails here.  They were recorded with numpy 2.4.6 and
OpenBLAS 0.3.31 on x86-64.  The policy refits and ``fit_theta`` sum their
Grams by BLAS products, so another numpy or BLAS build may legitimately
change the last bits of the policy fits, the action probabilities, theta-hat
and the condition numbers; the BLAS thread count does not
(``tests/test_simulator.py`` runs one batch at 1 and 2 threads).
``CSV_DIGESTS`` pins the bytes that ``TrajectorySet.save`` writes for two of
the same trials.  ``TRIAL_ABORTS``
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
        "e73f327344593aae8b9f9719366dddba16518278c6e95155ec641fb39c181324",
        "0746517905a0dbda4f6010e93c4ac013d33d9c2d0061b92eb5dbdf14af463d33",
    ),
    ("boltzmann", 15): (
        "df1759cc94e9aae65396a6cafb35c381953af74b8a89e90acc7fd9064074eae4",
        "23130845c4b4060b5dd38e0aadf7bdff0a20692ee4eda31c869098f96a59606a",
        "a29e1a85bbec8535970f865d1afe59a32fd80510814d36c7672926084a9d3880",
        "73d6fecc50f4f717b5ba290c840768a0d98425e99585343e440d5b67b868896f",
        "9a103aec1e8c408680ddff65fbede3335ab82c681309d234e70760ff47acf365",
    ),
    ("mirror_scalar", 6): (
        "0d30c9b9e228afc06cee36bc9afd5186f371410e63e4cc437dc68ecf19dea41d",
        "139ba1d613d40868d97aefe2825a69633bd96129c6878ca6a1352117804bc362",
        "3637598fe40382a572f6c23206c347bfa5ecf40dfd3ce20ba58a4ccb392e737a",
        "4734bc791a63c4794e890424a188c955d9682d6d18fc8d2037566528696e7887",
        "75829648a62ffdae17bb58d28b5891ae90cfba362ad51c87a190207fb3adcdcc",
    ),
    ("mirror_scalar", 15): (
        "249221965efdec83ff1bff6a95a60a7e89dbfe70824503e5d751f6e2edb22449",
        "99570607db051a1375fb7cda89fcd86f4f933403f232ca522d1d0f870b032ebe",
        "c4baaebd396dfde9b1f094c47abdd460397e231b5e6aa71c212e1985d55f1d9a",
        "4f711128dfc00837675d8ea47264ea68bde57d7f74dc84a4f9477b4a7bc85336",
        "2041c6bb9e0721411e967d742877df72f4a31a4fc8244cc81668a2f98875b198",
    ),
    ("mirror_sequence", 6): (
        "0d30c9b9e228afc06cee36bc9afd5186f371410e63e4cc437dc68ecf19dea41d",
        "139ba1d613d40868d97aefe2825a69633bd96129c6878ca6a1352117804bc362",
        "3637598fe40382a572f6c23206c347bfa5ecf40dfd3ce20ba58a4ccb392e737a",
        "24545fae0c102af8b14264446152ecca394999472189946046b74ae387981004",
        "75829648a62ffdae17bb58d28b5891ae90cfba362ad51c87a190207fb3adcdcc",
    ),
    ("mirror_sequence", 15): (
        "494fa1c183feb43e9a4f4430ff9696498dcab9ac04f85a075b55aa4f17682374",
        "b5ed8427a454fe3cb32f299e8820b0347857951a63e98b6cdfb785256ca9a2de",
        "db3eba5ae5b9aa58496669856d037e2c28264fd27315c1cba242fb055ce15be8",
        "17324820034e8521e2aa3240cf42b3bf0c1607203a357606d39757ef57a64807",
        "c268944c4e4ab9412643eb5f83a669a672d41878a4bd4d04697b1ff74767a220",
    ),
    ("constant_uniform", 6): (
        "51a555dbc7bd31a66e4c7db3d42635c99b59d6fbb66bee6226a63daff5965df1",
        "db1732e23e17151a48ad5bb357db81999d4cd8de9e5f1863487f33ae0bb25f2f",
        "e0acc708481462a2c75f116579dbca5aa945ce559ba4707ab6ef524658656bfb",
        "5ebba48cbc8c017e3b3b4bda732339cafad33d3bb0f91828ebb80ef542b4235c",
        "1da12e6ada54d24e0ed59a015742d3c4fe2057c7cfe233f104ab9e7886e223ea",
    ),
    ("constant_uniform", 15): (
        "ed32eebb77568aa9f4f7c35787a04a0b5e18181b299bffce03a4fa94d1417d2b",
        "cadee8a5535c2cf5cfd56393e2ca3b67914fcc44e30aecb60138784494be2cd4",
        "3db5c1ef916f7b8eaf3a2e712b01b00e96be1b5009403701e52a9e13aa184fab",
        "0be2bf386eea535ed1c620643e9ea4d723bb77850b9b7a90a07f42dcfff94016",
        "a9694eec15e772abc0e8b37f3ef6e26ac43be04a7c83b8564f6e51efe00e329b",
    ),
    ("mirror_state_dim1", 6): (
        "cacce830c17950b8218346d0ca8b96ad5d69b4924cc64903b74126881e668cf7",
        "b3de91a2a131f2a4ac83f311653fa85c48fc89581e80ce8c161daaff36fe3ed8",
        "4b0d2b3ea0296f6ac7750ccd2d91797300dbc69261dd4a2d4aa32a129d56a34b",
        "4fc4292ad235ec6dda2276fec99d3165f1380c3c7fb260971a54a1a680b4dc30",
        "2515ed71277a6e4a787d431b634a5daad1d82eb3a5cf2fd88829ca2ecea89e1e",
    ),
    ("mirror_state_dim1", 15): (
        "9c6073a316508c38b31628d5becf1763b0fb66b3a8dadf07b1e9f01bc134f878",
        "7c51809f81b50675b51a8e136534056ea21e3cedf42412723e501fc1ce8fa008",
        "05eb77c7dd111c509dbeb5a889599f0a1543d9b310a6584bae5cd0c5df3b0343",
        "5ce454efbc167ef1b1688b89b778c6aad5657879e7ce64dfbcace6dc14a92ea0",
        "be115ca18d51ba5643f9bbb1cb5f8aae9b7473213b7281daaa2df998828a7e7e",
    ),
}


CSV_DIGESTS = {
    ("boltzmann", 6): (
        "2185e4ec90680e7a4c3e774c74d3af8b355175f440c1d495ffef4397b90264ac",
        "18681429cc25550b5be206321cb354767e18aaef743f07dc5e0e8f3ea05822e3",
    ),
    ("mirror_state_dim1", 15): (
        "2cc2f207f6a22b73c7622ee5ca17e830ce573395a4a74e0faf9cd079d0cad3ca",
        "5fe2014e3cc0d3adb707833a92ce631a2398494871e250be85a86db27c02b049",
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
                      (2, 10.601666735917)),
        "mirror_scalar": ((2, 9.496199443551026), (3, None), (3, None),
                          (2, 10.276949356203378)),
        "constant_uniform": ((2, 9.168847791120804), (3, None), (3, None),
                             (2, 11.111440659059772)),
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
    "fit_theta_overflow": (DegenerateDesignError, None, 6.4875468014293824),
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


# SHA-256 of each command's output files.  check.json and table.json were
# re-recorded when the refit and inference Grams became BLAS products, which
# moved the last bits of theta-hat and of the statistics read from it;
# table.csv kept its bytes
COMMAND_DIGESTS = {
    "check": {
        "check.json": "414cfa262d0928d8c667a82c4e70e9c7d9c36ec0235d8c117c18de697e2689e6",
    },
    "mc": {
        "table.csv": "9139073bd64ddcc9bb9e97b6847ecf8cb5793ed03f532980330d922fca215ec7",
        "table.json": "3036884429cdd0b958451455f0a146b6c4ae639d2e8786802bce5239591f3fc1",
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
