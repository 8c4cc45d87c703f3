"""Golden SHA-256 digests of simulated trajectories.

The digests pin ``run_trial``'s output bit for bit for every policy kind
(mirror descent with a scalar and with a per-time eta, and with 1-dim
states) at two horizons, so that a refactor of the policy evaluation that
changes any trajectory fails here.  They were recorded with numpy 2.4.6 and
OpenBLAS on x86-64; another numpy or BLAS build may legitimately change the
last bits of the policy fits.
"""

import hashlib

import numpy as np
import pytest

from pooltrial import EnvConfig, PolicySpec, SeedPlan, TrialConfig, run_trial

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


def digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


@pytest.mark.parametrize("name, horizon", sorted(DIGESTS))
def test_trajectory_digests(name, horizon):
    config = TrialConfig(
        n_users=30,
        horizon_T=horizon,
        master_seed=17,
        state_dim=1 if name.endswith("dim1") else 2,
        policy=PolicySpec(pi_min=0.1, **POLICIES[name]),
        env=EnvConfig(kappa1=2.0),
    )
    ts = run_trial(config, SeedPlan(17, 3))
    got = tuple(digest(getattr(ts, f)) for f in FIELDS)
    assert dict(zip(FIELDS, got)) == dict(zip(FIELDS, DIGESTS[name, horizon]))
