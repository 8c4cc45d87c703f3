"""Domain types, configuration, and deterministic random-stream contracts.

Everything downstream (environment, policies, simulator, variance machinery)
builds on the types defined here.  All containers are frozen dataclasses and
their array fields are marked read-only after construction, so instances can
be shared freely across worker processes.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataIntegrityError, integer, real_number
from .policies import PolicySpec

# Substream labels recognised by derive_stream.  "errors" drives reward-noise
# generation, "actions" drives Bernoulli action sampling.
STREAM_LABELS = ("errors", "actions")

_LABEL_CODES = {label: i for i, label in enumerate(STREAM_LABELS)}

# Absolute tolerance on stored action probabilities: their clip range, and
# their agreement with a policy replay when loaded from disk.
PROB_TOL = 1e-12

# Rows that write_csv formats together: repeats inside a block share one
# repr, and a file's strings never all live at once.
CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class SeedPlan:
    """Addresses one Monte Carlo replication's randomness.

    Streams for distinct ``(master_seed, rep_index)`` pairs are independent,
    and every draw within one replication derives deterministically from its
    plan, so replications can run in any order (or concurrently) and still
    reproduce bit-identically.
    """

    master_seed: int
    rep_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "rep_index"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"master_seed must be a u64, got {self.master_seed}")
        if self.rep_index < 0:
            raise ConfigError(f"rep_index must be >= 0, got {self.rep_index}")


def derive_stream(plan: SeedPlan, substream_label: str) -> np.random.Generator:
    """Return the deterministic random stream for (plan, label).

    The same arguments always yield a generator producing the same draw
    sequence; distinct reps or labels yield independent streams (counter-based
    keying through ``SeedSequence`` spawn keys, no shared state).
    """
    if substream_label not in _LABEL_CODES:
        raise ConfigError(
            f"unknown substream label {substream_label!r}; "
            f"expected one of {STREAM_LABELS}"
        )
    seq = np.random.SeedSequence(
        entropy=plan.master_seed,
        spawn_key=(plan.rep_index, _LABEL_CODES[substream_label]),
    )
    return np.random.default_rng(seq)


@dataclass(frozen=True)
class EnvConfig:
    """Reward-generation parameters.

    The reward at time t is ``kappa0 + kappa1 * (dosage_t / c_gamma)
    + kappa2 * action_t + eps_t`` where dosage is the gamma-discounted count
    of past treatments and the eps rows are AR-correlated within a user with
    Corr(eps_t, eps_s) = error_corr_base ** (|t-s| / 2).
    """

    kappa0: float = 0.0
    kappa1: float = 1.0
    kappa2: float = 0.0
    gamma: float = 0.95
    error_corr_base: float = 0.5

    def __post_init__(self):
        for f in dataclasses.fields(self):  # plain floats, as outputs write their repr
            object.__setattr__(self, f.name, real_number(getattr(self, f.name), f.name))
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError(f"gamma must be in (0,1), got {self.gamma}")
        # 0.0 is the documented i.i.d. limit of the AR error process.
        if not 0.0 <= self.error_corr_base < 1.0:
            raise ConfigError(
                f"error_corr_base must be in [0,1), got {self.error_corr_base}"
            )


@dataclass(frozen=True)
class TrialConfig:
    """Full description of one simulated trial."""

    n_users: int
    horizon_T: int
    policy: PolicySpec
    env: EnvConfig = field(default_factory=EnvConfig)
    state_dim: int = 2
    master_seed: int = 0

    def __post_init__(self):
        for name in ("n_users", "horizon_T", "state_dim", "master_seed"):
            # np.int64 is not JSON
            object.__setattr__(self, name, integer(getattr(self, name), name))
        if self.n_users < 2:
            raise ConfigError(f"n_users must be >= 2, got {self.n_users}")
        if self.horizon_T < 2:
            raise ConfigError(f"horizon_T must be >= 2, got {self.horizon_T}")
        if self.state_dim not in (1, 2):
            # built-in environment feeds states [1] or [1, prev_reward]
            raise ConfigError(
                f"state_dim must be 1 or 2 for the built-in environment, "
                f"got {self.state_dim}"
            )
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"master_seed must be a u64, got {self.master_seed}")
        eta = self.policy.eta
        if eta is not None and len(eta) not in (1, self.horizon_T - 1):
            raise ConfigError(
                f"per-time eta has {len(eta)} entries; decision times "
                f"2..{self.horizon_T} need {self.horizon_T - 1}"
            )

    @property
    def policy_dim(self) -> int:
        """Per-time policy parameter dimension d_t = 2 * d_S."""
        return 2 * self.state_dim

    @property
    def theta_dim(self) -> int:
        """Inferential parameter dimension d_theta = d_S + 1."""
        return self.state_dim + 1

    def replace(self, **kwargs) -> "TrialConfig":
        return dataclasses.replace(self, **kwargs)


_ARRAYS = ("states", "actions", "rewards", "action_probs", "beta_hats")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TrajectorySet:
    """One replication's collected data plus the policy-parameter snapshots,
    or a batch of replications of one config along leading axes.

    ``action_probs[i, t]`` is the probability pi_{t+1}(1 | S) of action 1,
    after the clip, that the sampling policy assigned to user i at decision
    time t+1 (0-based storage for 1-based decision times; 0.5 at time 1),
    whichever action was taken.  ``beta_hats[t-1]`` is the pooled
    least-squares fit on data through decision time t; the policy at decision
    time t+1 was evaluated with it.  ``ts[r]`` is replication r of a batch,
    as read-only views.  Construction, whoever built the arrays, checks the
    trailing-axis shapes, finite states, rewards and beta_hats, 0/1 actions
    (stored as int8) and action_probs in the clip range.  Only ``load``
    replays the policy: a replay here would cost a policy sweep per
    simulated batch, which the simulator does not need.
    """

    states: np.ndarray        # (..., n, T, d_S)
    actions: np.ndarray       # (..., n, T) in {0, 1}
    rewards: np.ndarray       # (..., n, T)
    action_probs: np.ndarray  # (..., n, T)
    beta_hats: np.ndarray     # (..., T-1, 2 * d_S)
    config: TrialConfig

    def __post_init__(self):
        *batch, n, T = self.actions.shape
        shapes = {
            "states": (*batch, n, T, self.config.state_dim),
            "rewards": (*batch, n, T),
            "action_probs": (*batch, n, T),
            "beta_hats": (*batch, T - 1, self.config.policy_dim),
        }
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise DataIntegrityError(f"{name} shape is not {shape}")
        if self.actions.size:  # an empty batch holds no value to check
            for name in ("states", "rewards", "beta_hats"):
                arr = getattr(self, name)
                # a finite sum proves every value finite, in one pass; a NaN,
                # an inf or a sum that overflows falls through to min and max
                with np.errstate(over="ignore", invalid="ignore"):
                    finite = np.isfinite(arr.sum())
                if not finite and not -np.inf < arr.min() <= arr.max() < np.inf:
                    raise DataIntegrityError(f"{name} holds a non-finite value")
            # two comparisons, ~20x faster than np.isin on int8, one bool
            # temporary at a time; a NaN fails both
            a = self.actions
            if np.count_nonzero(a == 0) + np.count_nonzero(a == 1) != a.size:
                raise DataIntegrityError("actions must be 0 or 1")
            pmin = self.config.policy.pi_min
            lo, hi = self.action_probs.min(), self.action_probs.max()
            # a positive test, so that a NaN (which compares False) fails it
            if not pmin - PROB_TOL <= lo <= hi <= 1.0 - pmin + PROB_TOL:
                raise DataIntegrityError(
                    f"action_probs outside [{pmin}, {1 - pmin}]: range ({lo}, {hi})"
                )
        object.__setattr__(self, "actions", self.actions.astype(np.int8, copy=False))
        for name in _ARRAYS:
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    def __getitem__(self, r) -> "TrajectorySet":
        # rows of a checked batch: the value scans are not repeated
        if self.actions.ndim < 3:
            raise DataIntegrityError("a trajectory without a replication axis has no rows")
        row = object.__new__(TrajectorySet)
        for name in _ARRAYS:
            object.__setattr__(row, name, _freeze(getattr(self, name)[r]))
        object.__setattr__(row, "config", self.config)
        return row

    @property
    def n_users(self) -> int:
        return self.actions.shape[-2]

    @property
    def horizon_T(self) -> int:
        return self.actions.shape[-1]

    def save(self, out_dir) -> None:
        """Write the columnar trajectory file plus the beta_hats sidecar.

        Floats are written with shortest round-trip repr, so a load followed
        by a policy replay is bit-identical to the original run.
        """
        if self.actions.ndim != 2:
            raise DataIntegrityError("save writes one trajectory, not a batch; save ts[r]")
        _make_out_dir(out_dir)
        n, T, d_S = self.states.shape
        tables = {
            "trajectories.csv": (
                ["user", "t", *(f"state_{j}" for j in range(d_S)),
                 "action", "reward", "action_prob"],
                [np.repeat(np.arange(n), T), np.tile(np.arange(1, T + 1), n),
                 *self.states.reshape(n * T, d_S).T, self.actions.ravel(),
                 self.rewards.ravel(), self.action_probs.ravel()],
            ),
            "beta_hats.csv": (
                ["t", *(f"b_{j}" for j in range(2 * d_S))],
                [np.arange(1, T), *self.beta_hats.T],
            ),
        }
        for name, (header, columns) in tables.items():
            write_csv(os.path.join(out_dir, name), header, columns)

    @classmethod
    def load(cls, in_dir, config: TrialConfig) -> "TrajectorySet":
        """Read a trajectory directory written by ``save``.

        Every (user, t) row of the configured n_users x horizon_T grid must
        appear exactly once, the values must pass the constructor's checks,
        and each stored action_prob must match its replay, the action-1
        probability of the policy map at the stored states and beta_hats,
        within PROB_TOL; any other input raises DataIntegrityError.
        """
        from .simulator import replay_action_probs

        d_S = config.state_dim
        n, T = config.n_users, config.horizon_T
        rows = _read_rows(os.path.join(in_dir, "trajectories.csv"), 5 + d_S)
        rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
        if (
            len(rows) != n * T
            or not np.array_equal(rows[:, 0], np.repeat(np.arange(n), T))
            or not np.array_equal(rows[:, 1], np.tile(np.arange(1, T + 1), n))
        ):
            raise DataIntegrityError(
                f"trajectories.csv must hold each (user, t) in 0..{n - 1} x "
                f"1..{T} exactly once; got {len(rows)} rows"
            )
        beta_rows = _read_rows(
            os.path.join(in_dir, "beta_hats.csv"), 1 + config.policy_dim
        )
        beta_rows = beta_rows[np.argsort(beta_rows[:, 0])]
        if not np.array_equal(beta_rows[:, 0], np.arange(1, T)):
            raise DataIntegrityError(
                f"beta_hats.csv must hold each t in 1..{T - 1} exactly once"
            )
        trajset = cls(
            states=rows[:, 2 : 2 + d_S].reshape(n, T, d_S),
            actions=rows[:, 2 + d_S].reshape(n, T),
            rewards=rows[:, 3 + d_S].reshape(n, T),
            action_probs=rows[:, 4 + d_S].reshape(n, T),
            beta_hats=beta_rows[:, 1:],
            config=config,
        )
        replayed = replay_action_probs(trajset)
        mismatch = ~(np.abs(replayed - trajset.action_probs) <= PROB_TOL)
        if mismatch.any():
            i, t = np.argwhere(mismatch)[0]
            raise DataIntegrityError(
                f"stored action_prob of user {i} at t={t + 1} does not match "
                f"its replay through the policy"
            )
        return trajset


def write_csv(path, header, columns) -> None:
    """Write ``columns`` (equal-length numeric numpy arrays) under ``header``,
    each value by the repr of its Python number: for a float, the shortest
    string that reads back to the same float."""
    lengths = {len(col) for col in columns}
    if len(header) != len(columns) or len(lengths) > 1:
        raise ValueError(f"{path}: {len(header)} header names for {len(columns)} "
                         f"columns of lengths {sorted(lengths)}")
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, max(lengths, default=0), CSV_BLOCK_ROWS):
            fields = _block_fields([col[start : start + CSV_BLOCK_ROWS] for col in columns])
            f.write("\n".join(map(",".join, zip(*fields))) + "\n")


def _block_fields(block) -> list:
    """Each column of one row block as its values' reprs: one repr per
    distinct value of a column, floats keyed by their bits (so -0.0 is not
    0.0), shared by the float64 columns."""
    floats = [i for i, col in enumerate(block) if col.dtype == np.float64]
    others = [[i] for i in range(len(block)) if i not in floats]
    fields = [None] * len(block)
    for group in ([floats] if floats else []) + others:
        values = np.concatenate([block[i] for i in group])
        keys = values.view(f"i{values.itemsize}") if values.dtype.kind == "f" else values
        uniq, inverse = np.unique(keys, return_inverse=True)
        strs = np.array(list(map(repr, uniq.view(values.dtype).tolist())), dtype=object)
        for i, part in zip(group, np.split(strs[inverse], len(group))):
            fields[i] = part
    return fields


def _out_dir_error(out_dir, strerror) -> ConfigError:
    return ConfigError(f"cannot create output directory {out_dir}: {strerror}")


def check_out_dir(out_dir) -> None:
    """Raise the ConfigError ``_make_out_dir`` would for ``out_dir``, without
    creating anything: a file, or a path under one, cannot be a directory,
    and the nearest existing directory must be writable."""
    if not out_dir:  # abspath("") is the working directory, but makedirs("") fails
        raise _out_dir_error(out_dir, os.strerror(errno.ENOENT))
    target = path = os.path.abspath(out_dir)
    while not os.path.isdir(path):
        if os.path.exists(path):
            code = errno.EEXIST if path == target else errno.ENOTDIR
            raise _out_dir_error(out_dir, os.strerror(code))
        path = os.path.dirname(path)
    if not os.access(path, os.W_OK | os.X_OK):
        raise _out_dir_error(out_dir, os.strerror(errno.EACCES))


def _make_out_dir(out_dir) -> None:
    """Create ``out_dir`` and its parents where missing; a path that cannot
    be a directory (a file, or a path under one) is a ConfigError naming it."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise _out_dir_error(out_dir, err.strerror) from err


def write_json(out_dir, name: str, payload) -> str:
    """Write ``payload`` to ``out_dir/name``, keys sorted; returns the path."""
    _make_out_dir(out_dir)
    path = os.path.join(out_dir, name)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _read_rows(path, n_cols: int) -> np.ndarray:
    """Numeric CSV body (header skipped) as a finite (rows, n_cols) array."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # an empty body only warns
            # no comment syntax: a "#" line or trailing "#junk" fails the parse
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
    except OSError as err:  # numpy's own messages here repeat the path
        raise DataIntegrityError(f"{path}: {err.strerror or 'not found'}") from err
    except UserWarning as err:
        raise DataIntegrityError(f"{path}: no data rows") from err
    except ValueError as err:
        raise DataIntegrityError(f"{path}: {err}") from err
    if rows.shape[1] != n_cols:
        raise DataIntegrityError(
            f"{path}: expected {n_cols} columns, got shape {rows.shape}"
        )
    if not np.isfinite(rows).all():
        raise DataIntegrityError(f"{path}: non-finite value")
    return rows
