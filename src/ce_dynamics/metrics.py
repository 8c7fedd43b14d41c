"""Regret accounting and correlated-equilibrium gaps over recorded runs.

A :class:`RunTrace` stores everything a run produced, per player and round:
strategies, expected-loss vectors, and (for SL, BM and arbo) the inner distributions,
plus SL's pair losses; :func:`inner_stream` reads a run's inner stream from them. Traces
serialize to ``.npz`` with bit-exact float64 arrays, one per :class:`RunTrace` field but
``players``, then ``p{i}_<field>`` per set :class:`PlayerTrace` field of player i, in field
order, so every regret recomputes identically from a reloaded trace.

Every regret reads one running sum of small per-round terms,
P[j, k] = sum_t x_t[j] (loss_t[j] - loss_t[k]), kept by :func:`_running_pair_sums`,
and the running consecutive-ratio max is kept by :func:`running_max_ratio`; each
is computed here and nowhere else.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .games import Game

DENSE_JOINT_MAX_ENTRIES = 10**6
# Rounds per block of the running pair sums; bounds the (chunk, n, n) stack.
REGRET_CHUNK_ROUNDS = 256


@dataclass
class PlayerTrace:
    strategies: np.ndarray  # (T, n)
    losses: np.ndarray  # (T, n)
    pair_dists: np.ndarray | None = None  # (T, n(n-1)) for pair-space runs
    pair_losses: np.ndarray | None = None  # (T, n(n-1))
    copy_dists: np.ndarray | None = None  # (T, n, n) for swap-dynamics runs
    tree_dists: np.ndarray | None = None  # (T, n^(n-1)) for tree-space runs


@dataclass
class RunTrace:
    horizon: int
    dynamics: str
    action_counts: tuple[int, ...]
    etas: tuple[float, ...]
    players: list[PlayerTrace] = field(default_factory=list)

    @property
    def num_players(self) -> int:
        return len(self.action_counts)

    def save(self, path) -> None:
        arrays = {f.name: np.array(getattr(self, f.name)) for f in fields(self) if f.name != "players"}
        for i, pt in enumerate(self.players):
            for f in fields(pt):
                if (value := getattr(pt, f.name)) is not None:
                    arrays[f"p{i}_{f.name}"] = value
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path) -> "RunTrace":
        """The trace :meth:`save` wrote; a required array it lacks fails naming its key."""
        with np.load(path, allow_pickle=False) as data:
            # Each header array comes back a Python scalar, or a list that was a tuple.
            header = {f.name: data[f.name].tolist() for f in fields(cls) if f.name != "players"}
            trace = cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in header.items()})
            for i in range(trace.num_players):
                keys = {f.name: f"p{i}_{f.name}" for f in fields(PlayerTrace)
                        if f.default is MISSING or f"p{i}_{f.name}" in data}
                trace.players.append(PlayerTrace(**{name: data[key] for name, key in keys.items()}))
        return trace


def _running_pair_sums(trace: RunTrace, player: int):
    """Yields (rounds, P): P[t, j, k] = sum_{s <= t} x_s[j] (loss_s[j] - loss_s[k]).

    The carry is folded into each REGRET_CHUNK_ROUNDS block's first round before
    the cumsum, so every entry is the plain sequential sum; the diagonal is zero.
    """
    pt = trace.players[player]
    n = trace.action_counts[player]
    carry = np.zeros((n, n))
    for s in range(0, trace.horizon, REGRET_CHUNK_ROUNDS):
        rounds = slice(s, s + REGRET_CHUNK_ROUNDS)
        x, loss = pt.strategies[rounds], pt.losses[rounds]
        P = x[:, :, None] * (loss[:, :, None] - loss[:, None, :])
        P[0] += carry
        np.cumsum(P, axis=0, out=P)
        carry = P[-1]
        yield rounds, P


def running_regrets(trace: RunTrace, player: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running external, raw internal and swap regret after each round, each (T,).

    Read off the running pair sums P: external max_k sum_j P[j, k], raw
    internal max_{j != k} P[j, k], swap sum_j max_k P[j, k].
    """
    n = trace.action_counts[player]
    offdiag = ~np.eye(n, dtype=bool)
    out = np.empty((3, trace.horizon))
    for rounds, P in _running_pair_sums(trace, player):
        out[0, rounds] = P.sum(axis=1).max(axis=1)
        out[1, rounds] = P[:, offdiag].max(axis=1)
        out[2, rounds] = P.max(axis=2).sum(axis=1)
    return out[0], out[1], out[2]


def _inner_dists(trace: RunTrace, player: int, rounds: slice):
    """A player's recorded inner distributions over ``rounds``, (rounds, rows, dim), and the
    learner class that recorded them: the dynamics', or ``Omwu``'s for an unknown name."""
    from .runner import _LEARNERS  # runner imports this module

    cls = _LEARNERS.get(trace.dynamics.split("-")[0], _LEARNERS["omwu"])
    q = getattr(trace.players[player], getattr(cls, "trace_field", "strategies"))[rounds]
    return (q[:, None] if q.ndim == 2 else q), cls


def inner_stream(trace: RunTrace, player: int, rounds: slice = slice(None)):
    """A player's inner stream over ``rounds``: (q, z), each (rounds, rows, dim). q is the
    recorded inner distribution, the strategy for ``omwu``/``mwu``; z is the dynamics'
    ``inner_losses`` of the recorded strategies and losses, the bits its learner saw, built
    by block: arbo's (rounds, trees, n - 1) edge stack is one block's."""
    (q, cls), pt = _inner_dists(trace, player, rounds), trace.players[player]
    x, loss, z = pt.strategies[rounds], pt.losses[rounds], np.empty(q.shape)
    for s in range(0, len(z), REGRET_CHUNK_ROUNDS):
        b = slice(s, s + REGRET_CHUNK_ROUNDS)
        z[b] = cls.inner_losses(x[b], loss[b]).reshape(z[b].shape)
    return q, z


def running_max_ratio(trace: RunTrace, player: int, restart: int | None = None) -> np.ndarray:
    """Running max of the two-sided consecutive ratio of the inner distributions, (T,).

    Round t contributes max(q_t / q_{t-1}, q_{t-1} / q_t) over all entries of
    :func:`inner_stream`'s q, read without computing z; round 1 contributes 1. ``restart`` is the
    round after which the learner was reset, so the next round starts a chain and contributes 1.
    """
    T, chunk = trace.horizon, REGRET_CHUNK_ROUNDS
    per_round = np.ones(T)
    for s in range(1, T, chunk):
        e = min(s + chunk, T)
        rows = _inner_dists(trace, player, slice(s - 1, e))[0]
        ratio = rows[1:] / rows[:-1]
        per_round[s:e] = np.maximum(ratio.max(axis=(1, 2)), (1.0 / ratio).max(axis=(1, 2)))
    if restart is not None and restart < T:
        per_round[restart] = 1.0
    return np.maximum.accumulate(per_round)


def _last(values: np.ndarray) -> float:
    """Final entry of a running column; 0.0 for an empty trace."""
    return float(values[-1]) if values.size else 0.0


def external_regret(trace: RunTrace, player: int) -> float:
    """Gap to the best fixed action in hindsight."""
    return _last(running_regrets(trace, player)[0])


def internal_regret(trace: RunTrace, player: int) -> float:
    """Raw best single-pair reallocation gain; may be negative."""
    return _last(running_regrets(trace, player)[1])


def clamped_internal_regret(trace: RunTrace, player: int) -> float:
    return max(0.0, internal_regret(trace, player))


def swap_regret(trace: RunTrace, player: int) -> float:
    """Gap to the best per-action reassignment in hindsight."""
    return _last(running_regrets(trace, player)[2])


def average_product_distribution(trace: RunTrace) -> np.ndarray:
    """Time average of the per-round product distributions, a dense joint tensor.

    Raises :class:`ValidationError` when the joint profile space has more
    than DENSE_JOINT_MAX_ENTRIES cells. Rounds go in blocks of at most
    REGRET_CHUNK_ROUNDS, fewer when a block would pass that many cells; the
    running total is folded into each block's first round before the block
    sum, so every cell is the plain sequential sum over rounds.
    """
    cells = int(np.prod(trace.action_counts))
    if cells > DENSE_JOINT_MAX_ENTRIES:
        raise ValidationError(
            f"joint profile space has {cells} cells, above {DENSE_JOINT_MAX_ENTRIES}"
        )
    chunk = max(1, min(REGRET_CHUNK_ROUNDS, DENSE_JOINT_MAX_ENTRIES // cells))
    acc = np.zeros(trace.action_counts)
    for s in range(0, trace.horizon, chunk):
        rounds = slice(s, s + chunk)
        block = trace.players[0].strategies[rounds].copy()
        for i in range(1, trace.num_players):
            x = trace.players[i].strategies[rounds]
            block = block[..., None] * x.reshape(x.shape[0], *(1,) * i, x.shape[1])
        block[0] += acc
        acc = block.sum(axis=0)
    return acc / trace.horizon


@dataclass
class CeGapReport:
    max_gap: float  # max over players of the off-diagonal (j != k) pair maxima
    per_player_pair: list[np.ndarray]  # each (n_i, n_i); diagonal is meaningless


def ce_gap(game: Game, mu: np.ndarray) -> CeGapReport:
    """Largest profitable single-pair deviation under a dense joint distribution.

    For the average product distribution of a trace, the per-player gap
    equals that player's raw internal regret divided by the horizon.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != game.action_counts:
        raise DimensionMismatchError(
            f"joint distribution has shape {mu.shape}, expected {game.action_counts}"
        )
    per_player = []
    for i in range(game.num_players):
        mu_i = np.moveaxis(mu, i, 0).reshape(game.action_counts[i], -1)
        li = np.moveaxis(game.losses[i], i, 0).reshape(game.action_counts[i], -1)
        inner = mu_i @ li.T  # [j, k] = E[1{a_i=j} Lambda_i(k, a_-i)]
        per_player.append(np.diag(inner)[:, None] - inner)
    max_gap = max(float(G[~np.eye(len(G), dtype=bool)].max()) for G in per_player)
    return CeGapReport(max_gap=max_gap, per_player_pair=per_player)
