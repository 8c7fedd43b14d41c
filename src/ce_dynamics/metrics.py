"""Regret accounting and correlated-equilibrium gaps over recorded runs.

A :class:`RunTrace` stores everything a run produced, per player and round:
strategies, expected-loss vectors, and (for SL, BM and arbo) the inner distributions;
:func:`inner_stream` reads a run's inner stream from them. Traces serialize to ``.npz``
with bit-exact float64 arrays, one per :class:`RunTrace` field but ``players``, then
``p{i}_<field>`` per set :class:`PlayerTrace` field of player i, in field order, so every
regret recomputes identically from a reloaded trace. SL's pair losses, the inner stream's
z, are written from the stream: a played trace does not hold them.

Each quantity over a finished trace is one generator over its :func:`_blocks`, whose carry
goes from block to block: the running pair sums P[j, k] = sum_t x_t[j] (loss_t[j] -
loss_t[k]) that every regret reads, the running consecutive-ratio max and the average
product distribution. The whole-trace functions and the runner's walk both step it.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from functools import reduce

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .games import Game

DENSE_JOINT_MAX_ENTRIES = 10**6
# Rounds per block of a finished trace's walk; bounds the (chunk, n, n) stack of pair sums.
REGRET_CHUNK_ROUNDS = 256


@dataclass
class PlayerTrace:
    """One player's records; in a played trace, member b's fields are strided ``[:, b]`` views."""

    strategies: np.ndarray  # (T, n)
    losses: np.ndarray  # (T, n)
    pair_dists: np.ndarray | None = None  # (T, n(n-1)) for pair-space runs
    pair_losses: np.ndarray | None = None  # (T, n(n-1)), SL's inner losses: loaded, not played
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
            if pt.pair_dists is not None and pt.pair_losses is None:  # SL's, from the stream's z
                pt = replace(pt, pair_losses=inner_stream(self, i)[1][:, 0])
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


def _blocks(horizon: int) -> list[slice]:
    """A run's rounds in order, as slices of at most ``REGRET_CHUNK_ROUNDS`` rounds."""
    size = REGRET_CHUNK_ROUNDS
    return [slice(s, min(s + size, horizon)) for s in range(0, horizon, size)]


def _regret_blocks(trace: RunTrace, player: int):
    """Yields each block's running external, raw internal and swap regret, each (rounds,), read
    off the running pair sums P[t, j, k] = sum_{s <= t} x_s[j] (loss_s[j] - loss_s[k]): external
    max_k sum_j P[j, k], raw internal max_{j != k} P[j, k], swap sum_j max_k P[j, k]. The carry
    is folded into each block's first round before the cumsum: each entry is a sequential sum.
    """
    pt, n = trace.players[player], trace.action_counts[player]
    offdiag, carry = ~np.eye(n, dtype=bool), np.zeros((n, n))
    for rounds in _blocks(trace.horizon):
        x, loss = pt.strategies[rounds], pt.losses[rounds]
        P = x[:, :, None] * (loss[:, :, None] - loss[:, None, :])
        P[0] += carry
        carry = np.cumsum(P, axis=0, out=P)[-1]
        # Maxima over the short action axes are elementwise over the rounds: exact, and cheaper.
        yield (reduce(np.maximum, P.sum(axis=1).T), P[:, offdiag].max(axis=1),
               reduce(np.maximum, P.transpose(2, 0, 1)).sum(axis=1))


def running_regrets(trace: RunTrace, player: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running external, raw internal and swap regret after each round, each (T,)."""
    return tuple(np.concatenate([np.empty((3, 0)), *map(np.stack, _regret_blocks(trace, player))], 1))


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
    for b in _blocks(len(z)):
        z[b] = cls.inner_losses(x[b], loss[b]).reshape(z[b].shape)
    return q, z


def _ratio_blocks(trace: RunTrace, player: int, restart: int | None = None):
    """Yields each block's running max of the consecutive ratio; the carry is the last inner
    distribution and the max so far."""
    last, top = None, -np.inf
    for rounds in _blocks(trace.horizon):
        q = _inner_dists(trace, player, rounds)[0]
        rows = q if last is None else np.concatenate([last, q])
        ratio, per_round = rows[1:] / rows[:-1], np.ones(len(q))  # round 1 contributes 1
        per_round[len(q) - len(ratio) :] = np.maximum(ratio.max(axis=(1, 2)),
                                                      (1.0 / ratio).max(axis=(1, 2)))
        if restart in range(rounds.start, rounds.stop):
            per_round[restart - rounds.start] = 1.0
        per_round[0] = np.maximum(per_round[0], top)
        per_round = np.maximum.accumulate(per_round)
        last, top = q[-1:], per_round[-1]
        yield per_round


def running_max_ratio(trace: RunTrace, player: int, restart: int | None = None) -> np.ndarray:
    """Running max of the two-sided consecutive ratio of the inner distributions, (T,).

    Round t contributes max(q_t / q_{t-1}, q_{t-1} / q_t) over all entries of
    :func:`inner_stream`'s q, read without computing z; round 1 contributes 1. ``restart`` is the
    round after which the learner was reset, so the next round starts a chain and contributes 1.
    """
    return np.concatenate([np.empty(0), *_ratio_blocks(trace, player, restart)])


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


def _product_blocks(trace: RunTrace):
    """Yields the running total of the per-round product distributions through each block, in
    parts of at most DENSE_JOINT_MAX_ENTRIES cells; the total is folded into each part's first
    round before the part's sum, so every cell is the plain sequential sum over rounds."""
    chunk, total = max(1, DENSE_JOINT_MAX_ENTRIES // int(np.prod(trace.action_counts))), 0.0
    for rounds in _blocks(trace.horizon):
        for s in range(rounds.start, rounds.stop, chunk):
            part = slice(s, min(s + chunk, rounds.stop))
            block = trace.players[0].strategies[part].copy()
            for i in range(1, trace.num_players):
                x = trace.players[i].strategies[part]
                block = block[..., None] * x.reshape(x.shape[0], *(1,) * i, x.shape[1])
            block[0] += total
            total = block.sum(axis=0)
        yield total


def average_product_distribution(trace: RunTrace) -> np.ndarray:
    """Time average of the per-round product distributions, a dense joint tensor. Raises
    :class:`ValidationError` above DENSE_JOINT_MAX_ENTRIES joint profile cells."""
    cells = int(np.prod(trace.action_counts))
    if cells > DENSE_JOINT_MAX_ENTRIES:
        raise ValidationError(
            f"joint profile space has {cells} cells, above {DENSE_JOINT_MAX_ENTRIES}"
        )
    total = np.zeros(trace.action_counts)
    for total in _product_blocks(trace):  # the last block's total
        pass
    return total / trace.horizon


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
