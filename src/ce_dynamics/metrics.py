"""Regret accounting and correlated-equilibrium gaps over recorded runs.

A :class:`RunTrace` stores everything a run produced, per player and round:
strategies, expected-loss vectors, and (when the dynamics expose them) the
inner pair or per-copy distributions used by the stability and variance
diagnostics. Traces serialize to ``.npz`` with bit-exact float64 arrays, so
every regret recomputes identically from a reloaded trace.

Running regrets and the running consecutive-ratio max are computed here and
nowhere else: the per-round CSV columns, the summary's final values and the
final-value functions all read :func:`running_regrets` and
:func:`running_max_ratio`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .games import Game

DENSE_JOINT_MAX_ENTRIES = 10**6
# Rounds per block of the running-regret prefix sums; bounds the (chunk, n, n) stack.
REGRET_CHUNK_ROUNDS = 256


@dataclass
class PlayerTrace:
    strategies: np.ndarray  # (T, n)
    losses: np.ndarray  # (T, n)
    pair_dists: np.ndarray | None = None  # (T, n(n-1)) for pair-space runs
    pair_losses: np.ndarray | None = None  # (T, n(n-1))
    copy_dists: np.ndarray | None = None  # (T, n, n) for swap-dynamics runs
    tree_dists: np.ndarray | None = None  # (T, n^(n-1)) for tree-space runs

    def stability_rows(self) -> np.ndarray:
        """Inner distributions as a (T, rows, dim) stack for ratio checks."""
        if self.pair_dists is not None:
            return self.pair_dists[:, None, :]
        if self.copy_dists is not None:
            return self.copy_dists
        if self.tree_dists is not None:
            return self.tree_dists[:, None, :]
        return self.strategies[:, None, :]


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
        arrays = {
            "horizon": np.array(self.horizon),
            "dynamics": np.array(self.dynamics),
            "action_counts": np.array(self.action_counts),
            "etas": np.array(self.etas),
        }
        for i, pt in enumerate(self.players):
            arrays[f"p{i}_strategies"] = pt.strategies
            arrays[f"p{i}_losses"] = pt.losses
            for name in ("pair_dists", "pair_losses", "copy_dists", "tree_dists"):
                value = getattr(pt, name)
                if value is not None:
                    arrays[f"p{i}_{name}"] = value
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path) -> "RunTrace":
        with np.load(path, allow_pickle=False) as data:
            action_counts = tuple(int(n) for n in data["action_counts"])
            trace = cls(
                horizon=int(data["horizon"]),
                dynamics=str(data["dynamics"]),
                action_counts=action_counts,
                etas=tuple(float(e) for e in data["etas"]),
            )
            for i in range(len(action_counts)):
                kwargs = {}
                for name in ("pair_dists", "pair_losses", "copy_dists", "tree_dists"):
                    key = f"p{i}_{name}"
                    if key in data:
                        kwargs[name] = data[key]
                trace.players.append(
                    PlayerTrace(
                        strategies=data[f"p{i}_strategies"],
                        losses=data[f"p{i}_losses"],
                        **kwargs,
                    )
                )
        return trace


def _player_arrays(trace: RunTrace, player: int) -> tuple[np.ndarray, np.ndarray]:
    pt = trace.players[player]
    return pt.strategies, pt.losses


def running_regrets(trace: RunTrace, player: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running external, raw internal and swap regret after each round, each (T,).

    All three come from prefix sums over rounds of x_t (outer) loss_t and of
    loss_t, taken REGRET_CHUNK_ROUNDS rounds at a time so the (chunk, n, n)
    stack stays small. The carry is folded into a chunk's first round before
    the cumsum, so every prefix sum is the plain sequential one.
    """
    chunk = REGRET_CHUNK_ROUNDS
    xs, ls = _player_arrays(trace, player)
    T, n = xs.shape
    offdiag = ~np.eye(n, dtype=bool)
    out = np.empty((3, T))
    cross = np.zeros((n, n))  # cross[j, k] = sum_t x_t[j] loss_t[k]
    cum_loss = np.zeros(n)
    for s in range(0, T, chunk):
        block = slice(s, s + chunk)
        c = xs[block, :, None] * ls[block, None, :]
        c[0] += cross
        np.cumsum(c, axis=0, out=c)
        cl = ls[block].copy()
        cl[0] += cum_loss
        np.cumsum(cl, axis=0, out=cl)
        cross, cum_loss = c[-1], cl[-1]
        diag = np.diagonal(c, axis1=1, axis2=2)
        play = diag.sum(axis=1)
        out[0, block] = play - cl.min(axis=1)
        out[1, block] = (diag[:, :, None] - c)[:, offdiag].max(axis=1)
        out[2, block] = play - c.min(axis=2).sum(axis=1)
    return out[0], out[1], out[2]


def running_max_ratio(trace: RunTrace, player: int, restart: int | None = None) -> np.ndarray:
    """Running max of the two-sided consecutive ratio of the inner distributions, (T,).

    Round t contributes max(rows_t / rows_{t-1}, rows_{t-1} / rows_t) over all
    entries; round 1 contributes 1. ``restart`` is the round after which the
    learner was reset, so the next round starts a new chain and contributes 1.
    """
    rows = trace.players[player].stability_rows()
    T, chunk = rows.shape[0], REGRET_CHUNK_ROUNDS
    per_round = np.ones(T)
    for s in range(1, T, chunk):
        e = min(s + chunk, T)
        ratio = rows[s:e] / rows[s - 1 : e - 1]
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


def pair_objective_matrix(trace: RunTrace, player: int) -> np.ndarray:
    """G[j, k] = sum_t x_t[j] (loss_t[j] - loss_t[k]); diagonal is zero."""
    xs, ls = _player_arrays(trace, player)
    weighted = xs * ls  # (T, n)
    totals = weighted.sum(axis=0)  # sum_t x[j] loss[j]
    cross = xs.T @ ls  # [j, k] = sum_t x[j] loss[k]
    return totals[:, None] - cross


def offdiagonal_max(G: np.ndarray) -> float:
    """Max over entries j != k; the diagonal never participates."""
    n = G.shape[0]
    return float(G[~np.eye(n, dtype=bool)].max())


def internal_regret(trace: RunTrace, player: int) -> float:
    """Raw best single-pair reallocation gain; may be negative."""
    return _last(running_regrets(trace, player)[1])


def clamped_internal_regret(trace: RunTrace, player: int) -> float:
    return max(0.0, internal_regret(trace, player))


def swap_regret(trace: RunTrace, player: int) -> float:
    """Gap to the best per-action reassignment in hindsight."""
    return _last(running_regrets(trace, player)[2])


def best_swap_function(trace: RunTrace, player: int) -> np.ndarray:
    """Argmin target per action; ties go to the lowest action index."""
    xs, ls = _player_arrays(trace, player)
    S = xs.T @ ls
    return S.argmin(axis=1)


@dataclass
class DenseJointDistribution:
    """Materialized average product distribution of play."""

    tensor: np.ndarray


@dataclass
class LazyJointDistribution:
    """Average product distribution kept as the underlying trace.

    Deviation expectations are evaluated by streaming per-round product
    expectations; nothing of profile-tensor size is ever materialized.
    """

    trace: RunTrace


def average_product_distribution(
    trace: RunTrace, max_entries: int = DENSE_JOINT_MAX_ENTRIES
):
    """Time average of the per-round product distributions.

    Returns a dense tensor when the joint profile space has at most
    ``max_entries`` cells, otherwise a lazy handle.
    """
    cells = int(np.prod(trace.action_counts))
    if cells > max_entries:
        return LazyJointDistribution(trace)
    shape = trace.action_counts
    acc = np.zeros(shape)
    for t in range(trace.horizon):
        block = np.ones(())
        for i in range(trace.num_players):
            block = np.multiply.outer(block, trace.players[i].strategies[t])
        acc += block
    return DenseJointDistribution(acc / trace.horizon)


@dataclass
class CeGapReport:
    max_gap: float  # max over players of the off-diagonal pair maxima
    per_player_pair: list[np.ndarray]  # each (n_i, n_i); diagonal is meaningless


def _dense_ce_gap(game: Game, tensor: np.ndarray) -> CeGapReport:
    per_player = []
    for i in range(game.num_players):
        mu = np.moveaxis(tensor, i, 0).reshape(game.action_counts[i], -1)
        li = np.moveaxis(game.losses[i], i, 0).reshape(game.action_counts[i], -1)
        inner = mu @ li.T  # [j, k] = E[1{a_i=j} Lambda_i(k, a_-i)]
        per_player.append(np.diag(inner)[:, None] - inner)
    max_gap = max(offdiagonal_max(G) for G in per_player)
    return CeGapReport(max_gap=max_gap, per_player_pair=per_player)


def _lazy_ce_gap(trace: RunTrace) -> CeGapReport:
    per_player = [
        pair_objective_matrix(trace, i) / trace.horizon for i in range(trace.num_players)
    ]
    max_gap = max(offdiagonal_max(G) for G in per_player)
    return CeGapReport(max_gap=max_gap, per_player_pair=per_player)


def ce_gap(game: Game, mu) -> CeGapReport:
    """Largest profitable single-pair deviation under a joint distribution.

    Accepts the dense or the lazy form produced by
    :func:`average_product_distribution`. For the average product
    distribution of a trace, the per-player gap equals that player's raw
    internal regret divided by the horizon.
    """
    if isinstance(mu, DenseJointDistribution):
        return _dense_ce_gap(game, mu.tensor)
    if isinstance(mu, LazyJointDistribution):
        return _lazy_ce_gap(mu.trace)
    raise ValidationError(f"unsupported joint distribution type {type(mu)!r}")
