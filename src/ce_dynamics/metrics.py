"""Regret accounting and correlated-equilibrium gaps over recorded runs.

A :class:`RunTrace` stores everything a run produced, per player and round:
strategies, expected-loss vectors, and (for SL, BM and arbo) the inner distributions;
:func:`inner_stream` reads a run's inner stream from them. Traces serialize to ``.npz``
with bit-exact float64 arrays, one per :class:`RunTrace` field but ``players``, then
``p{i}_<field>`` per set :class:`PlayerTrace` field of player i, in field order, so every
regret recomputes identically from a reloaded trace. :meth:`RunTrace.save` writes np.savez's
bytes block by block; SL's pair losses, the inner stream's z, are computed per block as they
are written: a played trace does not hold them.

Each quantity over a finished trace is one block step: a generator sent each block of rounds in
turn, whose carry goes from block to block: the running pair sums P[j, k] = sum_t x_t[j]
(loss_t[j] - loss_t[k]) that every regret reads, the running consecutive-ratio max and the
average product distribution. :func:`_drive` sends a step each of a run's :func:`_blocks`: the
whole-trace functions drive their steps, the runner its accounting, once the round loop has
checked every block. The regret and ratio steps read a group's round-major (T, members, ...)
records, one C-contiguous (rounds, members, ...) block per block of rounds, with a carry per
member: the runner sends them each group's records, the whole-trace functions a player's one-member view ``[:, None]``.
:data:`_LEARNERS`, the one dynamics registry, gives each name's learner class, which answers every
per-dynamics question (trace field, inner losses, ...), and whether it is optimistic.
"""

from __future__ import annotations

import os
import zipfile
from dataclasses import MISSING, dataclass, field, fields
from functools import reduce

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .games import Game
from .internal_dynamics import ArboDynamics, SlOmwu
from .omwu import Omwu
from .swap_dynamics import BmOmwu

DENSE_JOINT_MAX_ENTRIES = 10**6
# Rounds per block of a run, checked and accounted at once; bounds the (chunk, n, n) pair sums.
REGRET_CHUNK_ROUNDS = 256
# Each dynamics' (learner class, optimistic), by its full name: the class records its trace.
_LEARNERS = {"omwu": (Omwu, True), "mwu": (Omwu, False), "sl-omwu": (SlOmwu, True),
             "sl-mwu": (SlOmwu, False), "bm-omwu": (BmOmwu, True), "bm-mwu": (BmOmwu, False),
             "arbo": (ArboDynamics, True)}
# Each player record's per-round shape for n actions, by PlayerTrace field.
_ROUND_SHAPES = {"strategies": lambda n: (n,), "losses": lambda n: (n,),
                 "pair_dists": lambda n: (n * (n - 1),), "pair_losses": lambda n: (n * (n - 1),),
                 "copy_dists": lambda n: (n, n), "tree_dists": lambda n: (n ** (n - 1),)}


@dataclass
class PlayerTrace:
    """One player's records; in a played trace, member b's fields are strided ``[:, b]`` views of
    its group's round-major records, which the run's checks and steps read by block instead."""

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
        """Writes the bytes of ``np.savez(path, **arrays)``, member by member: each header field,
        then each player's set fields as ``p{i}_<field>``, each player array's C-ordered rows
        block by block, so the call holds one block above the trace. SL's pair losses, which a
        played trace does not hold, are each block's :func:`inner_stream` z. As with np.savez, a
        path without ``.npz`` gets the suffix and a file object is written as it is."""
        if not hasattr(path, "write"):
            path = os.fspath(path)
            path += "" if path.endswith(".npz") else ".npz"
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
            for f in fields(self):
                if f.name != "players":
                    value = np.array(getattr(self, f.name))
                    _write_npy(archive, f.name, value, [value])
            for i, pt in enumerate(self.players):
                for f in fields(pt):
                    if (value := getattr(pt, f.name)) is not None:
                        value = np.asarray(value)
                        blocks = (value[b] for b in _blocks(len(value)))
                    elif f.name == "pair_losses" and pt.pair_dists is not None:  # SL's z
                        value = pt.pair_dists
                        blocks = (inner_stream(self, i, b)[1][:, 0] for b in _blocks(len(value)))
                    else:
                        continue
                    _write_npy(archive, f"p{i}_{f.name}", value, blocks)

    @classmethod
    def load(cls, path) -> "RunTrace":
        """The trace :meth:`save` wrote, checked at the file: one that cannot be read, is no
        ``.npz`` archive, lacks a required array, holds ``etas`` or a player array whose dtype is not
        float64, or names an unknown dynamics raises :class:`ValidationError` naming it; ``etas``
        not holding one rate per player, or an array whose shape is not (horizon, its field's round
        shape for the player's n actions), raises :class:`DimensionMismatchError` naming both
        shapes."""
        try:  # a lone .npy loads as an array, which has no items: AttributeError
            with open(path, "rb") as file:
                arrays = dict(np.load(file, allow_pickle=False).items())
        except OSError as exc:
            raise ValidationError(f"cannot read trace archive {path}: {exc}") from exc
        except (AttributeError, EOFError, ValueError, zipfile.BadZipFile) as exc:
            raise ValidationError(f"{path} is not a trace archive: {exc}") from exc

        def array(key, shape=None, floats=True):
            if key not in arrays:
                raise ValidationError(f"{path} lacks the array {key}")
            if floats and arrays[key].dtype != np.float64:
                raise ValidationError(f"{key} has dtype {arrays[key].dtype}, expected float64")
            if shape is not None and arrays[key].shape != shape:
                raise DimensionMismatchError(
                    f"{key} has shape {arrays[key].shape}, expected {shape}")
            return arrays[key]

        # Each header array comes back a Python scalar, or a list that was a tuple.
        header = {f.name: array(f.name, floats=f.name == "etas").tolist()
                  for f in fields(cls) if f.name != "players"}
        trace = cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in header.items()})
        _learner(trace.dynamics)  # an unknown name raises
        if np.shape(trace.etas) != (trace.num_players,):
            raise DimensionMismatchError(
                f"etas has shape {np.shape(trace.etas)}, expected {(trace.num_players,)}")
        for i, n in enumerate(trace.action_counts):
            trace.players.append(PlayerTrace(**{
                f.name: array(key, (trace.horizon, *_ROUND_SHAPES[f.name](n)))
                for f in fields(PlayerTrace)
                if (key := f"p{i}_{f.name}") in arrays or f.default is MISSING}))
        return trace


def _write_npy(archive: zipfile.ZipFile, name: str, like: np.ndarray, blocks) -> None:
    """Writes ``name.npy`` into ``archive`` as np.savez does: numpy's format header of a C-ordered
    array of ``like``'s shape and dtype, then the C-ordered bytes of each of ``blocks`` in turn."""
    header = {"descr": np.lib.format.dtype_to_descr(like.dtype), "fortran_order": False,
              "shape": like.shape}
    with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
        np.lib.format.write_array_header_1_0(member, header)
        for block in blocks:
            member.write(np.ascontiguousarray(block))


def _blocks(horizon: int) -> list[slice]:
    """A run's rounds in order, as slices of at most ``REGRET_CHUNK_ROUNDS`` rounds."""
    size = REGRET_CHUNK_ROUNDS
    return [slice(s, min(s + size, horizon)) for s in range(0, horizon, size)]


def _drive(horizon: int, step):
    """Primes ``step``, sends it each of :func:`_blocks` of ``horizon`` rounds, in order, then None,
    and returns what it yields to the None: its result over those rounds."""
    next(step)
    for rounds in _blocks(horizon):
        step.send(rounds)
    return step.send(None)


def _regret_steps(strategies, losses, out, *columns):
    """Fills ``out[rounds, *columns]``, (rounds, members, 3), by block of rounds sent, with each
    member's running external, raw internal and swap regret from its group's (T, members, n)
    records, then yields ``out``. They are read off the running pair sums
    P[j, k, t] = sum_{s <= t} x_s[j] (loss_s[j] - loss_s[k]): external max_k sum_j P[j, k], raw
    internal max_{j != k} P[j, k], swap sum_j max_k P[j, k]. The per-member carry is folded into
    each block's first round before the cumsum: each entry is a sequential sum.
    """
    carry = 0.0
    while (rounds := (yield)) is not None:
        x, loss = strategies[rounds].transpose(2, 0, 1), losses[rounds].transpose(2, 0, 1)
        n = len(x)
        # P is laid out (j, k, rounds, members), so every reduction over j or k below is an
        # elementwise ufunc over whole (rounds, members) slabs: the same bits, and cheaper.
        P = np.subtract(loss[:, None], loss[None, :], out=np.empty((n, n, *x.shape[1:])))
        np.multiply(x[:, None], P, out=P)
        P[:, :, 0] += carry
        np.cumsum(P, axis=2, out=P)
        carry = P[:, :, -1].copy()  # a copy: the raw maximum below overwrites P's diagonal
        external = reduce(np.maximum, reduce(np.add, P))  # j's sums left to right
        # The sum over j is .sum(axis=2) of a C-contiguous (rounds, members, n) array, in numpy's
        # pairwise order, whose bits the golden digests pin.
        swap = np.ascontiguousarray(P.max(axis=1).transpose(1, 2, 0)).sum(axis=2)
        pairs = P.reshape(n * n, *x.shape[1:])
        pairs[:: n + 1] = -np.inf  # raw internal: the max over j != k, with no gather
        out[(rounds, *columns)] = np.stack([external, pairs.max(axis=0), swap], axis=2)
    yield out


def running_regrets(trace: RunTrace, player: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running external, raw internal and swap regret after each round, each (T,)."""
    pt, out = trace.players[player], np.empty((3, trace.horizon))
    step = _regret_steps(pt.strategies[:, None], pt.losses[:, None], out.T[:, None])
    _drive(trace.horizon, step)
    return tuple(out)


def _learner(dynamics: str):
    """The :data:`_LEARNERS` class that records a dynamics' trace; its ``trace_field`` names the
    record of its inner distributions. An unknown name raises :class:`ValidationError`."""
    if not isinstance(dynamics, str) or dynamics not in _LEARNERS:
        raise ValidationError(f"unknown dynamics {dynamics!r}, expected one of {tuple(_LEARNERS)}")
    return _LEARNERS[dynamics][0]


def _inner_dists(trace: RunTrace, player: int, rounds: slice):
    """A player's recorded inner distributions over ``rounds``, (rounds, rows, dim), and the
    learner class that recorded them."""
    cls = _learner(trace.dynamics)
    q = getattr(trace.players[player], cls.trace_field)[rounds]
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


def _ratio_steps(inner, restarts, out, *columns):
    """Fills ``out[rounds, *columns]``, (rounds, members), by block of rounds sent, with each
    member's running max of the consecutive ratio of its group's (T, members, ...) inner
    distributions, then yields ``out``. ``restarts`` holds each member's restart round (None:
    none); the carry is the last inner distributions and each member's max so far."""
    last, top = None, -np.inf
    while (rounds := (yield)) is not None:
        q = inner[rounds]
        rows = q if last is None else np.concatenate([last, q])
        ratio, per_round = rows[1:] / rows[:-1], np.ones(q.shape[:2])  # round 1 contributes 1
        np.maximum(ratio, 1.0 / ratio, out=ratio)  # two-sided, so one max over the entries
        per_round[len(q) - len(ratio) :] = ratio.max(axis=tuple(range(2, ratio.ndim)))
        for b, restart in enumerate(restarts):
            if restart in range(rounds.start, rounds.stop):
                per_round[restart - rounds.start, b] = 1.0
        per_round[0] = np.maximum(per_round[0], top)
        out[(rounds, *columns)] = per_round = np.maximum.accumulate(per_round, axis=0)
        last, top = q[-1:], per_round[-1]
    yield out


def running_max_ratio(trace: RunTrace, player: int, restart: int | None = None) -> np.ndarray:
    """Running max of the two-sided consecutive ratio of the inner distributions, (T,).

    Round t contributes max(q_t / q_{t-1}, q_{t-1} / q_t) over all entries of
    :func:`inner_stream`'s q, read without computing z; round 1 contributes 1. ``restart`` is the
    round after which the learner was reset, so the next round starts a chain and contributes 1.
    """
    inner = getattr(trace.players[player], _learner(trace.dynamics).trace_field)
    out = np.empty(trace.horizon)
    _drive(trace.horizon, _ratio_steps(inner[:, None], [restart], out[:, None]))
    return out


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


def _product_steps(trace: RunTrace):
    """Sums the per-round product distributions of each block of rounds sent, in parts of at most
    DENSE_JOINT_MAX_ENTRIES cells, then yields the total; the total is folded into each part's
    first round before the part's sum, so every cell is the plain sequential sum over rounds."""
    chunk = max(1, DENSE_JOINT_MAX_ENTRIES // int(np.prod(trace.action_counts)))
    total = np.zeros(trace.action_counts)
    while (rounds := (yield)) is not None:
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
    :class:`ValidationError` above DENSE_JOINT_MAX_ENTRIES joint profile cells, or for a trace
    with no rounds."""
    cells = int(np.prod(trace.action_counts))
    if cells > DENSE_JOINT_MAX_ENTRIES:
        raise ValidationError(
            f"joint profile space has {cells} cells, above {DENSE_JOINT_MAX_ENTRIES}"
        )
    if trace.horizon == 0:
        raise ValidationError("no rounds to average")
    return _drive(trace.horizon, _product_steps(trace)) / trace.horizon


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
