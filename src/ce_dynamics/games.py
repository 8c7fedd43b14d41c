"""Finite normal-form games with loss tensors in [0, 1].

A game is stored densely: one loss tensor per player, indexed by the joint
action profile ``(a_1, ..., a_m)`` with player 1's action on the first axis.
All tensors are immutable after construction so games can be shared freely
across threads. Expected losses contract one opponent at a time, each by one
``ndarray.dot`` on a 2-D view of what is left of the tensor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, GameFormatError, ValidationError

SIMPLEX_ATOL = 1e-12


def is_distribution(v: np.ndarray) -> np.ndarray:
    """Row-wise simplex test over the last axis of ``v``.

    True where the row is non-negative and sums to 1 up to ``SIMPLEX_ATOL``; a NaN
    entry fails. A 1-D ``v`` gives one boolean, a ``(T, n)`` array one per row.
    """
    v = np.asarray(v, dtype=float)
    return np.all(v >= 0.0, axis=-1) & (np.abs(v.sum(axis=-1) - 1.0) <= SIMPLEX_ATOL)


@dataclass(frozen=True)
class Game:
    """An m-player game given by per-player loss tensors over joint profiles.

    ``losses[i]`` has shape ``action_counts`` and entries in [0, 1].
    """

    action_counts: tuple[int, ...]
    losses: tuple[np.ndarray, ...]

    def __post_init__(self):
        m = len(self.action_counts)
        if m < 2:
            raise ValidationError(f"need at least 2 players, got {m}")
        if any(n < 2 for n in self.action_counts):
            raise ValidationError(f"every player needs >= 2 actions, got {self.action_counts}")
        if len(self.losses) != m:
            raise ValidationError(f"expected {m} loss tensors, got {len(self.losses)}")
        shape = tuple(self.action_counts)
        frozen = []
        for i, tensor in enumerate(self.losses):
            arr = np.asarray(tensor, dtype=float)
            if arr.shape != shape:
                raise DimensionMismatchError(
                    f"loss tensor of player {i} has shape {arr.shape}, expected {shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"loss tensor of player {i} has non-finite entries")
            if arr.min() < 0.0 or arr.max() > 1.0:
                raise ValidationError(
                    f"loss tensor of player {i} has entries outside [0, 1]: "
                    f"min={arr.min()}, max={arr.max()}"
                )
            arr = arr.copy()
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "losses", tuple(frozen))
        object.__setattr__(self, "action_counts", shape)

    @property
    def num_players(self) -> int:
        return len(self.action_counts)


def check_profile(game: Game, profile) -> list[np.ndarray]:
    """Validate a mixed-strategy profile against a game's action counts."""
    if len(profile) != game.num_players:
        raise DimensionMismatchError(
            f"profile has {len(profile)} strategies for {game.num_players} players"
        )
    out = []
    for i, (x, n) in enumerate(zip(profile, game.action_counts)):
        x = np.asarray(x, dtype=float)
        if x.shape != (n,):
            raise DimensionMismatchError(
                f"strategy of player {i} has shape {x.shape}, expected ({n},)"
            )
        if not is_distribution(x):
            raise ValidationError(f"strategy of player {i} is not a probability vector: {x!r}")
        out.append(x)
    return out


def expected_loss(game: Game, profile, player: int) -> np.ndarray:
    """Expected loss vector of ``player`` given opponents' mixed strategies.

    Entry ``j`` is the expectation of the player's loss tensor at action ``j``
    over the product of opponent strategies; the player's own strategy never
    enters. Every entry lies in [0, 1]. The profile is checked by
    :func:`check_profile`, then contracted by :func:`_contract`.
    """
    return _contract(game, check_profile(game, profile), player)


def _contract(game: Game, strategies, player: int) -> np.ndarray:
    """Unchecked step of :func:`expected_loss` for float simplex ``strategies``."""
    out = np.empty((1, game.action_counts[player]))
    return _contraction(game, player, [x[None] for x in strategies], out)(0)


def _contraction(game: Game, player: int, rows, out):
    """:func:`_contract` for ``player`` bound once to the game, to every player's strategy rows,
    ``rows[j]`` of shape (T, n_j), and to its loss rows ``out``, (T, n): a function of the round
    index t that reads the opponents' round-t rows and computes ``out[t]``, which it returns.
    The later players' axes are contracted from the last one down, then the earlier players'
    axes from the first one up, each by one ``ndarray.dot`` on a 2-D view, ``(-1, n)`` or
    ``(n, -1)``: one BLAS gemv per opponent. The tensor's view is bound here, and the last
    ``dot`` writes into ``out[t]``; every round-t row is C-contiguous, as ``dot`` needs."""
    tensor, m = game.losses[player], game.num_players
    if m == 2:  # one dot, on the tensor as it is
        y = rows[1 - player]
        return (lambda t: tensor.dot(y[t], out[t])) if player == 0 else (
            lambda t: y[t].dot(tensor, out[t]))
    steps = [(rows[j], (-1, game.action_counts[j]), True) for j in range(m - 1, player, -1)]
    steps += [(rows[j], (n, -1), False) for j, n in enumerate(game.action_counts[:player])]
    (x0, first, right0), *middle, (x1, last, right1) = steps
    view = tensor.reshape(first)

    def contract(t):
        v = view.dot(x0[t]) if right0 else x0[t].dot(view)
        for x, shape, right in middle:
            v = v.reshape(shape).dot(x[t]) if right else x[t].dot(v.reshape(shape))
        return v.reshape(last).dot(x1[t], out[t]) if right1 else x1[t].dot(v.reshape(last), out[t])

    return contract


_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64_stream(seed: int, count: int) -> np.ndarray:
    """Deterministic uniform [0, 1) doubles from the splitmix64 stream.

    Each step advances the state by the 64-bit golden-ratio increment and
    mixes it; doubles take the top 53 bits. Pure-integer arithmetic keeps the
    stream identical across platforms and numpy versions. ``seed`` lies in [0, 2^64).
    """
    state = seed
    out = np.empty(count, dtype=float)
    for idx in range(count):
        state = (state + _SPLITMIX_GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z = z ^ (z >> 31)
        out[idx] = (z >> 11) * 2.0**-53
    return out


def random_game(num_players: int, action_counts, seed: int) -> Game:
    """Game with i.i.d. uniform [0, 1) losses from a seeded splitmix64 stream.

    Identical ``(num_players, action_counts, seed)`` always produces the
    identical game. Entries are drawn player by player in row-major profile
    order. The seed is the stream's 64-bit start state: one outside [0, 2^64)
    is refused, not wrapped onto another seed's game.
    """
    action_counts = tuple(int(n) for n in action_counts)
    if num_players < 2 or len(action_counts) != num_players or any(n < 2 for n in action_counts):
        raise ValidationError(
            f"invalid shape: players={num_players}, actions={action_counts}"
        )
    if not 0 <= seed <= _MASK64:
        raise ValidationError(f"seed {seed} outside [0, 2**64)")
    cells = int(np.prod(action_counts))
    draws = _splitmix64_stream(seed, num_players * cells)
    losses = tuple(
        draws[i * cells : (i + 1) * cells].reshape(action_counts) for i in range(num_players)
    )
    return Game(action_counts=action_counts, losses=losses)


def save_game(game: Game) -> bytes:
    """Serialize to the JSON wire format (flat row-major loss lists)."""
    doc = {
        "players": game.num_players,
        "actions": list(game.action_counts),
        "losses": [tensor.ravel(order="C").tolist() for tensor in game.losses],
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode("ascii")


def load_game(data: bytes) -> Game:
    """Parse the JSON wire format produced by :func:`save_game`."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise GameFormatError(f"game file is not UTF-8: {exc}", offset=exc.start) from exc
    except json.JSONDecodeError as exc:
        raise GameFormatError(
            f"malformed game JSON at byte offset {exc.pos}: {exc.msg}", offset=exc.pos
        ) from exc
    if not isinstance(doc, dict):
        raise GameFormatError("game JSON must be an object")
    try:
        players = int(doc["players"])
        actions = tuple(int(n) for n in doc["actions"])
        rows = [np.asarray(row, dtype=float) for row in doc["losses"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise GameFormatError(f"game JSON missing or invalid field: {exc}") from exc
    if len(actions) != players:
        raise GameFormatError(
            f"'actions' lists {len(actions)} players but 'players' is {players}"
        )
    cells = int(np.prod(actions)) if actions else 0
    tensors = []
    for i, arr in enumerate(rows):
        if arr.shape != (cells,):
            raise GameFormatError(
                f"losses[{i}] has {arr.size} entries, expected {cells}"
            )
        tensors.append(arr.reshape(actions))
    return Game(action_counts=actions, losses=tuple(tensors))
