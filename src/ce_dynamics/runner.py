"""Experiment runner: configuration, learning-rate schedules, output files.

A run executes the two-phase self-play protocol: freeze every player's strategy,
compute every expected-loss vector from the frozen profile, then deliver all
feedback. Players with equal action counts are the members of one learner, so a
round plays, updates and writes the trace once per group, on operands bound once
per run. The trace is the round's only buffer: each group's records are round-major,
(T, members, ...), so its round-t rows are one C-contiguous block, and every stage computes
straight into them: each group's step its strategy and inner rows (``Omwu``'s softmax with
``out``; SL and BM by their unchecked stationary solve, ``_next_strategy``), then each
player's contraction of the opponents' round-t strategy rows its loss row
(:func:`games._contraction`), then each group's unchecked ``_update`` reads its loss rows:
game losses in [0, 1], which leave each softmax's max-shift and floor off while they cannot
bind (:class:`omwu.Omwu`, per member since its reset).
Adaptive controllers whose budget can bind within the horizon scan each block of
``REGRET_CHUNK_ROUNDS`` inner-stream rounds; at a block's first breach the learners are restored
to the block's start and replayed up to that round, where each breaching player's member is
reset alone. The others are never scanned. The play keeps each
group's records (:attr:`Play.records`). After the loop, :func:`_walk` owns the one sequence
of blocks over the finished trace: it gates every stationary solve by its residual and
checks every strategy against the simplex, once per group record block, (rounds, members,
...), and yields each checked block, which :func:`metrics._drive` sends to a block step.
That checked play is :func:`play_dynamics`; :func:`run_dynamics` adds the accounting, one
step, :func:`_summarize`, which :func:`internal_dynamics.verify_equivalence` skips. It sends
each block on to the steps it holds, each a generator that keeps its carry and loops over no
blocks: per group, the round table's regret and ratio columns of its players (:mod:`metrics`),
read from its record blocks; the average product distribution; and the reports
(:mod:`diagnostics`), which read each player's inner stream once per block. It fills the
table's other columns itself, and BM's loss-decomposition residual once per group record
block. The (T, m, 7) round table is kept on the result; :func:`emit_outputs` renders it
straight into its file by block of rounds and column, each distinct number once, and writes
the trace archive by block too. Up to ``metrics.DENSE_JOINT_MAX_ENTRIES`` joint cells the CE
gap comes from the average product distribution and is checked against max internal regret / T;
above, it is that ratio and its identity residual is null. Outputs are deterministic given the
configuration.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import metrics
from .diagnostics import (
    DEFAULT_VARIANCE_BUDGET_CONSTANT,
    _budget_steps,
    _rvu_steps,
    _smoothness_steps,
    _streamed,
    budget_depth,
    resolve_smoothness_alpha,
    running_variance_sums,
    stability_check,
)
from .errors import StationaryResidualError, ValidationError
# expected_loss stays bound here: perfbench's smoke test reads runner.expected_loss.
from .games import Game, _contraction, expected_loss, is_distribution, load_game, random_game
from .markov_tree import STATIONARY_RESIDUAL_TOL, stationary_residual
from .metrics import (
    REGRET_CHUNK_ROUNDS,
    _LEARNERS,
    PlayerTrace,
    RunTrace,
    _blocks,
    _drive,
    _product_steps,
    _ratio_steps,
    _regret_steps,
    ce_gap,
    inner_stream,
)
from .omwu import Omwu, Stationary
from .swap_dynamics import BmOmwu, decomposition_residuals

DYNAMICS = tuple(_LEARNERS)
ETA_RULES = ("fixed", "theorem-internal", "theorem-swap", "adaptive")

# The numeric fields of RunConfig and the plain types each takes; None only where it is the default.
_NUMBER_TYPES = {**dict.fromkeys(("horizon", "game_seed", "players", "smoothness_order"), int),
                 **dict.fromkeys(("eta", "schedule_constant", "smoothness_alpha", "rvu_constant",
                                  "variance_budget", "adaptive_budget"), (int, float))}

CSV_COLUMNS = (
    "t",
    "player",
    "external_regret",
    "internal_regret_raw",
    "internal_regret_clamped",
    "swap_regret",
    "ce_gap_running",
    "eta",
    "max_consec_ratio",
)


@dataclass
class RunConfig:
    dynamics: str
    horizon: int
    eta_rule: str = "fixed"
    eta: float | None = None
    schedule_constant: float = 1.0
    log_base: str = "e"  # natural log in schedules; "2" switches the base
    game_file: str | None = None
    players: int | None = None
    action_counts: tuple[int, ...] | None = None
    game_seed: int = 0
    out_format: str = "csv"
    save_trace: bool = False
    smoothness_order: int | None = None
    smoothness_alpha: float | None = None
    rvu_constant: float | None = None
    variance_budget: float | None = None
    adaptive_budget: float = DEFAULT_VARIANCE_BUDGET_CONSTANT

    def validate(self) -> None:
        """Refuse a bad field with :class:`ValidationError` naming it. A numpy number becomes the
        plain int or float it holds, ``action_counts`` a tuple and a path-like ``game_file`` its
        string: what the echo writes."""
        metrics._learner(self.dynamics)  # an unknown name raises
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _NUMBER_TYPES and not (value is None and f.default is None):
                setattr(self, f.name, _number(f.name, value, _NUMBER_TYPES[f.name]))
        if self.action_counts is not None:
            try:
                self.action_counts = tuple(_number("action_counts entry", n, int)
                                           for n in self.action_counts)
            except TypeError:  # not iterable
                raise ValidationError(f"action_counts must be a sequence of integers, got "
                                      f"{self.action_counts!r}") from None
        if self.eta_rule not in ETA_RULES:
            raise ValidationError(f"unknown eta rule {self.eta_rule!r}, expected one of {ETA_RULES}")
        if self.horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.horizon}")
        if self.eta_rule == "fixed":
            if self.eta is None or not 0.0 < self.eta < math.inf:
                raise ValidationError(
                    f"fixed eta rule requires a positive finite eta, got {self.eta}"
                )
        elif self.eta is not None:
            raise ValidationError(f"eta rule {self.eta_rule!r} does not take an explicit eta")
        if not 0.0 < self.schedule_constant < math.inf:
            raise ValidationError(
                f"schedule constant must be positive and finite, got {self.schedule_constant}"
            )
        if not 0.0 <= self.adaptive_budget < math.inf:
            raise ValidationError(
                f"adaptive budget must be non-negative and finite, got {self.adaptive_budget}"
            )
        for name in ("smoothness_alpha", "rvu_constant", "variance_budget"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.smoothness_order is not None:
            resolve_smoothness_alpha(self.smoothness_order, self.horizon, self.smoothness_alpha)
        elif self.smoothness_alpha is not None:
            raise ValidationError("smoothness alpha needs a smoothness order")
        if self.log_base not in ("e", "2"):
            raise ValidationError(f"log base must be 'e' or '2', got {self.log_base!r}")
        if self.out_format not in ("csv", "json"):
            raise ValidationError(f"format must be 'csv' or 'json', got {self.out_format!r}")
        if self.game_file is None and (self.players is None or self.action_counts is None):
            raise ValidationError("need either a game file or players + action counts")
        if isinstance(self.game_file, os.PathLike):
            self.game_file = os.fspath(self.game_file)  # the echo writes the path as a string
        if not isinstance(self.game_file, (type(None), str)):
            raise ValidationError(f"game_file must be a path, got {self.game_file!r}")

    def echo(self) -> dict:
        """Config as emitted into the summary; output options excluded."""
        doc = asdict(self)
        del doc["out_format"], doc["save_trace"]
        return doc


def _number(name: str, value, types):
    """``value`` if it is a plain number of ``types`` (no bool) once a numpy scalar is unwrapped."""
    value = value.item() if isinstance(value, np.generic) else value
    if isinstance(value, bool) or not isinstance(value, types):
        kind = "an integer" if types is int else "a real number"
        raise ValidationError(f"{name} must be {kind}, got {value!r}")
    return value


def load_config_game(config: RunConfig) -> Game:
    """The configured game: its file's, read as :func:`load_game`, or the seeded random game. A
    file that cannot be read raises :class:`ValidationError` naming its path."""
    if config.game_file is not None:
        try:
            data = Path(config.game_file).read_bytes()
        except OSError as exc:
            raise ValidationError(f"cannot read game file {config.game_file}: {exc}") from exc
        return load_game(data)
    return random_game(config.players, config.action_counts, config.game_seed)


def _schedule_log(horizon: int, base: str) -> float:
    value = math.log(horizon) if base == "e" else math.log2(horizon)
    return max(value, 1.0)  # keep schedules finite and positive at tiny horizons


def resolve_eta(config: RunConfig, num_players: int, action_count: int) -> float:
    """Per-player learning rate under the configured rule."""
    rule = config.eta_rule
    if rule == "fixed":
        return float(config.eta)
    if rule == "adaptive":
        # Adaptive mode starts at the matching theorem schedule for the dynamics.
        rule = "theorem-swap" if metrics._learner(config.dynamics) is BmOmwu else "theorem-internal"
    log4 = _schedule_log(config.horizon, config.log_base) ** 4
    if rule == "theorem-swap":
        return 1.0 / (config.schedule_constant * num_players * action_count**3 * log4)
    return 1.0 / (config.schedule_constant * num_players * log4)


def adversarial_eta(dim: int, horizon: int) -> float:
    """Robust worst-case rate sqrt(log(dim) / T) used after a budget violation."""
    return math.sqrt(math.log(dim) / horizon)


class AdaptiveEtaController:
    """Permanent one-way switch to the robust rate on a variance-budget breach.

    Tracks, per inner stream, the running sums of Var_q(z_t - z_{t-1}) and
    Var_q(z_{t-1}) (:func:`running_variance_sums`); a round where the first
    exceeds half the second plus budget_constant * ceil(log2 T)^5 switches.

    ``round_ceiling`` bounds what one round adds to the first sum. The controller is
    :attr:`live` only if T rounds of it exceed the allowance: else the first sum stays within
    the allowance, the second is non-negative, and no round of the run can breach, so the run
    never scans it. Without a ceiling it is live.

    :meth:`scan` finds a block of rounds' first breach and folds nothing in;
    :meth:`advance` folds the block in up to a round. :meth:`update` is the
    one-round case.
    """

    def __init__(self, horizon: int, dim: int, budget_constant: float,
                 round_ceiling: float = math.inf):
        self.depth = budget_depth(horizon)
        self.allowance = budget_constant * self.depth**5
        self.live = horizon * round_ceiling > self.allowance
        self.eta_adversarial = adversarial_eta(dim, horizon)
        self.lhs = 0.0
        self.prev_variance_sum = 0.0
        self._prev_rows = None
        self._block = None
        self.switch_round: int | None = None

    @property
    def switched(self) -> bool:
        return self.switch_round is not None

    def scan(self, first_round: int, q: np.ndarray, z: np.ndarray) -> int | None:
        """The first round of a block of inner feedback, (rounds, rows, dim), to breach; or None."""
        carry = self.lhs, self.prev_variance_sum
        lhs, prev_sum = running_variance_sums(q, z, self._prev_rows, carry)
        self._block = first_round, lhs, prev_sum, z
        breach = np.flatnonzero(lhs > 0.5 * prev_sum + self.allowance)
        return first_round + int(breach[0]) if breach.size else None

    def advance(self, last_round: int, switch: bool = False) -> None:
        """Fold in the last scanned block up to ``last_round``; switch there if ``switch``."""
        first_round, lhs, prev_sum, z = self._block
        k = last_round - first_round
        self.lhs, self.prev_variance_sum = float(lhs[k]), float(prev_sum[k])
        self._prev_rows = z[k].copy()
        if switch:
            self.switch_round = last_round

    def update(self, round_index: int, q_rows: np.ndarray, z_rows: np.ndarray) -> bool:
        """Fold in one round of inner feedback; True when the switch fires now."""
        if self.switched:
            return False
        fired = self.scan(round_index, q_rows[None], z_rows[None]) is not None
        self.advance(round_index, fired)
        return fired


def _round_ceiling(learner: Omwu) -> float:
    """The most one round of self-play adds to a member's sum of Var_q(z_t - z_{t-1}): rows
    (2 inner_span)^2. Game losses in [0, 1] keep its inner losses, (rows, dim), in a range of
    width ``inner_span`` that holds 0, so each difference and its q-mean lie within inner_span
    of 0, and each row's variance within (2 inner_span)^2, 4x Popoviciu's bound."""
    return math.prod(learner.shape[len(learner.members) : -1]) * (2.0 * learner.inner_span) ** 2


def _build_dynamics(name: str, n: int, eta):
    cls, optimistic = _LEARNERS[name]
    return cls(n, eta, optimistic=optimistic)


@dataclass
class Play:
    """A run's checked play: its trace and what the accounting reads beside it. ``records`` maps
    each group of players with equal action counts to its round-major (T, members, ...) records,
    by trace field: what the trace's players view, and what the walk and its steps read."""

    trace: RunTrace
    game: Game
    switch_rounds: list[int | None]
    eta_final: list[float]
    residuals: list[float] | None  # each player's worst stationary residual, SL and BM only
    records: dict[tuple[int, ...], dict[str, np.ndarray]]


@dataclass
class RunResult(Play):
    """A play with its summary, each player's smoothness report (None without an order) and its
    kept (T, m, 7) round table, rendered by :func:`render_csv`; :attr:`rows` is built on demand."""

    summary: dict
    table: np.ndarray
    smoothness: list | None

    @property
    def rows(self) -> list[tuple]:
        """The CSV rows ``(t, player, *columns)``, in round-then-player order."""
        rounds = enumerate(self.table.tolist(), 1)
        return [(t, i, *row) for t, per_round in rounds for i, row in enumerate(per_round)]


def player_groups(counts) -> list[list[int]]:
    """Players with equal action counts, in player order: the members of one learner."""
    return [[i for i, c in enumerate(counts) if c == n] for n in dict.fromkeys(counts)]


def run_dynamics(config: RunConfig, game: Game | None = None) -> RunResult:
    """The checked play of :func:`play_dynamics` and its accounting, the round table and the
    summary, one block step sent each block of the same walk."""
    play = _play(config, game)
    table = np.empty((config.horizon, play.game.num_players, 7))
    summary, smoothness = _drive(_walk(play), _summarize(config, play, table))
    return RunResult(**vars(play), summary=summary, table=table, smoothness=smoothness)


def play_dynamics(config: RunConfig, game: Game | None = None) -> Play:
    """A run's checked play: every stationary solve gated, every strategy on the simplex."""
    play = _play(config, game)
    list(_walk(play))  # the checks alone: no step takes the blocks
    return play


def _play(config: RunConfig, game: Game | None) -> Play:
    """A run's play, unchecked: the round loop, with its adaptive controllers' replays. Every
    group steps into its round-t strategy and ``trace_field`` rows, the same rows for omwu.

    Only a :attr:`~AdaptiveEtaController.live` controller is kept: while one has not switched,
    each block is snapshotted, played and scanned; a controller that cannot breach within T is
    never scanned, and with none left to scan the rest of the run is the fixed-rate loop."""
    config.validate()
    if game is None:
        game = load_config_game(config)
    m = game.num_players
    counts = game.action_counts
    T = config.horizon

    etas = [resolve_eta(config, m, n) for n in counts]
    # -eta * (cumulative + last loss) spans up to 2 eta (T+1) for losses in [-1, 1].
    if 2.0 * max(etas) * (T + 1) > sys.float_info.max:
        raise ValidationError(
            f"eta {max(etas)} overflows the softmax exponent: 2 eta (T+1) > largest float "
            f"(eta rule {config.eta_rule!r})"
        )
    if not min(etas) > 0.0:
        raise ValidationError(f"eta underflows to {min(etas)} (eta rule {config.eta_rule!r})")
    groups = player_groups(counts)
    slots = sorted((i, g, b) for g, group in enumerate(groups) for b, i in enumerate(group))
    dyns = [_build_dynamics(config.dynamics, counts[g[0]], np.take(etas, g)) for g in groups]
    controllers = {}  # player -> its live controller; the others cannot breach within T
    for i, g, _ in slots if config.eta_rule == "adaptive" else ():
        learner = dyns[g].learner
        controller = AdaptiveEtaController(T, learner.inner_dim, config.adaptive_budget,
                                           _round_ceiling(learner))
        if controller.live:
            controllers[i] = controller

    field = dyns[0].trace_field  # the inner distributions' trace record: omwu's, the strategies
    # Each record is round-major, (T, members, ...): the round computes in a group's round-t rows,
    # one C-contiguous block. A player's field is its member's strided view; built before play.
    records = []
    for group, dyn in zip(groups, dyns):
        actions = (counts[group[0]],)
        shapes = {"strategies": actions, "losses": actions, field: dyn.learner.shape[1:]}
        records.append({k: np.empty((T, len(group), *s)) for k, s in shapes.items()})
    players = [PlayerTrace(**{k: v[:, b] for k, v in records[g].items()}) for _, g, b in slots]
    trace = RunTrace(horizon=T, dynamics=config.dynamics, action_counts=counts,
                     etas=tuple(etas), players=players)
    # Bound once per run: each group's step into its strategy (and inner) rows, SL's and BM's
    # unchecked, each player's contraction into its loss rows, and each group's feedback.
    plays = [(getattr(dyn, "_next_strategy", dyn.next_strategy), rec["strategies"], rec[field])
             for dyn, rec in zip(dyns, records)]
    played = [p.strategies for p in players]
    contractions = [_contraction(game, i, played, p.losses) for i, p in enumerate(players)]
    feeds = [(dyn._update, rec["losses"]) for dyn, rec in zip(dyns, records)]

    def play(rounds: range) -> None:
        for t in rounds:
            for step, strategies, inner in plays:
                step(strategies[t], inner[t])
            for contract in contractions:
                contract(t)
            for update, losses in feeds:
                update(losses[t])

    done = 0  # rounds played so far
    while done < T and not all(c.switched for c in controllers.values()):
        block = range(done, min(done + REGRET_CHUNK_ROUNDS, T))
        restore = _snapshot(dyns)  # only a controller's breach replays a block from its start
        play(block)
        rounds = slice(block.start, block.stop)
        breaches = {  # player -> round of the first breach in the block, or None
            i: c.scan(block.start + 1, *inner_stream(trace, i, rounds))
            for i, c in controllers.items() if not c.switched
        }
        done = min((r for r in breaches.values() if r is not None), default=block.stop)
        if done < block.stop:  # replay the block from its start up to the first switch
            restore()
            play(range(block.start, done))
        for i, g, b in slots:
            if i in breaches:
                controllers[i].advance(done, breaches[i] == done)
                if breaches[i] == done:
                    dyns[g].reset(controllers[i].eta_adversarial, b)
    play(range(done, T))  # no controller left to scan: the fixed-rate loop

    switch_rounds = [controllers[i].switch_round if i in controllers else None for i in range(m)]
    eta_final = [float(dyns[g].eta[b]) for _, g, b in slots]
    return Play(trace, game, switch_rounds, eta_final, None, dict(zip(map(tuple, groups), records)))


def _snapshot(dyns):
    """Restores every learner of ``dyns`` to now: a step replaces every learner array it changes,
    so copies of the attributes restore it."""
    start = [(o, vars(o).copy()) for d in dyns for o in {d, d.learner}]

    def restore() -> None:
        for obj, attrs in start:
            vars(obj).update(attrs)

    return restore


def _first_failures(bad: np.ndarray) -> list[tuple[int, int]]:
    """Each member b with a failed round in a block's (rounds, members) ``bad``, and the block's
    index k of its earliest: (b, k)."""
    return [(b, int(bad[:, b].argmax())) for b in np.flatnonzero(bad.any(axis=0))]


def _walk(play: Play):
    """The one walk over a finished play: each block of rounds, in order, checked against the
    simplex and, for a :class:`~ce_dynamics.omwu.Stationary` learner, by the residual gate of
    its solves on the chains its class reads off the trace (:meth:`~ce_dynamics.omwu.Stationary.
    chain`), is yielded until one fails; :func:`metrics._drive` sends each yielded block to every
    step of the run's accounting. Both checks run once per group record block, (rounds, members,
    ...), whose member b is the group's b-th player. After the last block the first failure
    raises: a failed solve before a strategy off the simplex, then the lowest player, at its
    earliest round. Else, for a stationary learner, it sets each player's worst residual."""
    trace, cls = play.trace, metrics._learner(play.trace.dynamics)
    stationary = issubclass(cls, Stationary)
    worst, failed = np.zeros(trace.num_players), {}  # (check, player) -> error; the gate is check 0
    for rounds in _blocks(trace.horizon):
        for group, record in play.records.items():
            x = record["strategies"][rounds]
            if stationary:
                residual = stationary_residual(  # (rounds, members)
                    cls.chain(record[cls.trace_field][rounds], x.shape[-1]), x)
                for b, k in _first_failures(~(residual <= STATIONARY_RESIDUAL_TOL)):  # NaN too
                    if (0, i := group[b]) not in failed:
                        value = float(residual[k, b])
                        failed[0, i] = StationaryResidualError(
                            f"stationary solve of player {i} at round {rounds.start + k + 1} "
                            f"failed: residual {value} above {STATIONARY_RESIDUAL_TOL}",
                            residual=value)
                worst[list(group)] = np.maximum(worst[list(group)], residual.max(axis=0))
            for b, k in _first_failures(~is_distribution(x)):
                if (1, i := group[b]) not in failed:
                    failed[1, i] = ValidationError(
                        f"strategy of player {i} at round {rounds.start + k + 1} is not a "
                        f"probability vector: {x[k, b]!r}")
        if not failed:
            yield rounds
    if failed:
        raise failed[min(failed)]
    play.residuals = worst.tolist() if stationary else None


def _summarize(config: RunConfig, play: Play, table: np.ndarray):
    """The run's accounting, one step: it fills the (T, m, 7) round table, the CSV columns after
    ``t, player``, with each block of the walk and takes the summary's block steps, then yields
    the summary document, from the trace and the filled table, and the smoothness reports."""
    game, trace, switch_rounds = play.game, play.trace, play.switch_rounds
    m = game.num_players
    T = trace.horizon
    dense = math.prod(game.action_counts) <= metrics.DENSE_JOINT_MAX_ENTRIES
    cls = metrics._learner(config.dynamics)
    bm = cls is BmOmwu
    order, rvu, budget = config.smoothness_order, config.rvu_constant, config.variance_budget
    kinds = {key: make for key, value, make in (  # the requested reports, by summary key
        ("smoothness", order, lambda i: _smoothness_steps(trace, i, order, config.smoothness_alpha)),
        ("rvu", rvu, lambda i: _rvu_steps(trace, i, trace.etas[i], rvu)),
        ("variance_check", budget, lambda i: _budget_steps(trace, budget))) if value is not None}
    inner, steps = cls.trace_field, {}
    for group, record in play.records.items():
        players = np.array(group)
        steps["regrets", group] = _regret_steps(record["strategies"], record["losses"], table,
                                                players[:, None], [0, 1, 3])
        steps["ratio", group] = _ratio_steps(record[inner], [switch_rounds[i] for i in group],
                                             table, players, 6)
    # Each player's block (q, z) is built once, for all of its reports.
    steps.update({i: _streamed(trace, i, *(make(i) for make in kinds.values())) for i in range(m)
                  if kinds})
    steps.update({"mu": _product_steps(trace)} if dense else {})
    for step in steps.values():
        next(step)
    decomposition = 0.0
    while (rounds := (yield)) is not None:
        for step in steps.values():
            step.send(rounds)
        block = table[rounds]
        for i, switch in enumerate(switch_rounds):
            block[:, i, 5] = trace.etas[i]
            if switch is not None:
                block[max(0, switch - rounds.start) :, i, 5] = play.eta_final[i]
        if bm:
            for r in play.records.values():
                residuals = decomposition_residuals(
                    r["copy_dists"][rounds], r["strategies"][rounds], r["losses"][rounds])
                decomposition = np.maximum(decomposition, residuals.max())
        raw = block[:, :, 1]
        block[:, :, 2] = np.where(raw > 0.0, raw, 0.0)  # max(0.0, raw): 0.0 also for -0.0 and NaN
        block[:, :, 4] = (raw.max(axis=1) / np.arange(rounds.start + 1, rounds.stop + 1))[:, None]
    done = {key: step.send(None) for key, step in steps.items()}
    reports, mu = [dict(zip(kinds, done.get(i, ()))) for i in range(m)], done.get("mu")

    ext, raw, clamped, swap = table[-1, :, :4].T.tolist()
    if dense:
        gap = ce_gap(game, mu / T).max_gap
        identity_residual = abs(gap - max(raw) / T)
    else:  # too many cells to average densely: report the identity's side, no check ran
        gap, identity_residual = max(raw) / T, None
    final = {
        "horizon": T,
        "external_regret": ext,
        "internal_regret_raw": raw,
        "internal_regret_clamped": clamped,
        "swap_regret": swap,
        "ce_gap": gap,
        "ce_gap_identity_residual": identity_residual,
        "cce_gap": max(ext) / T,
        "eta_initial": list(trace.etas),
        "eta_final": play.eta_final,
        "adaptive_switch_round": switch_rounds,
    }
    if play.residuals is not None:
        final["stationary_max_residual"] = play.residuals
    if bm:
        final["bm_decomposition_max_residual"] = float(decomposition)
    diagnostics = {}
    if all(r is None for r in switch_rounds):
        diagnostics["stability"] = [stability_check(trace, i, table[:, i, 6]).to_dict()
                                    for i in range(m)]
    for player_reports in reports:
        for key, report in player_reports.items():
            diagnostics.setdefault(key, []).append(report.to_dict())
    summary = {"config": config.echo(), "final": final, "diagnostics": diagnostics}
    yield summary, [r["smoothness"] for r in reports] if order is not None else None


def _reprs(values: np.ndarray) -> np.ndarray:
    """repr of each float, once per run of one float in C order; signed zeros and NaNs differ."""
    flat = values.ravel()
    new = np.concatenate([[True], (flat[1:] != flat[:-1])
                          | (np.signbit(flat[1:]) != np.signbit(flat[:-1]))])
    text = np.array(list(map(repr, flat[new].tolist())), dtype=object)
    return text[np.cumsum(new) - 1].reshape(values.shape)


def _text_blocks(table: np.ndarray):
    """Each block of ``REGRET_CHUNK_ROUNDS`` rounds of the (T, m, 7) round table, with a row of 9
    strings per (round, player): ``repr`` of ``t, player, *table[t - 1, player]``. Within a block
    each distinct number is repr'd once per run of equal neighbours: the regret columns are read
    in the order external, swap, raw, clamped, so a swap regret equal to the external one, and a
    clamped one equal to the raw one, follows it."""
    for s in range(0, len(table), REGRET_CHUNK_ROUNDS):
        block = table[s : s + REGRET_CHUNK_ROUNDS]
        text = np.empty((*block.shape[:2], 9), dtype=object)
        text[..., 0] = np.array(list(map(repr, range(s + 1, s + len(block) + 1))),
                                dtype=object)[:, None]
        text[..., 1] = list(map(repr, range(block.shape[1])))
        text[..., [2, 5, 3, 4]] = _reprs(block[..., [0, 3, 1, 2]])
        text[..., 6] = _reprs(block[..., 4])  # a round's players share one running CE gap
        # eta and the running max ratio, once per change along each player's rounds
        text[..., 7:] = _reprs(block[..., 5:].transpose(1, 2, 0)).transpose(2, 0, 1)
        yield block, text.reshape(-1, 9)


def _csv_chunks(table: np.ndarray):
    """The bytes of :func:`render_csv`, one chunk for the header, then one per block of rounds."""
    yield (",".join(CSV_COLUMNS) + "\n").encode("ascii")
    for _, text in _text_blocks(table):
        yield "\n".join([*map(",".join, text.tolist()), ""]).encode("ascii")


def _rows_json_chunks(table: np.ndarray):
    """The bytes of :func:`render_rows_json`: ``[``, each block of rounds' rows, after a ``,``
    from the second block on, then ``]`` and a newline."""
    row = "{{" + ",".join(f'"{k}":{{{CSV_COLUMNS.index(k)}}}' for k in sorted(CSV_COLUMNS)) + "}}"
    specials, sep = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}, ""
    yield b"["
    for block, text in _text_blocks(table):
        bad = ~np.isfinite(block.reshape(-1, 7))
        text[:, 2:][bad] = [specials[s] for s in text[:, 2:][bad].tolist()]
        yield (sep + ",".join([row.format(*r) for r in text.tolist()])).encode("ascii")
        sep = ","
    yield b"]\n"


def render_csv(table: np.ndarray) -> bytes:
    """The (T, m, 7) round table as CSV: ``",".join(map(repr, (t, player, *table[t - 1, player])))``
    per row, ``csv.writer``'s bytes, rendered by block and column (:func:`_csv_chunks`)."""
    return b"".join(_csv_chunks(table))


def render_rows_json(table: np.ndarray) -> bytes:
    """The round table as compact ``json.dumps`` of its rows, each a dict keyed by CSV column,
    keys sorted: the CSV's strings by block, with json's tokens for NaN and the infinities
    (:func:`_rows_json_chunks`)."""
    return b"".join(_rows_json_chunks(table))


def render_summary(summary: dict) -> bytes:
    return (json.dumps(summary, sort_keys=True, indent=2) + "\n").encode("ascii")


def emit_outputs(result: RunResult, config: RunConfig, out_dir) -> dict:
    """Write the per-round table, the summary, and optionally the trace. The summary is rendered
    before anything is created; the rows are then rendered and written one block of rounds at a
    time, and the trace member by member and block by block (:meth:`RunTrace.save`), so the call
    holds O(block) memory above the finished run. If anything fails, the call leaves nothing: the
    files and directories it created are removed; a failed write raises
    :class:`ValidationError`."""
    out = Path(out_dir)
    paths = {"rows": out / f"run.{config.out_format}", "summary": out / "summary.json"}
    paths.update({"trace": out / "trace.npz"} if config.save_trace else {})
    chunks = _csv_chunks if config.out_format == "csv" else _rows_json_chunks
    summary = render_summary(result.summary)
    fresh = []  # the files that are new, then the directories that mkdir makes, deepest first
    try:
        fresh = [p for p in (*paths.values(), out, *out.parents) if not p.exists()]
        out.mkdir(parents=True, exist_ok=True)
        with paths["rows"].open("wb") as file:
            file.writelines(chunks(result.table))
        paths["summary"].write_bytes(summary)
        if config.save_trace:
            with paths["trace"].open("wb") as file:
                result.trace.save(file)
    except BaseException as exc:
        for path in filter(Path.exists, fresh):
            if path.is_dir():
                path.rmdir()
            else:
                path.unlink()
        if isinstance(exc, OSError):
            raise ValidationError(f"cannot write outputs under {out}: {exc}") from exc
        raise
    return {k: str(v) for k, v in paths.items()}
