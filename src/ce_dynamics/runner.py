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
A group's adaptive controller whose budget can bind within the horizon folds all its members' inner
rows at once after each round's feedback, until every member has switched, and a member's breach
resets that member alone; the other groups' controllers are never updated. The rounds are played
in blocks of ``REGRET_CHUNK_ROUNDS`` (:func:`metrics._blocks`), each checked as soon as it is
played (:func:`_check`): every stationary solve gated by its residual and every strategy checked
against the simplex, once per group record block, (rounds, members, ...), so a failing run stops
at the end of the block that holds its earliest failing round. That checked play is
:func:`play_dynamics`, which keeps each group's records (:attr:`Play.records`);
:func:`run_dynamics` adds the accounting, one block step, :func:`_summarize`, which
:func:`metrics._drive` sends each block of the run and :func:`internal_dynamics.verify_equivalence`
skips. It sends each block on to the steps it holds, each a generator that keeps its carry and
loops over no blocks: per group, the round table's regret and ratio columns of its players
(:mod:`metrics`), read from its record blocks; the average product distribution; and the reports
(:mod:`diagnostics`), which read each player's inner stream once per block. It fills the table's
other columns itself, and BM's loss-decomposition residual once per group record block. The
(T, m, 7) round table is kept on the result; :func:`emit_outputs` renders it straight into its file
by block of rounds and column, each distinct number once, and writes the trace archive by block too.
Up to ``metrics.DENSE_JOINT_MAX_ENTRIES`` joint cells the CE gap comes from the average product
distribution and is checked against max internal regret / T; above, it is that ratio and its
identity residual is null. Outputs are deterministic given the configuration.
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
        mixed = [k for k in ("players", "action_counts") if getattr(self, k) is not None]
        if self.game_file is not None and mixed:
            raise ValidationError(f"game_file excludes {' and '.join(mixed)}: the file is the game")

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


def read_file(path, what: str) -> bytes:
    """The bytes of the input file at ``path``: the one read of every file the CLI takes in. A
    file that cannot be read raises :class:`ValidationError` naming ``what`` and the path."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc


def load_config_game(config: RunConfig) -> Game:
    """The configured game: its file's (:func:`read_file`, :func:`load_game`) or the seeded one."""
    if config.game_file is not None:
        return load_game(read_file(config.game_file, "game file"))
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
    """Permanent one-way switch to the robust rate on a variance-budget breach, for each member of
    a learner group.

    Tracks, per member's inner stream, the running sums of Var_q(z_t - z_{t-1}) and
    Var_q(z_{t-1}) (:func:`running_variance_sums`), one array entry per member; the first round
    where a member's first sum exceeds half its second plus budget_constant * ceil(log2 T)^5
    switches that member. The run folds the group's rows every round until every member has
    switched, a switched member's too, whose sums are not read again.

    ``round_ceiling`` bounds what one round adds to the first sum. The controller is
    :attr:`live` only if T rounds of it exceed the allowance: else the first sum stays within
    the allowance, the second is non-negative, and no round of the run can breach, so the run
    never updates it. Without a ceiling it is live.
    """

    def __init__(self, horizon: int, dim: int, budget_constant: float,
                 round_ceiling: float = math.inf):
        self.depth = budget_depth(horizon)
        self.allowance = budget_constant * self.depth**5
        self.live = horizon * round_ceiling > self.allowance
        self.eta_adversarial = adversarial_eta(dim, horizon)
        self.lhs = self.prev_variance_sum = 0.0  # (members,) once a round is folded
        self._prev_rows = None
        self.switch_rounds: dict[int, int] = {}  # member -> the round its switch fired

    def update(self, round_index: int, q_rows: np.ndarray, z_rows: np.ndarray) -> list[int]:
        """Fold in one round of the group's inner feedback, (members, rows, dim) each; the members
        whose switch fires now."""
        carry = self.lhs, self.prev_variance_sum
        lhs, prev_sum = running_variance_sums(q_rows[None], z_rows[None], self._prev_rows, carry)
        self.lhs, self.prev_variance_sum = lhs[0], prev_sum[0]
        self._prev_rows = z_rows.copy()
        breached = np.flatnonzero(self.lhs > 0.5 * self.prev_variance_sum + self.allowance)
        fired = [b for b in breached.tolist() if b not in self.switch_rounds]
        self.switch_rounds.update(dict.fromkeys(fired, round_index))
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
    by trace field: what the trace's players view, and what the checks and the steps read."""

    trace: RunTrace
    game: Game
    switch_rounds: list[int | None]
    eta_final: list[float]
    residuals: list[float] | None  # each player's worst stationary residual, SL and BM only
    records: dict[tuple[int, ...], dict[str, np.ndarray]]


@dataclass
class RunResult(Play):
    """A play with its summary, each player's smoothness report (None without an order) and its
    kept (T, m, 7) round table, rendered by :func:`_csv_chunks`; :attr:`rows` is built on demand."""

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
    summary, one block step sent each block of the run."""
    play = play_dynamics(config, game)
    table = np.empty((config.horizon, play.game.num_players, 7))
    summary, smoothness = _drive(config.horizon, _summarize(config, play, table))
    return RunResult(**vars(play), summary=summary, table=table, smoothness=smoothness)


def play_dynamics(config: RunConfig, game: Game | None = None) -> Play:
    """A run's checked play: the round loop. Every group steps into its round-t strategy and
    ``trace_field`` rows, the same rows for omwu, a block of ``REGRET_CHUNK_ROUNDS`` rounds at a
    time (:func:`metrics._blocks`); each block is checked (:func:`_check`) as soon as it is played,
    so a failing run stops at the end of the block that holds its earliest failure.

    Only a :attr:`~AdaptiveEtaController.live` controller is kept, one per group: after each round's
    feedback it folds the group's inner rows, and each member whose switch fires is reset at once;
    a group whose controller cannot breach within T is never folded, and one whose members have all
    switched no more."""
    config.validate()
    if game is None:
        game = load_config_game(config)
    elif (game.num_players, game.action_counts) != (config.players, config.action_counts):
        raise ValidationError(  # a config game_file leaves players and action_counts None
            f"the given game of {game.num_players} players with action counts "
            f"{game.action_counts} is not the config's: players={config.players!r}, "
            f"action_counts={config.action_counts!r}, game_file={config.game_file!r}")
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
    # Each group's controller with its learner and players, kept live only: fed the group's inner
    # rows every round. The others cannot breach within T.
    watched = [(AdaptiveEtaController(T, dyn.inner_dim, config.adaptive_budget,
                                      _round_ceiling(dyn.learner)), dyn, group)
               for dyn, group in zip(dyns, groups)] if config.eta_rule == "adaptive" else []
    watched = [w for w in watched if w[0].live]
    folding = watched.copy()  # the live groups with a member yet to switch

    cls = metrics._learner(config.dynamics)
    field = cls.trace_field  # the inner distributions' trace record: omwu's, the strategies
    # Each record is round-major, (T, members, ...): the round computes in a group's round-t rows,
    # one C-contiguous block. A player's field is its member's strided view; built before play.
    records = [{k: np.empty((T, len(g), *metrics._ROUND_SHAPES[k](counts[g[0]])))
                for k in ("strategies", "losses", field)} for g in groups]
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
    grouped = dict(zip(map(tuple, groups), records))  # what the checks and the accounting read

    def play(rounds: slice) -> None:
        for t in range(rounds.start, rounds.stop):
            for step, strategies, inner in plays:
                step(strategies[t], inner[t])
            for contract in contractions:
                contract(t)
            for update, losses in feeds:
                update(losses[t])
            for w in folding[:]:  # a copy: a group leaves once every member has switched
                c, dyn, group = w
                for b in c.update(t + 1, dyn.inner_dist, dyn.inner_loss):
                    dyn.reset(c.eta_adversarial, b)
                if len(c.switch_rounds) == len(group):
                    folding.remove(w)

    worst = np.zeros(m)  # each player's worst stationary residual so far
    for block in _blocks(T):
        play(block)
        _check(cls, grouped, block, worst)

    switched = {group[b]: r for c, _, group in watched for b, r in c.switch_rounds.items()}
    switch_rounds = [switched.get(i) for i in range(m)]
    eta_final = [float(dyns[g].eta[b]) for _, g, b in slots]
    residuals = worst.tolist() if issubclass(cls, Stationary) else None
    return Play(trace, game, switch_rounds, eta_final, residuals, grouped)


def _check(cls, records, rounds: slice, worst: np.ndarray) -> None:
    """Checks a final block of ``rounds`` of a play's group ``records``, each (rounds, members,
    ...) whose member b is the group's b-th player: every strategy against the simplex and, for a
    :class:`~ce_dynamics.omwu.Stationary` learner ``cls``, every solve by the residual gate on the
    chains it reads off the records (:meth:`~ce_dynamics.omwu.Stationary.chain`), whose worst per
    player it folds into ``worst``. The block's earliest failing round raises; within it a failed
    solve comes before a strategy off the simplex, then the lowest player."""
    failed = []  # (round, check, player, error): the gate is check 0
    for group, record in records.items():
        x = record["strategies"][rounds]
        if issubclass(cls, Stationary):
            chains = cls.chain(record[cls.trace_field][rounds], x.shape[-1])
            residual = stationary_residual(chains, x)  # (rounds, members)
            worst[list(group)] = np.maximum(worst[list(group)], residual.max(axis=0))
            # The earliest failed (round, member), if any: argwhere's first. NaN fails too.
            for k, b in np.argwhere(~(residual <= STATIONARY_RESIDUAL_TOL))[:1].tolist():
                value, t, i = float(residual[k, b]), rounds.start + k + 1, group[b]
                failed.append((t, 0, i, StationaryResidualError(
                    f"stationary solve of player {i} at round {t} failed: residual {value} "
                    f"above {STATIONARY_RESIDUAL_TOL}", residual=value)))
        for k, b in np.argwhere(~is_distribution(x))[:1].tolist():
            t, i = rounds.start + k + 1, group[b]
            failed.append((t, 1, i, ValidationError(
                f"strategy of player {i} at round {t} is not a probability vector: {x[k, b]!r}")))
    if failed:
        raise min(failed)[3]


def _summarize(config: RunConfig, play: Play, table: np.ndarray):
    """The run's accounting, one step: it fills the (T, m, 7) round table, the CSV columns after
    ``t, player``, with each block of the run and takes the summary's block steps, then yields
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
    """The (T, m, 7) round table as CSV, ``csv.writer``'s bytes of ``map(repr, (t, player,
    *table[t - 1, player]))`` per row: one chunk for the header, then one per block of rounds."""
    yield (",".join(CSV_COLUMNS) + "\n").encode("ascii")
    for _, text in _text_blocks(table):
        yield "\n".join([*map(",".join, text.tolist()), ""]).encode("ascii")


def _rows_json_chunks(table: np.ndarray):
    """The round table as compact ``json.dumps`` of its rows, each a dict keyed by CSV column,
    keys sorted: ``[``, each block's rows, after a ``,`` from the second block on, then ``]\n``."""
    row = "{{" + ",".join(f'"{k}":{{{CSV_COLUMNS.index(k)}}}' for k in sorted(CSV_COLUMNS)) + "}}"
    specials, sep = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}, ""
    yield b"["
    for block, text in _text_blocks(table):
        bad = ~np.isfinite(block.reshape(-1, 7))
        text[:, 2:][bad] = [specials[s] for s in text[:, 2:][bad].tolist()]
        yield (sep + ",".join([row.format(*r) for r in text.tolist()])).encode("ascii")
        sep = ","
    yield b"]\n"


def _smoothness_chunks(reports):
    """The smoothness CSV of a run's reports: its header, then per player and order, by block of
    rounds, the rows ``player,order,t,observed,bound``, each float its ``repr``."""
    yield b"player,order,t,observed,bound\n"
    for i, rep in enumerate(reports):
        for h, observed in enumerate(rep.observed):
            row = f"{i},{h},{{}},{{}},{float(rep.bounds[h])!r}\n".format
            for b in _blocks(len(observed)):
                text = _reprs(observed[b]).tolist()
                yield "".join(map(row, range(b.start + 1, b.stop + 1), text)).encode("ascii")


def render_summary(summary: dict) -> bytes:
    return (json.dumps(summary, sort_keys=True, indent=2) + "\n").encode("ascii")


def write_files(files, out_dir=None) -> None:
    """Writes each ``(path, write)`` of the list ``files`` in order, ``write`` writing the file's
    bytes into it, open in binary mode, after making ``out_dir`` and its missing parents if given.
    All or nothing: if anything fails, the files and directories this call created are removed (a
    file that was there before is overwritten, never removed); an OSError raises ValidationError,
    and so, before any file is opened, does a list that names one path twice."""
    paths = [Path(path).resolve() for path, _ in files]
    if len(set(paths)) < len(paths):
        raise ValidationError(f"two outputs at one path: {max(paths, key=paths.count)}")
    dirs = [] if out_dir is None else [Path(out_dir), *Path(out_dir).parents]
    fresh, target = [], out_dir  # the new files, then the directories mkdir makes, deepest first
    try:
        fresh = [p for p in (*(Path(path) for path, _ in files), *dirs) if not p.exists()]
        if dirs:
            dirs[0].mkdir(parents=True, exist_ok=True)
        for target, write in files:
            with Path(target).open("wb") as file:
                write(file)
    except BaseException as exc:
        for path in filter(Path.exists, fresh):
            if path.is_dir():
                path.rmdir()
            else:
                path.unlink()
        if isinstance(exc, OSError):
            raise ValidationError(f"cannot write {target}: {exc}") from exc
        raise


def emit_outputs(result: RunResult, config: RunConfig, out_dir) -> dict:
    """Write the round table, the summary and optionally the trace under ``out_dir``, all or
    nothing (:func:`write_files`), and return their paths. The summary is rendered before any
    file is made; the rows are written a block of rounds at a time and the trace member by member
    and block by block (:meth:`RunTrace.save`): the call holds O(block) memory above the run."""
    out = Path(out_dir)
    paths = {"rows": out / f"run.{config.out_format}", "summary": out / "summary.json"}
    paths.update({"trace": out / "trace.npz"} if config.save_trace else {})
    chunks = _csv_chunks if config.out_format == "csv" else _rows_json_chunks
    summary = render_summary(result.summary)
    writers = {"rows": lambda file: file.writelines(chunks(result.table)),
               "summary": lambda file: file.write(summary), "trace": result.trace.save}
    write_files([(path, writers[kind]) for kind, path in paths.items()], out)
    return {k: str(v) for k, v in paths.items()}
