"""Experiment runner: configuration, learning-rate schedules, output files.

A run executes the two-phase self-play protocol: freeze every player's strategy,
compute every expected-loss vector from the frozen profile, then deliver all
feedback. Players with equal action counts are the members of one learner, so a
round plays, updates and writes the trace once per group; each player's loss is
:func:`games._contract` of the game with the strategies just emitted. The round
loop only plays, on operands bound once per run: SL and BM play their unchecked
stationary solve (``_next_strategy``) and feedback goes through the unchecked
``_update``. Adaptive controllers scan each block of ``REGRET_CHUNK_ROUNDS``
inner-stream rounds of the trace; at a block's first breach the learners are restored to
the block's start (snapshotted only for controllers) and replayed up to that
round, where each breaching player's member is reset alone. After the loop, one
pass gates every recorded stationary solve by its residual, keeping each
player's worst, then one pass checks every recorded strategy against the
simplex. That checked play is :func:`play_dynamics`; :func:`run_dynamics` adds
the accounting, which :func:`internal_dynamics.verify_equivalence` skips. Every
per-round CSV column comes from the trace, by :func:`metrics.running_regrets`
and :func:`metrics.running_max_ratio`; the summary's final regrets are the
table's last round, and BM's loss-decomposition residual is
:func:`swap_dynamics.decomposition_residuals` of the trace. The (T, m, 7) round
table is kept on the result, whose CSV rows are built only on demand;
:func:`render_csv` renders it by block and column, each distinct number once. Up
to ``metrics.DENSE_JOINT_MAX_ENTRIES`` joint cells the CE gap comes from the
dense average product distribution and is checked against max internal
regret / T; above, it is that ratio and its identity residual is null. Outputs
are deterministic given the configuration; no wall-clock or randomness enters.
"""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import metrics
from .diagnostics import (
    DEFAULT_VARIANCE_BUDGET_CONSTANT,
    budget_depth,
    check_variance_inequality,
    resolve_smoothness_alpha,
    running_variance_sums,
    rvu_check,
    smoothness_report,
    stability_check,
)
from .errors import StationaryResidualError, ValidationError
# expected_loss stays bound here: perfbench's smoke test reads runner.expected_loss.
from .games import Game, _contract, expected_loss, is_distribution, load_game, random_game
from .internal_dynamics import ArboDynamics, SlOmwu, _pair_rates
from .markov_tree import STATIONARY_RESIDUAL_TOL, stationary_residual
from .metrics import (
    REGRET_CHUNK_ROUNDS,
    PlayerTrace,
    RunTrace,
    average_product_distribution,
    ce_gap,
    inner_stream,
    running_max_ratio,
    running_regrets,
)
from .omwu import Omwu
from .swap_dynamics import BmOmwu, decomposition_residuals

DYNAMICS = ("omwu", "mwu", "sl-omwu", "sl-mwu", "bm-omwu", "bm-mwu", "arbo")
ETA_RULES = ("fixed", "theorem-internal", "theorem-swap", "adaptive")

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
        if self.dynamics not in DYNAMICS:
            raise ValidationError(f"unknown dynamics {self.dynamics!r}, expected one of {DYNAMICS}")
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

    def echo(self) -> dict:
        """Config as emitted into the summary; output options excluded."""
        doc = asdict(self)
        del doc["out_format"], doc["save_trace"]
        return doc


def load_config_game(config: RunConfig) -> Game:
    if config.game_file is not None:
        return load_game(Path(config.game_file).read_bytes())
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
        rule = "theorem-swap" if config.dynamics.startswith("bm") else "theorem-internal"
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

    :meth:`scan` finds a block of rounds' first breach and folds nothing in;
    :meth:`advance` folds the block in up to a round. :meth:`update` is the
    one-round case.
    """

    def __init__(self, horizon: int, dim: int, budget_constant: float):
        self.depth = budget_depth(horizon)
        self.allowance = budget_constant * self.depth**5
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


_LEARNERS = {"omwu": Omwu, "mwu": Omwu, "sl": SlOmwu, "bm": BmOmwu, "arbo": ArboDynamics}


def _build_dynamics(name: str, n: int, eta):
    optimistic = name != "mwu" and not name.endswith("-mwu")
    return _LEARNERS[name.split("-")[0]](n, eta, optimistic=optimistic)


@dataclass
class Play:
    """A run's checked play: its trace and what the accounting reads beside it."""

    trace: RunTrace
    game: Game
    switch_rounds: list[int | None]
    eta_final: list[float]
    residuals: list[float] | None  # each player's worst stationary residual, SL and BM only


@dataclass
class RunResult(Play):
    """A play with its summary and its kept (T, m, 7) round table, the CSV columns after ``t,
    player`` that :func:`render_csv` renders by column; :attr:`rows` is built on demand."""

    summary: dict
    table: np.ndarray

    @property
    def rows(self) -> list[tuple]:
        """The CSV rows ``(t, player, *columns)``, in round-then-player order."""
        rounds = enumerate(self.table.tolist(), 1)
        return [(t, i, *row) for t, per_round in rounds for i, row in enumerate(per_round)]


def player_groups(counts) -> list[list[int]]:
    """Players with equal action counts, in player order: the members of one learner."""
    return [[i for i, c in enumerate(counts) if c == n] for n in dict.fromkeys(counts)]


def run_dynamics(config: RunConfig, game: Game | None = None) -> RunResult:
    """The checked play of :func:`play_dynamics`, then its accounting: round table and summary."""
    play = play_dynamics(config, game)
    table = _round_table(play)
    return RunResult(**vars(play), summary=_summarize(config, play, table[-1]), table=table)


def play_dynamics(config: RunConfig, game: Game | None = None) -> Play:
    """A run's checked play: every stationary solve gated, every strategy on the simplex."""
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
    controllers = [
        AdaptiveEtaController(T, dyns[g].inner_dim, config.adaptive_budget) for _, g, _ in slots
    ] if config.eta_rule == "adaptive" else None

    family = config.dynamics.split("-")[0]
    field = getattr(dyns[0], "trace_field", None)  # the inner distribution's trace record
    # Each trace array is (members, T, ...), so a player's field is a contiguous slice; the trace
    # is built on them before play, for the controllers. The round loop's operands are bound
    # once per group: its learner, trace arrays (None for no inner record), players to contract.
    records, writes, feeds = [], [], []
    for group, dyn in zip(groups, dyns):
        learner = getattr(dyn, "learner", dyn)
        shapes = dict.fromkeys(("strategies", "losses"), (counts[group[0]],))
        shapes.update({field: learner.shape[1:]} if field else {})
        records.append(rec := {k: np.empty((len(group), T, *s)) for k, s in shapes.items()})
        writes.append((learner, rec["strategies"], rec.get(field), rec["losses"],
                       list(enumerate(group))))
        feeds.append((dyn._update, rec["losses"]))
    players = [PlayerTrace(**{k: v[b] for k, v in records[g].items()}) for _, g, b in slots]
    trace = RunTrace(horizon=T, dynamics=config.dynamics, action_counts=counts,
                     etas=tuple(etas), players=players)
    # SL and BM play their unchecked stationary solve; the gate runs once, after the loop.
    solves = family in ("sl", "bm")
    steps = [dyn._next_strategy if solves else dyn.next_strategy for dyn in dyns]

    def play(rounds: range) -> None:
        for t in rounds:
            played = [step() for step in steps]
            # C-contiguous rows, as a lone learner's strategy is: _contract runs the same products.
            profile = [played[g][b] for _, g, b in slots]
            for x, (learner, strategies, inner, losses, members) in zip(played, writes):
                strategies[:, t] = x
                if inner is not None:
                    inner[:, t] = learner.last_strategy
                for b, i in members:
                    losses[b, t] = _contract(game, profile, i)

            for update, losses in feeds:
                update(losses[:, t])

    done = 0  # rounds played so far
    while done < T:
        block = range(done, min(done + REGRET_CHUNK_ROUNDS, T))
        # Every step replaces the arrays it changes, so copies of the attributes restore a learner.
        if controllers:  # only a controller's breach replays a block from its start
            start = [(o, vars(o).copy()) for d in dyns for o in {d, getattr(d, "learner", d)}]
        play(block)
        done = block.stop
        if controllers is None:
            continue
        breaches = {}  # player -> round of the first breach in the block, or None
        rounds = slice(block.start, done)
        for i, controller in enumerate(controllers):
            if not controller.switched:
                breaches[i] = controller.scan(block.start + 1, *inner_stream(trace, i, rounds))
        done = min((r for r in breaches.values() if r is not None), default=done)
        if done < block.stop:  # replay the block from its start up to the first switch
            for obj, attrs in start:
                vars(obj).update(attrs)
            play(range(block.start, done))
        for i, g, b in slots:
            if i in breaches:
                controllers[i].advance(done, breaches[i] == done)
                if breaches[i] == done:
                    dyns[g].reset(controllers[i].eta_adversarial, b)

    if family == "sl":  # the pair losses the learners were fed: the inner stream's z
        for i, p in enumerate(players):
            p.pair_losses = inner_stream(trace, i)[1][:, 0]
    residuals = _check_stationary_solves(trace, family == "bm") if solves else None
    for i, p in enumerate(trace.players):  # the one simplex check of the run's strategies
        bad = np.flatnonzero(~is_distribution(p.strategies))
        if bad.size:
            raise ValidationError(
                f"strategy of player {i} at round {bad[0] + 1} is not a probability vector: "
                f"{p.strategies[bad[0]]!r}"
            )

    switch_rounds = [c.switch_round for c in controllers] if controllers else [None] * m
    eta_final = [float(dyns[g].eta[b]) for _, g, b in slots]
    return Play(trace, game, switch_rounds, eta_final, residuals)


def _check_stationary_solves(trace: RunTrace, is_bm: bool) -> list[float]:
    """The residual gate of every stationary solve of a run; each player's worst residual.

    Each round's chain is rebuilt from the recorded inner distributions: the
    copy matrices for BM, the pair masses as rates for SL. Raises
    :class:`StationaryResidualError` naming the first failing player and round.
    """
    worst = [0.0] * trace.num_players
    for i, p in enumerate(trace.players):
        x, inner = p.strategies, p.copy_dists if is_bm else p.pair_dists
        for s in range(0, trace.horizon, REGRET_CHUNK_ROUNDS):
            rounds = slice(s, s + REGRET_CHUNK_ROUNDS)
            A = inner[rounds] if is_bm else _pair_rates(inner[rounds], x.shape[1])
            residual = stationary_residual(A, x[rounds])
            bad = np.flatnonzero(~(residual <= STATIONARY_RESIDUAL_TOL))  # NaN fails too
            if bad.size:
                failed = float(residual[bad[0]])
                raise StationaryResidualError(
                    f"stationary solve of player {i} at round {s + bad[0] + 1} failed: "
                    f"residual {failed} above {STATIONARY_RESIDUAL_TOL}",
                    residual=failed,
                )
            worst[i] = max(worst[i], float(residual.max()))
    return worst


def _round_table(play: Play) -> np.ndarray:
    """The CSV columns after ``t, player`` for every round and player, shape (T, m, 7)."""
    trace, T, switch_rounds = play.trace, play.trace.horizon, play.switch_rounds
    regrets = [running_regrets(trace, i) for i in range(trace.num_players)]
    gap = np.max([raw for _, raw, _ in regrets], axis=0) / np.arange(1, T + 1)
    players = []
    for i, (ext, raw, swap) in enumerate(regrets):
        eta = np.full(T, trace.etas[i])
        if switch_rounds[i] is not None:
            eta[switch_rounds[i] :] = play.eta_final[i]
        clamped = np.where(raw > 0.0, raw, 0.0)  # max(0.0, raw): 0.0 also for -0.0 and NaN
        ratio = running_max_ratio(trace, i, restart=switch_rounds[i])
        players.append(np.stack([ext, raw, clamped, swap, gap, eta, ratio], axis=1))
    return np.stack(players, axis=1)


def _summarize(config: RunConfig, play: Play, final: np.ndarray) -> dict:
    """Summary document; ``final`` is the last round of :func:`_round_table`."""
    game, trace, switch_rounds = play.game, play.trace, play.switch_rounds
    m = game.num_players
    T = trace.horizon
    ext, raw, clamped, swap = final[:, :4].T.tolist()
    if math.prod(game.action_counts) <= metrics.DENSE_JOINT_MAX_ENTRIES:
        gap = ce_gap(game, average_product_distribution(trace)).max_gap
        identity_residual = abs(gap - max(raw) / T)
    else:  # too many cells to average densely: report the identity's side, no check ran
        gap, identity_residual = max(raw) / T, None

    summary = {
        "config": config.echo(),
        "final": {
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
        },
        "diagnostics": {},
    }
    if play.residuals is not None:
        summary["final"]["stationary_max_residual"] = play.residuals
    if config.dynamics.startswith("bm"):
        summary["final"]["bm_decomposition_max_residual"] = max(
            float(decomposition_residuals(p.copy_dists, p.strategies, p.losses).max())
            for p in trace.players
        )

    diagnostics = summary["diagnostics"]
    if all(r is None for r in switch_rounds):
        diagnostics["stability"] = [stability_check(trace, i).to_dict() for i in range(m)]
    order, rvu, budget = config.smoothness_order, config.rvu_constant, config.variance_budget
    for i in range(m if {order, rvu, budget} != {None} else 0):
        stream = inner_stream(trace, i)  # each player's, built once for the reports that read it
        if order is not None:
            rep = smoothness_report(trace, i, order, config.smoothness_alpha, stream)
            diagnostics.setdefault("smoothness", []).append(rep.to_dict())
        if rvu is not None:
            rep = rvu_check(trace, i, trace.etas[i], rvu, stream)
            diagnostics.setdefault("rvu", []).append(rep.to_dict())
        if budget is not None:
            rep = check_variance_inequality(trace, i, budget, stream)
            diagnostics.setdefault("variance_check", []).append(rep.to_dict())
        del stream  # freed before the next player's is built
    return summary


def _reprs(values: np.ndarray) -> np.ndarray:
    """repr of each float, once per run of one float in C order; signed zeros and NaNs differ."""
    flat = values.ravel()
    new = np.r_[True, (flat[1:] != flat[:-1]) | (np.signbit(flat[1:]) != np.signbit(flat[:-1]))]
    text = np.array(list(map(repr, flat[new].tolist())), dtype=object)
    return text[np.cumsum(new) - 1].reshape(values.shape)


def _text_blocks(table: np.ndarray):
    """Each block of rounds of the (T, m, 7) round table, with a row of 9 strings per (round,
    player): ``repr`` of ``t, player, *table[t - 1, player]``, each distinct number once."""
    rounds = np.array(list(map(repr, range(1, len(table) + 1))), dtype=object)[:, None]
    for s in range(0, len(table), REGRET_CHUNK_ROUNDS):
        block = table[s : s + REGRET_CHUNK_ROUNDS]
        text = np.empty((*block.shape[:2], 9), dtype=object)
        text[..., 0] = rounds[s : s + REGRET_CHUNK_ROUNDS]
        text[..., 1] = list(map(repr, range(block.shape[1])))
        text[..., 2:6] = _reprs(block[..., :4])  # clamped reuses raw's string where they agree
        text[..., 6] = _reprs(block[..., 4])  # a round's players share one running CE gap
        # eta and the running max ratio, once per change along each player's rounds
        text[..., 7:] = _reprs(block[..., 5:].transpose(1, 2, 0)).transpose(2, 0, 1)
        yield block, text.reshape(-1, 9)


def render_csv(table: np.ndarray) -> bytes:
    """The (T, m, 7) round table as CSV: ``",".join(map(repr, (t, player, *table[t - 1, player])))``
    per row, ``csv.writer``'s bytes, rendered by block and column."""
    buf = io.BytesIO()
    buf.write((",".join(CSV_COLUMNS) + "\n").encode("ascii"))
    for _, text in _text_blocks(table):
        buf.write("\n".join([*map(",".join, text.tolist()), ""]).encode("ascii"))
    return buf.getvalue()


def render_rows_json(table: np.ndarray) -> bytes:
    """The round table as compact ``json.dumps`` of its rows, each a dict keyed by CSV column,
    keys sorted: the CSV's strings by block, with json's tokens for NaN and the infinities."""
    row = "{{" + ",".join(f'"{k}":{{{CSV_COLUMNS.index(k)}}}' for k in sorted(CSV_COLUMNS)) + "}}"
    specials, blocks = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}, []
    for block, text in _text_blocks(table):
        bad = ~np.isfinite(block.reshape(-1, 7))
        text[:, 2:][bad] = [specials[s] for s in text[:, 2:][bad].tolist()]
        blocks.append(",".join([row.format(*r) for r in text.tolist()]))
    return ("[" + ",".join(blocks) + "]\n").encode("ascii")


def render_summary(summary: dict) -> bytes:
    return (json.dumps(summary, sort_keys=True, indent=2) + "\n").encode("ascii")


def emit_outputs(result: RunResult, config: RunConfig, out_dir) -> dict:
    """Write the per-round table, the summary, and optionally the trace. If a write fails, the
    call leaves nothing: the files and directories it created are removed."""
    out = Path(out_dir)
    paths = {"rows": out / f"run.{config.out_format}", "summary": out / "summary.json"}
    paths.update({"trace": out / "trace.npz"} if config.save_trace else {})
    render = render_csv if config.out_format == "csv" else render_rows_json
    fresh = []  # the files that are new, then the directories that mkdir makes, deepest first
    try:
        fresh = [p for p in (*paths.values(), out, *out.parents) if not p.exists()]
        out.mkdir(parents=True, exist_ok=True)
        paths["rows"].write_bytes(render(result.table))
        paths["summary"].write_bytes(render_summary(result.summary))
        if config.save_trace:
            result.trace.save(paths["trace"])
    except OSError as exc:
        for path in filter(Path.exists, fresh):
            if path.is_dir():
                path.rmdir()
            else:
                path.unlink()
        raise ValidationError(f"cannot write outputs under {out}: {exc}") from exc
    return {k: str(v) for k, v in paths.items()}
