"""Experiment runner: configuration, learning-rate schedules, output files.

A run executes the two-phase self-play protocol: freeze every player's
strategy, compute every expected-loss vector from the frozen profile, then
deliver all feedback. The round loop only plays, with no per-round checks:
each loss is :func:`games._contract` of the validated game with the
strategies the learners just emitted, and feedback goes through the
learners' unchecked ``_update``. It also feeds the adaptive controller and
records the trace and the swap dynamics' loss-decomposition residual. One
vectorised pass after the loop checks every recorded strategy against the
simplex, before any output is built. Every per-round CSV column is computed
after the loop from the trace, by :func:`metrics.running_regrets` and
:func:`metrics.running_max_ratio`, and the summary's final regrets are the
table's last round. Everything is deterministic given the configuration; no
wall-clock or randomness enters the outputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .diagnostics import (
    DEFAULT_VARIANCE_BUDGET_CONSTANT,
    budget_depth,
    check_variance_inequality,
    resolve_smoothness_alpha,
    rvu_check,
    smoothness_report,
    stability_check,
    variance,
)
from .errors import ValidationError
# expected_loss stays bound here: perfbench's smoke test reads runner.expected_loss.
from .games import Game, _contract, expected_loss, is_distribution, load_game, random_game
from .internal_dynamics import ArboDynamics, SlOmwu
from .metrics import (
    PlayerTrace,
    RunTrace,
    average_product_distribution,
    ce_gap,
    running_max_ratio,
    running_regrets,
)
from .omwu import Omwu
from .swap_dynamics import BmOmwu

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
            resolve_smoothness_alpha(self.smoothness_order, self.smoothness_alpha)
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
    Var_q(z_{t-1}); a round where the first exceeds half the second plus
    budget_constant * ceil(log2 T)^5 triggers the switch.
    """

    def __init__(self, horizon: int, dim: int, budget_constant: float):
        self.depth = budget_depth(horizon)
        self.allowance = budget_constant * self.depth**5
        self.eta_adversarial = adversarial_eta(dim, horizon)
        self.lhs = 0.0
        self.prev_variance_sum = 0.0
        self._prev_rows = None
        self.switch_round: int | None = None

    @property
    def switched(self) -> bool:
        return self.switch_round is not None

    def update(self, round_index: int, q_rows: np.ndarray, z_rows: np.ndarray) -> bool:
        """Fold in one round of inner feedback; True when the switch fires now."""
        if self.switched:
            return False
        prev = self._prev_rows if self._prev_rows is not None else np.zeros_like(z_rows)
        self.lhs += float(variance(q_rows, z_rows - prev).sum())
        self.prev_variance_sum += float(variance(q_rows, prev).sum())
        self._prev_rows = np.array(z_rows, copy=True)
        if self.lhs > 0.5 * self.prev_variance_sum + self.allowance:
            self.switch_round = round_index
            return True
        return False


def _build_dynamics(name: str, n: int, eta: float):
    optimistic = name != "mwu" and not name.endswith("-mwu")
    if name in ("omwu", "mwu"):
        return Omwu(n, eta, optimistic=optimistic)
    if name in ("sl-omwu", "sl-mwu"):
        return SlOmwu(n, eta, optimistic=optimistic)
    if name in ("bm-omwu", "bm-mwu"):
        return BmOmwu(n, eta, optimistic=optimistic)
    if name == "arbo":
        return ArboDynamics(n, eta)
    raise ValidationError(f"unknown dynamics {name!r}")


# Trace field that stores each round's inner distribution, per dynamics family.
_INNER_TRACE_FIELDS = {"sl": "pair_dists", "bm": "copy_dists", "arbo": "tree_dists"}


@dataclass
class RunResult:
    trace: RunTrace
    summary: dict
    rows: list[tuple]  # per-(round, player) CSV rows
    game: Game


def run_dynamics(config: RunConfig, game: Game | None = None) -> RunResult:
    config.validate()
    if game is None:
        game = load_config_game(config)
    m = game.num_players
    counts = game.action_counts
    T = config.horizon

    etas = [resolve_eta(config, m, n) for n in counts]
    dyns = [_build_dynamics(config.dynamics, n, eta) for n, eta in zip(counts, etas)]
    controllers = None
    if config.eta_rule == "adaptive":
        controllers = [
            AdaptiveEtaController(T, dyn.inner_dim, config.adaptive_budget) for dyn in dyns
        ]

    family = config.dynamics.split("-")[0]
    inner_field = _INNER_TRACE_FIELDS.get(family)
    is_bm = family == "bm"
    strategies = [np.empty((T, n)) for n in counts]
    losses = [np.empty((T, n)) for n in counts]
    inner_dists = [
        np.empty((T, n, dyn.inner_dim) if is_bm else (T, dyn.inner_dim)) if inner_field else None
        for n, dyn in zip(counts, dyns)
    ]
    pair_losses = [np.empty((T, dyn.inner_dim)) if family == "sl" else None for dyn in dyns]
    max_decomposition_residual = 0.0

    for t in range(T):
        profile = [dyn.next_strategy() for dyn in dyns]
        round_losses = [_contract(game, profile, i) for i in range(m)]

        for i, dyn in enumerate(dyns):
            strategies[i][t] = profile[i]
            losses[i][t] = round_losses[i]
            if inner_field:
                inner_dists[i][t] = dyn.inner_dist
            if is_bm:
                max_decomposition_residual = max(
                    max_decomposition_residual, dyn.loss_decomposition_residual(round_losses[i])
                )

        for i, dyn in enumerate(dyns):
            dyn._update(round_losses[i])
            if pair_losses[i] is not None:
                pair_losses[i][t] = dyn.inner_loss
            if controllers is not None and controllers[i].update(
                t + 1, dyn.inner_dist, dyn.inner_loss
            ):
                dyn.reset(controllers[i].eta_adversarial)

    for i, x in enumerate(strategies):  # the one simplex check of the run's strategies
        bad = np.flatnonzero(~is_distribution(x))
        if bad.size:
            raise ValidationError(
                f"strategy of player {i} at round {bad[0] + 1} is not a probability vector: "
                f"{x[bad[0]]!r}"
            )

    trace = RunTrace(
        horizon=T,
        dynamics=config.dynamics,
        action_counts=counts,
        etas=tuple(etas),
        players=[
            PlayerTrace(
                strategies=strategies[i],
                losses=losses[i],
                pair_losses=pair_losses[i],
                **({inner_field: inner_dists[i]} if inner_field else {}),
            )
            for i in range(m)
        ],
    )
    switch_rounds = [c.switch_round for c in controllers] if controllers else [None] * m
    eta_final = [dyn.eta for dyn in dyns]
    table = _round_table(trace, switch_rounds, eta_final)
    rows = [
        (t, i, *values)
        for t, per_round in zip(range(1, T + 1), table.tolist())
        for i, values in enumerate(per_round)
    ]
    summary = _summarize(
        config, game, trace, table[-1], switch_rounds, eta_final, max_decomposition_residual
    )
    return RunResult(trace=trace, summary=summary, rows=rows, game=game)


def _round_table(trace, switch_rounds, eta_final) -> np.ndarray:
    """The CSV columns after ``t, player`` for every round and player, shape (T, m, 7)."""
    T = trace.horizon
    regrets = [running_regrets(trace, i) for i in range(trace.num_players)]
    gap = np.max([raw for _, raw, _ in regrets], axis=0) / np.arange(1, T + 1)
    players = []
    for i, (ext, raw, swap) in enumerate(regrets):
        eta = np.full(T, trace.etas[i])
        if switch_rounds[i] is not None:
            eta[switch_rounds[i] :] = eta_final[i]
        clamped = np.where(raw > 0.0, raw, 0.0)  # max(0.0, raw): 0.0 also for -0.0 and NaN
        ratio = running_max_ratio(trace, i, restart=switch_rounds[i])
        players.append(np.stack([ext, raw, clamped, swap, gap, eta, ratio], axis=1))
    return np.stack(players, axis=1)


def _summarize(config, game, trace, final, switch_rounds, eta_final, max_decomposition_residual):
    """Summary document; ``final`` is the last round of :func:`_round_table`."""
    m = game.num_players
    T = trace.horizon
    ext, raw, clamped, swap = final[:, :4].T.tolist()
    gap_report = ce_gap(game, average_product_distribution(trace))
    identity_residual = abs(gap_report.max_gap - max(raw) / T)

    summary = {
        "config": config.echo(),
        "final": {
            "horizon": T,
            "external_regret": ext,
            "internal_regret_raw": raw,
            "internal_regret_clamped": clamped,
            "swap_regret": swap,
            "ce_gap": gap_report.max_gap,
            "ce_gap_identity_residual": identity_residual,
            "cce_gap": max(ext) / T,
            "eta_initial": list(trace.etas),
            "eta_final": eta_final,
            "adaptive_switch_round": switch_rounds,
        },
        "diagnostics": {},
    }
    if config.dynamics.startswith("bm"):
        summary["final"]["bm_decomposition_max_residual"] = max_decomposition_residual

    no_switch = all(r is None for r in switch_rounds)
    if no_switch:
        summary["diagnostics"]["stability"] = [
            stability_check(trace, i).to_dict() for i in range(m)
        ]
    has_pair_data = trace.players[0].pair_dists is not None
    if config.smoothness_order is not None and has_pair_data:
        summary["diagnostics"]["smoothness"] = [
            smoothness_report(trace, i, config.smoothness_order, config.smoothness_alpha).to_dict()
            for i in range(m)
        ]
    if config.rvu_constant is not None and has_pair_data:
        summary["diagnostics"]["rvu"] = [
            rvu_check(trace, i, trace.etas[i], config.rvu_constant).to_dict()
            for i in range(m)
        ]
    if config.variance_budget is not None and has_pair_data:
        summary["diagnostics"]["variance_check"] = [
            check_variance_inequality(trace, i, config.variance_budget).to_dict()
            for i in range(m)
        ]
    return summary


def render_csv(rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode("ascii")


def render_rows_json(rows) -> bytes:
    docs = [dict(zip(CSV_COLUMNS, row)) for row in rows]
    return (json.dumps(docs, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def render_summary(summary: dict) -> bytes:
    return (json.dumps(summary, sort_keys=True, indent=2) + "\n").encode("ascii")


def emit_outputs(result: RunResult, config: RunConfig, out_dir) -> dict:
    """Write the per-round table, the summary, and optionally the trace."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = {}
        if config.out_format == "csv":
            paths["rows"] = out / "run.csv"
            paths["rows"].write_bytes(render_csv(result.rows))
        else:
            paths["rows"] = out / "run.json"
            paths["rows"].write_bytes(render_rows_json(result.rows))
        paths["summary"] = out / "summary.json"
        paths["summary"].write_bytes(render_summary(result.summary))
        if config.save_trace:
            paths["trace"] = out / "trace.npz"
            result.trace.save(paths["trace"])
        return {k: str(v) for k, v in paths.items()}
    except OSError as exc:
        raise ValidationError(f"cannot write outputs under {out}: {exc}") from exc
