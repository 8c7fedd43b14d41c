"""Experiment runner: configuration, learning-rate schedules, output files.

A run executes the two-phase self-play protocol: freeze every player's
strategy, compute every expected-loss vector from the frozen profile, then
deliver all feedback. Everything is deterministic given the configuration;
no wall-clock or randomness enters the outputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import (
    DEFAULT_VARIANCE_BUDGET_CONSTANT,
    check_variance_inequality,
    rvu_check,
    smoothness_report,
    stability_check,
)
from .errors import ValidationError
from .games import Game, expected_loss, load_game, random_game
from .internal_dynamics import MAX_ARBO_NODES, ArboDynamics, SlOmwu
from .metrics import (
    PlayerTrace,
    RunTrace,
    average_product_distribution,
    ce_gap,
    clamped_internal_regret,
    external_regret,
    internal_regret,
    swap_regret,
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
    seed: int = 0
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
            if self.eta is None or not self.eta > 0.0:
                raise ValidationError("fixed eta rule requires a positive --eta")
        elif self.eta is not None:
            raise ValidationError(f"eta rule {self.eta_rule!r} does not take an explicit eta")
        if self.log_base not in ("e", "2"):
            raise ValidationError(f"log base must be 'e' or '2', got {self.log_base!r}")
        if self.out_format not in ("csv", "json"):
            raise ValidationError(f"format must be 'csv' or 'json', got {self.out_format!r}")
        if self.game_file is None and (self.players is None or self.action_counts is None):
            raise ValidationError("need either a game file or players + action counts")

    def echo(self) -> dict:
        """Config as emitted into the summary; output locations excluded."""
        return {
            "dynamics": self.dynamics,
            "horizon": self.horizon,
            "eta_rule": self.eta_rule,
            "eta": self.eta,
            "schedule_constant": self.schedule_constant,
            "log_base": self.log_base,
            "game_file": self.game_file,
            "players": self.players,
            "action_counts": list(self.action_counts) if self.action_counts else None,
            "game_seed": self.game_seed,
            "seed": self.seed,
            "smoothness_order": self.smoothness_order,
            "smoothness_alpha": self.smoothness_alpha,
            "rvu_constant": self.rvu_constant,
            "variance_budget": self.variance_budget,
            "adaptive_budget": self.adaptive_budget,
        }


def load_config_game(config: RunConfig) -> Game:
    if config.game_file is not None:
        return load_game(Path(config.game_file).read_bytes())
    return random_game(config.players, config.action_counts, config.game_seed)


def _schedule_log(horizon: int, base: str) -> float:
    value = math.log(horizon) if base == "e" else math.log2(horizon)
    return max(value, 1.0)  # keep schedules finite and positive at tiny horizons


def resolve_eta(config: RunConfig, num_players: int, action_count: int) -> float:
    """Per-player learning rate under the configured rule."""
    if config.eta_rule == "fixed":
        return float(config.eta)
    log4 = _schedule_log(config.horizon, config.log_base) ** 4
    if config.eta_rule == "theorem-internal":
        return 1.0 / (config.schedule_constant * num_players * log4)
    if config.eta_rule == "theorem-swap":
        return 1.0 / (config.schedule_constant * num_players * action_count**3 * log4)
    # Adaptive mode starts at the matching theorem schedule for the dynamics.
    if config.dynamics.startswith("bm"):
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
        self.depth = max(1, math.ceil(math.log2(horizon))) if horizon > 1 else 1
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
        for q, z, zp in zip(q_rows, z_rows, prev):
            mean_diff = q @ (z - zp)
            self.lhs += float(q @ ((z - zp) - mean_diff) ** 2)
            mean_prev = q @ zp
            self.prev_variance_sum += float(q @ (zp - mean_prev) ** 2)
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


def _inner_rows(name: str, dyn, strategy: np.ndarray, loss: np.ndarray):
    """(q_rows, z_rows) of the inner learner(s) for the adaptive controller."""
    if name in ("omwu", "mwu"):
        return strategy[None, :], loss[None, :]
    if name in ("sl-omwu", "sl-mwu"):
        return dyn.last_pair_dist[None, :], dyn.last_pair_loss[None, :]
    if name in ("bm-omwu", "bm-mwu"):
        return dyn.last_matrix, strategy[:, None] * loss[None, :]
    # arbo: tree distribution against the tree loss
    from .internal_dynamics import pair_loss_vector

    tree_loss = pair_loss_vector(strategy, loss)[dyn.edge_pairs].sum(axis=1)
    return dyn.last_tree_dist[None, :], tree_loss[None, :]


def _inner_dim(name: str, n: int) -> int:
    if name in ("sl-omwu", "sl-mwu"):
        return n * (n - 1)
    if name == "arbo":
        return n ** (n - 1)
    return n


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
    if config.dynamics == "arbo" and any(n > MAX_ARBO_NODES for n in counts):
        raise ValidationError(
            f"arbo dynamics requires all action counts <= {MAX_ARBO_NODES}, got {counts}"
        )
    T = config.horizon

    etas = [resolve_eta(config, m, n) for n in counts]
    dyns = [_build_dynamics(config.dynamics, n, eta) for n, eta in zip(counts, etas)]
    controllers = None
    if config.eta_rule == "adaptive":
        controllers = [
            AdaptiveEtaController(T, _inner_dim(config.dynamics, n), config.adaptive_budget)
            for n in counts
        ]

    is_sl = config.dynamics in ("sl-omwu", "sl-mwu")
    is_bm = config.dynamics in ("bm-omwu", "bm-mwu")
    is_arbo = config.dynamics == "arbo"

    strategies = [np.empty((T, n)) for n in counts]
    losses = [np.empty((T, n)) for n in counts]
    pair_dists = [np.empty((T, n * (n - 1))) if is_sl else None for n in counts]
    pair_losses = [np.empty((T, n * (n - 1))) if is_sl else None for n in counts]
    copy_dists = [np.empty((T, n, n)) if is_bm else None for n in counts]
    tree_dists = [np.empty((T, n ** (n - 1))) if is_arbo else None for n in counts]

    # Running regret accounting; cross[i][j, k] = sum_t x_t[j] loss_t[k].
    cross = [np.zeros((n, n)) for n in counts]
    offdiag = [~np.eye(n, dtype=bool) for n in counts]
    cum_action_loss = [np.zeros(n) for n in counts]
    prev_inner = [None] * m
    max_ratio = [1.0] * m
    current_eta = list(etas)
    switch_rounds: list[int | None] = [None] * m
    max_decomposition_residual = 0.0
    rows: list[tuple] = []

    for t in range(T):
        profile = [dyn.next_strategy() for dyn in dyns]
        round_losses = [expected_loss(game, profile, i) for i in range(m)]

        for i in range(m):
            strategies[i][t] = profile[i]
            losses[i][t] = round_losses[i]
            if is_sl:
                pair_dists[i][t] = dyns[i].last_pair_dist
            elif is_bm:
                copy_dists[i][t] = dyns[i].last_matrix
                max_decomposition_residual = max(
                    max_decomposition_residual,
                    dyns[i].loss_decomposition_residual(round_losses[i]),
                )
            elif is_arbo:
                tree_dists[i][t] = dyns[i].last_tree_dist

            inner = (
                dyns[i].last_pair_dist
                if is_sl
                else dyns[i].last_matrix
                if is_bm
                else dyns[i].last_tree_dist
                if is_arbo
                else profile[i]
            )
            if prev_inner[i] is not None:
                ratio = inner / prev_inner[i]
                max_ratio[i] = max(max_ratio[i], float(ratio.max()), float((1.0 / ratio).max()))
            prev_inner[i] = inner

            cross[i] += np.outer(profile[i], round_losses[i])
            cum_action_loss[i] += round_losses[i]

        running_gap = max(
            float((np.diag(cross[i])[:, None] - cross[i])[offdiag[i]].max())
            for i in range(m)
        ) / (t + 1)
        for i in range(m):
            diag = np.diag(cross[i])
            int_raw = float((diag[:, None] - cross[i])[offdiag[i]].max())
            rows.append(
                (
                    t + 1,
                    i,
                    float(diag.sum() - cum_action_loss[i].min()),
                    int_raw,
                    max(0.0, int_raw),
                    float(diag.sum() - cross[i].min(axis=1).sum()),
                    running_gap,
                    current_eta[i],
                    max_ratio[i],
                )
            )

        for i in range(m):
            dyns[i].observe(round_losses[i])
            if is_sl:
                pair_losses[i][t] = dyns[i].last_pair_loss
            if controllers is not None and not controllers[i].switched:
                q_rows, z_rows = _inner_rows(config.dynamics, dyns[i], profile[i], round_losses[i])
                if controllers[i].update(t + 1, q_rows, z_rows):
                    switch_rounds[i] = t + 1
                    current_eta[i] = controllers[i].eta_adversarial
                    dyns[i].reset(current_eta[i])
                    prev_inner[i] = None  # restart breaks the consecutive-ratio chain

    trace = RunTrace(
        horizon=T,
        dynamics=config.dynamics,
        action_counts=counts,
        etas=tuple(etas),
        players=[
            PlayerTrace(
                strategies=strategies[i],
                losses=losses[i],
                pair_dists=pair_dists[i],
                pair_losses=pair_losses[i],
                copy_dists=copy_dists[i],
                tree_dists=tree_dists[i],
            )
            for i in range(m)
        ],
    )

    summary = _summarize(config, game, trace, current_eta, switch_rounds, max_decomposition_residual)
    return RunResult(trace=trace, summary=summary, rows=rows, game=game)


def _summarize(config, game, trace, current_eta, switch_rounds, max_decomposition_residual):
    m = game.num_players
    T = trace.horizon
    ext = [external_regret(trace, i) for i in range(m)]
    raw = [internal_regret(trace, i) for i in range(m)]
    clamped = [clamped_internal_regret(trace, i) for i in range(m)]
    swap = [swap_regret(trace, i) for i in range(m)]
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
            "eta_final": [float(e) for e in current_eta],
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
        alpha = config.smoothness_alpha or 1.0 / (config.smoothness_order + 3)
        summary["diagnostics"]["smoothness"] = [
            smoothness_report(trace, i, config.smoothness_order, alpha).to_dict()
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
