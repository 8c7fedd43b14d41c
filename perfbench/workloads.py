"""The benchmark's workloads: inputs from the workload seed, timed operations, output checks.

A workload is a fixed list of operations. Each operation has a timed part
(``execute``) and an untimed check of what that part produced (``check``).
Self-play runs go through ``cli.main(["run", ...])`` on a game file written
during set-up, so the timed part covers argument parsing, the round loop,
the post-loop summary and output rendering, as a CLI user pays for them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ce_dynamics as cd
from ce_dynamics import cli
from ce_dynamics.diagnostics import DEFAULT_VARIANCE_BUDGET_CONSTANT

IDENTITY_TOL = 1e-10  # CE gap == max internal regret / T
SIMPLEX_TOL = 1e-12  # played strategies sum to 1
REGRET_ORDER_TOL = 1e-9  # clamped internal regret <= swap regret
EQUIVALENCE_TOL = 1e-8  # pair-space vs tree-space play
TREE_VS_SOLVER_TOL = 1e-10  # tree theorem vs numerical stationary solve
SMOKE_HORIZON = 16  # every horizon is capped here in smoke mode


@dataclass
class Outcome:
    """What one operation's check found.

    ``raised`` counts items that ended in one of the package's typed errors
    (for a CLI run, a non-zero exit code); ``bad`` counts items whose outputs
    failed a check or that raised anything else. Both count as failed.
    """

    attempts: int
    raised: int
    bad: int
    rounds: int  # completed self-play rounds, for rounds_per_s
    digest: str
    problems: list[str] = field(default_factory=list)


class SelfPlayRun:
    """One ``ce-dynamics run`` call on a game file, with checks on its outputs."""

    counts_rounds = True
    attempts = 1

    def __init__(self, label, kind, game_file, players, dynamics, horizon, eta_args, out_dir,
                 extra=()):
        self.label = label
        self.kind = kind
        self.players = players
        self.horizon = horizon
        self.out_dir = Path(out_dir)
        self.argv = [
            "run", "--game", str(game_file), "--dynamics", dynamics,
            "--horizon", str(horizon), *eta_args, *extra,
            "--save-trace", "--out", str(out_dir),
        ]

    def execute(self):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        return code, err.getvalue()

    def check(self, result) -> Outcome:
        code, err = result
        if code != 0:
            return Outcome(1, 1, 0, 0, f"exit {code}", [f"{self.label}: exit {code}: {err.strip()}"])
        csv_bytes = (self.out_dir / "run.csv").read_bytes()
        summary_bytes = (self.out_dir / "summary.json").read_bytes()
        digest = hashlib.sha256(csv_bytes + summary_bytes).hexdigest()
        problems = []

        residual = json.loads(summary_bytes)["final"]["ce_gap_identity_residual"]
        if not residual <= IDENTITY_TOL:
            problems.append(f"CE-gap identity residual {residual!r} > {IDENTITY_TOL}")

        rows = list(csv.reader(io.StringIO(csv_bytes.decode("ascii"))))
        header, body = rows[0], rows[1:]
        if len(body) != self.horizon * self.players:
            problems.append(f"{len(body)} rows, expected T*m = {self.horizon * self.players}")
        if body:
            ic = header.index("internal_regret_clamped")
            sw = header.index("swap_regret")
            clamped = np.array([float(r[ic]) for r in body])
            swap = np.array([float(r[sw]) for r in body])
            if not (np.all(clamped >= 0.0) and np.all(clamped <= swap + REGRET_ORDER_TOL)):
                problems.append("clamped internal regret outside [0, swap regret + 1e-9]")

        with np.load(self.out_dir / "trace.npz", allow_pickle=False) as trace:
            for i in range(self.players):
                x = trace[f"p{i}_strategies"]
                if not (np.all(x >= 0.0) and np.abs(x.sum(axis=1) - 1.0).max() <= SIMPLEX_TOL):
                    problems.append(f"player {i} strategies off the simplex by > {SIMPLEX_TOL}")

        problems = [f"{self.label}: {p}" for p in problems]
        return Outcome(1, 0, int(bool(problems)), self.horizon, digest, problems)


class Equivalence:
    """``verify_equivalence`` on one game; pair-space and tree-space play must agree."""

    counts_rounds = False
    attempts = 1

    kind = "equivalence"

    def __init__(self, label, game, eta, horizon):
        self.label, self.game, self.eta, self.horizon = label, game, eta, horizon

    def execute(self):
        return cd.verify_equivalence(self.game, self.eta, self.horizon, tol=EQUIVALENCE_TOL)

    def check(self, report) -> Outcome:
        worst = max(report.max_strategy_deviation, report.max_proportionality_residual)
        digest = hashlib.sha256(repr(report.to_dict()).encode()).hexdigest()
        problems = [] if worst <= EQUIVALENCE_TOL else [f"{self.label}: deviation {worst!r}"]
        return Outcome(1, 0, len(problems), 0, digest, problems)


class TreeVsSolver:
    """Tree-theorem and numerical stationary distributions of random chains must agree."""

    counts_rounds = False

    def __init__(self, label, chains):
        self.label = self.kind = label
        self.chains = chains
        self.attempts = len(chains)

    def execute(self):
        out = []
        for Q in self.chains:
            try:
                out.append((cd.tree_theorem_stationary(Q), cd.solve_stationary(Q)))
            except (cd.StationaryResidualError, cd.ValidationError) as exc:
                out.append(exc)
        return out

    def check(self, pairs) -> Outcome:
        h = hashlib.sha256()
        problems = []
        raised = 0
        for k, pair in enumerate(pairs):
            if isinstance(pair, Exception):
                raised += 1
                problems.append(f"{self.label} chain {k}: {type(pair).__name__}: {pair}")
                continue
            tree, solved = pair
            h.update(tree.tobytes() + solved.tobytes())
            diff = float(np.abs(tree - solved).max())
            if not diff <= TREE_VS_SOLVER_TOL:
                problems.append(f"{self.label} chain {k}: |tree - solver| = {diff!r}")
        return Outcome(len(pairs), raised, len(problems) - raised, 0, h.hexdigest(), problems)


def _horizon(horizon, smoke):
    return min(horizon, SMOKE_HORIZON) if smoke else horizon


def _random_chains(seed, count):
    """Positive row-stochastic matrices with n drawn from 2..6."""
    rng = np.random.default_rng(seed)
    chains = []
    for _ in range(count):
        n = int(rng.integers(2, 7))
        Q = rng.uniform(0.01, 1.0, size=(n, n))
        chains.append(Q / Q.sum(axis=1, keepdims=True))
    return chains


class Workload:
    """Games (set-up), first-use caches (set-up) and the timed operations of a workload."""

    name = ""
    # After the first pass, operations are repeated while --seconds allows.
    # Without repeats a run is exactly one pass, so its attempted and failed
    # counts do not depend on how fast the machine is.
    repeats = True

    def games(self, seed) -> dict:
        """Game label -> Game, generated with the package's own seeded generator."""
        raise NotImplementedError

    def warm(self) -> None:
        """Fill the first-use caches the operations rely on."""

    def setup(self, seed) -> dict:
        games = self.games(seed)
        self.warm()
        return games

    def operations(self, seed, games, game_files, out_dir, smoke) -> list:
        raise NotImplementedError


class Sweep3x3(Workload):
    name = "sweep-3x3"
    TWO_PLAYER = ("omwu", "sl-omwu", "bm-omwu", "arbo")
    THREE_PLAYER = ("sl-omwu", "bm-omwu")

    def games(self, seed):
        out = {}
        for k in range(10):
            gs = 10 * seed + k
            if k < 5:
                out[f"2p-g{gs}"] = cd.random_game(2, (3, 3), gs)
            else:
                out[f"3p-g{gs}"] = cd.random_game(3, (3, 3, 3), gs)
        return out

    def warm(self):
        cd.ArboDynamics(3, 0.05)  # tree structure tables for arbo on 3 actions

    def operations(self, seed, games, game_files, out_dir, smoke):
        T = _horizon(1024, smoke)
        ops = []
        for label, game in games.items():
            dynamics = self.TWO_PLAYER if game.num_players == 2 else self.THREE_PLAYER
            for dyn in dynamics:
                tag = f"{dyn}/{label}"
                ops.append(SelfPlayRun(tag, f"{dyn}/{game.num_players}p", game_files[label],
                                       game.num_players, dyn, T, ["--eta", "0.05"],
                                       out_dir / f"{dyn}-{label}"))
        return ops


class Wide10x10(Workload):
    name = "wide-10x10"
    # T=1024 on four games rather than T=4096 on one: a T=4096 run takes 2-5 s
    # here, too few samples per configuration for a steady time in one run.
    GAMES = 4

    def games(self, seed):
        seeds = range(self.GAMES * seed, self.GAMES * (seed + 1))
        return {f"g{gs}": cd.random_game(2, (10, 10), gs) for gs in seeds}

    def operations(self, seed, games, game_files, out_dir, smoke):
        T = _horizon(1024, smoke)
        ops = []
        for label in games:
            for dyn in ("sl-omwu", "bm-omwu"):
                for rule, eta_args in (("fixed", ["--eta", "0.05"]),
                                       ("adaptive", ["--eta-rule", "adaptive"])):
                    ops.append(SelfPlayRun(f"{dyn}/{rule}/{label}", f"{dyn}/{rule}",
                                           game_files[label], 2, dyn, T, eta_args,
                                           out_dir / f"{dyn}-{rule}-{label}"))
        return ops


class StiffEta(Workload):
    name = "stiff-eta"
    # The stalls are specific games (3 and 5 here; 4 of game seeds 0-39, costing
    # 5-80 s each), so the game set is pinned: a seed-derived set would swing
    # wall time by whole stalls between seeds, or hide them. The workload seed
    # only rotates the run order. Two of the eight runs fail once the power
    # iteration reaches its iteration cap; each run is exactly one pass, so it
    # always fails the same 2 of 8, however fast the machine is.
    GAME_SEEDS = tuple(range(8))
    repeats = False

    def games(self, seed):
        return {f"g{gs}": cd.random_game(2, (5, 5), gs) for gs in self.GAME_SEEDS}

    def operations(self, seed, games, game_files, out_dir, smoke):
        T = _horizon(1000, smoke)
        labels = list(games)
        k = seed % len(labels)
        return [
            SelfPlayRun(f"sl-omwu/{label}", label, game_files[label], 2, "sl-omwu", T,
                        ["--eta", "5"], out_dir / label)
            for label in labels[k:] + labels[:k]
        ]


class Crosscheck(Workload):
    name = "crosscheck"
    CHAINS = 1000

    def games(self, seed):
        out = {f"eq-g{20 * seed + k}": cd.random_game(2, (3, 3), 20 * seed + k) for k in range(20)}
        out[f"diag-g{seed}"] = cd.random_game(2, (4, 4), seed)
        return out

    def warm(self):
        cd.ArboDynamics(3, 0.01)
        for n in range(2, 7):  # rooted-tree tables behind tree_theorem_stationary
            cd.tree_theorem_stationary(np.full((n, n), 1.0 / n))

    def operations(self, seed, games, game_files, out_dir, smoke):
        ops = [
            Equivalence(f"equivalence/{label}", game, 0.01, _horizon(200, smoke))
            for label, game in games.items()
            if label.startswith("eq-")
        ]
        ops.append(TreeVsSolver("tree-vs-solver", _random_chains(seed, self.CHAINS)))
        (diag,) = [label for label in games if label.startswith("diag-")]
        ops.append(SelfPlayRun(
            f"sl-omwu/diagnostics/{diag}", "diagnostics", game_files[diag], 2, "sl-omwu",
            _horizon(1024, smoke),
            ["--eta", "0.05"], out_dir / "diagnostics",
            extra=["--smoothness-order", "5", "--rvu-constant", "64",
                   "--variance-budget", repr(DEFAULT_VARIANCE_BUDGET_CONSTANT)],
        ))
        return ops


WORKLOADS = {w.name: w for w in (Sweep3x3(), Wide10x10(), StiffEta(), Crosscheck())}
