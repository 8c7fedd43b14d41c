"""Command-line front end.

Subcommands: ``run`` (self-play experiment), ``equivalence`` (pair-space vs
tree-space comparison), ``trees`` (arborescence enumeration), ``stationary``
(stationary distribution of a matrix file), ``diagnose`` (run + diagnostic
report), ``gen`` (random game file).

Exit codes: 0 ok, 1 usage error, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

from .diagnostics import DEFAULT_VARIANCE_BUDGET_CONSTANT
from .errors import StationaryResidualError, ValidationError
from .games import load_game, random_game, save_game
from .internal_dynamics import verify_equivalence
from .markov_tree import (
    enumerate_arborescences,
    solve_stationary,
    tree_theorem_stationary,
)
from .runner import ETA_RULES, RunConfig, emit_outputs, render_summary, run_dynamics

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_game_source(p):
    p.add_argument("--game", dest="game_file", metavar="GAME", help="game JSON file")
    p.add_argument("--players", type=int, help="number of players for a generated game")
    p.add_argument("--actions", dest="action_counts", metavar="ACTIONS", type=_parse_actions,
                   help="comma-separated action counts, e.g. 3,3")
    p.add_argument("--game-seed", type=int, default=0, help="seed for the generated game")


def _add_run_options(p):
    p.add_argument("--dynamics", default="sl-omwu")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--eta", type=float, help="fixed learning rate")
    p.add_argument(
        "--eta-rule",
        choices=ETA_RULES,
        help="learning-rate rule; defaults to fixed when --eta is given",
    )
    p.add_argument("--schedule-constant", type=float, default=1.0)
    p.add_argument("--log-base", choices=("e", "2"), default="e")
    p.add_argument("--smoothness-order", type=int)
    p.add_argument("--smoothness-alpha", type=float)
    p.add_argument("--rvu-constant", type=float)
    p.add_argument("--variance-budget", type=float)
    p.add_argument("--adaptive-budget", type=float, default=DEFAULT_VARIANCE_BUDGET_CONSTANT)


@functools.cache  # built on the first main() call, not at import, then reused
def _build_parser() -> _Parser:
    parser = _Parser(prog="ce-dynamics", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a self-play experiment")
    _add_game_source(p_run)
    _add_run_options(p_run)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--format", dest="out_format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--save-trace", action="store_true")

    p_eq = sub.add_parser("equivalence", help="compare the two internal-regret dynamics")
    p_eq.add_argument("--game", required=True)
    p_eq.add_argument("--eta", type=float, required=True)
    p_eq.add_argument("--horizon", type=int, required=True)
    p_eq.add_argument("--tol", type=float, default=1e-8)

    p_trees = sub.add_parser("trees", help="enumerate rooted directed trees")
    p_trees.add_argument("--n", type=int, required=True)
    p_trees.add_argument("--root", type=int, required=True)

    p_st = sub.add_parser("stationary", help="stationary distribution of a matrix")
    p_st.add_argument("--matrix", required=True, help="JSON file with a row-major matrix")
    p_st.add_argument(
        "--method",
        choices=("linear", "tree"),
        default="linear",
        help="linear: GTH elimination (default); tree: Markov chain tree theorem, n <= 7",
    )

    p_diag = sub.add_parser("diagnose", help="run dynamics and emit a diagnostic report")
    _add_game_source(p_diag)
    _add_run_options(p_diag)
    p_diag.add_argument("--out", help="write the JSON report here instead of stdout")
    p_diag.add_argument("--table", help="write the per-(order, round) smoothness CSV here")
    p_diag.set_defaults(smoothness_order=3, rvu_constant=64.0,
                        variance_budget=DEFAULT_VARIANCE_BUDGET_CONSTANT)

    p_gen = sub.add_parser("gen", help="generate a random game file")
    p_gen.add_argument("--players", type=int, required=True)
    p_gen.add_argument("--actions", type=_parse_actions, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", help="output file; stdout when omitted")

    return parser


def _parse_actions(text):
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected action counts like 3,3, got {text!r}") from None


def _config_from_args(args) -> RunConfig:
    eta_rule = args.eta_rule or ("fixed" if args.eta is not None else None)
    if eta_rule is None:
        raise ValidationError("need --eta or --eta-rule")
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    return RunConfig(**{**given, "eta_rule": eta_rule, "action_counts": args.action_counts or None})


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    result = run_dynamics(config)
    paths = emit_outputs(result, config, args.out)
    print(json.dumps(paths, sort_keys=True))
    return EXIT_OK


def _cmd_equivalence(args) -> int:
    if not 0.0 <= args.tol < math.inf:
        raise ValidationError(f"tol must be non-negative and finite, got {args.tol}")
    game = load_game(Path(args.game).read_bytes())
    report = verify_equivalence(game, args.eta, args.horizon, tol=args.tol)
    doc = report.to_dict()
    doc["passes"] = report.passes()
    doc["tol"] = report.tol
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def _cmd_trees(args) -> int:
    trees = enumerate_arborescences(args.n, args.root)
    doc = {
        "n": args.n,
        "root": args.root,
        "count": len(trees),
        "parents": [list(tree.parents) for tree in trees],
    }
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def _cmd_stationary(args) -> int:
    raw = json.loads(Path(args.matrix).read_text())
    solver = {
        "linear": solve_stationary,
        "tree": tree_theorem_stationary,
    }[args.method]
    pi = solver(raw)
    print(json.dumps({"stationary": [float(v) for v in pi]}, sort_keys=True))
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    config = _config_from_args(args)
    result = run_dynamics(config)
    report = render_summary(result.summary).decode("ascii")
    # Both texts first, then the table, then the report: a failed write leaves nothing behind.
    files = [(Path(args.table), _smoothness_table(result))] if args.table else []
    files += [(Path(args.out), report)] if args.out else []
    for k, (path, text) in enumerate(files):
        new = not path.exists()  # a failed write of a new file can leave it created, cut short
        try:
            path.write_text(text)
        except OSError:
            for written in [p for p, _ in files[:k]] + [path] * new:
                written.unlink(missing_ok=True)
            raise
    if not args.out:
        sys.stdout.write(report)
    return EXIT_OK


def _smoothness_table(result) -> str:
    lines = ["player,order,t,observed,bound"]
    for i, rep in enumerate(result.smoothness):  # the reports the run's summary was built from
        for h, observed in enumerate(rep.observed):
            for t, value in enumerate(observed):
                lines.append(f"{i},{h},{t + 1},{float(value)!r},{float(rep.bounds[h])!r}")
    return "\n".join(lines) + "\n"


def _cmd_gen(args) -> int:
    game = random_game(args.players, args.actions, args.seed)
    data = save_game(game)
    if args.out:
        Path(args.out).write_bytes(data)
    else:
        sys.stdout.buffer.write(data + b"\n")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "equivalence": _cmd_equivalence,
    "trees": _cmd_trees,
    "stationary": _cmd_stationary,
    "diagnose": _cmd_diagnose,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StationaryResidualError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
