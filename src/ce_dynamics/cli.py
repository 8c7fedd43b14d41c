"""Command-line front end.

Subcommands: ``run`` (self-play experiment), ``equivalence`` (pair-space vs
tree-space comparison), ``trees`` (arborescence enumeration), ``stationary``
(stationary distribution of a matrix file), ``diagnose`` (run + diagnostic
report), ``gen`` (random game file).

Files go through :func:`runner.read_file` and :func:`runner.write_files`: one that cannot be read
or written is a validation error naming it, and a failed write leaves nothing that the call made.

Exit codes: 0 ok, 1 usage error, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields

from .diagnostics import DEFAULT_VARIANCE_BUDGET_CONSTANT
from .errors import StationaryResidualError, ValidationError
from .games import load_game, random_game, save_game
from .internal_dynamics import verify_equivalence
from .markov_tree import (
    enumerate_arborescences,
    solve_stationary,
    tree_theorem_stationary,
)
from .runner import (ETA_RULES, RunConfig, _smoothness_chunks, emit_outputs, read_file,
                     render_summary, run_dynamics, write_files)

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
    p.add_argument("--game-seed", type=int, help="seed for the generated game (default 0)")


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
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected action counts like 3,3, got {text!r}") from None


def _config_from_args(args) -> RunConfig:
    if args.game_file is not None and args.game_seed is not None:
        raise ValidationError("--game excludes --game-seed: the file is the game")
    eta_rule = args.eta_rule or ("fixed" if args.eta is not None else None)
    if eta_rule is None:
        raise ValidationError("need --eta or --eta-rule")
    # An option left out takes RunConfig's default: --game-seed's is 0.
    given = {f.name: v for f in fields(RunConfig) if (v := getattr(args, f.name, None)) is not None}
    return RunConfig(**{**given, "eta_rule": eta_rule})


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    result = run_dynamics(config)
    paths = emit_outputs(result, config, args.out)
    print(json.dumps(paths, sort_keys=True))
    return EXIT_OK


def _cmd_equivalence(args) -> int:
    if not 0.0 <= args.tol < math.inf:
        raise ValidationError(f"tol must be non-negative and finite, got {args.tol}")
    game = load_game(read_file(args.game, "game file"))
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
    try:
        raw = json.loads(read_file(args.matrix, "matrix file").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"matrix file {args.matrix} is not UTF-8 JSON: {exc}") from exc
    pi = (solve_stationary if args.method == "linear" else tree_theorem_stationary)(raw)
    print(json.dumps({"stationary": [float(v) for v in pi]}, sort_keys=True))
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    config = _config_from_args(args)
    result = run_dynamics(config)
    report = render_summary(result.summary)
    files = [(args.table, lambda file: file.writelines(_smoothness_chunks(result.smoothness))),
             (args.out, lambda file: file.write(report))]
    write_files([(path, write) for path, write in files if path])
    if not args.out:
        sys.stdout.write(report.decode("ascii"))
    return EXIT_OK


def _cmd_gen(args) -> int:
    game = random_game(args.players, args.actions, args.seed)
    data = save_game(game)
    if args.out:
        write_files([(args.out, lambda file: file.write(data))])
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
    except (ValidationError, OSError) as exc:  # OSError: a failed write to stdout
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StationaryResidualError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
