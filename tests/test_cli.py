import io
import json
import math
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ce_dynamics import cli, diagnostics, runner
from ce_dynamics.cli import main
from ce_dynamics.games import load_game, random_game, save_game


@pytest.fixture
def game_file(tmp_path):
    path = tmp_path / "game.json"
    path.write_bytes(save_game(random_game(2, (3, 3), seed=5)))
    return str(path)


def test_gen_writes_loadable_game(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["gen", "--players", "2", "--actions", "3,4", "--seed", "9", "--out", str(out)]) == 0
    game = load_game(out.read_bytes())
    assert game.action_counts == (3, 4)


def test_gen_without_out_writes_the_game_to_stdout(capsysbinary):
    assert main(["gen", "--players", "2", "--actions", "3,4", "--seed", "9"]) == 0
    assert capsysbinary.readouterr().out == save_game(random_game(2, (3, 4), 9)) + b"\n"


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen", "--players", "2", "--actions", "2,2", "--seed", "3", "--out", str(a)])
    main(["gen", "--players", "2", "--actions", "2,2", "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seeds_outside_64_bits_exit_2(tmp_path, capsys, seed):
    gen = ["gen", "--players", "2", "--actions", "3,3", "--seed", seed, "--out", str(tmp_path / "g")]
    run = ["run", "--players", "2", "--actions", "3,3", "--game-seed", seed, "--dynamics", "omwu",
           "--horizon", "4", "--eta", "0.05", "--out", str(tmp_path / "run")]
    for argv in (gen, run):
        assert main(argv) == 2
        assert f"seed {seed} outside [0, 2**64)" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_trees_command(capsys):
    assert main(["trees", "--n", "4", "--root", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 16
    assert len(doc["parents"]) == 16


def test_trees_rejects_large_n(capsys):
    assert main(["trees", "--n", "9", "--root", "0"]) == 2


def test_stationary_command(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[0.8, 0.2], [0.6, 0.4]]))
    for method in ("linear", "tree"):
        assert main(["stationary", "--matrix", str(path), "--method", method]) == 0
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(doc["stationary"], [0.75, 0.25], atol=1e-12)


def test_stationary_rejects_bad_matrix(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
    assert main(["stationary", "--matrix", str(path)]) == 2


@pytest.mark.parametrize("method", ["linear", "tree"])
def test_stationary_rejects_huge_entries_without_overflow(tmp_path, capsys, method):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[1e308, 1e308], [1.0, 1.0]]))
    assert main(["stationary", "--matrix", str(path), "--method", method]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: transition matrix entries must not exceed 1")
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("matrix", [[[0.5, 0.5], [1.0]], [["a", "b"], [0.5, 0.5]]],
                         ids=["ragged", "non-numeric"])
def test_stationary_rejects_non_matrix(tmp_path, capsys, matrix):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix))
    assert main(["stationary", "--matrix", str(path)]) == 2
    assert "not a numeric matrix" in capsys.readouterr().err


def test_equivalence_command(game_file, capsys):
    assert main(["equivalence", "--game", game_file, "--eta", "0.02", "--horizon", "50"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passes"] is True
    assert doc["tol"] == 1e-8
    assert doc["max_strategy_deviation"] <= 1e-8


def test_equivalence_command_judges_by_given_tol(game_file, capsys):
    # Rounding leaves both maxima above 0, so --tol 0 fails the report that 1e-8 passes: exit 4.
    argv = ["equivalence", "--game", game_file, "--eta", "0.02", "--horizon", "50", "--tol", "0"]
    assert main(argv) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["tol"] == 0.0
    assert max(doc["max_strategy_deviation"], doc["max_proportionality_residual"]) > 0.0
    assert doc["passes"] is False


def refuse_constant(token):
    raise AssertionError(f"non-finite token {token} in strict JSON")


def test_equivalence_residual_past_exps_range_is_finite(tmp_path, capsys):
    # At eta = 1000 a tree's mass ratio leaves exp's range; its log does not. The residual, a
    # log-ratio spread, is a finite number above the tolerance, with no warning, and fails.
    game = tmp_path / "game.json"
    assert main(["gen", "--players", "2", "--actions", "3,3", "--seed", "0", "--out", str(game)]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["equivalence", "--game", str(game), "--eta", "1000", "--horizon", "300"]) == 4
    captured = capsys.readouterr()
    doc = json.loads(captured.out, parse_constant=refuse_constant)
    assert 1e-8 < doc["max_proportionality_residual"] < math.inf
    assert doc["passes"] is False
    # A failed verification still prints its report; stderr names each failing key.
    assert doc["max_strategy_deviation"] == 1.0
    assert captured.err.splitlines() == [
        f"verification failed: {key} {doc[key]!r} above tol 1e-08"
        for key in ("max_strategy_deviation", "max_proportionality_residual")]


@pytest.mark.parametrize(
    "argv",
    [
        ["--eta", "inf"],
        ["--eta-rule", "theorem-internal", "--schedule-constant", "0"],
        ["--eta-rule", "adaptive", "--adaptive-budget", "nan"],
        ["--eta", "0.05", "--rvu-constant", "nan"],
        ["--eta", "0.05", "--variance-budget", "nan"],
    ],
)
def test_run_rejects_bad_numbers(game_file, tmp_path, capsys, argv):
    out = tmp_path / "run"
    code = main(
        ["run", "--game", game_file, "--dynamics", "sl-omwu", "--horizon", "4",
         "--out", str(out), *argv]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error:")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--eta", "inf"], ["--eta", "0.02", "--tol", "nan"],
                                  ["--eta", "0.02", "--tol", "-1"]])
def test_equivalence_rejects_bad_numbers(game_file, capsys, argv):
    assert main(["equivalence", "--game", game_file, "--horizon", "4", *argv]) == 2
    assert capsys.readouterr().err.startswith("validation error:")


@pytest.mark.parametrize("command", ["run", "diagnose"])
@pytest.mark.parametrize("dynamics", ["omwu", "sl-omwu", "bm-omwu"])
@pytest.mark.parametrize(
    "argv",
    [["--smoothness-order", "-1"], ["--smoothness-order", "3", "--smoothness-alpha", "0.9"]],
    ids=["order", "alpha"],
)
def test_bad_smoothness_options_fail_before_play(
    game_file, tmp_path, capsys, monkeypatch, command, dynamics, argv
):
    def refuse(*args, **kwargs):
        raise AssertionError("play started")

    monkeypatch.setattr(runner, "_build_dynamics", refuse)
    out = tmp_path / "out"
    code = main([command, "--game", game_file, "--dynamics", dynamics, "--horizon", "20000",
                 "--eta", "0.05", "--out", str(out), *argv])
    assert code == 2
    assert capsys.readouterr().err.startswith("validation error:")
    assert not out.exists()


def test_run_smoothness_alpha_needs_order(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("play started")

    monkeypatch.setattr(runner, "_build_dynamics", refuse)
    out = tmp_path / "out"
    argv = ["run", "--players", "2", "--actions", "3,3", "--horizon", "20", "--eta", "0.05",
            "--smoothness-alpha", "0.9", "--out", str(out)]
    assert main(argv) == 2
    assert "smoothness alpha needs a smoothness order" in capsys.readouterr().err
    assert not out.exists()


def test_diagnose_default_order_checks_given_alpha(game_file, capsys):
    argv = ["diagnose", "--game", game_file, "--horizon", "8", "--eta", "0.05",
            "--smoothness-alpha", "0.25"]
    assert main(argv) == 2
    assert "alpha must lie in (0, 1/(H+3)]" in capsys.readouterr().err


def test_run_command_produces_outputs(game_file, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["run", "--game", game_file, "--dynamics", "sl-omwu", "--horizon", "16",
         "--eta", "0.05", "--out", str(out)]
    )
    assert code == 0
    paths = json.loads(capsys.readouterr().out)
    summary = json.loads(open(paths["summary"]).read())
    assert summary["final"]["horizon"] == 16
    header = open(paths["rows"]).readline().strip()
    assert header == "t,player,external_regret,internal_regret_raw,internal_regret_clamped,swap_regret,ce_gap_running,eta,max_consec_ratio"


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("eta", ["119", "1e10"])
@pytest.mark.parametrize("dynamics", ["omwu", "sl-omwu", "bm-omwu"])
def test_run_past_exp_overflow_writes_strict_json(game_file, tmp_path, capsys, dynamics, eta):
    # exp(6 eta) overflows a float for eta above about 118.3; the stability
    # report carries a null bound then, which every finite ratio lies below.
    out = tmp_path / "run"
    argv = ["run", "--game", game_file, "--dynamics", dynamics, "--horizon", "50",
            "--eta", eta, "--out", str(out)]
    assert main(argv) == 0
    summary = strict_json((out / "summary.json").read_text())
    for report in summary["diagnostics"]["stability"]:
        assert report["exp_bound"] is None
        assert report["within_exp_bound"] is True


def assert_rvu_sides_are_null(summary):
    # C eta^2 overflows a float; each side built on it is null, and holds compares with +inf.
    for report in summary["diagnostics"]["rvu"]:
        assert report["bound"] is None and report["bound_action_log"] is None
        assert report["slack"] is None and report["holds"] is True
        assert math.isfinite(report["regret"])


# eta**2 raised OverflowError at eta = 1e200; at eta = 1e100, C = 1e300 the bound was inf.
@pytest.mark.parametrize("eta, constant", [("1e200", "1"), ("1e100", "1e300")])
def test_run_with_an_overflowing_rvu_bound_writes_strict_json(tmp_path, capsys, eta, constant):
    out = tmp_path / "d"
    argv = ["run", "--players", "2", "--actions", "3,3", "--horizon", "40", "--dynamics",
            "sl-omwu", "--eta", eta, "--rvu-constant", constant, "--out", str(out)]
    assert main(argv) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert_rvu_sides_are_null(strict_json((out / "summary.json").read_text()))


def test_diagnose_with_an_overflowing_rvu_bound_prints_strict_json(capsys):
    # diagnose checks RVU by default, with C = 64.
    argv = ["diagnose", "--players", "2", "--actions", "3,3", "--horizon", "40", "--dynamics",
            "sl-omwu", "--eta", "1e200"]
    assert main(argv) == 0
    assert_rvu_sides_are_null(strict_json(capsys.readouterr().out))


@pytest.mark.parametrize("command", ["run", "diagnose"])
@pytest.mark.parametrize(
    "horizon, order, alpha, limit",
    [(100, 60, None, None), (100, 99, None, None), (1200, 1100, None, "[0, 1000]"),
     (1200, 1100, "1e-300", "[0, 1000]"), (5, 10, None, "too large for horizon 5")],
    ids=["T100-H60", "T100-H99", "T1200-H1100", "T1200-H1100-tiny-alpha", "T5-H10"],
)
def test_smoothness_order_finishes_with_strict_json_or_fails_before_play(
    tmp_path, capsys, monkeypatch, command, horizon, order, alpha, limit
):
    """Past h = 57, h^(3h+1) is past the largest float; from h = 81 at the default alpha so
    is the bound, reported as null. Above order 1000 the differences themselves could
    overflow, and above T - 1 there are none: those orders fail before play, naming the limit."""
    if limit is not None:
        def refuse(*args, **kwargs):
            raise AssertionError("play started")

        monkeypatch.setattr(runner, "_build_dynamics", refuse)
    out = tmp_path / "out"
    argv = [command, "--players", "2", "--actions", "3,3", "--horizon", str(horizon),
            "--eta", "0.05", "--smoothness-order", str(order), "--out", str(out)]
    code = main(argv + (["--smoothness-alpha", alpha] if alpha else []))
    err = capsys.readouterr().err
    if limit is not None:
        assert code == 2 and err.startswith("validation error:") and limit in err
        assert not out.exists()
        return
    assert code == 0
    doc = strict_json((out / "summary.json" if command == "run" else out).read_text())
    for report in doc["diagnostics"]["smoothness"]:
        bounds = report["bounds"]
        assert len(bounds) == order + 1 and len(report["max_observed_per_order"]) == order + 1
        assert (None in bounds) == (order > 80)
        assert all(b is None or b >= 0.0 for b in bounds)


@pytest.mark.parametrize("dynamics", ["omwu", "sl-omwu", "bm-omwu"])
def test_run_rejects_an_overflowing_eta_before_play(
    game_file, tmp_path, capsys, monkeypatch, dynamics
):
    # 2 * eta * (T + 1) past the largest float: -eta * z could overflow in the softmax.
    def refuse(*args, **kwargs):
        raise AssertionError("play started")

    monkeypatch.setattr(runner, "_build_dynamics", refuse)
    out = tmp_path / "run"
    argv = ["run", "--game", game_file, "--dynamics", dynamics, "--horizon", "50",
            "--eta", "1e308", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: eta 1e+308 overflows the softmax exponent")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("rule", ["theorem-internal", "theorem-swap", "adaptive"])
@pytest.mark.parametrize("dynamics", ["omwu", "sl-omwu", "bm-omwu", "arbo"])
def test_run_rejects_a_schedule_that_resolves_to_an_overflowing_eta(
    game_file, tmp_path, capsys, dynamics, rule
):
    # A subnormal schedule constant passes the config check, and 1 / (c m log^4 T) is inf.
    out = tmp_path / "run"
    argv = ["run", "--game", game_file, "--dynamics", dynamics, "--horizon", "50",
            "--eta-rule", rule, "--schedule-constant", "1e-320", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: eta inf overflows the softmax exponent")
    assert f"(eta rule {rule!r})" in err
    assert "RuntimeWarning" not in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("rule", ["theorem-internal", "theorem-swap", "adaptive"])
@pytest.mark.parametrize("dynamics", ["omwu", "sl-omwu", "bm-omwu", "arbo"])
def test_run_rejects_a_schedule_that_resolves_to_a_zero_eta(
    game_file, tmp_path, capsys, monkeypatch, dynamics, rule
):
    # A huge schedule constant passes the config check, and 1 / (c m log^4 T) underflows to 0.
    def refuse(*args, **kwargs):
        raise AssertionError("play started")

    monkeypatch.setattr(runner, "_build_dynamics", refuse)
    out = tmp_path / "run"
    argv = ["run", "--game", game_file, "--dynamics", dynamics, "--horizon", "50",
            "--eta-rule", rule, "--schedule-constant", "1e308", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: eta underflows to 0.0")
    assert f"(eta rule {rule!r})" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_main_reuses_one_parser_and_carries_nothing_between_calls(tmp_path, monkeypatch, capsys):
    # Each call must parse as a fresh parser would: no value or default of the call before.
    seen = []
    for name in ("run", "gen"):
        command = cli._COMMANDS[name]
        monkeypatch.setitem(
            cli._COMMANDS, name, lambda args, command=command: seen.append(vars(args)) or command(args)
        )
    game = tmp_path / "game.json"
    first, second = tmp_path / "first", tmp_path / "second"
    calls = [
        (["run", "--players", "2", "--actions", "3,3", "--game-seed", "4", "--dynamics", "bm-omwu",
          "--horizon", "8", "--eta", "0.1", "--save-trace", "--out", str(first)], 0),
        (["run", "--horizon", "not-a-number"], 1),
        (["gen", "--players", "2", "--actions", "3,4", "--out", str(game)], 0),
        (["run", "--game", str(game), "--horizon", "6", "--eta-rule", "adaptive",
          "--format", "json", "--out", str(second)], 0),
    ]
    for argv, code in calls:
        assert main(argv) == code
    assert cli._build_parser() is cli._build_parser()
    fresh = [vars(cli._build_parser.__wrapped__().parse_args(a)) for a, code in calls if code == 0]
    assert seen == fresh
    assert sorted(p.name for p in first.iterdir()) == ["run.csv", "summary.json", "trace.npz"]
    assert sorted(p.name for p in second.iterdir()) == ["run.json", "summary.json"]
    config = json.loads((second / "summary.json").read_text())["config"]
    assert (config["dynamics"], config["eta"], config["game_seed"]) == ("sl-omwu", None, 0)
    assert config["action_counts"] is None and config["players"] is None


def test_run_usage_error():
    assert main(["run", "--horizon", "not-a-number"]) == 1


def test_run_missing_eta(game_file, tmp_path):
    assert main(["run", "--game", game_file, "--horizon", "4", "--out", str(tmp_path / "x")]) == 2


def test_run_missing_game(tmp_path):
    assert (
        main(["run", "--game", str(tmp_path / "nope.json"), "--horizon", "4",
              "--eta", "0.1", "--out", str(tmp_path / "x")])
        == 2
    )


@pytest.mark.parametrize("command", ["run", "diagnose", "equivalence"])
def test_game_directory_is_validation_error(tmp_path, capsys, command):
    argv = [command, "--game", str(tmp_path), "--horizon", "4", "--eta", "0.1"]
    if command == "run":
        argv += ["--out", str(tmp_path / "x")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: cannot read game file {tmp_path}: ")


def test_stationary_matrix_directory_is_validation_error(tmp_path, capsys):
    assert main(["stationary", "--matrix", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: cannot read matrix file {tmp_path}: ")


@pytest.mark.parametrize("command, what", [("equivalence", "game file"),
                                           ("stationary", "matrix file")])
def test_missing_input_file_is_named(tmp_path, capsys, command, what):
    path = tmp_path / "missing.json"
    argv = {"equivalence": ["equivalence", "--game", str(path), "--eta", "0.05", "--horizon", "4"],
            "stationary": ["stationary", "--matrix", str(path)]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"validation error: cannot read {what} {path}: ")


def test_stationary_non_utf8_matrix_is_validation_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_bytes(b"[[0.5, 0.5], [\xe9, 0.5]]")
    assert main(["stationary", "--matrix", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: matrix file {path} is not UTF-8 JSON: ")


def test_stationary_matrix_that_is_not_json_is_named(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_bytes(b"[[0.5, 0.5], [0.5")
    assert main(["stationary", "--matrix", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: matrix file {path} is not UTF-8 JSON: ")


def test_run_truncated_game_is_validation_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_bytes(save_game(random_game(2, (2, 2), seed=1))[:-7])
    code = main(["run", "--game", str(path), "--horizon", "4",
                 "--eta", "0.1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "byte offset" in capsys.readouterr().err


def test_run_game_with_a_float_count_writes_nothing(tmp_path, capsys):
    # Read as int(), 2.9 players and 3.7 actions would play a 2-player 3x3 game.
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"players": 2.9, "actions": [3.7, 3],
                                "losses": [[0.5] * 9, [0.5] * 9]}))
    out = tmp_path / "out"
    code = main(["run", "--game", str(path), "--horizon", "4", "--eta", "0.1", "--out", str(out)])
    assert code == 2
    assert "'players' is 2.9, not a JSON integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, actions",
    [("run", "3,x"), ("gen", "3,x"), ("run", "3,,3"), ("gen", "3,,3"), ("run", ",3,3,"),
     ("gen", ",3,3,")],
    ids=["run", "gen", "run-3,,3", "gen-3,,3", "run-,3,3,", "gen-,3,3,"],
)
def test_bad_actions_is_usage_error(tmp_path, capsys, command, actions):
    # An empty entry is no action count: it was dropped, so 3,,3 played as 3,3.
    argv = {"run": ["run", "--horizon", "4", "--eta", "0.1", "--out", str(tmp_path / "x")],
            "gen": ["gen", "--out", str(tmp_path / "g.json")]}[command]
    assert main([*argv, "--players", "2", "--actions", actions]) == 1
    assert f"expected action counts like 3,3, got {actions!r}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["run", "diagnose"])
@pytest.mark.parametrize("options, message", [
    (["--players", "3"], "game_file excludes players: "),
    (["--actions", "4,4,4"], "game_file excludes action_counts: "),
    (["--players", "3", "--actions", "4,4,4"], "game_file excludes players and action_counts: "),
    (["--game-seed", "7"], "--game excludes --game-seed: "),
    (["--game-seed", "0"], "--game excludes --game-seed: "),
], ids=["players", "actions", "both", "seed", "seed-0"])
def test_a_game_file_excludes_the_generator_options(game_file, tmp_path, capsys, command,
                                                     options, message):
    # The 2-player 3x3 file was played while the summary echoed the options' game.
    out = tmp_path / "out"
    argv = [command, "--game", game_file, *options, "--horizon", "8", "--eta", "0.05",
            "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"validation error: {message}")
    assert not out.exists()


def test_diagnose_command(game_file, tmp_path, capsys):
    table = tmp_path / "table.csv"
    code = main(
        ["diagnose", "--game", game_file, "--dynamics", "sl-omwu", "--horizon", "32",
         "--eta", "0.01", "--smoothness-order", "2", "--table", str(table)]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert "stability" in doc["diagnostics"]
    assert "rvu" in doc["diagnostics"]
    lines = table.read_text().splitlines()
    assert lines[0] == "player,order,t,observed,bound"
    assert len(lines) > 1


def test_diagnose_table_reads_the_runs_reports(monkeypatch, tmp_path, capsys):
    built, build = [], runner._smoothness_steps  # the report's block step, which the run feeds
    for module in (runner, cli, diagnostics):  # wherever the step is bound, its home included
        if getattr(module, "_smoothness_steps", None) is build:
            monkeypatch.setattr(module, "_smoothness_steps", lambda *a: built.append(a[1]) or build(*a))
    table = tmp_path / "table.csv"
    argv = ["diagnose", "--players", "3", "--actions", "3,4,3", "--dynamics", "arbo",
            "--horizon", "40", "--eta", "0.05", "--table", str(table)]
    assert main(argv) == 0
    assert built == [0, 1, 2]  # one report per player, for the summary and the table
    doc = json.loads(capsys.readouterr().out)["diagnostics"]["smoothness"]
    rows = [line.split(",") for line in table.read_text().splitlines()[1:]]
    for i, rep in enumerate(doc):
        for h, top in enumerate(rep["max_observed_per_order"]):
            observed = [float(r[3]) for r in rows if r[:2] == [str(i), str(h)]]
            assert len(observed) == 40 - h and max(observed) == top


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("dynamics", ["bm-omwu", "arbo", "omwu"])
def test_run_emits_every_requested_report_for_every_dynamics(game_file, tmp_path, capsys, dynamics):
    out = tmp_path / "run"
    argv = ["run", "--game", game_file, "--dynamics", dynamics, "--horizon", "32", "--eta", "1e-6",
            "--rvu-constant", "64", "--variance-budget", "165262", "--smoothness-order", "3",
            "--out", str(out)]
    assert main(argv) == 0
    diagnostics = json.loads((out / "summary.json").read_text())["diagnostics"]
    assert {"rvu", "variance_check", "smoothness"} <= set(diagnostics)
    assert all(len(diagnostics[k]) == 2 for k in ("rvu", "variance_check", "smoothness"))
    # eta is far below the strict threshold, but the certificate is proved for SL only.
    assert [r["enforced"] for r in diagnostics["smoothness"]] == [False, False]


@pytest.mark.parametrize("dynamics", ["omwu", "bm-omwu", "arbo"])
def test_diagnose_table_for_every_dynamics(game_file, tmp_path, capsys, dynamics):
    table = tmp_path / "table.csv"
    argv = ["diagnose", "--game", game_file, "--dynamics", dynamics, "--horizon", "16",
            "--eta", "0.05", "--table", str(table)]
    assert main(argv) == 0
    assert "smoothness" in json.loads(capsys.readouterr().out)["diagnostics"]
    # Two players, orders 0..3 over 16 rounds: 16 + 15 + 14 + 13 rows each.
    assert len(table.read_text().splitlines()) == 1 + 2 * 58


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_diagnose_table_that_cannot_be_written_leaves_nothing(game_file, tmp_path, capsys, to_file):
    argv = ["diagnose", "--game", game_file, "--horizon", "16", "--eta", "0.05",
            "--table", str(tmp_path / "missing" / "t.csv")]
    if to_file:
        argv += ["--out", str(tmp_path / "rep.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("validation error:")
    assert [p.name for p in tmp_path.iterdir()] == ["game.json"]


def test_diagnose_report_that_cannot_be_written_keeps_a_table_that_was_there(game_file, tmp_path,
                                                                            capsys):
    # A file that was there before the call is overwritten, never removed.
    table = tmp_path / "t.csv"
    table.write_bytes(b"an earlier table\n")
    argv = ["diagnose", "--game", game_file, "--horizon", "16", "--eta", "0.05",
            "--table", str(table), "--out", str(tmp_path / "missing" / "rep.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: cannot write {tmp_path / 'missing' / 'rep.json'}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["game.json", "t.csv"]
    assert table.read_text().startswith("player,order,t,observed,bound\n")


def test_diagnose_report_that_cannot_be_written_removes_the_table(game_file, tmp_path, capsys):
    argv = ["diagnose", "--game", game_file, "--horizon", "16", "--eta", "0.05",
            "--table", str(tmp_path / "t.csv"), "--out", str(tmp_path / "missing" / "rep.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("validation error:")
    assert [p.name for p in tmp_path.iterdir()] == ["game.json"]


def test_run_that_cannot_write_its_summary_leaves_no_file_it_made(game_file, tmp_path, capsys):
    out = tmp_path / "ro"
    (out / "summary.json").mkdir(parents=True)
    argv = ["run", "--game", game_file, "--horizon", "10", "--eta", "0.05", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("validation error:")
    assert [p.name for p in out.iterdir()] == ["summary.json"]
    assert not any((out / "summary.json").iterdir())


class FullDisk(io.BufferedWriter):
    """A file on a disk that fills up: the first write once the file holds ``room`` bytes fails."""

    room = held = 0

    def write(self, data):
        if self.tell() >= self.room:
            self.held = self.tell()
            raise OSError(28, "No space left on device")
        return super().write(data)


def full_disk(monkeypatch, name, room):
    """Opens every file named ``name`` on a :class:`FullDisk` with ``room`` bytes; returns the list
    of the files so opened."""
    opened, path_open = [], Path.open

    def open_on_full_disk(path, mode="r", *args, **kwargs):
        if path.name != name:
            return path_open(path, mode, *args, **kwargs)
        opened.append(FullDisk(io.FileIO(path, "w")))
        opened[-1].room = room
        return opened[-1]

    monkeypatch.setattr(Path, "open", open_on_full_disk)
    return opened


# Rows and archive are written a block of 256 rounds at a time: at 300 rounds the disk fills
# after the first block of rows (each block of run.csv is more than 4 KB), or of the first
# player's strategies in trace.npz (256 rows of 3 floats after about 1 KB of header members).
@pytest.mark.parametrize("fail_on, room, fmt", [
    ("run.csv", 4096, "csv"), ("run.json", 4096, "json"), ("summary.json", 0, "csv"),
    ("trace.npz", 4096, "csv")], ids=["run.csv", "run.json", "summary.json", "trace.npz"])
def test_run_write_that_fails_midway_removes_what_it_made(game_file, tmp_path, monkeypatch,
                                                           fail_on, room, fmt):
    """A write that fails part-way through its file (a full disk), after the file was created and
    a first block written, leaves no file, and no directory that the call made, behind."""
    opened = full_disk(monkeypatch, fail_on, room)
    argv = ["run", "--game", game_file, "--horizon", "300", "--eta", "0.05", "--save-trace",
            "--format", fmt, "--out", str(tmp_path / "a" / "b")]
    assert main(argv) == 2
    (full,) = opened
    assert full.closed and full.held >= (0 if fail_on == "summary.json" else 256 * 3 * 8)
    assert [p.name for p in tmp_path.iterdir()] == ["game.json"]


# The table is written by (player, order): its disk fills after its header and first chunk. The
# report is written at once: its disk is full from the start, after the file was created.
@pytest.mark.parametrize("fail_on, room", [("t.csv", 100), ("rep.json", 0)],
                         ids=["t.csv", "rep.json"])
def test_diagnose_write_that_fails_midway_leaves_nothing(game_file, tmp_path, monkeypatch,
                                                         fail_on, room):
    """A write that creates its file and then fails (a full disk) leaves no file behind."""
    opened = full_disk(monkeypatch, fail_on, room)
    argv = ["diagnose", "--game", game_file, "--horizon", "16", "--eta", "0.05",
            "--table", str(tmp_path / "t.csv"), "--out", str(tmp_path / "rep.json")]
    assert main(argv) == 2
    (full,) = opened
    assert full.closed and full.held >= room
    assert [p.name for p in tmp_path.iterdir()] == ["game.json"]


@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("table", ["x.json", "./x.json", "sub/../x.json"])
def test_diagnose_refuses_two_outputs_at_one_path(tmp_path, monkeypatch, capsys, table, existed):
    """A table and a report at one path exit 2 naming it and write nothing: a file that was
    there is left as it was."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    if existed:
        (tmp_path / "x.json").write_bytes(b"{}")
    argv = ["diagnose", "--players", "2", "--actions", "3,3", "--horizon", "40", "--eta", "0.05",
            "--table", table, "--out", str(tmp_path / "x.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    twice = (tmp_path / "x.json").resolve()
    assert captured.err.startswith(f"validation error: two outputs at one path: {twice}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub", *["x.json"] * existed]
    assert not existed or (tmp_path / "x.json").read_bytes() == b"{}"


@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
def test_gen_on_a_full_disk_leaves_no_file_it_made(tmp_path, monkeypatch, capsys, existed):
    out = tmp_path / "g.json"
    if existed:
        out.write_bytes(b"{}")
    opened = full_disk(monkeypatch, "g.json", 0)
    assert main(["gen", "--players", "2", "--actions", "3,3", "--out", str(out)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert opened[0].closed and [p.name for p in tmp_path.iterdir()] == ["g.json"] * existed


def per_row_table(reports) -> bytes:
    """The smoothness CSV as one text built a row at a time: the first renderer's bytes."""
    lines = ["player,order,t,observed,bound"]
    for i, rep in enumerate(reports):
        for h, observed in enumerate(rep.observed):
            for t, value in enumerate(observed):
                lines.append(f"{i},{h},{t + 1},{float(value)!r},{float(rep.bounds[h])!r}")
    return ("\n".join(lines) + "\n").encode("ascii")


# 600 rounds: each (player, order) crosses the renderer's 256-round block boundaries.
@pytest.mark.parametrize("order", [0, 3, 5])
@pytest.mark.parametrize("m", [2, 3])
def test_diagnose_table_matches_the_per_row_loop(monkeypatch, tmp_path, capsys, m, order):
    results = []
    monkeypatch.setattr(cli, "run_dynamics", lambda c: results.append(runner.run_dynamics(c))
                        or results[-1])
    table = tmp_path / "t.csv"
    argv = ["diagnose", "--players", str(m), "--actions", ",".join(["3"] * m), "--horizon", "600",
            "--eta", "0.05", "--smoothness-order", str(order), "--table", str(table)]
    assert main(argv) == 0
    (result,) = results
    assert [len(rep.observed) for rep in result.smoothness] == [order + 1] * m
    assert table.read_bytes() == per_row_table(result.smoothness)


def test_smoothness_table_of_synthetic_reports():
    # Runs of equal values, signed zeros, NaN and infinities, across and on block boundaries.
    values = np.take([0.0, -0.0, 0.0, math.nan, math.nan, math.inf, 1e-5, 1e-5, 0.1 + 0.2],
                     np.arange(600) // 2 % 9)
    reports = [SimpleNamespace(observed=[values, values[:256], values[:0]],
                               bounds=np.array([1.0, math.inf, 5e-324])),
               SimpleNamespace(observed=[values[:257]], bounds=np.array([math.nan]))]
    assert b"".join(runner._smoothness_chunks(reports)) == per_row_table(reports)


def test_diagnose_table_holds_a_block_above_the_run(monkeypatch, tmp_path, capsys):
    # The table is rendered by block of rounds: built as one text it peaks at 24.5 MB here.
    config = runner.RunConfig("sl-omwu", 2**14, eta=0.05, players=2, action_counts=(3, 3),
                              smoothness_order=3)
    result = runner.run_dynamics(config)
    monkeypatch.setattr(cli, "run_dynamics", lambda c: result)
    argv = ["diagnose", "--players", "2", "--actions", "3,3", "--horizon", str(2**14),
            "--eta", "0.05", "--table", str(tmp_path / "t.csv")]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 2e6
    assert (tmp_path / "t.csv").stat().st_size > 4 * 2**14 * 40
