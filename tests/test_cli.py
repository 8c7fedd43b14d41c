import json

import numpy as np
import pytest

from ce_dynamics import runner
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


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen", "--players", "2", "--actions", "2,2", "--seed", "3", "--out", str(a)])
    main(["gen", "--players", "2", "--actions", "2,2", "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


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
    assert doc["max_strategy_deviation"] <= 1e-8


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
    assert capsys.readouterr().err.startswith("validation error:")


def test_stationary_matrix_directory_is_validation_error(tmp_path, capsys):
    assert main(["stationary", "--matrix", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("validation error:")


def test_stationary_non_utf8_matrix_is_validation_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_bytes(b"[[0.5, 0.5], [\xe9, 0.5]]")
    assert main(["stationary", "--matrix", str(path)]) == 2
    assert capsys.readouterr().err.startswith("validation error:")


def test_run_truncated_game_is_validation_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_bytes(save_game(random_game(2, (2, 2), seed=1))[:-7])
    code = main(["run", "--game", str(path), "--horizon", "4",
                 "--eta", "0.1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "byte offset" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["run", "--players", "2", "--actions", "3,x", "--horizon", "4", "--eta", "0.1", "--out", "x"],
     ["gen", "--players", "2", "--actions", "3,x"]],
    ids=["run", "gen"],
)
def test_bad_actions_is_usage_error(capsys, argv):
    assert main(argv) == 1
    assert "expected action counts like 3,3, got '3,x'" in capsys.readouterr().err


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


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1
