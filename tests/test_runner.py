import itertools
import json
import math

import numpy as np
import pytest

from ce_dynamics import games, runner
from ce_dynamics.cli import main
from ce_dynamics.errors import ValidationError
from ce_dynamics.games import Game, random_game
from ce_dynamics.internal_dynamics import SlOmwu, verify_equivalence
from ce_dynamics.omwu import Composite, Omwu
from ce_dynamics.runner import (
    CSV_COLUMNS,
    AdaptiveEtaController,
    RunConfig,
    adversarial_eta,
    emit_outputs,
    render_csv,
    render_summary,
    resolve_eta,
    run_dynamics,
)


def small_config(**overrides):
    base = dict(
        dynamics="sl-omwu",
        horizon=8,
        eta_rule="fixed",
        eta=0.05,
        players=2,
        action_counts=(3, 3),
        game_seed=1,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestConfigValidation:
    def test_unknown_dynamics(self):
        with pytest.raises(ValidationError):
            small_config(dynamics="follow-the-leader").validate()

    def test_fixed_rule_needs_eta(self):
        with pytest.raises(ValidationError):
            small_config(eta=None).validate()

    def test_schedule_rules_refuse_explicit_eta(self):
        with pytest.raises(ValidationError):
            small_config(eta_rule="theorem-internal").validate()

    def test_arbo_size_guard(self):
        cfg = small_config(dynamics="arbo", action_counts=(6, 6), eta=0.05)
        with pytest.raises(ValidationError):
            run_dynamics(cfg)

    def test_bad_format_and_log_base(self):
        with pytest.raises(ValidationError):
            small_config(out_format="yaml").validate()
        with pytest.raises(ValidationError):
            small_config(log_base="10").validate()

    def test_needs_game_source(self):
        with pytest.raises(ValidationError):
            RunConfig(dynamics="sl-omwu", horizon=4, eta=0.1).validate()

    def test_horizon_guard(self):
        with pytest.raises(ValidationError):
            small_config(horizon=0).validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(eta=math.inf),
            dict(eta=math.nan),
            dict(eta_rule="theorem-internal", eta=None, schedule_constant=0.0),
            dict(eta_rule="theorem-internal", eta=None, schedule_constant=-1.0),
            dict(eta_rule="theorem-swap", eta=None, schedule_constant=math.inf),
            dict(eta_rule="adaptive", eta=None, schedule_constant=math.nan),
            dict(eta_rule="adaptive", eta=None, adaptive_budget=math.nan),
            dict(eta_rule="adaptive", eta=None, adaptive_budget=math.inf),
            dict(eta_rule="adaptive", eta=None, adaptive_budget=-1.0),
            dict(smoothness_order=3, smoothness_alpha=math.nan),
            dict(rvu_constant=math.nan),
            dict(rvu_constant=-math.inf),
            dict(variance_budget=math.nan),
            dict(smoothness_order=-1),
            dict(dynamics="omwu", smoothness_order=-1),
            dict(smoothness_order=3, smoothness_alpha=0.9),
            dict(dynamics="bm-omwu", smoothness_order=3, smoothness_alpha=0.9),
            dict(smoothness_order=3, smoothness_alpha=0.0),
        ],
        ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_rejects_non_finite_or_out_of_range_numbers(self, overrides):
        with pytest.raises(ValidationError):
            small_config(**overrides).validate()

    def test_zero_adaptive_budget_accepted(self):
        small_config(eta_rule="adaptive", eta=None, adaptive_budget=0.0).validate()

    def test_echo_is_the_dataclass_without_output_options(self):
        cfg = small_config(action_counts=[3, 3], save_trace=True, rvu_constant=64.0)
        doc = cfg.echo()
        assert "out_format" not in doc and "save_trace" not in doc
        assert doc["action_counts"] == [3, 3] and doc["rvu_constant"] == 64.0
        expected = {
            "dynamics", "horizon", "eta_rule", "eta", "schedule_constant", "log_base",
            "game_file", "players", "action_counts", "game_seed", "smoothness_order",
            "smoothness_alpha", "rvu_constant", "variance_budget", "adaptive_budget",
        }
        assert set(doc) == expected
        assert json.loads(json.dumps(small_config().echo()))["action_counts"] == [3, 3]


class TestSchedules:
    def test_theorem_internal_formula(self):
        cfg = small_config(eta_rule="theorem-internal", eta=None, horizon=1024)
        want = 1.0 / (2 * math.log(1024) ** 4)
        assert resolve_eta(cfg, 2, 10) == pytest.approx(want)

    def test_theorem_swap_formula(self):
        cfg = small_config(eta_rule="theorem-swap", eta=None, horizon=1024)
        want = 1.0 / (2 * 5**3 * math.log(1024) ** 4)
        assert resolve_eta(cfg, 2, 5) == pytest.approx(want)

    def test_log_base_two_variant(self):
        cfg = small_config(eta_rule="theorem-internal", eta=None, horizon=1024, log_base="2")
        assert resolve_eta(cfg, 2, 10) == pytest.approx(1.0 / (2 * 10.0**4))

    def test_schedule_positive_at_tiny_horizon(self):
        cfg = small_config(eta_rule="theorem-internal", eta=None, horizon=1)
        assert resolve_eta(cfg, 2, 3) > 0.0

    @pytest.mark.parametrize("dynamics", ["omwu", "mwu", "sl-omwu", "sl-mwu", "arbo", "bm-omwu", "bm-mwu"])
    def test_adaptive_starts_at_theorem_rule(self, dynamics):
        rule = "theorem-swap" if dynamics.startswith("bm") else "theorem-internal"
        for log_base in ("e", "2"):
            shared = dict(dynamics=dynamics, eta=None, horizon=1000, log_base=log_base,
                          schedule_constant=3.0)
            adaptive = small_config(eta_rule="adaptive", **shared)
            theorem = small_config(eta_rule=rule, **shared)
            for n in (2, 3, 7):
                assert resolve_eta(adaptive, 3, n).hex() == resolve_eta(theorem, 3, n).hex()

    def test_constant_scales(self):
        cfg = small_config(eta_rule="theorem-internal", eta=None, horizon=256, schedule_constant=4.0)
        base = small_config(eta_rule="theorem-internal", eta=None, horizon=256)
        assert resolve_eta(cfg, 2, 3) == pytest.approx(resolve_eta(base, 2, 3) / 4.0)

    def test_theorem_swap_is_per_player(self):
        cfg = small_config(
            dynamics="bm-omwu", eta_rule="theorem-swap", eta=None,
            horizon=64, action_counts=(3, 5),
        )
        result = run_dynamics(cfg)
        e3, e5 = result.trace.etas
        assert e3 == pytest.approx(e5 * (5**3) / (3**3))


class TestRunDynamics:
    @pytest.mark.parametrize("dynamics", ["omwu", "mwu", "sl-omwu", "bm-omwu", "arbo"])
    def test_first_round_uniform(self, dynamics):
        cfg = small_config(dynamics=dynamics, horizon=1)
        result = run_dynamics(cfg)
        for pt, n in zip(result.trace.players, result.trace.action_counts):
            np.testing.assert_allclose(pt.strategies[0], np.full(n, 1.0 / n), atol=1e-12)
        finals = result.summary["final"]
        assert len(result.rows) == 2  # one row per player at T=1
        for i in range(2):
            assert finals["external_regret"][i] >= -1e-12

    def test_losses_recorded_from_profile(self):
        cfg = small_config(horizon=5)
        result = run_dynamics(cfg)
        from ce_dynamics.games import expected_loss

        game = result.game
        t = 3
        profile = [result.trace.players[i].strategies[t] for i in range(2)]
        for i in range(2):
            np.testing.assert_allclose(
                result.trace.players[i].losses[t], expected_loss(game, profile, i), atol=1e-15
            )

    def test_zero_sum_growth_is_sublinear(self):
        base = random_game(2, (2, 2), seed=7)
        game = Game((2, 2), (base.losses[0], 1.0 - base.losses[0]))
        cfg = small_config(action_counts=(2, 2), horizon=4096, game_seed=7)
        result = run_dynamics(cfg, game=game)
        for player in range(2):
            full = [r[4] for r in result.rows if r[0] == 4096 and r[1] == player][0]
            half = [r[4] for r in result.rows if r[0] == 2048 and r[1] == player][0]
            assert half > 0.0
            assert full / half < 1.8

    def test_summary_identity_residual(self):
        result = run_dynamics(small_config(horizon=64))
        assert result.summary["final"]["ce_gap_identity_residual"] <= 1e-10

    @pytest.mark.parametrize("game_seed", [3, 5])
    def test_stiff_eta_finishes(self, game_seed):
        # At eta = 5 these games push pair masses down to the 1e-300 weight
        # floor, so each round's chain is nearly reducible; the stationary
        # solve must still finish every round with the identity intact.
        cfg = small_config(eta=5.0, action_counts=(5, 5), horizon=1000, game_seed=game_seed)
        result = run_dynamics(cfg)
        assert result.summary["final"]["ce_gap_identity_residual"] <= 1e-10

    def test_bm_decomposition_residual_tracked(self):
        result = run_dynamics(small_config(dynamics="bm-omwu", horizon=32))
        assert result.summary["final"]["bm_decomposition_max_residual"] <= 1e-12

    def test_running_columns_match_final_metrics(self):
        assert_last_row_is_final(run_dynamics(small_config(horizon=40)))

    def test_wide_running_columns_match_final_metrics(self):
        # At 10x10 and T = 1024 the sequential running sums and a closed-form
        # recomputation differ in the last bits, so only one implementation
        # can pass this exact check.
        assert_last_row_is_final(run_dynamics(small_config(horizon=1024, action_counts=(10, 10))))


def assert_last_row_is_final(result):
    """The last row per player is the summary's final value and the metric, bit for bit."""
    from ce_dynamics.metrics import (
        clamped_internal_regret,
        external_regret,
        internal_regret,
        swap_regret,
    )

    T, final, trace = result.trace.horizon, result.summary["final"], result.trace
    for i in range(trace.num_players):
        last = [r for r in result.rows if r[0] == T and r[1] == i][0]
        assert last[2] == final["external_regret"][i] == external_regret(trace, i)
        assert last[3] == final["internal_regret_raw"][i] == internal_regret(trace, i)
        assert last[4] == final["internal_regret_clamped"][i] == clamped_internal_regret(trace, i)
        assert last[5] == final["swap_regret"][i] == swap_regret(trace, i)


def reference_rows(result):
    """Per-round CSV rows by round-by-round accounting over the trace.

    A slow, independent rebuild of the table: the running pair sums
    P[j, k] = sum_t x_t[j] (loss_t[j] - loss_t[k]) updated one round at a time
    with ``+=``, regrets read off them, and the consecutive-ratio chain
    restarted after an adaptive switch.
    """
    trace, final = result.trace, result.summary["final"]
    switches = final["adaptive_switch_round"]
    counts = trace.action_counts
    pair_sums = [np.zeros((n, n)) for n in counts]
    offdiag = [~np.eye(n, dtype=bool) for n in counts]
    max_ratio = [1.0] * len(counts)
    rows = []
    for t in range(trace.horizon):
        for i, pt in enumerate(trace.players):
            x, loss = pt.strategies[t], pt.losses[t]
            pair_sums[i] += x[:, None] * (loss[:, None] - loss[None, :])
            inner = pt.stability_rows()
            if t > 0 and t != switches[i]:
                ratio = inner[t] / inner[t - 1]
                max_ratio[i] = max(max_ratio[i], float(ratio.max()), float((1.0 / ratio).max()))
        raw = [float(P[o].max()) for P, o in zip(pair_sums, offdiag)]
        gap = max(raw) / (t + 1)
        for i, P in enumerate(pair_sums):
            switched = switches[i] is not None and t + 1 > switches[i]
            eta = final["eta_final"][i] if switched else final["eta_initial"][i]
            rows.append(
                (
                    t + 1,
                    i,
                    float(P.sum(axis=0).max()),
                    raw[i],
                    max(0.0, raw[i]),
                    float(P.max(axis=1).sum()),
                    gap,
                    eta,
                    max_ratio[i],
                )
            )
    return rows


@pytest.mark.parametrize(
    "overrides",
    [
        dict(dynamics="omwu"),
        dict(dynamics="sl-omwu"),
        dict(dynamics="bm-omwu"),
        dict(dynamics="arbo"),
        dict(dynamics="sl-omwu", players=3, action_counts=(3, 3, 3)),
        dict(eta_rule="adaptive", eta=None, adaptive_budget=0.0),
        dict(horizon=1),
    ],
    ids=["omwu", "sl-omwu", "bm-omwu", "arbo", "sl-omwu-3p", "adaptive-switch", "T1"],
)
def test_table_matches_round_by_round_accounting(overrides):
    # 300 rounds cross the 256-round block boundary of the prefix sums.
    result = run_dynamics(small_config(**{"horizon": 300, **overrides}))
    if overrides.get("adaptive_budget") == 0.0:
        assert all(s is not None for s in result.summary["final"]["adaptive_switch_round"])
    assert render_csv(result.rows) == render_csv(reference_rows(result))


class TestAdaptiveMode:
    def test_benign_self_play_never_switches(self):
        cfg = small_config(eta_rule="adaptive", eta=None, horizon=128)
        result = run_dynamics(cfg)
        assert result.summary["final"]["adaptive_switch_round"] == [None, None]
        etas = result.summary["final"]["eta_final"]
        assert etas == result.summary["final"]["eta_initial"]

    def test_adversarial_stream_triggers_switch(self):
        # Drive a lone learner with a sawtooth stream; with a zero budget the
        # variance inequality must break and the controller must switch once.
        n, T = 3, 64
        sl = SlOmwu(n, eta=0.5)
        ctl = AdaptiveEtaController(horizon=T, dim=n * (n - 1), budget_constant=0.0)
        switched_at = None
        for t in range(T):
            sl.next_strategy()
            ell = np.zeros(n)
            ell[t % 2] = 1.0
            sl.observe(ell)
            if ctl.update(t + 1, sl.inner_dist, sl.inner_loss):
                switched_at = t + 1
                sl.reset(ctl.eta_adversarial)
                break
        assert switched_at is not None
        assert ctl.switch_round == switched_at
        assert sl.eta == math.sqrt(math.log(n * (n - 1)) / T)

    def test_forced_switch_through_runner(self):
        cfg = small_config(eta_rule="adaptive", eta=None, horizon=16, adaptive_budget=0.0)
        result = run_dynamics(cfg)
        switches = result.summary["final"]["adaptive_switch_round"]
        assert all(s is not None for s in switches)
        want = adversarial_eta(3 * 2, 16)
        assert result.summary["final"]["eta_final"] == [want, want]
        last_rows = [r for r in result.rows if r[0] == 16]
        assert all(r[7] == want for r in last_rows)

    def test_adversarial_eta_formula(self):
        assert adversarial_eta(6, 1024) == pytest.approx(math.sqrt(math.log(6) / 1024))

    @pytest.mark.parametrize("dynamics,counts", [("bm-omwu", (3, 3)), ("arbo", (3, 3)), ("omwu", (4, 4))])
    def test_forced_switch_other_dynamics(self, dynamics, counts):
        # A zero budget trips the controller on every inner-stream shape.
        cfg = small_config(
            dynamics=dynamics, eta_rule="adaptive", eta=None,
            horizon=8, action_counts=counts, adaptive_budget=0.0,
        )
        result = run_dynamics(cfg)
        assert all(s is not None for s in result.summary["final"]["adaptive_switch_round"])


class TestUncheckedFeedback:
    """The round loop and the equivalence replay skip the profile and feedback checks."""

    @pytest.fixture
    def checks_raise(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("checked profile or feedback path called")

        monkeypatch.setattr(games, "check_profile", refuse)
        monkeypatch.setattr(runner, "expected_loss", refuse)
        monkeypatch.setattr(Composite, "_checked", refuse)
        monkeypatch.setattr(Omwu, "observe", refuse)

    @pytest.mark.parametrize("dynamics", ["omwu", "sl-omwu", "bm-omwu", "arbo"])
    @pytest.mark.parametrize(
        "rule",
        [dict(eta_rule="fixed", eta=0.05), dict(eta_rule="adaptive", eta=None, adaptive_budget=0.0)],
    )
    def test_run_dynamics(self, checks_raise, dynamics, rule):
        result = run_dynamics(small_config(dynamics=dynamics, horizon=16, **rule))
        assert len(result.rows) == 32

    @pytest.mark.parametrize("dynamics", ["sl-omwu", "bm-omwu"])
    def test_run_dynamics_three_players(self, checks_raise, dynamics):
        cfg = small_config(dynamics=dynamics, horizon=16, players=3, action_counts=(3, 3, 3))
        assert len(run_dynamics(cfg).rows) == 48

    def test_verify_equivalence(self, checks_raise):
        assert verify_equivalence(random_game(2, (3, 3), seed=0), eta=0.05, horizon=16).passes(1e-8)


class TestStrategyCheck:
    """Recorded strategies are checked once, after the round loop."""

    @pytest.fixture
    def off_simplex_round_5(self, monkeypatch):
        """Player 1's learner emits one off-simplex strategy, at round 5."""
        build = runner._build_dynamics
        built = []

        def build_spy(name, n, eta):
            dyn = build(name, n, eta)
            built.append(dyn)
            if len(built) == 2:
                emit = dyn.next_strategy
                rounds = itertools.count(1)
                dyn.next_strategy = lambda: emit() * (1.5 if next(rounds) == 5 else 1.0)
            return dyn

        monkeypatch.setattr(runner, "_build_dynamics", build_spy)

    @pytest.mark.parametrize("dynamics", ["omwu", "sl-omwu", "bm-omwu", "arbo"])
    def test_run_dynamics_names_player_and_round(self, off_simplex_round_5, dynamics):
        with pytest.raises(ValidationError, match="player 1 at round 5 is not a probability"):
            run_dynamics(small_config(dynamics=dynamics, horizon=16))

    def test_cli_exits_2_without_outputs(self, off_simplex_round_5, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["run", "--players", "2", "--actions", "3,3", "--horizon", "16",
                "--eta", "0.05", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("validation error: strategy of player 1")
        assert not (out / "summary.json").exists()


class TestOutputs:
    def test_csv_header_and_rows(self, tmp_path):
        cfg = small_config(horizon=6)
        result = run_dynamics(cfg)
        paths = emit_outputs(result, cfg, tmp_path / "out")
        lines = open(paths["rows"], "rb").read().decode().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 6 * 2  # header + one row per round per player

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_config(horizon=32)
        a = emit_outputs(run_dynamics(cfg), cfg, tmp_path / "a")
        b = emit_outputs(run_dynamics(cfg), cfg, tmp_path / "b")
        assert open(a["rows"], "rb").read() == open(b["rows"], "rb").read()
        assert open(a["summary"], "rb").read() == open(b["summary"], "rb").read()

    def test_summary_round_trips(self, tmp_path):
        cfg = small_config(horizon=4)
        result = run_dynamics(cfg)
        doc = json.loads(render_summary(result.summary))
        assert doc["config"]["dynamics"] == "sl-omwu"
        assert render_summary(doc) == render_summary(result.summary)

    def test_json_rows_format(self, tmp_path):
        cfg = small_config(horizon=3, out_format="json")
        result = run_dynamics(cfg)
        paths = emit_outputs(result, cfg, tmp_path / "j")
        docs = json.loads(open(paths["rows"], "rb").read())
        assert len(docs) == 6
        assert set(docs[0]) == set(CSV_COLUMNS)

    def test_save_trace_round_trip(self, tmp_path):
        from ce_dynamics.metrics import RunTrace, internal_regret

        cfg = small_config(horizon=12, save_trace=True)
        result = run_dynamics(cfg)
        paths = emit_outputs(result, cfg, tmp_path / "t")
        again = RunTrace.load(paths["trace"])
        assert internal_regret(again, 0) == internal_regret(result.trace, 0)

    def test_csv_renders_full_precision(self):
        rows = [(1, 0, 0.1 + 0.2, 0.0, 0.0, 0.0, 0.0, 0.05, 1.0)]
        text = render_csv(rows).decode()
        assert "0.30000000000000004" in text
