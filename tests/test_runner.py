import csv
import dataclasses
import io
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from ce_dynamics import games, internal_dynamics, metrics, omwu, runner
from ce_dynamics.cli import main
from ce_dynamics.diagnostics import (
    check_variance_inequality,
    running_variance_sums,
    rvu_check,
    smoothness_report,
    variance,
)
from ce_dynamics.errors import StationaryResidualError, ValidationError
from ce_dynamics.games import Game, expected_loss, random_game
from ce_dynamics.internal_dynamics import SlOmwu, verify_equivalence
from ce_dynamics.markov_tree import stationary_residual
from ce_dynamics.metrics import inner_stream
from ce_dynamics.omwu import FLOOR_FREE_SPREAD, Composite, Omwu
from ce_dynamics.swap_dynamics import BmOmwu
from ce_dynamics.runner import (
    CSV_COLUMNS,
    AdaptiveEtaController,
    RunConfig,
    adversarial_eta,
    emit_outputs,
    play_dynamics,
    render_csv,
    render_rows_json,
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
    @pytest.mark.parametrize("dynamics", ["follow-the-leader", "sl_omwu", ["sl-omwu"]])
    def test_unknown_dynamics(self, dynamics):
        with pytest.raises(ValidationError, match="unknown dynamics"):
            small_config(dynamics=dynamics).validate()

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
            dict(smoothness_alpha=0.1),
        ],
        ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_rejects_non_finite_or_out_of_range_numbers(self, overrides):
        with pytest.raises(ValidationError):
            small_config(**overrides).validate()

    @pytest.mark.parametrize("field, value", [
        ("horizon", 10.5), ("horizon", True), ("game_seed", 1.5), ("players", 2.0),
        ("smoothness_order", 2.5), ("eta", "0.1"), ("schedule_constant", "1"),
        ("smoothness_alpha", "0.5"), ("rvu_constant", [1.0]), ("variance_budget", "1"),
        ("adaptive_budget", None), ("action_counts", (3, 3.5)), ("action_counts", 3),
    ], ids=lambda v: repr(v) if not isinstance(v, str) else v)
    def test_a_number_of_the_wrong_type_is_named(self, field, value):
        # Each raised a bare TypeError deep in the run, or played on a rounded value.
        with pytest.raises(ValidationError,
                           match=f"^{field}.* must be (an integer|a real number|a sequence)"):
            run_dynamics(small_config(**{field: value}))

    @pytest.mark.parametrize("value", [3, b"game.json", ["game.json"]], ids=repr)
    def test_a_game_file_that_is_no_path_is_named(self, value):
        with pytest.raises(ValidationError, match="^game_file must be a path"):
            run_dynamics(RunConfig("sl-omwu", 4, eta=0.1, game_file=value))

    def test_a_game_file_that_cannot_be_read_is_named(self, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(ValidationError, match=f"cannot read game file {re.escape(str(path))}"):
            run_dynamics(RunConfig("sl-omwu", 4, eta=0.1, game_file=str(path)))

    def test_a_path_like_game_file_is_echoed_as_its_string(self, tmp_path):
        path = tmp_path / "game.json"
        path.write_bytes(games.save_game(random_game(2, (3, 3), seed=1)))
        cfg = RunConfig("sl-omwu", 4, eta=0.1, game_file=path)
        paths = emit_outputs(run_dynamics(cfg), cfg, tmp_path / "run")
        with open(paths["summary"], "rb") as file:
            assert json.load(file)["config"]["game_file"] == str(path)

    def test_numpy_numbers_reach_the_echo_as_plain_numbers(self, tmp_path):
        cfg = small_config(dynamics="bm-omwu", horizon=np.int64(40), eta=np.float64(0.05),
                           game_seed=np.uint64(1), action_counts=np.array([3, 3]))
        paths = emit_outputs(run_dynamics(cfg), cfg, tmp_path / "run")
        echo = cfg.echo()
        assert [type(echo[k]) for k in ("horizon", "eta", "game_seed")] == [int, float, int]
        assert echo["action_counts"] == (3, 3) and type(echo["action_counts"][0]) is int
        doc = json.loads(open(paths["summary"], "rb").read())
        assert doc["config"]["horizon"] == doc["final"]["horizon"] == 40

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

    @pytest.mark.parametrize("counts", [(3, 3), (2, 3, 2)])
    def test_over_dense_cap_gap_is_max_internal_regret_over_t(self, monkeypatch, counts):
        # Past the dense cap no joint distribution is built, so the CE gap is
        # the identity's regret side and no identity check ran.
        monkeypatch.setattr(metrics, "DENSE_JOINT_MAX_ENTRIES", 4)
        cfg = small_config(horizon=300, players=len(counts), action_counts=counts, game_seed=1)
        final = run_dynamics(cfg).summary["final"]
        assert final["ce_gap"] == max(final["internal_regret_raw"]) / 300
        assert final["ce_gap_identity_residual"] is None

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

    @pytest.mark.parametrize("counts", [(3, 3), (3, 3, 3), (10, 10)])
    def test_bm_decomposition_max_is_the_per_round_max(self, counts):
        # Self-play through the public learner API, reading the residual each
        # round with the learner's method and with the plain 1-D formula; the
        # run's post-loop maximum must equal both bit for bit.
        cfg = small_config(dynamics="bm-omwu", horizon=200, players=len(counts),
                           action_counts=counts)
        game = runner.load_config_game(cfg)
        players = [BmOmwu(n, cfg.eta) for n in counts]
        method = formula = 0.0
        for _ in range(cfg.horizon):
            profile = [bm.next_strategy() for bm in players]
            losses = [expected_loss(game, profile, i) for i in range(len(counts))]
            for bm, loss in zip(players, losses):
                x, Q = bm.last_strategy, bm.last_matrix
                method = max(method, bm.loss_decomposition_residual(loss))
                formula = max(formula, abs(float(x @ (Q @ loss)) - float(x @ loss)))
                bm.observe(loss)
        got = run_dynamics(cfg).summary["final"]["bm_decomposition_max_residual"]
        assert got == method == formula

    @pytest.mark.parametrize("dynamics", ["sl-omwu", "bm-omwu"])
    @pytest.mark.parametrize("counts", [(3, 3), (3, 4, 3)])
    def test_stationary_max_residual_per_player(self, dynamics, counts):
        cfg = small_config(dynamics=dynamics, horizon=300, players=len(counts),
                           action_counts=counts)
        result = run_dynamics(cfg)
        got = result.summary["final"]["stationary_max_residual"]
        want = []
        for p, n in zip(result.trace.players, counts):
            Q = p.copy_dists if dynamics == "bm-omwu" else internal_dynamics._pair_rates(
                p.pair_dists, n)
            want.append(float(stationary_residual(Q, p.strategies).max()))
        assert got == want
        assert max(got) <= 1e-10

    @pytest.mark.parametrize("dynamics", ["omwu", "arbo"])
    def test_no_stationary_residual_without_a_solve(self, dynamics):
        assert "stationary_max_residual" not in run_dynamics(
            small_config(dynamics=dynamics)).summary["final"]

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


def plain_csv(rows):
    """The CSV as the plain per-row join: ``",".join(map(repr, row))`` under the header."""
    lines = [",".join(CSV_COLUMNS), *(",".join(map(repr, row)) for row in rows)]
    return "".join(line + "\n" for line in lines).encode("ascii")


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
    inner_dists = [inner_stream(trace, i)[0] for i in range(len(counts))]
    rows = []
    for t in range(trace.horizon):
        for i, pt in enumerate(trace.players):
            x, loss = pt.strategies[t], pt.losses[t]
            pair_sums[i] += x[:, None] * (loss[:, None] - loss[None, :])
            inner = inner_dists[i]
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
    assert render_csv(result.table) == plain_csv(reference_rows(result))


@pytest.mark.parametrize("dynamics", ["omwu", "sl-omwu", "bm-omwu", "arbo"])
def test_table_restarts_the_ratio_chain_of_a_later_member(monkeypatch, dynamics):
    # On (3, 4, 3) players 0 and 2 are members 0 and 1 of one record; player 2 alone switches.
    force_switches(monkeypatch, (None, None, 257))
    result = run_dynamics(small_config(dynamics=dynamics, horizon=300, players=3,
                                       action_counts=(3, 4, 3), eta_rule="adaptive", eta=None))
    assert result.summary["final"]["adaptive_switch_round"] == [None, None, 257]
    assert render_csv(result.table) == plain_csv(reference_rows(result))


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


def adversarial_stream(switch_round, rounds=600, rows=2, dim=4, seed=0):
    """Inner feedback (q, z), (rounds, rows, dim): wiggles around a loss, a jump at ``switch_round``.

    Under ``STREAM_BUDGET`` the wiggles never breach the variance budget and
    the jump does, so the controller switches exactly at ``switch_round``.
    """
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(dim), size=(rounds, rows))
    base = rng.uniform(-0.1, 0.1, (rows, dim))
    z = base + 1e-3 * rng.uniform(-1.0, 1.0, (rounds, rows, dim))
    if switch_round is not None:
        z[switch_round - 1] = -100.0 * base
    return q, z


STREAM_BUDGET = 1e-5  # allowance 1e-5 * ceil(log2 600)^5 = 1.0, above round 1's variance


def per_round_sums(q, z, budget):
    """The controller's sums as first written: a Python float += per round; stops at the switch."""
    allowance = budget * AdaptiveEtaController(len(q), q.shape[-1], budget).depth ** 5
    lhs = prev_sum = 0.0
    prev = np.zeros_like(z[0])
    for t in range(len(q)):
        lhs += float(variance(q[t], z[t] - prev).sum())
        prev_sum += float(variance(q[t], prev).sum())
        prev = z[t]
        if lhs > 0.5 * prev_sum + allowance:
            return t + 1, lhs, prev_sum
    return None, lhs, prev_sum


def scan_in_blocks(q, z, budget, size):
    """Feed a stream to a controller ``size`` rounds at a time, the way the round loop does."""
    ctl = AdaptiveEtaController(len(q), q.shape[-1], budget)
    t = 0
    while t < len(q) and not ctl.switched:
        block = slice(t, min(t + size, len(q)))
        breach = ctl.scan(t + 1, q[block], z[block])
        t = block.stop if breach is None else breach
        ctl.advance(t, breach == t)
    return ctl.switch_round, ctl.lhs, ctl.prev_variance_sum


class TestControllerBlocks:
    """A block scan of the variance budget gives the per-round switch round and sums, bitwise."""

    # Rows and dims of 8 or more take numpy's pairwise sums, as BM's and SL's 10x10 streams do.
    @pytest.mark.parametrize("rows, dim", [(2, 4), (10, 10), (1, 90)])
    @pytest.mark.parametrize("switch_round", [1, 255, 256, 257, 300, None])
    @pytest.mark.parametrize("size", [1, 7, 256])
    def test_blocks_match_per_round_sums(self, switch_round, size, rows, dim):
        q, z = adversarial_stream(switch_round, rows=rows, dim=dim)
        want = per_round_sums(q, z, STREAM_BUDGET)
        assert want[0] == switch_round
        assert scan_in_blocks(q, z, STREAM_BUDGET, size) == want

    @pytest.mark.parametrize("switch_round", [1, 257])
    def test_update_is_the_one_round_case(self, switch_round):
        q, z = adversarial_stream(switch_round)
        ctl = AdaptiveEtaController(len(q), q.shape[-1], STREAM_BUDGET)
        fired = [t + 1 for t in range(len(q)) if ctl.update(t + 1, q[t], z[t])]
        assert fired == [switch_round]
        assert (ctl.switch_round, ctl.lhs, ctl.prev_variance_sum) == per_round_sums(
            q, z, STREAM_BUDGET
        )

    def test_scan_folds_nothing_in(self):
        q, z = adversarial_stream(300)
        ctl = AdaptiveEtaController(len(q), q.shape[-1], STREAM_BUDGET)
        assert ctl.scan(1, q[:256], z[:256]) is None
        assert (ctl.lhs, ctl.prev_variance_sum, ctl.switched) == (0.0, 0.0, False)


def reference_run(config):
    """The per-player round loop: one public single-player learner per player.

    Each round every player plays (SL and BM through their unchecked solve),
    every loss is contracted from the frozen profile, then each player gets
    its feedback through ``_update`` and feeds its own adaptive controller.
    Returns the recorded arrays per player and the switch rounds.
    """
    game = runner.load_config_game(config)
    m, counts, T = game.num_players, game.action_counts, config.horizon
    dyns = [
        runner._build_dynamics(config.dynamics, n, resolve_eta(config, m, n)) for n in counts
    ]
    controllers = [
        runner.AdaptiveEtaController(T, dyn.inner_dim, config.adaptive_budget) for dyn in dyns
    ] if config.eta_rule == "adaptive" else None
    solves = config.dynamics.startswith(("sl", "bm"))
    record = [{"strategies": [], "losses": [], "inner": [], "pair_losses": []} for _ in dyns]
    for t in range(T):
        profile = [dyn._next_strategy() if solves else dyn.next_strategy() for dyn in dyns]
        losses = [games._contract(game, profile, i) for i in range(m)]
        for i, dyn in enumerate(dyns):
            record[i]["strategies"].append(np.array(profile[i]))
            record[i]["losses"].append(np.array(losses[i]))
            if isinstance(dyn, Composite):
                record[i]["inner"].append(np.array(dyn.learner.last_strategy))
            dyn._update(losses[i])
            if isinstance(dyn, SlOmwu):
                record[i]["pair_losses"].append(np.array(dyn.learner.last_loss))
            if controllers is not None and controllers[i].update(
                t + 1, dyn.inner_dist, dyn.inner_loss
            ):
                dyn.reset(controllers[i].eta_adversarial)
    switches = [c.switch_round for c in controllers] if controllers else [None] * m
    return [{k: np.array(v) for k, v in rec.items() if v} for rec in record], switches


# Game seed 0 on (3, 4, 3) under the adaptive rule: these budgets lie between the
# round-1 variance excesses of players 0 and 2, so only player 2 switches.
ONE_SWITCH_BUDGET = {"omwu": 5.5e-8, "mwu": 5.5e-8, "sl": 1.9e-8, "bm": 1.9e-8, "arbo": 3.2e-8}


def assert_matches_reference(config):
    """``run_dynamics`` records the trace and switch rounds of :func:`reference_run`, bitwise."""
    result = run_dynamics(config)
    reference, switches = reference_run(config)
    family = config.dynamics.split("-")[0]
    inner_field = {"sl": "pair_dists", "bm": "copy_dists", "arbo": "tree_dists"}.get(family)
    for i, (player, ref) in enumerate(zip(result.trace.players, reference)):
        assert player.strategies.tobytes() == ref["strategies"].tobytes()
        assert player.losses.tobytes() == ref["losses"].tobytes()
        if inner_field:
            assert getattr(player, inner_field).tobytes() == ref["inner"].tobytes()
        if "pair_losses" in ref:
            pair_losses = inner_stream(result.trace, i)[1][:, 0]
            assert pair_losses.tobytes() == ref["pair_losses"].tobytes()
    assert result.summary["final"]["adaptive_switch_round"] == switches
    return result


class TestGroupedLoop:
    """Players with equal action counts share one learner; the trace is the per-player loop's."""

    @pytest.mark.parametrize("dynamics", runner.DYNAMICS)
    def test_ragged_game_bitwise(self, dynamics):
        # Action counts (3, 4, 3): players 0 and 2 are the two members of one learner.
        assert_matches_reference(
            small_config(dynamics=dynamics, players=3, action_counts=(3, 4, 3), horizon=300)
        )

    @pytest.mark.parametrize("dynamics", runner.DYNAMICS)
    def test_one_member_switches(self, dynamics):
        budget = ONE_SWITCH_BUDGET[dynamics.split("-")[0]]
        config = small_config(
            dynamics=dynamics, players=3, action_counts=(3, 4, 3), horizon=300, game_seed=0,
            eta_rule="adaptive", eta=None, adaptive_budget=budget,
        )
        final = assert_matches_reference(config).summary["final"]
        switches = final["adaptive_switch_round"]
        assert switches[0] is None and switches[2] is not None
        assert final["eta_final"][0] == final["eta_initial"][0]
        assert final["eta_final"][2] != final["eta_initial"][2]


class TestFourPlayers:
    """Action counts (2, 3, 2, 3): two learners of two members each, interleaved. Player 0's
    contraction runs over three later axes and player 3's over three earlier ones."""

    @pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "forced-switch"])
    @pytest.mark.parametrize("dynamics", runner.DYNAMICS)
    def test_interleaved_groups_bitwise(self, monkeypatch, dynamics, adaptive):
        rounds = (None, 300, 257, None)  # one member of each learner, in different blocks
        rule = dict(eta_rule="adaptive", eta=None) if adaptive else {}
        if adaptive:
            force_switches(monkeypatch, rounds)
        config = small_config(dynamics=dynamics, players=4, action_counts=(2, 3, 2, 3),
                              horizon=400, game_seed=3, **rule)
        final = assert_matches_reference(config).summary["final"]
        assert final["adaptive_switch_round"] == list(rounds if adaptive else (None,) * 4)


class BlockReads:
    """A finished trace's array that hands out blocks of at most REGRET_CHUNK_ROUNDS rounds, and
    nothing else: any pass that takes the whole array fails. Its one-member view ``[:, None]``,
    what the whole-trace functions read, is a :class:`BlockReads` too."""

    def __init__(self, array):
        self.array, self.ndim = array, array.ndim

    def __getitem__(self, rounds):
        if rounds == (slice(None), None):
            return BlockReads(self.array[rounds])
        assert isinstance(rounds, slice) and len(range(len(self.array))[rounds]) <= 256, rounds
        return self.array[rounds]


def read_by_block(trace):
    """``trace`` with each of its players' arrays wrapped, in place, in :class:`BlockReads`."""
    for p in trace.players:
        for name, array in vars(p).items():
            setattr(p, name, None if array is None else BlockReads(array))
    return trace


def played_by_block(play):
    """``play``, a ``runner._play``, whose finished trace and group records hand out only blocks."""

    def blocks_only(*args):
        out = play(*args)
        read_by_block(out.trace)
        for record in out.records.values():
            record.update({name: BlockReads(array) for name, array in record.items()})
        return out

    return blocks_only


def bits(value):
    """Every array's bytes and every other value's repr, through containers and reports."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if dataclasses.is_dataclass(value):
        return bits(vars(value))
    if isinstance(value, dict):
        return {key: bits(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return repr(value)


# The public whole-trace functions, each on one player of a 3-player trace.
WHOLE_TRACE = {
    "running_regrets": lambda trace: metrics.running_regrets(trace, 2),
    "running_max_ratio": lambda trace: metrics.running_max_ratio(trace, 1, restart=300),
    "average_product_distribution": metrics.average_product_distribution,
    "smoothness_report": lambda trace: smoothness_report(trace, 0, 3),
    "rvu_check": lambda trace: rvu_check(trace, 1, 0.05, 64.0),
    "check_variance_inequality": lambda trace: check_variance_inequality(trace, 2, 1.0),
}


class TestOneWalk:
    """After the round loop, every pass reads the trace by block: the checks and the accounting,
    the equivalence replay and the public whole-trace functions."""

    @pytest.mark.parametrize("dynamics", runner.DYNAMICS)
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_no_pass_reads_more_than_a_block(self, monkeypatch, dynamics, adaptive):
        rule = dict(eta_rule="adaptive", eta=None, adaptive_budget=1e-7) if adaptive else {}
        config = small_config(dynamics=dynamics, players=3, action_counts=(3, 4, 3), horizon=600,
                              smoothness_order=3, rvu_constant=64.0, variance_budget=1.0, **rule)
        want = run_dynamics(config)
        monkeypatch.setattr(runner, "_play", played_by_block(runner._play))
        got = run_dynamics(config)
        assert metrics.REGRET_CHUNK_ROUNDS == 256
        assert got.table.tobytes() == want.table.tobytes()
        assert render_summary(got.summary) == render_summary(want.summary)

    def test_verify_equivalence_reads_by_block(self, monkeypatch):
        game = random_game(3, (3, 4, 3), seed=0)
        want = verify_equivalence(game, eta=0.05, horizon=600)
        monkeypatch.setattr(runner, "_play", played_by_block(runner._play))
        assert bits(verify_equivalence(game, eta=0.05, horizon=600)) == bits(want)

    @pytest.mark.parametrize("dynamics", runner.DYNAMICS)
    def test_whole_trace_functions_read_by_block(self, dynamics):
        config = small_config(dynamics=dynamics, players=3, action_counts=(3, 4, 3), horizon=600)
        trace = play_dynamics(config).trace
        want = {name: bits(call(trace)) for name, call in WHOLE_TRACE.items()}
        read_by_block(trace)
        for name, call in WHOLE_TRACE.items():
            assert bits(call(trace)) == want[name], name


class TestPlayDynamics:
    """``run_dynamics`` is ``play_dynamics`` followed by the accounting; the play is the same."""

    @pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive-switch"])
    @pytest.mark.parametrize("dynamics", runner.DYNAMICS)
    def test_run_trace_is_the_play_trace(self, dynamics, adaptive):
        rule = dict(eta_rule="adaptive", eta=None,
                    adaptive_budget=ONE_SWITCH_BUDGET[dynamics.split("-")[0]]) if adaptive else {}
        config = small_config(dynamics=dynamics, players=3, action_counts=(3, 4, 3), horizon=300,
                              game_seed=0, **rule)
        run, play = run_dynamics(config), play_dynamics(config)
        assert (run.switch_rounds, run.eta_final, run.residuals) == (
            play.switch_rounds, play.eta_final, play.residuals
        )
        assert (play.switch_rounds[2] is not None) is adaptive
        assert run.trace.etas == play.trace.etas
        for got, want in zip(run.trace.players, play.trace.players):
            for field in dataclasses.fields(want):
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert (a is None and b is None) or a.tobytes() == b.tobytes()

    def test_verify_equivalence_skips_the_accounting(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run accounting called")

        # The run's accounting step, which fills the round table too, and the block steps it makes.
        for name in ("_summarize", "_regret_steps", "_ratio_steps", "_product_steps", "_streamed"):
            monkeypatch.setattr(runner, name, refuse)
        assert verify_equivalence(random_game(2, (3, 3), seed=0), eta=0.05, horizon=16).passes()


def force_switches(monkeypatch, rounds):
    """Controllers whose scan reports a breach exactly at ``rounds[k]`` (None: never).

    The k-th controller made in a run gets ``rounds[k]``; ``run_dynamics`` and
    :func:`reference_run` both make one per player, in player order. Each declares
    itself live, so the run scans it even where its budget cannot bind within the
    horizon. The variance sums run as usual.
    """
    made = itertools.count()

    class Forced(AdaptiveEtaController):
        def __init__(self, *args):
            super().__init__(*args)
            self.forced = rounds[next(made) % len(rounds)]
            self.live = True

        def scan(self, first_round, q, z):
            super().scan(first_round, q, z)
            inside = self.forced is not None and first_round <= self.forced < first_round + len(q)
            return self.forced if inside else None

    monkeypatch.setattr(runner, "AdaptiveEtaController", Forced)


class TestForcedSwitches:
    """Switches inside, at the end of and after a block of rounds replay the per-player loop."""

    # Per player of a (3, 4, 3) game; players 0 and 2 are the members of one learner.
    @pytest.mark.parametrize(
        "rounds",
        [
            (256, 300, 256),  # two members at a block's last round, one in the next block
            (257, 257, 300),  # two learners in one round, then a later block
            (300, None, 1),  # round 1, then mid-block; one player never switches
        ],
    )
    @pytest.mark.parametrize("dynamics", runner.DYNAMICS)
    def test_forced_rounds_bitwise(self, monkeypatch, dynamics, rounds):
        force_switches(monkeypatch, rounds)
        config = small_config(
            dynamics=dynamics, players=3, action_counts=(3, 4, 3), horizon=600, game_seed=0,
            eta_rule="adaptive", eta=None,
        )
        final = assert_matches_reference(config).summary["final"]
        assert final["adaptive_switch_round"] == list(rounds)
        for i, r in enumerate(rounds):
            assert (final["eta_final"][i] == final["eta_initial"][i]) is (r is None)


def readme_ceiling(dynamics, n):
    """rows (2 span)^2 of README's inner-stream table: the most one self-play round adds to a
    player's sum of Var_q(dz); BM's n rows and every other learner's one, each of width span."""
    family = dynamics.split("-")[0]
    span = {"omwu": 1, "mwu": 1, "sl": 2, "bm": 1, "arbo": 2 * (n - 1)}[family]
    return (n if family == "bm" else 1) * (2 * span) ** 2


def lhs_increments(q, z):
    """Each round's increment of :func:`running_variance_sums`' first sum over a stream."""
    return np.diff(running_variance_sums(q, z)[0], prepend=0.0)


class TestRoundCeiling:
    """No self-play round adds more than the runner's ceiling to a controller's watched sum."""

    # Arbo's trees fit up to 5 actions.
    @pytest.mark.parametrize("dynamics, n", [(d, n) for d in runner.DYNAMICS
                                             for n in (2, 3, 4, 5 if d == "arbo" else 10)])
    def test_ceiling_is_the_readme_table(self, dynamics, n):
        for eta in (0.05, np.array([0.05, 0.1])):  # a lone learner and a member stack
            learner = runner._build_dynamics(dynamics, n, eta).learner
            assert runner._round_ceiling(learner) == readme_ceiling(dynamics, n)

    @pytest.mark.parametrize("eta", [0.05, 5.0, 1000.0])
    @pytest.mark.parametrize("counts", [(3, 3), (3, 4, 3)])
    @pytest.mark.parametrize("dynamics", runner.DYNAMICS)
    def test_self_play_stays_under_the_ceiling(self, dynamics, counts, eta):
        config = small_config(dynamics=dynamics, players=len(counts), action_counts=counts,
                              horizon=300, eta=eta)
        trace = runner._play(config, None).trace
        for i, n in enumerate(counts):
            ceiling = runner._round_ceiling(runner._build_dynamics(dynamics, n, eta).learner)
            assert lhs_increments(*inner_stream(trace, i)).max() <= ceiling

    # The sawtooth of test_adversarial_stream_triggers_switch (SL, n = 3, eta 0.5), on every
    # learner: on 2 actions omwu's and mwu's rounds reach Popoviciu's bound, a quarter of it.
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("dynamics", runner.DYNAMICS)
    def test_sawtooth_stays_under_the_ceiling(self, dynamics, n):
        dyn, stream = runner._build_dynamics(dynamics, n, 0.5), []
        for t in range(64):
            dyn.next_strategy()
            dyn.observe(np.eye(n)[t % 2])
            stream.append((dyn.inner_dist.copy(), dyn.inner_loss.copy()))
        q, z = map(np.array, zip(*stream))
        assert lhs_increments(q, z).max() <= runner._round_ceiling(dyn.learner)

    @pytest.mark.parametrize("dynamics, n, horizon", [
        ("omwu", 3, 6073727326767), ("sl-omwu", 3, 1057676800001),
        ("bm-omwu", 10, 372765789379), ("arbo", 5, 33905742603),
    ])
    def test_readme_first_live_horizons(self, dynamics, n, horizon):
        ceiling = readme_ceiling(dynamics, n)
        budget = runner.DEFAULT_VARIANCE_BUDGET_CONSTANT
        assert not AdaptiveEtaController(horizon - 1, n, budget, ceiling).live
        assert AdaptiveEtaController(horizon, n, budget, ceiling).live


def spy_controllers(monkeypatch, live=None):
    """Counts block snapshots and records each ``runner.inner_stream`` call's player and each
    ``scan``; with ``live`` set, every controller a run makes declares itself that."""
    calls = {"snapshot": 0, "stream": [], "scan": 0}
    snapshot, stream = runner._snapshot, runner.inner_stream

    class Spied(AdaptiveEtaController):
        def __init__(self, *args):
            super().__init__(*args)
            if live is not None:
                self.live = live

        def scan(self, *args):
            calls["scan"] += 1
            return super().scan(*args)

    def spied_snapshot(*args):
        calls["snapshot"] += 1
        return snapshot(*args)

    def spied_stream(trace, player, *args):
        calls["stream"].append(player)
        return stream(trace, player, *args)

    monkeypatch.setattr(runner, "AdaptiveEtaController", Spied)
    monkeypatch.setattr(runner, "_snapshot", spied_snapshot)
    monkeypatch.setattr(runner, "inner_stream", spied_stream)
    return calls


def run_bits(config):
    """A run's trace, table and summary, as bytes."""
    result = run_dynamics(config)
    trace = [bits(vars(p)) for p in result.trace.players]
    return trace, result.table.tobytes(), render_summary(result.summary)


class TestInertControllers:
    """A controller whose budget cannot bind within the horizon is never scanned, and scanning
    it anyway changes no output bit."""

    CASES = [dict(dynamics=d, players=len(c), action_counts=c, horizon=300)
             for d in runner.DYNAMICS for c in ((3, 3), (3, 4, 3))] + [
        dict(dynamics=d, players=2, action_counts=(10, 10), horizon=1024, game_seed=0)
        for d in ("sl-omwu", "bm-omwu")]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c['dynamics']}-{c['action_counts']}")
    def test_default_budget_is_free_and_changes_nothing(self, monkeypatch, case):
        config = small_config(**case, eta_rule="adaptive", eta=None)
        inert = spy_controllers(monkeypatch)
        want = run_bits(config)
        assert inert == {"snapshot": 0, "stream": [], "scan": 0}
        live = spy_controllers(monkeypatch, live=True)
        assert run_bits(config) == want
        assert live["scan"] > 0 and live["snapshot"] > 0
        assert json.loads(want[2])["final"]["adaptive_switch_round"] == [None] * case["players"]

    def test_only_a_live_controller_is_scanned(self, monkeypatch):
        # Ceilings 300 * 12 = 3600 and 300 * 16 = 4800 against an allowance 0.07 * 9^5 = 4133.
        config = small_config(dynamics="bm-omwu", players=3, action_counts=(3, 4, 3), horizon=300,
                              eta_rule="adaptive", eta=None, adaptive_budget=0.07)
        calls = spy_controllers(monkeypatch)
        run_dynamics(config)
        assert calls == {"snapshot": 2, "stream": [1, 1], "scan": 2}
        monkeypatch.undo()  # the reference's controllers are built without a ceiling: all live
        assert_matches_reference(config)


class TestPlayedRows:
    """Each record of a run's trace is round-major, (T, members, ...): the round computes in a
    group's round-t rows, one C-contiguous block, as the contractions' ``dot(..., out)`` needs,
    and a stacked member's field is a strided (T, ...) view of its record. The per-player loop's
    ``_contract`` reads the public ``next_strategy``'s rows, C-contiguous too."""

    @pytest.mark.parametrize("dynamics", runner.DYNAMICS)
    def test_stacked_members_play_c_contiguous_rows(self, dynamics):
        dyn = runner._build_dynamics(dynamics, 3, np.array([0.05, 0.5]))
        twin = runner._build_dynamics(dynamics, 3, np.array([0.05, 0.5]))
        step = getattr(dyn, "_next_strategy", dyn.next_strategy)
        strategies = np.empty((4, 2, 3))
        rows = [strategies, np.empty((4, *dyn.learner.shape))] if hasattr(dyn, "trace_field") \
            else [strategies]
        rng = np.random.default_rng(0)
        for t in range(4):
            step(*(r[t] for r in rows))
            x = twin.next_strategy()
            assert x.shape == (2, 3) and x.flags.c_contiguous
            assert all(row.flags.c_contiguous for row in x)
            assert strategies[t].tobytes() == x.tobytes()
            loss = rng.uniform(0.0, 1.0, (2, 3))
            dyn._update(loss)
            twin._update(loss.copy())
            if t == 1:
                dyn.reset(0.1, 1)
                twin.reset(0.1, 1)

    @pytest.mark.parametrize("dynamics", ["omwu", "sl-omwu", "bm-omwu", "arbo"])
    def test_a_run_computes_in_round_major_rows(self, dynamics):
        # Players 0 and 2 are the two members of one learner, player 1 a lone member.
        trace = play_dynamics(small_config(dynamics=dynamics, players=3,
                                           action_counts=(3, 4, 3), horizon=6)).trace
        for p in trace.players:
            fields = [a for a in vars(p).values() if a is not None]
            assert len(fields) == (2 if dynamics == "omwu" else 3)
            for array in fields:
                assert all(array[t].flags.c_contiguous for t in range(6))
        members = [trace.players[i].strategies for i in (0, 2)]
        assert members[0].base is members[1].base and members[0].base.shape == (6, 2, 3)
        assert not members[0].flags.c_contiguous  # a strided (T, n) view


class TestUncheckedFeedback:
    """The round loop and the equivalence replay skip the profile and feedback checks."""

    @pytest.fixture
    def checks_raise(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("checked profile or feedback path called")

        monkeypatch.setattr(games, "check_profile", refuse)
        monkeypatch.setattr(runner, "expected_loss", refuse)
        monkeypatch.setattr(omwu, "_checked", refuse)
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

    @staticmethod
    def scale_strategies(monkeypatch, scales, groups=((0, 1),)):
        """At each round of ``scales``, each learner's members' strategies are scaled by their
        players' factors, one per player: a factor other than 1 takes that one off the simplex.
        ``groups`` lists the players of each learner, in the order the run builds them."""
        build, built = runner._build_dynamics, itertools.count()

        def build_spy(name, n, eta):
            dyn = build(name, n, eta)
            players = list(groups[next(built) % len(groups)])
            # The step the round loop calls, which computes in the round's trace rows: SL and BM
            # play an unchecked solve.
            step = "_next_strategy" if hasattr(dyn, "_next_strategy") else "next_strategy"
            emit = getattr(dyn, step)
            rounds = itertools.count(1)

            def scaled(out, *inner):
                emit(out, *inner)
                factors = scales.get(next(rounds))
                if factors is not None:
                    out *= np.array(factors)[players, None]

            setattr(dyn, step, scaled)
            return dyn

        monkeypatch.setattr(runner, "_build_dynamics", build_spy)

    @pytest.fixture
    def off_simplex_round_5(self, monkeypatch):
        """Player 1's row of the shared learner emits one off-simplex strategy, at round 5."""
        self.scale_strategies(monkeypatch, {5: (1.0, 1.5)})

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

    @pytest.mark.parametrize("dynamics", ["omwu", "sl-omwu", "bm-omwu", "arbo"])
    def test_the_lowest_player_off_the_simplex_is_named(self, monkeypatch, dynamics):
        # Player 1 leaves the simplex in block 1, player 0 in block 2: player 0 is named.
        self.scale_strategies(monkeypatch, {5: (1.0, 1.5), 300: (1.5, 1.0)})
        with pytest.raises(ValidationError, match="player 0 at round 300 is not a probability"):
            run_dynamics(small_config(dynamics=dynamics, horizon=400))


def patch_solves(monkeypatch, fault):
    """Every solve that a stationary learner binds from now on, by ``omwu._gth_solver``, passes
    its pi through ``fault``."""
    bind = omwu._gth_solver

    def bind_faulty(*args):
        solve = bind(*args)
        return lambda R, out=None: fault(solve(R, out))  # the round's pi, in its trace rows

    monkeypatch.setattr(omwu, "_gth_solver", bind_faulty)


class TestStationaryGate:
    """A run's stationary solves are gated once, after the round loop."""

    HORIZON = 300

    @pytest.fixture
    def faulty_solve(self, monkeypatch):
        """Make the unchecked solve of player 1 return ``scale`` times a point mass at one round."""

        def install(dynamics, round_index, scale=1.0):
            # BM solves its copy matrix, SL its pair masses as rates.
            calls = itertools.count()  # one solve per round: both players are members of it

            def faulty(pi):
                if next(calls) == round_index - 1:
                    pi[1] = scale * np.eye(pi.shape[-1])[0]  # finite, and not stationary
                return pi

            patch_solves(monkeypatch, faulty)

        return install

    @pytest.mark.parametrize("dynamics", ["sl-omwu", "bm-omwu"])
    def test_no_step_takes_a_block_after_a_failed_one(self, faulty_solve, dynamics):
        faulty_solve(dynamics, 257)  # the second block's first round
        play, sent = runner._play(small_config(dynamics=dynamics, horizon=600), None), []

        def spy():
            while (rounds := (yield)) is not None:
                sent.append(rounds)
            yield

        with pytest.raises(StationaryResidualError, match="player 1 at round 257 failed"):
            metrics._drive(runner._walk(play), spy())
        assert sent == [slice(0, 256)]

    @pytest.mark.parametrize("dynamics", ["sl-omwu", "bm-omwu"])
    @pytest.mark.parametrize("round_index", [1, 256, 257, HORIZON])
    def test_names_player_and_round(self, faulty_solve, dynamics, round_index):
        faulty_solve(dynamics, round_index)
        with pytest.raises(StationaryResidualError,
                           match=f"player 1 at round {round_index} failed: residual"):
            run_dynamics(small_config(dynamics=dynamics, horizon=self.HORIZON))

    @pytest.mark.parametrize("dynamics", ["sl-omwu", "bm-omwu"])
    def test_runs_before_the_simplex_check(self, faulty_solve, dynamics):
        faulty_solve(dynamics, 5, scale=2.0)  # off the simplex too
        with pytest.raises(StationaryResidualError, match="player 1 at round 5"):
            run_dynamics(small_config(dynamics=dynamics, horizon=16))

    @pytest.mark.parametrize("dynamics", ["sl-omwu", "bm-omwu"])
    def test_the_lowest_player_fails_first(self, monkeypatch, dynamics):
        # Player 1's solve fails in block 1, player 0's in block 3: player 0's round is named.
        faults, calls = {100: 1, 600: 0}, itertools.count(1)  # round -> player

        def faulty(pi):
            if (player := faults.get(next(calls))) is not None:
                pi[player] = np.eye(pi.shape[-1])[0]  # on the simplex, not stationary
            return pi

        patch_solves(monkeypatch, faulty)
        with pytest.raises(StationaryResidualError, match="player 0 at round 600 failed"):
            run_dynamics(small_config(dynamics=dynamics, horizon=700))

    @pytest.mark.parametrize("dynamics", ["sl-omwu", "bm-omwu"])
    def test_a_later_failed_solve_beats_an_earlier_strategy_off_the_simplex(
        self, monkeypatch, tmp_path, capsys, dynamics
    ):
        # Player 1 leaves the simplex in block 1 (scaled, its residual stays within the gate);
        # player 0's solve fails in block 2. The gate's error is raised, and the CLI exits 3.
        calls = itertools.count(1)

        def faulty(pi):
            t = next(calls) % 300 or 300  # the CLI's run counts its solves afresh
            if t == 5:
                pi[1] *= 1.5
            elif t == 300:
                pi[0] = np.eye(pi.shape[-1])[0]
            return pi

        patch_solves(monkeypatch, faulty)
        with pytest.raises(StationaryResidualError, match="player 0 at round 300 failed"):
            run_dynamics(small_config(dynamics=dynamics, horizon=300))
        out = tmp_path / "run"
        argv = ["run", "--players", "2", "--actions", "3,3", "--horizon", "300",
                "--dynamics", dynamics, "--eta", "0.05", "--game-seed", "1", "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: stationary solve of player 0 at round 300")
        assert not out.exists()

    @pytest.mark.parametrize("dynamics", ["sl-omwu", "bm-omwu"])
    def test_cli_exits_3_without_outputs(self, faulty_solve, tmp_path, capsys, dynamics):
        faulty_solve(dynamics, 5)
        out = tmp_path / "run"
        argv = ["run", "--players", "2", "--actions", "3,3", "--horizon", "16",
                "--dynamics", dynamics, "--eta", "0.05", "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: stationary solve of player 1 at round 5")
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("round_index", [1, 256, 257, HORIZON])
    def test_verify_equivalence_plays_through_the_gate(self, monkeypatch, round_index):
        calls = itertools.count()  # one solve per round: both players are members of it

        def off(pi):
            if next(calls) == round_index - 1:
                pi[1, :2] += [1e-6, -1e-6]  # still on the simplex, off the fixed point by 1e-6
            return pi

        patch_solves(monkeypatch, off)
        with pytest.raises(StationaryResidualError,
                           match=f"player 1 at round {round_index} failed: residual"):
            verify_equivalence(random_game(2, (3, 3), seed=0), eta=0.05, horizon=self.HORIZON)

    @pytest.mark.parametrize("learner", [SlOmwu, BmOmwu])
    def test_public_next_strategy_gates_every_call(self, monkeypatch, learner):
        monkeypatch.setattr(omwu, "_gth_solver", lambda *args: lambda R, out=None: np.eye(3)[0])
        dyn = learner(3, 0.05)
        with pytest.raises(StationaryResidualError, match="stationary solve failed"):
            dyn.next_strategy()
        dyn._next_strategy()  # the loop's step is unchecked


class TestInterleavedGroupPrecedence:
    """On a (3, 4, 3) game the walk checks two group record blocks per block of rounds: players 0
    and 2 are members 0 and 1 of the 3-action learner, player 1 the 4-action learner's only
    member. Each member's failure is named as its player's, in the one-group order."""

    GROUPS = ((0, 2), (1,))
    MEMBERS = {0: (3, 0), 1: (4, 0), 2: (3, 1)}  # player -> (its learner's actions, member)

    @classmethod
    def fail_solves(cls, monkeypatch, dynamics, faults):
        """At each (player, round) of ``faults`` the player's solve returns a point mass: on the
        simplex, and not stationary."""
        calls = {n: itertools.count(1) for n in (3, 4)}  # each learner solves once per round

        def faulty(pi):
            n = pi.shape[-1]
            t = next(calls[n])
            for player, r in faults:
                if r == t and cls.MEMBERS[player][0] == n:
                    pi[cls.MEMBERS[player][1]] = np.eye(n)[0]
            return pi

        patch_solves(monkeypatch, faulty)

    @staticmethod
    def config(dynamics):
        return small_config(dynamics=dynamics, players=3, action_counts=(3, 4, 3), horizon=600)

    @pytest.mark.parametrize("dynamics", ["sl-omwu", "bm-omwu"])
    def test_a_late_failed_solve_beats_an_earlier_strategy_off_the_simplex(self, monkeypatch,
                                                                          dynamics):
        TestStrategyCheck.scale_strategies(monkeypatch, {5: (1.0, 1.5, 1.0)}, self.GROUPS)
        self.fail_solves(monkeypatch, dynamics, [(2, 550)])
        with pytest.raises(StationaryResidualError, match="player 2 at round 550 failed"):
            run_dynamics(self.config(dynamics))

    @pytest.mark.parametrize("dynamics", ["sl-omwu", "bm-omwu"])
    def test_failed_solves_of_two_members_name_the_lower_player(self, monkeypatch, dynamics):
        self.fail_solves(monkeypatch, dynamics, [(2, 5), (0, 300)])
        with pytest.raises(StationaryResidualError, match="player 0 at round 300 failed"):
            run_dynamics(self.config(dynamics))

    @pytest.mark.parametrize("dynamics", ["sl-omwu", "bm-omwu"])
    def test_a_solve_failing_in_two_blocks_is_named_at_its_earliest_round(self, monkeypatch,
                                                                         dynamics):
        self.fail_solves(monkeypatch, dynamics, [(2, 520), (2, 250), (2, 200)])
        with pytest.raises(StationaryResidualError, match="player 2 at round 200 failed"):
            run_dynamics(self.config(dynamics))

    @pytest.mark.parametrize("dynamics", ["omwu", "sl-omwu", "bm-omwu", "arbo"])
    def test_a_strategy_off_the_simplex_in_two_blocks_is_named_at_its_earliest_round(
        self, monkeypatch, dynamics
    ):
        off = (1.0, 1.0, 1.5)  # player 2
        TestStrategyCheck.scale_strategies(monkeypatch, {520: off, 250: off, 200: off},
                                           self.GROUPS)
        with pytest.raises(ValidationError, match="player 2 at round 200 is not a probability"):
            run_dynamics(self.config(dynamics))


class TestPublicReplay:
    """A run is its public, checked API, bit for bit: every player replayed through a lone
    learner's ``next_strategy`` (SL and BM through the residual gate), ``expected_loss`` and
    ``observe`` plays the strategies, losses and inner distributions of ``play_dynamics``.
    The run and the lone learners keep one guard timeline: a learner's step skips the
    max-shift and the weight floor while eta (updates + 1) inner_span is at most
    ``FLOOR_FREE_SPREAD``. The just-under and just-over rates put the widest learner's last
    free step at round ``BOUNDARY`` and just before it."""

    COUNTS, HORIZON, BOUNDARY = (3, 4, 3), 64, 32

    @pytest.mark.parametrize("dynamics", runner.DYNAMICS)
    @pytest.mark.parametrize("case", ["eta-0.05", "just-under", "just-over", "eta-50"])
    def test_replay_is_the_run(self, monkeypatch, dynamics, case):
        T, k = self.HORIZON, self.BOUNDARY
        widest = runner._build_dynamics(dynamics, max(self.COUNTS), 1.0).inner_span
        bound = FLOOR_FREE_SPREAD / ((k + 1) * widest)  # free after k updates, not after k + 1
        eta = {"eta-0.05": 0.05, "just-under": (1 - 1e-9) * bound,
               "just-over": (1 + 1e-9) * bound, "eta-50": 50.0}[case]
        built, build = [], runner._build_dynamics
        monkeypatch.setattr(runner, "_build_dynamics", lambda *a: built.append(build(*a)) or built[-1])
        play = play_dynamics(RunConfig(dynamics, T, eta=eta, players=3,
                                       action_counts=self.COUNTS, game_seed=0))
        # The most updates after which the widest learner's step is free: the run's boundary.
        last_free = math.floor(min(getattr(d, "learner", d)._free_until.min() for d in built))
        assert {"eta-0.05": last_free >= T, "just-under": last_free == k,
                "just-over": last_free == k - 1, "eta-50": last_free < k - 1}[case]
        field = getattr(built[0], "trace_field", "strategies")
        if case == "eta-50":  # and it binds: some weight of the run sits on the floor
            assert min(getattr(p, field).min() for p in play.trace.players) <= 1e-300

        learners = [build(dynamics, n, eta) for n in self.COUNTS]
        for t in range(T):
            profile = [dyn.next_strategy() for dyn in learners]
            for i, (dyn, p) in enumerate(zip(learners, play.trace.players)):
                loss = expected_loss(play.game, profile, i)
                assert profile[i].tobytes() == p.strategies[t].tobytes()
                assert loss.tobytes() == p.losses[t].tobytes()
                inner = getattr(dyn, "learner", dyn).last_strategy
                assert inner.tobytes() == getattr(p, field)[t].tobytes()
                dyn.observe(loss)


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

    def test_a_summary_that_cannot_render_leaves_nothing(self, tmp_path):
        # Both texts are rendered before any file or directory is made.
        cfg = small_config(horizon=4)
        result = run_dynamics(cfg)
        result.summary["final"]["horizon"] = np.int64(4)  # json cannot encode it
        with pytest.raises(TypeError, match="not JSON serializable"):
            emit_outputs(result, cfg, tmp_path / "out")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_emit_outputs_holds_a_block_above_the_run(self, tmp_path, out_format):
        # Rows and archive stream by block. Rendering the whole table before writing it peaks at
        # 7.3 MB (csv) and 26.1 MB (json) above the finished run in this test.
        cfg = small_config(horizon=2**14, save_trace=True, out_format=out_format)
        result = run_dynamics(cfg)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            emit_outputs(result, cfg, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 2e6

    def test_csv_matches_csv_writer(self):
        # Every field is an int or a float, so the plain join gives csv.writer's bytes.
        cfg = small_config(dynamics="bm-omwu", horizon=50, players=3, action_counts=(3, 3, 3))
        result = run_dynamics(cfg)
        assert render_csv(result.table) == csv_writer_bytes(result.rows)

    def test_csv_renders_full_precision(self):
        table = np.array([[[0.1 + 0.2, 0.0, 0.0, 0.0, 0.0, 0.05, 1.0]]])
        text = render_csv(table).decode()
        assert "0.30000000000000004" in text


def csv_writer_bytes(rows):
    """The CSV as ``csv.writer`` writes it, each float given by its repr."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode("ascii")


TRICKY_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
    1e-5, 1e-4, 1e16, 9999999999999998.0, 0.1 + 0.2,
]


def synthetic_table(pattern, T, m):
    """A (T, m, 7) round table built to trip a renderer that reuses strings too eagerly."""
    t, i, k = np.meshgrid(np.arange(T), np.arange(m), np.arange(7), indexing="ij")
    if pattern == "signed-zeros":
        # Neighbours along rounds, players and columns differ only in sign, so raw -0.0
        # sits next to clamped 0.0 and raw 0.0 next to clamped -0.0.
        return np.where((t + i + k) % 2 == 0, 0.0, -0.0)
    if pattern == "specials":
        # NaN, infinities, subnormals and repr's exponent switch in runs of two rounds.
        return np.take(TRICKY_FLOATS, (t // 2 + 3 * i + k) % len(TRICKY_FLOATS))
    # "run-like": a ratio that repeats and then changes, and player 0's eta switching mid-run.
    table = np.take([1e-5, 1e-4, 1e16, 9999999999999998.0, -0.0, 0.0], (t + i + k) % 6)
    table[..., 2] = np.maximum(table[..., 1], 0.0)
    table[..., 4] = table[..., 1].max(axis=1, keepdims=True)
    table[..., 5] = 0.05
    table[T // 2 :, 0, 5] = 0.2
    table[..., 6] = 1.0 + (np.arange(T) // 3)[:, None] * 0.5
    return table


# 300 rounds cross the renderer's 256-round block boundary inside runs of eta and ratio.
@pytest.mark.parametrize("T,m", [(1, 2), (1, 3), (7, 2), (9, 3), (300, 2)])
@pytest.mark.parametrize("pattern", ["signed-zeros", "specials", "run-like"])
def test_render_csv_of_synthetic_tables(pattern, T, m):
    table = synthetic_table(pattern, T, m)
    rows = [(t + 1, i, *table[t, i].tolist()) for t in range(T) for i in range(m)]
    assert render_csv(table) == plain_csv(rows) == csv_writer_bytes(rows)


def per_row_json(rows):
    """``run.json`` as one ``json.dumps`` of every row as a dict, the first renderer's bytes."""
    docs = [dict(zip(CSV_COLUMNS, row)) for row in rows]
    return (json.dumps(docs, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


@pytest.mark.parametrize("T,m", [(1, 2), (1, 3), (7, 2), (9, 3), (300, 2)])
@pytest.mark.parametrize("pattern", ["signed-zeros", "specials", "run-like"])
def test_render_rows_json_of_synthetic_tables(pattern, T, m):
    # json writes NaN, Infinity and -Infinity where repr writes nan, inf and -inf.
    table = synthetic_table(pattern, T, m)
    rows = [(t + 1, i, *table[t, i].tolist()) for t in range(T) for i in range(m)]
    assert render_rows_json(table) == per_row_json(rows)


@pytest.mark.parametrize("out_format", ["csv", "json"])
@pytest.mark.parametrize("pattern", ["signed-zeros", "specials", "run-like"])
def test_emit_outputs_streams_the_rendered_bytes(tmp_path, pattern, out_format):
    # T = 300: emit_outputs writes the rows block by block, across the 256-round boundary.
    cfg = small_config(horizon=300, out_format=out_format)
    result = dataclasses.replace(run_dynamics(cfg), table=synthetic_table(pattern, 300, 2))
    render = render_csv if out_format == "csv" else render_rows_json
    with open(emit_outputs(result, cfg, tmp_path)["rows"], "rb") as file:
        assert file.read() == render(result.table)


# T = 300 crosses the renderer's 256-round block boundary.
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("dynamics", ["sl-omwu", "bm-omwu"])
def test_render_rows_json_of_runs(dynamics, m):
    cfg = small_config(dynamics=dynamics, horizon=300, players=m, action_counts=(3,) * m)
    result = run_dynamics(cfg)
    assert render_rows_json(result.table) == per_row_json(result.rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["--dynamics", "bm-omwu", "--players", "3", "--actions", "3,3,3", "--eta", "0.1"],
        ["--dynamics", "sl-omwu", "--players", "2", "--actions", "3,4", "--eta-rule", "adaptive",
         "--adaptive-budget", "0"],
    ],
    ids=["bm-omwu-3p", "adaptive-switch"],
)
def test_json_rows_are_the_csv_values(argv, tmp_path, capsys):
    for out_format in ("csv", "json"):
        base = ["run", *argv, "--horizon", "300", "--out", str(tmp_path / out_format)]
        assert main([*base, "--format", out_format]) == 0
    summary = json.loads((tmp_path / "json" / "summary.json").read_text())
    if "adaptive" in argv:
        assert any(s is not None for s in summary["final"]["adaptive_switch_round"])
    body = list(csv.reader(io.StringIO((tmp_path / "csv" / "run.csv").read_text())))[1:]
    docs = json.loads((tmp_path / "json" / "run.json").read_text())
    # repr round-trips a float, so equal text is the same float, row for row.
    assert [[repr(doc[c]) for c in CSV_COLUMNS] for doc in docs] == body
    assert all(type(doc["t"]) is int and type(doc["eta"]) is float for doc in docs)
