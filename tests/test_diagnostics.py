import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ce_dynamics.diagnostics import (
    StabilityReport,
    binomial_difference,
    budget_depth,
    check_variance_inequality,
    finite_differences,
    running_variance_sums,
    rvu_check,
    smoothness_bound,
    smoothness_report,
    stability_check,
    variance,
)
from ce_dynamics.errors import ValidationError
from ce_dynamics import diagnostics, runner
from ce_dynamics.games import Game, random_game
from ce_dynamics.internal_dynamics import ArboDynamics
from ce_dynamics.metrics import PlayerTrace, RunTrace, inner_stream, running_max_ratio
from ce_dynamics.runner import DYNAMICS, AdaptiveEtaController, RunConfig, run_dynamics


def sl_trace(game, eta, T, seed=0):
    cfg = RunConfig(
        dynamics="sl-omwu",
        horizon=T,
        eta_rule="fixed",
        eta=eta,
        players=game.num_players,
        action_counts=game.action_counts,
        game_seed=seed,
    )
    return run_dynamics(cfg, game=game).trace


class TestFiniteDifferences:
    def test_constant_sequence_vanishes(self):
        table = finite_differences(np.full((10, 3), 0.4), 4)
        for h in range(1, 5):
            np.testing.assert_array_equal(table[h], np.zeros((10 - h, 3)))

    def test_linear_sequence(self):
        table = finite_differences(np.arange(8, dtype=float), 2)
        np.testing.assert_array_equal(table[1], np.ones(7))
        np.testing.assert_array_equal(table[2], np.zeros(6))

    def test_second_order_binomial_identity(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(0, 1, (12, 2))
        table = finite_differences(z, 2)
        np.testing.assert_allclose(table[2], z[2:] - 2 * z[1:-1] + z[:-2], atol=1e-14)
        np.testing.assert_allclose(table[2], binomial_difference(z, 2), atol=1e-14)

    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_recursion_matches_binomial(self, seed, order):
        rng = np.random.default_rng(seed)
        z = rng.uniform(0, 1, (order + 6, 3))
        table = finite_differences(z, order)
        assert np.abs(table[order] - binomial_difference(z, order)).max() <= 1e-9

    def test_order_guard(self):
        with pytest.raises(ValidationError):
            finite_differences(np.zeros((4, 2)), 4)

    @pytest.mark.parametrize("difference, order, match", [
        (finite_differences, -1, "nonnegative"), (binomial_difference, -1, "nonnegative"),
        (binomial_difference, 4, "too large"),
    ], ids=["recursion-negative", "binomial-negative", "binomial-too-high"])
    def test_order_out_of_range(self, difference, order, match):
        with pytest.raises(ValidationError, match=match):
            difference(np.zeros((4, 2)), order)


class TestVariance:
    def test_constant_vector_zero(self):
        assert variance(np.array([0.2, 0.8]), np.array([0.7, 0.7])) == 0.0

    def test_shapes_must_match(self):
        with pytest.raises(ValidationError, match="shape mismatch"):
            variance(np.array([0.5, 0.5]), np.zeros(3))

    def test_bernoulli(self):
        assert variance(np.array([0.5, 0.5]), np.array([0.0, 1.0])) == pytest.approx(0.25)

    def test_bounded_by_sup_norm_squared(self):
        rng = np.random.default_rng(5)
        for _ in range(10**4):
            n = int(rng.integers(2, 6))
            w = rng.uniform(0, 1, n) + 1e-12
            q = w / w.sum()
            z = rng.uniform(-2, 2, n)
            assert variance(q, z) <= np.abs(z).max() ** 2 + 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        q = np.array([0.1, 0.2, 0.3, 0.4])
        z = rng.uniform(-1, 1, 4)
        assert variance(q, z + 5.0) == pytest.approx(variance(q, z), abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_multiplicative_sandwich(self, seed):
        # Multiplicatively-close weights give multiplicatively-close variances.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        w = rng.uniform(0.5, 1.0, n)
        q = w / w.sum()
        w2 = w * rng.uniform(0.95, 1.05, n)
        q2 = w2 / w2.sum()
        zeta = max((q / q2).max(), (q2 / q).max()) - 1.0
        z = rng.uniform(-1, 1, n)
        lo, hi = (1 - zeta) * variance(q, z), (1 + zeta) * variance(q, z)
        assert lo - 1e-12 <= variance(q2, z) <= hi + 1e-12

    def test_batched_rows_equal_scalar_calls(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(0.01, 1.0, (6, 4, 5))
        q = w / w.sum(axis=-1, keepdims=True)
        z = rng.uniform(-1, 1, (6, 4, 5))
        batched = variance(q, z)
        assert batched.shape == (6, 4)
        for t in range(6):
            for r in range(4):
                want = variance(q[t, r], z[t, r])
                assert abs(batched[t, r] - want) <= 1e-15 * abs(want)


def loop_variance_sums(p, L):
    """Round-by-round sums of Var_p(L_t - L_{t-1}) and Var_p(L_{t-1}), L_0 = 0."""
    pos, neg, prev = 0.0, 0.0, np.zeros(L.shape[1])
    for q, z in zip(p, L):
        pos += float(q @ (z - prev - q @ (z - prev)) ** 2)
        neg += float(q @ (prev - q @ prev) ** 2)
        prev = z
    return pos, neg


class TestVarianceSumsAgainstLoop:
    def test_rvu_and_budget_reports(self):
        game = random_game(2, (4, 4), seed=43)
        trace = sl_trace(game, eta=0.05, T=200)
        for i in range(2):
            pt = trace.players[i]
            pos, neg = loop_variance_sums(pt.pair_dists, inner_stream(trace, i)[1][:, 0])
            rvu = rvu_check(trace, i, eta=0.05, curvature_constant=64.0)
            budget = check_variance_inequality(trace, i)
            assert rvu.positive_variance_sum == pytest.approx(pos, rel=1e-12)
            assert rvu.negative_variance_sum == pytest.approx(neg, rel=1e-12)
            assert budget.lhs == pytest.approx(pos, rel=1e-12)
            assert budget.prev_variance_sum == pytest.approx(neg, rel=1e-12)


class TestSmoothness:
    def test_bound_values(self):
        assert smoothness_bound(0, 0.125) == 1.0
        assert smoothness_bound(1, 0.125) == pytest.approx(0.125)
        assert smoothness_bound(2, 0.125) == pytest.approx(0.125**2 * 2**7)

    def test_bound_past_the_float_range(self):
        # Up to h = 57 the plain product, with its bits; from 58 on h^(3h+1) is past the largest
        # float, and the bound comes from logs: finite, underflowing to 0, or inf.
        assert smoothness_bound(57, 1 / 60) == (1 / 60) ** 57 * 57**172
        exact = Fraction(1 / 63) ** 60 * 60**181
        assert smoothness_bound(60, 1 / 63) == pytest.approx(float(exact), rel=1e-12)
        assert smoothness_bound(60, 1e-300) == 0.0
        assert smoothness_bound(99, 1 / 102) == math.inf

    def test_constant_game_all_orders_vanish(self):
        game = Game((2, 2), (np.full((2, 2), 0.5), np.full((2, 2), 0.5)))
        trace = sl_trace(game, eta=1e-4, T=32)
        report = smoothness_report(trace, 0, max_order=3, alpha=1 / 6)
        assert not report.failures
        for h in range(1, 4):
            assert report.observed[h].max() <= 1e-15

    def test_order_zero_row_bounded_by_one(self):
        game = random_game(2, (3, 3), seed=17)
        trace = sl_trace(game, eta=0.05, T=40)
        report = smoothness_report(trace, 0, max_order=2, alpha=0.2)
        assert report.observed[0].max() <= 1.0

    def test_enforced_flag_tracks_precondition(self):
        game = random_game(2, (3, 3), seed=18)
        alpha = 0.125
        strict = alpha / (36.0 * math.exp(5) * 2)
        trace = sl_trace(game, eta=strict, T=16)
        assert smoothness_report(trace, 0, 5, alpha).enforced
        trace = sl_trace(game, eta=0.05, T=16)
        assert not smoothness_report(trace, 0, 5, alpha).enforced

    def test_alpha_guard(self):
        game = random_game(2, (3, 3), seed=19)
        trace = sl_trace(game, eta=0.05, T=16)
        with pytest.raises(ValidationError):
            smoothness_report(trace, 0, 5, alpha=0.5)


def empty_pair_trace(n=3):
    d = n * (n - 1)
    pt = PlayerTrace(
        strategies=np.zeros((0, n)),
        losses=np.zeros((0, n)),
        pair_dists=np.zeros((0, d)),
        pair_losses=np.zeros((0, d)),
    )
    return RunTrace(horizon=0, dynamics="sl-omwu", action_counts=(n, n), etas=(0.01, 0.01), players=[pt, pt])


class TestRvuCheck:
    def test_empty_trace_trivial(self):
        report = rvu_check(empty_pair_trace(), 0, eta=0.01, curvature_constant=64.0)
        assert report.regret == 0.0
        assert report.bound == pytest.approx(2 * math.log(6) / 0.01)
        assert report.holds

    @pytest.mark.parametrize("constant", [1.0, -1.0])
    def test_overflowing_curvature_beside_zero_sums_adds_nothing(self, constant):
        # C eta^2 overflows to +-inf; times an empty variance sum it adds 0, not NaN.
        report = rvu_check(empty_pair_trace(), 0, eta=1e200, curvature_constant=constant)
        assert report.bound == report.log_term == 2 * math.log(6) / 1e200
        assert report.holds
        assert report.to_dict()["bound"] == report.bound

    def test_constant_losses_variances_vanish(self):
        game = Game((3, 3), (np.full((3, 3), 0.4), np.full((3, 3), 0.4)))
        trace = sl_trace(game, eta=0.01, T=20)
        report = rvu_check(trace, 0, eta=0.01, curvature_constant=64.0)
        assert report.positive_variance_sum == pytest.approx(0.0, abs=1e-20)
        assert report.negative_variance_sum == pytest.approx(0.0, abs=1e-20)
        assert report.regret <= report.log_term

    def test_random_run_positive_slack(self):
        game = random_game(2, (3, 3), seed=23)
        trace = sl_trace(game, eta=0.01, T=256)
        for i in range(2):
            report = rvu_check(trace, i, eta=0.01, curvature_constant=64.0)
            assert report.holds and report.slack > 0.0
        assert report.bound_action_log < report.bound  # pair-space log is larger


class TestVarianceBudget:
    def test_constant_losses_lhs_zero(self):
        game = Game((3, 3), (np.full((3, 3), 0.4), np.full((3, 3), 0.4)))
        trace = sl_trace(game, eta=0.01, T=16)
        report = check_variance_inequality(trace, 0)
        assert report.lhs == pytest.approx(0.0, abs=1e-20)
        assert report.holds
        assert report.minimal_constant == 0.0

    def test_budget_depth(self):
        assert [budget_depth(T) for T in (1, 2, 3, 4, 5, 256, 257)] == [1, 1, 2, 2, 3, 8, 9]

    def test_self_play_far_below_budget(self):
        game = random_game(2, (3, 3), seed=29)
        trace = sl_trace(game, eta=0.01, T=256)
        report = check_variance_inequality(trace, 0)
        assert report.depth == 8
        assert report.holds
        assert report.minimal_constant < 1.0  # empirically tiny vs the 165262 budget

    def test_adversarial_sawtooth_violates_small_budget(self):
        from ce_dynamics.internal_dynamics import SlOmwu

        n, T = 3, 64
        sl = SlOmwu(n, eta=0.5)
        xs, ls, ps, Ls = [], [], [], []
        for t in range(T):
            x = sl.next_strategy()
            ell = np.zeros(n)
            ell[t % 2] = 1.0  # sawtooth between two actions
            xs.append(x)
            ls.append(ell)
            ps.append(sl.inner_dist[0])
            sl.observe(ell)
            Ls.append(sl.inner_loss[0])
        pt = PlayerTrace(
            strategies=np.array(xs),
            losses=np.array(ls),
            pair_dists=np.array(ps),
            pair_losses=np.array(Ls),
        )
        trace = RunTrace(horizon=T, dynamics="sl-omwu", action_counts=(n,), etas=(0.5,), players=[pt])
        report = check_variance_inequality(trace, 0, budget_constant=1e-6)
        assert not report.holds
        assert report.minimal_constant > 1e-6


class TestStability:
    def test_ratios_shrink_with_eta(self):
        game = random_game(2, (3, 3), seed=31)
        small = stability_check(sl_trace(game, eta=1e-5, T=30), 0)
        large = stability_check(sl_trace(game, eta=0.05, T=30), 0)
        assert small.max_ratio < large.max_ratio
        assert small.max_ratio == pytest.approx(1.0, abs=1e-3)

    def test_exp_bound_holds_on_runs(self):
        game = random_game(2, (4, 4), seed=37)
        for eta in (1 / 64, 0.05):
            report = stability_check(sl_trace(game, eta=eta, T=80), 0)
            assert report.within_exp_bound

    @pytest.mark.parametrize("eta, bound", [(118.0, math.exp(708.0)), (119.0, None), (1e10, None)])
    def test_exp_bound_is_null_only_past_overflow(self, eta, bound):
        x = np.array([[0.5, 0.5], [0.25, 0.75]])
        pt = PlayerTrace(strategies=x, losses=np.zeros_like(x))
        trace = RunTrace(horizon=2, dynamics="omwu", action_counts=(2,), etas=(eta,), players=[pt])
        report = stability_check(trace, 0)
        assert report.exp_bound == bound
        assert report.max_ratio == 2.0 and report.within_exp_bound
        assert not StabilityReport(math.inf, None, 1.0).within_exp_bound

    def test_exp_vs_linear_bound_on_grid(self):
        # exp(6 eta) <= 1 + 7 eta holds through eta = 1/64 with room to spare.
        for eta in np.linspace(1e-6, 1 / 64, 200):
            assert math.exp(6 * eta) <= 1 + 7 * eta

    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_summary_reads_the_tables_ratio_column(self, monkeypatch, dynamics):
        result = ragged_run(dynamics, (3, 4, 3), horizon=40)
        for i, doc in enumerate(result.summary["diagnostics"]["stability"]):
            assert doc == stability_check(result.trace, i).to_dict()
            assert doc["max_ratio"] == result.table[-1, i, 6]

        def refuse(*args, **kwargs):
            raise AssertionError("the stability check computed the ratio again")

        monkeypatch.setattr(diagnostics, "running_max_ratio", refuse)  # not the round table's
        assert ragged_run(dynamics, (3, 4, 3), horizon=40).summary == result.summary

    def test_bm_trace_rows(self):
        cfg = RunConfig(
            dynamics="bm-omwu", horizon=40, eta_rule="fixed", eta=1 / 64,
            players=2, action_counts=(3, 3), game_seed=41,
        )
        trace = run_dynamics(cfg).trace
        for i in range(2):
            report = stability_check(trace, i)
            assert report.within_exp_bound
            assert report.within_linear_bound


def ragged_run(dynamics, counts, horizon=300, eta=0.05):
    config = RunConfig(dynamics=dynamics, horizon=horizon, eta=eta, players=len(counts),
                       action_counts=counts, game_seed=3)
    return run_dynamics(config)


COUNTS = pytest.mark.parametrize("counts", [(3, 3), (3, 4, 3)], ids=["3x3", "3x4x3"])


class TestInnerStream:
    """Every dynamics has one inner stream (q, z); the controller and every diagnostic read it."""

    @COUNTS
    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_stream_is_what_each_learner_played_and_was_fed(self, dynamics, counts):
        trace = ragged_run(dynamics, counts, horizon=40).trace
        for i, n in enumerate(counts):
            q, z = inner_stream(trace, i)
            dyn = runner._build_dynamics(dynamics, n, trace.etas[i])
            step = getattr(dyn, "_next_strategy", dyn.next_strategy)
            for t in range(trace.horizon):
                step()
                dyn._update(trace.players[i].losses[t])
                assert q[t].tobytes() == dyn.inner_dist.tobytes()
                assert z[t].tobytes() == dyn.inner_loss.tobytes()

    @COUNTS
    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_variance_report_sums_are_the_controllers(self, dynamics, counts):
        # The controller folds the stream in round by round; the reports add it by block. Its
        # infinite budget never breaches, so it folds in every round.
        trace = ragged_run(dynamics, counts).trace
        for i in range(len(counts)):
            ctl = AdaptiveEtaController(trace.horizon, 2, math.inf)
            q, z = inner_stream(trace, i)
            assert not any(ctl.update(t + 1, q[t], z[t]) for t in range(trace.horizon))
            want = (ctl.lhs, ctl.prev_variance_sum)
            budget = check_variance_inequality(trace, i)
            rvu = rvu_check(trace, i, eta=0.05, curvature_constant=64.0)
            assert (budget.lhs, budget.prev_variance_sum) == want
            assert (rvu.positive_variance_sum, rvu.negative_variance_sum) == want
            assert want[0] > 0.0 and want[1] > 0.0

    @pytest.mark.parametrize(
        "dynamics, column",
        [("sl-omwu", "internal_regret_raw"), ("sl-mwu", "internal_regret_raw"),
         ("bm-omwu", "swap_regret"), ("bm-mwu", "swap_regret"),
         ("omwu", "external_regret"), ("mwu", "external_regret")],
    )
    def test_rvu_left_side_is_the_runs_regret(self, dynamics, column):
        # Through the stationary identity for SL and the fixed point for BM, summed over copies.
        result = ragged_run(dynamics, (3, 4, 3), horizon=1024)
        for i in range(3):
            report = rvu_check(result.trace, i, eta=0.05, curvature_constant=64.0)
            assert abs(report.regret - result.summary["final"][column][i]) <= 1e-9

    @pytest.mark.parametrize(
        "dynamics, rows, dim", [("sl-omwu", 1, 12), ("bm-omwu", 4, 4), ("arbo", 1, 64), ("omwu", 1, 4)]
    )
    def test_rvu_log_term_counts_rows_and_inner_dimension(self, dynamics, rows, dim):
        trace = ragged_run(dynamics, (4, 4), horizon=16).trace
        report = rvu_check(trace, 0, eta=0.05, curvature_constant=64.0)
        assert report.log_term == rows * 2.0 * math.log(dim) / 0.05
        assert report.bound_action_log - report.bound == pytest.approx(
            rows * 2.0 * (math.log(4) - math.log(dim)) / 0.05, abs=1e-9
        )

    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_smoothness_is_enforced_for_sl_only(self, dynamics):
        # Far below the strict threshold: only an SL run's certificate is enforced.
        trace = ragged_run(dynamics, (3, 3), horizon=16, eta=1e-6).trace
        report = smoothness_report(trace, 0, max_order=3)
        assert report.enforced is dynamics.startswith("sl")
        assert [len(o) for o in report.observed] == [16, 15, 14, 13]
        z = inner_stream(trace, 0)[1]
        assert report.observed[1].tolist() == np.abs(z[1:] - z[:-1]).max(axis=(1, 2)).tolist()

    @pytest.mark.parametrize("dynamics", DYNAMICS)
    @pytest.mark.parametrize(
        "horizon, order", [(600, 3), (300, 40), (260, 10), (5, 4), (600, 1), (600, 300)]
    )
    def test_reports_by_block_give_the_whole_stream_bits(self, dynamics, horizon, order):
        # The reports read the stream by block, smoothness one order's differences at a time, with
        # look-ahead into the next blocks (order 300 past a whole block); one pass over the whole
        # stream gives the same bits.
        trace = ragged_run(dynamics, (3, 3), horizon=horizon).trace
        q, z = inner_stream(trace, 0)
        smooth = smoothness_report(trace, 0, max_order=order, alpha=1e-3)
        for got, d in zip(smooth.observed, finite_differences(z, order), strict=True):
            assert got.tobytes() == np.abs(d).max(axis=(1, 2)).tobytes()
        lhs, prev_sum = (s[-1] for s in running_variance_sums(q, z))
        budget = check_variance_inequality(trace, 0)
        assert (budget.lhs, budget.prev_variance_sum) == (lhs, prev_sum)
        gains = np.cumsum((q * z).sum(axis=-1, keepdims=True) - z, axis=0)[-1]
        rvu = rvu_check(trace, 0, eta=0.05, curvature_constant=64.0)
        assert rvu.regret == float(gains.max(axis=-1).sum())

    @pytest.mark.parametrize("dynamics", ["sl-omwu", "bm-omwu", "arbo", "omwu"])
    def test_summary_reports_are_the_report_functions(self, dynamics):
        # The run's accounting feeds each report's block steps; the report functions run the same steps.
        config = RunConfig(dynamics=dynamics, horizon=300, eta=0.05, players=3,
                           action_counts=(3, 4, 3), smoothness_order=2, rvu_constant=64.0,
                           variance_budget=1.0)
        result = run_dynamics(config)
        trace, reports = result.trace, result.summary["diagnostics"]
        for i in range(3):
            smooth = smoothness_report(trace, i, 2)
            for got, want in zip(result.smoothness[i].observed, smooth.observed, strict=True):
                assert got.tobytes() == want.tobytes()
            assert reports["smoothness"][i] == smooth.to_dict()
            assert reports["rvu"][i] == rvu_check(trace, i, 0.05, 64.0).to_dict()
            assert reports["variance_check"][i] == check_variance_inequality(trace, i, 1.0).to_dict()

    def test_summary_builds_each_players_stream_once(self, monkeypatch):
        built = []
        # The round loop builds no stream: the reports' adapter, in diagnostics, is its one reader.
        monkeypatch.setattr(diagnostics, "inner_stream",
                            lambda *a: built.append(a) or inner_stream(*a))
        config = RunConfig(dynamics="arbo", horizon=300, eta=0.05, players=3,
                           action_counts=(3, 4, 3), smoothness_order=3, rvu_constant=64.0,
                           variance_budget=1.0)
        summary = run_dynamics(config).summary
        # Once per block of the run: rounds 1-256, then 257-300.
        blocks = [slice(0, 256), slice(256, 300)]
        assert [a[1:] for a in built] == [(i, b) for b in blocks for i in range(3)]
        assert {"smoothness", "rvu", "variance_check"} <= summary["diagnostics"].keys()

    def test_ratio_reads_the_inner_distributions_alone(self, monkeypatch):
        trace = ragged_run("arbo", (3, 3), horizon=40).trace
        want = running_max_ratio(trace, 0)

        def fail(x, loss):
            raise AssertionError("the ratio computed inner losses")

        monkeypatch.setattr(ArboDynamics, "inner_losses", staticmethod(fail))
        assert running_max_ratio(trace, 0).tobytes() == want.tobytes()
