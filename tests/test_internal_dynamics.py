import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ce_dynamics import runner
from ce_dynamics.errors import ValidationError
from ce_dynamics.games import expected_loss, random_game
from ce_dynamics.internal_dynamics import (
    ArboDynamics,
    EquivalenceReport,
    SlOmwu,
    ordered_pairs,
    pair_loss_vector,
    transition_from_pairs,
    verify_equivalence,
)
from ce_dynamics.markov_tree import stationary_residual, tree_theorem_stationary


class TestPairSpace:
    def test_pair_order(self):
        assert ordered_pairs(3) == ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))

    def test_pair_loss_hand_values(self):
        # Deterministic play on action 0 with loss (0, 1): only mass moved
        # off action 0 carries signal.
        L = pair_loss_vector(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        np.testing.assert_array_equal(L, [1.0, 0.0])

    def test_constant_loss_gives_zero(self):
        L = pair_loss_vector(np.array([0.2, 0.5, 0.3]), np.full(3, 0.7))
        np.testing.assert_array_equal(L, np.zeros(6))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_pair_loss_bounded(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        w = rng.uniform(0, 1, n) + 1e-9
        x = w / w.sum()
        ell = rng.uniform(0, 1, n)
        assert np.abs(pair_loss_vector(x, ell)).max() <= 1.0

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    @pytest.mark.parametrize("lead", [(), (1,), (3,), (4, 2)])
    def test_bitwise_equal_to_the_indexed_formula(self, n, lead):
        # The matrix form adds exact products to zeros; a BLAS that summed otherwise, or
        # let a zero's sign through, fails here. Ties and zeros come from a coarse grid.
        rng = np.random.default_rng(100 * n + len(lead))
        src = np.array([j for j, _ in ordered_pairs(n)])
        dst = np.array([k for _, k in ordered_pairs(n)])
        for _ in range(40):
            x = rng.dirichlet(np.ones(n), size=lead)
            x[rng.random(x.shape) < 0.1] = 0.0
            ell = rng.uniform(-1.0, 1.0, (*lead, n))
            ell[rng.random(ell.shape) < 0.5] = rng.choice([0.0, 0.25, 1.0, -0.5])
            want = x[..., src] * (ell[..., dst] - ell[..., src])
            assert pair_loss_vector(x, ell).tobytes() == want.tobytes()

    def test_transition_matrix_shape(self):
        p = np.full(6, 1.0 / 6)
        M = transition_from_pairs(p, 3)
        np.testing.assert_allclose(M.sum(axis=1), np.ones(3), atol=1e-15)
        assert M.min() > 0.0
        # Off-diagonal (j, k) carries exactly the mass of pair j -> k.
        for idx, (j, k) in enumerate(ordered_pairs(3)):
            assert M[j, k] == p[idx]

    def test_uniform_pairs_have_uniform_fixed_point(self):
        from ce_dynamics.markov_tree import tree_theorem_stationary

        for n in (2, 3, 4):
            d = n * (n - 1)
            M = transition_from_pairs(np.full(d, 1.0 / d), n)
            np.testing.assert_allclose(
                tree_theorem_stationary(M), np.full(n, 1.0 / n), atol=1e-12
            )

    def test_two_action_pair_chain_closed_form(self):
        # p = (alpha, 1 - alpha) over the two ordered pairs yields the
        # two-state chain whose fixed point is (1 - alpha, alpha).
        from ce_dynamics.markov_tree import tree_theorem_stationary

        for alpha in (0.5, 0.3, 0.9):
            M = transition_from_pairs(np.array([alpha, 1 - alpha]), 2)
            np.testing.assert_allclose(
                tree_theorem_stationary(M), [1 - alpha, alpha], atol=1e-12
            )

    def test_concentrated_pair_mass_keeps_positive_diagonal(self):
        p = np.array([1.0 - 1e-300, 1e-300])
        M = transition_from_pairs(p / p.sum(), 2)
        assert M.min() > 0.0


class TestSlOmwu:
    def test_first_round_uniform(self):
        for n in (2, 3, 5):
            sl = SlOmwu(n, eta=0.1)
            np.testing.assert_allclose(sl.next_strategy(), np.full(n, 1.0 / n), atol=1e-12)

    def test_two_action_symmetric(self):
        sl = SlOmwu(2, eta=0.1)
        x = sl.next_strategy()
        np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-12)

    def test_round_residual_invariant(self):
        game = random_game(2, (4, 4), seed=3)
        players = [SlOmwu(4, eta=0.1) for _ in range(2)]
        from ce_dynamics.games import expected_loss

        for _ in range(30):
            profile = [sl.next_strategy() for sl in players]
            for i, sl in enumerate(players):
                M = transition_from_pairs(sl.inner_dist[0], 4)
                assert stationary_residual(M, sl.last_strategy) <= 1e-10
                assert abs(M.sum(axis=1) - 1).max() <= 1e-12
                sl.observe(expected_loss(game, profile, i))

    def test_observe_before_next_rejected(self):
        sl = SlOmwu(3, eta=0.1)
        with pytest.raises(ValidationError):
            sl.observe(np.zeros(3))

    def test_out_of_range_loss_rejected(self):
        sl = SlOmwu(3, eta=0.1)
        sl.next_strategy()
        with pytest.raises(ValidationError):
            sl.observe(np.array([0.0, 0.5, 1.5]))

    def test_strategy_matches_tree_theorem(self):
        rng = np.random.default_rng(0)
        sl = SlOmwu(4, eta=0.2)
        for _ in range(25):
            x = sl.next_strategy()
            oracle = tree_theorem_stationary(transition_from_pairs(sl.inner_dist[0], 4))
            assert np.abs(x - oracle).max() <= 1e-12
            sl.observe(rng.uniform(0, 1, 4))


class TestArboDynamics:
    def test_first_round_uniform(self):
        for n in (2, 3, 4):
            arbo = ArboDynamics(n, eta=0.1)
            np.testing.assert_allclose(arbo.next_strategy(), np.full(n, 1.0 / n), atol=1e-12)

    def test_point_mass_on_tree_gives_root(self):
        arbo = ArboDynamics(3, eta=0.1)
        arbo.next_strategy()
        # Drive almost all mass to the first tree by a huge loss elsewhere.
        loss = np.ones(len(arbo.roots))
        loss[0] = 0.0
        for _ in range(600):
            arbo.learner.observe(loss)
        X = arbo.learner.next_strategy()
        root = arbo.roots[0]
        x = np.bincount(arbo.roots, weights=X, minlength=3)
        assert x[root] > 1 - 1e-6

    def test_marginals_partition_mass(self):
        arbo = ArboDynamics(4, eta=0.3)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = arbo.next_strategy()
            assert abs(x.sum() - arbo.inner_dist.sum()) <= 1e-12
            arbo.observe(rng.uniform(0, 1, 4))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_tree_loss_is_edge_sum(self, n):
        from ce_dynamics.markov_tree import all_arborescences

        arbo = ArboDynamics(n, eta=0.1)
        x = arbo.next_strategy()
        ell = np.array([0.2, 0.9, 0.4, 0.7, 0.1])[:n]
        arbo.observe(ell)
        L = pair_loss_vector(x, ell)
        pairs = {pair: idx for idx, pair in enumerate(ordered_pairs(n))}
        trees = all_arborescences(n)
        # The tables read off the tree theorem's edge index are those of the tree objects.
        roots = np.array([tree.root for tree in trees])
        edge_pairs = np.array([[pairs[e] for e in tree.edges()] for tree in trees], dtype=np.int64)
        for got, want in ((arbo.roots, roots), (arbo.edge_pairs, edge_pairs)):
            assert got.dtype == want.dtype and not got.flags.writeable
            np.testing.assert_array_equal(got, want)
        want = np.array([sum(L[pairs[e]] for e in tree.edges()) for tree in trees])
        np.testing.assert_array_equal(arbo.learner.last_loss, want)
        assert np.abs(want).max() <= 1.0

    def test_size_guard(self):
        with pytest.raises(ValidationError):
            ArboDynamics(6, eta=0.1)


class TestEquivalence:
    def test_single_round_exact(self):
        game = random_game(2, (3, 3), seed=0)
        report = verify_equivalence(game, eta=0.05, horizon=1)
        assert report.max_strategy_deviation <= 1e-15
        assert report.max_proportionality_residual <= 1e-12

    def test_random_game_long_run(self):
        game = random_game(2, (3, 3), seed=5)
        report = verify_equivalence(game, eta=0.01, horizon=200)
        assert report.max_strategy_deviation <= 1e-8
        assert report.max_proportionality_residual <= 1e-8
        assert report.passes(1e-8)

    def test_larger_actions_and_rates(self):
        game = random_game(2, (4, 5), seed=9)
        report = verify_equivalence(game, eta=0.1, horizon=60)
        assert report.max_strategy_deviation <= 1e-8
        assert report.max_proportionality_residual <= 1e-8

    def test_three_players(self):
        game = random_game(3, (3, 3, 3), seed=2)
        report = verify_equivalence(game, eta=0.02, horizon=40)
        assert report.passes(1e-8)

    def test_report_keeps_its_tolerance(self):
        game = random_game(2, (3, 3), seed=0)
        loose = verify_equivalence(game, eta=0.05, horizon=16, tol=1.0)
        strict = verify_equivalence(game, eta=0.05, horizon=16, tol=0.0)
        assert (loose.tol, strict.tol) == (1.0, 0.0)
        assert loose.passes()
        assert strict.passes() is strict.passes(0.0)
        assert strict.passes(1.0)
        assert loose.to_dict() == strict.to_dict()

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_bad_tol_fails_before_any_play(self, monkeypatch, tol):
        # inf would pass every report, nan and -1 fail every one: refused, as the CLI refuses them.
        def refuse(*args):
            raise AssertionError("played")

        monkeypatch.setattr(runner, "play_dynamics", refuse)
        with pytest.raises(ValidationError, match="tol must be non-negative and finite"):
            verify_equivalence(random_game(2, (3, 3), seed=0), eta=0.05, horizon=20, tol=tol)

    def test_action_guard(self):
        game = random_game(2, (6, 3), seed=1)
        with pytest.raises(ValidationError):
            verify_equivalence(game, eta=0.1, horizon=5)

    def test_memory_bounded_on_five_actions(self):
        # 625 trees per player: unblocked, the (T, trees, n-1) edge gather
        # alone is 20 MB at T = 1000.
        game = random_game(2, (5, 5), seed=0)
        tracemalloc.start()
        try:
            report = verify_equivalence(game, eta=0.05, horizon=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passes(1e-8)
        assert peak < 20e6


def reference_equivalence(game, eta, horizon):
    """Slow reference: its own self-play loop, then a round-by-round tree replay per player."""
    m = game.num_players
    sl_players = [SlOmwu(n, eta) for n in game.action_counts]
    strategies = [[] for _ in range(m)]
    pair_dists = [[] for _ in range(m)]
    loss_streams = [[] for _ in range(m)]
    for _ in range(horizon):
        profile = [sl.next_strategy() for sl in sl_players]
        losses = [expected_loss(game, profile, i) for i in range(m)]
        for i in range(m):
            strategies[i].append(profile[i])
            pair_dists[i].append(sl_players[i].inner_dist[0])
            loss_streams[i].append(losses[i])
        for i in range(m):
            sl_players[i].observe(losses[i])

    deviation = np.zeros(horizon)
    residual = np.zeros(horizon)
    for i in range(m):
        arbo = ArboDynamics(game.action_counts[i], eta)
        for t in range(horizon):
            x_tree = arbo.next_strategy()
            deviation[t] = max(deviation[t], float(np.abs(x_tree - strategies[i][t]).max()))
            log_ratio = (
                np.log(pair_dists[i][t])[arbo.edge_pairs].sum(axis=1)
                - np.log(arbo.inner_dist[0])
            )
            residual[t] = max(residual[t], float(np.abs(log_ratio - log_ratio[0]).max()))
            arbo.observe(loss_streams[i][t])

    return EquivalenceReport(
        horizon=horizon,
        eta=eta,
        max_strategy_deviation=float(deviation.max()),
        max_proportionality_residual=float(residual.max()),
        strategy_deviation_per_round=deviation,
        proportionality_residual_per_round=residual,
    )


class TestAgainstSelfPlayOracle:
    @pytest.mark.parametrize(
        "players, counts, seed, eta, horizon",
        [
            (2, (3, 3), 5, 0.01, 200),
            (2, (4, 5), 9, 0.1, 60),
            (3, (3, 3, 3), 2, 0.02, 40),
            (2, (3, 3), 7, 5.0, 100),
            (2, (3, 3), 0, 0.05, 1),
            # Stacked replays: members of one tree learner, and a lone member beside them.
            (3, (3, 4, 3), 1, 0.05, 300),
            (3, (2, 2, 2), 4, 0.1, 300),
            (2, (4, 4), 6, 0.05, 257),
        ],
    )
    def test_report_bitwise_equal(self, players, counts, seed, eta, horizon):
        game = random_game(players, counts, seed=seed)
        got = verify_equivalence(game, eta, horizon)
        want = reference_equivalence(game, eta, horizon)
        assert got.to_dict() == want.to_dict()
        assert got.passes()
        for name in ("strategy_deviation_per_round", "proportionality_residual_per_round"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_guards_fire_before_play(self):
        with pytest.raises(ValidationError):
            verify_equivalence(random_game(2, (3, 3), seed=0), eta=0.1, horizon=0)
        with pytest.raises(ValidationError):
            verify_equivalence(random_game(2, (3, 3), seed=0), eta=0.0, horizon=5)
