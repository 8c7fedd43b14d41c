import math

import numpy as np
import pytest

from ce_dynamics.errors import DimensionMismatchError, ValidationError
from ce_dynamics.games import expected_loss, random_game
from ce_dynamics.markov_tree import _gth_stationary, stationary_residual
from ce_dynamics.omwu import Omwu
from ce_dynamics.swap_dynamics import BmOmwu


class CopyOracle:
    """The n-copy Blum-Mansour construction, kept as a slow reference.

    n independent 1-D learners; copy g proposes row g of Q and is fed
    x[g] * loss, where x is the stationary distribution of the stacked rows.
    """

    def __init__(self, n, eta, optimistic=True):
        self.copies = [Omwu(n, eta, optimistic=optimistic) for _ in range(n)]

    def next_strategy(self):
        self.last_matrix = np.stack([copy.next_strategy() for copy in self.copies])
        self.last_strategy = _gth_stationary(self.last_matrix)
        return self.last_strategy

    def observe(self, loss):
        for g, copy in enumerate(self.copies):
            copy.observe(self.last_strategy[g] * loss)

    @property
    def inner_loss(self):
        return np.stack([copy.last_loss for copy in self.copies])

    def reset(self, eta):
        for copy in self.copies:
            copy.reset(eta)


class TestNextStrategy:
    def test_first_round_uniform(self):
        bm = BmOmwu(4, eta=0.1)
        np.testing.assert_allclose(bm.next_strategy(), np.full(4, 0.25), atol=1e-12)
        np.testing.assert_allclose(bm.last_matrix, np.full((4, 4), 0.25), atol=1e-15)

    def test_identical_copies_yield_their_row(self):
        # When every copy proposes the same distribution q, the chain is
        # rank-one and q itself is stationary.
        bm = BmOmwu(3, eta=0.3)
        loss = np.array([0.9, 0.1, 0.4])
        for _ in range(5):
            bm.next_strategy()
            # Feed every copy the same unscaled loss to keep them in lockstep.
            bm.learner.observe(np.tile(loss, (3, 1)))
        x = bm.next_strategy()
        q = bm.last_matrix[0]
        np.testing.assert_array_equal(bm.last_matrix, np.tile(q, (3, 1)))
        np.testing.assert_allclose(x, q, atol=1e-12)

    def test_fixed_point_residual_every_round(self):
        game = random_game(2, (5, 5), seed=4)
        players = [BmOmwu(5, eta=0.2) for _ in range(2)]
        for _ in range(40):
            profile = [bm.next_strategy() for bm in players]
            for i, bm in enumerate(players):
                assert stationary_residual(bm.last_matrix, bm.last_strategy) <= 1e-10
                assert bm.last_matrix.min() > 0.0
                np.testing.assert_allclose(bm.last_matrix.sum(axis=1), np.ones(5), atol=1e-12)
                bm.observe(expected_loss(game, profile, i))


class TestObserve:
    def test_zero_loss_keeps_strategy(self):
        bm = BmOmwu(3, eta=0.4)
        x0 = bm.next_strategy()
        bm.observe(np.zeros(3))
        np.testing.assert_allclose(bm.next_strategy(), x0, atol=1e-14)

    def test_scaled_loss_bound(self):
        bm = BmOmwu(3, eta=0.2)
        x = bm.next_strategy()
        ell = np.array([1.0, 0.3, 0.8])
        bm.observe(ell)
        for g, row in enumerate(bm.inner_loss):
            assert np.abs(row).max() <= x[g] * np.abs(ell).max() + 1e-15

    def test_decomposition_identity(self):
        game = random_game(2, (4, 4), seed=8)
        players = [BmOmwu(4, eta=0.15) for _ in range(2)]
        for _ in range(50):
            profile = [bm.next_strategy() for bm in players]
            losses = [expected_loss(game, profile, i) for i in range(2)]
            for i, bm in enumerate(players):
                assert bm.loss_decomposition_residual(losses[i]) <= 1e-12
                bm.observe(losses[i])

    def test_rejects_out_of_range(self):
        bm = BmOmwu(2, eta=0.1)
        bm.next_strategy()
        with pytest.raises(ValidationError):
            bm.observe(np.array([-0.5, 0.2]))

    def test_rejects_wrong_shape(self):
        bm = BmOmwu(3, eta=0.1)
        bm.next_strategy()
        with pytest.raises(DimensionMismatchError):
            bm.observe(np.array([0.1, 0.2]))

    def test_rejects_observe_before_next(self):
        bm = BmOmwu(2, eta=0.1)
        with pytest.raises(ValidationError):
            bm.observe(np.array([0.1, 0.2]))


class TestCopyStability:
    def test_copies_multiplicatively_close(self):
        eta = 1 / 64
        game = random_game(2, (4, 4), seed=12)
        players = [BmOmwu(4, eta=eta) for _ in range(2)]
        prev = [None, None]
        worst = 1.0
        for _ in range(120):
            profile = [bm.next_strategy() for bm in players]
            for i, bm in enumerate(players):
                if prev[i] is not None:
                    ratio = bm.last_matrix / prev[i]
                    worst = max(worst, float(ratio.max()), float((1 / ratio).max()))
                prev[i] = bm.last_matrix
                bm.observe(expected_loss(game, profile, i))
        assert worst <= math.exp(6 * eta)


class TestAgainstCopyOracle:
    @pytest.mark.parametrize(
        "counts, eta, optimistic",
        [((4, 4), 0.3, True), ((5, 5), 5.0, True), ((3, 3, 3), 0.2, True), ((4, 4), 0.3, False)],
    )
    def test_bitwise_equal_to_n_copies(self, counts, eta, optimistic):
        # Self-play with the (n, n) learner and with the n-copy oracle side by
        # side; every round, and across a mid-run reset, the played matrix,
        # the strategy and the copies' losses must agree to the last bit.
        game = random_game(len(counts), counts, seed=5)
        players = [BmOmwu(n, eta, optimistic=optimistic) for n in counts]
        oracles = [CopyOracle(n, eta, optimistic=optimistic) for n in counts]
        for t in range(60):
            if t == 30:
                for bm, oracle in zip(players, oracles):
                    bm.reset(eta / 2)
                    oracle.reset(eta / 2)
            profile = [bm.next_strategy() for bm in players]
            reference = [oracle.next_strategy() for oracle in oracles]
            for i, (bm, oracle) in enumerate(zip(players, oracles)):
                np.testing.assert_array_equal(bm.last_matrix, oracle.last_matrix)
                np.testing.assert_array_equal(profile[i], reference[i])
            for i, (bm, oracle) in enumerate(zip(players, oracles)):
                loss = expected_loss(game, profile, i)
                bm.observe(loss)
                oracle.observe(loss)
                np.testing.assert_array_equal(bm.inner_loss, oracle.inner_loss)
        assert all(bm.eta == eta / 2 for bm in players)
