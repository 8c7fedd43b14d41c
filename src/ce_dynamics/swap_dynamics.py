"""Swap-regret learner: n multiplicative-weights copies behind a fixed point.

The classic Blum-Mansour reduction. Copy g proposes row g of a transition
matrix; the played strategy is that matrix's stationary distribution; copy g
then receives the round's loss scaled by the probability mass x[g] the fixed
point placed on it. The n copies are the rows of one (n, n) OMWU state, so a
round is one row-wise softmax, one fixed-point solve and one outer-product
update.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .markov_tree import _gth_stationary
from .omwu import Omwu, check_bounded_loss


class BmOmwu:
    """One player's swap-regret state: the (n, n) copy learner plus the fixed point."""

    def __init__(self, n: int, eta: float, optimistic: bool = True):
        if n < 2:
            raise ValidationError(f"need at least 2 actions, got {n}")
        self.n = int(n)
        self.learner = Omwu((self.n, self.n), eta, optimistic=optimistic)
        self.last_strategy: np.ndarray | None = None

    eta = property(lambda self: self.learner.eta)
    inner_dim = property(lambda self: self.n)
    # The copies' last rows and losses: the played matrix, and row g = x[g] * loss.
    last_matrix = property(lambda self: self.learner.last_strategy)
    inner_dist = property(lambda self: self.learner.inner_dist)
    inner_loss = property(lambda self: self.learner.inner_loss)

    def next_strategy(self) -> np.ndarray:
        x = _gth_stationary(self.learner.next_strategy())
        self.last_strategy = x
        return x

    def observe(self, loss) -> None:
        if self.last_strategy is None:
            raise ValidationError("observe called before next_strategy")
        loss = check_bounded_loss(loss, self.n, low=0.0)
        self.learner.observe(np.outer(self.last_strategy, loss))

    def loss_decomposition_residual(self, loss) -> float:
        """|sum_g x[g] <Q[g], loss> - <x, loss>|; zero when x is the fixed point."""
        loss = np.asarray(loss, dtype=float)
        distributed = float(self.last_strategy @ (self.last_matrix @ loss))
        direct = float(self.last_strategy @ loss)
        return abs(distributed - direct)

    def reset(self, eta: float | None = None) -> None:
        self.learner.reset(eta)
        self.last_strategy = None
