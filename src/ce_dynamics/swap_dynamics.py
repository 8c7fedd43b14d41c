"""Swap-regret learner: n multiplicative-weights copies behind a fixed point.

The classic Blum-Mansour reduction. Copy g proposes row g of a transition
matrix; the played strategy is that matrix's stationary distribution; copy g
then receives the round's loss scaled by the probability mass x[g] the fixed
point placed on it.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .markov_tree import _gth_stationary
from .omwu import Omwu

LOSS_RANGE_ATOL = 1e-9


class BmOmwu:
    """One player's swap-regret state: n inner learners plus the fixed point."""

    def __init__(self, n: int, eta: float, optimistic: bool = True):
        if n < 2:
            raise ValidationError(f"need at least 2 actions, got {n}")
        self.n = int(n)
        self.copies = [Omwu(n, eta, optimistic=optimistic) for _ in range(n)]
        self.last_strategy: np.ndarray | None = None
        self.last_matrix: np.ndarray | None = None

    eta = property(lambda self: self.copies[0].eta)
    inner_dim = property(lambda self: self.n)
    # The copies' last rows and losses: the played matrix, and row g = x[g] * loss.
    inner_dist = property(lambda self: self.last_matrix)
    inner_loss = property(lambda self: np.stack([copy.last_loss for copy in self.copies]))

    def next_strategy(self) -> np.ndarray:
        Q = np.stack([copy.next_strategy() for copy in self.copies])
        x = _gth_stationary(Q)
        self.last_matrix = Q
        self.last_strategy = x
        return x

    def observe(self, loss) -> None:
        if self.last_strategy is None:
            raise ValidationError("observe called before next_strategy")
        loss = np.asarray(loss, dtype=float)
        if loss.shape != (self.n,):
            raise ValidationError(f"loss has shape {loss.shape}, expected ({self.n},)")
        if not np.all(np.isfinite(loss)):
            raise ValidationError("loss vector has non-finite entries")
        if loss.min() < -LOSS_RANGE_ATOL or loss.max() > 1.0 + LOSS_RANGE_ATOL:
            raise ValidationError(
                f"loss entries must lie in [0, 1], got range "
                f"[{loss.min()}, {loss.max()}]"
            )
        for g, copy in enumerate(self.copies):
            copy.observe(self.last_strategy[g] * loss)

    def loss_decomposition_residual(self, loss) -> float:
        """|sum_g x[g] <Q[g], loss> - <x, loss>|; zero when x is the fixed point."""
        loss = np.asarray(loss, dtype=float)
        distributed = float(self.last_strategy @ (self.last_matrix @ loss))
        direct = float(self.last_strategy @ loss)
        return abs(distributed - direct)

    def reset(self, eta: float | None = None) -> None:
        for copy in self.copies:
            copy.reset(eta)
        self.last_strategy = None
        self.last_matrix = None
