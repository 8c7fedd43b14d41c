"""Swap-regret learner: n multiplicative-weights copies behind a fixed point.

The classic Blum-Mansour reduction. Copy g proposes row g of a transition
matrix; the played strategy is that matrix's stationary distribution; copy g
then receives the round's loss scaled by the probability mass x[g] the fixed
point placed on it. The n copies are the rows of one (n, n) OMWU state, so a
round is one row-wise softmax, one fixed-point solve and one outer-product
update. :class:`BmOmwu` is a :class:`~ce_dynamics.omwu.Composite` over that
state; its action-space losses lie in [0, 1]. Its public ``next_strategy``
gates each solve by its residual.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .markov_tree import _gth_stationary, check_stationary
from .omwu import Composite, Omwu


class BmOmwu(Composite):
    """One player's swap-regret state: the (n, n) copy learner plus the fixed point."""

    loss_low, trace_field = 0.0, "copy_dists"

    def __init__(self, n: int, eta: float, optimistic: bool = True):
        if n < 2:
            raise ValidationError(f"need at least 2 actions, got {n}")
        super().__init__(n, Omwu((n, n), eta, optimistic=optimistic))

    # The copies' last rows and losses: the played matrix, and row g = x[g] * loss.
    last_matrix = property(lambda self: self.learner.last_strategy)

    def next_strategy(self) -> np.ndarray:
        Q = self.learner.next_strategy()
        self.last_strategy = check_stationary(Q, _gth_stationary(Q))
        return self.last_strategy

    def _next_strategy(self) -> np.ndarray:
        """Unchecked step of :meth:`next_strategy`."""
        self.last_strategy = _gth_stationary(self.learner.next_strategy())
        return self.last_strategy

    def observe(self, loss) -> None:
        self._update(self._checked(loss))

    @staticmethod
    def inner_losses(x: np.ndarray, loss: np.ndarray) -> np.ndarray:
        """Copy g's loss x[g] * loss, over any leading axes."""
        return x[..., :, None] * loss[..., None, :]

    def loss_decomposition_residual(self, loss) -> float:
        """The last round's residual, the worst member's, by :func:`decomposition_residuals`."""
        loss = np.asarray(loss, dtype=float)
        return float(decomposition_residuals(self.last_matrix, self.last_strategy, loss).max())


def decomposition_residuals(Q: np.ndarray, x: np.ndarray, loss: np.ndarray) -> np.ndarray:
    """|sum_g x[g] <Q[g], loss> - <x, loss>| per leading index; zero when x is Q's fixed point.

    ``Q`` of shape (..., n, n), ``x`` and ``loss`` of shape (..., n): a run's
    recorded copy matrices, strategies and losses give one residual per round.
    """
    x = x[..., None, :]
    loss = loss[..., :, None]
    return np.abs(x @ (Q @ loss) - x @ loss)[..., 0, 0]
