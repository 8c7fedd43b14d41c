"""Swap-regret learner: n multiplicative-weights copies behind a fixed point.

The classic Blum-Mansour reduction. Copy g proposes row g of a transition
matrix; the played strategy is that matrix's stationary distribution; copy g
then receives the round's loss scaled by the probability mass x[g] the fixed
point placed on it. The n copies are the rows of one (n, n) OMWU state, so a
round is one row-wise softmax, one fixed-point solve and one outer-product
update. :class:`BmOmwu` is the :class:`~ce_dynamics.omwu.Stationary` learner
whose chain is that state itself (``diagonal``), and which shares SL's steps
and residual gate; its action-space losses lie in [0, 1].
"""

from __future__ import annotations

import numpy as np

from .omwu import Composite, Stationary


class BmOmwu(Stationary):
    """One player's swap-regret state: the (n, n) copy learner, whose rows are the chain."""

    loss_low, trace_field, inner_span, diagonal = 0.0, "copy_dists", 1.0, True
    next_strategy, observe = Stationary.next_strategy, Composite.observe

    # The copies' last rows and losses: the played matrix, and row g = x[g] * loss.
    last_matrix = property(lambda self: self.learner.last_strategy)

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
