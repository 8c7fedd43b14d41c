"""(Optimistic) multiplicative weights over a finite index set.

The iterate is always recomputed from the cumulative loss vector in shifted
log-space rather than by iterating the multiplicative recursion; this avoids
compounding floating-point drift round over round. With optimism enabled the
most recent loss is counted twice, which is the standard one-step prediction.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ValidationError

# Exponentials are strictly positive mathematically, but exp(z - z_max)
# underflows to exact zero past ~745 in the exponent spread. Flooring keeps
# the iterate interior, which downstream fixed-point solvers rely on; the
# perturbation is far below every tolerance in the package.
_WEIGHT_FLOOR = 1e-300
# Float slack on the [low, 1] loss range the composite learners accept.
LOSS_RANGE_ATOL = 1e-9


def check_bounded_loss(loss, n: int, low: float) -> np.ndarray:
    """A composite learner's action-space loss: shape (n,), finite, entries in [low, 1]."""
    loss = np.asarray(loss, dtype=float)
    if loss.shape != (n,):
        raise DimensionMismatchError(f"loss has shape {loss.shape}, expected ({n},)")
    if not np.all(np.isfinite(loss)):
        raise ValidationError("loss vector has non-finite entries")
    if loss.min() < low - LOSS_RANGE_ATOL or loss.max() > 1.0 + LOSS_RANGE_ATOL:
        raise ValidationError(
            f"loss entries must lie in [{low:g}, 1], got range [{loss.min()}, {loss.max()}]"
        )
    return loss


class Omwu:
    """Multiplicative-weights learners on a ``dim``-simplex.

    ``dim`` is an int for one learner, or a shape ``(rows, dim)`` for that
    many independent learners held as one state, each row its own simplex:
    the softmax, its max-shift and the weight floor act along the last axis,
    and losses and iterates have the shape of the state.

    State is the cumulative loss, the last observed loss (zero before any
    feedback), and the step counter. ``next_strategy`` only records the
    iterate it returns; ``observe`` mutates. The first strategy is exactly
    uniform.

    Every learner in the package exposes its inner learner's view through
    ``inner_dim``, ``inner_dist`` (the last played inner distribution) and
    ``inner_loss`` (the last observed inner loss), both (rows, inner_dim).
    Here the inner learners are the rows of the state.
    """

    def __init__(self, dim: int | tuple[int, int], eta: float, optimistic: bool = True):
        self.shape = tuple(int(d) for d in np.atleast_1d(dim))
        if not 1 <= len(self.shape) <= 2 or min(self.shape) < 1:
            raise ValidationError(f"dimension must be positive, got {dim}")
        if not eta > 0.0:
            raise ValidationError(f"learning rate must be positive, got {eta}")
        self.dim = self.shape[-1]
        self.eta = float(eta)
        self.optimistic = bool(optimistic)
        self.reset()

    inner_dim = property(lambda self: self.dim)
    inner_dist = property(lambda self: self.last_strategy.reshape(-1, self.dim))
    inner_loss = property(lambda self: self.last_loss.reshape(-1, self.dim))

    def next_strategy(self) -> np.ndarray:
        """Current iterate: softmax of -eta * (cumulative + predicted) losses."""
        z = self.cumulative_loss + self.last_loss if self.optimistic else self.cumulative_loss
        z = -self.eta * z
        z = z - z.max(axis=-1, keepdims=True)
        w = np.maximum(np.exp(z), _WEIGHT_FLOOR)
        self.last_strategy = w / w.sum(axis=-1, keepdims=True)
        return self.last_strategy

    def observe(self, loss) -> None:
        loss = np.asarray(loss, dtype=float)
        if loss.shape != self.shape:
            raise DimensionMismatchError(
                f"loss has shape {loss.shape}, learner has shape {self.shape}"
            )
        if not np.all(np.isfinite(loss)):
            raise ValidationError("loss vector has non-finite entries")
        self.cumulative_loss = self.cumulative_loss + loss
        self.last_loss = loss.copy()
        self.step += 1

    def reset(self, eta: float | None = None) -> None:
        """Forget all history, optionally switching the learning rate."""
        if eta is not None:
            if not eta > 0.0:
                raise ValidationError(f"learning rate must be positive, got {eta}")
            self.eta = float(eta)
        self.cumulative_loss = np.zeros(self.shape)
        self.last_loss = np.zeros(self.shape)
        self.last_strategy = None
        self.step = 0
