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


class Omwu:
    """One multiplicative-weights learner on a ``dim``-simplex.

    State is the cumulative loss vector, the last observed loss (zero before
    any feedback), and the step counter. ``next_strategy`` only records the
    iterate it returns; ``observe`` mutates. The first strategy is exactly
    uniform.

    Every learner in the package exposes its inner learner's view through
    ``inner_dim``, ``inner_dist`` (the last played inner distribution) and
    ``inner_loss`` (the last observed inner loss), both (rows, inner_dim).
    Here the inner learner is the learner itself, with one row.
    """

    def __init__(self, dim: int, eta: float, optimistic: bool = True):
        if dim < 1:
            raise ValidationError(f"dimension must be positive, got {dim}")
        if not eta > 0.0:
            raise ValidationError(f"learning rate must be positive, got {eta}")
        self.dim = int(dim)
        self.eta = float(eta)
        self.optimistic = bool(optimistic)
        self.cumulative_loss = np.zeros(self.dim)
        self.last_loss = np.zeros(self.dim)
        self.last_strategy: np.ndarray | None = None
        self.step = 0

    inner_dim = property(lambda self: self.dim)
    inner_dist = property(lambda self: self.last_strategy[None, :])
    inner_loss = property(lambda self: self.last_loss[None, :])

    def next_strategy(self) -> np.ndarray:
        """Current iterate: softmax of -eta * (cumulative + predicted) losses."""
        z = self.cumulative_loss + self.last_loss if self.optimistic else self.cumulative_loss
        z = -self.eta * z
        z = z - z.max()
        w = np.maximum(np.exp(z), _WEIGHT_FLOOR)
        self.last_strategy = w / w.sum()
        return self.last_strategy

    def observe(self, loss) -> None:
        loss = np.asarray(loss, dtype=float)
        if loss.shape != (self.dim,):
            raise DimensionMismatchError(
                f"loss has shape {loss.shape}, learner has dimension {self.dim}"
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
        self.cumulative_loss = np.zeros(self.dim)
        self.last_loss = np.zeros(self.dim)
        self.last_strategy = None
        self.step = 0
