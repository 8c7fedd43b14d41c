"""(Optimistic) multiplicative weights over a finite index set.

The iterate is always recomputed from the cumulative loss vector in shifted
log-space rather than by iterating the multiplicative recursion; this avoids
compounding floating-point drift round over round, and the negated rates, kept at
the state's shape, make each step a same-shape ufunc in place. With optimism
enabled the most recent loss is counted twice, the standard one-step prediction.

Each dynamics is one such learner composed with a map to a strategy
(:class:`Composite`). One rate per member stacks independent learners on a
leading member axis, so players of equal action counts share one state and
one step. Feedback comes checked through the public ``observe``, or
unchecked through ``_update`` where the loss is valid by construction.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ValidationError

# Exponentials are strictly positive mathematically, but exp(z - z_max)
# underflows to exact zero past ~745 in the exponent spread. Flooring keeps
# the iterate interior, which downstream fixed-point solvers rely on; the
# perturbation is far below every tolerance in the package. exp(-690) > 2.2e-300, so
# exponents that spread no further than FLOOR_FREE_SPREAD never meet the floor.
_WEIGHT_FLOOR, FLOOR_FREE_SPREAD = 1e-300, 690.0
# Float slack on the [loss_low, 1] loss range the composite learners accept.
LOSS_RANGE_ATOL = 1e-9


class Omwu:
    """Multiplicative-weights learners on a ``dim``-simplex.

    ``dim`` is an int for one learner, or a shape ``(rows, dim)`` for that
    many independent learners held as one state, each row its own simplex:
    the softmax, its max-shift and the weight floor act along the last axis,
    and losses and iterates have the shape of the state. An array of B rates
    ``eta`` stacks B independent members on a leading axis: state (B, *dim).

    State is the cumulative loss and the last observed loss (zero before any
    feedback). ``next_strategy`` only records the iterate it returns;
    ``observe`` mutates. The first strategy is exactly uniform.

    Every learner in the package exposes its inner learner's view through
    ``inner_dim``, ``inner_dist`` (the last played inner distribution) and
    ``inner_loss`` (the last observed inner loss), both (*members, rows,
    inner_dim). Here the inner learners are the rows of the state, fed the loss as is.
    """

    def __init__(self, dim: int | tuple[int, int], eta, optimistic: bool = True):
        dims = tuple(int(d) for d in np.atleast_1d(dim))
        if not 1 <= len(dims) <= 2 or min(dims) < 1:
            raise ValidationError(f"dimension must be positive, got {dim}")
        self.members = np.shape(eta)
        self.shape = (*self.members, *dims)
        self.dim = dims[-1]
        self.optimistic = bool(optimistic)
        self.eta, self.cumulative_loss = eta, np.zeros(self.shape)
        self.last_loss = self.cumulative_loss
        self.reset(eta)

    inner_dim = property(lambda self: self.dim)
    inner_dist = property(lambda self: self.last_strategy.reshape(*self.members, -1, self.dim))
    inner_loss = property(lambda self: self.last_loss.reshape(*self.members, -1, self.dim))
    inner_losses = staticmethod(lambda x, loss: loss)
    inner_span, floored = 1.0, True  # inner losses' range width for losses in [0, 1]; floor on

    def next_strategy(self) -> np.ndarray:
        """Current iterate: softmax of -eta * (cumulative + predicted) losses."""
        z = self.cumulative_loss + self.last_loss if self.optimistic else self.cumulative_loss.copy()
        z *= self._neg_eta  # rates of z's shape: every step runs in place, with the methods' ufuncs
        z -= np.maximum.reduce(z, axis=-1, keepdims=True)
        np.exp(z, out=z)
        if self.floored:
            np.maximum(z, _WEIGHT_FLOOR, out=z)
        self.last_strategy = np.divide(z, np.add.reduce(z, axis=-1, keepdims=True), out=z)
        return self.last_strategy

    def observe(self, loss) -> None:
        """Feedback from outside: a finite loss of the state's shape, copied."""
        loss = np.array(loss, dtype=float)
        if loss.shape != self.shape:
            raise DimensionMismatchError(
                f"loss has shape {loss.shape}, learner has shape {self.shape}"
            )
        if not np.all(np.isfinite(loss)):
            raise ValidationError("loss vector has non-finite entries")
        self._update(loss)

    def _update(self, loss: np.ndarray) -> None:
        """Unchecked feedback; ``loss`` is kept as ``last_loss`` and must not be mutated."""
        self.cumulative_loss = self.cumulative_loss + loss
        self.last_loss = loss

    def reset(self, eta=None, member: int | None = None) -> None:
        """Forget all history, optionally switching the learning rate.

        With ``member``, only that member's rows and rate start over.
        """
        rows = ... if member is None else member
        if eta is not None:
            if not np.all(np.asarray(eta) > 0.0):
                raise ValidationError(f"learning rate must be positive, got {eta}")
            rates = np.array(np.broadcast_to(self.eta, self.members), dtype=float)
            rates[rows] = eta
            self.eta = rates if self.members else float(rates)
            # Each member's rate over all its entries, so the softmax multiplies by its own shape.
            trailing = (1,) * (len(self.shape) - rates.ndim)
            self._neg_eta = -np.broadcast_to(rates.reshape(rates.shape + trailing), self.shape)
        # Zeroed copies, not in place: the last loss belongs to the caller.
        self.cumulative_loss, self.last_loss = self.cumulative_loss.copy(), self.last_loss.copy()
        self.cumulative_loss[rows] = self.last_loss[rows] = 0.0
        if member is None:
            self.last_strategy = None


class Composite:
    """An :class:`Omwu` ``learner`` composed with a map to a strategy on n actions.

    Subclasses define ``next_strategy``, ``observe`` as ``self._update(self._checked(loss))``,
    each public method in its own body so it can be wrapped on the class, and
    the static ``inner_losses(x, loss)`` (the learner's loss, any leading axes), which an
    instance binds to n where it reads tables; a stationary solve's ``_next_strategy`` skips
    its residual gate. ``trace_field`` is the trace record of the inner distribution,
    ``loss_low`` the loss floor, ``inner_span`` the inner losses' range.
    """

    loss_low = -1.0

    def __init__(self, n: int, learner: Omwu):
        self.n = int(n)
        self.learner = learner
        self.last_strategy: np.ndarray | None = None

    eta = property(lambda self: self.learner.eta)
    inner_dim = property(lambda self: self.learner.inner_dim)
    inner_dist = property(lambda self: self.learner.inner_dist)
    inner_loss = property(lambda self: self.learner.inner_loss)

    def _checked(self, loss) -> np.ndarray:
        """An action-space loss from outside: after a strategy, (*members, n), finite, in range."""
        if self.last_strategy is None:
            raise ValidationError("observe called before next_strategy")
        loss = np.asarray(loss, dtype=float)
        shape = (*self.learner.members, self.n)
        if loss.shape != shape:
            raise DimensionMismatchError(f"loss has shape {loss.shape}, expected {shape}")
        if not np.all(np.isfinite(loss)):
            raise ValidationError("loss vector has non-finite entries")
        low, high = loss.min(), loss.max()
        if low < self.loss_low - LOSS_RANGE_ATOL or high > 1.0 + LOSS_RANGE_ATOL:
            raise ValidationError(
                f"loss entries must lie in [{self.loss_low:g}, 1], got range [{low}, {high}]"
            )
        return loss

    def _update(self, loss: np.ndarray) -> None:
        self.learner._update(self.inner_losses(self.last_strategy, loss))

    def reset(self, eta=None, member: int | None = None) -> None:
        self.learner.reset(eta, member)
        if member is None:
            self.last_strategy = None
