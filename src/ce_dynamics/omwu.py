"""(Optimistic) multiplicative weights over a finite index set.

The iterate is always recomputed from the cumulative loss vector in log-space (shifted
where its range needs it) rather than by iterating the multiplicative recursion; this
avoids compounding floating-point drift round over round, and the negated rates, kept at
the state's shape, make each step a same-shape ufunc in place. With optimism enabled the
most recent loss is counted twice, the standard one-step prediction.

Each dynamics is one such learner composed with a map to a strategy (:class:`Composite`),
or, as ``omwu`` and ``mwu``, the learner alone, its own ``learner`` with the strategies as
its ``trace_field``; SL and BM play the stationary distribution of the iterate read as a chain
(:class:`Stationary`). One rate per member stacks independent learners on a leading member
axis, so players of equal action counts share one state and one step. Feedback comes checked
through ``observe`` (:func:`_checked`), or unchecked through ``_update`` where it is valid.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .markov_tree import _gth_solver, _pair_rates, check_stationary

# Exponentials are strictly positive mathematically, but exp(z - z_max)
# underflows to exact zero past ~745 in the exponent spread. Flooring keeps
# the iterate interior, which downstream fixed-point solvers rely on; the
# perturbation is far below every tolerance in the package. exp(-690) > 2.2e-300 and
# exp(690) is finite, so exponents within FLOOR_FREE_SPREAD of 0 need no shift or floor.
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

    A row's step skips the max-shift and the floor while eta (k + 1) inner_span, after k
    updates since its reset, is at most ``FLOOR_FREE_SPREAD`` (``inner_span``: the width of
    its losses' range for action losses in [0, 1], a range that holds 0 at an end or its
    middle) and ``observe`` fed it no loss outside [0, 1] (a composite's action loss).

    Every learner in the package exposes its inner learner's view through ``inner_dim``,
    ``inner_dist`` (the last played inner distribution) and ``inner_loss`` (the last observed
    inner loss), both (*members, rows, inner_dim). Here the inner learners are the rows of the
    state, fed the loss as is, whose trace rows are the strategy rows: ``inner`` goes unread.
    """

    def __init__(self, dim: int | tuple[int, int], eta, optimistic: bool = True,
                 inner_span: float = 1.0):
        dims = tuple(int(d) for d in np.atleast_1d(dim))
        if not 1 <= len(dims) <= 2 or min(dims) < 1:
            raise ValidationError(f"dimension must be positive, got {dim}")
        self.members = np.shape(eta)
        self.shape = (*self.members, *dims)
        self.dim = dims[-1]
        self.optimistic, self.inner_span = bool(optimistic), inner_span
        self.eta, self.cumulative_loss = eta, np.zeros(self.shape)
        self.last_loss, self._updates = self.cumulative_loss, 0
        self._free_until = np.zeros((*self.shape[:-1], 1))  # per row: last update count it is free
        self.reset(eta)

    trace_field = "strategies"
    learner = property(lambda self: self)
    inner_dim = property(lambda self: self.dim)
    inner_dist = property(lambda self: self.last_strategy.reshape(*self.members, -1, self.dim))
    inner_loss = property(lambda self: self.last_loss.reshape(*self.members, -1, self.dim))
    inner_losses = staticmethod(lambda x, loss: loss)

    def next_strategy(self, out=None, inner=None) -> np.ndarray:
        """Current iterate, in ``out`` if given: softmax of -eta (cumulative + predicted) losses."""
        out = np.empty(self.shape) if out is None else out  # C-contiguous: a round's trace row
        z = (np.add(self.cumulative_loss, self.last_loss, out) if self.optimistic
             else self.cumulative_loss)
        z = np.multiply(z, self._neg_eta, out)  # rates of out's shape: every step runs in place
        if self._updates > self._all_free_until:  # some row shifts and floors
            shift = np.maximum.reduce(z, -1, None, None, True)
            if self._updates <= self._some_free_until:  # the free rows subtract 0.0, exactly
                shift[self._free_until >= self._updates] = 0.0
            z -= shift  # the floor is the identity on the free rows: weights above exp(-690)
            np.maximum(np.exp(z, z), _WEIGHT_FLOOR, out=z)
        else:
            np.exp(z, z)
        z /= np.add.reduce(z, -1, None, None, True)  # positional: (axis, dtype, out, keepdims)
        self.last_strategy = z
        return z

    def observe(self, loss) -> None:
        """Feedback from outside: a finite loss of the state's shape, copied."""
        loss, outside = _checked(loss, self.shape)
        self._free(outside, -1)
        self._update(loss)

    def _update(self, loss: np.ndarray) -> None:
        """Unchecked feedback; ``loss`` is kept as ``last_loss`` and must not be mutated."""
        self.cumulative_loss = self.cumulative_loss + loss
        self.last_loss = loss
        self._updates += 1

    def _free(self, rows, until) -> None:
        """``rows`` (an index of the leading axes) step free up to ``until`` updates; -1: never."""
        self._free_until = free = self._free_until.copy()  # replaced: restoring vars restores it
        free[rows] = until
        self._all_free_until, self._some_free_until = float(free.min()), float(free.max())

    def reset(self, eta=None, member: int | None = None) -> None:
        """Forget all history, optionally switching the learning rate.

        With ``member``, only that member's rows and rate start over.
        """
        rows = ... if member is None else member
        if eta is not None:
            if not np.all((np.asarray(eta) > 0.0) & np.isfinite(eta)):
                raise ValidationError(f"learning rate must be positive and finite, got {eta}")
            rates = np.array(np.broadcast_to(self.eta, self.members), dtype=float)
            rates[rows] = eta
            self.eta = rates if self.members else float(rates)
            # Each member's rate over all its entries, so the softmax multiplies by its own shape.
            trailing = (1,) * (len(self.shape) - rates.ndim)
            self._neg_eta = -np.broadcast_to(rates.reshape(rates.shape + trailing), self.shape)
        # Zeroed copies, not in place: the last loss belongs to the caller.
        self.cumulative_loss, self.last_loss = self.cumulative_loss.copy(), self.last_loss.copy()
        self.cumulative_loss[rows] = self.last_loss[rows] = 0.0
        with np.errstate(over="ignore"):  # free for ever at a tiny rate: k + 1 <= 690 / (r eta)
            until = self._updates - 1 - FLOOR_FREE_SPREAD / self.inner_span / self._neg_eta[..., :1]
        self._free(rows, until[rows])
        if member is None:
            self.last_strategy = None


def _checked(loss, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """A loss from outside, copied, once it has ``shape`` and finite entries, and per row (its
    last axis reduced) whether any entry lies outside [0, 1]: a row that must shift and floor."""
    loss = np.array(loss, dtype=float)
    if loss.shape != shape:
        raise DimensionMismatchError(f"loss has shape {loss.shape}, expected {shape}")
    if not np.all(np.isfinite(loss)):
        raise ValidationError("loss vector has non-finite entries")
    return loss, np.any(np.abs(loss - 0.5) > 0.5 + LOSS_RANGE_ATOL, axis=-1)


class Composite:
    """An :class:`Omwu` ``learner`` composed with a map to a strategy on n actions.

    Subclasses define ``next_strategy`` and the static ``inner_losses(x, loss)`` (the learner's
    loss, any leading axes), which an instance binds to n where it reads tables. Each concrete
    class binds its public methods in its own body, a shared one by a one-line alias, so that
    perfbench can wrap a method on its class alone. The round's step (``next_strategy``, or a
    stationary ``_next_strategy``) computes in trace rows ``out, inner`` if given. ``trace_field``
    names the inner distributions' record, ``loss_low`` the loss floor, ``inner_span`` the inner
    losses' range.
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

    def observe(self, loss) -> None:
        """An action-space loss from outside: after a strategy, (*members, n), finite, in range."""
        if self.last_strategy is None:
            raise ValidationError("observe called before next_strategy")
        loss, outside = _checked(loss, (*self.learner.members, self.n))
        low, high = loss.min(), loss.max()
        if low < self.loss_low - LOSS_RANGE_ATOL or high > 1.0 + LOSS_RANGE_ATOL:
            raise ValidationError(f"loss entries must lie in [{self.loss_low:g}, 1], got range "
                                  f"[{low}, {high}]")
        self.learner._free(outside, -1)
        self._update(loss)

    def _update(self, loss: np.ndarray) -> None:
        self.learner._update(self.inner_losses(self.last_strategy, loss))

    def reset(self, eta=None, member: int | None = None) -> None:
        self.learner.reset(eta, member)
        if member is None:
            self.last_strategy = None


class Stationary(Composite):
    """Plays the stationary distribution of its iterate read as an n-state chain: n(n-1) pair
    rates (SL), or with ``diagonal`` n rows (BM's copies), whose diagonal no solve reads. The
    public ``next_strategy`` gates each solve by its residual for :meth:`chain`; the round's
    ``_next_strategy`` does not: the run's walk gates the trace afterwards."""

    diagonal = False

    def __init__(self, n: int, eta, optimistic: bool = True):
        if n < 2:
            raise ValidationError(f"need at least 2 actions, got {n}")
        dim = (n, n) if self.diagonal else n * (n - 1)
        super().__init__(n, Omwu(dim, eta, optimistic, self.inner_span))
        self._solve = _gth_solver(n, self.diagonal, self.learner.members)

    @classmethod
    def chain(cls, q: np.ndarray, n: int) -> np.ndarray:
        """The (..., n, n) chains of inner distributions ``q``: the rows, or the pair rates."""
        return q if cls.diagonal else _pair_rates(q, n)

    def next_strategy(self) -> np.ndarray:
        q = self.learner.next_strategy()
        self.last_strategy = check_stationary(self.chain(q, self.n), self._solve(q))
        return self.last_strategy

    def _next_strategy(self, out=None, *inner) -> np.ndarray:
        """Unchecked :meth:`next_strategy`, computed in round trace rows ``out, inner`` if given."""
        self.last_strategy = self._solve(self.learner.next_strategy(*inner), out)
        return self.last_strategy
