"""Internal-regret dynamics over action pairs and their tree-space twin.

Two :class:`~ce_dynamics.omwu.Composite` learners are implemented:

* :class:`SlOmwu` runs one multiplicative-weights learner over the n(n-1)
  ordered action pairs, turns its iterate into a row-stochastic matrix, and
  plays the stationary distribution of that matrix each round. The public
  ``next_strategy`` gates each solve by its residual.
* :class:`ArboDynamics` runs the same learner over all n^(n-1) rooted
  directed trees and plays the per-root marginals directly.

Fed the same loss stream, the two produce identical strategy sequences; the
pair products over any tree's edges stay proportional to the tree weight
round after round. :func:`verify_equivalence` replays the loss streams of a
checked :func:`~ce_dynamics.runner.play_dynamics` sl-omwu trace into tree
space through the unchecked ``_update`` (the trace's losses are valid by
construction) and reports the worst deviations of both facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .games import Game
from .markov_tree import _gth_solver, _tree_edge_index, check_stationary
from .metrics import REGRET_CHUNK_ROUNDS
from .omwu import Composite, Omwu

# The tree space has n^(n-1) points: 625 at n = 5.
MAX_ARBO_NODES = 5


@lru_cache(maxsize=None)
def ordered_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Canonical ordering of the n(n-1) ordered pairs (j, k), j != k."""
    return tuple((j, k) for j in range(n) for k in range(n) if k != j)


@lru_cache(maxsize=None)
def _pair_index_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    return tuple(np.array(ordered_pairs(n)).T)  # (src, dst)


@lru_cache(maxsize=None)
def _pair_losses(n: int):
    """:func:`pair_loss_vector` bound to n actions, by (n, n(n-1)) matrices whose column of pair
    (j, k) is e_j, and e_k - e_j: exact terms add to zeros, so bits hold (an input's -0.0 aside)."""
    src, dst = _pair_index_arrays(n)
    select = np.eye(n).take(src, axis=1)
    diff = np.eye(n).take(dst, axis=1) - select
    return lambda x, loss: x.dot(select) * loss.dot(diff)


def pair_loss_vector(strategy: np.ndarray, loss: np.ndarray) -> np.ndarray:
    """Per-pair loss x[j] * (loss[k] - loss[j]) in canonical pair order, over any leading axes."""
    return _pair_losses(strategy.shape[-1])(strategy, loss)


def _pair_rates(p: np.ndarray, n: int) -> np.ndarray:
    """Matrix with off-diagonal (j, k) entry p[..., j -> k] and a zero diagonal.

    Leading axes of ``p`` carry over: pair masses of shape (T, n(n-1)) give (T, n, n).
    """
    src, dst = _pair_index_arrays(n)
    M = np.zeros((*p.shape[:-1], n, n))
    M[..., src, dst] = p
    return M


def transition_from_pairs(p: np.ndarray, n: int) -> np.ndarray:
    """Row-stochastic matrix with off-diagonal (j, k) mass p[j -> k].

    Each diagonal entry absorbs the remainder of its row. Because the pair
    masses over the whole matrix sum to 1, that remainder equals the total
    mass of pairs leaving the other rows; summing those directly keeps the
    diagonal strictly positive even when a single pair holds almost all
    mass, where the naive ``1 - row_sum`` would cancel to exact zero.
    """
    M = _pair_rates(p, n)
    src, _ = _pair_index_arrays(n)
    for j in range(n):
        M[j, j] = p[src != j].sum()
    return M


class SlOmwu(Composite):
    """Internal-regret learner: pair-space OMWU plus a stationary-distribution step.

    The pair masses, in canonical order, are the round's chain's off-diagonal
    rates in row-major order: what GTH elimination reads, with no matrix built.
    """

    trace_field, inner_span = "pair_dists", 2.0
    inner_losses = staticmethod(pair_loss_vector)

    def __init__(self, n: int, eta: float, optimistic: bool = True):
        if n < 2:
            raise ValidationError(f"need at least 2 actions, got {n}")
        super().__init__(n, Omwu(n * (n - 1), eta, optimistic, self.inner_span))
        self._solve, self.inner_losses = _gth_solver(n, False, self.learner.members), _pair_losses(n)

    def next_strategy(self) -> np.ndarray:
        p = self.learner.next_strategy()
        self.last_strategy = check_stationary(_pair_rates(p, self.n), self._solve(p))
        return self.last_strategy

    def _next_strategy(self, out=None, *inner) -> np.ndarray:
        """Unchecked :meth:`next_strategy`, computed in round trace rows ``out, inner`` if given."""
        self.last_strategy = self._solve(self.learner.next_strategy(*inner), out)
        return self.last_strategy

    def observe(self, loss) -> None:
        self._update(self._checked(loss))


@lru_cache(maxsize=None)
def _tree_structure(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-tree root labels and edge-to-pair index table, in the tree theorem's tree order.

    ``edge_pairs[t]`` lists the canonical pair index of each of tree t's n-1 edges (child ->
    parent): entry j*n + k of :func:`_tree_edge_index` is pair j*(n-1) + k - (k > j).
    """
    j, k = np.divmod(_tree_edge_index(n).reshape(n - 1, -1).T.copy(), n)  # (trees, n-1)
    edge_pairs = j * (n - 1) + k - (k > j)
    roots = np.repeat(np.arange(n), n ** (n - 2))
    roots.setflags(write=False)
    edge_pairs.setflags(write=False)
    return roots, edge_pairs


class ArboDynamics(Composite):
    """Internal-regret learner over the exponential space of rooted trees.

    The learner's iterate is a distribution over all n^(n-1) directed trees;
    the played strategy is its root marginal. Tree losses are edge sums of
    the pair losses. Guarded to n <= 5.
    """

    trace_field = "tree_dists"
    inner_losses = staticmethod(lambda x, loss: _tree_losses(x.shape[-1])(x, loss))

    def __init__(self, n: int, eta: float, optimistic: bool = True):
        if not 2 <= n <= MAX_ARBO_NODES:
            raise ValidationError(
                f"action count {n} outside supported range [2, {MAX_ARBO_NODES}]"
            )
        self.roots, self.edge_pairs = _tree_structure(n)
        self.inner_span, self.inner_losses = 2.0 * (n - 1), _tree_losses(n)
        super().__init__(n, Omwu(len(self.roots), eta, optimistic, self.inner_span))
        # Member b's trees fall into root bins b*n .. b*n + n-1; bincount sums each in tree order.
        members = np.arange(np.prod(self.learner.members, dtype=int))
        self._root_bins = (self.roots + n * members[:, None]).ravel()
        self._shape = (*self.learner.members, n)

    def next_strategy(self, out=None, *inner) -> np.ndarray:
        """The iterate's root marginals, computed in round trace rows ``out, inner`` if given."""
        X = self.learner.next_strategy(*inner)
        self.last_strategy = np.empty(self._shape) if out is None else out
        self.last_strategy.flat = np.bincount(self._root_bins, weights=X.ravel())
        return self.last_strategy

    def observe(self, loss) -> None:
        self._update(self._checked(loss))


@lru_cache(maxsize=None)
def _tree_losses(n: int):
    """:meth:`ArboDynamics.inner_losses` bound to n: each tree's summed edge pair losses."""
    pair_losses, edge_pairs = _pair_losses(n), _tree_structure(n)[1]
    return lambda x, loss: np.add.reduce(pair_losses(x, loss).take(edge_pairs, axis=-1), axis=-1)


@dataclass
class EquivalenceReport:
    """Worst-case disagreement between the pair-space and tree-space learners."""

    horizon: int
    eta: float
    max_strategy_deviation: float
    max_proportionality_residual: float
    strategy_deviation_per_round: np.ndarray
    proportionality_residual_per_round: np.ndarray
    tol: float = 1e-8  # the tolerance verify_equivalence was given

    def passes(self, tol: float | None = None) -> bool:
        """Both worst deviations within ``tol``, by default the report's own."""
        if tol is None:
            tol = self.tol
        return (
            self.max_strategy_deviation <= tol
            and self.max_proportionality_residual <= tol
        )

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "eta": self.eta,
            "max_strategy_deviation": self.max_strategy_deviation,
            "max_proportionality_residual": self.max_proportionality_residual,
        }


def verify_equivalence(game: Game, eta: float, horizon: int, tol: float = 1e-8) -> EquivalenceReport:
    """Replay the loss streams of a ``play_dynamics`` sl-omwu trace in tree space, compare.

    ``play_dynamics`` plays the pair-space learners (GTH stationary solve) in
    self-play, with every check of a run and none of its per-round table or
    summary. Each player's recorded loss stream is then fed to a fresh
    tree-space learner, one stacked learner per group of equal action counts
    as in the run, and per round we record the largest strategy gap and,
    per tree, the relative spread of (product of pair masses along tree
    edges) / (tree mass), which should be a tree-independent constant. The
    tree learners are built first, so their size and learning-rate guards
    fail before any play. ``tol`` is kept on the report as the default of
    :meth:`EquivalenceReport.passes`.
    """
    from .runner import RunConfig, play_dynamics, player_groups  # runner imports this module

    counts = game.action_counts
    groups = player_groups(counts)
    arbos = [ArboDynamics(counts[group[0]], np.full(len(group), eta)) for group in groups]
    config = RunConfig("sl-omwu", horizon, eta=eta, players=game.num_players, action_counts=counts)
    trace = play_dynamics(config, game).trace

    deviation, residual = np.zeros(horizon), np.zeros(horizon)
    for group, arbo in zip(groups, arbos):
        players = [trace.players[i] for i in group]
        losses = np.stack([p.losses for p in players], axis=1)  # (T, members, n)
        # Blocks of rounds bound the tree distributions kept and the (rounds, trees, n-1)
        # edge gather. The proportionality constant is taken from the first tree; the
        # residual is the largest relative departure of any other tree from it.
        for s in range(0, horizon, REGRET_CHUNK_ROUNDS):
            rounds = slice(s, s + REGRET_CHUNK_ROUNDS)
            steps = []
            for loss in losses[rounds]:
                steps.append((arbo.next_strategy(), arbo.inner_dist[:, 0]))
                arbo._update(loss)
            strategies, tree_dists = map(np.array, zip(*steps))  # (rounds, members, ...)
            for b, player in enumerate(players):
                gap = np.abs(strategies[:, b] - player.strategies[rounds]).max(axis=1)
                deviation[rounds] = np.maximum(deviation[rounds], gap)
                log_ratio = (
                    np.log(player.pair_dists[rounds])[:, arbo.edge_pairs].sum(axis=2)
                    - np.log(tree_dists[:, b])
                )
                residual[rounds] = np.maximum(
                    residual[rounds], np.abs(np.exp(log_ratio - log_ratio[:, :1]) - 1.0).max(axis=1)
                )

    return EquivalenceReport(
        horizon=horizon,
        eta=eta,
        max_strategy_deviation=float(deviation.max()),
        max_proportionality_residual=float(residual.max()),
        strategy_deviation_per_round=deviation,
        proportionality_residual_per_round=residual,
        tol=tol,
    )
