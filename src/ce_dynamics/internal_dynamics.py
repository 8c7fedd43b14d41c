"""Internal-regret dynamics over action pairs and their tree-space twin.

Two learners are implemented:

* :class:`SlOmwu` runs one multiplicative-weights learner over the n(n-1)
  ordered action pairs, turns its iterate into a row-stochastic matrix, and
  plays the stationary distribution of that matrix each round.
* :class:`ArboDynamics` runs the same learner over all n^(n-1) rooted
  directed trees and plays the per-root marginals directly.

Fed the same loss stream, the two produce identical strategy sequences; the
pair products over any tree's edges stay proportional to the tree weight
round after round. :func:`verify_equivalence` replays the loss streams of a
:func:`~ce_dynamics.runner.run_dynamics` sl-omwu trace into tree space and
reports the worst deviations of both facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .games import Game
from .markov_tree import _gth_stationary, all_arborescences
from .omwu import Omwu, check_bounded_loss

# The tree space has n^(n-1) points: 3125 at n = 5.
MAX_ARBO_NODES = 5


@lru_cache(maxsize=None)
def ordered_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Canonical ordering of the n(n-1) ordered pairs (j, k), j != k."""
    return tuple((j, k) for j in range(n) for k in range(n) if k != j)


@lru_cache(maxsize=None)
def _pair_index_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    pairs = ordered_pairs(n)
    src = np.array([j for j, _ in pairs])
    dst = np.array([k for _, k in pairs])
    return src, dst


def pair_loss_vector(strategy: np.ndarray, loss: np.ndarray) -> np.ndarray:
    """Per-pair loss x[j] * (loss[k] - loss[j]) in canonical pair order."""
    src, dst = _pair_index_arrays(strategy.shape[0])
    return strategy[src] * (loss[dst] - loss[src])


def _pair_rates(p: np.ndarray, n: int) -> np.ndarray:
    """Matrix with off-diagonal (j, k) entry p[j -> k] and a zero diagonal."""
    src, dst = _pair_index_arrays(n)
    M = np.zeros((n, n))
    M[src, dst] = p
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


class SlOmwu:
    """Internal-regret learner: pair-space OMWU plus a stationary-distribution step.

    The pair masses are the off-diagonal rates of the round's chain, which is
    all that GTH elimination reads.
    """

    def __init__(self, n: int, eta: float, optimistic: bool = True):
        if n < 2:
            raise ValidationError(f"need at least 2 actions, got {n}")
        self.n = int(n)
        self.pair_learner = Omwu(n * (n - 1), eta, optimistic=optimistic)
        self.last_strategy: np.ndarray | None = None

    eta = property(lambda self: self.pair_learner.eta)
    inner_dim = property(lambda self: self.pair_learner.inner_dim)
    inner_dist = property(lambda self: self.pair_learner.inner_dist)
    inner_loss = property(lambda self: self.pair_learner.inner_loss)

    def next_strategy(self) -> np.ndarray:
        p = self.pair_learner.next_strategy()
        x = _gth_stationary(_pair_rates(p, self.n))
        self.last_strategy = x
        return x

    def observe(self, loss) -> None:
        if self.last_strategy is None:
            raise ValidationError("observe called before next_strategy")
        loss = check_bounded_loss(loss, self.n, low=-1.0)
        self.pair_learner.observe(pair_loss_vector(self.last_strategy, loss))

    def reset(self, eta: float | None = None) -> None:
        self.pair_learner.reset(eta)
        self.last_strategy = None


@lru_cache(maxsize=None)
def _tree_structure(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-tree root labels and edge-to-pair index table, canonical tree order.

    Returns ``(roots, edge_pairs)`` where ``edge_pairs[t]`` lists, for tree t,
    the canonical pair index of each of its n-1 edges (child -> parent).
    """
    pairs = {pair: idx for idx, pair in enumerate(ordered_pairs(n))}
    trees = all_arborescences(n)
    roots = np.array([tree.root for tree in trees])
    edge_pairs = np.array(
        [[pairs[edge] for edge in tree.edges()] for tree in trees], dtype=np.int64
    )
    roots.setflags(write=False)
    edge_pairs.setflags(write=False)
    return roots, edge_pairs


class ArboDynamics:
    """Internal-regret learner over the exponential space of rooted trees.

    The learner's iterate is a distribution over all n^(n-1) directed trees;
    the played strategy is its root marginal. Tree losses are edge sums of
    the pair losses. Guarded to n <= 5.
    """

    def __init__(self, n: int, eta: float, optimistic: bool = True):
        if not 2 <= n <= MAX_ARBO_NODES:
            raise ValidationError(
                f"action count {n} outside supported range [2, {MAX_ARBO_NODES}]"
            )
        self.n = int(n)
        self.roots, self.edge_pairs = _tree_structure(n)
        self.tree_learner = Omwu(len(self.roots), eta, optimistic=optimistic)
        self.last_strategy: np.ndarray | None = None

    eta = property(lambda self: self.tree_learner.eta)
    inner_dim = property(lambda self: self.tree_learner.inner_dim)
    inner_dist = property(lambda self: self.tree_learner.inner_dist)
    inner_loss = property(lambda self: self.tree_learner.inner_loss)

    def next_strategy(self) -> np.ndarray:
        X = self.tree_learner.next_strategy()
        x = np.bincount(self.roots, weights=X, minlength=self.n)
        self.last_strategy = x
        return x

    def observe(self, loss) -> None:
        if self.last_strategy is None:
            raise ValidationError("observe called before next_strategy")
        loss = check_bounded_loss(loss, self.n, low=-1.0)
        L = pair_loss_vector(self.last_strategy, loss)
        self.tree_learner.observe(L[self.edge_pairs].sum(axis=1))

    def reset(self, eta: float | None = None) -> None:
        self.tree_learner.reset(eta)
        self.last_strategy = None


@dataclass
class EquivalenceReport:
    """Worst-case disagreement between the pair-space and tree-space learners."""

    horizon: int
    eta: float
    max_strategy_deviation: float
    max_proportionality_residual: float
    strategy_deviation_per_round: np.ndarray
    proportionality_residual_per_round: np.ndarray

    def passes(self, tol: float) -> bool:
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
    """Replay the loss streams of a ``run_dynamics`` sl-omwu trace in tree space, compare.

    ``run_dynamics`` plays the pair-space learners (GTH stationary solve) in
    self-play. Each player's recorded loss stream is then fed to a fresh
    tree-space learner, and per round we record the largest strategy gap and,
    per tree, the relative spread of (product of pair masses along tree
    edges) / (tree mass), which should be a tree-independent constant. The
    tree learners are built first, so their size and learning-rate guards
    fail before any play.
    """
    from .runner import RunConfig, run_dynamics  # runner imports this module

    arbos = [ArboDynamics(n, eta) for n in game.action_counts]
    config = RunConfig(
        "sl-omwu", horizon, eta=eta, players=game.num_players, action_counts=game.action_counts
    )
    trace = run_dynamics(config, game).trace

    deviation = np.zeros(horizon)
    residual = np.zeros(horizon)
    for arbo, player in zip(arbos, trace.players):
        strategies = np.empty((horizon, arbo.n))
        tree_dists = np.empty((horizon, arbo.inner_dim))
        for t, loss in enumerate(player.losses):
            strategies[t] = arbo.next_strategy()
            tree_dists[t] = arbo.inner_dist[0]
            arbo.observe(loss)
        deviation = np.maximum(deviation, np.abs(strategies - player.strategies).max(axis=1))
        # Proportionality constant taken from the first tree; the residual is
        # the largest relative departure of any other tree from it.
        log_ratio = np.log(player.pair_dists)[:, arbo.edge_pairs].sum(axis=2) - np.log(tree_dists)
        residual = np.maximum(
            residual, np.abs(np.exp(log_ratio - log_ratio[:, :1]) - 1.0).max(axis=1)
        )

    return EquivalenceReport(
        horizon=horizon,
        eta=eta,
        max_strategy_deviation=float(deviation.max()),
        max_proportionality_residual=float(residual.max()),
        strategy_deviation_per_round=deviation,
        proportionality_residual_per_round=residual,
    )
