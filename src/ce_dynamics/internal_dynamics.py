"""Internal-regret dynamics over action pairs and their tree-space twin.

Two :class:`~ce_dynamics.omwu.Composite` learners are implemented:

* :class:`SlOmwu` runs one multiplicative-weights learner over the n(n-1)
  ordered action pairs and plays the stationary distribution of its iterate
  read as a chain's off-diagonal rates: a :class:`~ce_dynamics.omwu.Stationary`
  learner, whose steps and residual gate BM shares.
* :class:`ArboDynamics` runs the same learner over all n^(n-1) rooted
  directed trees and plays the per-root marginals directly.

Fed the same loss stream, the two produce identical strategy sequences; the
pair products over any tree's edges stay proportional to the tree weight
round after round. :func:`verify_equivalence` plays a checked sl-omwu self-play
run and, block by block over its trace, replays each
group's loss record block, (rounds, members, n), into tree space through the
unchecked ``_update`` (the trace's losses are valid by construction), stepping
each tree learner into its own block rows as the round loop does; it reports
the worst deviations of both facts, each computed once per group record block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ValidationError
from .games import Game
# _pair_rates stays bound here for transition_from_pairs and the tests.
from .markov_tree import _pair_rates, _tree_edge_index
from .omwu import Composite, Omwu, Stationary

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


class SlOmwu(Stationary):
    """Internal-regret learner: pair-space OMWU plus a stationary-distribution step.

    The pair masses, in canonical order, are the round's chain's off-diagonal
    rates in row-major order: what GTH elimination reads, with no matrix built.
    """

    trace_field, inner_span, diagonal = "pair_dists", 2.0, False
    inner_losses = staticmethod(pair_loss_vector)
    next_strategy, observe = Stationary.next_strategy, Composite.observe

    def __init__(self, n: int, eta: float, optimistic: bool = True):
        super().__init__(n, eta, optimistic)
        self.inner_losses = _pair_losses(n)


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
    observe = Composite.observe

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
        return {"horizon": self.horizon, "eta": self.eta,
                "max_strategy_deviation": self.max_strategy_deviation,
                "max_proportionality_residual": self.max_proportionality_residual}


def verify_equivalence(game: Game, eta: float, horizon: int, tol: float = 1e-8) -> EquivalenceReport:
    """Replay the loss streams of a checked sl-omwu self-play run in tree space, compare.

    The checked play of :func:`~ce_dynamics.runner.play_dynamics` runs the pair-space learners
    (GTH stationary solve) in self-play, every block checked as the round loop finishes it, with
    none of a run's per-round table or summary. Each block of its trace is then sent to the
    replay: each group's recorded loss block is fed to a fresh tree-space learner stacked over the
    group's members, as in the run. Per round we record the largest strategy gap and, per tree, the
    spread of log((product of pair masses along tree edges) / (tree mass)), which should be a
    tree-independent constant. The tree learners are built first, so their size and
    learning-rate guards fail before any play. ``tol`` is kept on the report as the default of
    :meth:`EquivalenceReport.passes`. The play and the driver come from runner, which imports
    this module, at call time: the package's one function-level import.
    """
    from .runner import RunConfig, _drive, play_dynamics, player_groups

    counts = game.action_counts
    arbos = [ArboDynamics(counts[g[0]], np.full(len(g), eta)) for g in player_groups(counts)]
    config = RunConfig("sl-omwu", horizon, eta=eta, players=game.num_players, action_counts=counts)
    play = play_dynamics(config, game)
    deviation, residual = _drive(horizon, _replay_steps(horizon, play.records.values(), arbos))
    return EquivalenceReport(
        horizon=horizon,
        eta=eta,
        max_strategy_deviation=float(deviation.max()),
        max_proportionality_residual=float(residual.max()),
        strategy_deviation_per_round=deviation,
        proportionality_residual_per_round=residual,
        tol=tol,
    )


def _replay_steps(horizon, records, arbos):
    """:func:`verify_equivalence`'s block step: replays each group's record block for each block
    of rounds sent (:func:`_replay_block`) and yields the per-round worst strategy gap and
    proportionality residual when sent None."""
    deviation, residual = np.zeros(horizon), np.zeros(horizon)
    while (rounds := (yield)) is not None:
        for record, arbo in zip(records, arbos):
            gap, spread = _replay_block(record, arbo, rounds)
            deviation[rounds] = np.maximum(deviation[rounds], gap)
            residual[rounds] = np.maximum(residual[rounds], spread)
    yield deviation, residual


def _replay_block(record, arbo, rounds):
    """Feeds ``arbo`` the loss rows of its group's record block, (rounds, members, n), stepping it
    into the block's own (rounds, members, ...) strategy and tree rows as the round loop does;
    returns each round's worst strategy gap and proportionality residual over the members. Blocks
    bound the tree distributions kept and each edge's (rounds, members, trees) gather. The
    proportionality constant is taken from the first tree; the residual is the largest
    |log ratio - log ratio of the first tree|, to first order the relative departure, finite
    wherever the masses are, their floor included."""
    losses = record["losses"][rounds]
    strategies, tree_dists = np.empty(losses.shape), np.empty((*losses.shape[:2], len(arbo.roots)))
    for t, loss in enumerate(losses):
        arbo.next_strategy(strategies[t], tree_dists[t])
        arbo._update(loss)
    gap = np.abs(strategies - record["strategies"][rounds]).max(axis=(1, 2))
    # Each tree's log pair masses summed edge by edge, left to right as numpy sums n - 1 < 8 terms.
    logs = np.log(record["pair_dists"][rounds])
    log_ratio = reduce(np.add, (logs[:, :, e] for e in arbo.edge_pairs.T)) - np.log(tree_dists)
    return gap, np.abs(log_ratio - log_ratio[:, :, :1]).max(axis=(1, 2))
