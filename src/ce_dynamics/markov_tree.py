"""Arborescences and stationary distributions of positive stochastic matrices.

Two solvers are provided for the stationary distribution pi (row-stochastic
convention, ``Q^T pi = pi``):

* :func:`tree_theorem_stationary` -- the closed-form Markov chain tree
  theorem: pi[j] is proportional to the sum, over directed trees rooted at j,
  of the product of transition probabilities along tree edges. Exact up to
  rounding, but exponential in n, so guarded to n <= 7. A chain costs one
  gather of every tree's edge weights through a cached index (0.3 MB at n = 6,
  5.6 MB at n = 7), one product over edges and one sum per root.
* :func:`solve_stationary` -- GTH elimination (Grassmann, Taksar and Heyman,
  Oper. Res. 33, 1985), O(n^3). It never subtracts, so every entry of pi,
  however small, carries a small relative error (O'Cinneide, Numer. Math. 65,
  1993); a small residual alone would not promise that.

The elimination itself (``_gth_stationary``) is unchecked; its residual gate
is :func:`check_stationary`, and :func:`stationary_residual` takes any
leading axes.

A directed tree rooted at j ("arborescence") has no cycles, no outgoing edge
from j, and exactly one outgoing edge from every other node. Trees are
encoded by their parent array with the convention ``parents[root] == root``;
ordering that array lexicographically gives the canonical enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import StationaryResidualError, ValidationError

MAX_TREE_NODES = 7
STATIONARY_RESIDUAL_TOL = 1e-10
ROW_SUM_ATOL = 1e-12


@dataclass(frozen=True, order=True)
class Arborescence:
    """Rooted directed tree on ``len(parents)`` nodes.

    ``parents[v]`` is the head of v's unique outgoing edge; the root stores
    itself as a sentinel and has no outgoing edge.
    """

    parents: tuple[int, ...]

    @property
    def root(self) -> int:
        for v, p in enumerate(self.parents):
            if p == v:
                return v
        raise ValidationError(f"parent array {self.parents} has no root")

    def edges(self) -> list[tuple[int, int]]:
        """Edge list (child, parent), excluding the root's sentinel entry."""
        return [(v, p) for v, p in enumerate(self.parents) if p != v]


def _check_tree_n(n: int, cap: int) -> None:
    if not 2 <= n <= cap:
        raise ValidationError(f"node count {n} outside supported range [2, {cap}]")


@lru_cache(maxsize=None)
def _rooted_parent_arrays(n: int, root: int) -> np.ndarray:
    """All valid full parent arrays for trees rooted at ``root``, shape (n^(n-2), n).

    Every candidate assignment of one parent per non-root node is generated
    (n^(n-1) of them, in lexicographic order) and filtered by following
    parent pointers n-1 times: an assignment is a tree exactly when every
    node lands on the root.
    """
    non_root = [v for v in range(n) if v != root]
    cand = np.indices((n,) * (n - 1)).reshape(n - 1, -1).T
    full = np.empty((cand.shape[0], n), dtype=np.int64)
    full[:, non_root] = cand
    full[:, root] = root
    reach = full
    for _ in range(n - 1):
        reach = np.take_along_axis(full, reach, axis=1)
    kept = full[(reach == root).all(axis=1)]
    kept.setflags(write=False)
    return kept


def enumerate_arborescences(n: int, root: int) -> list[Arborescence]:
    """All n^(n-2) directed trees rooted at ``root``, canonically ordered."""
    _check_tree_n(n, MAX_TREE_NODES)
    if not 0 <= root < n:
        raise ValidationError(f"root {root} outside [0, {n})")
    return [Arborescence(tuple(int(p) for p in row)) for row in _rooted_parent_arrays(n, root)]


def all_arborescences(n: int) -> list[Arborescence]:
    """All n^(n-1) directed trees over roots 0..n-1, grouped by root."""
    _check_tree_n(n, MAX_TREE_NODES)
    out = []
    for root in range(n):
        out.extend(enumerate_arborescences(n, root))
    return out


def check_transition_matrix(Q) -> np.ndarray:
    """Validate a strictly positive row-stochastic matrix; rows must sum to 1 within 1e-12."""
    try:
        Q = np.asarray(Q, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"transition matrix is not a numeric matrix: {exc}") from exc
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValidationError(f"transition matrix must be square, got shape {Q.shape}")
    if not np.all(np.isfinite(Q)):
        raise ValidationError("transition matrix has non-finite entries")
    if Q.min() <= 0.0:
        raise ValidationError(f"transition matrix must have strictly positive entries, min={Q.min()}")
    if Q.max() > 1.0 + ROW_SUM_ATOL:  # its row cannot sum to 1, and summing it could overflow
        raise ValidationError(f"transition matrix entries must not exceed 1, max={Q.max()}")
    rows = Q.sum(axis=1)
    worst = np.abs(rows - 1.0).max()
    if worst > ROW_SUM_ATOL:
        raise ValidationError(f"rows must sum to 1 within {ROW_SUM_ATOL}, worst error {worst}")
    return Q


@lru_cache(maxsize=None)
def _tree_edge_index(n: int) -> np.ndarray:
    """Flat index into ``Q.ravel()`` of edge e of tree t rooted at r, at [e, r, t].

    Edges run child -> parent, children in node order; trees in canonical order.
    """
    per_root = [[n * v + _rooted_parent_arrays(n, r)[:, v] for v in range(n) if v != r] for r in range(n)]
    index = np.ascontiguousarray(np.swapaxes(per_root, 0, 1))
    index.setflags(write=False)
    return index


def _tree_weight_sums(Q: np.ndarray) -> np.ndarray:
    """Per-root sums of edge-weight products over all rooted trees: one gather for every tree."""
    weights = Q.ravel().take(_tree_edge_index(Q.shape[0]))
    return np.multiply.reduce(weights, axis=0).sum(axis=-1)


def tree_theorem_stationary(Q) -> np.ndarray:
    """Stationary distribution by the Markov chain tree theorem (n <= 7)."""
    Q = check_transition_matrix(Q)
    _check_tree_n(Q.shape[0], MAX_TREE_NODES)
    sums = _tree_weight_sums(Q)
    return sums / sums.sum()


def stationary_residual(A: np.ndarray, pi: np.ndarray):
    """Generator-form residual ``max |A^T pi - rowsum(A) * pi|``, over any leading axes.

    ``A`` of shape (..., n, n) and ``pi`` of shape (..., n) give one residual
    per leading index. The diagonal of ``A`` cancels out, so ``A`` may hold
    rates. For a row-stochastic ``A`` this is the fixed-point residual
    ``max |A^T pi - pi|``.
    """
    flow = (pi[..., None, :] @ A)[..., 0, :]
    return np.abs(flow - A.sum(axis=-1) * pi).max(axis=-1)


def check_stationary(A: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """The residual gate: ``pi`` unless its worst residual for ``A`` exceeds 1e-10.

    Raises :class:`StationaryResidualError` otherwise; a NaN residual fails too.
    """
    residual = float(stationary_residual(A, pi).max())
    if not residual <= STATIONARY_RESIDUAL_TOL:
        raise StationaryResidualError(
            f"stationary solve failed: residual {residual} above {STATIONARY_RESIDUAL_TOL}",
            residual=residual,
        )
    return pi


def _gth_stationary(A: np.ndarray) -> np.ndarray:
    """Stationary distribution of the chain with off-diagonal rates ``A[..., j, k]``, unchecked.

    GTH elimination: states are censored out from the last one down, each
    one's incoming rates rerouted along its outgoing ones, then pi is rebuilt
    from the first state up. The elimination never reads the diagonal of
    ``A`` and never subtracts. Plain Python floats beat numpy's per-call
    overhead at the sizes met here. Leading axes of ``A`` carry over: one
    ``tolist`` feeds the elimination of every chain, and one division
    normalises them all. Callers gate the result.

    Sums are left-to-right loops from int 0, not the builtin ``sum()``, which
    compensates float sums from Python 3.12 on; the bits do not depend on it.
    """
    n = A.shape[-1]
    pis = []
    for a in A.reshape(-1, n, n).tolist():
        for k in range(n - 1, 0, -1):
            pivot = a[k][:k]
            out = 0
            for r in pivot:
                out += r
            for ai in a[:k]:
                f = ai[k] / out
                ai[k] = f
                j = 0
                for r in pivot:
                    ai[j] += f * r
                    j += 1
        pi = [1.0]
        for k in range(1, n):
            inflow = 0
            for p, ai in zip(pi, a):
                inflow += p * ai[k]
            pi.append(inflow)
        pis.append(pi)
    pi = np.array(pis)
    pi /= pi.sum(axis=-1, keepdims=True)
    return pi.reshape(A.shape[:-1])


def solve_stationary(Q) -> np.ndarray:
    """Stationary distribution of a positive row-stochastic matrix, by gated GTH elimination."""
    Q = check_transition_matrix(Q)
    return check_stationary(Q, _gth_stationary(Q))
