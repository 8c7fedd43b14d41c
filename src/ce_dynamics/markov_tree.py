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

The elimination itself is unchecked: ``_gth_solver``, bound once per stack of chains, takes
their rates (:func:`_pair_rates`) or matrix rows, whose diagonal is never read. Up to 16 states a
chain is one call of code generated per state count and form, with the loop's bits. Its
residual gate is :func:`check_stationary`; :func:`stationary_residual` takes any leading axes.

A directed tree rooted at j ("arborescence") has no cycles, no outgoing edge
from j, and exactly one outgoing edge from every other node. Trees are
encoded by their parent array with the convention ``parents[root] == root``;
ordering that array lexicographically gives the canonical enumeration order.
Each node count's candidates are filtered once, for root 0; every other root's
trees are root 0's relabelled (:func:`_rooted_parent_arrays`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from operator import add

import numpy as np

from .errors import StationaryResidualError, ValidationError

MAX_TREE_NODES = 7
STATIONARY_RESIDUAL_TOL = 1e-10
ROW_SUM_ATOL = 1e-12
GTH_KERNEL_MAX_STATES = 16


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
    """All valid full parent arrays for trees rooted at ``root``, shape (n^(n-2), n), read-only.

    Only root 0's are filtered: its n^(n-1) candidate assignments of one parent per node
    1..n-1, in lexicographic order, are each a tree exactly when every node lands on 0, a
    fixed point that no cycle reaches. Pointer doubling follows at least n-1 pointers in
    ceil(log2(n-1)) gathers. Every other root's trees are root 0's under the transposition
    (0 root), applied to labels and values, sorted back into lexicographic order.
    """
    if root:
        swap = np.arange(n)
        swap[[0, root]] = root, 0
        relabelled = swap[_rooted_parent_arrays(n, 0)][:, swap]
        kept = relabelled[np.lexsort(relabelled.T[::-1])]
    else:
        full = np.zeros((n ** (n - 1), n), dtype=np.int64)
        full[:, 1:] = np.indices((n,) * (n - 1)).reshape(n - 1, -1).T
        reach = full
        for _ in range((n - 2).bit_length()):
            reach = np.take_along_axis(reach, reach, axis=1)
        kept = full[(reach == 0).all(axis=1)]
    kept.setflags(write=False)
    return kept


def enumerate_arborescences(n: int, root: int) -> list[Arborescence]:
    """All n^(n-2) directed trees rooted at ``root``, canonically ordered."""
    _check_tree_n(n, MAX_TREE_NODES)
    if not 0 <= root < n:
        raise ValidationError(f"root {root} outside [0, {n})")
    return [Arborescence(tuple(row)) for row in _rooted_parent_arrays(n, root).tolist()]


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
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or not Q.size:  # an empty Q has no minimum
        raise ValidationError(f"transition matrix must be square, non-empty, got shape {Q.shape}")
    # NaN fails every comparison: one test accepts exactly the valid matrices, the rest explain.
    low, high = Q.min(), Q.max()
    if low > 0.0 and high <= 1.0 + ROW_SUM_ATOL and np.abs(Q.sum(axis=1) - 1.0).max() <= ROW_SUM_ATOL:
        return Q
    if not np.all(np.isfinite(Q)):
        raise ValidationError("transition matrix has non-finite entries")
    if low <= 0.0:
        raise ValidationError(f"transition matrix must have strictly positive entries, min={low}")
    if high > 1.0 + ROW_SUM_ATOL:  # its row cannot sum to 1, and summing it could overflow
        raise ValidationError(f"transition matrix entries must not exceed 1, max={high}")
    worst = np.abs(Q.sum(axis=1) - 1.0).max()
    raise ValidationError(f"rows must sum to 1 within {ROW_SUM_ATOL}, worst error {worst}")


@lru_cache(maxsize=None)
def _tree_edge_index(n: int) -> np.ndarray:
    """Flat index into ``Q.ravel()`` of edge e of tree t rooted at r, at [e, r, t].

    Edges run child -> parent, children in node order; trees in canonical order.
    """
    parents = np.stack([_rooted_parent_arrays(n, r) for r in range(n)])  # (root, tree, node)
    children = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, 1, n - 1)  # per root
    index = n * children + np.take_along_axis(parents, children, axis=2)
    index = np.ascontiguousarray(index.transpose(2, 0, 1))
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


def _pair_rates(p: np.ndarray, n: int) -> np.ndarray:
    """The (..., n, n) chains whose off-diagonal (j, k) rate is p[..., j(n-1) + k - (k > j)]: row
    by row, as GTH reads them; diagonal zero. Pair masses (T, n(n-1)) give (T, n, n)."""
    M = np.zeros((*p.shape[:-1], n, n))
    M[..., ~np.eye(n, dtype=bool)] = p
    return M


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


@lru_cache(maxsize=None)
def _gth_kernel(n: int, diagonal: bool):
    """The loop of :func:`_gth_solver` for one n-state chain as straight-line code, built from n:
    its arguments are the chain's rates ``a{i}_{j}``, off-diagonal and row-major, or with
    ``diagonal`` its n matrix rows, whose diagonal is never read. Each pivot's out-rate, each pi
    inflow and pi's normalising sum is one expression summing left to right from its first term,
    as the loop sums. Every other float operation is one statement, in the loop's order, minus the
    unread diagonal updates; pi comes out normalised."""
    a = [[f"a{i}_{j}" for j in range(n)] for i in range(n)]
    if diagonal:  # a row per argument, unpacked
        lines = [f"def gth({', '.join(f'r{i}' for i in range(n))}):",
                 *(f"{', '.join(row)} = r{i}" for i, row in enumerate(a))]
    else:
        lines = [f"def gth({', '.join(a[i][j] for i in range(n) for j in range(n) if j != i)}):"]
    for k in range(n - 1, 0, -1):
        lines.append(f"out = {' + '.join(a[k][:k])}")
        for i in range(k):
            lines.append(f"f = a{i}_{k} = a{i}_{k} / out")
            lines += [f"a{i}_{j} += f * a{k}_{j}" for j in range(k) if j != i]
    lines += ["p0 = 1.0", *(f"p{k} = {' + '.join(f'p{i} * a{i}_{k}' for i in range(k))}"
                            for k in range(1, n))]
    lines += [f"s = {' + '.join(f'p{k}' for k in range(n))}",
              "return [" + ", ".join(f"p{k} / s" for k in range(n)) + "]"]
    exec(compile("\n    ".join(lines), f"<gth n={n}>", "exec"), namespace := {})
    return namespace["gth"]


def _gth_solver(n: int, diagonal: bool, members: tuple):
    """Unchecked stationary distributions of n-state chains stacked ``members`` deep, as a
    function of their rates, bound once: n(n-1) off-diagonal rates per chain, row-major (SL's
    pair masses), or with ``diagonal`` a matrix's n rows, whose diagonal is never read.

    GTH elimination censors states out from the last one down, rerouting each one's incoming
    rates along its outgoing ones, then rebuilds pi from the first state up; it never
    subtracts. Up to ``GTH_KERNEL_MAX_STATES`` states a chain is one call of
    :func:`_gth_kernel`, entries in and normalised pi out, above it one of :func:`_gth_loop`.
    Sums run left to right, not by the builtin ``sum()``, which compensates float sums from
    Python 3.12 on. One ``tolist`` feeds every chain; callers gate the result. A stack on one
    leading axis (a learner's members) goes in and out as it is: ``out`` takes its pi as lists.
    """
    large = n > GTH_KERNEL_MAX_STATES
    kernel = partial(_gth_loop, n, diagonal) if large else _gth_kernel(n, diagonal)

    def solve(R, out=None):
        out = np.empty((len(R), n)) if out is None else out
        out[...] = [kernel(*r) for r in R.tolist()]
        return out

    if len(members) == 1:
        return solve
    chain = (n, n) if diagonal else (n * (n - 1),)
    return lambda R, out=None: solve(R.reshape(-1, *chain), out).reshape(*members, n)


def _gth_loop(n: int, diagonal: bool, *row) -> list[float]:
    """:func:`_gth_kernel`'s elimination and normalisation as a loop over one chain's rows: every
    sum adds left to right from its first term (``reduce``)."""
    # The diagonal, given or zero-filled, only ever adds into itself.
    a = [list(r) for r in row] if diagonal else [
        [*row[i * (n - 1):i * n], 0.0, *row[i * n:(i + 1) * (n - 1)]] for i in range(n)]
    for k in range(n - 1, 0, -1):
        pivot = a[k][:k]
        out = reduce(add, pivot)
        for ai in a[:k]:
            f = ai[k] = ai[k] / out
            j = 0
            for r in pivot:
                ai[j] += f * r
                j += 1
    pi = [1.0]
    for k in range(1, n):
        pi.append(reduce(add, [p * ai[k] for p, ai in zip(pi, a)]))
    s = reduce(add, pi)
    return [p / s for p in pi]


def _gth_stationary(A: np.ndarray) -> np.ndarray:
    """:func:`_gth_solver` of the chains ``A[..., j, k]``, row by row, diagonal included."""
    return _gth_solver(A.shape[-1], True, A.shape[:-2])(A)


def solve_stationary(Q) -> np.ndarray:
    """Stationary distribution of a positive row-stochastic matrix, by gated GTH elimination."""
    Q = check_transition_matrix(Q)
    return check_stationary(Q, _gth_stationary(Q))
