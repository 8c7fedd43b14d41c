import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ce_dynamics.errors import StationaryResidualError, ValidationError
from ce_dynamics.internal_dynamics import SlOmwu, _pair_rates
from ce_dynamics.markov_tree import (
    Arborescence,
    _gth_stationary,
    _rooted_parent_arrays,
    _row_sum_source,
    _tree_weight_sums,
    all_arborescences,
    check_stationary,
    check_transition_matrix,
    enumerate_arborescences,
    solve_stationary,
    stationary_residual,
    tree_theorem_stationary,
)
from ce_dynamics.runner import RunConfig, play_dynamics
from ce_dynamics.swap_dynamics import BmOmwu

# The 16 directed trees on 4 nodes rooted at node 0, written as the parents
# of nodes 1, 2, 3. Transcribed by hand from the three-edge drawings: each
# tree is (parent of 1, parent of 2, parent of 3).
FOUR_NODE_ROOT0_TREES = {
    (0, 0, 0), (0, 0, 1), (0, 0, 2),
    (0, 1, 0), (0, 1, 1), (0, 1, 2),
    (0, 3, 0), (0, 3, 1),
    (2, 0, 0), (2, 0, 1), (2, 0, 2),
    (2, 3, 0),
    (3, 0, 0), (3, 0, 2),
    (3, 1, 0),
    (3, 3, 0),
}


def walk_to_root(tree: Arborescence) -> bool:
    """Independent acyclicity check: every node reaches the root in < n hops."""
    n = len(tree.parents)
    for start in range(n):
        node = start
        for _ in range(n):
            if node == tree.root:
                break
            node = tree.parents[node]
        else:
            return False
    return True


def random_positive_stochastic(rng, n):
    Q = rng.uniform(0.05, 1.0, (n, n))
    return Q / Q.sum(axis=1, keepdims=True)


class TestEnumeration:
    def test_two_nodes_forced(self):
        trees = enumerate_arborescences(2, root=0)
        assert trees == [Arborescence((0, 0))]
        assert trees[0].edges() == [(1, 0)]

    def test_four_nodes_matches_hand_list(self):
        trees = enumerate_arborescences(4, root=0)
        assert len(trees) == 16
        assert {tree.parents[1:] for tree in trees} == FOUR_NODE_ROOT0_TREES

    @pytest.mark.parametrize("n", range(2, 8))
    def test_cayley_count_per_root(self, n):
        for root in range(n):
            trees = enumerate_arborescences(n, root)
            assert len(trees) == n ** (n - 2)
            assert len(set(trees)) == len(trees)

    def test_five_nodes_union(self):
        assert len(enumerate_arborescences(5, 2)) == 125
        union = all_arborescences(5)
        assert len(set(union)) == 5**4 == 625

    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_tree_walks_to_root(self, n):
        for root in range(n):
            assert all(walk_to_root(t) for t in enumerate_arborescences(n, root))

    def test_canonical_order_is_lexicographic(self):
        trees = enumerate_arborescences(4, root=1)
        keys = [t.parents for t in trees]
        assert keys == sorted(keys)

    def test_structure_invariants(self):
        for tree in enumerate_arborescences(4, root=2):
            assert tree.root == 2
            assert len(tree.edges()) == 3
            assert all(child != parent for child, parent in tree.edges())

    def test_parent_array_without_root(self):
        with pytest.raises(ValidationError, match=r"parent array \(1, 0\) has no root"):
            Arborescence((1, 0)).root

    def test_range_guards(self):
        with pytest.raises(ValidationError):
            enumerate_arborescences(8, 0)
        with pytest.raises(ValidationError):
            enumerate_arborescences(1, 0)
        with pytest.raises(ValidationError):
            enumerate_arborescences(3, 5)


class TestTreeTheorem:
    def test_two_state_closed_form(self):
        # pi = (b, a) / (a + b) for off-diagonal rates a, b; here (0.75, 0.25).
        Q = np.array([[0.8, 0.2], [0.6, 0.4]])
        np.testing.assert_allclose(tree_theorem_stationary(Q), [0.75, 0.25], atol=1e-14)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_uniform_matrix(self, n):
        Q = np.full((n, n), 1.0 / n)
        np.testing.assert_allclose(tree_theorem_stationary(Q), np.full(n, 1.0 / n), atol=1e-14)

    def test_doubly_stochastic_uniform(self):
        Q = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
        np.testing.assert_allclose(tree_theorem_stationary(Q), np.full(3, 1 / 3), atol=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            tree_theorem_stationary(np.array([[1.0, 0.0], [0.5, 0.5]]))

    def test_rejects_large_n(self):
        Q = np.full((8, 8), 1 / 8)
        with pytest.raises(ValidationError):
            tree_theorem_stationary(Q)

    @pytest.mark.parametrize("solver", [tree_theorem_stationary, solve_stationary])
    def test_rejects_empty_matrix(self, solver):
        # An empty matrix has no minimum to take: the typed error comes first.
        with pytest.raises(ValidationError, match=r"square, non-empty, got shape \(0, 0\)"):
            solver(np.zeros((0, 0)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("solver", [tree_theorem_stationary, solve_stationary])
    def test_rejects_non_finite_entries(self, solver, value):
        with pytest.raises(ValidationError, match="non-finite entries"):
            solver([[0.5, value], [0.5, 0.5]])

    @pytest.mark.parametrize("solver", [tree_theorem_stationary, solve_stationary])
    def test_rejects_huge_entries_without_overflow(self, solver):
        # Summing the first row would overflow; under the suite's warning filter an
        # overflow raises RuntimeWarning, so only a ValidationError passes here.
        with pytest.raises(ValidationError, match="must not exceed 1"):
            solver([[1e308, 1e308], [1.0, 1.0]])


class TestSolveStationary:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_tree_theorem(self, seed, n):
        Q = random_positive_stochastic(np.random.default_rng(seed), n)
        pi_tree = tree_theorem_stationary(Q)
        pi_lin = solve_stationary(Q)
        assert np.abs(pi_tree - pi_lin).max() <= 1e-10
        assert stationary_residual(Q, pi_lin) <= 1e-10
        assert pi_lin.min() >= 0.0
        assert abs(pi_lin.sum() - 1.0) <= 1e-12
        assert (np.abs(pi_lin - pi_tree) / pi_tree).max() <= 1e-12

    def test_rejects_zero_entries(self):
        with pytest.raises(ValidationError):
            solve_stationary(np.eye(3))

    def test_one_state_chain(self):
        # No off-diagonal rates to eliminate: the lone state holds all the mass.
        assert solve_stationary([[1.0]]).tolist() == [1.0]

    @pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-2])
    def test_perturbed_permutation(self, eps):
        n = 4
        P = np.eye(n)[[1, 2, 3, 0]]
        Q = (1 - eps) * P + eps / n
        pi = solve_stationary(Q)
        assert stationary_residual(Q, pi) <= 1e-10
        np.testing.assert_allclose(pi, np.full(n, 1 / n), atol=1e-9)

    @pytest.mark.parametrize("eps", [1e-12, 1e-14])
    def test_near_identity_is_uniform(self, eps):
        # Every off-diagonal entry is eps, so the exact answer is uniform. Any
        # distribution has a residual below 2 * eps here, so the residual
        # cannot tell a wrong answer from the right one.
        Q = (1 - 2 * eps) * np.eye(3) + eps * (1 - np.eye(3))
        pi = solve_stationary(Q)
        assert np.abs(3 * pi - 1).max() <= 1e-14

    def test_birth_death_closed_form(self):
        # Rates k -> k+1 are up[k], k+1 -> k are down[k]; pi[k+1] / pi[k] is
        # up[k] / down[k]. The chain has zero entries, which solve_stationary
        # refuses, so the elimination is called directly.
        up = [1.0, 1e-3, 1e-12, 0.5, 1e-6, 1.0, 1e-9]
        down = [1e-3, 1.0, 1e-12, 1e-6, 0.3, 1e-9, 1.0]
        n = len(up) + 1
        A = np.zeros((n, n))
        expected = [1.0]
        for k in range(n - 1):
            A[k, k + 1] = up[k]
            A[k + 1, k] = down[k]
            expected.append(expected[-1] * up[k] / down[k])
        expected = np.array(expected) / sum(expected)
        pi = _gth_stationary(A)
        assert (np.abs(pi - expected) / expected).max() <= 1e-13

    def test_nan_rate_fails_the_residual_gate(self):
        A = np.array([[0.0, np.nan], [0.5, 0.0]])
        with pytest.raises(StationaryResidualError):
            check_stationary(A, _gth_stationary(A))

    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValidationError):
            solve_stationary(np.array([[0.7, 0.2], [0.5, 0.5]]))

    def test_residual_error_carries_value(self):
        err = StationaryResidualError("failed", residual=0.5)
        assert err.residual == 0.5


def reference_gth(A):
    """GTH elimination indexed a[i][j], as the package first wrote it, sums spelled out.

    The sums run left to right from int 0, which is what Python 3.11's
    ``sum()`` computes, so this reference gives the same bits on every
    Python version.
    """
    n = A.shape[-1]
    pis = []
    for a in A.reshape(-1, n, n).tolist():
        for k in range(n - 1, 0, -1):
            row = a[k]
            out = 0
            for j in range(k):
                out += row[j]
            for i in range(k):
                ai = a[i]
                f = ai[k] / out
                ai[k] = f
                for j in range(k):
                    ai[j] += f * row[j]
        pi = [1.0]
        for k in range(1, n):
            total = 0
            for i in range(k):
                total += pi[i] * a[i][k]
            pi.append(total)
        pis.append(pi)
    pi = np.array(pis)
    pi /= pi.sum(axis=-1, keepdims=True)
    return pi.reshape(A.shape[:-1])


def golden_chains():
    """A fixed seeded set of rate arrays: n = 2..10, 1-3 members, three rate scales."""
    rng = np.random.default_rng(20211111)
    for n in range(2, 11):
        for members in (1, 2, 3):
            for scale in (1.0, 1e-150, 1e-300):
                yield rng.uniform(0.01, 1.0, (members, n, n)) * scale
        yield np.exp(rng.uniform(-40.0, 0.0, (n, n)))  # rates spanning 17 decades, no member axis


# sha256 of _gth_stationary over golden_chains(), recorded with the index-loop
# elimination and Python 3.11's left-to-right sum().
GTH_GOLDEN_SHA256 = "784e61301076445987b6540cfbe4826792c7f62c785f8176c400ddc3ef57f0e9"


class TestGthPinned:
    """The elimination's bits are pinned: to the index-loop reference, and to a recorded digest."""

    # n = 2..16 runs the generated kernel of every state count, n = 17 the loop above the cap.
    @pytest.mark.parametrize("n", range(2, 18))
    @pytest.mark.parametrize("members", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-300])
    def test_bitwise_equal_to_the_index_loop(self, n, members, scale):
        rng = np.random.default_rng(1000 * n + members)
        A = rng.uniform(0.01, 1.0, (members, n, n)) * scale
        pi = _gth_stationary(A)
        assert pi.shape == (members, n)
        assert pi.tobytes() == reference_gth(A).tobytes()
        # Whole rows go in, and the diagonal is never read: a NaN there changes no bit.
        A_nan = A.copy()
        A_nan[:, range(n), range(n)] = np.nan
        assert _gth_stationary(A_nan).tobytes() == pi.tobytes()
        assert _gth_stationary(A_nan[0]).tobytes() == pi[0].tobytes()
        # The learners' solves: SL's from its pair masses, which are A's off-diagonal
        # rates with the diagonal dropped, and BM's from its copy matrix A.
        p = A[:, ~np.eye(n, dtype=bool)]
        assert reference_gth(_pair_rates(p, n)).tobytes() == pi.tobytes()
        for dyn, rates in ((SlOmwu(n, np.ones(members)), p), (BmOmwu(n, np.ones(members)), A)):
            dyn.learner.next_strategy = lambda: rates
            assert dyn._next_strategy().tobytes() == pi.tobytes()
            assert dyn.next_strategy().tobytes() == pi.tobytes()

    @pytest.mark.parametrize("n", range(1, 18))
    def test_kernel_row_sum_is_numpys(self, n):
        # The kernel normalises pi itself, in the order numpy's row sum adds, so the
        # bits equal the index loop's pi / pi.sum(axis=-1). A numpy whose reduction
        # order changed fails here first.
        rows = np.exp(np.random.default_rng(n).uniform(-46.0, 46.0, (2000, n)))  # 40 decades
        names = [f"p{k}" for k in range(n)]
        row_sum = eval(f"lambda {', '.join(names)}: {_row_sum_source(names)}")
        sums = np.array([row_sum(*row) for row in rows.tolist()])
        assert sums.tobytes() == np.add.reduce(rows, axis=-1).tobytes()

    def test_golden_digest(self):
        digest = hashlib.sha256()
        for A in golden_chains():
            digest.update(_gth_stationary(A).tobytes())
        assert digest.hexdigest() == GTH_GOLDEN_SHA256

    def test_reference_gives_the_golden_digest(self):
        digest = hashlib.sha256()
        for A in golden_chains():
            digest.update(reference_gth(A).tobytes())
        assert digest.hexdigest() == GTH_GOLDEN_SHA256


def exact_gth(A):
    """GTH elimination in exact rationals: the exact stationary distribution of the float rates."""
    n = len(A)
    a = [[Fraction(x) for x in row] for row in A.tolist()]
    for k in range(n - 1, 0, -1):
        out = sum(a[k][:k])
        for i in range(k):
            f = a[i][k] = a[i][k] / out
            for j in range(k):
                a[i][j] += f * a[k][j]
    pi = [Fraction(1)]
    for k in range(1, n):
        pi.append(sum(pi[i] * a[i][k] for i in range(k)))
    return [p / sum(pi) for p in pi]


class TestGthExact:
    """The played pi against the exact pi of its chain, on the stiffest chains of seeded runs."""

    # SL 5x5 at eta = 5 plays chains whose rates span up to ~140 decades; BM 4x4 at
    # eta = 50 puts copy rows on the 1e-300 weight floor, ~300 decades from their top.
    @pytest.mark.parametrize("dynamics, n, eta", [("sl-omwu", 5, 5.0), ("bm-omwu", 4, 50.0)])
    def test_relative_error_within_8_n_ulps(self, dynamics, n, eta):
        config = RunConfig(dynamics, 300, eta=eta, players=2, action_counts=(n, n), game_seed=3)
        for player in play_dynamics(config).trace.players:
            A = _pair_rates(player.pair_dists, n) if dynamics == "sl-omwu" else player.copy_dists
            rates = A[:, ~np.eye(n, dtype=bool)]
            stiffest = np.argsort(rates.max(axis=1) / rates.min(axis=1))[-25:]
            for t in stiffest:
                exact = exact_gth(A[t])
                worst = max(abs(Fraction(x) - e) / e for x, e in zip(player.strategies[t].tolist(), exact))
                assert worst <= 8 * n * Fraction(2) ** -53


def reference_tree_weight_sums(Q):
    """Per-root tree weights gathered root by root, as the package first computed them."""
    n = Q.shape[0]
    sums = np.empty(n)
    for root in range(n):
        arrays = _rooted_parent_arrays(n, root)
        children = np.array([v for v in range(n) if v != root])
        weights = Q[children[None, :], arrays[:, children]]
        sums[root] = weights.prod(axis=1).sum()
    return sums


def tree_golden_chains():
    """A fixed seeded set of positive row-stochastic matrices, n = 2..7."""
    rng = np.random.default_rng(20211112)
    for n in range(2, 8):
        for _ in range(20 if n < 7 else 3):
            Q = rng.uniform(0.01, 1.0, (n, n))
            yield Q / Q.sum(axis=1, keepdims=True)
        Q = np.exp(rng.uniform(-40.0, 0.0, (n, n)))  # entries spanning 17 decades
        yield Q / Q.sum(axis=1, keepdims=True)


# sha256 of tree_theorem_stationary over tree_golden_chains(), recorded with the
# per-root loop of reference_tree_weight_sums.
TREE_GOLDEN_SHA256 = "b0ce657f348d74a10f76bf07d6374d2a8f9f146c4beb1838012eb93cdc326d11"


class TestTreeWeightsPinned:
    """The tree weights' bits are pinned: to the per-root loop, and to a recorded digest."""

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("scale", [1.0, 1e-40, 1e-150])
    def test_bitwise_equal_to_the_per_root_loop(self, n, scale):
        rng = np.random.default_rng(100 * n)
        for _ in range(20 if n < 7 else 2):
            Q = rng.uniform(0.01, 1.0, (n, n)) * scale
            assert _tree_weight_sums(Q).tobytes() == reference_tree_weight_sums(Q).tobytes()

    def test_golden_digest(self):
        digest = hashlib.sha256()
        for Q in tree_golden_chains():
            digest.update(tree_theorem_stationary(Q).tobytes())
        assert digest.hexdigest() == TREE_GOLDEN_SHA256

    def test_reference_gives_the_golden_digest(self):
        digest = hashlib.sha256()
        for Q in tree_golden_chains():
            sums = reference_tree_weight_sums(check_transition_matrix(Q))
            digest.update((sums / sums.sum()).tobytes())
        assert digest.hexdigest() == TREE_GOLDEN_SHA256


class TestTreeTheoremExact:
    """The tree theorem's pi against the exact pi of its chain, entry by entry."""

    @staticmethod
    def worst_relative_error(Q):
        exact = exact_gth(Q)
        pi = tree_theorem_stationary(Q).tolist()
        return max(abs(Fraction(x) - e) / e for x, e in zip(pi, exact))

    def test_golden_chains_within_8_n_ulps(self):
        for Q in tree_golden_chains():
            assert self.worst_relative_error(Q) <= 8 * len(Q) * Fraction(2) ** -53

    @pytest.mark.parametrize("n", range(2, 8))
    def test_stiff_chains_within_8_n_ulps(self, n):
        # Entries spanning 26 decades, down to e^-60 before the rows are normalised.
        rng = np.random.default_rng(7000 + n)
        for _ in range(10 if n < 7 else 3):
            Q = np.exp(rng.uniform(-60.0, 0.0, (n, n)))
            Q /= Q.sum(axis=1, keepdims=True)
            assert self.worst_relative_error(Q) <= 8 * n * Fraction(2) ** -53
