import dataclasses
import io
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ce_dynamics import metrics
from ce_dynamics.errors import DimensionMismatchError, ValidationError
from ce_dynamics.games import Game, expected_loss, random_game
from ce_dynamics.metrics import (
    PlayerTrace,
    RunTrace,
    average_product_distribution,
    ce_gap,
    clamped_internal_regret,
    external_regret,
    internal_regret,
    running_max_ratio,
    inner_stream,
    running_regrets,
    swap_regret,
)
from ce_dynamics.runner import DYNAMICS, RunConfig, run_dynamics


def make_trace(strategies_by_player, losses_by_player, dynamics="omwu"):
    players = [
        PlayerTrace(strategies=np.asarray(xs, dtype=float), losses=np.asarray(ls, dtype=float))
        for xs, ls in zip(strategies_by_player, losses_by_player)
    ]
    counts = tuple(p.strategies.shape[1] for p in players)
    return RunTrace(
        horizon=players[0].strategies.shape[0],
        dynamics=dynamics,
        action_counts=counts,
        etas=tuple(0.1 for _ in players),
        players=players,
    )


def random_trace(seed, n=4, T=25, players=2):
    rng = np.random.default_rng(seed)
    xs, ls = [], []
    for _ in range(players):
        w = rng.uniform(0.01, 1.0, (T, n))
        xs.append(w / w.sum(axis=1, keepdims=True))
        ls.append(rng.uniform(0, 1, (T, n)))
    return make_trace(xs, ls)


def self_play_trace(game, eta=0.05, T=60):
    from ce_dynamics.internal_dynamics import SlOmwu

    m = game.num_players
    players = [SlOmwu(n, eta) for n in game.action_counts]
    xs = [[] for _ in range(m)]
    ls = [[] for _ in range(m)]
    for _ in range(T):
        profile = [sl.next_strategy() for sl in players]
        losses = [expected_loss(game, profile, i) for i in range(m)]
        for i in range(m):
            xs[i].append(profile[i])
            ls[i].append(losses[i])
            players[i].observe(losses[i])
    return make_trace(xs, ls)


class TestExternalRegret:
    def test_uniform_play_fixed_gap(self):
        T = 12
        xs = [[0.5, 0.5]] * T
        ls = [[0.0, 1.0]] * T
        trace = make_trace([xs, xs], [ls, ls])
        assert external_regret(trace, 0) == pytest.approx(T * 0.5, abs=1e-12)

    def test_single_round_nonnegative(self):
        trace = make_trace([[[0.2, 0.8]]], [[[0.3, 0.9]]] )
        assert external_regret(trace, 0) >= 0.0

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_comparator_enumeration(self, seed):
        trace = random_trace(seed)
        xs, ls = trace.players[0].strategies, trace.players[0].losses
        play = (xs * ls).sum()
        per_action = [play - ls[:, j].sum() for j in range(ls.shape[1])]
        assert external_regret(trace, 0) == pytest.approx(max(per_action), abs=1e-12)


class TestInternalRegret:
    def test_constant_entry_losses_zero(self):
        xs = [[0.3, 0.3, 0.4]] * 9
        ls = [[0.6, 0.6, 0.6]] * 9
        trace = make_trace([xs, xs], [ls, ls])
        assert internal_regret(trace, 0) == pytest.approx(0.0, abs=1e-14)

    def test_best_action_play_nonpositive(self):
        xs = [[1.0, 0.0]] * 7
        ls = [[0.1, 0.9]] * 7
        trace = make_trace([xs, xs], [ls, ls])
        assert internal_regret(trace, 0) <= 0.0
        assert clamped_internal_regret(trace, 0) == 0.0

    def test_raw_can_be_negative(self):
        # Playing the strict per-round best action makes every pair swap
        # strictly harmful, so the raw maximum dips below zero.
        xs = [[1.0, 0.0], [0.0, 1.0]]
        ls = [[0.0, 1.0], [1.0, 0.0]]
        trace = make_trace([xs, xs], [ls, ls])
        assert internal_regret(trace, 0) == pytest.approx(-1.0, abs=1e-14)
        assert clamped_internal_regret(trace, 0) == 0.0

    def test_identity_with_ce_gap(self):
        game = random_game(2, (3, 3), seed=21)
        trace = self_play_trace(game)
        report = ce_gap(game, average_product_distribution(trace))
        want = max(internal_regret(trace, i) for i in range(2)) / trace.horizon
        assert report.max_gap == pytest.approx(want, abs=1e-10)


# Every float is an integer multiple of 2**-1074, so scaling by 2**1074 gives
# exact Python integers, and products of two scaled floats carry 2**2148.
EXACT_SCALE = 1074


def _exact_int(v):
    num, den = v.as_integer_ratio()
    return num * ((1 << EXACT_SCALE) // den)


def exact_regrets(xs, ls):
    """External, raw internal and swap regret as exact Fractions of the float inputs.

    Uses the textbook forms, independent of the pair sums the package keeps:
    external = sum_t <x_t, l_t> - min_k sum_t l_t[k],
    internal = max_{j != k} sum_t x_t[j] (l_t[j] - l_t[k]),
    swap = sum_t <x_t, l_t> - sum_j min_k sum_t x_t[j] l_t[k].
    """
    n = xs.shape[1]
    cross = [[0] * n for _ in range(n)]  # sum_t x_t[j] l_t[k], scale 2**2148
    loss_totals = [0] * n  # sum_t l_t[k], scale 2**1074
    for x, loss in zip(xs.tolist(), ls.tolist()):
        xi = [_exact_int(v) for v in x]
        li = [_exact_int(v) for v in loss]
        for j in range(n):
            row = cross[j]
            for k in range(n):
                row[k] += xi[j] * li[k]
            loss_totals[j] += li[j]
    play = sum(cross[j][j] for j in range(n))
    products, losses = 1 << (2 * EXACT_SCALE), 1 << EXACT_SCALE
    external = Fraction(play, products) - Fraction(min(loss_totals), losses)
    internal = max(cross[j][j] - cross[j][k] for j in range(n) for k in range(n) if j != k)
    swap = play - sum(min(row) for row in cross)
    return external, Fraction(internal, products), Fraction(swap, products)


class TestExactSums:
    @pytest.mark.parametrize(
        "config",
        [
            dict(dynamics="omwu", horizon=4096, eta=0.05, action_counts=(4, 4), game_seed=42),
            dict(dynamics="sl-omwu", horizon=1000, eta=5.0, action_counts=(5, 5), game_seed=3),
        ],
        ids=["omwu-4x4", "sl-omwu-5x5-stiff"],
    )
    def test_final_regrets_match_exact_sums(self, config):
        trace = run_dynamics(RunConfig(eta_rule="fixed", players=2, **config)).trace
        for i in range(2):
            pt = trace.players[i]
            want = exact_regrets(pt.strategies, pt.losses)
            got = (external_regret(trace, i), internal_regret(trace, i), swap_regret(trace, i))
            for g, w in zip(got, want):
                assert abs(Fraction(g) - w) <= Fraction(1, 10**14) * abs(w)


class TestSwapRegret:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_over_swap_maps(self, seed):
        trace = random_trace(seed, n=3, T=10)
        xs, ls = trace.players[0].strategies, trace.players[0].losses
        n = 3
        play = (xs * ls).sum()
        best = min(
            sum((xs[:, g] * ls[:, phi[g]]).sum() for g in range(n))
            for phi in itertools.product(range(n), repeat=n)
        )
        assert swap_regret(trace, 0) == pytest.approx(play - best, abs=1e-12)

    def test_four_actions_brute_force(self):
        trace = random_trace(99, n=4, T=8)
        xs, ls = trace.players[0].strategies, trace.players[0].losses
        play = (xs * ls).sum()
        best = min(
            sum((xs[:, g] * ls[:, phi[g]]).sum() for g in range(4))
            for phi in itertools.product(range(4), repeat=4)
        )
        assert swap_regret(trace, 0) == pytest.approx(play - best, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_comparator_chain(self, seed):
        trace = random_trace(seed)
        n = trace.action_counts[0]
        swap = swap_regret(trace, 0)
        assert swap >= external_regret(trace, 0) - 1e-10
        assert swap >= internal_regret(trace, 0) - 1e-12
        assert swap <= n * max(internal_regret(trace, 0), 0.0) + 1e-9


class TestRunningColumns:
    @pytest.mark.parametrize("chunk", [1, 7, 256])
    def test_block_size_does_not_change_a_bit(self, chunk, monkeypatch):
        trace = random_trace(4, n=5, T=300)
        monkeypatch.setattr(metrics, "REGRET_CHUNK_ROUNDS", 300)
        whole = [(*running_regrets(trace, i), running_max_ratio(trace, i)) for i in range(2)]
        monkeypatch.setattr(metrics, "REGRET_CHUNK_ROUNDS", chunk)
        for i in range(2):
            blocked = (*running_regrets(trace, i), running_max_ratio(trace, i))
            for got, want in zip(blocked, whole[i]):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("restart", [None, 1, 5, 10])
    def test_ratio_chain_restarts_after_a_reset(self, restart):
        trace = random_trace(6, n=3, T=10)
        x = trace.players[0].strategies
        want, best = [], 1.0
        for t in range(10):
            if 0 < t and t != restart:
                ratio = x[t] / x[t - 1]
                best = max(best, ratio.max(), (1.0 / ratio).max())
            want.append(best)
        assert running_max_ratio(trace, 0, restart=restart).tolist() == want


class TestAverageProductDistribution:
    def test_single_round_product(self):
        xs = [[[0.2, 0.8]]]
        ys = [[[0.5, 0.3, 0.2]]]
        trace = make_trace([xs[0], ys[0]], [[[0, 0]], [[0, 0, 0]]])
        mu = average_product_distribution(trace)
        np.testing.assert_allclose(mu, np.outer([0.2, 0.8], [0.5, 0.3, 0.2]), atol=1e-15)

    def test_uniform_play_uniform_average(self):
        T = 5
        xs = [[0.5, 0.5]] * T
        trace = make_trace([xs, xs], [xs, xs])
        mu = average_product_distribution(trace)
        np.testing.assert_allclose(mu, np.full((2, 2), 0.25), atol=1e-15)

    def test_simplex_properties(self):
        trace = random_trace(3)
        mu = average_product_distribution(trace)
        assert mu.min() >= 0.0
        assert abs(mu.sum() - 1.0) <= 1e-10

    @staticmethod
    def round_loop(trace):
        """Oracle: one outer product per round, added to the total in round order."""
        acc = np.zeros(trace.action_counts)
        for t in range(trace.horizon):
            block = np.ones(())
            for player in trace.players:
                block = np.multiply.outer(block, player.strategies[t])
            acc += block
        return acc / trace.horizon

    @pytest.mark.parametrize(
        "dynamics, counts, horizon, block_cap",
        [
            ("sl-omwu", (3, 3), 1024, None),
            ("omwu", (3, 4), 777, None),
            ("bm-omwu", (3, 3, 3), 1000, None),
            ("omwu", (2, 3, 2, 3), 4096, None),
            ("sl-omwu", (10, 10), 513, None),
            ("omwu", (3, 3, 3), 100, 100),  # blocks of 3 rounds
        ],
    )
    def test_bitwise_equal_to_round_loop(self, monkeypatch, dynamics, counts, horizon, block_cap):
        if block_cap is not None:
            monkeypatch.setattr(metrics, "DENSE_JOINT_MAX_ENTRIES", block_cap)
        config = RunConfig(dynamics, horizon, eta=0.3, players=len(counts), action_counts=counts)
        trace = run_dynamics(config).trace
        before = [p.strategies.copy() for p in trace.players]
        got = average_product_distribution(trace)
        assert got.tobytes() == self.round_loop(trace).tobytes()
        assert all(np.array_equal(p.strategies, b) for p, b in zip(trace.players, before))

    def test_raises_above_the_dense_cap(self, monkeypatch):
        trace = random_trace(5, n=3, T=4)
        monkeypatch.setattr(metrics, "DENSE_JOINT_MAX_ENTRIES", 9)
        assert average_product_distribution(trace).shape == (3, 3)
        monkeypatch.setattr(metrics, "DENSE_JOINT_MAX_ENTRIES", 8)
        with pytest.raises(ValidationError, match="9 cells"):
            average_product_distribution(trace)

    def test_raises_on_a_trace_with_no_rounds(self):
        # A (0, 3) two-player sl-omwu trace: the average would be 0 / 0, NaN in every cell.
        empty = PlayerTrace(strategies=np.empty((0, 3)), losses=np.empty((0, 3)),
                            pair_dists=np.empty((0, 6)))
        trace = RunTrace(horizon=0, dynamics="sl-omwu", action_counts=(3, 3), etas=(0.1, 0.1),
                         players=[empty, empty])
        with pytest.raises(ValidationError, match="no rounds to average"):
            average_product_distribution(trace)


class TestCeGap:
    def test_coordination_equilibrium_nonpositive(self):
        lam = np.array([[0.0, 1.0], [1.0, 0.0]])
        game = Game((2, 2), (lam, lam))
        mu = np.array([[0.5, 0.0], [0.0, 0.5]])  # uniform over the pure equilibria
        report = ce_gap(game, mu)
        assert report.max_gap <= 0.0
        assert report.max_gap == pytest.approx(-0.5, abs=1e-14)

    def test_constant_game_zero(self):
        game = Game((2, 2), (np.full((2, 2), 0.3), np.full((2, 2), 0.6)))
        trace = self_play_trace(game, T=10)
        report = ce_gap(game, average_product_distribution(trace))
        assert report.max_gap == pytest.approx(0.0, abs=1e-12)

    def test_rejects_a_misshaped_distribution(self):
        game = random_game(2, (2, 3), seed=2)
        with pytest.raises(DimensionMismatchError):
            ce_gap(game, np.full((3, 2), 1 / 6))


def savez_oracle(trace, path):
    """The archive as one ``np.savez`` of every array, each built whole: the header fields, then
    each player's set fields, SL's pair losses from the inner stream's z."""
    arrays = {f.name: np.array(getattr(trace, f.name))
              for f in dataclasses.fields(trace) if f.name != "players"}
    for i, pt in enumerate(trace.players):
        if pt.pair_dists is not None and pt.pair_losses is None:
            pt = dataclasses.replace(pt, pair_losses=inner_stream(trace, i)[1][:, 0])
        for f in dataclasses.fields(pt):
            if (value := getattr(pt, f.name)) is not None:
                arrays[f"p{i}_{f.name}"] = value
    np.savez(path, **arrays)


class TestTraceSerialization:
    def test_regrets_identical_after_reload(self, tmp_path):
        game = random_game(2, (3, 3), seed=13)
        trace = self_play_trace(game, T=30)
        path = tmp_path / "trace.npz"
        trace.save(path)
        again = RunTrace.load(path)
        for i in range(2):
            assert external_regret(again, i) == external_regret(trace, i)
            assert internal_regret(again, i) == internal_regret(trace, i)
            assert swap_regret(again, i) == swap_regret(trace, i)

    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_every_field_round_trips_bit_for_bit(self, tmp_path, dynamics):
        config = RunConfig(dynamics=dynamics, horizon=20, eta=0.05, players=3,
                           action_counts=(3, 4, 3))
        trace = run_dynamics(config).trace
        path = tmp_path / "trace.npz"
        trace.save(path)
        inner = {"sl": ["pair_dists", "pair_losses"], "bm": ["copy_dists"], "arbo": ["tree_dists"]}
        fields = ["strategies", "losses", *inner.get(dynamics.split("-")[0], [])]
        with np.load(path) as data:
            assert data.files == ["horizon", "dynamics", "action_counts", "etas",
                                  *(f"p{i}_{f}" for i in range(3) for f in fields)]
        again = RunTrace.load(path)
        assert (again.horizon, again.dynamics) == (trace.horizon, trace.dynamics)
        assert again.action_counts == trace.action_counts == (3, 4, 3)
        assert again.etas == trace.etas and type(again.etas[0]) is float
        for i, (old, new) in enumerate(zip(trace.players, again.players)):
            # A played trace holds no pair losses: save writes SL's from the inner stream's z.
            assert old.pair_losses is None
            played = {**vars(old), "pair_losses": inner_stream(trace, i)[1][:, 0]
                      if "pair_losses" in fields else None}
            for name, want in played.items():
                if name in fields:
                    assert getattr(new, name).dtype == want.dtype
                    assert getattr(new, name).tobytes() == want.tobytes()
                else:
                    assert want is None and getattr(new, name) is None

    @pytest.mark.parametrize("horizon", [1, 300])
    @pytest.mark.parametrize("counts", [(3, 3), (3, 4, 3)], ids=["m2", "m3"])
    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_save_writes_the_bytes_of_one_savez(self, tmp_path, dynamics, counts, horizon):
        # save streams member by member and block by block; 300 rounds cross a block boundary.
        config = RunConfig(dynamics=dynamics, horizon=horizon, eta=0.05, players=len(counts),
                           action_counts=counts)
        trace = run_dynamics(config).trace
        savez_oracle(trace, tmp_path / "want.npz")
        want = (tmp_path / "want.npz").read_bytes()
        trace.save(tmp_path / "trace.npz")
        assert (tmp_path / "trace.npz").read_bytes() == want
        trace.save(str(tmp_path / "bare"))  # np.savez's suffix for a path without one
        assert (tmp_path / "bare.npz").read_bytes() == want
        buffer = io.BytesIO()
        trace.save(buffer)
        assert buffer.getvalue() == want
        again = RunTrace.load(tmp_path / "trace.npz")
        with np.load(tmp_path / "want.npz") as arrays:
            for i, pt in enumerate(again.players):
                for f in dataclasses.fields(pt):
                    if (value := getattr(pt, f.name)) is not None:
                        assert value.tobytes() == arrays[f"p{i}_{f.name}"].tobytes()
                    else:
                        assert f"p{i}_{f.name}" not in arrays

    @pytest.mark.parametrize("dynamics", ["sl-omwu", "sl-mwu"])
    def test_saved_pair_losses_are_the_inner_streams_z(self, tmp_path, dynamics):
        # SL's pair losses are not kept on the played trace; save writes them from the stream.
        config = RunConfig(dynamics=dynamics, horizon=300, eta=0.05, players=3,
                           action_counts=(3, 4, 3))
        trace = run_dynamics(config).trace
        trace.save(tmp_path / "trace.npz")
        with np.load(tmp_path / "trace.npz") as data:
            for i, pt in enumerate(trace.players):
                assert pt.pair_losses is None
                want = inner_stream(trace, i)[1][:, 0]
                assert data[f"p{i}_pair_losses"].tobytes() == want.tobytes()
                assert data[f"p{i}_pair_losses"].shape == pt.pair_dists.shape

    @pytest.mark.parametrize("name", ["strategies", "losses"])
    def test_a_missing_required_array_is_named(self, tmp_path, name):
        trace = self_play_trace(random_game(2, (3, 3), seed=13), T=5)
        setattr(trace.players[1], name, None)
        trace.save(tmp_path / "trace.npz")
        with pytest.raises(ValidationError, match=f"p1_{name}"):
            RunTrace.load(tmp_path / "trace.npz")

    @staticmethod
    def saved_arrays(tmp_path, dynamics="bm-omwu"):
        """A saved 20-round trace of a 2-player 3x3 game, as its file's arrays."""
        config = RunConfig(dynamics=dynamics, horizon=20, eta=0.05, players=2, action_counts=(3, 3))
        run_dynamics(config).trace.save(tmp_path / "trace.npz")
        with np.load(tmp_path / "trace.npz") as data:
            return dict(data)

    def test_a_missing_header_array_is_named(self, tmp_path):
        arrays = self.saved_arrays(tmp_path)
        del arrays["etas"]
        np.savez(tmp_path / "trace.npz", **arrays)
        with pytest.raises(ValidationError, match="lacks the array etas"):
            RunTrace.load(tmp_path / "trace.npz")

    def test_an_unknown_dynamics_is_named(self, tmp_path):
        # Read as omwu's, SL's pair-mass stream would pass for the strategies, silently.
        arrays = self.saved_arrays(tmp_path, "sl-omwu")
        arrays["dynamics"] = np.array("sl_omwu")
        np.savez(tmp_path / "trace.npz", **arrays)
        with pytest.raises(ValidationError, match="unknown dynamics 'sl_omwu'"):
            RunTrace.load(tmp_path / "trace.npz")

    @pytest.mark.parametrize("etas", [[0.05], [0.05] * 3, 0.05], ids=["short", "long", "scalar"])
    def test_etas_off_one_rate_per_player_names_both_shapes(self, tmp_path, etas):
        arrays = self.saved_arrays(tmp_path)
        arrays["etas"] = np.array(etas)
        np.savez(tmp_path / "trace.npz", **arrays)
        message = f"etas has shape {np.shape(etas)}, expected (2,)"
        with pytest.raises(DimensionMismatchError, match=re.escape(message)):
            RunTrace.load(tmp_path / "trace.npz")

    def test_a_truncated_file_is_named(self, tmp_path):
        self.saved_arrays(tmp_path)
        path = tmp_path / "trace.npz"
        path.write_bytes(path.read_bytes()[:-100])  # the zip's central directory is lost
        with pytest.raises(ValidationError, match="trace.npz is not a trace archive"):
            RunTrace.load(path)

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_a_path_that_cannot_be_read_is_named(self, tmp_path, kind):
        path = tmp_path / "trace.npz" if kind == "missing" else tmp_path
        with pytest.raises(ValidationError, match=re.escape(f"cannot read trace archive {path}: ")):
            RunTrace.load(path)

    @pytest.mark.parametrize("content", [b"not an archive", b"", np.zeros(3)],
                             ids=["text", "empty", "npy"])
    def test_a_file_that_is_no_archive_is_named(self, tmp_path, content):
        path = tmp_path / "trace.npz"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            with open(path, "wb") as file:
                np.save(file, content)
        with pytest.raises(ValidationError, match="trace.npz is not a trace archive"):
            RunTrace.load(path)

    @pytest.mark.parametrize("dynamics, key, shape", [
        ("bm-omwu", "p1_losses", (5, 3)),
        ("bm-omwu", "p0_strategies", (21, 3)),
        ("bm-omwu", "p0_copy_dists", (20, 2, 3)),
        ("sl-omwu", "p1_pair_dists", (20, 3)),
        ("sl-omwu", "p0_pair_losses", (20, 6, 1)),
        ("arbo", "p1_tree_dists", (20, 27)),
    ], ids=["losses-rounds", "strategies-rounds", "copy-dists", "pair-dists", "pair-losses",
            "tree-dists"])
    def test_an_array_off_its_shape_names_both_shapes(self, tmp_path, dynamics, key, shape):
        # A wrong leading axis or round shape fails at the file, not later inside numpy.
        arrays = self.saved_arrays(tmp_path, dynamics)
        want = arrays[key].shape
        arrays[key] = np.full(shape, 0.5)
        np.savez(tmp_path / "trace.npz", **arrays)
        message = f"{key} has shape {shape}, expected {want}"
        with pytest.raises(DimensionMismatchError, match=re.escape(message)):
            RunTrace.load(tmp_path / "trace.npz")
