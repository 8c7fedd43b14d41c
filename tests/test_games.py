import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ce_dynamics.errors import DimensionMismatchError, GameFormatError, ValidationError
from ce_dynamics.games import (
    Game,
    _contract,
    expected_loss,
    is_distribution,
    load_game,
    random_game,
    save_game,
)


def brute_force_expected_loss(game, profile, player):
    """Naive full-tensor sum over every joint profile; the oracle."""
    n = game.action_counts[player]
    out = np.zeros(n)
    for a in np.ndindex(*game.action_counts):
        prob = np.prod([profile[i][a[i]] for i in range(game.num_players) if i != player])
        out[a[player]] += game.losses[player][a] * prob
    return out


def uniform_profile(counts):
    return [np.full(n, 1.0 / n) for n in counts]


class TestExpectedLoss:
    def test_deterministic_opponent(self):
        losses = np.arange(6, dtype=float).reshape(2, 3) / 10.0
        game = Game((2, 3), (losses, losses.copy()))
        for k in range(3):
            opp = np.zeros(3)
            opp[k] = 1.0
            ell = expected_loss(game, [np.array([0.5, 0.5]), opp], player=0)
            np.testing.assert_array_equal(ell, losses[:, k])

    def test_constant_tensor(self):
        game = Game((2, 2), (np.full((2, 2), 0.4), np.full((2, 2), 0.4)))
        ell = expected_loss(game, [np.array([0.1, 0.9]), np.array([0.7, 0.3])], player=0)
        np.testing.assert_allclose(ell, [0.4, 0.4], atol=1e-15)

    def test_two_by_two_hand_value(self):
        # Opponent (0.3, 0.7) against the mismatch tensor: hand expansion of
        # the bilinear form gives (0.7, 0.3); the brute-force oracle agrees.
        lam = np.array([[0.0, 1.0], [1.0, 0.0]])
        game = Game((2, 2), (lam, lam))
        profile = [np.array([0.5, 0.5]), np.array([0.3, 0.7])]
        ell = expected_loss(game, profile, player=0)
        np.testing.assert_allclose(ell, [0.7, 0.3], atol=1e-15)
        np.testing.assert_allclose(ell, brute_force_expected_loss(game, profile, 0), atol=1e-15)

    @pytest.mark.parametrize("counts,seed", [((2, 2), 0), ((3, 2), 1), ((2, 3, 2), 2), ((3, 3, 3), 3),
                                             ((2, 3, 2, 3), 4)])
    def test_matches_brute_force(self, counts, seed):
        game = random_game(len(counts), counts, seed)
        rng = np.random.default_rng(seed)
        profile = []
        for n in counts:
            w = rng.uniform(0.1, 1.0, n)
            profile.append(w / w.sum())
        for player in range(len(counts)):
            got = expected_loss(game, profile, player)
            want = brute_force_expected_loss(game, profile, player)
            np.testing.assert_allclose(got, want, atol=1e-12)
            assert got.min() >= 0.0 and got.max() <= 1.0
            assert _contract(game, profile, player).tobytes() == got.tobytes()

    def test_range_for_any_profile(self):
        game = random_game(2, (4, 5), seed=9)
        rng = np.random.default_rng(1)
        for _ in range(50):
            profile = []
            for n in game.action_counts:
                w = rng.uniform(0, 1, n) + 1e-9
                profile.append(w / w.sum())
            for i in range(2):
                ell = expected_loss(game, profile, i)
                assert ell.min() >= -1e-15 and ell.max() <= 1.0 + 1e-15

    @given(lam=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_multilinearity(self, lam):
        game = random_game(2, (3, 3), seed=11)
        me = np.array([0.2, 0.5, 0.3])
        x = np.array([0.6, 0.3, 0.1])
        y = np.array([0.1, 0.1, 0.8])
        mix = lam * x + (1 - lam) * y
        blended = lam * expected_loss(game, [me, x], 0) + (1 - lam) * expected_loss(game, [me, y], 0)
        np.testing.assert_allclose(expected_loss(game, [me, mix], 0), blended, atol=1e-12)

    def test_dimension_mismatch_names_player(self):
        game = random_game(2, (2, 3), seed=0)
        with pytest.raises(DimensionMismatchError, match="player 1"):
            expected_loss(game, [np.array([0.5, 0.5]), np.array([0.5, 0.5])], 0)

    @pytest.mark.parametrize("profile, error, match", [
        ([[0.5, 0.5]], DimensionMismatchError, "profile has 1 strategies for 2 players"),
        ([[0.5, 0.5], [0.5, 0.6, 0.1]], ValidationError, "player 1 is not a probability vector"),
    ], ids=["count", "off-simplex"])
    def test_bad_profile_refused(self, profile, error, match):
        with pytest.raises(error, match=match):
            expected_loss(random_game(2, (2, 3), seed=0), profile, 0)


def contract_axes(tensor, strategies, player):
    """Oracle: contract every axis of ``tensor`` but ``player``'s with ``np.tensordot``."""
    # Contract opponent axes from the highest down so axis indices stay valid.
    for axis in reversed(range(len(strategies))):
        if axis != player:
            tensor = np.tensordot(tensor, strategies[axis], axes=([axis], [0]))
    return tensor


def matmul_contract(game, strategies, player):
    """The contraction as the round loop first ran it: one ``@`` per opponent."""
    tensor = game.losses[player]
    for x in strategies[:player:-1]:
        tensor = tensor @ x
    for x in strategies[:player]:
        tensor = x @ tensor.reshape(len(x), -1)
    return tensor


class TestContract:
    """The unchecked step behind ``expected_loss``, which the round loop calls."""

    @pytest.mark.parametrize("counts", [(2, 2), (3, 3), (2, 7), (7, 2), (5, 10), (12, 4)])
    def test_two_player_matmul_matches_tensordot_bitwise(self, counts):
        game = random_game(2, counts, seed=sum(counts))
        rng = np.random.default_rng(counts[0] * 100 + counts[1])
        for _ in range(40):
            profile = [rng.dirichlet(np.ones(n)) for n in counts]
            for player in range(2):
                got = _contract(game, profile, player)
                want = contract_axes(game.losses[player], profile, player)
                assert got.shape == (counts[player],)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "counts",
        [(3, 3, 3), (2, 3, 4), (4, 2, 3), (5, 5, 5), (3, 3, 3, 3), (2, 5, 3, 4),
         (2, 2, 2, 2, 2), (10, 10, 10)],
    )
    def test_many_player_matches_tensordot(self, counts):
        # Past two players the contraction order differs from tensordot's, so
        # only float reassociation separates the two.
        game = random_game(len(counts), counts, seed=sum(counts))
        rng = np.random.default_rng(len(counts) * 1000 + sum(counts))
        for _ in range(20):
            profile = [rng.dirichlet(np.ones(n) * 0.3) for n in counts]
            for player in range(len(counts)):
                got = _contract(game, profile, player)
                want = contract_axes(game.losses[player], profile, player)
                assert got.shape == (counts[player],)
                np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize(
        "counts",
        [(3, 3), (2, 7), (10, 4), (3, 3, 3), (2, 5, 3), (4, 2, 6), (3, 2, 4, 2), (2, 3, 2, 5)],
    )
    def test_bitwise_equal_to_the_matmul_chain(self, counts):
        # _contract calls ndarray.dot wherever the tensor is 2-D; on this BLAS those calls
        # must give the bits of the matmul chain the round loop first ran, for every player.
        game = random_game(len(counts), counts, seed=len(counts) + sum(counts))
        rng = np.random.default_rng(10 * sum(counts) + len(counts))
        for _ in range(50):
            profile = [rng.dirichlet(np.ones(n) * rng.choice([0.2, 1.0, 5.0])) for n in counts]
            for player in range(len(counts)):
                want = matmul_contract(game, profile, player)
                assert _contract(game, profile, player).tobytes() == want.tobytes()

    @pytest.mark.parametrize("counts", [(2, 7), (3, 3), (2, 3, 2), (3, 3, 3)])
    def test_expected_loss_is_check_plus_contract(self, counts):
        game = random_game(len(counts), counts, seed=4)
        profile = uniform_profile(counts)
        for player in range(len(counts)):
            got = expected_loss(game, [list(x) for x in profile], player)
            assert got.tobytes() == _contract(game, profile, player).tobytes()


class TestRandomGame:
    def test_determinism(self):
        a = random_game(2, (2, 2), seed=1)
        b = random_game(2, (2, 2), seed=1)
        assert save_game(a) == save_game(b)

    def test_range(self):
        game = random_game(2, (2, 2), seed=1)
        for tensor in game.losses:
            assert tensor.size == 4
            assert tensor.min() >= 0.0 and tensor.max() < 1.0

    def test_distinct_seeds_differ(self):
        a = random_game(2, (3, 3), seed=1)
        b = random_game(2, (3, 3), seed=2)
        assert any(not np.array_equal(x, y) for x, y in zip(a.losses, b.losses))

    def test_seed_range_ends(self):
        # Seeds are the stream's 64-bit start state: both ends of [0, 2^64) play, each its own
        # game, and one step past either end is refused, not wrapped onto the other end.
        first, last = random_game(2, (3, 3), seed=0), random_game(2, (3, 3), seed=2**64 - 1)
        assert save_game(first) != save_game(last)
        for seed in (-1, 2**64, 2**65 + 7):
            with pytest.raises(ValidationError, match=r"outside \[0, 2\*\*64\)"):
                random_game(2, (3, 3), seed=seed)

    def test_invalid_shape(self):
        with pytest.raises(ValidationError):
            random_game(1, (3,), seed=0)
        with pytest.raises(ValidationError):
            random_game(2, (3, 1), seed=0)


class TestSerialization:
    def test_round_trip_identity(self):
        game = random_game(3, (2, 3, 2), seed=5)
        again = load_game(save_game(game))
        assert again.action_counts == game.action_counts
        for x, y in zip(game.losses, again.losses):
            np.testing.assert_array_equal(x, y)
        assert save_game(again) == save_game(game)

    def test_out_of_range_entry_rejected(self):
        doc = {"players": 2, "actions": [2, 2], "losses": [[0, 0, 0, 1.5], [0, 0, 0, 0]]}
        with pytest.raises(ValidationError):
            load_game(json.dumps(doc).encode())

    def test_truncated_file_reports_offset(self):
        data = save_game(random_game(2, (2, 2), seed=1))[:-9]
        with pytest.raises(GameFormatError) as info:
            load_game(data)
        assert info.value.offset is not None

    def test_wrong_cell_count(self):
        doc = {"players": 2, "actions": [2, 2], "losses": [[0, 0, 0], [0, 0, 0, 0]]}
        with pytest.raises(GameFormatError, match="entries"):
            load_game(json.dumps(doc).encode())

    def test_text_is_read_as_utf8(self):
        game = random_game(2, (2, 3), seed=5)
        assert save_game(load_game(save_game(game).decode())) == save_game(game)

    @pytest.mark.parametrize("data, match, offset", [
        (b'{"players": 2\xff}', "not UTF-8", 13),
        (b"[2, [2, 2]]", "must be an object", None),
        (b'{"players": 3, "actions": [2, 2], "losses": []}', "'actions' lists 2 players but "
                                                            "'players' is 3", None),
        # A count that is no JSON integer is refused, not truncated or coerced.
        (b'{"players": 2.9, "actions": [3, 3], "losses": []}', "'players' is 2.9, not a JSON "
                                                              "integer", None),
        (b'{"players": 2, "actions": [3.7, 3], "losses": []}', r"actions\[0\] is 3.7, not a "
                                                              "JSON integer", None),
        (b'{"players": 2, "actions": [2, 2.0], "losses": []}', r"actions\[1\] is 2.0", None),
        (b'{"players": true, "actions": [2, 2], "losses": []}', "'players' is true", None),
        (b'{"players": 2, "actions": [2, false], "losses": []}', r"actions\[1\] is false", None),
    ], ids=["non-utf8", "not-an-object", "actions-vs-players", "float-players", "float-actions",
            "integral-float-actions", "bool-players", "bool-actions"])
    def test_bad_file_refused(self, data, match, offset):
        with pytest.raises(GameFormatError, match=match) as info:
            load_game(data)
        assert info.value.offset == offset

    # A loss entry that is no JSON number is refused, not coerced: "0.5" and true are no 0.5, 1.0.
    @pytest.mark.parametrize("losses, field", [
        ([["a", 0, 0, 0], [0, 0, 0, 0]], r"losses\[0\]\[0\] is \"a\""),
        (5, ""),
        ([[0, 0, 0, 0], [0, "0.5", 0, 0]], r"losses\[1\]\[1\] is \"0.5\", not a JSON number"),
        ([[0, 0, 0, True], [0, 0, 0, 0]], r"losses\[0\]\[3\] is true, not a JSON number"),
        ([[0, 0, 0, 0], [0, 0, None, 0]], r"losses\[1\]\[2\] is null"),
        ([[0, 0, 0, 0], 0.5], r"losses\[1\] is 0.5, not a JSON list"),
        ([[0, 0, 0, 10**400], [0, 0, 0, 0]], "int too large to convert to float"),
    ], ids=["non-numeric", "non-list", "string", "bool", "null", "non-list-row", "huge-int"])
    def test_malformed_losses(self, losses, field):
        doc = {"players": 2, "actions": [2, 2], "losses": losses}
        with pytest.raises(GameFormatError, match=f"invalid field: {field}"):
            load_game(json.dumps(doc).encode())


class TestGameInvariants:
    def test_needs_two_players_two_actions(self):
        with pytest.raises(ValidationError):
            Game((2,), (np.zeros(2),))
        with pytest.raises(ValidationError):
            Game((2, 1), (np.zeros((2, 1)), np.zeros((2, 1))))

    @pytest.mark.parametrize("losses, error, match", [
        ((np.zeros((2, 2)),), ValidationError, "expected 2 loss tensors, got 1"),
        ((np.zeros((2, 2)), np.zeros((2, 3))), DimensionMismatchError,
         r"player 1 has shape \(2, 3\), expected \(2, 2\)"),
        ((np.zeros((2, 2)), np.full((2, 2), np.nan)), ValidationError, "player 1 has non-finite"),
    ], ids=["count", "shape", "non-finite"])
    def test_bad_tensors_refused(self, losses, error, match):
        with pytest.raises(error, match=match):
            Game((2, 2), losses)

    def test_tensors_immutable(self):
        game = random_game(2, (2, 2), seed=3)
        with pytest.raises(ValueError):
            game.losses[0][0, 0] = 0.5

    def test_is_distribution(self):
        assert is_distribution(np.array([0.25, 0.75]))
        assert not is_distribution(np.array([0.3, 0.8]))
        assert not is_distribution(np.array([-0.1, 1.1]))

    def test_is_distribution_row_wise(self):
        rows = np.array([[0.25, 0.75], [0.3, 0.8], [-0.1, 1.1], [np.nan, 1.0], [1.0, 0.0]])
        assert is_distribution(rows).tolist() == [True, False, False, False, True]
