import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ce_dynamics.errors import DimensionMismatchError, ValidationError
from ce_dynamics.internal_dynamics import ArboDynamics, SlOmwu
from ce_dynamics.omwu import FLOOR_FREE_SPREAD, Composite, Omwu
from ce_dynamics.runner import DYNAMICS, _build_dynamics
from ce_dynamics.swap_dynamics import BmOmwu


def recursive_iterates(eta, losses):
    """Multiplicative-recursion oracle: the ratio form of the update.

    x_{t+1}[j] proportional to x_t[j] * exp(-eta * (2 l_t[j] - l_{t-1}[j])).
    """
    dim = losses[0].shape[0]
    x = np.full(dim, 1.0 / dim)
    out = [x]
    prev = np.zeros(dim)
    for loss in losses:
        w = x * np.exp(-eta * (2.0 * loss - prev))
        x = w / w.sum()
        out.append(x)
        prev = loss
    return out


class TestNextStrategy:
    @pytest.mark.parametrize("dim", [2, 3, 7])
    def test_first_iterate_uniform(self, dim):
        learner = Omwu(dim, eta=0.3)
        np.testing.assert_array_equal(learner.next_strategy(), np.full(dim, 1.0 / dim))

    def test_constant_losses_stay_uniform(self):
        learner = Omwu(4, eta=0.7)
        for _ in range(20):
            learner.observe(np.full(4, 0.37))
        np.testing.assert_allclose(learner.next_strategy(), np.full(4, 0.25), atol=1e-15)

    def test_single_loss_hand_value(self):
        # After one observed loss (1, 0) at eta = 0.5 the exponents are
        # -eta * (2*l - 0) = (-1, 0), so x2 = (e^-1, 1) normalized.
        learner = Omwu(2, eta=0.5)
        learner.observe(np.array([1.0, 0.0]))
        want = np.array([math.exp(-1.0), 1.0])
        want /= want.sum()
        np.testing.assert_allclose(learner.next_strategy(), want, atol=1e-15)

    def test_strict_interiority(self):
        learner = Omwu(3, eta=5.0)
        for _ in range(300):
            learner.observe(np.array([1.0, 0.0, 1.0]))
        assert learner.next_strategy().min() > 0.0


class TestObserve:
    def test_accumulation_exact(self):
        learner = Omwu(3, eta=0.1)
        rng = np.random.default_rng(0)
        losses = [rng.uniform(-1, 1, 3) for _ in range(30)]
        total = np.zeros(3)
        for loss in losses:
            learner.observe(loss)
            total = total + loss
        np.testing.assert_array_equal(learner.cumulative_loss, total)
        np.testing.assert_array_equal(learner.last_loss, losses[-1])

    def test_zero_loss_matches_plain_cumulative(self):
        opt = Omwu(3, eta=0.4, optimistic=True)
        plain = Omwu(3, eta=0.4, optimistic=False)
        for loss in (np.array([0.9, 0.1, 0.5]), np.zeros(3)):
            opt.observe(loss)
            plain.observe(loss)
        np.testing.assert_allclose(opt.next_strategy(), plain.next_strategy(), atol=1e-15)

    @pytest.mark.parametrize("eta", [0.1, np.array([0.1, 0.2])], ids=["one", "two-members"])
    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_rejects_bad_input(self, dynamics, eta):
        # Every learner's feedback check is one function; a refused loss changes no state.
        dyn = _build_dynamics(dynamics, 3, eta)
        shape = (*np.shape(eta), 3)
        if isinstance(dyn, Composite):
            with pytest.raises(ValidationError, match="observe called before next_strategy"):
                dyn.observe(np.zeros(shape))
        dyn.next_strategy()
        dyn.observe(np.full(shape, 0.5))
        learner = dyn.learner
        state = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in vars(learner).items()}
        nan = np.full(shape, 0.5)
        nan[..., 1] = np.nan
        bad = [(DimensionMismatchError, "loss has shape", np.zeros((*shape[:-1], 4))),
               (DimensionMismatchError, "loss has shape", np.zeros((3, 3, 3))),
               (ValidationError, "non-finite", nan)]
        if isinstance(dyn, Composite):
            bad += [(ValidationError, "must lie in", np.full(shape, 1.1)),
                    (ValidationError, "must lie in", np.full(shape, dyn.loss_low - 0.1))]
        for error, message, loss in bad:
            with pytest.raises(error, match=message):
                dyn.observe(loss)
            assert vars(learner).keys() == state.keys()
            for key, value in vars(learner).items():
                assert np.array_equal(value, state[key], equal_nan=True), key

    def test_copies_its_input(self):
        learner = Omwu(3, eta=0.1)
        loss = np.array([0.2, 0.5, 0.9])
        learner.observe(loss)
        loss[:] = 7.0
        np.testing.assert_array_equal(learner.last_loss, [0.2, 0.5, 0.9])
        np.testing.assert_array_equal(learner.cumulative_loss, [0.2, 0.5, 0.9])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            Omwu(0, eta=0.1)
        with pytest.raises(ValidationError):
            Omwu(2, eta=0.0)
        with pytest.raises(ValidationError):
            Omwu((3, 0), eta=0.1)
        with pytest.raises(ValidationError):
            Omwu((2, 3, 4), eta=0.1)

    @pytest.mark.parametrize("make", [SlOmwu, BmOmwu], ids=["sl-omwu", "bm-omwu"])
    def test_stationary_learners_need_two_actions(self, make):
        with pytest.raises(ValidationError, match="need at least 2 actions, got 1"):
            make(1, 0.1)

    @pytest.mark.parametrize("make", [Omwu, SlOmwu, BmOmwu, ArboDynamics],
                             ids=["omwu", "sl-omwu", "bm-omwu", "arbo"])
    @pytest.mark.parametrize("eta", [math.inf, math.nan])
    def test_rejects_a_non_finite_rate(self, make, eta):
        # An infinite rate would play NaN (Omwu) or fail late in the stationary solve (SL).
        with pytest.raises(ValidationError, match="learning rate must be positive and finite"):
            make(3, eta)
        dyn = make(3, np.array([0.1, 0.2]))
        with pytest.raises(ValidationError, match="learning rate must be positive and finite"):
            dyn.reset(eta, member=1)
        assert dyn.eta.tolist() == [0.1, 0.2]  # a refused reset changes nothing


class TestRows:
    @pytest.mark.parametrize("optimistic", [True, False])
    @pytest.mark.parametrize("shape, eta", [((3, 7), 0.2), ((10, 10), 0.05), ((4, 5), 50.0)])
    def test_each_row_is_a_one_dim_learner(self, shape, eta, optimistic):
        # eta = 50 drives exponent spreads past the weight floor.
        rows, dim = shape
        rng = np.random.default_rng(17)
        learner = Omwu(shape, eta, optimistic=optimistic)
        singles = [Omwu(dim, eta, optimistic=optimistic) for _ in range(rows)]
        for t in range(40):
            if t == 25:
                learner.reset(eta * 2)
                for single in singles:
                    single.reset(eta * 2)
            X = learner.next_strategy()
            assert X.shape == shape
            for r, single in enumerate(singles):
                np.testing.assert_array_equal(X[r], single.next_strategy())
            loss = rng.uniform(-1, 1, shape)
            learner.observe(loss)
            for r, single in enumerate(singles):
                single.observe(loss[r])
        np.testing.assert_array_equal(learner.inner_dist, X)
        np.testing.assert_array_equal(learner.inner_loss, loss)
        assert learner.inner_dim == dim

    @pytest.mark.parametrize("bad", [(4,), (4, 3), (1, 3, 4)])
    def test_rejects_wrong_shape(self, bad):
        learner = Omwu((3, 4), eta=0.1)
        with pytest.raises(DimensionMismatchError):
            learner.observe(np.zeros(bad))


class TestMembers:
    """An array of rates stacks independent members; each is its single-rate learner."""

    @pytest.mark.parametrize(
        "make",
        [Omwu, SlOmwu, BmOmwu, ArboDynamics, lambda n, eta: Omwu((2, n), eta)],
        ids=["omwu", "sl-omwu", "bm-omwu", "arbo", "omwu-rows"],
    )
    def test_each_member_is_a_single_learner(self, make):
        rng = np.random.default_rng(5)
        etas = [0.2, 0.7, 0.05]
        stacked = make(4, np.array(etas))
        singles = [make(4, eta) for eta in etas]
        for t in range(30):
            if t == 12:  # only member 1 starts over, at a new rate
                stacked.reset(1.5, member=1)
                singles[1].reset(1.5)
            X = stacked.next_strategy()
            for b, single in enumerate(singles):
                assert X[b].tobytes() == single.next_strategy().tobytes()
            loss = rng.uniform(0.0, 1.0, X.shape)
            stacked.observe(loss)
            for b, single in enumerate(singles):
                single.observe(loss[b])
        assert stacked.eta.tolist() == [0.2, 1.5, 0.05]
        np.testing.assert_array_equal(stacked.inner_dist[1], singles[1].inner_dist)

    def test_rejects_a_loss_without_the_member_axis(self):
        sl = SlOmwu(3, np.array([0.1, 0.2]))
        sl.next_strategy()
        with pytest.raises(DimensionMismatchError):
            sl.observe(np.zeros(3))


class TestAgainstRecursion:
    def test_cumulative_matches_recursive_form(self):
        rng = np.random.default_rng(7)
        losses = [rng.uniform(0, 1, 5) for _ in range(100)]
        learner = Omwu(5, eta=0.1)
        oracle = recursive_iterates(0.1, losses)
        worst = 0.0
        for t, loss in enumerate(losses):
            worst = max(worst, np.abs(learner.next_strategy() - oracle[t]).max())
            learner.observe(loss)
        worst = max(worst, np.abs(learner.next_strategy() - oracle[-1]).max())
        assert worst <= 1e-10

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_recursion_equivalence_property(self, seed):
        rng = np.random.default_rng(seed)
        eta = rng.uniform(0.01, 0.5)
        losses = [rng.uniform(-1, 1, 4) for _ in range(25)]
        learner = Omwu(4, eta=eta)
        oracle = recursive_iterates(eta, losses)
        for t, loss in enumerate(losses):
            np.testing.assert_allclose(learner.next_strategy(), oracle[t], atol=1e-10)
            learner.observe(loss)


class TestInvariants:
    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        losses = [rng.uniform(0, 1, 4) for _ in range(40)]
        a = Omwu(4, eta=0.2)
        b = Omwu(4, eta=0.2)
        for loss in losses:
            a.observe(loss)
            b.observe(loss + 0.63)
            np.testing.assert_allclose(a.next_strategy(), b.next_strategy(), atol=1e-12)

    @pytest.mark.parametrize("eta", [1 / 256, 1 / 64])
    def test_multiplicative_stability(self, eta):
        rng = np.random.default_rng(11)
        learner = Omwu(6, eta=eta)
        prev = learner.next_strategy()
        worst = 1.0
        for _ in range(200):
            learner.observe(rng.uniform(-1, 1, 6))
            cur = learner.next_strategy()
            ratio = cur / prev
            worst = max(worst, ratio.max(), (1.0 / ratio).max())
            prev = cur
        assert worst <= math.exp(6 * eta)
        assert worst <= 1 + 7 * eta  # exp(6 eta) <= 1 + 7 eta at admissible rates

    def test_reset(self):
        learner = Omwu(3, eta=0.2)
        learner.observe(np.array([1.0, 0.0, 0.3]))
        learner.reset(eta=0.5)
        assert learner.eta == 0.5
        np.testing.assert_array_equal(learner.next_strategy(), np.full(3, 1 / 3))


class TestUncheckedUpdate:
    """``_update`` skips the checks of ``observe`` and changes nothing else."""

    @pytest.mark.parametrize(
        "make, loss_shape",
        [
            (lambda: Omwu(4, eta=0.3), (4,)),
            (lambda: Omwu((3, 5), eta=0.3), (3, 5)),
            (lambda: SlOmwu(4, eta=0.3), (4,)),
            (lambda: BmOmwu(4, eta=0.3), (4,)),
            (lambda: ArboDynamics(4, eta=0.3), (4,)),
        ],
        ids=["omwu", "omwu-rows", "sl-omwu", "bm-omwu", "arbo"],
    )
    def test_same_state_as_observe(self, make, loss_shape):
        rng = np.random.default_rng(23)
        checked, unchecked = make(), make()
        for t in range(50):
            if t == 30:
                checked.reset(0.1)
                unchecked.reset(0.1)
            x = checked.next_strategy()
            assert x.tobytes() == unchecked.next_strategy().tobytes()
            loss = rng.uniform(0, 1, loss_shape)
            checked.observe(loss)
            unchecked._update(loss.copy())
            assert checked.inner_loss.tobytes() == unchecked.inner_loss.tobytes()
        inner = getattr(checked, "learner", checked)
        inner_u = getattr(unchecked, "learner", unchecked)
        assert inner.cumulative_loss.tobytes() == inner_u.cumulative_loss.tobytes()
        assert checked.next_strategy().tobytes() == unchecked.next_strategy().tobytes()


def softmax_reference(learner, guarded):
    """A lone row's next iterate, from its state: shifted by its max and floored if guarded."""
    z = -learner.eta * (learner.cumulative_loss + learner.last_loss * learner.optimistic)
    w = np.maximum(np.exp(z - z.max()), 1e-300) if guarded else np.exp(z)
    return w / w.sum()


MAKERS = [Omwu, SlOmwu, BmOmwu, ArboDynamics, lambda n, eta: Omwu((2, n), eta)]
MAKER_IDS = ["omwu", "sl-omwu", "bm-omwu", "arbo", "omwu-rows"]


class TestGuard:
    """A row skips its max-shift and weight floor while eta (updates + 1) inner_span is at most
    FLOOR_FREE_SPREAD and every loss it was fed lay in [0, 1]; rows decide alone."""

    @pytest.mark.parametrize("make", MAKERS, ids=MAKER_IDS)
    def test_members_crossing_the_bound_are_their_lone_learners(self, make):
        rng = np.random.default_rng(8)
        span = getattr(make(3, 1.0), "inner_span", 1.0)
        # Member 0 is guarded from round 8 on, member 2 from round 25, and member 1 from
        # round 15 until its reset at round 20, then again from round 35: the stack's steps
        # are all free, then some rows free, then all guarded.
        etas = [FLOOR_FREE_SPREAD / (span * k) for k in (8.5, 15.5, 25.5)]
        stacked = make(3, np.array(etas))
        singles = [make(3, eta) for eta in etas]
        learner = getattr(stacked, "learner", stacked)
        kinds = set()
        for t in range(45):
            if t == 20:
                stacked.reset(member=1)
                singles[1].reset()
            free = learner._free_until >= learner._updates
            kinds.add("all free" if free.all() else "some free" if free.any() else "all guarded")
            X = stacked.next_strategy()
            for b, single in enumerate(singles):
                assert X[b].tobytes() == single.next_strategy().tobytes()
                assert stacked.inner_dist[b].tobytes() == single.inner_dist.tobytes()
            loss = rng.uniform(0.0, 1.0, X.shape)
            stacked.observe(loss)
            for b, single in enumerate(singles):
                single.observe(loss[b])
        assert kinds == {"all free", "some free", "all guarded"}

    @pytest.mark.parametrize("optimistic", [True, False])
    def test_a_loss_outside_the_range_guards_its_row_until_reset(self, optimistic):
        rng = np.random.default_rng(9)
        learner = Omwu((3, 4), 0.3, optimistic=optimistic)
        singles = [Omwu(4, 0.3, optimistic=optimistic) for _ in range(3)]
        differ = False
        for t in range(40):
            if t == 30:
                learner.reset()
                for single in singles:
                    single.reset()
            X = learner.next_strategy()
            for r, single in enumerate(singles):
                guarded = 10 < t < 30 and r == 1
                want = softmax_reference(single, guarded)
                differ |= want.tobytes() != softmax_reference(single, not guarded).tobytes()
                assert X[r].tobytes() == want.tobytes() == single.next_strategy().tobytes()
            loss = rng.uniform(0.0, 1.0, (3, 4))
            if t == 10:
                loss[1, 2] = 1.5  # row 1 only, from the next step on
            learner.observe(loss)
            for r, single in enumerate(singles):
                single.observe(loss[r])
        assert differ  # the two branches give other bits: the test sees which one ran

    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_the_row_step_is_the_public_step(self, dynamics):
        # The round's step computes in round-major trace rows, (T, members, ...). Through free,
        # mixed and guarded steps and a member's reset (the timeline of the test above), it
        # gives the bits of a twin's public next_strategy.
        span = _build_dynamics(dynamics, 3, 1.0).inner_span
        etas = np.array([FLOOR_FREE_SPREAD / (span * k) for k in (8.5, 15.5, 25.5)])
        dyn, twin = _build_dynamics(dynamics, 3, etas), _build_dynamics(dynamics, 3, etas)
        step = getattr(dyn, "_next_strategy", dyn.next_strategy)
        learner, twin_learner = dyn.learner, twin.learner
        T, rng, kinds = 45, np.random.default_rng(8), set()
        strategies = np.empty((T, 3, 3))  # an omwu's inner rows are its strategy rows
        inner = strategies if learner is dyn else np.empty((T, *learner.shape))
        for t in range(T):
            if t == 20:
                dyn.reset(member=1)
                twin.reset(member=1)
            free = learner._free_until >= learner._updates
            kinds.add("all free" if free.all() else "some free" if free.any() else "all guarded")
            step(strategies[t], inner[t])
            assert strategies[t].tobytes() == twin.next_strategy().tobytes()
            assert np.shares_memory(learner.last_strategy, inner[t])
            assert learner.last_strategy.tobytes() == twin_learner.last_strategy.tobytes()
            loss = rng.uniform(0.0, 1.0, (3, 3))
            dyn._update(loss)
            twin._update(loss.copy())
        assert kinds == {"all free", "some free", "all guarded"}

    def test_stiff_sl_is_guarded_from_round_70(self):
        # 5 * 69 * 2 = 690: the step after 68 updates (round 69) is the last free one.
        assert SlOmwu(5, np.array([5.0, 5.0])).learner._free_until.max() == 68

    @pytest.mark.parametrize("make", MAKERS, ids=MAKER_IDS)
    def test_exactly_at_the_bound_with_losses_at_the_ends(self, make):
        # eta (63 + 1) span is exactly FLOOR_FREE_SPREAD: the 64th step is the last free one.
        span = getattr(make(3, 1.0), "inner_span", 1.0)
        dyn = make(3, FLOOR_FREE_SPREAD / (64 * span))
        learner = getattr(dyn, "learner", dyn)
        tiny = np.finfo(float).tiny
        for t in range(64):
            x = dyn.next_strategy()
            assert learner._free_until.min() == 63 and learner._updates == t
            for played in (x, learner.last_strategy):
                assert np.all(np.isfinite(played)) and np.all(played >= tiny)
            loss = np.zeros(x.shape)
            loss[..., 1:] = 1.0  # action 0 never loses, the others always do
            dyn.observe(loss)
        if make is Omwu:  # its exponents span the whole bound: the least weight is exp(-690)
            assert x.min() == pytest.approx(math.exp(-FLOOR_FREE_SPREAD), rel=1e-12)
