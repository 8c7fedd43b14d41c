"""Numerical diagnostics for recorded runs, each read from a player's
:func:`~ce_dynamics.metrics.inner_stream` for every dynamics. A report is a block step: a
generator sent each block (q, z) of the stream in turn, which keeps the report's carry and
yields the report when sent None. :func:`_streamed` builds a player's block (q, z) once for all
of the player's reports: the report functions drive it through :func:`~ce_dynamics.metrics._drive`,
and so does the runner's accounting step. Four families:

* finite-difference tables of time-indexed vector sequences, with an
  independent binomial-form evaluation as a conditioning cross-check;
* the higher-order smoothness certificate (h-th differences of the inner
  losses against the bound alpha^h h^(3h+1)), enforced for SL runs only;
* variance-based regret accounting: the optimistic regret inequality with
  its positive/negative variance terms, and the variance budget inequality
  that the adaptive learning-rate mode watches, both from its :func:`running_variance_sums`;
* multiplicative stability of consecutive inner distributions against
  exp(6 eta) and its linearized form 1 + 7 eta.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .internal_dynamics import SlOmwu
from .metrics import RunTrace, _drive, _inner_dists, _learner, inner_stream, running_max_ratio

# Smoothness certificate constants: the learning-rate threshold eta <=
# alpha / (36 e^5 m) activates pass/fail mode; the looser alpha / (36 m) is
# reported for information only.
SMOOTHNESS_ETA_DIVISOR = 36.0 * math.exp(5)
SMOOTHNESS_ETA_DIVISOR_LOOSE = 36.0
# Default budget constant for the variance-check inequality; empirical runs
# sit far below it.
DEFAULT_VARIANCE_BUDGET_CONSTANT = 165262.0
# Inner losses lie in [-4, 4] and each order at most doubles them: every |D_h| <= 2^(h+2) is finite.
MAX_SMOOTHNESS_ORDER = 1000


def finite_differences(sequence, max_order: int) -> list[np.ndarray]:
    """Forward-difference table [D_0, ..., D_H]; D_h has length T - h.

    Built by the first-difference recursion D_h[t] = D_{h-1}[t+1] - D_{h-1}[t].
    """
    seq = np.asarray(sequence, dtype=float)
    T = seq.shape[0]
    if max_order < 0:
        raise ValidationError(f"order must be nonnegative, got {max_order}")
    if max_order > T - 1:
        raise ValidationError(f"order {max_order} too large for horizon {T}")
    return list(_differences(seq, max_order))


def _differences(seq: np.ndarray, max_order: int):
    """D_0, ..., D_H of :func:`finite_differences`, one order at a time."""
    for h in range(max_order + 1):
        seq = seq[1:] - seq[:-1] if h else seq
        yield seq


def binomial_difference(sequence, order: int) -> np.ndarray:
    """D_h via the alternating binomial sum; independent of the recursion.

    Terms are summed with numpy's pairwise summation, which keeps the
    alternating sum usable through order ~10 on [0, 1]-bounded sequences.
    """
    seq = np.asarray(sequence, dtype=float)
    T = seq.shape[0]
    if order < 0:
        raise ValidationError(f"order must be nonnegative, got {order}")
    if order > T - 1:
        raise ValidationError(f"order {order} too large for horizon {T}")
    coeffs = np.array(
        [math.comb(order, s) * (-1) ** (order - s) for s in range(order + 1)], dtype=float
    )
    window = np.stack([seq[s : T - order + s] for s in range(order + 1)])
    return np.tensordot(coeffs, window, axes=(0, 0))


def variance(q, z):
    """q-weighted variance of z along the last axis: sum_j q[j] (z[j] - <q, z>)^2.

    Leading axes are batch axes; a 1-D input gives a float.
    """
    q = np.asarray(q, dtype=float)
    z = np.asarray(z, dtype=float)
    if q.shape != z.shape:
        raise ValidationError(f"shape mismatch: weights {q.shape} vs values {z.shape}")
    mean = (q * z).sum(axis=-1, keepdims=True)
    out = (q * (z - mean) ** 2).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def running_variance_sums(q, z, last=None, carry=(0.0, 0.0)):
    """Running sums over rows and rounds of Var_q(z_t - z_{t-1}) and Var_q(z_{t-1}), (rounds,),
    of a block (q, z) of an inner stream; ``last`` is the z before it (zero before round 1),
    ``carry`` both sums through it, added to each first term before ``np.cumsum``: sequential."""
    prev = np.concatenate([np.zeros_like(z[:1]) if last is None else last[None], z[:-1]])
    lhs, prev_sum = variance(q, z - prev).sum(axis=-1), variance(q, prev).sum(axis=-1)
    lhs[:1] += carry[0]
    prev_sum[:1] += carry[1]
    return np.cumsum(lhs, out=lhs), np.cumsum(prev_sum, out=prev_sum)


def _streamed(trace: RunTrace, player: int, *reports):
    """Step that builds the player's inner stream (q, z) once per block of rounds sent and sends it
    to each of ``reports``, block steps; yields the list of their reports when sent None."""
    for report in reports:
        next(report)
    while (rounds := (yield)) is not None:
        stream = inner_stream(trace, player, rounds)
        for report in reports:
            report.send(stream)
    yield [report.send(None) for report in reports]


def _fed(trace: RunTrace, player: int, steps):
    """The report of a report's block steps, fed the player's inner stream by block."""
    return _drive(trace.horizon, _streamed(trace, player, steps))[0]


def smoothness_bound(order: int, alpha: float) -> float:
    """Certified ceiling for |D_h| of SL's pair losses: alpha^h h^(3h+1).

    Order zero is the plain boundedness of the pair losses, so the ceiling
    there is 1 (the h^(3h+1) factor is read with the 0^0 = 1 convention at
    the base of the induction).
    """
    if order == 0:
        return 1.0
    try:
        return alpha**order * order ** (3 * order + 1)
    except OverflowError:  # h^(3h+1) is past the largest float, the product need not be
        log_bound = order * math.log(alpha) + (3 * order + 1) * math.log(order)
        return math.exp(log_bound) if log_bound <= np.log(np.finfo(float).max) else math.inf


@dataclass
class SmoothnessReport:
    max_order: int
    alpha: float
    eta: float
    enforced: bool  # an SL run whose eta meets the strict precondition: failures are real
    eta_threshold: float
    eta_threshold_loose: float
    observed: list[np.ndarray]  # observed[h][t] = inf-norm of D_h inner loss at t
    bounds: np.ndarray  # bound per order
    failures: list[tuple[int, int]]  # (order, round) pairs above the bound

    def to_dict(self) -> dict:
        return {
            "max_order": self.max_order,
            "alpha": self.alpha,
            "eta": self.eta,
            "enforced": self.enforced,
            "eta_threshold": self.eta_threshold,
            "eta_threshold_loose": self.eta_threshold_loose,
            "bounds": [b if math.isfinite(b) else None for b in self.bounds.tolist()],
            "max_observed_per_order": [float(o.max()) if o.size else 0.0 for o in self.observed],
            "num_failures": len(self.failures),
        }


def resolve_smoothness_alpha(max_order: int, horizon: int, alpha: float | None = None) -> float:
    """The certificate's alpha for order H over T rounds: ``alpha``, or 1/(H+3) when it is None.

    Raises :class:`ValidationError` for H outside [0, MAX_SMOOTHNESS_ORDER], H > T - 1 or an
    alpha outside (0, 1/(H+3)].
    """
    if not 0 <= max_order <= MAX_SMOOTHNESS_ORDER:
        raise ValidationError(f"order must lie in [0, {MAX_SMOOTHNESS_ORDER}], got {max_order}")
    if max_order > horizon - 1:
        raise ValidationError(f"order {max_order} too large for horizon {horizon}")
    ceiling = 1.0 / (max_order + 3)
    if alpha is None:
        return ceiling
    if not 0 < alpha <= ceiling:
        raise ValidationError(f"alpha must lie in (0, 1/(H+3)] = (0, {ceiling}], got {alpha}")
    return alpha


def smoothness_report(
    trace: RunTrace, player: int, max_order: int, alpha: float | None = None
) -> SmoothnessReport:
    """Check h-th differences of the inner losses z of :func:`inner_stream` against the bound.

    Enforced (failures are certificate violations) only for an SL run, whose
    pair losses the certificate is proved for, with eta <= alpha / (36 e^5 m);
    otherwise the report is an observation. ``alpha`` defaults to 1/(H+3), its
    largest valid value.
    """
    return _fed(trace, player, _smoothness_steps(trace, player, max_order, alpha))


def _smoothness_steps(trace: RunTrace, player: int, max_order: int, alpha: float | None):
    """:func:`smoothness_report`'s block step. Order h at round t reads z up to round t + h, so
    a block completes each order up to its last round less h; the carry is the last H rows of z
    sent, differenced with the block one order at a time."""
    alpha = resolve_smoothness_alpha(max_order, trace.horizon, alpha)
    eta = trace.etas[player]
    m = trace.num_players
    threshold = alpha / (SMOOTHNESS_ETA_DIVISOR * m)
    threshold_loose = alpha / (SMOOTHNESS_ETA_DIVISOR_LOOSE * m)
    observed, held, seen = [[] for _ in range(max_order + 1)], None, 0  # seen: rounds sent
    while (stream := (yield)) is not None:
        z = stream[1]
        window = z if held is None else np.concatenate([held, z])
        for h, d in enumerate(_differences(window, min(max_order, len(window) - 1))):
            done = max(0, seen - h) - (seen + len(z) - len(window))  # by earlier blocks
            observed[h].append(np.abs(d[done:]).max(axis=(1, 2)))
        held, seen = window[max(0, len(window) - max_order) :], seen + len(z)
    observed = [np.concatenate(o) for o in observed]
    bounds = np.array([smoothness_bound(h, alpha) for h in range(max_order + 1)])
    failures = [
        (h, t)
        for h in range(max_order + 1)
        for t in np.flatnonzero(observed[h] > bounds[h])
    ]
    yield SmoothnessReport(
        max_order=max_order,
        alpha=alpha,
        eta=eta,
        enforced=_learner(trace.dynamics) is SlOmwu and eta <= threshold,
        eta_threshold=threshold,
        eta_threshold_loose=threshold_loose,
        observed=observed,
        bounds=bounds,
        failures=failures,
    )


@dataclass
class RvuReport:
    """Both sides of the optimistic regret inequality, summed over the inner learner's rows."""

    regret: float  # measured inner external regret (LHS)
    bound: float  # RHS with the dimension-correct log term
    bound_action_log: float  # RHS variant with log of the action count only
    log_term: float
    positive_variance_sum: float
    negative_variance_sum: float

    @property
    def slack(self) -> float:
        return self.bound - self.regret

    @property
    def holds(self) -> bool:
        return self.slack >= 0.0

    def to_dict(self) -> dict:  # a side that overflowed to +-inf is None; holds compares it as is
        sides = {"regret": self.regret, "bound": self.bound,
                 "bound_action_log": self.bound_action_log, "slack": self.slack}
        return {**{k: v if math.isfinite(v) else None for k, v in sides.items()}, "holds": self.holds}


def rvu_check(trace: RunTrace, player: int, eta: float, curvature_constant: float) -> RvuReport:
    """Evaluate the regret-vs-variance inequality for the inner stream's rows, summed.

    A row is one learner on d points: SL's pair learner, d = n(n-1); one of BM's
    n copies, d = n; arbo's tree learner, d = n^(n-1); else the learner, d = n.
    LHS: their realized external regret. RHS: rows 2 log(d)/eta plus (eta/2 + C
    eta^2) times the summed variance of loss differences, minus (1 - C eta) eta/2
    times that of the previous losses; a variant with log(n) is reported alongside.
    """
    return _fed(trace, player, _rvu_steps(trace, player, eta, curvature_constant))


def _rvu_steps(trace: RunTrace, player: int, eta: float, curvature_constant: float):
    """:func:`rvu_check`'s block step; the variance sums are :func:`_budget_steps`' two sums."""
    (rows, dim), n = _inner_dists(trace, player, slice(0))[0].shape[1:], trace.action_counts[player]
    variance, gains = _budget_steps(trace, 0.0), np.zeros((rows, dim))
    next(variance)
    while (stream := (yield)) is not None:
        variance.send(stream)
        # Each row's regret, max_k sum_t (<q_t, z_t> - z_t[k]): one sequential sum per k.
        q, z = stream
        block = (q * z).sum(axis=-1, keepdims=True) - z
        block[0] += gains
        gains = np.cumsum(block, axis=0)[-1]
    budget = variance.send(None)
    pos_sum, neg_sum = budget.lhs, budget.prev_variance_sum
    log_term = rows * 2.0 * math.log(dim) / eta
    try:
        curvature = curvature_constant * eta**2
    except OverflowError:  # eta^2 is past the largest float; C * eta * eta fits or is +-inf
        curvature = curvature_constant * eta * eta
    pos_coeff = eta / 2.0 + curvature
    neg_coeff = (1.0 - curvature_constant * eta) * eta / 2.0
    pos_term = pos_coeff * pos_sum if pos_sum else 0.0  # 0, not inf * 0 = NaN, for a zero sum
    neg_term = neg_coeff * neg_sum if neg_sum else 0.0
    bound = log_term + pos_term - neg_term
    bound_action = rows * 2.0 * math.log(n) / eta + pos_term - neg_term
    yield RvuReport(
        regret=float(gains.max(axis=-1).sum()),
        bound=bound,
        bound_action_log=bound_action,
        log_term=log_term,
        positive_variance_sum=pos_sum,
        negative_variance_sum=neg_sum,
    )


def budget_depth(horizon: int) -> int:
    """H = ceil(log2 T), at least 1: the depth in the variance budget's H^5 allowance."""
    return max(1, math.ceil(math.log2(horizon))) if horizon > 1 else 1


@dataclass
class VarianceBudgetReport:
    """The variance budget inequality watched by the adaptive-rate mode.

    lhs = sum_t Var_{q_t}(z_t - z_{t-1}) of the inner stream must stay below
    half the summed variance of the previous losses plus budget_constant * H^5,
    with H = ceil(log2 T).
    """

    lhs: float
    prev_variance_sum: float
    depth: int  # H
    budget_constant: float
    minimal_constant: float  # smallest budget constant making the bound hold

    @property
    def bound(self) -> float:
        return 0.5 * self.prev_variance_sum + self.budget_constant * self.depth**5

    @property
    def holds(self) -> bool:
        return self.lhs <= self.bound

    def to_dict(self) -> dict:
        return {**asdict(self), "holds": self.holds}


def check_variance_inequality(
    trace: RunTrace, player: int, budget_constant: float = DEFAULT_VARIANCE_BUDGET_CONSTANT
) -> VarianceBudgetReport:
    return _fed(trace, player, _budget_steps(trace, budget_constant))


def _budget_steps(trace: RunTrace, budget_constant: float):
    """:func:`check_variance_inequality`'s block step: both sums of :func:`running_variance_sums`
    and the last z are the carry."""
    sums, last = (0.0, 0.0), None
    while (stream := (yield)) is not None:
        lhs, prev_sum = running_variance_sums(*stream, last, sums)
        sums, last = (float(lhs[-1]), float(prev_sum[-1])), stream[1][-1]
    lhs, prev_sum = sums
    depth = budget_depth(trace.horizon)
    minimal = max(0.0, (lhs - 0.5 * prev_sum) / depth**5)
    yield VarianceBudgetReport(
        lhs=lhs,
        prev_variance_sum=prev_sum,
        depth=depth,
        budget_constant=budget_constant,
        minimal_constant=minimal,
    )


@dataclass
class StabilityReport:
    """Largest consecutive-iterate ratio of the inner distributions."""

    max_ratio: float
    exp_bound: float | None  # exp(6 eta); None where it overflows a float
    linear_bound: float  # 1 + 7 eta

    @property
    def within_exp_bound(self) -> bool:
        if self.exp_bound is None:  # exp(6 eta) is above every finite ratio
            return self.max_ratio < math.inf
        return self.max_ratio <= self.exp_bound

    @property
    def within_linear_bound(self) -> bool:
        return self.max_ratio <= self.linear_bound

    def to_dict(self) -> dict:
        within = {"within_exp_bound": self.within_exp_bound,
                  "within_linear_bound": self.within_linear_bound}
        return {**asdict(self), **within}


def stability_check(trace: RunTrace, player: int, ratio=None) -> StabilityReport:
    """Max over rounds and entries of the two-sided consecutive ratio; ``ratio`` is a caller's
    finished :func:`running_max_ratio` column, else it is computed here."""
    eta = trace.etas[player]
    try:
        exp_bound = math.exp(6.0 * eta)
    except OverflowError:  # eta > log(DBL_MAX) / 6, about 118.3
        exp_bound = None
    ratio = running_max_ratio(trace, player) if ratio is None else ratio
    return StabilityReport(
        max_ratio=float(ratio.max(initial=1.0)),
        exp_bound=exp_bound,
        linear_bound=1.0 + 7.0 * eta,
    )
