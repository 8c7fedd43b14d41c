"""Numerical diagnostics for recorded runs.

Covers four families of checks:

* finite-difference tables of time-indexed vector sequences, with an
  independent binomial-form evaluation as a conditioning cross-check;
* the higher-order smoothness certificate for pair-space self-play runs
  (h-th differences of the pair losses against the bound alpha^h h^(3h+1));
* variance-based regret accounting: the optimistic regret inequality with
  its positive/negative variance terms, and the variance budget inequality
  that the adaptive learning-rate mode watches;
* multiplicative stability of consecutive inner distributions against
  exp(6 eta) and its linearized form 1 + 7 eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .metrics import RunTrace, running_max_ratio

# Smoothness certificate constants: the learning-rate threshold eta <=
# alpha / (36 e^5 m) activates pass/fail mode; the looser alpha / (36 m) is
# reported for information only.
SMOOTHNESS_ETA_DIVISOR = 36.0 * math.exp(5)
SMOOTHNESS_ETA_DIVISOR_LOOSE = 36.0
# Default budget constant for the variance-check inequality; empirical runs
# sit far below it.
DEFAULT_VARIANCE_BUDGET_CONSTANT = 165262.0


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
    table = [seq]
    for _ in range(max_order):
        prev = table[-1]
        table.append(prev[1:] - prev[:-1])
    return table


def binomial_difference(sequence, order: int) -> np.ndarray:
    """D_h via the alternating binomial sum; independent of the recursion.

    Terms are summed with numpy's pairwise summation, which keeps the
    alternating sum usable through order ~10 on [0, 1]-bounded sequences.
    """
    seq = np.asarray(sequence, dtype=float)
    T = seq.shape[0]
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


def _pair_variance_sums(trace: RunTrace, player: int) -> tuple[float, float]:
    """(sum_t Var_{p_t}(L_t - L_{t-1}), sum_t Var_{p_t}(L_{t-1})) with L_0 = 0."""
    pt = trace.players[player]
    if pt.pair_dists is None or pt.pair_losses is None:
        raise ValidationError("variance inequality needs a pair-space trace")
    L = pt.pair_losses
    prev = np.concatenate([np.zeros_like(L[:1]), L[:-1]])
    p = pt.pair_dists
    return float(variance(p, L - prev).sum()), float(variance(p, prev).sum())


def smoothness_bound(order: int, alpha: float) -> float:
    """Certified ceiling for |D_h| of the pair losses: alpha^h h^(3h+1).

    Order zero is the plain boundedness of the pair losses, so the ceiling
    there is 1 (the h^(3h+1) factor is read with the 0^0 = 1 convention at
    the base of the induction).
    """
    if order == 0:
        return 1.0
    return alpha**order * order ** (3 * order + 1)


@dataclass
class SmoothnessReport:
    max_order: int
    alpha: float
    eta: float
    enforced: bool  # eta meets the strict precondition, so failures are real
    eta_threshold: float
    eta_threshold_loose: float
    observed: list[np.ndarray]  # observed[h][t] = inf-norm of D_h pair loss at t
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
            "bounds": self.bounds.tolist(),
            "max_observed_per_order": [float(o.max()) if o.size else 0.0 for o in self.observed],
            "num_failures": len(self.failures),
        }


def resolve_smoothness_alpha(max_order: int, alpha: float | None = None) -> float:
    """The certificate's alpha for order H: ``alpha``, or 1/(H+3) when it is None.

    Raises :class:`ValidationError` for H < 0 or an alpha outside (0, 1/(H+3)].
    """
    if max_order < 0:
        raise ValidationError(f"order must be nonnegative, got {max_order}")
    ceiling = 1.0 / (max_order + 3)
    if alpha is None:
        return ceiling
    if not 0 < alpha <= ceiling:
        raise ValidationError(f"alpha must lie in (0, 1/(H+3)] = (0, {ceiling}], got {alpha}")
    return alpha


def smoothness_report(
    trace: RunTrace, player: int, max_order: int, alpha: float | None = None
) -> SmoothnessReport:
    """Check h-th differences of the recorded pair losses against the bound.

    Requires a pair-space self-play trace. The check is enforced (failures
    are certificate violations) only when the run's learning rate satisfies
    eta <= alpha / (36 e^5 m); for larger rates the report is observational.
    ``alpha`` defaults to 1/(H+3), its largest valid value.
    """
    pt = trace.players[player]
    if pt.pair_losses is None:
        raise ValidationError("smoothness check needs a pair-space trace with recorded pair losses")
    alpha = resolve_smoothness_alpha(max_order, alpha)
    eta = trace.etas[player]
    m = trace.num_players
    threshold = alpha / (SMOOTHNESS_ETA_DIVISOR * m)
    threshold_loose = alpha / (SMOOTHNESS_ETA_DIVISOR_LOOSE * m)
    table = finite_differences(pt.pair_losses, max_order)
    observed = [np.abs(d).max(axis=1) if d.size else np.zeros(0) for d in table]
    bounds = np.array([smoothness_bound(h, alpha) for h in range(max_order + 1)])
    failures = [
        (h, t)
        for h in range(max_order + 1)
        for t in np.flatnonzero(observed[h] > bounds[h])
    ]
    return SmoothnessReport(
        max_order=max_order,
        alpha=alpha,
        eta=eta,
        enforced=eta <= threshold,
        eta_threshold=threshold,
        eta_threshold_loose=threshold_loose,
        observed=observed,
        bounds=bounds,
        failures=failures,
    )


@dataclass
class RvuReport:
    """Both sides of the optimistic regret inequality on a pair-space trace."""

    regret: float  # measured pair-space external regret (LHS)
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

    def to_dict(self) -> dict:
        return {
            "regret": self.regret,
            "bound": self.bound,
            "bound_action_log": self.bound_action_log,
            "slack": self.slack,
            "holds": self.holds,
        }


def rvu_check(trace: RunTrace, player: int, eta: float, curvature_constant: float) -> RvuReport:
    """Evaluate the regret-vs-variance inequality for the pair-space learner.

    LHS: realized pair-space regret against the best fixed pair. RHS:
    2 log(d)/eta plus (eta/2 + C eta^2) times the summed variance of loss
    differences, minus (1 - C eta) eta / 2 times the summed variance of the
    previous losses. The log term uses the pair-space dimension d = n(n-1);
    the variant with log(n) is reported alongside.
    """
    pos_sum, neg_sum = _pair_variance_sums(trace, player)
    pt = trace.players[player]
    n = trace.action_counts[player]
    regret = float((pt.pair_dists * pt.pair_losses).sum()) - float(pt.pair_losses.sum(axis=0).min())
    log_term = 2.0 * math.log(n * (n - 1)) / eta
    pos_coeff = eta / 2.0 + curvature_constant * eta**2
    neg_coeff = (1.0 - curvature_constant * eta) * eta / 2.0
    bound = log_term + pos_coeff * pos_sum - neg_coeff * neg_sum
    bound_action = 2.0 * math.log(n) / eta + pos_coeff * pos_sum - neg_coeff * neg_sum
    return RvuReport(
        regret=regret,
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

    lhs = sum_t Var_{p_t}(L_t - L_{t-1}) must stay below half the summed
    variance of the previous losses plus budget_constant * H^5, with
    H = ceil(log2 T).
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
        return {
            "lhs": self.lhs,
            "prev_variance_sum": self.prev_variance_sum,
            "depth": self.depth,
            "budget_constant": self.budget_constant,
            "minimal_constant": self.minimal_constant,
            "holds": self.holds,
        }


def check_variance_inequality(
    trace: RunTrace,
    player: int,
    budget_constant: float = DEFAULT_VARIANCE_BUDGET_CONSTANT,
) -> VarianceBudgetReport:
    lhs, prev_sum = _pair_variance_sums(trace, player)
    depth = budget_depth(trace.horizon)
    minimal = max(0.0, (lhs - 0.5 * prev_sum) / depth**5)
    return VarianceBudgetReport(
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
        return {
            "max_ratio": self.max_ratio,
            "exp_bound": self.exp_bound,
            "linear_bound": self.linear_bound,
            "within_exp_bound": self.within_exp_bound,
            "within_linear_bound": self.within_linear_bound,
        }


def stability_check(trace: RunTrace, player: int) -> StabilityReport:
    """Max over rounds and entries of the two-sided consecutive ratio."""
    eta = trace.etas[player]
    try:
        exp_bound = math.exp(6.0 * eta)
    except OverflowError:  # eta > log(DBL_MAX) / 6, about 118.3
        exp_bound = None
    return StabilityReport(
        max_ratio=float(running_max_ratio(trace, player).max(initial=1.0)),
        exp_bound=exp_bound,
        linear_bound=1.0 + 7.0 * eta,
    )
