"""Closed-form AP-ranking bounds, the linear slope, and variational oracles.

The detection error 1 - AP of a class with negative/positive ratio alpha and
pairwise ranking error R is sandwiched by

    ap_upper(alpha, R) = 1 + alpha * ln(1 - R/(1+alpha))
    ap_lower(alpha, R) = max(1 - sqrt(2 alpha R / 3), (8/9) / (1 + 2 alpha R))

The two lower-bound branches exchange exactly at alpha*R = 1/6, where both
equal 2/3.  The variational oracles re-derive these extremes numerically:
the minimizer of the AP integral exactly from the KKT conditions of the
discretized convex program, the maximizer by checking that the bang-bang
step solution admits no improving single-bin perturbation.

``audit`` alone decides whether a measured AP sits inside the sandwich: it
widens the two bounds by finite-sample standard errors of R and of AP into
an acceptance interval, one record per alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._choices import SLOPE_MODES
from .errors import NumericalError, ValidationError
from .metrics import ScoreSet, _check_alpha, _count_above, _precisions, ranking_error


def _check_r(r: float) -> float:
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValidationError(f"ranking error must lie in [0,1], got {r}")
    return r


def _elementwise(fn, *args, nout: int = 1):
    """fn(*args) for scalars, else fn on each element of the broadcast args as
    float64 array(s): every element takes the scalar ``math`` closed form, so
    array and scalar results are bit-identical and a bad element raises the
    scalar path's ValidationError."""
    if all(np.ndim(a) == 0 for a in args):
        return fn(*args)
    # the float arithmetic may overflow to inf by design, which Python does
    # silently; numpy would warn about it from the FPU flags
    with np.errstate(all="ignore"):
        out = np.frompyfunc(fn, len(args), nout)(*args)
    return out.astype(np.float64) if nout == 1 else tuple(o.astype(np.float64) for o in out)


def _ap_upper(alpha: float, r: float) -> float:
    alpha = _check_alpha(alpha)
    r = _check_r(r)
    u = r / (1.0 + alpha)
    if alpha >= 1e4:
        # 1 + alpha*log1p(-u) cancels, losing digits in proportion to alpha.
        # Its terms 1 - alpha*u are a = (1 + alpha(1-r))/(1+alpha); the rest of
        # the log1p series is summed to u^6, and u <= 1e-4 leaves a relative
        # remainder below 1e-20
        a = (1.0 + alpha * (1.0 - r)) / (1.0 + alpha)
        tail = 0.5 + u * (1.0 / 3.0 + u * (0.25 + u * (0.2 + u / 6.0)))
        return a - (alpha * u) * u * tail
    if u == 1.0:
        # r = 1 and 1 + alpha rounds to 1: ln(1 - 1/(1+alpha)) = ln(alpha) - ln(1+alpha)
        return 1.0 + alpha * (math.log(alpha) - math.log1p(alpha))
    return 1.0 + alpha * math.log1p(-u)


def _ap_lower_branches(alpha: float, r: float) -> tuple[float, float]:
    alpha = _check_alpha(alpha)
    r = _check_r(r)
    two_alpha_r = 2.0 * (alpha * r)  # not (2 alpha) r, which is inf * 0 at r = 0
    b1 = 1.0 - math.sqrt(two_alpha_r / 3.0)
    b2 = (8.0 / 9.0) / (1.0 + two_alpha_r)
    return b1, b2


def _ap_lower(alpha: float, r: float) -> float:
    return max(_ap_lower_branches(alpha, r))


def ap_upper(alpha, r):
    """Upper bound on AP at ranking error r: 1 + alpha*ln(1 - r/(1+alpha))."""
    return _elementwise(_ap_upper, alpha, r)


def ap_lower_branches(alpha, r):
    """The two lower-bound branches (sqrt branch, rational branch)."""
    return _elementwise(_ap_lower_branches, alpha, r, nout=2)


def ap_lower(alpha, r):
    """Lower bound on AP at ranking error r: the larger of the two branches."""
    return _elementwise(_ap_lower, alpha, r)


@dataclass(frozen=True)
class BoundEnvelope:
    """AP and detection-error bounds and the slope at (alpha, R): floats, or arrays of one shape."""

    alpha: float | np.ndarray
    ranking_error: float | np.ndarray
    ap_lower: float | np.ndarray
    ap_upper: float | np.ndarray
    det_lower: float | np.ndarray
    det_upper: float | np.ndarray
    slope_m: float | np.ndarray
    slope_mode: str

    def __post_init__(self):
        fields = (self.ap_lower, self.ap_upper, self.det_lower, self.det_upper, self.slope_m)
        lo, hi, det_lo, det_hi, m = map(np.ravel, np.broadcast_arrays(*fields))
        if (bad := np.flatnonzero(lo > hi + 1e-12)).size:
            raise ValidationError(f"ap_lower {lo[bad[0]]} exceeds ap_upper {hi[bad[0]]}")
        if np.any((det_lo != 1.0 - hi) | (det_hi != 1.0 - lo)):
            raise ValidationError("detection bounds must complement the AP bounds")
        if (bad := np.flatnonzero(~(m > 0))).size:
            raise ValidationError(f"slope_m must be positive, got {m[bad[0]]}")
        if self.slope_mode not in SLOPE_MODES:
            raise ValidationError(f"slope_mode must be one of {SLOPE_MODES}")


def envelope(alpha, r, mode: str = "upper") -> BoundEnvelope:
    """The bound envelope at (alpha, ranking_error): floats at one point, else arrays
    of the broadcast shape whose elements have the one-point envelopes' bits, e.g.
    envelope([[0.1], [10.0]], [0.0, 0.5, 1.0]).ap_lower has shape (2, 3)."""
    lo = ap_lower(alpha, r)
    hi = ap_upper(alpha, r)
    if np.ndim(lo) == 0:
        alpha, r = float(alpha), float(r)
    else:
        alpha, r = (np.array(x, dtype=np.float64) for x in np.broadcast_arrays(alpha, r))
    return BoundEnvelope(
        alpha=alpha,
        ranking_error=r,
        ap_lower=lo,
        ap_upper=hi,
        det_lower=1.0 - hi,
        det_upper=1.0 - lo,
        slope_m=slope_m(alpha, mode),
        slope_mode=mode,
    )


def _slope_lower(alpha: float) -> float:
    inverse = 1.0 / alpha
    if inverse == math.inf:
        # subnormal alpha: ln((1+alpha)/alpha) without the overflowing 1/alpha
        return alpha * (math.log1p(alpha) - math.log(alpha))
    # both slopes round to 1 at large alpha; keep the bracket's order there
    return min(alpha * math.log1p(inverse), _slope_upper(alpha))


def _slope_upper(alpha: float) -> float:
    # (1/9 + 2 alpha)/(1 + 2 alpha) with both terms halved, so that 2 alpha
    # cannot overflow; halving is exact, so the quotient is the same float
    return (1.0 / 18.0 + alpha) / (0.5 + alpha)


def _slope_m(alpha: float, mode: str) -> float:
    alpha = _check_alpha(alpha)
    if mode == "unit":
        return 1.0
    if mode == "lower":
        return _slope_lower(alpha)
    if mode == "upper":
        return _slope_upper(alpha)
    if mode == "meet":
        # the branches cross at alpha*R = 1/6 (R = 1 caps it for alpha <= 1/6);
        # (1/6)/alpha, because 6*alpha overflows near the float maximum
        r_star = min(1.0, (1.0 / 6.0) / alpha)
        raw = (1.0 - _ap_lower(alpha, r_star)) / r_star
        return min(max(raw, _slope_lower(alpha)), _slope_upper(alpha))
    raise ValidationError(f"mode must be one of {SLOPE_MODES}, got {mode!r}")


def slope_m(alpha, mode: str = "upper"):
    """Linear slope m relating detection error to ranking error.

    unit -> 1; lower -> alpha*ln((1+alpha)/alpha); upper ->
    (1/9 + 2 alpha)/(1 + 2 alpha); meet -> the slope of the chord from the
    origin through the point where the det-error upper bound switches
    branch, R* = min(1, 1/(6 alpha)): with u = 2 alpha R the branches meet
    where sqrt(u/3) = 1 - (8/9)/(1+u), whose only root is alpha*R = 1/6.
    The raw chord slope can leave the theorem's [lower, upper] bracket (it
    is 2*alpha once the crossing lies inside the domain), so it is clamped
    into the bracket; every mode then respects
    slope_m(lower) <= slope_m(mode in {meet, upper}) <= slope_m(upper).
    """
    return _elementwise(lambda a: _slope_m(a, mode), alpha)


def binary_bound_check(s: ScoreSet, t):
    """Threshold bound on the ranking error: R <= P(s+ <= t) + P(s- > t).

    Returns the right-hand side, from exact integer tail counts, and whether
    the inequality holds (with 1e-12 slack for the float comparison): floats
    for a scalar t, arrays for an array of thresholds.  A NaN t raises
    ValidationError.
    """
    r = ranking_error(s)
    t = np.asarray(t, dtype=np.float64)
    if np.isnan(t).any():
        raise ValidationError("threshold must not be NaN")
    rhs = (s.n_plus - _count_above(s.positives, t)) / s.n_plus + _count_above(
        s.negatives, t
    ) / s.n_minus
    holds = r <= rhs + 1e-12
    if t.ndim == 0:
        return float(rhs), bool(holds)
    return rhs, holds


@dataclass(frozen=True)
class Audit:
    """Measured AP of one score set against its bound interval at one alpha.

    ap_lower/ap_upper are the closed-form bounds at the measured ranking
    error; lower/upper is the acceptance interval built from them and the
    two standard errors.
    """

    alpha: float
    ap: float
    ranking_error: float
    ap_lower: float
    ap_upper: float
    se_ranking: float
    se_ap: float
    lower: float
    upper: float

    @property
    def slack(self) -> float:
        """Distance from ap to the nearer interval end; negative when outside."""
        return min(self.ap - self.lower, self.upper - self.ap)


def audit(s: ScoreSet, alphas) -> tuple[Audit, ...]:
    """Audit the measured AP of s against the bounds, one record per alpha.

    The bounds are evaluated at the measured ranking error shifted by three
    of its standard errors in the unfavorable direction, then widened by
    three standard errors of the AP estimate itself, so a violation signals
    a genuine bound failure rather than Monte Carlo noise:

    - se_ranking: Bernoulli-style spread over the correlated pair
      indicators, plus an additive (1/n+ + 1/n-) guard so small samples and
      pair correlation never make the value optimistic;
    - se_ap: spread of the per-positive precision terms, plus an additive
      2 (1/n+ + 1/n-) guard for the correlation among those terms and the
      ratio-estimator bias.

    The per-positive precisions are formed once for the whole alpha vector
    and give both the AP and its spread.
    """
    alphas = [_check_alpha(a) for a in np.ravel(alphas)]
    r = ranking_error(s)
    inv = 1.0 / s.n_plus + 1.0 / s.n_minus
    se_r = float(np.sqrt(r * (1.0 - r) * inv)) + inv
    prec = _precisions(s, np.array(alphas)[:, None])
    se_aps = [float(x) + 2.0 * inv for x in np.sqrt(np.var(prec, axis=1) / s.n_plus)]
    return tuple(
        Audit(
            alpha=alpha,
            ap=float(ap),
            ranking_error=r,
            ap_lower=_ap_lower(alpha, r),
            ap_upper=_ap_upper(alpha, r),
            se_ranking=se_r,
            se_ap=se_ap,
            lower=_ap_lower(alpha, min(1.0, r + 3.0 * se_r)) - 3.0 * se_ap,
            upper=_ap_upper(alpha, max(0.0, r - 3.0 * se_r)) + 3.0 * se_ap,
        )
        for alpha, ap, se_ap in zip(alphas, np.mean(prec, axis=1), se_aps)
    )


# ---------------------------------------------------------------------------
# Variational oracles over the discretized recall axis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _GFunction:
    """A discretized false-positive-mass profile g over uniform bins in [0,1]."""

    grid: np.ndarray
    tau: float

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        object.__setattr__(self, "grid", grid)
        if grid.ndim != 1 or grid.size < 1:
            raise ValidationError("grid must be a nonempty 1-d array")
        if np.any(grid < -1e-12) or np.any(grid > 1.0 + 1e-12):
            raise ValidationError("grid values must lie in [0,1]")
        if abs(float(np.mean(grid)) - self.tau) > 1e-9:
            raise ValidationError(
                f"grid mean {float(np.mean(grid))} differs from tau {self.tau} by more than 1e-9"
            )


def _grid_midpoints(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def _objective(x: np.ndarray, g: np.ndarray, alpha: float) -> float:
    return float(np.mean(x / (x + alpha * g)))


def _check_oracle_args(alpha: float, tau: float, n: int, allow_zero_tau: bool) -> tuple[float, float, int]:
    alpha = _check_alpha(alpha)
    tau = float(tau)
    low_ok = tau >= 0.0 if allow_zero_tau else tau > 0.0
    if not (low_ok and tau <= 1.0):
        lo = "[0,1]" if allow_zero_tau else "(0,1]"
        raise ValidationError(f"tau must lie in {lo}, got {tau}")
    n = int(n)
    if n < 100:
        raise ValidationError(f"grid size must be >= 100, got {n}")
    return alpha, tau, n


def _kkt_grid(alpha: float, tau: float, n: int) -> np.ndarray:
    """The minimizer behind ``variational_min_oracle`` for 0 < tau <= 1."""
    # not sqrt(x / alpha), which overflows at subnormal alpha
    c = np.sqrt(_grid_midpoints(n)) / math.sqrt(alpha)

    def level(s: float) -> np.ndarray:
        return np.clip(c * (s - c), 0.0, 1.0)

    lo, hi = float(np.min(c)) / 2.0, 2.0 * float(np.max(c + 1.0 / c))  # level(lo) = 0, level(hi) = 1
    # c (s - c) may overflow to inf at extreme alpha, which the clip maps to 1
    with np.errstate(over="ignore"):
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if np.mean(level(mid)) < tau else (lo, mid)
        g_lo, g_hi = level(lo), level(hi)
    m_lo, m_hi = np.mean(g_lo), np.mean(g_hi)
    return g_lo + (tau - m_lo) / (m_hi - m_lo) * (g_hi - g_lo)


def variational_min_oracle(alpha: float, tau: float, n: int = 2000) -> float:
    """Minimum of mean(x / (x + alpha g)) over 0 <= g <= 1 with mean(g) = tau.

    Independent check of the lower-bound extremal from the KKT conditions of
    the midpoint-discretized convex, separable program, never the closed form:
    g_i = clip(c_i (s - c_i), 0, 1), c_i = sqrt(x_i / alpha), for one level s
    (water-filling, Boyd & Vandenberghe, Convex Optimization, Example 5.2).
    Every step of mean(g) is monotone in s, rounding included, so s is bisected
    from g = 0 to g = 1 until the midpoint rounds to an end (at most about 1100
    halvings); the leftover mass is split between those two adjacent levels.
    """
    alpha, tau, n = _check_oracle_args(alpha, tau, n, allow_zero_tau=True)
    if tau == 0.0:
        return 1.0
    g = _kkt_grid(alpha, tau, n)
    _GFunction(grid=g, tau=tau)  # feasibility assertion
    return _objective(_grid_midpoints(n), g, alpha)


def _bang_bang_grid(tau: float, n: int) -> np.ndarray:
    """g = 1 on the top tau mass of [0,1], with a fractional boundary bin so
    the discrete mean equals tau."""
    total = tau * n
    full = int(total)
    g = np.zeros(n)
    g[n - full :] = 1.0
    if full < n:
        g[n - full - 1] = total - full
    return g


def variational_max_oracle(alpha: float, tau: float, n: int = 2000) -> float:
    """Objective of the bang-bang maximizer g = 1 on [1-tau, 1], after checking
    that no single-bin mass move of delta = 1/N improves it.

    Raises NumericalError naming the improving bin pair if one exists.
    """
    alpha, tau, n = _check_oracle_args(alpha, tau, n, allow_zero_tau=False)
    x = _grid_midpoints(n)
    g = _bang_bang_grid(tau, n)
    _GFunction(grid=g, tau=tau)

    delta = 1.0 / n
    terms = x / (x + alpha * g)
    obj = float(np.mean(terms))
    gain_remove = np.where(
        g >= delta - 1e-15, x / (x + alpha * np.maximum(g - delta, 0.0)) - terms, -np.inf
    )
    gain_add = np.where(
        g <= 1.0 - delta + 1e-15, x / (x + alpha * np.minimum(g + delta, 1.0)) - terms, -np.inf
    )
    best_gain, pair = _best_disjoint_pair(gain_remove, gain_add)
    if best_gain > 1e-12 * n:  # gains are per-bin sums; objective change is gain/n
        i, j = pair
        raise NumericalError(
            f"perturbation test failed: moving {delta} from bin {i} to bin {j} "
            f"raises the objective by {best_gain / n:.3e} (alpha={alpha}, tau={tau})"
        )
    return obj


def _best_disjoint_pair(remove: np.ndarray, add: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Maximize remove[i] + add[j] over i != j with both entries finite.

    The best partner of every i is the largest entry of add, or the runner-up
    when i is that entry's own bin.
    """
    j2, j1 = np.argsort(add, kind="stable")[-2:]
    partner = np.full(add.size, j1)
    partner[j1] = j2
    totals = remove + add[partner]
    i = int(np.argmax(totals))
    pair = (i, int(partner[i]))
    if not np.isfinite(totals[i]):
        return -math.inf, pair
    return float(totals[i]), pair


def _analytic_min_gmax(alpha: float, tau: float) -> float:
    """Peak value of the unboxed Euler-Lagrange minimizer of the AP integral.

    The closed-form lower bound ignores the g <= 1 box; its minimizer is
    admissible (and the closed form exact) only when this peak is <= 1.
    """
    alpha = _check_alpha(alpha)
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise ValidationError(f"tau must lie in [0,1], got {tau}")
    if tau == 0.0:
        return 0.0
    u = alpha * tau
    if u <= 1.0 / 6.0:
        return 0.25 * math.sqrt(6.0 * tau / alpha)
    if u <= 5.0 / 6.0:
        return 9.0 * (2.0 * u + 1.0) ** 2 / (64.0 * alpha)
    return 1.5 * tau - 0.25 / alpha


def analytic_min_feasible(alpha: float, tau: float) -> bool:
    """Whether the closed-form lower bound's minimizer respects g <= 1."""
    return _analytic_min_gmax(alpha, tau) <= 1.0
