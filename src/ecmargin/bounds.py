"""Closed-form AP-ranking bounds, the linear slope, and variational oracles.

The detection error 1 - AP of a class with negative/positive ratio alpha and
pairwise ranking error R is sandwiched by

    ap_upper(alpha, R) = 1 + alpha * ln(1 - R/(1+alpha))
    ap_lower(alpha, R) = max(1 - sqrt(2 alpha R / 3), (8/9) / (1 + 2 alpha R))

The two lower-bound branches exchange exactly at alpha*R = 1/6, where both
equal 2/3.  The variational oracles re-derive these extremes numerically:
the minimizer of the AP integral by projected gradient descent on the
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

from .errors import NumericalError, ValidationError
from .metrics import ScoreSet, _check_alpha, _count_above, _precisions, ranking_error

SLOPE_MODES = ("unit", "lower", "upper", "meet")

_REL_OBJ_TOL = 1e-10
_MAX_ITER = 10**5


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
    """AP and detection-error bounds plus the linear slope at one (alpha, R)."""

    alpha: float
    ranking_error: float
    ap_lower: float
    ap_upper: float
    det_lower: float
    det_upper: float
    slope_m: float
    slope_mode: str

    def __post_init__(self):
        if self.ap_lower > self.ap_upper + 1e-12:
            raise ValidationError(
                f"ap_lower {self.ap_lower} exceeds ap_upper {self.ap_upper}"
            )
        if self.det_lower != 1.0 - self.ap_upper or self.det_upper != 1.0 - self.ap_lower:
            raise ValidationError("detection bounds must complement the AP bounds")
        if not self.slope_m > 0:
            raise ValidationError(f"slope_m must be positive, got {self.slope_m}")
        if self.slope_mode not in SLOPE_MODES:
            raise ValidationError(f"slope_mode must be one of {SLOPE_MODES}")


def envelope(alpha: float, r: float, mode: str = "upper") -> BoundEnvelope:
    """Assemble the full bound envelope at one (alpha, ranking_error) point."""
    lo = _ap_lower(alpha, r)
    hi = _ap_upper(alpha, r)
    return BoundEnvelope(
        alpha=float(alpha),
        ranking_error=float(r),
        ap_lower=lo,
        ap_upper=hi,
        det_lower=1.0 - hi,
        det_upper=1.0 - lo,
        slope_m=_slope_m(alpha, mode),
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
class GFunction:
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


def _gradient(x: np.ndarray, g: np.ndarray, alpha: float) -> np.ndarray:
    return -(alpha / x.size) * x / np.square(x + alpha * g)


def _project_box_mean(v: np.ndarray, tau: float) -> np.ndarray:
    """Project v onto {0 <= g <= 1, mean(g) = tau}: clip(v + theta, 0, 1) with
    the exact shift theta (the capped-simplex projection of Wang & Lu 2015,
    arXiv:1503.01002).

    S(theta) = sum(clip(v + theta, 0, 1)) is piecewise linear and
    nondecreasing: each kink -v_i adds slope 1 and each kink 1 - v_i takes it
    away.  One sort of the 2n kinks and a cumsum of the slopes give S at every
    kink; theta interpolates linearly to S = tau n.
    """
    n = v.size
    kinks = np.concatenate([-v, 1.0 - v])
    order = np.argsort(kinks, kind="stable")
    kinks = kinks[order]
    slopes = np.cumsum(np.where(order < n, 1.0, -1.0))
    level = np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.diff(kinks))])
    # the rising piece that reaches tau n; the clip keeps tau = 0 and a
    # rounded-down level at tau = 1 on the first and last pieces
    k = int(np.clip(np.searchsorted(level, tau * n), 1, 2 * n - 1))
    theta = kinks[k - 1] + (tau * n - level[k - 1]) / slopes[k - 1]
    return np.clip(v + theta, 0.0, 1.0)


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


def variational_min_oracle(alpha: float, tau: float, n: int = 2000) -> float:
    """Minimum of mean(x / (x + alpha g)) over 0 <= g <= 1 with mean(g) = tau.

    Independent numerical check of the lower-bound extremal: projected
    gradient descent (Barzilai-Borwein step with Armijo backtracking) on the
    midpoint-discretized convex program.  Converged when the relative
    objective change stays below 1e-10 on two consecutive accepted steps;
    raises NumericalError with the last iterate after 1e5 iterations.
    """
    alpha, tau, n = _check_oracle_args(alpha, tau, n, allow_zero_tau=True)
    if tau == 0.0:
        return 1.0
    x = _grid_midpoints(n)
    g = np.full(n, tau)
    grad = _gradient(x, g, alpha)
    obj = _objective(x, g, alpha)
    # first step from the local curvature bound
    step = 1.0 / float(np.max(2.0 * alpha**2 * x / (x.size * (x + alpha * g) ** 3)))
    small_changes = 0
    for _ in range(_MAX_ITER):
        g_new = _project_box_mean(g - step * grad, tau)
        direction = g_new - g
        obj_new = _objective(x, g_new, alpha)
        # Armijo sufficient decrease along the projection arc
        backtracks = 0
        while obj_new > obj + 1e-4 * float(np.dot(grad, direction)) and backtracks < 60:
            step *= 0.5
            g_new = _project_box_mean(g - step * grad, tau)
            direction = g_new - g
            obj_new = _objective(x, g_new, alpha)
            backtracks += 1
        grad_new = _gradient(x, g_new, alpha)
        if abs(obj - obj_new) <= _REL_OBJ_TOL * max(1.0, abs(obj)):
            small_changes += 1
            if small_changes >= 2:
                GFunction(grid=g_new, tau=tau)  # feasibility assertion
                return obj_new
        else:
            small_changes = 0
        # Barzilai-Borwein step for the next iteration
        y = grad_new - grad
        sy = float(np.dot(direction, y))
        if sy > 0:
            step = float(np.dot(direction, direction)) / sy
            step = min(max(step, 1e-12), 1e12)
        g, grad, obj = g_new, grad_new, obj_new
    pg_norm = float(np.linalg.norm(g - _project_box_mean(g - grad, tau)))
    raise NumericalError(
        f"min oracle did not converge in {_MAX_ITER} iterations "
        f"(alpha={alpha}, tau={tau}, N={n}, projected-gradient norm {pg_norm:.3e})",
        last_iterate=g,
        grad_norm=pg_norm,
    )


def _bang_bang_grid(tau: float, n: int) -> np.ndarray:
    """g = 1 on the top tau mass of [0,1], with a fractional boundary bin so
    the discrete mean equals tau."""
    total = tau * n
    full = int(math.floor(total))
    frac = total - full
    g = np.zeros(n)
    if full > 0:
        g[n - full :] = 1.0
    if frac > 0 and full < n:
        g[n - full - 1] = frac
    return g


def variational_max_oracle(alpha: float, tau: float, n: int = 2000) -> float:
    """Objective of the bang-bang maximizer g = 1 on [1-tau, 1], after checking
    that no single-bin mass move of delta = 1/N improves it.

    Raises NumericalError naming the improving bin pair if one exists.
    """
    alpha, tau, n = _check_oracle_args(alpha, tau, n, allow_zero_tau=False)
    x = _grid_midpoints(n)
    g = _bang_bang_grid(tau, n)
    GFunction(grid=g, tau=tau)
    obj = _objective(x, g, alpha)

    delta = 1.0 / n
    terms = x / (x + alpha * g)
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
            f"raises the objective by {best_gain / n:.3e} (alpha={alpha}, tau={tau})",
            last_iterate=g,
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


def analytic_min_gmax(alpha: float, tau: float) -> float:
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
    return analytic_min_gmax(alpha, tau) <= 1.0
