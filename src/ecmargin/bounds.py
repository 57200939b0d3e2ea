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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .metrics import (
    ScoreSet,
    _check_alpha,
    ap_standard_error,
    ranking_error,
    ranking_standard_error,
)

SLOPE_MODES = ("unit", "lower", "upper", "meet")

_BISECT_TOL = 1e-12
_MEAN_TOL = 1e-12
_REL_OBJ_TOL = 1e-10
_MAX_ITER = 10**5


def _check_r(r: float) -> float:
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValidationError(f"ranking error must lie in [0,1], got {r}")
    return r


def ap_upper(alpha: float, r: float) -> float:
    """Upper bound on AP at ranking error r: 1 + alpha*ln(1 - r/(1+alpha))."""
    alpha = _check_alpha(alpha)
    r = _check_r(r)
    return 1.0 + alpha * math.log1p(-r / (1.0 + alpha))


def ap_lower_branches(alpha: float, r: float) -> tuple[float, float]:
    """The two lower-bound branches (sqrt branch, rational branch)."""
    alpha = _check_alpha(alpha)
    r = _check_r(r)
    b1 = 1.0 - math.sqrt(2.0 * alpha * r / 3.0)
    b2 = (8.0 / 9.0) / (1.0 + 2.0 * alpha * r)
    return b1, b2


def ap_lower(alpha: float, r: float) -> float:
    """Lower bound on AP at ranking error r: the larger of the two branches."""
    b1, b2 = ap_lower_branches(alpha, r)
    return max(b1, b2)


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
    lo = ap_lower(alpha, r)
    hi = ap_upper(alpha, r)
    return BoundEnvelope(
        alpha=float(alpha),
        ranking_error=float(r),
        ap_lower=lo,
        ap_upper=hi,
        det_lower=1.0 - hi,
        det_upper=1.0 - lo,
        slope_m=slope_m(alpha, mode),
        slope_mode=mode,
    )


def _meet_radius(alpha: float) -> float:
    """Ranking error where the two det-error upper-bound branches cross.

    Root of sqrt(2 a R / 3) = 1 - (8/9)/(1+2 a R) on (0, 1], by bisection to
    1e-12; when the branches do not cross inside the domain the crossing is
    taken at R = 1.
    """

    def h(r: float) -> float:
        return math.sqrt(2.0 * alpha * r / 3.0) - 1.0 + (8.0 / 9.0) / (1.0 + 2.0 * alpha * r)

    lo, hi = 0.0, 1.0
    if h(hi) <= 0.0:
        return 1.0
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if h(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def slope_m(alpha: float, mode: str = "upper") -> float:
    """Linear slope m relating detection error to ranking error.

    unit -> 1; lower -> alpha*ln((1+alpha)/alpha); upper ->
    (1/9 + 2 alpha)/(1 + 2 alpha); meet -> the slope of the chord from the
    origin through the branch-crossing point of the det-error upper bound.
    The raw chord slope can leave the theorem's [lower, upper] bracket (it
    approaches 2*alpha as the crossing moves toward the origin), so it is
    clamped into the bracket; every mode then respects
    slope_m(lower) <= slope_m(mode in {meet, upper}) <= slope_m(upper).
    """
    alpha = _check_alpha(alpha)
    if mode == "unit":
        return 1.0
    if mode == "lower":
        return alpha * math.log1p(1.0 / alpha)
    if mode == "upper":
        return (1.0 / 9.0 + 2.0 * alpha) / (1.0 + 2.0 * alpha)
    if mode == "meet":
        r_star = _meet_radius(alpha)
        det_at_star = 1.0 - ap_lower(alpha, r_star)
        raw = det_at_star / r_star
        lo = alpha * math.log1p(1.0 / alpha)
        hi = (1.0 / 9.0 + 2.0 * alpha) / (1.0 + 2.0 * alpha)
        return min(max(raw, lo), hi)
    raise ValidationError(f"mode must be one of {SLOPE_MODES}, got {mode!r}")


def binary_bound_check(s: ScoreSet, t: float) -> tuple[float, bool]:
    """Threshold bound on the ranking error: R <= P(s+ <= t) + P(s- > t).

    Returns the right-hand side and whether the inequality holds (with 1e-12
    slack for the float comparison).
    """
    rhs = float(np.count_nonzero(s.positives <= t)) / s.n_plus + float(
        np.count_nonzero(s.negatives > t)
    ) / s.n_minus
    holds = ranking_error(s) <= rhs + 1e-12
    return rhs, holds


def audit_interval(s: ScoreSet, alpha: float) -> tuple[float, float]:
    """AP acceptance interval [lo, hi] for a finite sample at ratio alpha.

    The bounds are evaluated at the measured ranking error shifted by three
    of its standard errors in the unfavorable direction, then widened by
    three standard errors of the AP estimate itself, so a violation signals
    a genuine bound failure rather than Monte Carlo noise.
    """
    alpha = _check_alpha(alpha)
    r = ranking_error(s)
    sr = ranking_standard_error(s)
    sap = ap_standard_error(s, alpha)
    lo = ap_lower(alpha, min(1.0, r + 3.0 * sr)) - 3.0 * sap
    hi = ap_upper(alpha, max(0.0, r - 3.0 * sr)) + 3.0 * sap
    return lo, hi


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
    """Project v onto {0 <= g <= 1, mean(g) = tau}: clip(v + shift) with the
    scalar shift found by bisection to 1e-12 on the mean."""
    lo = tau - float(np.max(v))
    hi = tau - float(np.min(v)) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        mean = float(np.mean(np.clip(v + mid, 0.0, 1.0)))
        if abs(mean - tau) <= _MEAN_TOL:
            lo = hi = mid
            break
        if mean < tau:
            lo = mid
        else:
            hi = mid
    return np.clip(v + 0.5 * (lo + hi), 0.0, 1.0)


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
    """Maximize remove[i] + add[j] over i != j with both entries finite."""
    i1 = int(np.argmax(remove))
    j1 = int(np.argmax(add))
    if not (np.isfinite(remove[i1]) and np.isfinite(add[j1])):
        return -math.inf, (i1, j1)
    if i1 != j1:
        return float(remove[i1] + add[j1]), (i1, j1)
    # the same bin tops both lists; try the runner-up on each side
    r2 = np.array(remove, copy=True)
    r2[i1] = -np.inf
    a2 = np.array(add, copy=True)
    a2[j1] = -np.inf
    i2 = int(np.argmax(r2))
    j2 = int(np.argmax(a2))
    candidates = []
    if np.isfinite(r2[i2]):
        candidates.append((float(r2[i2] + add[j1]), (i2, j1)))
    if np.isfinite(a2[j2]):
        candidates.append((float(remove[i1] + a2[j2]), (i1, j2)))
    if not candidates:
        return -math.inf, (i1, j1)
    return max(candidates, key=lambda c: c[0])


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
