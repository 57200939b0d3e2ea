"""Effective class margins (gamma+, gamma-) and their reciprocal weights.

The optimal margins minimize (1/gamma+) * n+^(-1/2) + (1/gamma-) * n-^(-1/2)
subject to gamma+ + gamma- = 1, which gives the closed form

    gamma+ = n-^(1/4) / (n+^(1/4) + n-^(1/4)).

Fourth roots are computed as sqrt(sqrt(x)) so that exact cases (16 -> 2,
81 -> 3) stay exact in floating point.  Only the grid oracle and its
objective import numpy, so the closed form, and ``ecmargin margins``, run
without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .priors import ClassStats


@dataclass(frozen=True)
class Margins:
    """Complementary score margins, gamma_plus + gamma_minus = 1."""

    gamma_plus: float
    gamma_minus: float

    def __post_init__(self):
        if not (0.0 < self.gamma_plus < 1.0 and 0.0 < self.gamma_minus < 1.0):
            raise ValidationError(
                f"margins must lie in (0,1), got ({self.gamma_plus}, {self.gamma_minus})"
            )
        if abs(self.gamma_plus + self.gamma_minus - 1.0) > 1e-12:
            raise ValidationError(
                f"margins must sum to 1, got {self.gamma_plus} + {self.gamma_minus}"
            )


@dataclass(frozen=True)
class MarginWeights:
    """Reciprocal margins w+ = 1/gamma+, w- = 1/gamma-; both exceed 1."""

    w_plus: float
    w_minus: float

    def __post_init__(self):
        if not (self.w_plus > 1.0 and self.w_minus > 1.0):
            raise ValidationError(
                f"weights must both exceed 1, got ({self.w_plus}, {self.w_minus})"
            )
        if abs(1.0 / self.w_plus + 1.0 / self.w_minus - 1.0) > 1e-12:
            raise ValidationError(
                f"reciprocals must sum to 1, got 1/{self.w_plus} + 1/{self.w_minus}"
            )


def _fourth_root(x: float) -> float:
    return math.sqrt(math.sqrt(x))


def optimal_margins(stats: ClassStats) -> Margins:
    """Closed-form optimal margins from the class counts."""
    q_plus = _fourth_root(float(stats.n_plus))
    q_minus = _fourth_root(float(stats.n_minus))
    denom = q_plus + q_minus
    gamma_plus = q_minus / denom
    gamma_minus = q_plus / denom
    # inside (0,1) in exact arithmetic; one rounds to 1 once a fourth root
    # exceeds the other by more than about 2^53
    if not (gamma_plus < 1.0 and gamma_minus < 1.0):
        raise ValidationError(
            f"margins are not representable at alpha = n_minus/n_plus = {stats.alpha:g}: "
            f"they round to ({gamma_plus}, {gamma_minus})"
        )
    return Margins(gamma_plus=gamma_plus, gamma_minus=gamma_minus)


def _margin_objective(gamma_plus, stats: ClassStats):
    """The complexity objective (1/g+) n+^(-1/2) + (1/(1-g+)) n-^(-1/2).

    Strictly convex in gamma_plus on (0,1).  A float for a float, an array
    for an array of gamma_plus.
    """
    import numpy as np

    g = np.asarray(gamma_plus, dtype=np.float64)
    if (outside := np.flatnonzero(~((0.0 < g) & (g < 1.0)))).size:
        bad = gamma_plus if g.ndim == 0 else g.flat[outside[0]]
        raise ValidationError(f"gamma_plus must lie strictly inside (0,1), got {bad}")
    value = (1.0 / g) / math.sqrt(stats.n_plus) + (1.0 / (1.0 - g)) / math.sqrt(stats.n_minus)
    return float(value) if g.ndim == 0 else value


def margins_grid_oracle(stats: ClassStats, step: float) -> Margins:
    """Brute-force argmin of the objective (1/g+) n+^(-1/2) + (1/(1-g+)) n-^(-1/2)
    over g+ in {k * step < 1 : k >= 1}; ties go low."""
    import numpy as np

    # the grid holds 1/step floats, so step has a floor
    if not 1e-6 <= step <= 1e-2:
        raise ValidationError(f"step must lie in [1e-6, 1e-2], got {step}")
    # k * step rounds monotonically in k, and k = ceil(1/step) + 1 reaches past 1
    grid = np.arange(1, math.ceil(1.0 / step) + 2) * step
    grid = grid[grid < 1.0]
    best_gamma = float(grid[np.argmin(_margin_objective(grid, stats))])
    return Margins(gamma_plus=best_gamma, gamma_minus=1.0 - best_gamma)


def weights(m: Margins) -> MarginWeights:
    """Reciprocal weights of a margin pair."""
    return MarginWeights(w_plus=1.0 / m.gamma_plus, w_minus=1.0 / m.gamma_minus)
