"""Effective class margins (gamma+, gamma-) and their reciprocal weights.

The optimal margins minimize (1/gamma+) * n+^(-1/2) + (1/gamma-) * n-^(-1/2)
subject to gamma+ + gamma- = 1, which gives the closed form

    gamma+ = n-^(1/4) / (n+^(1/4) + n-^(1/4)).

Fourth roots are computed as sqrt(sqrt(x)) so that exact cases (16 -> 2,
81 -> 3) stay exact in floating point.
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


def margin_objective(gamma_plus: float, stats: ClassStats) -> float:
    """The complexity objective (1/g+) n+^(-1/2) + (1/(1-g+)) n-^(-1/2).

    Strictly convex in gamma_plus on (0,1).
    """
    if not 0.0 < gamma_plus < 1.0:
        raise ValidationError(f"gamma_plus must lie strictly inside (0,1), got {gamma_plus}")
    return (1.0 / gamma_plus) / math.sqrt(stats.n_plus) + (1.0 / (1.0 - gamma_plus)) / math.sqrt(
        stats.n_minus
    )


def margins_grid_oracle(stats: ClassStats, step: float) -> Margins:
    """Brute-force argmin of margin_objective over the grid {step, 2*step, ...}."""
    if not 0.0 < step <= 1e-2:
        raise ValidationError(f"step must lie in (0, 1e-2], got {step}")
    best_gamma = None
    best_value = math.inf
    k = 1
    while True:
        gamma = k * step
        if gamma >= 1.0:
            break
        value = margin_objective(gamma, stats)
        if value < best_value:
            best_value = value
            best_gamma = gamma
        k += 1
    return Margins(gamma_plus=best_gamma, gamma_minus=1.0 - best_gamma)


def weights(m: Margins) -> MarginWeights:
    """Reciprocal weights of a margin pair."""
    return MarginWeights(w_plus=1.0 / m.gamma_plus, w_minus=1.0 / m.gamma_minus)
