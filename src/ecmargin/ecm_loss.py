"""The weighted-sigmoid surrogate score, the ECM loss, and its focal variant.

Everything is evaluated in logit space, never by exponentiating probabilities
and taking logs afterwards, so the kernels stay finite for logits up to +-1e4
and weights from counts up to 1e9.

With z = 2f - ln(w-/w+) and s_hat = sigmoid(z), each label keeps one cross
entropy term.  Both kernels take the signed argument t = -z for a positive and
t = z for a negative, so softplus(t) = -ln p and sigmoid(t) = 1 - p, p being
the probability s_hat assigns the label.  With sign = -2 and a = focal_alpha
for a positive, sign = +2 and a = 1 - focal_alpha for a negative:

    ecm:   value = m softplus(t)          grad = sign m sigmoid(t)
    focal: value = mod m softplus(t)      mod = a sigmoid(t)^g
           grad = sign m mod (g sigmoid(-t) softplus(t) + sigmoid(t))

All four functions of t come from one e = exp(-|t|), the log1pexp form of
Maechler (2012, "Accurately computing log(1 - exp(-|a|))"):

    softplus(+-t) = max(+-t, 0) + log1p(e)
    sigmoid(t)  = where(t >= 0, 1, e) / (1 + e)
    sigmoid(-t) = where(t >= 0, e, 1) / (1 + e)

e never overflows and 1 + e lies in [1, 2], so nothing cancels: the sigmoid
is within 2 ulp and the softplus within 1 ulp of the exact value.  The only
other exp is the focal modulation sigmoid(t)^g = exp(-g softplus(-t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .margins import MarginWeights

POSITIVE = "positive"
NEGATIVE = "negative"


@dataclass(frozen=True)
class LossEval:
    """A loss value together with its analytic derivative w.r.t. the logit."""

    value: float
    grad_logit: float

    def __post_init__(self):
        if not (self.value >= 0.0):
            raise ValidationError(f"loss value must be >= 0, got {self.value}")


def _log1pexp(t):
    """softplus(t) and sigmoid(t) from one exp, with e = exp(-|t|) and
    log1p(e) for kernels that also need softplus(-t) and sigmoid(-t)."""
    e = np.exp(-np.abs(t))
    log1p_e = np.log1p(e)
    return np.maximum(t, 0.0) + log1p_e, np.where(t >= 0, 1.0, e) / (1.0 + e), e, log1p_e


def _check_label(label: str) -> bool:
    if label == POSITIVE:
        return True
    if label == NEGATIVE:
        return False
    raise ValidationError(f"label must be 'positive' or 'negative', got {label!r}")


def _check_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {x}")
    return x


def _check_args(f: float, label: str, m: float = 1.0) -> tuple[float, bool, float]:
    """The scalar API's shared checks: finite f, finite m > 0, a known label."""
    f = _check_finite("f", f)
    m = _check_finite("m", m)
    if m <= 0:
        raise ValidationError(f"m must be > 0, got {m}")
    return f, _check_label(label), m


def log_weight_ratio(w: MarginWeights) -> float:
    """ln(w- / w+), the logit shift that encodes the margins."""
    return math.log(w.w_minus) - math.log(w.w_plus)


def surrogate_score(f: float, w: MarginWeights) -> float:
    """Weighted sigmoid s_hat = w+ e^f / (w+ e^f + w- e^-f), in (0,1).

    Computed as sigmoid(2f - ln(w-/w+)); strictly increasing in f.
    """
    f = _check_finite("f", f)
    return float(_log1pexp(2.0 * f - log_weight_ratio(w))[1])


def decision_logit(w: MarginWeights) -> float:
    """The logit f* where s_hat crosses 1/2: f* = (ln w- - ln w+) / 2.

    The plain sigmoid e^f/(e^f + e^-f) evaluated at f* equals gamma_plus,
    i.e. the weights shift the decision boundary by exactly the margin.
    """
    return 0.5 * log_weight_ratio(w)


def _ecm_value_grad(z, positive, m):
    """Vectorized ECM value/gradient at z = 2f - ln(w-/w+).

    ``positive`` is a boolean array (or scalar) marking positive labels;
    shapes broadcast.  Single source of truth for the scalar API and the
    sandbox trainer.
    """
    t = np.where(positive, -z, z)
    sign = np.where(positive, -2.0, 2.0)
    softplus_t, sigmoid_t, _, _ = _log1pexp(t)
    return m * softplus_t, sign * m * sigmoid_t


def _focal_value_grad(z, positive, m, focal_gamma, focal_alpha):
    """Vectorized focal-ECM value/gradient at z = 2f - ln(w-/w+)."""
    t = np.where(positive, -z, z)
    sign = np.where(positive, -2.0, 2.0)
    sp_t, sig_t, e, log1p_e = _log1pexp(t)  # -ln of the label's own probability, and 1 - p
    sp_o = np.maximum(-t, 0.0) + log1p_e  # -ln of the other label's probability
    sig_o = np.where(t >= 0, e, 1.0) / (1.0 + e)  # p
    mod = np.where(positive, focal_alpha, 1.0 - focal_alpha) * np.exp(-focal_gamma * sp_o)
    value = m * (mod * sp_t)
    grad = sign * m * mod * (focal_gamma * sig_o * sp_t + sig_t)
    return value, grad


def ecm_loss(f: float, label: str, w: MarginWeights, m: float = 1.0) -> LossEval:
    """Binary cross entropy on the surrogate score, scaled by m.

    Positive label: m * softplus(-2f + ln(w-/w+)); negative label:
    m * softplus(2f - ln(w-/w+)).  Gradients are -2m(1-s_hat) and +2m s_hat.
    """
    f, is_pos, m = _check_args(f, label, m)
    value, grad = _ecm_value_grad(2.0 * f - log_weight_ratio(w), is_pos, m)
    return LossEval(value=float(value), grad_logit=float(grad))


def focal_ecm_loss(
    f: float,
    label: str,
    w: MarginWeights,
    m: float = 1.0,
    focal_gamma: float = 2.0,
    focal_alpha: float = 0.25,
) -> LossEval:
    """ECM loss with focal modulation.

    Positive: focal_alpha * (1-s_hat)^focal_gamma * ecm positive term;
    negative: (1-focal_alpha) * s_hat^focal_gamma * ecm negative term.
    Defaults focal_gamma=2, focal_alpha=0.25.
    """
    f, is_pos, m = _check_args(f, label, m)
    if focal_gamma < 0:
        raise ValidationError(f"focal_gamma must be >= 0, got {focal_gamma}")
    if not 0.0 < focal_alpha < 1.0:
        raise ValidationError(f"focal_alpha must lie in (0,1), got {focal_alpha}")
    z = 2.0 * f - log_weight_ratio(w)
    value, grad = _focal_value_grad(z, is_pos, m, focal_gamma, focal_alpha)
    return LossEval(value=float(value), grad_logit=float(grad))


def bce_loss(f: float, label: str) -> LossEval:
    """Plain binary cross entropy baseline: ECM with equal weights and m = 1.

    Only the weight ratio enters the kernel, so any w+ = w- gives the same
    value; this is ecm_loss with z = 2f.
    """
    f, is_pos, m = _check_args(f, label)
    value, grad = _ecm_value_grad(2.0 * f, is_pos, m)
    return LossEval(value=float(value), grad_logit=float(grad))


def margin_error(score: float, gamma: float, side: str) -> int:
    """Empirical margin-violation indicator.

    Positives violate when s_c <= gamma_plus; negatives when the complement
    score s_nonc = 1 - s_c is <= gamma_minus.
    """
    if not 0.0 <= score <= 1.0:
        raise ValidationError(f"score must lie in [0,1], got {score}")
    if not 0.0 < gamma < 1.0:
        raise ValidationError(f"gamma must lie in (0,1), got {gamma}")
    is_pos = _check_label(side)
    if is_pos:
        return 1 if score <= gamma else 0
    return 1 if (1.0 - score) <= gamma else 0
