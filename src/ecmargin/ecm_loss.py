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

Each kernel is one sequence of steps, run in one of two forms.  Given a
workspace (``_workspace``), every step writes into z or a workspace array
with ``out=``, so a call allocates no array: the sandbox trainer's batch step.
Without one, scalars take the same steps as numpy scalars and arrays get a
fresh workspace.  Either form gives the same bits as the expressions above.
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
    """softplus(t) and sigmoid(t) from one e = exp(-|t|)."""
    e = np.exp(-np.abs(t))
    return np.maximum(t, 0.0) + np.log1p(e), np.where(t >= 0, 1.0, e) / (1.0 + e)


def _workspace(shape):
    """The kernels' scratch arrays for arguments of ``shape``: five float and
    two bool arrays."""
    return (
        *(np.empty(shape) for _ in range(5)),
        *(np.empty(shape, dtype=bool) for _ in range(2)),
    )


_NEW_SCALARS = ({},) * 8


def _outs(z, positive, m, work):
    """z as the array t overwrites, and one ``out=`` keyword set for z and
    for each workspace array.  Without ``work``, array arguments get a copy of
    z and a fresh workspace of the broadcast shape; scalar arguments get no
    ``out=``, so every step makes a new scalar."""
    if work is None:
        if not any(isinstance(a, np.ndarray) for a in (z, positive, m)):
            return z, _NEW_SCALARS
        shape = np.broadcast_shapes(np.shape(z), np.shape(positive), np.shape(m))
        z, work = np.array(np.broadcast_to(z, shape), dtype=float), _workspace(shape)
    return z, [{"out": a} for a in (z, *work)]


def _masked(mask, x, ufunc, *args, **out):
    """x with ufunc(*args) where mask holds: written into ``out``, which is x,
    or for a scalar the one value it picks.  A masked ufunc pays per run of
    equal mask values, so this is for the sparse label masks."""
    if out:
        return ufunc(*args, where=mask, **out)
    return ufunc(*args) if mask else x


def _put(mask, x, value):
    """x with the constant value where mask holds: in place for an array (a
    copy by mask, fast for dense masks too), or for a scalar the one value
    it picks."""
    if isinstance(x, np.ndarray):
        np.putmask(x, mask, value)
        return x
    return value if mask else x


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


def _ecm_value_grad(z, positive, m, work=None):
    """Vectorized ECM value/gradient at z = 2f - ln(w-/w+).

    ``positive`` is a boolean array (or scalar) marking positive labels;
    shapes broadcast.  Single source of truth for the scalar API and the
    sandbox trainer.  With ``work``, a ``_workspace`` of z's shape, no array
    is allocated: z must be a float array of that shape and is overwritten
    with t, and the value and gradient returned are two of the workspace
    arrays.
    """
    z, (t_, e_, a_, v_, g_, _, ge_, _) = _outs(z, positive, m, work)
    t = _masked(positive, z, np.negative, z, **t_)
    e = np.exp(np.negative(np.abs(t, **e_), **e_), **e_)
    value = np.maximum(t, 0.0, **v_)
    value += np.log1p(e, **a_)
    value *= m
    denom = np.add(e, 1.0, **a_)
    sigmoid = _put(np.greater_equal(t, 0.0, **ge_), e, 1.0)
    sigmoid /= denom
    # sign m sigmoid as +-(2m sigmoid): IEEE rounding is symmetric, so the
    # label's sign comes last and moves no bit
    grad = np.add(m, m, **g_)
    grad *= sigmoid
    return value, _masked(positive, grad, np.negative, grad, **g_)


def _focal_value_grad(z, positive, m, focal_gamma, focal_alpha, work=None):
    """Vectorized focal-ECM value/gradient at z = 2f - ln(w-/w+); ``work`` as
    for ``_ecm_value_grad``."""
    z, (t_, e_, a_, s_, o_, p_, ge_, lt_) = _outs(z, positive, m, work)
    t = _masked(positive, z, np.negative, z, **t_)
    e = np.exp(np.negative(np.abs(t, **e_), **e_), **e_)
    log1p_e = np.log1p(e, **a_)
    sp_t = np.maximum(t, 0.0, **s_)
    sp_t += log1p_e  # -ln of the label's own probability
    sp_o = np.maximum(np.negative(t, **o_), 0.0, **o_)
    sp_o += log1p_e  # -ln of the other label's probability
    denom = np.add(e, 1.0, **a_)
    nonneg = np.greater_equal(t, 0.0, **ge_)
    sig_t = _put(nonneg, np.positive(e, **p_), 1.0)
    sig_t /= denom  # 1 - p
    sig_o = _put(np.logical_not(nonneg, **lt_), e, 1.0)
    sig_o /= denom  # p
    sp_o *= -focal_gamma
    powered = np.exp(sp_o, **o_)
    mod = np.multiply(powered, 1.0 - focal_alpha, **a_)
    mod = _masked(positive, mod, np.multiply, powered, focal_alpha, **a_)
    value = np.multiply(mod, sp_t, **o_)
    value *= m
    sig_o *= focal_gamma
    sig_o *= sp_t
    sig_o += sig_t
    grad = np.add(m, m, **s_)
    grad *= mod
    grad *= sig_o
    return value, _masked(positive, grad, np.negative, grad, **s_)


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
