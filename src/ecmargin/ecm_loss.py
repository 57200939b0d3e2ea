"""The ECM loss on the weighted-sigmoid surrogate score, and its focal variant.

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

Each kernel is one sequence of steps, each writing into z or a workspace
array (``_workspace``) with ``out=``.  The workspace is the caller's, so a
call allocates no array (the sandbox trainer's batch step), or a fresh one at
the arguments' broadcast shape, 0-d for scalars.  Either way the bits are
those of the expressions above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .margins import MarginWeights

POSITIVE = "positive"
NEGATIVE = "negative"
# focal_ecm_loss's defaults, which the sandbox's focal_ecm loss also trains with
_FOCAL = {"focal_gamma": 2.0, "focal_alpha": 0.25}


@dataclass(frozen=True)
class LossEval:
    """A loss value together with its analytic derivative w.r.t. the logit."""

    value: float
    grad_logit: float

    def __post_init__(self):
        if not (self.value >= 0.0):
            raise ValidationError(f"loss value must be >= 0, got {self.value}")


def _workspace(shape):
    """The kernels' scratch arrays for arguments of ``shape``: five float and
    two bool arrays."""
    return (
        *(np.empty(shape) for _ in range(5)),
        *(np.empty(shape, dtype=bool) for _ in range(2)),
    )


def _start(z, positive, m, work):
    """The array t overwrites and the workspace: z and ``work`` when given,
    else a float copy of z and a fresh workspace at the arguments' broadcast
    shape."""
    if work is None:
        shape = np.broadcast_shapes(np.shape(z), np.shape(positive), np.shape(m))
        z, work = np.array(np.broadcast_to(z, shape), dtype=float), _workspace(shape)
    return z, work


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
    if label not in (POSITIVE, NEGATIVE):
        raise ValidationError(f"label must be 'positive' or 'negative', got {label!r}")
    return f, label == POSITIVE, m


def _evaluate(kernel, *args) -> LossEval:
    """The scalar API's kernel call: a LossEval of the value and gradient,
    or ValidationError when either overflowed.  A finite f and m can still
    overflow the value m softplus(t), the gradient, or focal's partial
    product 2 mod m, so neither warns here: the result is checked instead."""
    with np.errstate(over="ignore", invalid="ignore"):
        value, grad = kernel(*args)
    value, grad = float(value), float(grad)
    if not (math.isfinite(value) and math.isfinite(grad)):
        raise ValidationError(
            f"loss overflows at these arguments: value {value}, gradient {grad}"
        )
    return LossEval(value=value, grad_logit=grad)


def log_weight_ratio(w: MarginWeights) -> float:
    """ln(w- / w+), the logit shift that encodes the margins."""
    return math.log(w.w_minus) - math.log(w.w_plus)


def decision_logit(w: MarginWeights) -> float:
    """The logit f* where s_hat crosses 1/2: f* = (ln w- - ln w+) / 2.

    The plain sigmoid e^f/(e^f + e^-f) evaluated at f* equals gamma_plus,
    i.e. the weights shift the decision boundary by exactly the margin.
    """
    return 0.5 * log_weight_ratio(w)


def _ecm_value_grad(z, positive, m, work=None):
    """Vectorized ECM value/gradient at z = 2f - ln(w-/w+).

    ``positive`` is a boolean array (or scalar) marking positive labels;
    shapes broadcast.  Single source of truth for the scalar API, the sandbox
    trainer and ``verify``.  With ``work``, a ``_workspace`` of z's shape, no
    array is allocated: z must be a float array of that shape and is
    overwritten with t, and the value and gradient returned are two of the
    workspace arrays.
    """
    t, (e, a, value, grad, _, nonneg, _) = _start(z, positive, m, work)
    # where= pays per run of equal mask values, which suits the sparse label
    # mask; np.putmask copies by mask, fast for the dense sign masks too
    np.negative(t, out=t, where=positive)
    np.exp(np.negative(np.abs(t, out=e), out=e), out=e)
    np.maximum(t, 0.0, out=value)
    value += np.log1p(e, out=a)
    value *= m
    denom = np.add(e, 1.0, out=a)
    np.putmask(e, np.greater_equal(t, 0.0, out=nonneg), 1.0)
    e /= denom  # sigmoid(t)
    # sign m sigmoid as +-(2 sigmoid m): 2 sigmoid <= 2 is exact, so this is
    # the rounding of 2m sigmoid, and it overflows only where the gradient
    # does, never on 2m; IEEE rounding is symmetric, so the sign comes last
    np.add(e, e, out=grad)
    grad *= m
    np.negative(grad, out=grad, where=positive)
    return value, grad


def _focal_value_grad(z, positive, m, focal_gamma, focal_alpha, work=None):
    """Vectorized focal-ECM value/gradient at z = 2f - ln(w-/w+); ``work`` as
    for ``_ecm_value_grad``.  The focal parameters may be arrays that broadcast
    to z's shape."""
    t, (e, a, sp_t, sp_o, sig_t, nonneg, neg) = _start(z, positive, m, work)
    np.negative(t, out=t, where=positive)
    np.exp(np.negative(np.abs(t, out=e), out=e), out=e)
    log1p_e = np.log1p(e, out=a)
    np.maximum(t, 0.0, out=sp_t)
    sp_t += log1p_e  # -ln of the label's own probability
    np.maximum(np.negative(t, out=sp_o), 0.0, out=sp_o)
    sp_o += log1p_e  # -ln of the other label's probability
    denom = np.add(e, 1.0, out=a)
    np.greater_equal(t, 0.0, out=nonneg)
    np.copyto(sig_t, e)
    np.putmask(sig_t, nonneg, 1.0)
    sig_t /= denom  # 1 - p
    np.putmask(e, np.logical_not(nonneg, out=neg), 1.0)
    sig_o = e
    sig_o /= denom  # p
    sp_o *= -focal_gamma
    powered = np.exp(sp_o, out=sp_o)
    mod = np.multiply(powered, 1.0 - focal_alpha, out=a)
    np.multiply(powered, focal_alpha, out=mod, where=positive)
    value = np.multiply(mod, sp_t, out=sp_o)
    value *= m
    sig_o *= focal_gamma
    sig_o *= sp_t
    sig_o += sig_t
    grad = np.add(mod, mod, out=sp_t)  # 2 mod <= 2, as 2 sigmoid for ecm
    grad *= m
    grad *= sig_o
    np.negative(grad, out=grad, where=positive)
    return value, grad


def ecm_loss(f: float, label: str, w: MarginWeights, m: float = 1.0) -> LossEval:
    """Binary cross entropy on the surrogate score, scaled by m.

    Positive label: m * softplus(-2f + ln(w-/w+)); negative label:
    m * softplus(2f - ln(w-/w+)).  Gradients are -2m(1-s_hat) and +2m s_hat.
    """
    f, is_pos, m = _check_args(f, label, m)
    return _evaluate(_ecm_value_grad, 2.0 * f - log_weight_ratio(w), is_pos, m)


def focal_ecm_loss(
    f: float,
    label: str,
    w: MarginWeights,
    m: float = 1.0,
    focal_gamma: float = _FOCAL["focal_gamma"],
    focal_alpha: float = _FOCAL["focal_alpha"],
) -> LossEval:
    """ECM loss with focal modulation.

    Positive: focal_alpha * (1-s_hat)^focal_gamma * ecm positive term;
    negative: (1-focal_alpha) * s_hat^focal_gamma * ecm negative term.
    Defaults focal_gamma=2, focal_alpha=0.25.
    """
    f, is_pos, m = _check_args(f, label, m)
    focal_gamma = _check_finite("focal_gamma", focal_gamma)
    if focal_gamma < 0:
        raise ValidationError(f"focal_gamma must be >= 0, got {focal_gamma}")
    if not 0.0 < focal_alpha < 1.0:
        raise ValidationError(f"focal_alpha must lie in (0,1), got {focal_alpha}")
    z = 2.0 * f - log_weight_ratio(w)
    return _evaluate(_focal_value_grad, z, is_pos, m, focal_gamma, focal_alpha)


def bce_loss(f: float, label: str) -> LossEval:
    """Plain binary cross entropy baseline: ECM with equal weights and m = 1.

    Only the weight ratio enters the kernel, so any w+ = w- gives the same
    value; this is ecm_loss with z = 2f.
    """
    f, is_pos, m = _check_args(f, label)
    return _evaluate(_ecm_value_grad, 2.0 * f, is_pos, m)

