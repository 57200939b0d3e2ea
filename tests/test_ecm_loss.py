import decimal
import functools
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecmargin import (
    NEGATIVE,
    POSITIVE,
    ClassStats,
    LossEval,
    Margins,
    MarginWeights,
    ValidationError,
    bce_loss,
    decision_logit,
    ecm_loss,
    focal_ecm_loss,
    log_weight_ratio,
    margin_error,
    optimal_margins,
    surrogate_score,
    weights,
)
from ecmargin.ecm_loss import _ecm_value_grad, _focal_value_grad, _log1pexp

BALANCED = MarginWeights(w_plus=2.0, w_minus=2.0)
SKEWED = weights(optimal_margins(ClassStats(n_plus=16, n_minus=81, alpha=81 / 16)))
WEIGHT_CASES = [
    BALANCED,
    SKEWED,
    weights(Margins(gamma_plus=0.4, gamma_minus=0.6)),
    weights(Margins(gamma_plus=0.05, gamma_minus=0.95)),
]

logits = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)


def central_difference(fn, f, h=1e-5):
    return (fn(f + h).value - fn(f - h).value) / (2.0 * h)


class TestAnchors:
    def test_loss_at_the_decision_boundary_is_ln_two(self):
        for w in WEIGHT_CASES:
            f_star = decision_logit(w)
            assert abs(ecm_loss(f_star, POSITIVE, w).value - math.log(2.0)) <= 1e-12
            assert abs(ecm_loss(f_star, NEGATIVE, w).value - math.log(2.0)) <= 1e-12

    def test_bce_of_a_confidently_wrong_positive(self):
        eval_ = bce_loss(-3.0, POSITIVE)
        assert abs(eval_.value - 6.00247568513773) <= 1e-12
        assert abs(eval_.value - math.log1p(math.exp(6.0))) <= 1e-15

    def test_focal_loss_at_the_decision_boundary(self):
        value = focal_ecm_loss(0.0, POSITIVE, BALANCED).value
        assert abs(value - 0.04332169878499658) <= 1e-15
        assert abs(value - 0.0625 * math.log(2.0)) <= 1e-15

    def test_scaling_by_m_scales_value_and_grad(self):
        base = ecm_loss(0.7, NEGATIVE, SKEWED, m=1.0)
        doubled = ecm_loss(0.7, NEGATIVE, SKEWED, m=2.0)
        assert doubled.value == 2.0 * base.value
        assert doubled.grad_logit == 2.0 * base.grad_logit


class TestBceEquivalence:
    @pytest.mark.parametrize("f", [-8.0, -1.3, 0.0, 0.25, 5.0])
    @pytest.mark.parametrize("label", [POSITIVE, NEGATIVE])
    def test_equal_weights_reduce_ecm_to_bce_bitwise(self, f, label):
        ours = ecm_loss(f, label, BALANCED, m=1.0)
        plain = bce_loss(f, label)
        assert ours.value == plain.value
        assert ours.grad_logit == plain.grad_logit

    def test_any_equal_weight_pair_gives_the_same_kernel(self):
        for f in (-2.0, 0.5):
            a = ecm_loss(f, POSITIVE, MarginWeights(w_plus=2.0, w_minus=2.0))
            b = ecm_loss(f, POSITIVE, weights(Margins(gamma_plus=0.5, gamma_minus=0.5)))
            assert a.value == b.value


class TestGradients:
    @pytest.mark.parametrize("f", [-3.0, -0.7, 0.0, 0.4, 2.0])
    @pytest.mark.parametrize("label", [POSITIVE, NEGATIVE])
    @pytest.mark.parametrize("w", WEIGHT_CASES)
    def test_ecm_gradient_matches_central_difference(self, f, label, w):
        eval_ = ecm_loss(f, label, w, m=1.7)
        fd = central_difference(lambda x: ecm_loss(x, label, w, m=1.7), f)
        assert abs(eval_.grad_logit - fd) <= 1e-6 * max(1.0, abs(eval_.grad_logit))

    @pytest.mark.parametrize("f", [-3.0, -0.7, 0.0, 0.4, 2.0])
    @pytest.mark.parametrize("label", [POSITIVE, NEGATIVE])
    @pytest.mark.parametrize("gamma,alpha", [(2.0, 0.25), (0.5, 0.7), (0.0, 0.25)])
    def test_focal_gradient_matches_central_difference(self, f, label, gamma, alpha):
        def fn(x):
            return focal_ecm_loss(
                x, label, SKEWED, m=1.0, focal_gamma=gamma, focal_alpha=alpha
            )

        eval_ = fn(f)
        fd = central_difference(fn, f)
        assert abs(eval_.grad_logit - fd) <= 1e-6 * max(1.0, abs(eval_.grad_logit))

    @pytest.mark.parametrize("f", [-3.0, 0.0, 2.0])
    @pytest.mark.parametrize("label", [POSITIVE, NEGATIVE])
    def test_bce_gradient_matches_central_difference(self, f, label):
        eval_ = bce_loss(f, label)
        fd = central_difference(lambda x: bce_loss(x, label), f)
        assert abs(eval_.grad_logit - fd) <= 1e-6 * max(1.0, abs(eval_.grad_logit))

    @given(logits)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_gradient_signs_follow_the_label(self, f):
        assert ecm_loss(f, POSITIVE, SKEWED).grad_logit <= 0.0
        assert ecm_loss(f, NEGATIVE, SKEWED).grad_logit >= 0.0

    def test_zero_focal_gamma_recovers_a_scaled_ecm(self):
        for f in (-1.5, 0.0, 2.25):
            plain = ecm_loss(f, POSITIVE, SKEWED)
            focal = focal_ecm_loss(f, POSITIVE, SKEWED, focal_gamma=0.0, focal_alpha=0.25)
            assert focal.value == 0.25 * plain.value
            assert focal.grad_logit == 0.25 * plain.grad_logit


def reference_ecm_value_grad(z, positive, m):
    """The former two-branch form: both labels' logaddexp terms, one kept."""
    softplus_pos = np.logaddexp(0.0, -z)  # -ln s_hat
    softplus_neg = np.logaddexp(0.0, z)  # -ln (1 - s_hat)
    s = np.exp(-np.logaddexp(0.0, -z))
    one_minus_s = np.exp(-np.logaddexp(0.0, z))
    value = m * np.where(positive, softplus_pos, softplus_neg)
    grad = np.where(positive, -2.0 * m * one_minus_s, 2.0 * m * s)
    return value, grad


def reference_focal_value_grad(z, positive, m, gamma, alpha):
    """Focal closed forms per label: alpha (1-s)^g ecm+ and (1-alpha) s^g ecm-."""
    sp_pos = np.logaddexp(0.0, -z)
    sp_neg = np.logaddexp(0.0, z)
    s = np.exp(-np.logaddexp(0.0, -z))
    one_minus_s = np.exp(-np.logaddexp(0.0, z))
    mod_pos = alpha * np.exp(-gamma * sp_neg)
    mod_neg = (1.0 - alpha) * np.exp(-gamma * sp_pos)
    value = m * np.where(positive, mod_pos * sp_pos, mod_neg * sp_neg)
    grad_pos = -2.0 * m * mod_pos * (gamma * s * sp_pos + one_minus_s)
    grad_neg = 2.0 * m * mod_neg * (gamma * one_minus_s * sp_neg + s)
    return value, np.where(positive, grad_pos, grad_neg)


# both tails out to +-1e4, the +-50 saturation band, and the region near 0
Z_GRID = np.unique(
    np.concatenate(
        [
            np.linspace(-1e4, 1e4, 2001),
            np.linspace(-50.0, 50.0, 2001),
            np.linspace(-1.0, 1.0, 401),
            [-1e4, -50.0, -1e-300, -0.0, 0.0, 1e-300, 50.0, 1e4],
        ]
    )
)
# every 7th point for the focal kernel, whose reference needs one more exp per point
FOCAL_GRID = Z_GRID[::7]
FOCAL_PARAMS = [(2.0, 0.25), (0.5, 0.7), (0.0, 0.25), (3.7, 0.01)]
EXACT = decimal.Context(prec=400, Emin=-(10**6), Emax=10**6)


@functools.cache
def exact_tail(a: float) -> tuple[Decimal, Decimal]:
    """e^-a and softplus(-a) = ln(1 + e^-a) to 400 digits."""
    with decimal.localcontext(EXACT):
        e = Decimal(-a).exp()
        return e, (1 + e).ln()


def exact_log1pexp(t: float) -> tuple[Decimal, Decimal]:
    """softplus(t) = ln(1 + e^t) and sigmoid(t) = 1 / (1 + e^-t) to 400 digits."""
    e, softplus_neg_abs = exact_tail(abs(t))
    with decimal.localcontext(EXACT):
        if t >= 0:
            return Decimal(t) + softplus_neg_abs, 1 / (1 + e)
        return softplus_neg_abs, e / (1 + e)


@functools.cache
def exact_modulation(t: float, gamma: float) -> Decimal:
    """sigmoid(t)^gamma = exp(-gamma softplus(-t)) to 400 digits."""
    with decimal.localcontext(EXACT):
        return (-Decimal(gamma) * exact_log1pexp(-t)[0]).exp()


def exact_ecm(t, m):
    """|value| and |grad| of the ECM kernel at each signed logit t."""
    m = Decimal(m)
    with decimal.localcontext(EXACT):
        pairs = [exact_log1pexp(x) for x in t.tolist()]
        return [m * sp for sp, _ in pairs], [2 * m * sig for _, sig in pairs]


def exact_focal(t, m, gamma, a):
    """|value| and |grad| of the focal kernel at each signed logit t, a being
    the label's focal weight."""
    m, g, a = Decimal(m), Decimal(gamma), Decimal(a)
    values, grads = [], []
    with decimal.localcontext(EXACT):
        for x in t.tolist():
            sp, sig = exact_log1pexp(x)
            mod = a * exact_modulation(x, gamma)
            values.append(m * mod * sp)
            grads.append(2 * m * mod * (g * exact_log1pexp(-x)[1] * sp + sig))
    return values, grads


def ulps(got, exact) -> np.ndarray:
    """Distance in representable doubles from |got| to the double nearest the
    exact magnitude (float(Decimal) rounds correctly)."""
    want = np.array([float(x) for x in exact])
    return np.abs(np.abs(got).view(np.int64) - want.view(np.int64))


def signed_logit(label, z):
    positive = label == POSITIVE
    return positive, (-z if positive else z), (-1.0 if positive else 1.0)


class TestKernelsAreAccurate:
    """The log1pexp kernels against a 400-digit reference.  On Z_GRID the
    sigmoid is within 2 ulp and the softplus within 1 ulp, and each is at
    most 1 ulp behind the former two-branch logaddexp form at every point;
    the loss kernels allow for their further roundings, test by test."""

    def test_softplus_and_sigmoid(self):
        t = np.concatenate([Z_GRID, -Z_GRID])
        softplus, sigmoid, _, _ = _log1pexp(t)
        exact = [exact_log1pexp(x) for x in t.tolist()]
        err_softplus = ulps(softplus, [sp for sp, _ in exact])
        err_sigmoid = ulps(sigmoid, [sig for _, sig in exact])
        assert err_softplus.max() <= 1
        assert err_sigmoid.max() <= 2
        old_softplus = ulps(np.logaddexp(0.0, t), [sp for sp, _ in exact])
        old_sigmoid = ulps(np.exp(-np.logaddexp(0.0, -t)), [sig for _, sig in exact])
        assert np.all(err_softplus <= old_softplus + 1)
        assert np.all(err_sigmoid <= old_sigmoid + 1)

    @pytest.mark.parametrize("label", [POSITIVE, NEGATIVE])
    @pytest.mark.parametrize("m", [1.0, 0.37, 2.5, 1e-3])
    def test_ecm_kernel(self, label, m):
        positive, t, sign = signed_logit(label, Z_GRID)
        value, grad = _ecm_value_grad(Z_GRID, positive, m)
        want_value, want_grad = exact_ecm(t, m)
        assert np.all(sign * grad >= 0.0)
        # the product with m rounds once more, which can also part the two
        # forms by one more ulp at a point
        extra = 0 if m == 1.0 else 1
        err_value, err_grad = ulps(value, want_value), ulps(grad, want_grad)
        assert err_value.max() <= 1 + extra
        assert err_grad.max() <= 2 + extra
        old_value, old_grad = reference_ecm_value_grad(Z_GRID, positive, m)
        assert np.all(err_value <= ulps(old_value, want_value) + 1 + extra)
        assert np.all(err_grad <= ulps(old_grad, want_grad) + 1 + extra)

    @pytest.mark.parametrize("label", [POSITIVE, NEGATIVE])
    @pytest.mark.parametrize("gamma,alpha", FOCAL_PARAMS)
    def test_focal_kernel(self, label, gamma, alpha):
        """exp(-g softplus(-t)) turns the rounding of its argument into up to
        2 g softplus(-t) ulp of relative error, in either form; the budget
        adds 4 ulp for the remaining roundings.  Pointwise the two forms
        scatter inside that budget, so the former form is compared by its
        worst case."""
        positive, t, sign = signed_logit(label, FOCAL_GRID)
        value, grad = _focal_value_grad(FOCAL_GRID, positive, 1.7, gamma, alpha)
        a = alpha if positive else 1.0 - alpha
        want_value, want_grad = exact_focal(t, 1.7, gamma, a)
        assert np.all(sign * grad >= 0.0)
        budget = 4.0 + 2.0 * gamma * np.array([float(exact_log1pexp(-x)[0]) for x in t.tolist()])
        err_value, err_grad = ulps(value, want_value), ulps(grad, want_grad)
        assert np.all(err_value <= budget)
        assert np.all(err_grad <= budget)
        old_value, old_grad = reference_focal_value_grad(FOCAL_GRID, positive, 1.7, gamma, alpha)
        assert err_value.max() <= ulps(old_value, want_value).max() + 1
        assert err_grad.max() <= ulps(old_grad, want_grad).max() + 1

    @pytest.mark.parametrize("label", [POSITIVE, NEGATIVE])
    def test_scalar_api(self, label):
        """Equal weights shift nothing, so f = z/2 evaluates the kernels on
        the grid: value and grad of each loss within the array-path budgets."""
        positive, t, sign = signed_logit(label, FOCAL_GRID)
        for m in (1.0, 0.37):
            got = [ecm_loss(z / 2.0, label, BALANCED, m) for z in FOCAL_GRID.tolist()]
            want_value, want_grad = exact_ecm(t, m)
            assert ulps(np.array([e.value for e in got]), want_value).max() <= (1 if m == 1.0 else 2)
            assert ulps(np.array([e.grad_logit for e in got]), want_grad).max() <= (2 if m == 1.0 else 3)
        got = [bce_loss(z / 2.0, label) for z in FOCAL_GRID.tolist()]
        want_value, want_grad = exact_ecm(t, 1.0)
        assert ulps(np.array([e.value for e in got]), want_value).max() <= 1
        assert ulps(np.array([e.grad_logit for e in got]), want_grad).max() <= 2
        for gamma, alpha in FOCAL_PARAMS:
            got = [focal_ecm_loss(z / 2.0, label, BALANCED, 1.7, gamma, alpha) for z in FOCAL_GRID.tolist()]
            a = alpha if positive else 1.0 - alpha
            want_value, want_grad = exact_focal(t, 1.7, gamma, a)
            budget = 4.0 + 2.0 * gamma * np.array([float(exact_log1pexp(-x)[0]) for x in t.tolist()])
            assert np.all(ulps(np.array([e.value for e in got]), want_value) <= budget)
            assert np.all(ulps(np.array([e.grad_logit for e in got]), want_grad) <= budget)
            assert all(sign * e.grad_logit >= 0.0 for e in got)

    @pytest.mark.parametrize("w", WEIGHT_CASES)
    def test_scalar_api_is_the_array_kernel(self, w):
        shift = log_weight_ratio(w)
        for f in FOCAL_GRID.tolist() + [-5e3, 5e3, -25.0, 25.0]:
            z = 2.0 * f - shift
            for label in (POSITIVE, NEGATIVE):
                positive = label == POSITIVE
                ours = ecm_loss(f, label, w, 0.37)
                assert (ours.value, ours.grad_logit) == tuple(map(float, _ecm_value_grad(z, positive, 0.37)))
                ours = focal_ecm_loss(f, label, w, 1.7, 3.7, 0.01)
                want = _focal_value_grad(z, positive, 1.7, 3.7, 0.01)
                assert (ours.value, ours.grad_logit) == tuple(map(float, want))


class TestStability:
    @pytest.mark.parametrize("f", [-1e4, -50.0, 50.0, 1e4])
    @pytest.mark.parametrize("label", [POSITIVE, NEGATIVE])
    def test_saturated_logits_stay_finite(self, f, label):
        for eval_ in (
            ecm_loss(f, label, SKEWED, m=3.0),
            focal_ecm_loss(f, label, SKEWED),
            bce_loss(f, label),
        ):
            assert math.isfinite(eval_.value)
            assert math.isfinite(eval_.grad_logit)
            assert eval_.value >= 0.0

    def test_deep_saturation_limits(self):
        confident = ecm_loss(1e4, POSITIVE, BALANCED)
        assert confident.value == 0.0
        assert confident.grad_logit == 0.0
        wrong = ecm_loss(-1e4, POSITIVE, BALANCED, m=1.5)
        assert abs(wrong.grad_logit - (-3.0)) <= 1e-12
        assert wrong.value >= 2.0 * 1.5 * 1e4 - 1.0

    @given(logits, logits)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_convexity_in_the_logit(self, a, b):
        for label in (POSITIVE, NEGATIVE):
            mid = ecm_loss(0.5 * (a + b), label, SKEWED).value
            chord = 0.5 * (
                ecm_loss(a, label, SKEWED).value + ecm_loss(b, label, SKEWED).value
            )
            assert mid <= chord + 1e-12


class TestSurrogateScore:
    def test_crosses_one_half_at_the_decision_logit(self):
        for w in WEIGHT_CASES:
            assert surrogate_score(decision_logit(w), w) == 0.5

    @given(logits, logits)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_strictly_increasing_in_the_logit(self, a, b):
        if a == b:
            return
        lo, hi = sorted((a, b))
        assert surrogate_score(lo, SKEWED) <= surrogate_score(hi, SKEWED)

    @given(logits)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_stays_inside_the_open_unit_interval(self, f):
        s = surrogate_score(f, SKEWED)
        assert 0.0 <= s <= 1.0

    def test_log_weight_ratio_of_the_exact_case(self):
        assert abs(log_weight_ratio(SKEWED) - math.log(1.5)) <= 1e-12


class TestMarginError:
    def test_positive_side_violation_rule(self):
        assert margin_error(0.7, 0.6, POSITIVE) == 0
        assert margin_error(0.5, 0.6, POSITIVE) == 1
        assert margin_error(0.6, 0.6, POSITIVE) == 1

    def test_negative_side_uses_the_complement_score(self):
        assert margin_error(0.7, 0.4, NEGATIVE) == 1
        assert margin_error(0.2, 0.4, NEGATIVE) == 0
        assert margin_error(0.6, 0.4, NEGATIVE) == 1

    @pytest.mark.parametrize("score", [-0.1, 1.1])
    def test_score_outside_unit_interval_rejected(self, score):
        with pytest.raises(ValidationError, match="score"):
            margin_error(score, 0.5, POSITIVE)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.5])
    def test_gamma_outside_open_interval_rejected(self, gamma):
        with pytest.raises(ValidationError, match="gamma"):
            margin_error(0.5, gamma, POSITIVE)


class TestValidation:
    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError, match="label"):
            ecm_loss(0.0, "pos", SKEWED)
        with pytest.raises(ValidationError, match="label"):
            bce_loss(0.0, "neg")

    @pytest.mark.parametrize("f", [math.inf, -math.inf, math.nan])
    def test_non_finite_logit_rejected(self, f):
        with pytest.raises(ValidationError, match="finite"):
            ecm_loss(f, POSITIVE, SKEWED)

    @pytest.mark.parametrize("m", [0.0, -1.0])
    def test_nonpositive_m_rejected(self, m):
        with pytest.raises(ValidationError, match="m must"):
            ecm_loss(0.0, POSITIVE, SKEWED, m=m)
        with pytest.raises(ValidationError, match="m must"):
            focal_ecm_loss(0.0, POSITIVE, SKEWED, m=m)

    def test_bad_focal_parameters_rejected(self):
        with pytest.raises(ValidationError, match="focal_gamma"):
            focal_ecm_loss(0.0, POSITIVE, SKEWED, focal_gamma=-1.0)
        with pytest.raises(ValidationError, match="focal_alpha"):
            focal_ecm_loss(0.0, POSITIVE, SKEWED, focal_alpha=0.0)
        with pytest.raises(ValidationError, match="focal_alpha"):
            focal_ecm_loss(0.0, POSITIVE, SKEWED, focal_alpha=1.0)

    def test_negative_loss_value_rejected(self):
        with pytest.raises(ValidationError, match="loss value"):
            LossEval(value=-0.5, grad_logit=0.0)
