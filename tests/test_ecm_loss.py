import math

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
from ecmargin.ecm_loss import _ecm_value_grad, _focal_value_grad

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
    """Per-label closed forms: both branches evaluated, one kept by label."""
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
FOCAL_PARAMS = [(2.0, 0.25), (0.5, 0.7), (0.0, 0.25), (3.7, 0.01)]


def assert_bitwise(ours, reference):
    for got, want in zip(ours, reference):
        assert np.array_equal(got, want)


class TestKernelsMatchTheTwoBranchReference:
    """The kernels reproduce the per-label closed forms bit for bit."""

    def grid(self):
        # every z once per label, as a column against a row of margins m
        z = np.concatenate([Z_GRID, Z_GRID])[:, None]
        positive = np.repeat([True, False], Z_GRID.size)[:, None]
        return z, positive, np.array([1.0, 0.37, 2.5, 1e-3])

    def test_ecm_array_path(self):
        z, positive, m = self.grid()
        assert_bitwise(
            _ecm_value_grad(z, positive, m), reference_ecm_value_grad(z, positive, m)
        )
        assert_bitwise(
            _ecm_value_grad(z, positive, 1.0), reference_ecm_value_grad(z, positive, 1.0)
        )

    @pytest.mark.parametrize("gamma,alpha", FOCAL_PARAMS)
    def test_focal_array_path(self, gamma, alpha):
        z, positive, m = self.grid()
        assert_bitwise(
            _focal_value_grad(z, positive, m, gamma, alpha),
            reference_focal_value_grad(z, positive, m, gamma, alpha),
        )

    @pytest.mark.parametrize("label", [POSITIVE, NEGATIVE])
    @pytest.mark.parametrize("w", [BALANCED, SKEWED])
    def test_scalar_api(self, label, w):
        positive = label == POSITIVE
        shift = log_weight_ratio(w)
        for f in Z_GRID[::7].tolist() + [-5e3, 5e3, -25.0, 25.0]:
            z = 2.0 * f - shift
            for m in (1.0, 0.37):
                ours = ecm_loss(f, label, w, m)
                want = reference_ecm_value_grad(z, positive, m)
                assert (ours.value, ours.grad_logit) == tuple(map(float, want))
            for gamma, alpha in FOCAL_PARAMS:
                ours = focal_ecm_loss(f, label, w, 1.7, gamma, alpha)
                want = reference_focal_value_grad(z, positive, 1.7, gamma, alpha)
                assert (ours.value, ours.grad_logit) == tuple(map(float, want))
            ours = bce_loss(f, label)
            want = reference_ecm_value_grad(2.0 * f, positive, 1.0)
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
