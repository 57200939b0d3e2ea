import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecmargin import (
    ClassStats,
    Margins,
    MarginWeights,
    ValidationError,
    decision_logit,
    margins_grid_oracle,
    optimal_margins,
    weights,
)
from ecmargin.margins import _margin_objective

counts = st.integers(min_value=1, max_value=10**6)


def stats(n_plus, n_minus):
    return ClassStats(n_plus=n_plus, n_minus=n_minus, alpha=n_minus / n_plus)


def reference_grid_gamma(s, step):
    """The per-point loop: the first strict minimum over k * step, k = 1, 2, ...
    while k * step < 1."""
    best_gamma, best_value = None, math.inf
    k = 1
    while (gamma := k * step) < 1.0:
        value = (1.0 / gamma) / math.sqrt(s.n_plus) + (1.0 / (1.0 - gamma)) / math.sqrt(
            s.n_minus
        )
        if value < best_value:
            best_gamma, best_value = gamma, value
        k += 1
    return best_gamma


class TestOptimalMargins:
    def test_fourth_power_counts_give_exact_margins(self):
        m = optimal_margins(stats(16, 81))
        assert m.gamma_plus == 0.6
        assert m.gamma_minus == 0.4

    def test_balanced_counts_split_evenly(self):
        m = optimal_margins(stats(500, 500))
        assert m.gamma_plus == 0.5
        assert m.gamma_minus == 0.5

    def test_rare_class_gets_the_larger_margin(self):
        m = optimal_margins(stats(10, 10000))
        assert m.gamma_plus > m.gamma_minus

    @pytest.mark.parametrize(
        "n_plus,n_minus", [(16, 10**66), (10**70, 1)], ids=["rare", "frequent"]
    )
    def test_counts_too_far_apart_rejected(self, n_plus, n_minus):
        # a fourth-root ratio past 2^53 rounds one margin to 1
        with pytest.raises(ValidationError, match="margins are not representable"):
            optimal_margins(stats(n_plus, n_minus))

    @given(counts, counts)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_margins_complement_each_other(self, n_plus, n_minus):
        m = optimal_margins(stats(n_plus, n_minus))
        assert 0.0 < m.gamma_plus < 1.0
        assert abs(m.gamma_plus + m.gamma_minus - 1.0) <= 1e-12

    @given(counts, counts)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_scaling_both_counts_by_sixteen_changes_nothing(self, n_plus, n_minus):
        m = optimal_margins(stats(n_plus, n_minus))
        scaled = optimal_margins(stats(16 * n_plus, 16 * n_minus))
        assert scaled.gamma_plus == m.gamma_plus
        assert scaled.gamma_minus == m.gamma_minus

    @given(counts, counts)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_swapping_counts_swaps_margins(self, n_plus, n_minus):
        m = optimal_margins(stats(n_plus, n_minus))
        swapped = optimal_margins(stats(n_minus, n_plus))
        assert swapped.gamma_plus == m.gamma_minus
        assert swapped.gamma_minus == m.gamma_plus


class TestObjective:
    def test_closed_form_is_the_minimizer(self):
        s = stats(37, 2911)
        best = optimal_margins(s).gamma_plus
        at_best = _margin_objective(best, s)
        for gamma in (0.05, 0.2, best - 1e-4, best + 1e-4, 0.9, 0.99):
            assert at_best <= _margin_objective(gamma, s) + 1e-15

    @given(
        counts,
        counts,
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_convexity_by_midpoint_chord(self, n_plus, n_minus, a, b):
        s = stats(n_plus, n_minus)
        mid = 0.5 * (a + b)
        chord = 0.5 * (_margin_objective(a, s) + _margin_objective(b, s))
        assert _margin_objective(mid, s) <= chord + 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.1, 1.5, 0, math.nan])
    def test_gamma_outside_open_interval_rejected(self, gamma):
        with pytest.raises(ValidationError) as scalar:
            _margin_objective(gamma, stats(4, 9))
        assert str(scalar.value) == f"gamma_plus must lie strictly inside (0,1), got {gamma}"
        # an array names its first bad element, as a float
        with pytest.raises(ValidationError) as array:
            _margin_objective([0.5, gamma, 2.0], stats(4, 9))
        assert str(array.value) == f"gamma_plus must lie strictly inside (0,1), got {float(gamma)}"

    def test_array_of_gamma_is_the_per_point_objective(self):
        s = stats(37, 2911)
        gammas = np.array([1e-9, 0.05, 0.3, 0.5, 0.77, 1.0 - 1e-12])
        values = _margin_objective(gammas, s)
        assert values.dtype == np.float64
        assert values.tolist() == [_margin_objective(float(g), s) for g in gammas]
        assert type(_margin_objective(0.3, s)) is float


class TestGridOracle:
    @pytest.mark.parametrize(
        "n_plus,n_minus", [(16, 81), (1, 1), (3, 100000), (4607, 146), (250, 250)]
    )
    def test_grid_argmin_lands_within_one_step_of_the_closed_form(
        self, n_plus, n_minus
    ):
        s = stats(n_plus, n_minus)
        step = 1e-3
        oracle = margins_grid_oracle(s, step)
        assert abs(oracle.gamma_plus - optimal_margins(s).gamma_plus) <= step + 1e-12

    def test_grid_value_never_beats_the_closed_form_by_much(self):
        s = stats(29, 4713)
        step = 1e-3
        oracle = margins_grid_oracle(s, step)
        assert _margin_objective(optimal_margins(s).gamma_plus, s) <= _margin_objective(
            oracle.gamma_plus, s
        )

    @pytest.mark.parametrize("step", [1e-2, 7e-3, 1e-3, 3e-4, 1.0 / 3000.0, 1e-4])
    def test_same_gamma_as_the_per_point_loop(self, step):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            n_plus, n_minus = (int(x) for x in np.exp(rng.uniform(0.0, math.log(1e12), size=2)))
            s = stats(n_plus, n_minus)
            assert margins_grid_oracle(s, step).gamma_plus == reference_grid_gamma(s, step)

    def test_a_tie_goes_to_the_first_grid_point(self):
        # equal counts make the objective symmetric about 1/2, and on the grid
        # of step 1/101 the points 50/101 and 51/101 round to the same value
        s, step = stats(9, 9), 1.0 / 101.0
        first, second = 50 * step, 51 * step
        assert _margin_objective(first, s) == _margin_objective(second, s)
        assert margins_grid_oracle(s, step).gamma_plus == first == reference_grid_gamma(s, step)

    # below 1e-6 the grid would pass 10^6 points; 5e-324 makes 1/step inf
    @pytest.mark.parametrize("step", [0.0, -1e-3, 0.011, 1.0, math.nan, 9.99e-7, 1e-20, 5e-324])
    def test_bad_step_rejected(self, step):
        with pytest.raises(ValidationError, match="step"):
            margins_grid_oracle(stats(4, 9), step)


class TestWeights:
    def test_reciprocals_of_the_exact_case(self):
        w = weights(Margins(gamma_plus=0.6, gamma_minus=0.4))
        assert w.w_plus == 1.0 / 0.6
        assert w.w_minus == 2.5

    @given(counts, counts)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_plain_sigmoid_at_the_decision_logit_recovers_gamma_plus(
        self, n_plus, n_minus
    ):
        m = optimal_margins(stats(n_plus, n_minus))
        w = weights(m)
        f_star = decision_logit(w)
        plain = 1.0 / (1.0 + math.exp(-2.0 * f_star))
        assert abs(plain - m.gamma_plus) <= 1e-12

    def test_balanced_weights_have_zero_decision_logit(self):
        w = weights(Margins(gamma_plus=0.5, gamma_minus=0.5))
        assert decision_logit(w) == 0.0


class TestValidation:
    def test_margins_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            Margins(gamma_plus=0.7, gamma_minus=0.7)

    @pytest.mark.parametrize(
        "gp,gm", [(0.0, 1.0), (1.0, 0.0), (-0.2, 1.2), (1.2, -0.2)]
    )
    def test_margins_must_lie_strictly_inside_unit_interval(self, gp, gm):
        with pytest.raises(ValidationError, match="lie in"):
            Margins(gamma_plus=gp, gamma_minus=gm)

    def test_weights_must_both_exceed_one(self):
        with pytest.raises(ValidationError, match="exceed 1"):
            MarginWeights(w_plus=1.0, w_minus=2.0)

    def test_weight_reciprocals_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="reciprocals"):
            MarginWeights(w_plus=2.0, w_minus=3.0)

    def test_consistent_weights_accepted(self):
        w = MarginWeights(w_plus=3.0, w_minus=1.5)
        assert w.w_plus == 3.0
