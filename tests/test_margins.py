import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecmargin import (
    ClassStats,
    Margins,
    MarginWeights,
    ValidationError,
    decision_logit,
    margin_objective,
    margins_grid_oracle,
    optimal_margins,
    weights,
)

counts = st.integers(min_value=1, max_value=10**6)


def stats(n_plus, n_minus):
    return ClassStats(n_plus=n_plus, n_minus=n_minus, alpha=n_minus / n_plus)


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
        at_best = margin_objective(best, s)
        for gamma in (0.05, 0.2, best - 1e-4, best + 1e-4, 0.9, 0.99):
            assert at_best <= margin_objective(gamma, s) + 1e-15

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
        chord = 0.5 * (margin_objective(a, s) + margin_objective(b, s))
        assert margin_objective(mid, s) <= chord + 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.1, 1.5])
    def test_gamma_outside_open_interval_rejected(self, gamma):
        with pytest.raises(ValidationError, match="gamma_plus"):
            margin_objective(gamma, stats(4, 9))


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
        assert margin_objective(optimal_margins(s).gamma_plus, s) <= margin_objective(
            oracle.gamma_plus, s
        )

    @pytest.mark.parametrize("step", [0.0, -1e-3, 0.011, 1.0])
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
