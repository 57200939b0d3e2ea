import dataclasses
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecmargin import (
    BoundEnvelope,
    ScoreSet,
    ValidationError,
    analytic_min_feasible,
    ap_lower,
    ap_lower_branches,
    ap_upper,
    audit,
    average_precision,
    binary_bound_check,
    envelope,
    ranking_error,
    slope_m,
    variational_max_oracle,
    variational_min_oracle,
)
from ecmargin.bounds import (
    SLOPE_MODES,
    _GFunction,
    _analytic_min_gmax,
    _best_disjoint_pair,
    _grid_midpoints,
    _kkt_grid,
)
from ecmargin.metrics import _precisions

alphas = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)
errors = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

# alphas where 1 + alpha rounds to 1, 1/alpha overflows or 2*alpha overflows
EXTREME_ALPHAS = [5e-324, 1e-300, 1e-16, 1.7e308]


def reference_meet_radius(alpha: float) -> float:
    """Crossing of the two det-error upper-bound branches by bisection: the
    root of sqrt(2 a R / 3) = 1 - (8/9)/(1+2 a R) on (0, 1] to 1e-12, or
    R = 1 when the branches do not cross inside the domain."""

    def h(r: float) -> float:
        return math.sqrt(2.0 * alpha * r / 3.0) - 1.0 + (8.0 / 9.0) / (1.0 + 2.0 * alpha * r)

    lo, hi = 0.0, 1.0
    if h(hi) <= 0.0:
        return 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if h(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_meet_slope(alpha: float) -> float:
    r_star = reference_meet_radius(alpha)
    raw = (1.0 - ap_lower(alpha, r_star)) / r_star
    return min(max(raw, slope_m(alpha, "lower")), slope_m(alpha, "upper"))


class TestClosedForms:
    def test_upper_at_half(self):
        assert ap_upper(1.0, 0.5) == 1.0 + math.log1p(-0.25)

    def test_lower_at_half(self):
        assert ap_lower(1.0, 0.5) == (8.0 / 9.0) / 2.0

    def test_perfect_ranking_pins_both_bounds_at_one(self):
        for alpha in (0.01, 1.0, 42.0):
            assert ap_upper(alpha, 0.0) == 1.0
            assert ap_lower(alpha, 0.0) == 1.0

    @pytest.mark.parametrize("alpha", [0.2, 1.0, 7.0, 503.0])
    def test_lower_branches_meet_at_two_thirds(self, alpha):
        r = 1.0 / (6.0 * alpha)
        b1, b2 = ap_lower_branches(alpha, r)
        assert abs(b1 - 2.0 / 3.0) <= 1e-12
        assert abs(b2 - 2.0 / 3.0) <= 1e-12
        assert ap_lower(alpha, r) == max(b1, b2)

    def test_sqrt_branch_rules_small_r_rational_rules_large_r(self):
        small = ap_lower_branches(1.0, 0.01)
        large = ap_lower_branches(1.0, 0.9)
        assert small[0] > small[1]
        assert large[1] > large[0]

    @given(alphas, errors)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_sandwich_order(self, alpha, r):
        assert ap_lower(alpha, r) <= ap_upper(alpha, r) + 1e-12

    @given(alphas, errors, errors)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_bounds_decrease_with_ranking_error(self, alpha, r1, r2):
        lo, hi = sorted((r1, r2))
        assert ap_upper(alpha, lo) >= ap_upper(alpha, hi) - 1e-15
        assert ap_lower(alpha, lo) >= ap_lower(alpha, hi) - 1e-15

    @given(alphas, errors)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_bounds_stay_in_unit_interval_range(self, alpha, r):
        assert ap_upper(alpha, r) <= 1.0
        assert ap_lower(alpha, r) > 0.0

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValidationError, match="alpha"):
            ap_upper(alpha, 0.5)
        with pytest.raises(ValidationError, match="alpha"):
            ap_lower(alpha, 0.5)

    @pytest.mark.parametrize("r", [-0.1, 1.5, math.nan])
    def test_bad_ranking_error_rejected(self, r):
        with pytest.raises(ValidationError, match="ranking error"):
            ap_upper(1.0, r)


def reference_ap_upper(alpha: float, r: float) -> float:
    """1 + alpha*ln(1 - r/(1+alpha)) in 700-digit decimal arithmetic.

    Rounding 1 - r/(1+alpha) costs 10^-700 absolutely, which alpha scales up
    and a result as small as 1/(2 alpha) divides, so the relative error is
    about 2 alpha^2 10^-700: below 1e-80 for every finite alpha."""
    with localcontext() as ctx:
        ctx.prec = 700
        a = Decimal(alpha)
        return float(1 + a * (1 - Decimal(r) / (1 + a)).ln())


class TestUpperBoundAtLargeAlpha:
    """From alpha = 1e4 on ap_upper sums the log1p series instead of
    cancelling 1 against alpha*log1p, which lost digits in proportion to alpha."""

    def test_matches_a_decimal_reference(self):
        rng = np.random.default_rng(20261018)
        alphas = np.exp(rng.uniform(math.log(1e4), math.log(1.7e308), size=300))
        rs = [1.0, 0.5, 1.0 - 1e-9, 1e-9, *rng.random(6)]
        for alpha in (1e4, 1e8, 1e12, 1e15, 1e16, 1e100, 1e300, 1.7e308, *alphas):
            for r in rs:
                want = reference_ap_upper(alpha, r)
                # relative to the value, or a few units of the last place of a subnormal
                assert abs(ap_upper(alpha, r) - want) <= 4 * math.ulp(want), (alpha, r)

    @pytest.mark.parametrize("alpha", [1e12, 1e15, 1e16, 1e100, 1e300, 1.7e308])
    def test_sandwich_order_is_exact_at_full_ranking_error(self, alpha):
        assert 0.0 <= ap_lower(alpha, 1.0) <= ap_upper(alpha, 1.0)
        assert ap_upper(alpha, 1.0) > 0.0

    def test_alphas_below_the_switch_keep_the_log1p_form(self):
        for alpha in (0.05, 3.0, 1000.0, 9999.0):
            for r in (0.0, 0.3, 1.0):
                assert ap_upper(alpha, r) == 1.0 + alpha * math.log1p(-r / (1.0 + alpha))


class TestEnvelope:
    def test_detection_bounds_complement_ap_bounds_exactly(self):
        env = envelope(3.0, 0.2)
        assert env.det_lower == 1.0 - env.ap_upper
        assert env.det_upper == 1.0 - env.ap_lower
        assert env.ap_lower == ap_lower(3.0, 0.2)
        assert env.ap_upper == ap_upper(3.0, 0.2)

    def test_default_mode_is_upper(self):
        env = envelope(2.0, 0.1)
        assert env.slope_mode == "upper"
        assert env.slope_m == slope_m(2.0, "upper")

    @pytest.mark.parametrize("mode", ["unit", "lower", "upper", "meet"])
    def test_each_slope_mode_assembles(self, mode):
        env = envelope(1.5, 0.3, mode=mode)
        assert env.slope_m == slope_m(1.5, mode)

    def test_inconsistent_fields_rejected(self):
        good = envelope(1.0, 0.5)
        with pytest.raises(ValidationError, match="exceeds"):
            BoundEnvelope(
                alpha=1.0,
                ranking_error=0.5,
                ap_lower=good.ap_upper + 0.1,
                ap_upper=good.ap_upper,
                det_lower=1.0 - good.ap_upper,
                det_upper=1.0 - good.ap_upper - 0.1,
                slope_m=1.0,
                slope_mode="unit",
            )
        with pytest.raises(ValidationError, match="complement"):
            BoundEnvelope(
                alpha=1.0,
                ranking_error=0.5,
                ap_lower=good.ap_lower,
                ap_upper=good.ap_upper,
                det_lower=0.0,
                det_upper=1.0,
                slope_m=1.0,
                slope_mode="unit",
            )
        with pytest.raises(ValidationError, match="slope_m"):
            BoundEnvelope(
                alpha=1.0,
                ranking_error=0.5,
                ap_lower=good.ap_lower,
                ap_upper=good.ap_upper,
                det_lower=good.det_lower,
                det_upper=good.det_upper,
                slope_m=0.0,
                slope_mode="unit",
            )
        with pytest.raises(ValidationError, match="slope_mode"):
            BoundEnvelope(
                alpha=1.0,
                ranking_error=0.5,
                ap_lower=good.ap_lower,
                ap_upper=good.ap_upper,
                det_lower=good.det_lower,
                det_upper=good.det_upper,
                slope_m=1.0,
                slope_mode="chord",
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError, match="mode"):
            envelope(1.0, 0.5, mode="chord")

    @pytest.mark.parametrize("mode", SLOPE_MODES)
    def test_array_envelope_is_the_per_point_envelope_bit_for_bit(self, mode):
        column = np.array([5e-324, 1e-16, 0.05, 1.0, 3.0, 9999.0, 1e4, 2e5, 1.7e308])[:, None]
        row = np.array([0.0, 1e-9, 0.2, 1.0 / 6.0, 0.5, 0.999, 1.0])
        env = envelope(column, row, mode)
        assert env.slope_mode == mode
        names = [f.name for f in dataclasses.fields(BoundEnvelope) if f.name != "slope_mode"]
        assert len(names) == 7
        for name in names:
            value = getattr(env, name)
            assert value.shape == (column.size, row.size) and value.dtype == np.float64
            for i, alpha in enumerate(column[:, 0]):
                for j, r in enumerate(row):
                    point = getattr(envelope(float(alpha), float(r), mode), name)
                    assert type(point) is float
                    assert value[i, j].tobytes() == np.float64(point).tobytes(), (name, alpha, r)

    def test_array_envelope_takes_lists_and_broadcasts_a_scalar(self):
        env = envelope(3, [0, 1])
        assert env.alpha.tolist() == [3.0, 3.0] and env.ranking_error.tolist() == [0.0, 1.0]
        assert env.ap_upper.tolist() == [envelope(3.0, 0.0).ap_upper, envelope(3.0, 1.0).ap_upper]

    @pytest.mark.parametrize(
        "alpha,r,bad_alpha,bad_r",
        [
            ([1.0, 2.0, 3.0], [0.5, 1.5, -0.5], 2.0, 1.5),
            ([1.0, -1.0], 0.5, -1.0, 0.5),
            ([1.0, math.nan], 0.5, math.nan, 0.5),
            (2.0, [0.1, math.nan, 0.3], 2.0, math.nan),
            ([[1.0], [math.inf]], [0.0, 1.0], math.inf, 0.0),
        ],
    )
    def test_a_bad_element_raises_the_scalar_error(self, alpha, r, bad_alpha, bad_r):
        with pytest.raises(ValidationError) as scalar:
            envelope(bad_alpha, bad_r)
        with pytest.raises(ValidationError) as array:
            envelope(alpha, r)
        assert str(array.value) == str(scalar.value)

    def test_array_fields_name_the_first_offending_element(self):
        lo = np.array([0.2, 0.7, 0.9])
        hi = np.array([0.5, 0.6, 0.8])
        with pytest.raises(ValidationError, match=r"^ap_lower 0\.7 exceeds ap_upper 0\.6$"):
            BoundEnvelope(1.0, 0.5, lo, hi, 1.0 - hi, 1.0 - lo, 1.0, "unit")
        hi = np.array([0.5, 0.8, 0.95])
        with pytest.raises(ValidationError, match="complement"):
            BoundEnvelope(1.0, 0.5, lo, hi, 1.0 - hi, np.array([0.8, 0.3, 0.2]), 1.0, "unit")
        with pytest.raises(ValidationError, match=r"^slope_m must be positive, got nan$"):
            BoundEnvelope(
                1.0, 0.5, lo, hi, 1.0 - hi, 1.0 - lo, np.array([1.0, math.nan, 0.0]), "unit"
            )


class TestSlope:
    def test_unit_mode(self):
        for alpha in (0.001, 1.0, 1e6):
            assert slope_m(alpha, "unit") == 1.0

    def test_lower_mode_balanced(self):
        assert slope_m(1.0, "lower") == math.log1p(1.0)
        assert abs(slope_m(1.0, "lower") - math.log(2.0)) <= 1e-15

    def test_upper_mode_balanced(self):
        assert slope_m(1.0, "upper") == (1.0 / 9.0 + 2.0) / 3.0
        assert abs(slope_m(1.0, "upper") - 19.0 / 27.0) <= 1e-15

    def test_meet_stays_inside_bracket(self):
        grid = [*np.logspace(-3, 6, 300), *EXTREME_ALPHAS]
        for alpha in grid:
            lo = slope_m(alpha, "lower")
            mid = slope_m(alpha, "meet")
            hi = slope_m(alpha, "upper")
            assert 0.0 < lo <= mid <= hi <= 1.0
            assert lo <= hi

    def test_all_proper_modes_approach_one_at_large_alpha(self):
        for mode in ("lower", "upper", "meet"):
            value = slope_m(1e6, mode)
            assert 1.0 - 1e-5 <= value <= 1.0

    def test_small_alpha_meet_is_the_full_range_chord(self):
        # the branches never cross inside (0,1], so the chord runs to r=1
        alpha = 0.1
        expected = math.sqrt(2.0 * alpha / 3.0)
        assert abs(slope_m(alpha, "meet") - expected) <= 1e-15

    def test_bad_mode(self):
        with pytest.raises(ValidationError, match="mode"):
            slope_m(1.0, "chord")


class TestClosedFormMeetPoint:
    # h(R) behaves like (3 sqrt(2 alpha R / 3) - 1)^3 near its root, so it is
    # flat there and the bisection's radius is noisy for alpha near 1/6
    WINDOW = (1.0 / 6.0 * (1.0 - 2e-5), 1.0 / 6.0 * (1.0 + 2e-5))

    def test_matches_the_bisection_exactly_away_from_one_sixth(self):
        rng = np.random.default_rng(20240611)
        sample = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), size=20000))
        lo, hi = self.WINDOW
        sample = sample[(sample < lo) | (sample > hi)]
        got = slope_m(sample, "meet")
        expected = np.array([reference_meet_slope(float(a)) for a in sample])
        assert np.array_equal(got, expected)

    def test_matches_the_bisection_within_2_3e_16_near_one_sixth(self):
        window = np.linspace(*self.WINDOW, 2001)
        got = slope_m(window, "meet")
        expected = np.array([reference_meet_slope(float(a)) for a in window])
        assert np.max(np.abs(got - expected)) <= 2.3e-16


class TestArrayArguments:
    ALPHAS = np.array([*EXTREME_ALPHAS, 1e-3, 0.1, 1.0 / 6.0, 1.0, 42.0, 1e6, 1e15])
    RS = np.array([0.0, 1e-300, 0.01, 0.3, 0.5, 1.0 - 2.0**-53, 1.0])

    @pytest.mark.parametrize("bound", [ap_upper, ap_lower])
    def test_bounds_equal_the_scalar_calls_elementwise(self, bound):
        got = bound(self.ALPHAS[:, None], self.RS)
        expected = np.array([[bound(float(a), float(r)) for r in self.RS] for a in self.ALPHAS])
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)

    def test_branches_equal_the_scalar_calls_elementwise(self):
        b1, b2 = ap_lower_branches(self.ALPHAS[:, None], self.RS)
        pairs = [[ap_lower_branches(float(a), float(r)) for r in self.RS] for a in self.ALPHAS]
        assert b1.dtype == b2.dtype == np.float64
        assert np.array_equal(b1, np.array([[p[0] for p in row] for row in pairs]))
        assert np.array_equal(b2, np.array([[p[1] for p in row] for row in pairs]))

    @pytest.mark.parametrize("mode", ["unit", "lower", "upper", "meet"])
    def test_slopes_equal_the_scalar_calls_elementwise(self, mode):
        got = slope_m(self.ALPHAS, mode)
        assert got.dtype == np.float64
        assert np.array_equal(got, [slope_m(float(a), mode) for a in self.ALPHAS])

    def test_scalars_give_python_floats_and_lists_give_arrays(self):
        assert type(ap_upper(np.float64(2.0), 0.5)) is float
        assert type(slope_m(np.array(2.0), "meet")) is float
        assert all(type(b) is float for b in ap_lower_branches(2.0, 0.5))
        assert ap_lower([1.0, 2.0], 0.5).shape == (2,)
        assert slope_m([], "upper").shape == (0,)

    @pytest.mark.parametrize(
        "call,scalar",
        [
            (lambda: ap_upper(np.array([1.0, -1.0, 2.0]), 0.5), lambda: ap_upper(-1.0, 0.5)),
            (lambda: ap_lower(np.array([1.0, math.inf]), 0.5), lambda: ap_lower(math.inf, 0.5)),
            (lambda: ap_lower_branches(1.0, np.array([0.0, 1.5])), lambda: ap_lower_branches(1.0, 1.5)),
            (lambda: ap_upper(2.0, np.array([0.5, math.nan])), lambda: ap_upper(2.0, math.nan)),
            (lambda: slope_m(np.array([1.0, 0.0]), "meet"), lambda: slope_m(0.0, "meet")),
            (lambda: slope_m(np.array([1.0, 2.0]), "chord"), lambda: slope_m(1.0, "chord")),
        ],
        ids=["negative-alpha", "infinite-alpha", "r-above-one", "nan-r", "zero-alpha", "bad-mode"],
    )
    def test_a_bad_element_raises_the_scalar_message(self, call, scalar):
        with pytest.raises(ValidationError) as scalar_error:
            scalar()
        with pytest.raises(ValidationError) as array_error:
            call()
        assert str(array_error.value) == str(scalar_error.value)


class TestBinaryBound:
    def test_holds_on_random_sets_at_many_thresholds(self, rng):
        for _ in range(20):
            s = ScoreSet(
                positives=rng.beta(4.0, 2.0, size=50),
                negatives=rng.beta(2.0, 4.0, size=200),
            )
            thresholds = np.concatenate(
                [s.positives, s.negatives, [-1.0, 0.0, 0.5, 1.0, 2.0]]
            )
            for t in thresholds:
                rhs, holds = binary_bound_check(s, float(t))
                assert holds
                assert rhs >= 0.0

    def test_separable_set_admits_a_zero_rhs_threshold(self):
        s = ScoreSet(positives=[0.8, 0.9, 0.95], negatives=[0.1, 0.2, 0.3])
        rhs, holds = binary_bound_check(s, 0.5)
        assert rhs == 0.0
        assert holds

    def test_extreme_thresholds_give_rhs_one(self):
        s = ScoreSet(positives=[0.9, 0.4], negatives=[0.5, 0.1])
        below, _ = binary_bound_check(s, -10.0)
        above, _ = binary_bound_check(s, 10.0)
        assert below == 1.0
        assert above == 1.0

    def test_best_threshold_still_bounds_ranking_error(self, rng):
        s = ScoreSet(
            positives=1.0 / (1.0 + np.exp(-rng.normal(1.0, 1.0, size=80))),
            negatives=1.0 / (1.0 + np.exp(-rng.normal(0.0, 1.0, size=320))),
        )
        best = min(
            binary_bound_check(s, float(t))[0]
            for t in np.concatenate([s.positives, s.negatives])
        )
        assert ranking_error(s) <= best + 1e-12


    def test_array_of_thresholds_matches_scalar_calls(self, rng):
        s = ScoreSet(positives=rng.integers(0, 5, 40) / 4.0, negatives=rng.random(70))
        ts = np.concatenate([s.positives, s.negatives, [-1.0, 0.0, 0.25, 1.0, 2.0]])
        rhs, holds = binary_bound_check(s, ts)
        assert rhs.shape == holds.shape == ts.shape
        for t, rhs_t, holds_t in zip(ts, rhs, holds):
            assert binary_bound_check(s, float(t)) == (rhs_t, holds_t)
        scalar = binary_bound_check(s, 0.5)
        assert type(scalar[0]) is float and type(scalar[1]) is bool

    def test_tails_are_exact_counts(self):
        # the tight bound's slack is exactly 0; 1 - 9/10 would put the
        # negative tail at 0.09999999999999998, below R = 0.1
        s = ScoreSet(positives=[0.5] * 3, negatives=[0.1] * 9 + [0.9])
        rhs, holds = binary_bound_check(s, [0.2, 0.4])
        assert list(rhs) == [0.1, 0.1] == [ranking_error(s)] * 2
        assert holds.all()

    @pytest.mark.parametrize("t", [math.nan, [0.5, math.nan]])
    def test_nan_threshold_rejected(self, t):
        s = ScoreSet(positives=[0.9, 0.4], negatives=[0.5, 0.1])
        with pytest.raises(ValidationError, match="NaN"):
            binary_bound_check(s, t)


def reference_audit(s: ScoreSet, alpha: float) -> tuple[float, float, float, float]:
    """(se_ranking, se_ap, lower, upper) by the standalone formulas of the
    former per-alpha audit interval."""
    r = ranking_error(s)
    inv = 1.0 / s.n_plus + 1.0 / s.n_minus
    se_r = float(np.sqrt(r * (1.0 - r) * inv)) + inv
    se_ap = float(np.sqrt(np.var(_precisions(s, alpha)) / s.n_plus)) + 2.0 * inv
    lower = ap_lower(alpha, min(1.0, r + 3.0 * se_r)) - 3.0 * se_ap
    upper = ap_upper(alpha, max(0.0, r - 3.0 * se_r)) + 3.0 * se_ap
    return se_r, se_ap, lower, upper


def audit_cases(count: int, seed: int):
    """Beta score sets with side sizes from 1 to 300, every other one rounded
    to multiples of 1/6 so that ties occur within and across sides."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n_pos, n_neg = rng.integers(1, 301, size=2)
        pos = rng.beta(*rng.uniform(0.3, 8.0, size=2), size=n_pos)
        neg = rng.beta(*rng.uniform(0.3, 8.0, size=2), size=n_neg)
        if i % 2:
            pos, neg = np.round(pos * 6.0) / 6.0, np.round(neg * 6.0) / 6.0
        yield ScoreSet(positives=pos, negatives=neg)


class TestAuditInterval:
    def test_contains_measured_ap_for_beta_detectors(self, rng):
        for _ in range(10):
            s = ScoreSet(
                positives=rng.beta(4.0, 2.0, size=400),
                negatives=rng.beta(2.0, 4.0, size=2000),
            )
            (a,) = audit(s, [s.n_minus / s.n_plus])
            assert a.lower <= average_precision(s, a.alpha) <= a.upper

    def test_interval_pads_the_point_bounds(self, rng):
        s = ScoreSet(
            positives=rng.beta(4.0, 2.0, size=100),
            negatives=rng.beta(2.0, 4.0, size=500),
        )
        r = ranking_error(s)
        (a,) = audit(s, [5.0])
        assert a.lower <= ap_lower(5.0, r)
        assert a.upper >= ap_upper(5.0, r)
        assert a.lower < a.upper


class TestAudit:
    AUDIT_ALPHAS = (0.1, 1.0, 10.0, 1000.0)

    def test_every_field_matches_the_standalone_estimators(self):
        for s in audit_cases(200, seed=7):
            records = audit(s, self.AUDIT_ALPHAS)
            assert [a.alpha for a in records] == list(self.AUDIT_ALPHAS)
            r = ranking_error(s)
            for a in records:
                assert a.ap == average_precision(s, a.alpha)
                assert a.ranking_error == r
                assert a.ap_lower == ap_lower(a.alpha, r)
                assert a.ap_upper == ap_upper(a.alpha, r)
                assert (a.se_ranking, a.se_ap, a.lower, a.upper) == reference_audit(s, a.alpha)
                assert a.slack == min(a.ap - a.lower, a.upper - a.ap)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_a_bad_alpha_anywhere_rejected(self, bad):
        s = ScoreSet(positives=[0.9, 0.4], negatives=[0.5, 0.1])
        for alphas in ([bad], [1.0, bad], [bad, 1.0, 10.0]):
            with pytest.raises(ValidationError, match="alpha"):
                audit(s, alphas)

    def test_empty_side_rejected(self):
        with pytest.raises(ValidationError, match="no negatives"):
            audit(ScoreSet(positives=[0.5], negatives=[]), [1.0])


class TestGFunction:
    def test_accepts_a_profile_whose_mean_matches_tau(self):
        g = _GFunction(grid=np.full(100, 0.25), tau=0.25)
        assert g.grid.dtype == np.float64

    def test_mean_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="differs from tau"):
            _GFunction(grid=np.full(100, 0.25), tau=0.3)

    def test_values_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError, match="lie in"):
            _GFunction(grid=np.array([0.5, 1.5, -0.5, 0.5]), tau=0.5)

    def test_empty_or_matrix_grid_rejected(self):
        with pytest.raises(ValidationError, match="1-d"):
            _GFunction(grid=np.array([]), tau=0.0)
        with pytest.raises(ValidationError, match="1-d"):
            _GFunction(grid=np.full((10, 10), 0.5), tau=0.5)


def best_transfer_drop(g: np.ndarray, alpha: float, delta: float) -> float:
    """The largest drop in mean(x / (x + alpha g)) from moving delta mass out
    of one bin into another within the box; -inf when no move fits."""
    x = _grid_midpoints(g.size)
    terms = x / (x + alpha * g)
    drop_remove = np.where(g >= delta, terms - x / (x + alpha * (g - delta)), -np.inf)
    drop_add = np.where(g <= 1.0 - delta, terms - x / (x + alpha * (g + delta)), -np.inf)
    best, _ = _best_disjoint_pair(drop_remove, drop_add)
    return best / g.size


class TestMinOracleSolve:
    @pytest.mark.parametrize(
        "alpha,tau,n",
        [(0.5, 0.3, 2000), (1.0, 1.0 / 6.0, 2000), (5.0, 0.9, 2000), (50.0, 0.05, 500),
         (0.01, 0.7, 100), (1000.0, 0.5, 3000), (3.0, 1e-9, 2000), (2.0, 1.0 - 1e-16, 1000)],
    )
    def test_no_two_bin_transfer_lowers_the_objective(self, alpha, tau, n):
        g = _kkt_grid(alpha, tau, n)
        _GFunction(grid=g, tau=tau)
        for delta in (1.0 / n, 1e-3 / n):
            assert best_transfer_drop(g, alpha, delta) <= 1e-12

    @pytest.mark.parametrize("alpha", [5e-324, 1e-300, 1e300, 1.7e308])
    def test_extreme_alphas_give_a_value_inside_the_sandwich(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for tau in (0.0, 1e-300, 1e-9, 0.3, 1.0 - 1e-16, 1.0):
                for n in (100, 2000):
                    value = variational_min_oracle(alpha, tau, n=n)
                    assert math.isfinite(value) and 0.0 <= value <= 1.0
                    assert ap_lower(alpha, tau) - 1e-3 <= value <= ap_upper(alpha, tau) + 1e-3


def reference_best_pair(remove: np.ndarray, add: np.ndarray) -> float:
    """max remove[i] + add[j] over i != j by the full O(n^2) table; -inf when
    no pair has both entries finite."""
    table = remove[:, None] + add[None, :]
    np.fill_diagonal(table, -np.inf)
    best = float(np.max(table))
    return best if math.isfinite(best) else -math.inf


def disjoint_pair_cases(count: int, seed: int):
    """(remove, add) gain arrays with -inf entries, one finite entry on a
    side, and both maxima in one bin."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 40))
        remove, add = rng.normal(size=n), rng.normal(size=n)
        remove[rng.random(n) < 0.3] = -np.inf
        add[rng.random(n) < 0.3] = -np.inf
        kind = i % 4
        if kind == 1:
            add[:] = -np.inf
            add[rng.integers(n)] = rng.normal()
        elif kind == 2:
            k = int(rng.integers(n))
            remove[k], add[k] = 10.0, 10.0
        elif kind == 3:
            k = int(rng.integers(n))
            remove[:] = -np.inf
            add[:] = -np.inf
            remove[k], add[k] = 1.0, 1.0
        yield remove, add


class TestBestDisjointPair:
    def test_matches_the_quadratic_search(self):
        shared_max = 0
        for remove, add in disjoint_pair_cases(400, seed=5):
            best, (i, j) = _best_disjoint_pair(remove, add)
            assert best == reference_best_pair(remove, add)
            if math.isfinite(best):
                assert i != j
                assert best == float(remove[i] + add[j])
            shared_max += int(np.argmax(remove) == np.argmax(add))
        assert shared_max >= 100


class TestVariationalOracles:
    def test_min_with_no_negative_mass_is_one(self):
        assert variational_min_oracle(1.0, 0.0) == 1.0
        assert variational_min_oracle(250.0, 0.0, n=500) == 1.0

    @pytest.mark.parametrize(
        "alpha,tau",
        [(1.0, 0.1), (1.0, 0.5), (0.5, 0.25), (3.0, 0.2), (10.0, 0.05)],
    )
    def test_min_matches_closed_form_when_unboxed_solution_is_feasible(
        self, alpha, tau
    ):
        assert analytic_min_feasible(alpha, tau)
        value = variational_min_oracle(alpha, tau, n=2000)
        assert abs(value - ap_lower(alpha, tau)) <= 1e-3

    @pytest.mark.parametrize("alpha,tau", [(2.0, 0.9), (5.0, 0.8), (20.0, 0.9)])
    def test_min_with_active_box_stays_inside_the_sandwich(self, alpha, tau):
        assert not analytic_min_feasible(alpha, tau)
        value = variational_min_oracle(alpha, tau, n=2000)
        assert value >= ap_lower(alpha, tau) - 1e-3
        assert value <= ap_upper(alpha, tau) + 1e-3

    @pytest.mark.parametrize(
        "alpha,tau",
        [(1.0, 0.1), (1.0, 0.5), (0.5, 0.25), (3.0, 0.2), (2.0, 0.9)],
    )
    def test_max_matches_the_upper_bound(self, alpha, tau):
        value = variational_max_oracle(alpha, tau, n=2000)
        assert abs(value - ap_upper(alpha, tau)) <= 1e-4

    def test_max_approaches_one_as_tau_vanishes(self):
        assert abs(variational_max_oracle(1.0, 1e-3) - 1.0) <= 1e-3

    def test_min_never_exceeds_max(self):
        for alpha, tau in [(0.5, 0.3), (1.0, 0.6), (4.0, 0.15)]:
            lo = variational_min_oracle(alpha, tau, n=500)
            hi = variational_max_oracle(alpha, tau, n=500)
            assert lo <= hi + 1e-12

    def test_zero_tau_rejected_for_the_max(self):
        with pytest.raises(ValidationError, match="tau"):
            variational_max_oracle(1.0, 0.0)

    @pytest.mark.parametrize("tau", [-0.1, 1.5])
    def test_tau_outside_unit_interval_rejected(self, tau):
        with pytest.raises(ValidationError, match="tau"):
            variational_min_oracle(1.0, tau)
        with pytest.raises(ValidationError, match="tau"):
            variational_max_oracle(1.0, tau)

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValidationError, match="grid size"):
            variational_min_oracle(1.0, 0.5, n=10)
        with pytest.raises(ValidationError, match="grid size"):
            variational_max_oracle(1.0, 0.5, n=10)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValidationError, match="alpha"):
            variational_min_oracle(-1.0, 0.5)


class TestAnalyticMinimizerPeak:
    def test_branch_values(self):
        assert _analytic_min_gmax(1.0, 0.1) == 0.25 * math.sqrt(0.6)
        assert _analytic_min_gmax(1.0, 0.5) == 9.0 * 4.0 / 64.0
        assert _analytic_min_gmax(1.0, 0.95) == 1.5 * 0.95 - 0.25

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
    def test_branches_join_continuously(self, alpha):
        for u in (1.0 / 6.0, 5.0 / 6.0):
            tau = u / alpha
            eps = 1e-9
            if tau + eps > 1.0:
                continue
            left = _analytic_min_gmax(alpha, tau - eps)
            right = _analytic_min_gmax(alpha, tau + eps)
            assert abs(left - right) <= 1e-7

    def test_zero_tau_peak_is_zero_and_feasible(self):
        assert _analytic_min_gmax(1.0, 0.0) == 0.0
        assert analytic_min_feasible(1.0, 0.0)

    def test_feasibility_is_the_unit_peak_test(self):
        for alpha in (0.2, 1.0, 5.0, 50.0):
            for tau in np.linspace(0.01, 1.0, 25):
                expected = _analytic_min_gmax(alpha, float(tau)) <= 1.0
                assert analytic_min_feasible(alpha, float(tau)) == expected

    def test_peak_grows_with_tau(self):
        taus = np.linspace(0.0, 1.0, 50)
        peaks = [_analytic_min_gmax(2.0, float(t)) for t in taus]
        assert all(a <= b + 1e-15 for a, b in zip(peaks, peaks[1:]))

    def test_tau_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError, match="tau"):
            _analytic_min_gmax(1.0, 1.1)
