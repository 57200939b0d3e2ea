"""Seeded property-verification suites behind ``verify`` in the CLI.

Each suite draws its randomness from a child of one SeedSequence, indexed by
suite name, so a suite produces the same stream whether it runs alone or as
part of ``all``.  Reports are plain dicts of JSON-safe scalars with no
timestamps: identical inputs give byte-identical serialized reports.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds as bnd
from .ecm_loss import NEGATIVE, POSITIVE, decision_logit, ecm_loss, focal_ecm_loss
from .errors import ValidationError
from .margins import Margins, margins_grid_oracle, optimal_margins, weights
from .metrics import (
    STRICT,
    ScoreSet,
    average_precision,
    ranking_error,
    ranking_error_bruteforce,
)
from .priors import ClassStats

SUITES = ("bounds", "gradients", "estimators", "margins", "oracles")

_SANDWICH_ALPHAS = (0.1, 1.0, 10.0, 1000.0)
_SANDWICH_SAMPLES = 4000
_ORACLE_ALPHAS = (0.5, 1.0, 5.0, 50.0)
_ORACLE_TAUS = (0.05, 1.0 / 6.0, 0.3, 0.5, 0.9)
_ORACLE_GRID = 2000


def _check(name: str, passed: bool, **detail) -> dict:
    out = {"name": name, "passed": bool(passed)}
    out.update(detail)
    return out


def _suite_report(name: str, checks: list[dict]) -> dict:
    return {"suite": name, "passed": all(c["passed"] for c in checks), "checks": checks}


# ---------------------------------------------------------------------------
# bounds suite: Monte Carlo sandwich, monotonicity, slope bracket
# ---------------------------------------------------------------------------


def _run_bounds(rng: np.random.Generator, trials: int) -> dict:
    checks = []

    violations = 0
    min_slack = math.inf
    for _ in range(trials):
        a_pos, b_pos, a_neg, b_neg = np.exp(
            rng.uniform(math.log(0.3), math.log(8.0), size=4)
        )
        ss = ScoreSet(
            positives=rng.beta(a_pos, b_pos, _SANDWICH_SAMPLES),
            negatives=rng.beta(a_neg, b_neg, _SANDWICH_SAMPLES),
        )
        for a in bnd.audit(ss, _SANDWICH_ALPHAS):
            min_slack = min(min_slack, a.slack)
            if a.slack < 0:
                violations += 1
    checks.append(
        _check(
            "sandwich",
            violations == 0,
            detectors=trials,
            alphas=list(_SANDWICH_ALPHAS),
            violations=violations,
            min_slack=float(min_slack),
        )
    )

    rs = np.linspace(0.0, 1.0, 101)
    alphas = np.logspace(-2.0, 3.0, 21)
    # one alpha x r grid per bound: rows alpha, columns r
    grids = [bound(alphas[:, None], rs) for bound in (bnd.ap_upper, bnd.ap_lower)]
    mono_ok = not any(np.any(np.diff(g, axis=axis) > 1e-15) for g in grids for axis in (0, 1))
    at_zero = all(np.all(g[:, 0] == 1.0) for g in grids)
    checks.append(_check("monotone_in_r_and_alpha", mono_ok and at_zero))

    n_slope = max(trials, 1000)
    slope_alphas = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), size=n_slope))
    lo = bnd.slope_m(slope_alphas, "lower")
    mid = bnd.slope_m(slope_alphas, "meet")
    hi = bnd.slope_m(slope_alphas, "upper")
    worst_gap = max(0.0, float(np.max(lo - mid)), float(np.max(mid - hi)))
    bracket_ok = not np.any((mid < lo - 1e-9) | (mid > hi + 1e-9) | (lo > hi + 1e-9))
    asym = max(
        abs(bnd.slope_m(1e6, "lower") - 1.0), abs(bnd.slope_m(1e6, "upper") - 1.0)
    )
    checks.append(
        _check(
            "slope_bracket",
            bracket_ok and asym <= 1e-5,
            sampled=n_slope,
            worst_gap=float(worst_gap),
            asymptote_gap=float(asym),
        )
    )

    env_ok = True
    for _ in range(100):
        alpha = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e3))))
        r = float(rng.random())
        env = bnd.envelope(alpha, r, "upper")
        if not (
            env.ap_lower <= env.ap_upper
            and env.det_lower == 1.0 - env.ap_upper
            and env.det_upper == 1.0 - env.ap_lower
        ):
            env_ok = False
    checks.append(_check("envelope_invariants", env_ok))

    return _suite_report("bounds", checks)


# ---------------------------------------------------------------------------
# gradients suite: central finite differences against the analytic forms
# ---------------------------------------------------------------------------


def _random_weights(rng: np.random.Generator):
    if rng.random() < 0.5:
        gamma_plus = float(rng.uniform(0.01, 0.99))
        return weights(Margins(gamma_plus=gamma_plus, gamma_minus=1.0 - gamma_plus))
    n_plus = int(np.exp(rng.uniform(0.0, math.log(1e9))))
    n_minus = int(np.exp(rng.uniform(0.0, math.log(1e9))))
    stats = ClassStats(n_plus=n_plus, n_minus=n_minus, alpha=n_minus / n_plus)
    return weights(optimal_margins(stats))


def _sample_logit(rng: np.random.Generator) -> float:
    u = rng.random()
    if u < 0.9:
        return float(rng.uniform(-10.0, 10.0))
    if u < 0.95:
        return float(rng.uniform(-1e4, 1e4))
    return float(rng.choice([-50.0, 50.0]))


def _gradient_check(rng: np.random.Generator, trials: int, focal: bool) -> dict:
    h = 1e-5
    failures = 0
    non_finite = 0
    worst_rel = 0.0
    for _ in range(trials):
        w = _random_weights(rng)
        m = float(rng.uniform(0.01, 2.0))
        label = POSITIVE if rng.random() < 0.5 else NEGATIVE
        f = _sample_logit(rng)
        if focal:
            fg = float(rng.uniform(0.0, 4.0))
            fa = float(rng.uniform(0.05, 0.95))

            def ev(x):
                return focal_ecm_loss(x, label, w, m, fg, fa)

        else:

            def ev(x):
                return ecm_loss(x, label, w, m)

        res = ev(f)
        if not (math.isfinite(res.value) and math.isfinite(res.grad_logit)):
            non_finite += 1
            failures += 1
            continue
        fd = (ev(f + h).value - ev(f - h).value) / (2.0 * h)
        diff = abs(res.grad_logit - fd)
        scale = max(abs(res.grad_logit), abs(fd))
        rel = diff / scale if scale > 0 else 0.0
        ok = diff <= 1e-6 * scale or (abs(res.grad_logit) < 1e-3 and diff <= 1e-9)
        if scale > 1e-3:
            worst_rel = max(worst_rel, rel)
        if not ok:
            failures += 1
    return _check(
        "focal_ecm_gradients" if focal else "ecm_gradients",
        failures == 0,
        trials=trials,
        failures=failures,
        non_finite=non_finite,
        worst_rel=float(worst_rel),
    )


def _run_gradients(rng: np.random.Generator, trials: int) -> dict:
    checks = [
        _gradient_check(rng, trials, focal=False),
        _gradient_check(rng, trials, focal=True),
    ]

    convex_ok = True
    for _ in range(min(trials, 200)):
        w = _random_weights(rng)
        label = POSITIVE if rng.random() < 0.5 else NEGATIVE
        fs = np.sort(rng.uniform(-10.0, 10.0, size=3))
        f1, f2, f3 = (float(x) for x in fs)
        if f3 - f1 < 1e-9:
            continue
        t = (f2 - f1) / (f3 - f1)
        chord = (1 - t) * ecm_loss(f1, label, w).value + t * ecm_loss(
            f3, label, w
        ).value
        if ecm_loss(f2, label, w).value > chord + 1e-9:
            convex_ok = False
    checks.append(_check("ecm_convex_in_f", convex_ok))

    direction_ok = True
    for _ in range(min(trials, 200)):
        a_freq = float(np.exp(rng.uniform(0.0, math.log(100.0))))
        a_rare = a_freq * float(np.exp(rng.uniform(0.1, math.log(1e4))))
        f = float(rng.uniform(-5.0, 5.0))
        w_f = _weights_from_alpha(a_freq)
        w_r = _weights_from_alpha(a_rare)
        g_pos_f = ecm_loss(f, POSITIVE, w_f).grad_logit
        g_pos_r = ecm_loss(f, POSITIVE, w_r).grad_logit
        g_neg_f = ecm_loss(f, NEGATIVE, w_f).grad_logit
        g_neg_r = ecm_loss(f, NEGATIVE, w_r).grad_logit
        if abs(g_pos_r) < abs(g_pos_f) - 1e-12 or g_neg_r > g_neg_f + 1e-12:
            direction_ok = False
    checks.append(_check("rare_class_gradient_direction", direction_ok))

    return _suite_report("gradients", checks)


def _weights_from_alpha(alpha: float):
    n_plus = 10**6
    n_minus = int(round(alpha * n_plus))
    stats = ClassStats(n_plus=n_plus, n_minus=n_minus, alpha=n_minus / n_plus)
    return weights(optimal_margins(stats))


# ---------------------------------------------------------------------------
# estimators suite: brute-force agreement, invariances, binary bound
# ---------------------------------------------------------------------------


def _random_scoreset(rng: np.random.Generator) -> ScoreSet:
    n_pos = int(rng.integers(1, 201))
    n_neg = int(rng.integers(1, 201))
    style = int(rng.integers(0, 3))
    if style == 0:
        pos = rng.random(n_pos)
        neg = rng.random(n_neg)
    elif style == 1:
        # coarse quantization forces heavy tie mass, within and across sides
        pos = rng.integers(0, 5, n_pos) / 4.0
        neg = rng.integers(0, 5, n_neg) / 4.0
    else:
        base = rng.random(max(n_pos, n_neg))
        pos = rng.choice(base, n_pos)
        neg = rng.choice(base, n_neg)
    return ScoreSet(positives=pos, negatives=neg)


def _run_estimators(rng: np.random.Generator, trials: int) -> dict:
    checks = []
    agree = swap_ok = transform_ok = range_ok = True
    bound_ok = True
    worst_bound_slack = math.inf
    for _ in range(trials):
        ss = _random_scoreset(rng)
        r_half = ranking_error(ss)
        if ranking_error_bruteforce(ss) != r_half:
            agree = False
        if ranking_error_bruteforce(ss, ties=STRICT) != ranking_error(ss, ties=STRICT):
            agree = False
        if abs(ranking_error(ss.swapped()) - (1.0 - r_half)) > 1e-12:
            swap_ok = False

        ap = average_precision(ss, 1.0)
        if not (0.0 <= ap <= 1.0 and 0.0 <= r_half <= 1.0):
            range_ok = False
        cubed = ScoreSet(positives=ss.positives**3, negatives=ss.negatives**3)
        affine = ScoreSet(
            positives=(ss.positives + 1.0) / 2.0, negatives=(ss.negatives + 1.0) / 2.0
        )
        for other in (cubed, affine):
            if average_precision(other, 1.0) != ap or ranking_error(other) != r_half:
                transform_ok = False

        # binary bound at every distinct score nudged both ways
        ts = np.unique(np.concatenate([ss.positives, ss.negatives]))
        ts = np.concatenate([ts - 1e-9, ts, ts + 1e-9])
        rhs, holds = bnd.binary_bound_check(ss, ts)
        worst_bound_slack = min(worst_bound_slack, float(np.min(rhs) - r_half))
        spot = [bnd.binary_bound_check(ss, float(t))[1] for t in rng.choice(ts, size=3)]
        if not (holds.all() and all(spot)):
            bound_ok = False

    checks.append(_check("bruteforce_agreement", agree, trials=trials))
    checks.append(_check("swap_complement", swap_ok))
    checks.append(_check("monotone_transform_invariance", transform_ok))
    checks.append(_check("estimates_in_unit_interval", range_ok))
    checks.append(
        _check(
            "binary_bound",
            bound_ok,
            worst_slack=float(worst_bound_slack),
        )
    )

    sep = ScoreSet(positives=np.array([0.8, 0.9]), negatives=np.array([0.1, 0.2]))
    inv = sep.swapped()
    tie = ScoreSet(positives=np.array([0.5]), negatives=np.array([0.5]))
    edge_ok = (
        average_precision(sep, 2.0) == 1.0
        and ranking_error(sep) == 0.0
        and ranking_error(inv) == 1.0
        and ranking_error(tie) == 0.5
    )
    checks.append(_check("edge_cases", edge_ok))

    return _suite_report("estimators", checks)


# ---------------------------------------------------------------------------
# margins suite: grid-oracle optimality and the decision-boundary identity
# ---------------------------------------------------------------------------


def _run_margins(rng: np.random.Generator, trials: int) -> dict:
    checks = []

    step = 1e-3
    worst = 0.0
    for _ in range(100):
        n_plus = int(np.exp(rng.uniform(0.0, math.log(1e9))))
        n_minus = int(np.exp(rng.uniform(0.0, math.log(1e9))))
        stats = ClassStats(n_plus=n_plus, n_minus=n_minus, alpha=n_minus / n_plus)
        closed = optimal_margins(stats)
        gridded = margins_grid_oracle(stats, step)
        worst = max(worst, abs(closed.gamma_plus - gridded.gamma_plus))
    checks.append(
        _check("grid_oracle_agreement", worst <= step + 1e-12, worst_gap=float(worst))
    )

    exact = optimal_margins(ClassStats(n_plus=16, n_minus=81, alpha=81.0 / 16.0))
    checks.append(
        _check(
            "exact_fourth_root_case",
            abs(exact.gamma_plus - 0.6) <= 1e-12,
            gamma_plus=float(exact.gamma_plus),
        )
    )

    worst_id = 0.0
    for _ in range(trials):
        gamma_plus = float(rng.uniform(1e-3, 1.0 - 1e-3))
        w = weights(Margins(gamma_plus=gamma_plus, gamma_minus=1.0 - gamma_plus))
        f_star = decision_logit(w)
        sig = 1.0 / (1.0 + math.exp(-2.0 * f_star))
        worst_id = max(worst_id, abs(sig - gamma_plus))
    checks.append(
        _check("decision_boundary_identity", worst_id <= 1e-12, worst_gap=float(worst_id))
    )

    invariance_ok = True
    for _ in range(min(trials, 200)):
        n_plus = int(rng.integers(1, 10**6))
        n_minus = int(rng.integers(1, 10**6))
        base = optimal_margins(ClassStats(n_plus=n_plus, n_minus=n_minus, alpha=n_minus / n_plus))
        scaled = optimal_margins(
            ClassStats(n_plus=16 * n_plus, n_minus=16 * n_minus, alpha=n_minus / n_plus)
        )
        if scaled.gamma_plus != base.gamma_plus:
            invariance_ok = False
        swapped = optimal_margins(ClassStats(n_plus=n_minus, n_minus=n_plus, alpha=n_plus / n_minus))
        if swapped.gamma_minus != base.gamma_plus:
            invariance_ok = False
    checks.append(_check("scale_and_swap_invariance", invariance_ok))

    return _suite_report("margins", checks)


# ---------------------------------------------------------------------------
# oracles suite: variational extremals against the closed forms
# ---------------------------------------------------------------------------


def _run_oracles(rng: np.random.Generator, trials: int) -> dict:
    checks = []
    worst_max = 0.0
    worst_min = 0.0
    box_ok = True
    for alpha in _ORACLE_ALPHAS:
        for tau in _ORACLE_TAUS:
            target_max = bnd.ap_upper(alpha, tau)
            got_max = bnd.variational_max_oracle(alpha, tau, _ORACLE_GRID)
            worst_max = max(worst_max, abs(got_max - target_max))

            got_min = bnd.variational_min_oracle(alpha, tau, _ORACLE_GRID)
            if bnd.analytic_min_feasible(alpha, tau):
                worst_min = max(worst_min, abs(got_min - bnd.ap_lower(alpha, tau)))
            else:
                # boxed minimum exceeds the unboxed closed form; it must still
                # sit inside the sandwich
                if not (
                    bnd.ap_lower(alpha, tau) - 1e-3
                    <= got_min
                    <= bnd.ap_upper(alpha, tau) + 1e-3
                ):
                    box_ok = False
    checks.append(
        _check(
            "max_oracle_agreement",
            worst_max <= 1e-3,
            worst_gap=float(worst_max),
            grid=_ORACLE_GRID,
        )
    )
    checks.append(
        _check(
            "min_oracle_agreement",
            worst_min <= 1e-3,
            worst_gap=float(worst_min),
            grid=_ORACLE_GRID,
        )
    )
    checks.append(_check("min_oracle_boxed_within_sandwich", box_ok))

    degenerate_ok = bnd.variational_min_oracle(1.0, 0.0, _ORACLE_GRID) == 1.0
    small_tau = abs(bnd.variational_max_oracle(1.0, 1e-3, _ORACLE_GRID) - 1.0) <= 1e-3
    checks.append(_check("degenerate_tau", degenerate_ok and small_tau))

    return _suite_report("oracles", checks)


_RUNNERS = {
    "bounds": _run_bounds,
    "gradients": _run_gradients,
    "estimators": _run_estimators,
    "margins": _run_margins,
    "oracles": _run_oracles,
}


def plan(suite: str, trials: int, seed: int) -> tuple[str, ...]:
    """Check the arguments of a run and return the suites it runs, in order."""
    if suite != "all" and suite not in SUITES:
        raise ValidationError(f"suite must be 'all' or one of {SUITES}, got {suite!r}")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return SUITES if suite == "all" else (suite,)


def run_suite(name: str, trials: int = 1000, seed: int = 0) -> dict:
    """Run one named suite and return its report, the same report that the
    suite gives inside ``all``."""
    if name not in SUITES:
        raise ValidationError(f"suite must be one of {SUITES}, got {name!r}")
    plan(name, trials, seed)
    child = np.random.SeedSequence(seed).spawn(len(SUITES))[SUITES.index(name)]
    return _RUNNERS[name](np.random.default_rng(child), trials)


def report(suite: str, trials: int, seed: int, reports: list[dict]) -> dict:
    """The report of a run: its arguments, its suite reports and whether all passed."""
    return {
        "suite": suite,
        "trials": trials,
        "seed": seed,
        "passed": all(r["passed"] for r in reports),
        "suites": reports,
    }


def run(suite: str = "all", trials: int = 1000, seed: int = 0) -> dict:
    """Run one named suite (or all) and return a JSON-safe report dict."""
    names = plan(suite, trials, seed)
    return report(suite, trials, seed, [run_suite(name, trials, seed) for name in names])
