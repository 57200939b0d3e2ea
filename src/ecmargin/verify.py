"""Seeded property-verification suites behind ``verify`` in the CLI.

A run is a list of independent units (``_units``), each ``(suite, block,
trials)``: the bounds sandwich in fixed blocks of ``_SANDWICH_BLOCK`` trials,
then the rest of the bounds suite and each other suite whole.  Each unit's
stream is made from its spawn key under the run's seed: ``(i,)`` for suite i
of ``SUITES`` whole and ``(i, b)`` for sandwich block b, the children that
``SeedSequence(seed).spawn`` would give, so a suite produces the same stream
whether it runs alone or as part of ``all``.  ``run`` deals the units to this
process and a forked child and merges them exactly in unit order, so every
caller gets the serial report.  Reports are plain dicts of JSON-safe scalars
with no timestamps: identical inputs give byte-identical serialized reports.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from . import _fork, bounds as bnd
from ._choices import STRICT, SUITES
from .errors import ValidationError
from .losses import _ecm_value_grad, _focal_value_grad, decision_logit, log_weight_ratio
from .margins import Margins, margins_grid_oracle, optimal_margins, weights
from .metrics import ScoreSet, average_precision, ranking_error, ranking_error_bruteforce
from .priors import ClassStats

_SANDWICH_ALPHAS = (0.1, 1.0, 10.0, 1000.0)
_SANDWICH_SAMPLES = 4000
# trials per block of the sandwich; fixed, so a block's stream and its result
# never depend on the CPU count
_SANDWICH_BLOCK = 50
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


def _sandwich_block(rng: np.random.Generator, trials: int) -> tuple[int, float]:
    """One block of the sandwich: (violations, min_slack) over ``trials``
    drawn detectors.  Blocks merge exactly: counts add, slacks take the min."""
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
    return violations, min_slack


def _run_bounds(rng: np.random.Generator, trials: int) -> dict:
    """The bounds suite's checks after the sandwich, which runs in blocks
    (``_run_unit``); ``_merge`` puts the sandwich first."""
    checks = []

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

    env_alphas = np.exp(rng.uniform(math.log(1e-2), math.log(1e3), size=100))
    env = bnd.envelope(env_alphas, rng.random(100), "upper")
    env_ok = (
        np.all(env.ap_lower <= env.ap_upper)
        and np.all(env.det_lower == 1.0 - env.ap_upper)
        and np.all(env.det_upper == 1.0 - env.ap_lower)
    )
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


def _sound(value, grad):
    """Where a value is finite and >= 0, as ``LossEval`` admits, and its
    gradient finite: anywhere else a check fails, and never warns."""
    with np.errstate(invalid="ignore"):
        return np.isfinite(value) & (value >= 0.0) & np.isfinite(grad)


def _gradient_check(rng: np.random.Generator, trials: int, focal: bool) -> dict:
    h = 1e-5
    shift, m, f = np.empty(trials), np.empty(trials), np.empty(trials)
    positive, focal_params = np.empty(trials, dtype=bool), np.empty((2, trials))
    for i in range(trials):
        shift[i] = log_weight_ratio(_random_weights(rng))
        m[i] = rng.uniform(0.01, 2.0)
        positive[i] = rng.random() < 0.5
        f[i] = _sample_logit(rng)
        if focal:
            focal_params[:, i] = rng.uniform(0.0, 4.0), rng.uniform(0.05, 0.95)
    # one kernel call; its rows are f, f + h and f - h
    z = 2.0 * np.stack([f, f + h, f - h]) - shift
    if focal:
        value, grad = _focal_value_grad(z, positive, m, *focal_params)
    else:
        value, grad = _ecm_value_grad(z, positive, m)
    grad = grad[0]
    finite = np.isfinite(value).all(axis=0) & np.isfinite(grad)
    sound = _sound(value, grad).all(axis=0)
    with np.errstate(all="ignore"):
        fd = (value[1] - value[2]) / (2.0 * h)
        diff = np.abs(grad - fd)
        scale = np.maximum(np.abs(grad), np.abs(fd))
        ok = sound & ((diff <= 1e-6 * scale) | ((np.abs(grad) < 1e-3) & (diff <= 1e-9)))
        worst_rel = np.max(diff / scale, where=sound & (scale > 1e-3), initial=0.0)
    return _check(
        "focal_ecm_gradients" if focal else "ecm_gradients",
        bool(ok.all()),
        trials=trials,
        failures=int(trials - ok.sum()),
        non_finite=int(trials - finite.sum()),
        worst_rel=float(worst_rel),
    )


def _run_gradients(rng: np.random.Generator, trials: int) -> dict:
    checks = [
        _gradient_check(rng, trials, focal=False),
        _gradient_check(rng, trials, focal=True),
    ]

    n = min(trials, 200)
    shift, fs, positive = np.empty(n), np.empty((n, 3)), np.empty(n, dtype=bool)
    for i in range(n):
        shift[i] = log_weight_ratio(_random_weights(rng))
        positive[i] = rng.random() < 0.5
        fs[i] = np.sort(rng.uniform(-10.0, 10.0, size=3))
    # one kernel call; its columns are f1 <= f2 <= f3
    value, grad = _ecm_value_grad(2.0 * fs - shift[:, None], positive[:, None], 1.0)
    (f1, f2, f3), (v1, v2, v3) = fs.T, value.T
    with np.errstate(all="ignore"):
        t = (f2 - f1) / (f3 - f1)
        convex = _sound(value, grad).all(axis=1) & ~(v2 > (1 - t) * v1 + t * v3 + 1e-9)
    checks.append(_check("ecm_convex_in_f", bool(np.all(convex | (f3 - f1 < 1e-9)))))

    f, shift = np.empty(n), np.empty((n, 2))
    for i in range(n):
        a_freq = float(np.exp(rng.uniform(0.0, math.log(100.0))))
        a_rare = a_freq * float(np.exp(rng.uniform(0.1, math.log(1e4))))
        f[i] = rng.uniform(-5.0, 5.0)
        shift[i] = [log_weight_ratio(_weights_from_alpha(a)) for a in (a_freq, a_rare)]
    # one kernel call over trial x (positive, negative) x (frequent, rare)
    value, grad = _ecm_value_grad(2.0 * f[:, None, None] - shift[:, None], [[True], [False]], 1.0)
    (g_pos_f, g_pos_r), (g_neg_f, g_neg_r) = grad.transpose(1, 2, 0)
    with np.errstate(invalid="ignore"):
        wrong = (np.abs(g_pos_r) < np.abs(g_pos_f) - 1e-12) | (g_neg_r > g_neg_f + 1e-12)
    direction_ok = bool(_sound(value, grad).all() and not wrong.any())
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


# One runner per suite, in the order of SUITES.  The "bounds" entry runs only
# that suite's checks after the sandwich, whose blocks are units of their own
# (_units); the key keeps the suite's name because the benchmark wraps this
# table by suite.
_RUNNERS = dict(
    zip(
        SUITES,
        (_run_bounds, _run_gradients, _run_estimators, _run_margins, _run_oracles),
        strict=True,
    )
)


# 100 times criterion 02's 10^4 detectors: a run's unit list grows with its
# trials, so with no cap a typo such as 10**30 fills memory before any check
_MAX_TRIALS = 10**6
# Estimated seconds per trial of each kind of unit ("sandwich" for a block of
# the bounds sandwich, "bounds" for the rest of that suite), used only to cut
# the unit list, so they move no report byte.  Each is the median of 5 seeds x
# 2 runs, timed in process at 1000 trials on a 2-vCPU x86-64 VM (Python
# 3.11.7, numpy 2.4.6).  The oracles' cost does not grow with the trials; it
# is small either way.
_TRIAL_S = {
    "sandwich": 9.3e-4,
    "bounds": 6.0e-6,
    "gradients": 3.5e-5,
    "estimators": 3.8e-4,
    "margins": 9.8e-6,
    "oracles": 1.9e-5,
}


def plan(suite: str, trials: int, seed: int) -> tuple[str, ...]:
    """Check the arguments of a run and return the suites it runs, in order."""
    if suite != "all" and suite not in SUITES:
        raise ValidationError(f"suite must be 'all' or one of {SUITES}, got {suite!r}")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if trials > _MAX_TRIALS:
        raise ValidationError(f"trials must be <= {_MAX_TRIALS}, got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return SUITES if suite == "all" else (suite,)


def _units(names: tuple[str, ...], trials: int) -> list[tuple[str, int | None, int]]:
    """The independent units a run of the suites ``names`` is made of, in
    the order their results merge, each (suite, block, trials): ("bounds", b,
    its trials) for each block b of the bounds sandwich, then (suite, None,
    trials) for the rest of the bounds suite and for each other suite whole."""
    starts = range(0, trials, _SANDWICH_BLOCK) if "bounds" in names else ()
    blocks = [("bounds", b, min(_SANDWICH_BLOCK, trials - start)) for b, start in enumerate(starts)]
    return blocks + [(name, None, trials) for name in names]


def _run_unit(unit: tuple[str, int | None, int], seed: int):
    """The result of one unit of ``_units``: (violations, min_slack) for a
    sandwich block, else the suite's report.  Each unit draws from the stream
    of its own spawn key, so its result does not depend on which process runs
    it or what ran before."""
    name, block, trials = unit
    key = (SUITES.index(name),) if block is None else (SUITES.index(name), block)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    return _RUNNERS[name](rng, trials) if block is None else _sandwich_block(rng, trials)


def _cut(units: list[tuple[str, int | None, int]]) -> int:
    """How many units, from the first, this process runs: the shortest prefix
    whose estimated cost reaches half the total."""
    unit_costs = (_TRIAL_S[name if block is None else "sandwich"] * n for name, block, n in units)
    costs = list(itertools.accumulate(unit_costs))
    return bisect.bisect_left(costs, costs[-1] / 2.0) + 1


def _merge(units: list[tuple[str, int | None, int]], results: list) -> list[dict]:
    """The suite reports of the units' results, in unit order: the sandwich
    blocks' partials merge into the sandwich check, which leads the bounds
    suite's checks."""
    violations, min_slack = 0, math.inf
    reports = []
    for (name, block, trials), result in zip(units, results, strict=True):
        if block is not None:
            violations += result[0]
            min_slack = min(min_slack, result[1])
        elif name == "bounds":
            sandwich = _check(
                "sandwich",
                violations == 0,
                detectors=trials,
                alphas=list(_SANDWICH_ALPHAS),
                violations=violations,
                min_slack=float(min_slack),
            )
            reports.append(_suite_report(name, [sandwich, *result["checks"]]))
        else:
            reports.append(result)
    return reports


def run(suite: str = "all", trials: int = 1000, seed: int = 0) -> dict:
    """Run one named suite (or all) and return a JSON-safe report dict: its
    arguments, its suite reports and whether all passed.  The units up to
    about half their estimated cost run here and the rest in
    ``_fork.share``'s forked child when one is available; the results merge
    in unit order, so the report is the same on any CPU count."""
    units = _units(plan(suite, trials, seed), trials)

    def run_units(part) -> list:
        return [_run_unit(unit, seed) for unit in part]

    cut = _cut(units)
    here, there = units[:cut], units[cut:]
    theirs = (lambda: run_units(there)) if there else None
    results, rest = _fork.share(lambda: run_units(here), theirs)
    reports = _merge(units, results + (rest or []))
    return {
        "suite": suite,
        "trials": trials,
        "seed": seed,
        "passed": all(r["passed"] for r in reports),
        "suites": reports,
    }
