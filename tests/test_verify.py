import json
import math
import os

import numpy as np
import pytest

from ecmargin import SUITES, ValidationError, _fork, run_verification, verify


@pytest.fixture(scope="module")
def full_report():
    return run_verification("all", trials=40, seed=42)


class TestRun:
    def test_all_suites_pass_at_small_scale(self, full_report):
        assert full_report["passed"]
        assert [r["suite"] for r in full_report["suites"]] == list(SUITES)
        for suite_report in full_report["suites"]:
            assert suite_report["passed"]
            for check in suite_report["checks"]:
                assert check["passed"], check

    def test_report_echoes_its_arguments(self, full_report):
        assert full_report["suite"] == "all"
        assert full_report["trials"] == 40
        assert full_report["seed"] == 42

    def test_report_is_json_safe_and_reproducible(self, full_report):
        first = json.dumps(full_report, sort_keys=True)
        second = json.dumps(run_verification("all", trials=40, seed=42), sort_keys=True)
        assert first == second

    def test_seed_changes_the_measured_values(self, full_report):
        other = run_verification("all", trials=40, seed=43)
        assert json.dumps(other) != json.dumps(full_report)
        assert other["passed"]

    @pytest.mark.parametrize("suite", SUITES)
    def test_solo_suite_matches_its_slice_of_the_full_run(self, suite, full_report):
        solo = run_verification(suite, trials=40, seed=42)
        assert solo["passed"]
        assert len(solo["suites"]) == 1
        merged = full_report["suites"][SUITES.index(suite)]
        assert json.dumps(solo["suites"][0]) == json.dumps(merged)

    def test_units_are_the_sandwich_blocks_then_whole_suites(self):
        assert verify._units(SUITES, 120) == [
            ("bounds", 0, 50), ("bounds", 1, 50), ("bounds", 2, 20),
            *((name, None, 120) for name in SUITES),
        ]
        assert verify._units(("margins",), 120) == [("margins", None, 120)]

    @pytest.mark.parametrize("trials,sizes", [(1, [1]), (50, [50]), (120, [50, 50, 20])])
    def test_sandwich_block_b_draws_from_child_b_of_the_bounds_stream(
        self, monkeypatch, trials, sizes
    ):
        """Child b of the bounds suite's SeedSequence has spawn key (0, b)
        whatever the block count, so each block's stream is built here
        without spawn; the rest of the suite draws from the suite's own.  On
        one CPU every block is drawn in this process, where it is counted."""
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 1)
        blocks = [
            verify._sandwich_block(
                np.random.default_rng(np.random.SeedSequence(9, spawn_key=(0, b))), size
            )
            for b, size in enumerate(sizes)
        ]
        rest = verify._run_bounds(np.random.default_rng(np.random.SeedSequence(9, spawn_key=(0,))), trials)
        real_block, drawn = verify._sandwich_block, []

        def counting_block(rng, trials):
            drawn.append(trials)
            return real_block(rng, trials)

        monkeypatch.setattr(verify, "_sandwich_block", counting_block)
        sandwich, *checks = verify.run("bounds", trials, 9)["suites"][0]["checks"]
        assert drawn == sizes
        assert sandwich["detectors"] == trials
        assert sandwich["violations"] == sum(v for v, _ in blocks) == 0
        assert sandwich["min_slack"] == min(s for _, s in blocks)
        assert checks == rest["checks"]

    @staticmethod
    def drawing_units(monkeypatch):
        """On one CPU, make every unit record four words drawn from its
        generator and pass: the sandwich blocks' in block order under
        "sandwich", each whole suite's under its name."""
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 1)
        drawn = {"sandwich": []}

        def block(rng, trials):
            drawn["sandwich"].append(rng.integers(2**63, size=4).tolist())
            return 0, 0.0

        def suite(name):
            def runner(rng, trials):
                drawn[name] = rng.integers(2**63, size=4).tolist()
                return {"suite": name, "passed": True, "checks": []}

            return runner

        monkeypatch.setattr(verify, "_sandwich_block", block)
        for name in SUITES:
            monkeypatch.setitem(verify._RUNNERS, name, suite(name))
        return drawn

    @pytest.mark.parametrize("seed", [0, 42, 2024])
    @pytest.mark.parametrize("trials", [120, 1000, 10_000])
    def test_each_unit_draws_from_its_child_of_the_seed_tree(self, monkeypatch, seed, trials):
        """Sandwich block b draws what child b of the bounds suite's child
        draws, and each whole suite what its own child draws, however many
        blocks the run has."""
        drawn = self.drawing_units(monkeypatch)
        verify.run("all", trials, seed)
        suites = np.random.SeedSequence(seed).spawn(len(SUITES))
        blocks = suites[SUITES.index("bounds")].spawn(-(-trials // verify._SANDWICH_BLOCK))

        def words(child):
            return np.random.default_rng(child).integers(2**63, size=4).tolist()

        assert drawn["sandwich"] == [words(child) for child in blocks]
        for name, child in zip(SUITES, suites):
            assert drawn[name] == words(child), name

    @pytest.mark.parametrize("trials", [100, 10_000])
    def test_each_unit_makes_one_seed_sequence(self, monkeypatch, trials):
        """A unit makes its SeedSequence from its spawn key, so a run makes
        one per unit, not one per block for every block."""
        self.drawing_units(monkeypatch)

        class CountingSeedSequence(np.random.SeedSequence):
            made = 0

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                type(self).made += 1

        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        verify.run("bounds", trials, 7)
        assert CountingSeedSequence.made == len(verify._units(("bounds",), trials))

    def test_sandwich_partials_merge_exactly(self):
        """Counts add and slacks take the min, in whichever blocks they fall."""
        parts = verify._units(("bounds",), 120)
        rest = {"suite": "bounds", "passed": True, "checks": [{"name": "rest", "passed": True}]}
        (bounds,) = verify._merge(parts, [(1, 0.5), (0, -0.25), (2, 0.125), rest])
        sandwich = bounds["checks"][0]
        assert (sandwich["detectors"], sandwich["violations"], sandwich["min_slack"]) == (120, 3, -0.25)
        assert (bounds["passed"], sandwich["passed"]) == (False, False)
        assert bounds["checks"][1:] == rest["checks"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValidationError, match="suite"):
            run_verification("everything", trials=10, seed=0)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_nonpositive_trials_rejected(self, trials):
        with pytest.raises(ValidationError, match="trials"):
            run_verification("bounds", trials=trials, seed=0)

    @pytest.mark.parametrize("trials", [10**6 + 1, 10**30])
    def test_trials_past_the_cap_rejected_before_any_unit_is_built(self, monkeypatch, trials):
        assert verify.plan("all", 10**6, 0) == SUITES
        monkeypatch.setattr(verify, "_units", lambda *args: pytest.fail("built the unit list"))
        with pytest.raises(ValidationError, match=f"trials must be <= 1000000, got {trials}$"):
            run_verification("all", trials=trials, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            run_verification("bounds", trials=1, seed=-1)

    # both seeds reach a set where the binary bound is tight; its slack is
    # counted exactly, so it is 0.0, not the -1.1e-16 / -5.6e-17 of 1 - k/n
    @pytest.mark.parametrize("seed", [1, 42])
    def test_tight_binary_bound_has_zero_slack(self, seed):
        report = run_verification("estimators", trials=1000, seed=seed)
        checks = {c["name"]: c for c in report["suites"][0]["checks"]}
        assert checks["binary_bound"]["worst_slack"] == 0.0


class TestDeal:
    """run deals its units: the prefix up to about half their estimated cost
    runs in this process and the rest in one forked child."""

    def test_a_run_forks_once_and_gives_the_one_cpu_report(self, monkeypatch, forks):
        reports = []
        for cpus in (1, 2):
            monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
            reports.append(run_verification("all", 120, 9))
        assert len(forks) == 1
        assert reports[0] == reports[1]
        with pytest.raises(ChildProcessError):  # the child was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("suite", [name for name in SUITES if name != "bounds"])
    def test_a_one_unit_suite_forks_nothing(self, monkeypatch, suite):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a one-unit run"))
        assert run_verification(suite, 20, 9)["passed"]

    def test_the_parent_runs_only_its_prefix_when_the_child_succeeds(self, monkeypatch, forks):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 1)
        expected = run_verification("all", 120, 9)
        real_unit, parent, here = verify._run_unit, os.getpid(), []

        def recording_unit(unit, seed):
            if os.getpid() == parent:
                here.append(unit)
            return real_unit(unit, seed)

        monkeypatch.setattr(verify, "_run_unit", recording_unit)
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
        assert run_verification("all", 120, 9) == expected
        units = verify._units(SUITES, 120)
        assert here == units[: verify._cut(units)] == [("bounds", 0, 50), ("bounds", 1, 50)]
        assert len(forks) == 1


TRIALS = 50


def corrupt_kernel(monkeypatch, name, shape, corrupt):
    """Patch verify's kernel ``name`` so that a call whose value has
    ``shape`` hands its value and gradient to ``corrupt`` before returning
    them."""
    real = getattr(verify, name)

    def kernel(z, *args, **kwargs):
        value, grad = real(z, *args, **kwargs)
        if value.shape == shape:
            corrupt(value, grad)
        return value, grad

    monkeypatch.setattr(verify, name, kernel)


def gradient_checks():
    report = verify.run("gradients", TRIALS, 0)["suites"][0]
    return {c["name"]: c for c in report["checks"]}


# a gradient check's kernel call gives values of shape (3, trials), with rows
# f, f + h and f - h; the convexity check's (trials, 3), with columns
# f1 <= f2 <= f3, and the direction check's (trials, 2, 2)
GRADIENT_KERNELS = [("_ecm_value_grad", "ecm_gradients"), ("_focal_value_grad", "focal_ecm_gradients")]


class TestFailuresAfterBatching:
    @pytest.mark.parametrize("kernel,check", GRADIENT_KERNELS)
    def test_a_gradient_off_by_1e_3_relative_fails_one_trial(self, monkeypatch, kernel, check):
        def corrupt(value, grad):
            grad[0, np.argmax(np.abs(grad[0]))] *= 1.0 + 1e-3

        corrupt_kernel(monkeypatch, kernel, (3, TRIALS), corrupt)
        checks = gradient_checks()
        assert (checks[check]["passed"], checks[check]["failures"], checks[check]["non_finite"]) == (
            False, 1, 0,
        )
        assert all(c["passed"] for name, c in checks.items() if name != check)

    @pytest.mark.parametrize("kernel,check", GRADIENT_KERNELS)
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("at", [0, TRIALS, 3 * TRIALS - 1], ids=["f", "f+h", "f-h"])
    def test_a_non_finite_value_counts_once(self, monkeypatch, kernel, check, bad, at):
        def corrupt(value, grad):
            value.flat[at] = bad

        corrupt_kernel(monkeypatch, kernel, (3, TRIALS), corrupt)
        checks = gradient_checks()
        assert (checks[check]["passed"], checks[check]["failures"], checks[check]["non_finite"]) == (
            False, 1, 1,
        )

    def test_a_non_finite_gradient_counts_once(self, monkeypatch):
        def corrupt(value, grad):
            grad[0, 7] = math.nan

        corrupt_kernel(monkeypatch, "_ecm_value_grad", (3, TRIALS), corrupt)
        check = gradient_checks()["ecm_gradients"]
        assert (check["failures"], check["non_finite"]) == (1, 1)

    def test_a_negative_value_fails_its_trial(self, monkeypatch):
        def corrupt(value, grad):
            value[1, 3] = -1.0

        corrupt_kernel(monkeypatch, "_ecm_value_grad", (3, TRIALS), corrupt)
        check = gradient_checks()["ecm_gradients"]
        assert (check["passed"], check["failures"], check["non_finite"]) == (False, 1, 0)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda value, grad: value.__setitem__((0, 1), value[0, [0, 2]].max() + 1e-6),
            lambda value, grad: value.__setitem__((0, 1), math.nan),
            lambda value, grad: value.__setitem__((0, 2), math.inf),
            lambda value, grad: value.__setitem__((0, 0), -1.0),
        ],
        ids=["above-the-chord", "nan", "inf", "negative"],
    )
    def test_a_value_that_is_not_convex_fails_convexity(self, monkeypatch, corrupt):
        corrupt_kernel(monkeypatch, "_ecm_value_grad", (TRIALS, 3), corrupt)
        checks = gradient_checks()
        assert not checks["ecm_convex_in_f"]["passed"]
        assert all(c["passed"] for name, c in checks.items() if name != "ecm_convex_in_f")

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_a_non_finite_gradient_fails_the_direction_check(self, monkeypatch, bad):
        def corrupt(value, grad):
            grad[0, 1, 1] = bad

        corrupt_kernel(monkeypatch, "_ecm_value_grad", (TRIALS, 2, 2), corrupt)
        checks = gradient_checks()
        assert not checks["rare_class_gradient_direction"]["passed"]
        assert all(c["passed"] for name, c in checks.items() if name != "rare_class_gradient_direction")
