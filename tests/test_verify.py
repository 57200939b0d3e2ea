import json

import pytest

from ecmargin import SUITES, ValidationError, run_verification, verify


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

    def test_run_suite_gives_its_slice_of_the_full_run(self, full_report):
        reports = [verify.run_suite(name, 40, 42) for name in reversed(SUITES)]
        assert verify.report("all", 40, 42, reports[::-1]) == full_report

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValidationError, match="suite"):
            run_verification("everything", trials=10, seed=0)

    @pytest.mark.parametrize("name", ["all", "everything"])
    def test_run_suite_runs_one_named_suite(self, name):
        with pytest.raises(ValidationError, match="suite must be one of"):
            verify.run_suite(name, trials=10, seed=0)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_nonpositive_trials_rejected(self, trials):
        with pytest.raises(ValidationError, match="trials"):
            run_verification("bounds", trials=trials, seed=0)

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
