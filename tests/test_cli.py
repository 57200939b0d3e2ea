import json
import math
import subprocess
import sys

import pytest

from ecmargin import __version__
from ecmargin.cli import main

EXAMPLE_SCORES = "score,label\n0.9,1\n0.4,1\n0.5,0\n0.1,0\n"
COUNTS_JSON = json.dumps(
    {
        "categories": [
            {"id": 1, "name": "rabbit", "instance_count": 16},
            {"id": 2, "name": "fox", "instance_count": 81},
            {"id": 3, "name": "deer", "instance_count": 4607},
        ],
        "background_ratio": 1.0,
    }
)
# ties within and across sides, a top score with empty tails, long float reprs
TIED_SCORES = (
    "score,label\n0.9,1\n0.3,0\n0.7,1\n0.3,1\n0.55,0\n0.7,0\n0.1,0\n0.3,0\n"
    "0.123456789,1\n1,0\n0,1\n"
)
GOLDEN_PR_CURVE = (
    '# {"alpha":3.0,"command":"metrics","format":"json","out":null,"pr_curve":"pr.csv",'
    '"scores":"scores.csv","seed":0,"ties":"half"}\n'
    "threshold,recall,precision\n"
    "0.9,0.0,0.0\n"
    "0.7,0.2,0.28571428571428575\n"
    "0.55,0.4,0.28571428571428575\n"
    "0.3,0.4,0.2105263157894737\n"
    "0.123456789,0.6,0.1935483870967742\n"
    "0.1,0.8,0.24242424242424246\n"
    "0.0,0.8,0.2105263157894737\n"
)
GOLDEN_METRICS_REPORT = """\
{
  "alpha": 3.0,
  "average_precision": 0.25148024018991766,
  "config": {
    "alpha": 3.0,
    "command": "metrics",
    "format": "json",
    "out": null,
    "pr_curve": "pr.csv",
    "scores": "scores.csv",
    "seed": 0,
    "ties": "half"
  },
  "det_error": 0.7485197598100823,
  "n_minus": 6,
  "n_plus": 5,
  "ranking_error": 0.5833333333333334
}
"""
TRAIN_CONFIG = {
    "num_classes": 3,
    "total_samples": 400,
    "feature_dim": 4,
    "epochs": 4,
    "seed": 3,
    "checkpoint_every": 2,
}


@pytest.fixture
def scores_file(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(EXAMPLE_SCORES)
    return str(path)


@pytest.fixture
def counts_file(tmp_path):
    path = tmp_path / "counts.json"
    path.write_text(COUNTS_JSON)
    return str(path)


@pytest.fixture
def train_config_file(tmp_path):
    path = tmp_path / "train.json"
    path.write_text(json.dumps(TRAIN_CONFIG))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMarginsCommand:
    def test_json_document_lists_every_class(self, capsys, counts_file):
        code, out, err = run_cli(capsys, ["margins", "--counts", counts_file])
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["config"]["command"] == "margins"
        assert doc["config"]["background_count"] == 4704
        assert [c["id"] for c in doc["classes"]] == [1, 2, 3]
        rabbit = doc["classes"][0]
        assert rabbit["n_plus"] == 16
        assert rabbit["n_minus"] == 4704 - 16 + 4704
        assert abs(rabbit["gamma_plus"] + rabbit["gamma_minus"] - 1.0) <= 1e-9
        assert abs(1.0 / rabbit["w_plus"] - rabbit["gamma_plus"]) <= 1e-9

    def test_csv_rows_match_the_json_classes(self, capsys, counts_file):
        code, json_out, _ = run_cli(capsys, ["margins", "--counts", counts_file])
        assert code == 0
        code, csv_out, _ = run_cli(
            capsys, ["margins", "--counts", counts_file, "--format", "csv"]
        )
        assert code == 0
        comment, header, *rows = csv_out.strip().split("\n")
        echoed = json.loads(comment.removeprefix("# "))
        assert echoed["command"] == "margins"
        assert echoed["format"] == "csv"
        assert header.split(",")[:3] == ["id", "n_plus", "n_minus"]
        classes = json.loads(json_out)["classes"]
        assert len(rows) == len(classes)
        for row, cls in zip(rows, classes):
            cells = row.split(",")
            assert int(cells[0]) == cls["id"]
            assert float(cells[4]) == cls["gamma_plus"]

    def test_background_ratio_flag_overrides_the_file(self, capsys, counts_file):
        code, out, _ = run_cli(
            capsys,
            ["margins", "--counts", counts_file, "--background-ratio", "0"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["background_count"] == 0
        assert doc["classes"][0]["n_minus"] == 4704 - 16

    def test_negative_ratio_rejected(self, capsys, counts_file):
        code, _, err = run_cli(
            capsys,
            ["margins", "--counts", counts_file, "--background-ratio", "-1"],
        )
        assert code == 2
        assert "error:" in err and ">= 0" in err

    def test_missing_counts_file_is_an_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["margins", "--counts", str(tmp_path / "absent.json")]
        )
        assert code == 2
        assert "error:" in err


class TestBoundsCommand:
    def test_point_envelope_values(self, capsys):
        code, out, _ = run_cli(capsys, ["bounds", "--alpha", "1", "--r", "0.5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["ap_lower"] == (8.0 / 9.0) / 2.0
        assert doc["ap_upper"] == 1.0 + math.log1p(-0.25)
        assert doc["det_lower"] == 1.0 - doc["ap_upper"]
        assert doc["det_upper"] == 1.0 - doc["ap_lower"]
        assert doc["slope_mode"] == "upper"
        assert doc["config"]["alpha"] == 1.0

    def test_bad_alpha_exits_two_and_names_the_value(self, capsys):
        code, out, err = run_cli(capsys, ["bounds", "--alpha", "-1", "--r", "0.5"])
        assert code == 2
        assert out == ""
        assert "error: alpha must be a positive finite real, got -1.0" in err

    def test_requires_a_point_or_a_curve(self, capsys):
        code, _, err = run_cli(capsys, ["bounds", "--alpha", "1"])
        assert code == 2
        assert "--emit-curve" in err

    def test_out_without_a_point_is_rejected(self, capsys, tmp_path):
        curve = tmp_path / "curve.csv"
        code, _, err = run_cli(
            capsys,
            [
                "bounds",
                "--alpha",
                "1",
                "--emit-curve",
                str(curve),
                "--out",
                str(tmp_path / "point.json"),
            ],
        )
        assert code == 2
        assert "nothing to write" in err

    def test_curve_file_covers_the_unit_interval(self, capsys, tmp_path):
        curve = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            capsys, ["bounds", "--alpha", "2", "--emit-curve", str(curve)]
        )
        assert code == 0
        assert out == ""
        lines = curve.read_text().strip().split("\n")
        assert len(lines) == 103
        assert lines[0].startswith("# {")
        assert lines[1] == "r,ap_lower,ap_upper,det_lower,det_upper"
        first = lines[2].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0 and float(first[2]) == 1.0
        assert float(lines[-1].split(",")[0]) == 1.0

    def test_identical_invocations_produce_identical_bytes(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        argv = ["bounds", "--alpha", "3", "--emit-curve", str(path)]
        run_cli(capsys, argv)
        first = path.read_bytes()
        run_cli(capsys, argv)
        assert path.read_bytes() == first


class TestMetricsCommand:
    def test_worked_example(self, capsys, scores_file):
        code, out, _ = run_cli(
            capsys, ["metrics", "--scores", scores_file, "--alpha", "1"]
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["average_precision"] - 5.0 / 6.0) <= 1e-15
        assert doc["ranking_error"] == 0.25
        assert doc["det_error"] == 1.0 - doc["average_precision"]
        assert doc["n_plus"] == 2 and doc["n_minus"] == 2
        assert doc["config"]["ties"] == "half"

    def test_tie_conventions_differ_on_tied_scores(self, capsys, tmp_path):
        tied = tmp_path / "tied.csv"
        tied.write_text("score,label\n0.5,1\n0.5,0\n")
        _, half_out, _ = run_cli(
            capsys, ["metrics", "--scores", str(tied), "--alpha", "1"]
        )
        _, strict_out, _ = run_cli(
            capsys,
            ["metrics", "--scores", str(tied), "--alpha", "1", "--ties", "strict"],
        )
        assert json.loads(half_out)["ranking_error"] == 0.5
        assert json.loads(strict_out)["ranking_error"] == 0.0

    def test_pr_curve_file_drops_undefined_thresholds(self, capsys, scores_file, tmp_path):
        curve = tmp_path / "pr.csv"
        code, _, _ = run_cli(
            capsys,
            [
                "metrics",
                "--scores",
                scores_file,
                "--alpha",
                "1",
                "--pr-curve",
                str(curve),
            ],
        )
        assert code == 0
        lines = curve.read_text().strip().split("\n")
        assert lines[1] == "threshold,recall,precision"
        rows = [line.split(",") for line in lines[2:]]
        assert [float(r[0]) for r in rows] == [0.5, 0.4, 0.1]
        assert [float(r[1]) for r in rows] == [0.5, 0.5, 1.0]
        assert float(rows[0][2]) == 1.0

    def test_nonpositive_alpha_rejected(self, capsys, scores_file):
        code, _, err = run_cli(
            capsys, ["metrics", "--scores", scores_file, "--alpha", "0"]
        )
        assert code == 2
        assert "--alpha must be > 0" in err

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_nonfinite_alpha_rejected_before_the_file_is_read(self, capsys, tmp_path, alpha):
        missing = tmp_path / "missing.csv"
        code, out, err = run_cli(
            capsys, ["metrics", "--scores", str(missing), "--alpha", alpha]
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --alpha must be > 0 and finite, got {alpha}\n"

    def test_report_and_pr_curve_bytes_are_golden(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "scores.csv").write_text(TIED_SCORES)
        code, out, err = run_cli(
            capsys,
            ["metrics", "--scores", "scores.csv", "--alpha", "3", "--pr-curve", "pr.csv"],
        )
        assert (code, err) == (0, "")
        assert out == GOLDEN_METRICS_REPORT
        assert (tmp_path / "pr.csv").read_bytes() == GOLDEN_PR_CURVE.encode()

    def test_malformed_scores_rejected_with_line_number(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("score,label\noops,1\n")
        code, _, err = run_cli(capsys, ["metrics", "--scores", str(bad), "--alpha", "1"])
        assert code == 2
        assert "line" in err


class TestVerifyCommand:
    def test_small_run_passes_and_echoes_config(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--suite", "margins", "--trials", "25", "--seed", "7"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["config"]["suite"] == "margins"
        assert doc["config"]["trials"] == 25
        assert doc["config"]["seed"] == 7
        assert doc["suites"][0]["suite"] == "margins"

    def test_output_is_byte_deterministic(self, capsys):
        argv = ["verify", "--suite", "estimators", "--trials", "25", "--seed", "1"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_out_writes_the_same_document_it_prints(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            [
                "verify",
                "--suite",
                "margins",
                "--trials",
                "10",
                "--out",
                str(path),
            ],
        )
        assert code == 0
        assert path.read_text() == out

    def test_csv_format_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, ["verify", "--suite", "margins", "--trials", "5", "--format", "csv"]
        )
        assert code == 2
        assert "json only" in err


class TestTrainCommand:
    def test_small_experiment_passes_its_audit(self, capsys, train_config_file):
        code, out, _ = run_cli(capsys, ["train", "--config", train_config_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["bound_audit"] is True
        assert 0.0 < doc["mean_ap"] <= 1.0
        assert len(doc["per_class"]) == 3
        assert doc["config"]["synthetic"]["seed"] == 3
        assert doc["config"]["train"]["seed"] == 3
        assert doc["config"]["train"]["epochs"] == 4
        assert len(doc["loss_curve"]) == 4

    def test_output_is_byte_deterministic(self, capsys, train_config_file):
        _, first, _ = run_cli(capsys, ["train", "--config", train_config_file])
        _, second, _ = run_cli(capsys, ["train", "--config", train_config_file])
        assert first == second

    def test_seed_flag_overrides_the_config_file(self, capsys, train_config_file):
        code, out, _ = run_cli(
            capsys, ["train", "--config", train_config_file, "--seed", "9"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["synthetic"]["seed"] == 9
        assert doc["config"]["train"]["seed"] == 9

    def test_train_seed_key_splits_the_two_streams(self, capsys, tmp_path):
        config = dict(TRAIN_CONFIG, train_seed=5)
        path = tmp_path / "split.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, ["train", "--config", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["synthetic"]["seed"] == 3
        assert doc["config"]["train"]["seed"] == 5

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(TRAIN_CONFIG, bogus=1)))
        code, _, err = run_cli(capsys, ["train", "--config", str(path)])
        assert code == 2
        assert "unknown config keys: bogus" in err

    def test_loss_curve_file_has_one_row_per_epoch(self, capsys, train_config_file, tmp_path):
        curve = tmp_path / "loss.csv"
        code, _, _ = run_cli(
            capsys,
            ["train", "--config", train_config_file, "--loss-curve", str(curve)],
        )
        assert code == 0
        lines = curve.read_text().strip().split("\n")
        assert lines[0].startswith("# {")
        assert lines[1] == "epoch,mean_loss"
        assert len(lines) == 2 + 4
        assert [int(line.split(",")[0]) for line in lines[2:]] == [1, 2, 3, 4]

    def test_csv_format_rejected(self, capsys, train_config_file):
        code, _, err = run_cli(
            capsys, ["train", "--config", train_config_file, "--format", "csv"]
        )
        assert code == 2
        assert "json only" in err

    def test_malformed_config_json_rejected(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["train", "--config", str(path)])
        assert code == 2
        assert "config file" in err


class TestTopLevel:
    def test_version_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ecmargin.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"ecmargin {__version__}"

    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--alpha", "1", "--r", "0.5", "--colour", "red"])
        assert exc.value.code == 2
