import json
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ecmargin import (
    NumericalError,
    PrecisionRecallCurve,
    ScoreSet,
    __version__,
    _fork,
    cli,
    load_scores,
    pr_curve,
    sandbox,
    slope_m,
    verify,
)
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
# stdout of `bounds --alpha A --r 0.3 --mode M` (key "point/A/M"), the
# `bounds --alpha A --emit-curve curve.csv` file ("curve/A") and stdout of
# `verify --suite bounds --trials 50 --seed 3` ("verify_bounds"), recorded from
# the scalar, bisection-based bounds; the alphas stay away from the branch
# crossing at alpha*R = 1/6, so the closed-form meet point keeps every byte.
# "verify_all" is stdout of VERIFY_ALL_ARGV, recorded while verify ran its
# suites one after another in one process.
GOLDEN_BOUNDS = json.loads((Path(__file__).parent / "golden_bounds.json").read_text())
VERIFY_ALL_ARGV = ["verify", "--suite", "all", "--trials", "20", "--seed", "5"]
# stdout of each command below, run from a directory holding counts.json
# (COUNTS_JSON) and scores.csv (TIED_SCORES), and under "<key>/out" the file
# that the same command plus `--out doc.out` writes; recorded before margins,
# bounds and metrics shared one document writer
GOLDEN_DOCUMENTS = json.loads((Path(__file__).parent / "golden_documents.json").read_text())
GOLDEN_DOCUMENT_ARGV = {
    "margins/json": ["margins", "--counts", "counts.json"],
    "margins/csv": ["margins", "--counts", "counts.json", "--format", "csv"],
    "bounds/csv": ["bounds", "--alpha", "3", "--r", "0.2", "--mode", "meet", "--format", "csv"],
    "metrics/csv": ["metrics", "--scores", "scores.csv", "--alpha", "3", "--format", "csv"],
}
TRAIN_CONFIG = {
    "num_classes": 3,
    "total_samples": 400,
    "feature_dim": 4,
    "epochs": 4,
    "seed": 3,
    "checkpoint_every": 2,
}

# train stdout for GOLDEN_TRAIN_CONFIG plus "loss", run from the config's directory;
# focal_ecm's first loss_curve value moved by 1 ulp when a linear head's
# classes began to train in two blocks, whose loss sums add per epoch
GOLDEN_TRAIN_CONFIG = {
    "num_classes": 2,
    "total_samples": 200,
    "feature_dim": 4,
    "epochs": 2,
    "seed": 3,
    "checkpoint_every": 2,
}
GOLDEN_TRAIN_REPORTS = {
    "ecm": """\
{
  "bound_audit": true,
  "config": {
    "command": "train",
    "config_file": "train.json",
    "format": "json",
    "loss_curve": null,
    "out": null,
    "seed": null,
    "synthetic": {
      "background_fraction": 0.5,
      "class_separation": 2.0,
      "feature_dim": 4,
      "noise_sigma": 1.0,
      "num_classes": 2,
      "seed": 3,
      "total_samples": 200,
      "zipf_exponent": 1.5
    },
    "train": {
      "batch_size": 256,
      "checkpoint_every": 2,
      "epochs": 2,
      "hidden": 32,
      "holdout_fraction": 0.0,
      "learning_rate": 0.1,
      "loss": "ecm",
      "m_mode": "unit",
      "model": "linear",
      "seed": 3,
      "temperature_head": false
    }
  },
  "loss_curve": [
    [
      1,
      0.6116698902153829
    ],
    [
      2,
      0.5810601335405643
    ]
  ],
  "mean_ap": 0.5259713366644653,
  "per_class": [
    {
      "ap": 0.731889699431,
      "ap_lower": 0.6136605591976243,
      "ap_upper": 0.9149372094310637,
      "class_id": 0,
      "det_error": 0.268110300569,
      "n_minus": 126,
      "n_plus": 74,
      "ranking_error": 0.1317031317031317,
      "within_bounds": true
    },
    {
      "ap": 0.32005297389793047,
      "ap_lower": 0.29000429000428996,
      "ap_upper": 0.8644047902270167,
      "class_id": 1,
      "det_error": 0.6799470261020695,
      "n_minus": 174,
      "n_plus": 26,
      "ranking_error": 0.15428824049513704,
      "within_bounds": true
    }
  ]
}
""",
    "bce": """\
{
  "bound_audit": true,
  "config": {
    "command": "train",
    "config_file": "train.json",
    "format": "json",
    "loss_curve": null,
    "out": null,
    "seed": null,
    "synthetic": {
      "background_fraction": 0.5,
      "class_separation": 2.0,
      "feature_dim": 4,
      "noise_sigma": 1.0,
      "num_classes": 2,
      "seed": 3,
      "total_samples": 200,
      "zipf_exponent": 1.5
    },
    "train": {
      "batch_size": 256,
      "checkpoint_every": 2,
      "epochs": 2,
      "hidden": 32,
      "holdout_fraction": 0.0,
      "learning_rate": 0.1,
      "loss": "bce",
      "m_mode": "unit",
      "model": "linear",
      "seed": 3,
      "temperature_head": false
    }
  },
  "loss_curve": [
    [
      1,
      0.6931471805599452
    ],
    [
      2,
      0.6607694790328779
    ]
  ],
  "mean_ap": 0.5144945427867971,
  "per_class": [
    {
      "ap": 0.734288918559087,
      "ap_lower": 0.6125793550913108,
      "ap_upper": 0.9144399351333965,
      "class_id": 0,
      "det_error": 0.26571108144091304,
      "n_minus": 126,
      "n_plus": 74,
      "ranking_error": 0.13245388245388245,
      "within_bounds": true
    },
    {
      "ap": 0.2947001670145071,
      "ap_lower": 0.2651760321663234,
      "ap_upper": 0.8453420129772371,
      "class_id": 1,
      "det_error": 0.7052998329854929,
      "n_minus": 174,
      "n_plus": 26,
      "ranking_error": 0.17572944297082227,
      "within_bounds": true
    }
  ]
}
""",
    "focal_ecm": """\
{
  "bound_audit": true,
  "config": {
    "command": "train",
    "config_file": "train.json",
    "format": "json",
    "loss_curve": null,
    "out": null,
    "seed": null,
    "synthetic": {
      "background_fraction": 0.5,
      "class_separation": 2.0,
      "feature_dim": 4,
      "noise_sigma": 1.0,
      "num_classes": 2,
      "seed": 3,
      "total_samples": 200,
      "zipf_exponent": 1.5
    },
    "train": {
      "batch_size": 256,
      "checkpoint_every": 2,
      "epochs": 2,
      "hidden": 32,
      "holdout_fraction": 0.0,
      "learning_rate": 0.1,
      "loss": "focal_ecm",
      "m_mode": "unit",
      "model": "linear",
      "seed": 3,
      "temperature_head": false
    }
  },
  "loss_curve": [
    [
      1,
      0.07149651930802685
    ],
    [
      2,
      0.06974926830425314
    ]
  ],
  "mean_ap": 0.5161405354070062,
  "per_class": [
    {
      "ap": 0.7297753128153058,
      "ap_lower": 0.6042149398653867,
      "ap_upper": 0.9105277183251328,
      "class_id": 0,
      "det_error": 0.27022468718469417,
      "n_minus": 126,
      "n_plus": 74,
      "ranking_error": 0.13835263835263836,
      "within_bounds": true
    },
    {
      "ap": 0.3025057579987066,
      "ap_lower": 0.27263561201855213,
      "ap_upper": 0.8514401465383659,
      "class_id": 1,
      "det_error": 0.6974942420012934,
      "n_minus": 174,
      "n_plus": 26,
      "ranking_error": 0.16887709991158267,
      "within_bounds": true
    }
  ]
}
""",
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


def assert_input_error(code, out, err, message):
    """Exit 2 with nothing on stdout and one error line containing message."""
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert message in err


# one field past the csv module's default field_size_limit of 131 072 characters
LONG_FIELD = "a" * 200_000
OVERSIZED_COUNTS = {
    "data row": ("id,name,instance_count\n0," + LONG_FIELD + ",3\n", 2),
    "header": ("id," + LONG_FIELD + ",instance_count\n0,a,3\n", 1),
}
OVERSIZED_SCORES = {
    "data row": ("score,label\n0.5," + LONG_FIELD + "\n0.2,0\n", 2),
    "header": ("score," + LONG_FIELD + "\n0.5,1\n0.2,0\n", 1),
}


def assert_oversized_field_rejected(capsys, tmp_path, argv, path, text, line, out_flag):
    """Exit 2 with exactly one error line naming the file and record, also
    with --out."""
    path.write_text(text)
    if out_flag:
        argv = argv + ["--out", str(tmp_path / "out.json")]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: line {line}: field larger than field limit (131072)\n"


def assert_late_bad_byte_rejected(capsys, argv, path, header, row):
    """A byte that is not UTF-8 at the start of line 3002, past the first
    8192 bytes, is reported at its offset in the file and on its line."""
    prefix = (header + 3000 * row).encode()
    assert len(prefix) > 8192
    path.write_bytes(prefix + b"\xff" + row.encode())
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: {path}: line 3002: 'utf-8' codec can't decode byte 0xff"
        f" in position {len(prefix)}: invalid start byte\n"
    )


class TestDocumentBytes:
    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize("key", sorted(GOLDEN_DOCUMENT_ARGV))
    def test_bytes_are_golden(self, capsys, tmp_path, monkeypatch, key, to_file):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "counts.json").write_text(COUNTS_JSON)
        (tmp_path / "scores.csv").write_text(TIED_SCORES)
        argv = GOLDEN_DOCUMENT_ARGV[key] + (["--out", "doc.out"] if to_file else [])
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        if to_file:
            assert out == ""
            assert (tmp_path / "doc.out").read_bytes() == GOLDEN_DOCUMENTS[f"{key}/out"].encode()
        else:
            assert out == GOLDEN_DOCUMENTS[key]


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

    def test_bool_background_ratio_in_the_file_rejected(self, capsys, tmp_path):
        # JSON true loads as a Python bool, and a bool is an int
        path = tmp_path / "counts.json"
        cats = [{"id": i, "name": "c", "instance_count": n} for i, n in ((1, 3), (2, 5))]
        path.write_text(json.dumps({"categories": cats, "background_ratio": True}))
        code, out, err = run_cli(capsys, ["margins", "--counts", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {path}: background_ratio must be a number, got True\n"

    @pytest.mark.parametrize("ratio", ["-1", "nan", "inf"])
    def test_negative_ratio_rejected(self, capsys, counts_file, ratio):
        code, out, err = run_cli(
            capsys,
            ["margins", "--counts", counts_file, "--background-ratio", ratio],
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --background-ratio must be >= 0 and finite, got {float(ratio)}\n"

    # 1e64: n_minus/n_plus passes 2^212 and gamma_plus rounds to 1;
    # 1e308: ratio * foreground count overflows a float
    @pytest.mark.parametrize(
        "ratio,message",
        [("1e64", "margins are not representable at alpha"), ("1e308", "overflows a float")],
    )
    def test_extreme_ratio_rejected(self, capsys, counts_file, ratio, message):
        code, out, err = run_cli(
            capsys,
            ["margins", "--counts", counts_file, "--background-ratio", ratio],
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    # a 401-digit count; two counts whose sum passes the float maximum; and a
    # class whose negatives (the rest plus as much background) pass it
    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    @pytest.mark.parametrize(
        "counts,message",
        [
            ((10**400, 5), "instance counts through class 1 sum past the float range"),
            ((10**308, 10**308), "instance counts through class 2 sum past the float range"),
            ((1, 10**308), "class 1 has more negatives than fit a float"),
        ],
        ids=["401_digits", "sum", "negatives"],
    )
    def test_counts_beyond_the_float_range_rejected(
        self, capsys, tmp_path, suffix, counts, message
    ):
        path = tmp_path / f"counts{suffix}"
        if suffix == ".json":
            cats = [{"id": i, "name": "c", "instance_count": n} for i, n in enumerate(counts, 1)]
            path.write_text(json.dumps({"categories": cats}))
        else:
            rows = "".join(f"{i},c,{n}\n" for i, n in enumerate(counts, 1))
            path.write_text("id,name,instance_count\n" + rows)
        argv = ["margins", "--counts", str(path), "--background-ratio", "1"]
        assert_input_error(*run_cli(capsys, argv), message)

    @pytest.mark.parametrize(
        "name,data,where",
        [
            (
                "counts.json",
                b'{"categories": [{"id": 1, "name": "\xff", "instance_count": 3}]}',
                "",
            ),
            ("counts.csv", b"id,name,instance_count\n1,\xff,3\n2,b,4\n", "line 2: "),
        ],
        ids=["json", "csv"],
    )
    def test_counts_file_that_is_not_utf8_rejected(self, capsys, tmp_path, name, data, where):
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = run_cli(capsys, ["margins", "--counts", str(path)])
        assert_input_error(code, out, err, f"{path}: {where}'utf-8' codec can't decode")

    def test_counts_byte_that_is_not_utf8_past_the_first_8192_named_by_line(
        self, capsys, tmp_path
    ):
        # the decode fails before any row is checked, so the ids may repeat
        path = tmp_path / "counts.csv"
        argv = ["margins", "--counts", str(path)]
        assert_late_bad_byte_rejected(capsys, argv, path, "id,name,instance_count\n", "1,a,3\n")

    @pytest.mark.parametrize("out_flag", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("where", OVERSIZED_COUNTS)
    def test_counts_field_past_the_csv_field_limit_rejected(
        self, capsys, tmp_path, where, out_flag
    ):
        text, line = OVERSIZED_COUNTS[where]
        path = tmp_path / "counts.csv"
        argv = ["margins", "--counts", str(path)]
        assert_oversized_field_rejected(capsys, tmp_path, argv, path, text, line, out_flag)

    @pytest.mark.parametrize("data", [b"[" * 200_000, b'{"categories": ' + b"[" * 200_000])
    def test_counts_nested_past_the_parser_limit_rejected(self, capsys, tmp_path, data):
        path = tmp_path / "counts.json"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, ["margins", "--counts", str(path)])
        assert_input_error(code, out, err, f"{path}: JSON nested too deeply")

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

    # (alpha, r, mode, ap_lower, ap_upper, slope_m): the limits of the closed
    # forms at alphas where 1 + alpha rounds to 1, 1/alpha overflows, or
    # 2 * alpha overflows
    @pytest.mark.parametrize(
        "alpha,r,mode,ap_lo,ap_hi,slope",
        [
            ("1e-16", "1", "unit", 1.0, 1.0, 1.0),
            ("1e-16", "1", "lower", 1.0, 1.0, 0.0),
            ("1e-16", "1", "upper", 1.0, 1.0, 1.0 / 9.0),
            ("1e-16", "1", "meet", 1.0, 1.0, 0.0),
            ("1e-300", "1", "upper", 1.0, 1.0, 1.0 / 9.0),
            ("5e-324", "1", "lower", 1.0, 1.0, 0.0),
            ("5e-324", "0.5", "meet", 1.0, 1.0, 0.0),
            ("1.7e308", "0", "upper", 1.0, 1.0, 1.0),
            ("1.7e308", "0", "lower", 1.0, 1.0, 1.0),
            ("1.7e308", "1", "upper", 0.0, 0.0, 1.0),
            ("1.7e308", "0.5", "meet", 0.0, 0.5, 1.0),
        ],
    )
    def test_extreme_alphas_give_finite_bounds(
        self, capsys, tmp_path, alpha, r, mode, ap_lo, ap_hi, slope
    ):
        curve = tmp_path / "curve.csv"
        argv = ["bounds", "--alpha", alpha, "--r", r, "--mode", mode, "--emit-curve", str(curve)]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["ap_lower"] == pytest.approx(ap_lo, abs=1e-6)
        assert doc["ap_upper"] == pytest.approx(ap_hi, abs=1e-6)
        assert 0.0 < doc["slope_m"] == pytest.approx(slope, abs=1e-6)
        # the theorem's order holds exactly, not only up to a tolerance
        assert 0.0 <= doc["ap_lower"] <= doc["ap_upper"] <= 1.0
        assert 0.0 < slope_m(float(alpha), "lower") <= slope_m(float(alpha), "upper") <= 1.0
        rows = curve.read_text().strip().split("\n")[2:]
        assert len(rows) == 101
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
        for row in rows:
            _, lo, hi, _, _ = (float(v) for v in row.split(","))
            assert 0.0 <= lo <= hi <= 1.0

    @pytest.mark.parametrize("alpha", ["0.05", "0.5", "3", "1000"])
    @pytest.mark.parametrize("mode", ["unit", "lower", "upper", "meet"])
    def test_point_bytes_are_golden(self, capsys, alpha, mode):
        argv = ["bounds", "--alpha", alpha, "--r", "0.3", "--mode", mode]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert out == GOLDEN_BOUNDS[f"point/{alpha}/{mode}"]

    @pytest.mark.parametrize("alpha", ["0.05", "3", "1000"])
    def test_curve_bytes_are_golden(self, capsys, tmp_path, monkeypatch, alpha):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, ["bounds", "--alpha", alpha, "--emit-curve", "curve.csv"])
        assert (code, out, err) == (0, "", "")
        assert (tmp_path / "curve.csv").read_bytes() == GOLDEN_BOUNDS[f"curve/{alpha}"].encode()

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

    @pytest.mark.parametrize("zeros", [("0", "-0"), ("-0", "0"), ("-0", "-0.0")])
    def test_pr_curve_prints_a_score_written_minus_zero_as_zero(self, capsys, tmp_path, zeros):
        scores = tmp_path / "scores.csv"
        scores.write_text(f"score,label\n{zeros[0]},1\n0.5,0\n{zeros[1]},0\n0.2,1\n")
        curve = tmp_path / "pr.csv"
        argv = ["metrics", "--scores", str(scores), "--alpha", "2", "--pr-curve", str(curve)]
        code, _, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert curve.read_text().split("\n")[2:] == [
            "0.2,0.0,0.0",
            "0.0,0.5,0.3333333333333333",
            "",
        ]

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

    def test_scores_file_that_is_not_utf8_rejected(self, capsys, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(b'score,label\n0.5,1\n0.2,0\n"\xff",1\n')
        argv = ["metrics", "--scores", str(path), "--alpha", "1"]
        assert_input_error(*run_cli(capsys, argv), f"{path}: line 4: 'utf-8' codec can't decode")

    def test_scores_byte_that_is_not_utf8_past_the_first_8192_named_by_line(
        self, capsys, tmp_path
    ):
        """The bad byte is at offset 18012 of the file, 1628 bytes into the
        third 8192-byte block."""
        path = tmp_path / "scores.csv"
        argv = ["metrics", "--scores", str(path), "--alpha", "1"]
        assert_late_bad_byte_rejected(capsys, argv, path, "score,label\n", "0.5,1\n")

    @pytest.mark.parametrize("out_flag", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("where", OVERSIZED_SCORES)
    def test_scores_field_past_the_csv_field_limit_rejected(
        self, capsys, tmp_path, where, out_flag
    ):
        text, line = OVERSIZED_SCORES[where]
        path = tmp_path / "scores.csv"
        argv = ["metrics", "--scores", str(path), "--alpha", "1"]
        assert_oversized_field_rejected(capsys, tmp_path, argv, path, text, line, out_flag)

    def test_malformed_scores_rejected_with_line_number(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("score,label\noops,1\n")
        code, _, err = run_cli(capsys, ["metrics", "--scores", str(bad), "--alpha", "1"])
        assert code == 2
        assert "line" in err


SPLIT = cli._SPLIT_MIN_ROWS


def curve_scores(rows: int, positive) -> str:
    """A scores file whose PR curve has exactly ``rows`` rows.  It has rows + 1
    samples with descending distinct scores, sample j positive when
    positive(j); curve row j counts samples 0..j above its threshold, the
    score of sample j + 1, so recall steps at row j exactly when sample j is
    positive."""
    lines = ["score,label\n"]
    for j in range(rows + 1):
        lines.append(f"{(rows + 1 - j) / (rows + 2)!r},{int(positive(j))}\n")
    return "".join(lines)


def split_curve_scores(rows: int) -> str:
    """A curve_scores file whose recall is flat across the cut between the
    curve's halves: no sample within 20 of the cut is positive."""
    near_cut = range(rows // 2 - 20, rows // 2 + 20)
    return curve_scores(rows, lambda j: j == 0 or (j % 3 == 0 and j not in near_cut))


def reference_curve_rows(scores_path, alpha: float) -> str:
    """The curve rows as the single in-process writer formatted them, row by row."""
    curve = pr_curve(load_scores(scores_path), alpha)
    columns = (curve.thresholds.tolist(), curve.recall.tolist(), curve.precision.tolist())
    return "".join([f"{t!r},{rec!r},{prec!r}\n" for t, rec, prec in zip(*columns)])


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds() -> set[str]:
    return set(os.listdir("/dev/fd"))


@pytest.fixture
def forks(monkeypatch):
    """The forks the CLI makes, counted in the parent."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


@pytest.fixture
def deadline():
    """Fail, instead of hanging, a test whose writer blocks on a child or a pipe."""

    def expire(signum, frame):
        raise TimeoutError("the curve writer blocked for 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("deadline")
class TestSplitCurveWriter:
    """metrics --pr-curve formats the second half of a long curve in a forked
    child; the bytes never depend on the split."""

    ALPHA = 3.0

    def run_metrics(self, capsys, monkeypatch, tmp_path, rows, cpus):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
        scores = tmp_path / "scores.csv"
        if not scores.exists():
            scores.write_text(split_curve_scores(rows))
        argv = ["metrics", "--scores", "scores.csv", "--alpha", "3", "--pr-curve", "pr.csv"]
        result = run_cli(capsys, argv)
        assert_no_children()
        return result, (tmp_path / "pr.csv").read_bytes()

    @pytest.mark.parametrize("rows", [1, SPLIT - 1, SPLIT, 2 * SPLIT + 1])
    def test_every_split_gives_the_per_row_bytes(
        self, capsys, monkeypatch, tmp_path, forks, rows
    ):
        outputs = set()
        for cpus in (1, 2, 8):
            del forks[:]
            (code, out, err), data = self.run_metrics(capsys, monkeypatch, tmp_path, rows, cpus)
            assert (code, err) == (0, "")
            assert len(forks) == (1 if cpus >= 2 and rows >= SPLIT else 0)
            outputs.add((out, data))
        assert len(outputs) == 1
        _, data = outputs.pop()
        comment, header, body = data.decode().split("\n", 2)
        assert comment.startswith("# {") and header == "threshold,recall,precision"
        assert body == reference_curve_rows(tmp_path / "scores.csv", self.ALPHA)
        assert body.count("\n") == rows

    @pytest.mark.parametrize("rows", [k * 5 + d for k in (1, 2, 3) for d in (-1, 0, 1)])
    def test_every_chunking_gives_the_per_row_bytes(
        self, capsys, monkeypatch, tmp_path, forks, rows
    ):
        """Chunks of 5 rows, and a curve split from 2 rows on, so that the
        chunk and half boundaries fall everywhere a short curve allows.  The
        recall runs are those of split_curve_scores, one row each (every
        sample positive but the last), or one run over the whole curve (only
        the top sample positive)."""
        monkeypatch.setattr(cli, "_CURVE_CHUNK_ROWS", 5)
        monkeypatch.setattr(cli, "_SPLIT_MIN_ROWS", 2)
        scores = tmp_path / "scores.csv"
        for text, runs in (
            (split_curve_scores(rows), None),
            (curve_scores(rows, lambda j: j < rows), rows),
            (curve_scores(rows, lambda j: j == 0), 1),
        ):
            scores.write_text(text)
            for cpus in (1, 2, 8):
                del forks[:]
                (code, out, err), data = self.run_metrics(
                    capsys, monkeypatch, tmp_path, rows, cpus
                )
                assert (code, err) == (0, "")
                assert len(forks) == (1 if cpus >= 2 else 0)
                body = data.decode().split("\n", 2)[2]
                assert body == reference_curve_rows(scores, self.ALPHA)
                assert body.count("\n") == rows
                if runs is not None:
                    assert len({line.split(",")[1] for line in body.splitlines()}) == runs

    def test_memory_does_not_grow_with_the_curve(self, capsys, monkeypatch, tmp_path):
        """With no fork, the writer holds one chunk of rows as strings, so a
        curve four times as long peaks no higher."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 1)
        monkeypatch.setattr(cli, "load_scores", lambda path: ScoreSet([0.9], [0.1]))
        (tmp_path / "scores.csv").write_text("score,label\n0.9,1\n0.1,0\n")
        argv = ["metrics", "--scores", "scores.csv", "--alpha", "3", "--pr-curve", "pr.csv"]
        peaks = []
        for rows in (100_000, 400_000):
            curve = PrecisionRecallCurve(
                thresholds=np.arange(rows, 0, -1) / (rows + 1),
                recall=np.arange(1, rows + 1) / rows,
                precision=np.linspace(1 / 3, 2 / 3, rows),
            )
            monkeypatch.setattr(cli, "pr_curve", lambda ss, alpha: curve)
            tracemalloc.start()
            try:
                code, _, err = run_cli(capsys, argv)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert (code, err) == (0, "")
            assert (tmp_path / "pr.csv").read_bytes().count(b"\n") == rows + 2
        assert peaks[1] <= 1.25 * peaks[0], f"peaks {peaks} bytes at 100k and 400k rows"

    def test_a_recall_run_straddles_the_cut(self, tmp_path):
        rows = 2 * SPLIT + 1
        path = tmp_path / "scores.csv"
        path.write_text(split_curve_scores(rows))
        recall = pr_curve(load_scores(path), self.ALPHA).recall
        assert recall.size == rows
        cut = rows // 2
        assert recall[cut - 1] == recall[cut]
        assert recall[cut - 25] < recall[cut + 25]  # and it is a run, not all of the curve


class SplitCommand:
    """A command that shares its work with one forked child, run from
    tmp_path: metrics --pr-curve on a curve long enough to split, verify
    --suite all, or train with a linear head.  Both processes call work,
    (module, name), for their share."""

    def __init__(self, name, capsys, monkeypatch, tmp_path):
        self.capsys, self.monkeypatch, self.tmp_path = capsys, monkeypatch, tmp_path
        monkeypatch.chdir(tmp_path)
        if name == "metrics":
            (tmp_path / "scores.csv").write_text(split_curve_scores(SPLIT))
            self.output = "pr.csv"
            self.argv = ["metrics", "--scores", "scores.csv", "--alpha", "3"]
            self.argv += ["--pr-curve", "pr.csv"]
            self.work = (cli, "_curve_rows")
        elif name == "train":
            (tmp_path / "train.json").write_text(json.dumps(TRAIN_CONFIG))
            self.output = "report.json"
            self.argv = ["train", "--config", "train.json", "--out", "report.json"]
            self.work = (sandbox, "_train_block")
        else:
            self.output = "report.json"
            self.argv = VERIFY_ALL_ARGV + ["--out", "report.json"]
            self.work = (verify, "run_suite")

    def run(self, cpus):
        """((exit, stdout, stderr), the output file's bytes) on cpus usable CPUs."""
        self.monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
        result = run_cli(self.capsys, self.argv)
        assert_no_children()
        return result, (self.tmp_path / self.output).read_bytes()

    def fail_work(self, where, failure):
        """Make work raise failure(), or SIGKILL itself for "kill", when
        called in the parent (where == "parent") or in a child."""
        module, name = self.work
        real = getattr(module, name)
        parent = os.getpid()

        def failing(*args, **kwargs):
            if (os.getpid() == parent) == (where == "parent"):
                if failure == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise failure(f"{name} failed")
            return real(*args, **kwargs)

        self.monkeypatch.setattr(module, name, failing)


@pytest.fixture(params=["metrics", "verify", "train"])
def split_command(request, capsys, monkeypatch, tmp_path):
    return SplitCommand(request.param, capsys, monkeypatch, tmp_path)


@pytest.mark.usefixtures("deadline")
class TestForkedShare:
    """Whatever happens to the forked child, each command writes the bytes
    of its serial run, or raises, and leaves no child and no open pipe."""

    @pytest.mark.parametrize("failure", [RuntimeError, "kill"])
    def test_a_failed_child_share_is_done_by_the_parent(self, split_command, forks, failure):
        expected = split_command.run(1)
        assert expected[0][0] == 0 and expected[0][2] == ""
        split_command.fail_work("child", failure)
        assert split_command.run(2) == expected
        assert len(forks) == 1

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_children_are_reaped_when_the_parent_fails(self, split_command, forks, error):
        split_command.fail_work("parent", error)
        fds = open_fds()
        with pytest.raises(error):
            split_command.run(2)
        assert len(forks) == 1
        assert_no_children()
        assert open_fds() == fds

    @pytest.mark.parametrize("error", [DeprecationWarning, KeyboardInterrupt])
    def test_a_fork_that_raises_after_forking_leaves_no_child(
        self, split_command, monkeypatch, error
    ):
        """Python 3.12 under -W error raises its multi-threaded fork warning in
        the parent after the child exists; an interrupt can land there too."""
        real_fork = os.fork

        def raising_fork():
            if real_fork() != 0:
                raise error("raised after forking")
            return 0

        monkeypatch.setattr(os, "fork", raising_fork)
        fds = open_fds()
        with pytest.raises(error):
            split_command.run(2)
        assert_no_children()
        assert open_fds() == fds

    def test_a_fork_that_fails_leaves_the_parent_doing_it_all(self, split_command, monkeypatch):
        expected = split_command.run(1)

        def failing_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing_fork)
        fds = open_fds()
        assert split_command.run(2) == expected
        assert open_fds() == fds

    def test_no_fork_while_another_thread_is_alive(self, split_command, monkeypatch):
        expected = split_command.run(1)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with another thread alive"))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            result = split_command.run(2)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert result == expected

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["metrics", "--scores", "scores.csv", "--alpha", "3", "--pr-curve", "no/pr.csv"],
             "no/pr.csv"),
            (["metrics", "--scores", "scores.csv", "--alpha", "0", "--pr-curve", "pr.csv"],
             "--alpha must be > 0"),
            (VERIFY_ALL_ARGV + ["--trials", "0"], "trials must be >= 1, got 0"),
            (VERIFY_ALL_ARGV + ["--seed", "-1"], "seed must be >= 0, got -1"),
            (VERIFY_ALL_ARGV + ["--out", "no/report.json"], "no/report.json"),
            (["train", "--config", "train.json", "--out", "no/report.json"], "no/report.json"),
            (["train", "--config", "train.json", "--loss-curve", "no/loss.csv"], "no/loss.csv"),
        ],
        ids=[
            "metrics-pr-curve",
            "metrics-alpha",
            "verify-trials",
            "verify-seed",
            "verify-out",
            "train-out",
            "train-loss-curve",
        ],
    )
    def test_bad_input_exits_two_before_any_work_or_fork(
        self, capsys, monkeypatch, tmp_path, forks, argv, message
    ):
        """Nothing is printed, so a bad --out is not found only after the report."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
        (tmp_path / "scores.csv").write_text(split_curve_scores(SPLIT))
        (tmp_path / "train.json").write_text(json.dumps(TRAIN_CONFIG))
        assert_input_error(*run_cli(capsys, argv), message)
        assert forks == []
        assert_no_children()


class TestOutputsOpenedFirst:
    """margins, bounds and metrics open --out and their curve files before
    they read or compute anything, and refuse an output path that names an
    input file or another output before anything is opened."""

    @pytest.fixture(autouse=True)
    def inputs(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "scores.csv").write_text(TIED_SCORES)
        (tmp_path / "counts.json").write_text(COUNTS_JSON)
        (tmp_path / "train.json").write_text(json.dumps(TRAIN_CONFIG))
        os.link(tmp_path / "scores.csv", tmp_path / "hard.csv")
        os.symlink("scores.csv", tmp_path / "soft.csv")

    @staticmethod
    def files(tmp_path) -> dict:
        return {name: (tmp_path / name).read_bytes() for name in sorted(os.listdir(tmp_path))}

    @pytest.mark.parametrize(
        "argv, reader",
        [
            (["metrics", "--scores", "scores.csv", "--alpha", "3", "--pr-curve", "pr.csv",
              "--out", "no/doc.json"], "load_scores"),
            (["bounds", "--alpha", "3", "--r", "0.2", "--emit-curve", "curve.csv",
              "--out", "no/doc.json"], None),
            (["margins", "--counts", "counts.json", "--out", "no/doc.json"], "load_counts"),
        ],
        ids=["metrics", "bounds", "margins"],
    )
    def test_a_bad_out_fails_before_any_work_and_writes_nothing(
        self, capsys, monkeypatch, tmp_path, argv, reader
    ):
        if reader is not None:
            monkeypatch.setattr(cli, reader, lambda *args: pytest.fail(f"{reader} ran"))
        files = self.files(tmp_path)
        assert_input_error(*run_cli(capsys, argv), "no/doc.json")
        assert self.files(tmp_path) == files

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["metrics", "--scores", "scores.csv", "--alpha", "3", "--out", "scores.csv"],
             "--out scores.csv names the same file as --scores"),
            (["metrics", "--scores", "scores.csv", "--alpha", "3", "--pr-curve", "./scores.csv"],
             "--pr-curve ./scores.csv names the same file as --scores"),
            (["metrics", "--scores", "scores.csv", "--alpha", "3", "--pr-curve", "hard.csv"],
             "--pr-curve hard.csv names the same file as --scores"),
            (["metrics", "--scores", "soft.csv", "--alpha", "3", "--out", "scores.csv"],
             "--out scores.csv names the same file as --scores"),
            (["metrics", "--scores", "scores.csv", "--alpha", "3", "--out", "doc",
              "--pr-curve", "doc"], "--pr-curve doc names the same file as --out"),
            (["metrics", "--scores", "scores.csv", "--alpha", "nan", "--out", "scores.csv"],
             "--alpha must be > 0 and finite, got nan"),
            (["bounds", "--alpha", "3", "--r", "0.2", "--out", "doc", "--emit-curve", "doc"],
             "--emit-curve doc names the same file as --out"),
            (["margins", "--counts", "counts.json", "--out", "counts.json"],
             "--out counts.json names the same file as --counts"),
            (["train", "--config", "train.json", "--out", "train.json"],
             "--out train.json names the same file as --config"),
            (["train", "--config", "train.json", "--loss-curve", "train.json"],
             "--loss-curve train.json names the same file as --config"),
        ],
        ids=[
            "metrics-out-is-scores",
            "metrics-curve-is-scores-spelt-otherwise",
            "metrics-curve-is-a-hard-link-to-scores",
            "metrics-scores-is-a-symlink-to-out",
            "metrics-curve-is-out",
            "metrics-alpha-checked-first",
            "bounds-curve-is-out",
            "margins-out-is-counts",
            "train-out-is-config",
            "train-loss-curve-is-config",
        ],
    )
    def test_an_output_that_names_an_input_or_another_output_is_refused(
        self, capsys, tmp_path, argv, message
    ):
        files = self.files(tmp_path)
        assert_input_error(*run_cli(capsys, argv), message)
        assert self.files(tmp_path) == files

    @pytest.mark.parametrize(
        "argv",
        [
            ["metrics", "--scores", "scores.csv", "--alpha", "3", "--out", os.devnull,
             "--pr-curve", os.devnull],
            ["bounds", "--alpha", "3", "--r", "0.2", "--out", os.devnull,
             "--emit-curve", os.devnull],
        ],
        ids=["metrics", "bounds"],
    )
    def test_outputs_may_share_a_device(self, capsys, argv):
        assert run_cli(capsys, argv) == (0, "", "")


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

    def test_bounds_suite_bytes_are_golden(self, capsys, monkeypatch, forks):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 8)
        argv = ["verify", "--suite", "bounds", "--trials", "50", "--seed", "3"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert out == GOLDEN_BOUNDS["verify_bounds"]
        assert forks == []  # one suite has no share to give away

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_all_bytes_are_golden_on_any_cpu_count(self, capsys, monkeypatch, forks, cpus):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
        code, out, err = run_cli(capsys, VERIFY_ALL_ARGV)
        assert (code, err) == (0, "")
        assert out == GOLDEN_BOUNDS["verify_all"]
        assert len(forks) == (1 if cpus >= 2 else 0)
        assert_no_children()

    def test_a_check_failing_in_the_child_exits_one_with_the_serial_bytes(
        self, capsys, monkeypatch, forks
    ):
        real_check = verify._check

        def failing_edge_cases(name, passed, **detail):
            return real_check(name, passed and name != "edge_cases", **detail)

        monkeypatch.setattr(verify, "_check", failing_edge_cases)
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
            del forks[:]
            runs.append(run_cli(capsys, VERIFY_ALL_ARGV))
            assert len(forks) == cpus - 1
            assert_no_children()
        assert runs[0] == runs[1]
        code, out, err = runs[1]
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert doc["passed"] is False
        # edge_cases is an estimators check, and estimators runs in the child
        assert [s["passed"] for s in doc["suites"]] == [s != "estimators" for s in verify.SUITES]

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

    def test_negative_seed_rejected(self, capsys):
        argv = ["verify", "--suite", "margins", "--trials", "1", "--seed", "-1"]
        assert_input_error(*run_cli(capsys, argv), "seed must be >= 0, got -1")

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

    @pytest.mark.parametrize("loss", sorted(GOLDEN_TRAIN_REPORTS))
    def test_report_bytes_are_golden(self, capsys, tmp_path, monkeypatch, loss):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "train.json").write_text(json.dumps(dict(GOLDEN_TRAIN_CONFIG, loss=loss)))
        code, out, err = run_cli(capsys, ["train", "--config", "train.json"])
        assert (code, err) == (0, "")
        assert out == GOLDEN_TRAIN_REPORTS[loss]

    @pytest.mark.parametrize(
        "extra, forked",
        [({}, True), ({"temperature_head": True}, True), ({"model": "mlp", "hidden": 8}, False)],
        ids=["linear", "cosine-head", "mlp"],
    )
    def test_report_bytes_are_the_same_on_any_cpu_count(
        self, capsys, monkeypatch, tmp_path, forks, extra, forked
    ):
        """A linear head's second class block trains in a forked worker when
        a second CPU is usable; the MLP's classes share w1 and never split."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "train.json").write_text(json.dumps(dict(TRAIN_CONFIG, **extra)))
        outputs = set()
        for cpus in (1, 2, 8):
            monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
            del forks[:]
            code, out, err = run_cli(capsys, ["train", "--config", "train.json"])
            assert (code, err) == (0, "")
            assert len(forks) == (1 if forked and cpus >= 2 else 0)
            assert_no_children()
            outputs.add(out)
        assert len(outputs) == 1

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_non_finite_loss_names_the_first_epoch_of_either_block(
        self, monkeypatch, forks, cpus
    ):
        """Class 2, all of block 1, goes non-finite at epoch 2 and class 1, in
        block 0, at epoch 3; each epoch is one batch.  The serial run trains
        block 0 first, so it meets epoch 3 before epoch 2."""
        config = {k: v for k, v in TRAIN_CONFIG.items() if k in ("num_classes", "total_samples")}
        dataset = sandbox.generate(sandbox.SyntheticConfig(feature_dim=4, **config))
        real_kernel = sandbox._ecm_value_grad
        calls = {}

        def kernel(z, positive, m):
            width = z.shape[1]  # 2 in block 0, 1 in block 1
            calls[width] = epoch = calls.get(width, 0) + 1
            values, grad = real_kernel(z, positive, m)
            if (width, epoch) in ((1, 2), (2, 3)):
                values[0, -1] = np.inf
            return values, grad

        monkeypatch.setattr(sandbox, "_ecm_value_grad", kernel)
        monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
        tcfg = sandbox.TrainConfig(epochs=4, batch_size=dataset.labels.size)
        with pytest.raises(NumericalError, match="^non-finite training loss at epoch 2$"):
            sandbox.train(dataset, tcfg, sandbox.default_margin_weights(dataset))
        assert len(forks) == cpus - 1
        assert_no_children()

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("epochs", "5", 'config key epochs must be an integer, got "5"'),
            ("epochs", True, "config key epochs must be an integer, got true"),
            ("epochs", 2.0, "config key epochs must be an integer, got 2.0"),
            ("seed", "x", 'config key seed must be an integer, got "x"'),
            ("seed", False, "config key seed must be an integer, got false"),
            ("train_seed", 2.5, "config key train_seed must be an integer, got 2.5"),
            ("learning_rate", "0.1", 'config key learning_rate must be a finite number, got "0.1"'),
            ("learning_rate", math.nan, "config key learning_rate must be a finite number, got NaN"),
            ("noise_sigma", None, "config key noise_sigma must be a finite number, got null"),
            ("loss", 3, "config key loss must be a string, got 3"),
            ("temperature_head", 1, "config key temperature_head must be true or false, got 1"),
        ],
    )
    def test_config_value_of_the_wrong_type_rejected(self, capsys, tmp_path, key, value, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(TRAIN_CONFIG, **{key: value})))
        code, out, err = run_cli(capsys, ["train", "--config", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_integer_values_accepted_for_float_keys(self, capsys, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(dict(TRAIN_CONFIG, learning_rate=1, noise_sigma=2)))
        code, out, _ = run_cli(capsys, ["train", "--config", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["train"]["learning_rate"] == 1
        assert doc["config"]["synthetic"]["noise_sigma"] == 2

    @pytest.mark.parametrize(
        "argv,config",
        [
            (["--seed", "-1"], {}),
            ([], {"seed": -1}),
            ([], {"train_seed": -1}),
        ],
    )
    def test_negative_seed_rejected(self, capsys, tmp_path, argv, config):
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(dict(TRAIN_CONFIG, **config)))
        code, out, err = run_cli(capsys, ["train", "--config", str(path), *argv])
        assert_input_error(code, out, err, "seed must be >= 0, got -1")

    def test_config_file_that_is_not_utf8_rejected(self, capsys, tmp_path):
        path = tmp_path / "train.json"
        path.write_bytes(b'{"seed": 1, "loss": "\xff"}')
        code, out, err = run_cli(capsys, ["train", "--config", str(path)])
        assert_input_error(code, out, err, f"{path}: 'utf-8' codec can't decode")

    def test_config_nested_past_the_parser_limit_rejected(self, capsys, tmp_path):
        path = tmp_path / "train.json"
        path.write_bytes(b"[" * 200_000)
        code, out, err = run_cli(capsys, ["train", "--config", str(path)])
        assert_input_error(code, out, err, f"{path}: JSON nested too deeply")

    @pytest.mark.parametrize(
        "config,message",
        [
            ({"model": "mlp", "hidden": 10**30}, "w1 would be 16 x 1000000000000000000000000000000"),
            ({"total_samples": 10**30}, "features would be 1000000000000000000000000000000 x 16"),
        ],
        ids=["hidden", "total_samples"],
    )
    def test_sizes_past_the_array_cap_rejected(self, capsys, tmp_path, config, message):
        path = tmp_path / "train.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, ["train", "--config", str(path)])
        assert_input_error(code, out, err, message)

    def test_out_writes_the_same_document_it_prints(self, capsys, train_config_file, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, ["train", "--config", train_config_file, "--out", str(path)])
        assert code == 0
        assert path.read_text() == out

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
        code, out, err = run_cli(capsys, ["train", "--config", str(path)])
        assert_input_error(code, out, err, f"{path}: invalid JSON at line 1")


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
