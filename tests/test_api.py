import ast
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ecmargin
from ecmargin import bounds, errors, losses, margins, metrics, priors, sandbox, verify

README = Path(__file__).resolve().parent.parent / "README.md"

# public names that are gone: deleted, or made private where their own module
# is their only caller
REMOVED = (
    "audit_interval",
    "ranking_standard_error",
    "ap_standard_error",
    "audit_failures",
    "GFunction",
    "UndefinedPrecisionError",
    "UnknownClassError",
    "analytic_min_gmax",
    "class_stats",
    "margin_error",
    "margin_objective",
    "measured_background_ratio",
    "positive_precisions",
    "precision_at",
    "recall_at",
    "surrogate_score",
)
MODULES = (ecmargin, bounds, errors, losses, margins, metrics, priors, sandbox, verify)
# what bench/worker.py wraps by name, module by module
BENCH_WRAPPED = {
    sandbox: ("generate", "default_margin_weights", "train", "evaluate", "bound_audit"),
    metrics: ("load_scores", "average_precision", "ranking_error", "pr_curve"),
}


def test_every_exported_name_resolves_once():
    assert len(ecmargin.__all__) == len(set(ecmargin.__all__))
    missing = [name for name in ecmargin.__all__ if not hasattr(ecmargin, name)]
    assert missing == []


def test_removed_names_are_gone():
    assert all(isinstance(module, types.ModuleType) for module in MODULES)
    for name in REMOVED:
        assert name not in ecmargin.__all__
        for module in MODULES:
            assert not hasattr(module, name), (module.__name__, name)


def test_readme_lists_every_public_name_once():
    """README's public-name list holds exactly ``__all__``, and every name
    appears in backticks."""
    text = README.read_text()
    assert all(f"`{name}`" in text for name in ecmargin.__all__)
    section = text.split("## Public names\n", 1)[1].split("\n## ", 1)[0]
    bullets = section[section.index("\n- ") :]
    listed = re.findall(r"`([A-Za-z_]\w*)`", bullets)
    assert sorted(listed) == sorted(ecmargin.__all__)


def test_what_the_benchmark_wraps_still_resolves():
    for module, names in BENCH_WRAPPED.items():
        for name in names:
            assert callable(getattr(module, name)), (module.__name__, name)
            assert getattr(ecmargin, name) is getattr(module, name)
    # the benchmark wraps verify's runner table suite by suite
    assert tuple(verify._RUNNERS) == verify.SUITES


def test_audit_is_exported():
    assert {"Audit", "audit"} <= set(ecmargin.__all__)
    assert ecmargin.audit is bounds.audit
    assert ecmargin.Audit is bounds.Audit


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


# A fresh interpreter runs ENTRY in a directory holding INPUTS and writes the
# exit code that the action sets and the modules it loaded; site hooks may
# load third-party modules at start-up, so only those loaded after them count.
ENTRY = """\
import sys
before = set(sys.modules)
code = None
{action}
with open("loaded.txt", "w") as fh:
    fh.write(repr((code, sorted(set(sys.modules) - before))))
"""
RUN_MAIN = """\
from ecmargin.cli import main
try:
    code = main({argv!r})
except SystemExit as exc:
    code = exc.code
"""
INPUTS = {
    "counts.json": json.dumps(
        {"categories": [{"id": 1, "name": "a", "instance_count": 4},
                        {"id": 2, "name": "b", "instance_count": 9}]}
    ),
    "counts.csv": "id,name,instance_count\n1,a,4\n2,b,9\n",
    "scores.csv": "score,label\n0.9,1\n0.4,1\n0.5,0\n0.1,0\n",
    "train.json": json.dumps(
        {"num_classes": 3, "total_samples": 400, "feature_dim": 4, "epochs": 2, "seed": 3}
    ),
}
COMMANDS = {
    "margins-json": ["margins", "--counts", "counts.json"],
    "margins-csv": ["margins", "--counts", "counts.csv"],
    "bounds": ["bounds", "--alpha", "2", "--r", "0.1"],
    "metrics": ["metrics", "--scores", "scores.csv", "--alpha", "3"],
    "metrics-pr-curve": [
        "metrics", "--scores", "scores.csv", "--alpha", "3", "--pr-curve", "pr.csv"
    ],
    "verify": ["verify", "--suite", "margins", "--trials", "10"],
    "train": ["train", "--config", "train.json"],
}


def loaded_by(tmp_path, action: str) -> tuple[object, list[str]]:
    """(code, the modules loaded) after a fresh interpreter in tmp_path ran
    action, a block of code that may set code."""
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    # the child imports this same copy of the package
    env = {**os.environ, "PYTHONPATH": str(Path(ecmargin.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY.format(action=action)],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval((tmp_path / "loaded.txt").read_text())


@pytest.mark.parametrize("module", ["ecmargin", "ecmargin.cli"])
def test_importing_loads_no_numpy(tmp_path, module):
    _, loaded = loaded_by(tmp_path, f"import {module}")
    assert module in loaded and "numpy" not in loaded


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["--version"], 0),
        (["--help"], 0),
        (["margins", "--help"], 0),
        (["train", "--bogus"], 2),
        (COMMANDS["margins-json"], 0),
        (COMMANDS["margins-csv"], 0),
    ],
    ids=["version", "help", "margins-help", "usage-error", "margins-json", "margins-csv"],
)
def test_what_needs_no_numpy_loads_none(tmp_path, argv, exit_code):
    code, loaded = loaded_by(tmp_path, RUN_MAIN.format(argv=argv))
    assert code == exit_code
    assert "numpy" not in loaded


@pytest.mark.parametrize("command", ["bounds", "metrics"])
def test_bounds_and_metrics_load_neither_sandbox_nor_verify(tmp_path, command):
    code, loaded = loaded_by(tmp_path, RUN_MAIN.format(argv=COMMANDS[command]))
    assert code == 0
    assert {"ecmargin.sandbox", "ecmargin.verify"} & set(loaded) == set()


@pytest.mark.parametrize("command", ["import", *COMMANDS])
def test_only_the_pr_curve_loads_its_formatter(tmp_path, command):
    """The PR curve's float formatter is loaded by metrics --pr-curve alone."""
    if command == "import":
        code, loaded = loaded_by(tmp_path, "import ecmargin.cli")
    else:
        code, loaded = loaded_by(tmp_path, RUN_MAIN.format(argv=COMMANDS[command]))
    assert code in (None, 0)
    assert ("ecmargin._reprs" in loaded) == (command == "metrics-pr-curve")


@pytest.mark.parametrize("command", list(COMMANDS))
def test_runtime_imports_only_numpy_and_the_standard_library(tmp_path, command):
    code, loaded = loaded_by(tmp_path, RUN_MAIN.format(argv=COMMANDS[command]))
    assert code == 0
    # numpy.random's Cython extensions register Cython's own modules,
    # cython_runtime and _cython_<version>
    cython = re.compile(r"cython_runtime|_cython_\w+")
    top = {name.partition(".")[0] for name in loaded if not cython.fullmatch(name)}
    assert sorted(top - set(sys.stdlib_module_names) - {"numpy", "ecmargin"}) == []


def test_every_name_resolves_to_its_module_after_train(tmp_path):
    """With the kernels module already imported by a train run, every public
    name is its defining module's object, and dir and star-import see them."""
    check = RUN_MAIN.format(argv=COMMANDS["train"]) + """\
import importlib
import ecmargin
assert callable(ecmargin.ecm_loss)
for name, (module, attr) in ecmargin._SOURCE.items():
    source = importlib.import_module("ecmargin." + module)
    assert getattr(ecmargin, name) is getattr(source, attr), name
assert set(ecmargin.__all__) <= set(dir(ecmargin))
namespace = {}
exec("from ecmargin import *", namespace)
assert set(ecmargin.__all__) <= set(namespace), set(ecmargin.__all__) - set(namespace)
"""
    code, loaded = loaded_by(tmp_path, check)
    assert code == 0
    assert "ecmargin.losses" in loaded
