import os
import re
import subprocess
import sys
from pathlib import Path

import ecmargin
from ecmargin import bounds, ecm_loss, errors, margins, metrics, priors, sandbox, verify

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
MODULES = (ecmargin, bounds, ecm_loss, errors, margins, metrics, priors, sandbox)
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


def test_runtime_imports_only_numpy_and_the_standard_library():
    # compare before and after: site hooks may load third-party modules at start-up
    code = (
        "import sys; before = set(sys.modules); import ecmargin.cli; "
        "print('\\n'.join(sorted({m.partition('.')[0] for m in set(sys.modules) - before})))"
    )
    # the child imports this same copy of the package
    env = {**os.environ, "PYTHONPATH": str(Path(ecmargin.__file__).parent.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout.split()
    assert "ecmargin" in out and "numpy" in out
    allowed = set(sys.stdlib_module_names) | {"numpy", "ecmargin"}
    assert sorted(set(out) - allowed) == []
