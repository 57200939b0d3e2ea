import os
import re
import subprocess
import sys
from pathlib import Path

import ecmargin
from ecmargin import bounds, metrics, sandbox

README = Path(__file__).resolve().parent.parent / "README.md"

REMOVED = ("audit_interval", "ranking_standard_error", "ap_standard_error", "audit_failures")


def test_every_exported_name_resolves_once():
    assert len(ecmargin.__all__) == len(set(ecmargin.__all__))
    missing = [name for name in ecmargin.__all__ if not hasattr(ecmargin, name)]
    assert missing == []


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in ecmargin.__all__
        for module in (ecmargin, bounds, metrics, sandbox):
            assert not hasattr(module, name)


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
