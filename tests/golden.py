"""The golden table: every byte-pinned CLI case, in golden.json.

A case holds its argv; the input files it runs beside, as a map from file
name to a text under the table's "inputs", where each input text is stored
once; the forks it makes on two usable CPUs; the stdout and output files it
writes; and a note on how its bytes were recorded.  Every case exits 0 with
nothing on stderr.  The file stores each text as a list of lines, so that a
changed line shows as one line in a diff; ``load`` joins them.

``run(table, key, cpus)`` runs a case from a new temporary directory, and
``test_cli.py`` compares it with ``expected(table, key, cpus)`` on 1, 2 and
8 usable CPUs.

After a change that moves bytes on purpose, regenerate the cases it moves:

    PYTHONPATH=src python tests/golden.py KEY...

This reruns the named cases on one and two usable CPUs, rewrites only their
expectations, and prints each change: for a JSON text the path of each
changed field, its old and new values, and the absolute and relative
change; for any other text, such as a CSV, the changed lines.  With no key
it rewrites nothing, prints the changes of every case whose bytes moved, and
exits 1 if any did.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from ecmargin import _fork
from ecmargin.cli import main

PATH = Path(__file__).with_name("golden.json")


def _texts(table: dict, convert) -> dict:
    """A copy of table with convert applied to every input and expected text."""
    return {
        "inputs": {name: convert(text) for name, text in table["inputs"].items()},
        "cases": {
            key: dict(
                case,
                stdout=convert(case["stdout"]),
                files={name: convert(text) for name, text in case["files"].items()},
            )
            for key, case in table["cases"].items()
        },
    }


def load() -> dict:
    return _texts(json.loads(PATH.read_text(encoding="utf-8")), "".join)


def save(table: dict) -> None:
    lines = _texts(table, lambda text: text.splitlines(keepends=True))
    PATH.write_text(json.dumps(lines, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


def expected(table: dict, key: str, cpus: int) -> dict:
    """What run(table, key, cpus) must return."""
    case = table["cases"][key]
    return {
        "exit": 0,
        "stderr": "",
        "stdout": case["stdout"],
        "files": case["files"],
        "forks": case["forks"] if cpus >= 2 else 0,
    }


def run(table: dict, key: str, cpus: int) -> dict:
    """The case's argv run through the CLI in this process, from a new
    temporary directory that holds its inputs, with cpus usable CPUs: the
    exit code, stderr, stdout, every other file in the directory afterwards,
    and the number of forks."""
    case = table["cases"][key]
    forks, real_fork, real_cpus, cwd = [], os.fork, _fork.usable_cpus, os.getcwd()

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in case["inputs"].items():
            Path(tmp, name).write_bytes(table["inputs"][text].encode())
        os.chdir(tmp)
        os.fork, _fork.usable_cpus = counting_fork, lambda: cpus
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(case["argv"])
        finally:
            os.chdir(cwd)
            os.fork, _fork.usable_cpus = real_fork, real_cpus
        files = {
            name: Path(tmp, name).read_bytes().decode()
            for name in sorted(os.listdir(tmp))
            if name not in case["inputs"]
        }
    return {
        "exit": code,
        "stderr": err.getvalue(),
        "stdout": out.getvalue(),
        "files": files,
        "forks": len(forks),
    }


def _record(table: dict, key: str) -> dict:
    """The case's new expectations: the bytes of its run on one CPU, which
    its run on two must equal, and the forks counted on two."""
    one, two = run(table, key, 1), run(table, key, 2)
    if (one["exit"], one["stderr"]) != (0, ""):
        raise SystemExit(f"{key}: exit {one['exit']}: {one['stderr']}")
    if (one["stdout"], one["files"]) != (two["stdout"], two["files"]):
        raise SystemExit(f"{key}: one and two CPUs give different bytes")
    return {"stdout": one["stdout"], "files": one["files"], "forks": two["forks"]}


_ABSENT = object()


def _value(value) -> str:
    return "absent" if value is _ABSENT else json.dumps(value)


def _field_changes(path: str, old, new):
    """(path, description) of each JSON field that differs from old to new."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}" if path else key
            yield from _field_changes(sub, old.get(key, _ABSENT), new.get(key, _ABSENT))
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from _field_changes(
                f"{path}[{i}]",
                old[i] if i < len(old) else _ABSENT,
                new[i] if i < len(new) else _ABSENT,
            )
    elif type(old) is not type(new) or old != new:
        change = f"{_value(old)} -> {_value(new)}"
        if {type(old), type(new)} <= {int, float}:
            diff = new - old
            rel = diff / abs(old) if old else math.inf
            change += f" (abs {diff:+.6g}, rel {rel:+.6g})"
        yield path, change


def _changes(old: str, new: str) -> list[str]:
    """Each changed field of two JSON texts, or else each changed line."""
    try:
        fields = _field_changes("", json.loads(old), json.loads(new))
        changes = [f"{path}: {change}" for path, change in fields]
    except ValueError:
        changes = []
    if changes or old == new:
        return changes
    diff = difflib.unified_diff(old.splitlines(), new.splitlines(), lineterm="", n=0)
    return [line for line in list(diff)[2:] if not line.startswith("@@")]


def _report(key: str, old: dict, new: dict) -> bool:
    """Print each change from old to new expectations; whether any moved."""
    lines = []
    if old["forks"] != new["forks"]:
        lines.append(f"forks: {old['forks']} -> {new['forks']}")
    lines += [f"stdout {line}" for line in _changes(old["stdout"], new["stdout"])]
    for name in sorted(old["files"].keys() | new["files"].keys()):
        before, after = old["files"].get(name), new["files"].get(name)
        if before is None or after is None:
            lines.append(f"{name}: {'added' if before is None else 'removed'}")
        else:
            lines += [f"{name} {line}" for line in _changes(before, after)]
    for line in lines:
        print(f"{key}: {line}")
    return bool(lines)


def regenerate(table: dict, keys: list[str]) -> int:
    """Rerun the named cases, print their changes and save their new
    expectations; with no key, print the changes of every case and save
    nothing.  1 when no key was given and some case moved, else 0."""
    unknown = [key for key in keys if key not in table["cases"]]
    if unknown:
        raise SystemExit(f"unknown case: {' '.join(unknown)}")
    moved = False
    for key in keys or list(table["cases"]):
        new = _record(table, key)
        moved |= _report(key, table["cases"][key], new)
        table["cases"][key].update(new)
    if keys:
        save(table)
    return 1 if moved and not keys else 0


if __name__ == "__main__":
    sys.exit(regenerate(load(), sys.argv[1:]))
