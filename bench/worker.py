"""One benchmark process: a closed loop of `ecmargin` CLI ops, run in-process.

Usage: python3 bench/worker.py SPEC.json RESULT.json

SPEC.json holds the op schedule (a list of argv lists for ``ecmargin.cli.main``),
the number of seconds to keep starting ops, the cycle length the run must end
on, the minimum op count, and whether to trace.  One client, no extra threads:
the next op starts when the last one (and its untimed output digest) has ended.

Untraced mode runs each scheduled op once.  Traced mode runs every scheduled op
twice, first untraced and then traced, so that the tracing overhead is traced
op time against untraced op time on the same input.  A traced op wraps the
public library calls the CLI makes, records one span per call (name, start,
end, parent, op id) in memory, and hands the spans back in RESULT.json.

RESULT.json gets, per op: argv, whether it was traced, wall time of
``cli.main``, exit code, captured stdout, the tail of stderr, and a digest
(bytes, data rows, sha256) of each output file the spec names for that op.
It also gets the process's peak RSS and the spans and counts of traced ops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


class Tracer:
    """In-memory spans and counts, recorded around calls into the program."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.append({"name": name, "value": value, "op": self.op})

    def _wrapped(self, fn, name: str, count):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                for key, value in count(args, out).items():
                    self.count(key, value)
            return out

        return traced

    def wrap_function(self, fn, name: str, count=None) -> None:
        """Route every binding of ``fn`` in the loaded ecmargin modules through a span."""
        wrapper = self._wrapped(fn, name, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "ecmargin" and not mod_name.startswith("ecmargin."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((setattr, mod, attr, fn))

    def wrap_item(self, table: dict, key, name: str) -> None:
        fn = table[key]
        table[key] = self._wrapped(fn, name, None)
        self._undo.append((dict.__setitem__, table, key, fn))

    def unwrap(self) -> None:
        while self._undo:
            restore, target, key, fn = self._undo.pop()
            restore(target, key, fn)


def _instrument(tracer: Tracer, command: str) -> None:
    """Spans at the layer boundaries each CLI command crosses."""
    from ecmargin import metrics, sandbox, verify

    if command == "train":

        def train_counts(args, model):
            dataset, tcfg = args[0], args[1]
            sample_epochs = int(dataset.labels.size) * int(tcfg.epochs)
            return {
                "sandbox.train.sample_epochs": sample_epochs,
                "ecm_loss.elements": sample_epochs * int(dataset.num_classes),
            }

        def audit_counts(args, _ok):
            per_class = args[0].per_class
            within = sum(1 for p in per_class if p.within_bounds)
            return {"sandbox.bound_audit.within_ratio": within / len(per_class)}

        tracer.wrap_function(sandbox.generate, "sandbox.generate")
        tracer.wrap_function(sandbox.default_margin_weights, "sandbox.default_margin_weights")
        tracer.wrap_function(sandbox.train, "sandbox.train", train_counts)
        tracer.wrap_function(
            sandbox.evaluate,
            "sandbox.evaluate",
            lambda args, report: {"sandbox.evaluate.classes": len(report.per_class)},
        )
        tracer.wrap_function(sandbox.bound_audit, "sandbox.bound_audit", audit_counts)
    elif command == "metrics":
        tracer.wrap_function(
            metrics.load_scores,
            "metrics.load_scores",
            lambda args, ss: {"metrics.load_scores.rows": ss.n_plus + ss.n_minus},
        )
        tracer.wrap_function(metrics.average_precision, "metrics.average_precision")
        tracer.wrap_function(metrics.ranking_error, "metrics.ranking_error")
        tracer.wrap_function(metrics.pr_curve, "metrics.pr_curve")
    elif command == "verify":
        # verify.run dispatches each suite through this table
        for suite in verify.SUITES:
            tracer.wrap_item(verify._RUNNERS, suite, f"verify.{suite}")
    else:
        raise ValueError(f"no instrumentation for command {command!r}")


def _digest(path: Path) -> dict:
    """Size, data rows (lines that are neither '#' comments nor the header) and sha256."""
    h = hashlib.sha256()
    size = lines = comments = 0
    at_line_start = True
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
            size += len(chunk)
            lines += chunk.count(b"\n")
            comments += chunk.count(b"\n#") + (at_line_start and chunk.startswith(b"#"))
            at_line_start = chunk.endswith(b"\n")
    return {"bytes": size, "rows": lines - comments - 1, "sha256": h.hexdigest()}


def _run_op(cli, argv: list[str], outputs: list[str], tracer: Tracer | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            _instrument(tracer, argv[0])
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # a crash fails this op; the loop goes on and reports it
            traceback.print_exc()
            code = 1
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.unwrap()
    return {
        "argv": argv,
        "traced": tracer is not None,
        "elapsed_s": elapsed,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr_tail": err.getvalue()[-2000:],
        "files": {p: _digest(Path(p)) for p in outputs if Path(p).is_file()},
    }


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import ecmargin
    from ecmargin import cli

    schedule = spec["schedule"]
    traced = bool(spec["traced"])
    tracer = Tracer() if traced else None
    ops = []
    start = time.perf_counter()
    i = 0
    while (
        i < spec["min_ops"]
        or i % spec["cycle"]
        or time.perf_counter() - start < spec["seconds"]
    ):
        step = schedule[i % len(schedule)]
        ops.append(_run_op(cli, step["argv"], step["outputs"], None))
        if tracer is not None:
            tracer.op = len(ops)
            ops.append(_run_op(cli, step["argv"], step["outputs"], tracer))
        i += 1

    result = {
        "ecmargin_file": ecmargin.__file__,
        "ops": ops,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else [],
        "counts": tracer.counts if tracer else [],
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.stderr.write("usage: worker.py SPEC.json RESULT.json\n")
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
