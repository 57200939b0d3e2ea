"""Benchmark of the `ecmargin` CLI: three closed-loop workloads, run from source.

Usage (from the repository root):

    python3 bench/run.py --workload {train_audit,metrics_1e6,verify_all} \
        --seed N --seconds S --trace {0,1} [--smoke]

The program under test is ``src/ecmargin`` of the checkout the script sits in;
the benchmark exits 2 without a result when that source is missing.  Inputs
are generated from ``--seed`` before any timing starts.  The ops of a workload
run one after another in one worker process (``bench/worker.py``), which calls
``ecmargin.cli.main(argv)`` in-process; every op's output is checked.

``--trace 0`` measures the end-to-end metrics of the named workload.
``--trace 1`` is a separate run that replays ops of every workload with spans
around the library calls the CLI makes, so that every per-layer metric is a
measured value; see ``bench/README.md`` for which end-to-end metric each one
should move.  ``--smoke`` shrinks every input so a run takes seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(machine block, input sha256s, per-op times, sample counts) is written to
``bench/out/``, and the traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("train_audit", "metrics_1e6", "verify_all")
LOSSES = ("ecm", "bce", "focal_ecm")
SUITES = ("bounds", "gradients", "estimators", "margins", "oracles")

# Sizes: the full benchmark, and the smoke mode the benchmark's tests use.
FULL = {"train": {}, "rows": 10**6, "trials": 1000, "setup_probes": 9}
SMOKE = {"train": {"total_samples": 2000, "epochs": 2}, "rows": 20000, "trials": 20, "setup_probes": 2}

METRICS_ALPHA = 19.0  # 5% positives
AGREE_TOL = 1e-12
RUN_DEADLINE_S = 170.0  # the whole run, inputs and probes included, ends before 180 s

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Work unit behind work_per_s, per workload.
WORK_UNIT = {"train_audit": "sample_epochs", "metrics_1e6": "rows", "verify_all": "trials"}

PER_LAYER = {
    "sandbox.generate_s": "s",
    "sandbox.default_margin_weights_s": "s",
    "sandbox.train_s": "s",
    "sandbox.evaluate_s": "s",
    "sandbox.bound_audit_s": "s",
    "cli.train.other_s": "s",
    "sandbox.train.sample_epochs": "count",
    "ecm_loss.elements": "count",
    "sandbox.evaluate.classes": "count",
    "sandbox.bound_audit.within_ratio": "ratio",
    "metrics.load_scores_s": "s",
    "metrics.pr_curve_s": "s",
    "cli.metrics.other_s": "s",
    "metrics.average_precision_s": "s",
    "metrics.ranking_error_s": "s",
    "metrics.load_scores.rows": "count",
    "metrics.pr_curve.points": "count",
    "cli.metrics.bytes_out": "bytes",
    "verify.bounds_s": "s",
    "verify.gradients_s": "s",
    "verify.estimators_s": "s",
    "verify.margins_s": "s",
    "verify.oracles_s": "s",
    "cli.verify.other_s": "s",
    "verify.checks": "count",
    "verify.checks_passed_ratio": "ratio",
    "setup.interpreter_s": "s",
    "setup.import_s": "s",
    "trace.overhead_ratio": "ratio",
}

_COMMAND = {"train_audit": "train", "metrics_1e6": "metrics", "verify_all": "verify"}
_SPANS = {
    "train_audit": (
        "sandbox.generate",
        "sandbox.default_margin_weights",
        "sandbox.train",
        "sandbox.evaluate",
        "sandbox.bound_audit",
    ),
    "metrics_1e6": (
        "metrics.load_scores",
        "metrics.pr_curve",
        "metrics.average_precision",
        "metrics.ranking_error",
    ),
    "verify_all": tuple(f"verify.{s}" for s in SUITES),
}
_COUNTS = {
    "train_audit": (
        "sandbox.train.sample_epochs",
        "ecm_loss.elements",
        "sandbox.evaluate.classes",
        "sandbox.bound_audit.within_ratio",
    ),
    "metrics_1e6": ("metrics.load_scores.rows",),
    "verify_all": (),
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed probe or worker)."""


# ---------------------------------------------------------------------------
# machine block
# ---------------------------------------------------------------------------


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine_block(env: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {k: env.get(k) for k in _THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cache": _cache_sizes(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def child_env() -> dict:
    """Children import the checkout's source only, with single-threaded BLAS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for key in _THREAD_VARS:
        env[key] = "1"
    return env


# ---------------------------------------------------------------------------
# inputs, generated from the workload seed before any timing
# ---------------------------------------------------------------------------


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))


def _file_sha(path: Path) -> str:
    return sha256(path.read_bytes()).hexdigest()


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def make_train_audit(seed: int, size: dict, work: Path) -> dict:
    """Cycles of (ecm, bce, focal_ecm) over two seeds, so each (loss, seed) repeats."""
    op_seeds = [int(s) for s in _rng(seed, "train_audit").integers(0, 2**31 - 1, size=2)]
    schedule, inputs = [], {}
    for s in op_seeds:
        for loss in LOSSES:
            path = work / f"train_{loss}_{s}.json"
            path.write_text(json.dumps({"loss": loss, "seed": s, **size["train"]}), encoding="utf-8")
            inputs[path.name] = _file_sha(path)
            schedule.append({"argv": ["train", "--config", _rel(path)], "outputs": []})
    return {"schedule": schedule, "cycle": len(LOSSES), "min_ops": len(schedule) + len(LOSSES),
            "inputs": inputs, "expect": None}


def metrics_reference(k: np.ndarray, labels: np.ndarray, alpha: float) -> dict:
    """AP, ranking error (ties half) and PR-curve row count, numpy only.

    Works on the integer score codes k (score = k / 1e6, an order-preserving
    map) with per-value counts and tail sums, not the program's per-positive
    searchsorted, so it is an independent recomputation.
    """
    values, inverse = np.unique(k, return_inverse=True)
    pos_cnt = np.bincount(inverse[labels == 1], minlength=values.size).astype(np.int64)
    neg_cnt = np.bincount(inverse[labels == 0], minlength=values.size).astype(np.int64)
    n_pos, n_neg = int(pos_cnt.sum()), int(neg_cnt.sum())
    p_ge = np.cumsum(pos_cnt[::-1])[::-1]
    n_ge = np.cumsum(neg_cnt[::-1])[::-1]
    p_gt, n_gt = p_ge - pos_cnt, n_ge - neg_cnt
    has_pos = pos_cnt > 0
    r = p_ge[has_pos] / n_pos
    g = n_ge[has_pos] / n_neg
    ap = float(np.sum(pos_cnt[has_pos] * (r / (r + alpha * g))) / n_pos)
    less = int(np.sum(pos_cnt * n_gt))
    ties = int(np.sum(pos_cnt * neg_cnt))
    return {
        "n_plus": n_pos,
        "n_minus": n_neg,
        "average_precision": ap,
        "ranking_error": (less + 0.5 * ties) / (n_pos * n_neg),
        "curve_rows": int(np.count_nonzero(p_gt + n_gt > 0)),
    }


def make_metrics_1e6(seed: int, size: dict, work: Path) -> dict:
    """One score,label CSV: 5% positives ~ Beta(4,2), negatives ~ Beta(2,4), 6 decimals."""
    rng = _rng(seed, "metrics_1e6")
    rows = size["rows"]
    n_pos = rows // 20
    labels = np.zeros(rows, dtype=np.int64)
    labels[:n_pos] = 1
    raw = np.concatenate([rng.beta(4.0, 2.0, n_pos), rng.beta(2.0, 4.0, rows - n_pos)])
    order = rng.permutation(rows)
    labels, k = labels[order], np.rint(raw[order] * 1e6).astype(np.int64)
    whole, frac = np.divmod(k, 10**6)
    path = work / "scores.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("score,label\n")
        fh.writelines(
            f"{a}.{b:06d},{c}\n" for a, b, c in zip(whole.tolist(), frac.tolist(), labels.tolist())
        )
    curve = work / "pr_curve.csv"
    argv = ["metrics", "--scores", _rel(path), "--alpha", repr(METRICS_ALPHA), "--pr-curve", _rel(curve)]
    return {
        "schedule": [{"argv": argv, "outputs": [_rel(curve)]}],
        "cycle": 1,
        "min_ops": 2,
        "inputs": {path.name: _file_sha(path)},
        "expect": metrics_reference(k, labels, METRICS_ALPHA),
    }


def make_verify_all(seed: int, size: dict, work: Path) -> dict:
    """All suites, alternating two seeds, so each seed's report repeats."""
    op_seeds = [int(s) for s in _rng(seed, "verify_all").integers(0, 2**31 - 1, size=2)]
    schedule = [
        {"argv": ["verify", "--suite", "all", "--trials", str(size["trials"]), "--seed", str(s)],
         "outputs": []}
        for s in op_seeds
    ]
    digest = sha256(json.dumps(schedule, sort_keys=True).encode()).hexdigest()
    return {"schedule": schedule, "cycle": 1, "min_ops": 3, "inputs": {"schedule": digest},
            "expect": None}


MAKERS = {"train_audit": make_train_audit, "metrics_1e6": make_metrics_1e6, "verify_all": make_verify_all}


# ---------------------------------------------------------------------------
# output checks; an op fails on a nonzero exit code or a failed check
# ---------------------------------------------------------------------------


def _check_train(payload: dict, op: dict, expect) -> list[str]:
    problems = []
    if payload.get("bound_audit") is not True:
        problems.append("bound_audit is not true")
    aps = [p["ap"] for p in payload["per_class"]]
    if abs(payload["mean_ap"] - math.fsum(aps) / len(aps)) > AGREE_TOL:
        problems.append("mean_ap is not the mean of the per-class ap")
    return problems


def _check_metrics(payload: dict, op: dict, expect: dict) -> list[str]:
    problems = []
    for key in ("n_plus", "n_minus"):
        if payload[key] != expect[key]:
            problems.append(f"{key} {payload[key]} != {expect[key]}")
    for key in ("average_precision", "ranking_error"):
        if not abs(payload[key] - expect[key]) <= AGREE_TOL:
            problems.append(f"{key} {payload[key]!r} != reference {expect[key]!r}")
    curves = list(op["files"].values())
    if len(curves) != 1:
        problems.append("no PR-curve file written")
    elif curves[0]["rows"] != expect["curve_rows"]:
        problems.append(f"PR curve has {curves[0]['rows']} rows, expected {expect['curve_rows']}")
    return problems


def _check_verify(payload: dict, op: dict, expect) -> list[str]:
    return [] if payload.get("passed") is True else ["verify report did not pass"]


CHECKS = {"train_audit": _check_train, "metrics_1e6": _check_metrics, "verify_all": _check_verify}


def check_ops(workload: str, ops: list[dict], expect) -> list[dict]:
    """Per-op list of problems; repeated argv must give byte-identical outputs."""
    first_seen: dict[str, dict] = {}
    verdicts = []
    for op in ops:
        problems = []
        if op["exit"] != 0:
            problems.append(f"exit code {op['exit']}: {op['stderr_tail'].strip()[-300:]}")
        else:
            try:
                payload = json.loads(op["stdout"])
                problems += CHECKS[workload](payload, op, expect)
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        key = json.dumps(op["argv"])
        ref = first_seen.setdefault(key, op)
        if ref is not op:
            if op["stdout"] != ref["stdout"]:
                problems.append("stdout differs from an earlier op with the same argv")
            if {p: f["sha256"] for p, f in op["files"].items()} != {
                p: f["sha256"] for p, f in ref["files"].items()
            }:
                problems.append("output file differs from an earlier op with the same argv")
        verdicts.append({"argv": op["argv"], "traced": op["traced"], "problems": problems})
    return verdicts


# ---------------------------------------------------------------------------
# processes: setup probes and the worker
# ---------------------------------------------------------------------------

_VERSION_PROBE = "import sys; from ecmargin.cli import main; sys.exit(main(['--version']))"
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ecmargin.cli; "
    "print(repr(time.perf_counter() - t))"
)


def _time_child(code: str, env: dict) -> tuple[float, str]:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchError(f"probe {code!r} exited {done.returncode}: {done.stderr.strip()[-300:]}")
    return elapsed, done.stdout


def setup_probes(n: int, env: dict, traced: bool) -> dict:
    """n fresh interpreters each, after one untimed probe that compiles bytecode.

    The timed run probes `ecmargin --version` (setup_s); the traced run probes
    its parts, a bare interpreter and the import of ecmargin.cli.
    """
    _, out = _time_child(_VERSION_PROBE, env)
    if not out.startswith("ecmargin "):
        raise BenchError(f"unexpected --version output {out!r}")
    if not traced:
        return {"version_s": [_time_child(_VERSION_PROBE, env)[0] for _ in range(n)]}
    return {
        "interpreter_s": [_time_child("pass", env)[0] for _ in range(n)],
        "import_s": [float(_time_child(_IMPORT_PROBE, env)[1]) for _ in range(n)],
    }


def run_worker(spec: dict, work: Path, tag: str, env: dict, deadline: float) -> dict:
    spec_path, result_path = work / f"spec_{tag}.json", work / f"result_{tag}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag} worker passed the run deadline") from exc
    if done.returncode != 0:
        raise BenchError(f"{tag} worker exited {done.returncode}: {done.stderr.strip()[-500:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["ecmargin_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"worker imported ecmargin from {result['ecmargin_file']}, not {SRC}")
    return result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _work_per_op(workload: str, payload: dict) -> int:
    if workload == "train_audit":
        return payload["config"]["synthetic"]["total_samples"] * payload["config"]["train"]["epochs"]
    if workload == "metrics_1e6":
        return payload["n_plus"] + payload["n_minus"]
    return payload["trials"]


def end_to_end(workload: str, ops: list[dict], probes: dict, peak_rss_kb: int) -> dict:
    times = [op["elapsed_s"] for op in ops]
    work = sum(_work_per_op(workload, json.loads(op["stdout"])) for op in ops)
    return {
        "setup_s": (statistics.median(probes["version_s"]), len(probes["version_s"])),
        "op_s.p50": (statistics.median(times), len(times)),
        "work_per_s": (work / math.fsum(times), len(times)),
        "peak_rss_mb": (peak_rss_kb / 1024.0, 1),
    }


def per_layer(workload: str, result: dict) -> dict:
    """Medians over the traced ops of span totals, the op's other time, and counts."""
    by_op: dict[int, list[tuple[int, dict]]] = {}
    for i, span in enumerate(result["spans"]):
        by_op.setdefault(span["op"], []).append((i, span))
    counts: dict[int, dict] = {}
    for c in result["counts"]:
        per = counts.setdefault(c["op"], {})
        per[c["name"]] = per.get(c["name"], 0) + c["value"]

    samples: dict[str, list[float]] = {}
    command = _COMMAND[workload]
    for op_id, spans in sorted(by_op.items()):
        root_id, root = next((i, s) for i, s in spans if s["name"] == f"cli.{command}")
        values = {f"{name}_s": 0.0 for name in _SPANS[workload]}
        for _, s in spans:
            if s["name"] in _SPANS[workload]:
                values[f"{s['name']}_s"] += s["end"] - s["start"]
        children = math.fsum(s["end"] - s["start"] for _, s in spans if s["parent"] == root_id)
        values[f"cli.{command}.other_s"] = (root["end"] - root["start"]) - children
        for name in _COUNTS[workload]:
            values[name] = counts.get(op_id, {}).get(name, 0)
        op = result["ops"][op_id]
        if workload == "metrics_1e6":
            curve = next(iter(op["files"].values()))
            values["metrics.pr_curve.points"] = curve["rows"]
            values["cli.metrics.bytes_out"] = len(op["stdout"].encode()) + curve["bytes"]
        elif workload == "verify_all":
            checks = [c for suite in json.loads(op["stdout"])["suites"] for c in suite["checks"]]
            values["verify.checks"] = len(checks)
            values["verify.checks_passed_ratio"] = sum(c["passed"] for c in checks) / len(checks)
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    return {name: (statistics.median(v), len(v)) for name, v in samples.items()}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    if not (SRC / "ecmargin" / "cli.py").is_file():
        raise BenchError(f"program source {SRC / 'ecmargin'} not found")
    deadline = time.monotonic() + RUN_DEADLINE_S
    size = SMOKE if smoke else FULL
    env = child_env()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        names = WORKLOADS if traced else (workload,)
        prepared = {w: MAKERS[w](seed, size, work) for w in names}
        probes = setup_probes(size["setup_probes"], env, traced)
        # the traced run spreads its seconds over the workloads it replays,
        # and each of its steps is an untraced and a traced op
        share = seconds / (2 * len(names)) if traced else seconds
        results, verdicts = {}, {}
        for w in names:
            p = prepared[w]
            # a traced run needs one whole cycle, not whole cycles to the end
            spec = {"schedule": p["schedule"], "seconds": share, "traced": traced,
                    "cycle": 1 if traced else p["cycle"],
                    "min_ops": p["cycle"] if traced else p["min_ops"]}
            results[w] = run_worker(spec, work, w, env, deadline)
            verdicts[w] = check_ops(w, results[w]["ops"], p["expect"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_verdicts = [v for w in names for v in verdicts[w]]
    failed = sum(1 for v in all_verdicts if v["problems"])
    if traced:
        figures = {"setup.interpreter_s": (statistics.median(probes["interpreter_s"]), len(probes["interpreter_s"])),
                   "setup.import_s": (statistics.median(probes["import_s"]), len(probes["import_s"]))}
        plain = [op["elapsed_s"] for w in names for op in results[w]["ops"] if not op["traced"]]
        with_spans = [op["elapsed_s"] for w in names for op in results[w]["ops"] if op["traced"]]
        figures["trace.overhead_ratio"] = (math.fsum(with_spans) / math.fsum(plain), len(with_spans))
        if not failed:
            for w in names:
                figures.update(per_layer(w, results[w]))
        units = PER_LAYER
    else:
        figures = {}
        if not failed:
            figures = end_to_end(workload, results[workload]["ops"], probes, results[workload]["peak_rss_kb"])
        units = END_TO_END

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "smoke": smoke,
        "machine": machine_block(env),
        "inputs": {w: prepared[w]["inputs"] for w in names},
        "op_times_s": {w: [[op["elapsed_s"], op["traced"]] for op in results[w]["ops"]] for w in names},
        "failures": [v for v in all_verdicts if v["problems"]],
        "metrics": {k: {"value": v, "unit": units[k], "n": n} for k, (v, n) in figures.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(traced)}{'-smoke' if smoke else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if traced:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for w in names:
                for span in results[w]["spans"]:
                    fh.write(json.dumps({"workload": w, **span}) + "\n")

    missing = sorted(set(units) - set(figures))
    return {
        "correct": not failed and not missing,
        "attempted": len(all_verdicts),
        "failed": failed,
        "record": record,
        "missing": missing,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; a run takes seconds")
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    for failure in out["record"]["failures"]:
        sys.stderr.write(f"bench: op {failure['argv']} failed: {'; '.join(failure['problems'])}\n")
    if out["missing"]:
        sys.stderr.write(f"bench: no value for {', '.join(out['missing'])}\n")
    prefix = "" if args.trace else f"{args.workload}."
    for name, m in out["record"]["metrics"].items():
        label = f"{prefix}{name}"
        if name == "work_per_s":
            label = f"{prefix}{WORK_UNIT[args.workload]}_per_s"
        print(f"{label} = {m['value']:.6g} {m['unit']} (n={m['n']})")
    metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in out["record"]["metrics"].items()}
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
