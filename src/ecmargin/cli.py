"""Command line interface: margins, bounds, metrics, verify, train.

Exit codes: 0 success; 1 a verification run failed its checks (a
machine-readable report still goes to standard output); 2 malformed input or
flag values.  Every emitted document echoes the resolved configuration, JSON
under a "config" key and CSV as a leading "# {...}" comment line, and
contains no timestamps, so identical invocations produce identical bytes.

On Linux with more than one usable CPU, a long ``metrics --pr-curve`` curve is
formatted in two halves, the second by a forked worker, and written in order;
``verify --suite all`` runs the bounds suite here and the other four suites in
a forked worker; and ``train`` with a linear head trains its second block of
classes in a forked worker.  The bytes are identical either way.

``metrics`` parses a plain scores file, and writes the PR curve, in fixed-size
chunks with the same bytes as in one piece.  Its memory grows with the file's
bytes, numpy arrays of one entry per row or curve point, and the bytes of the
forked worker's half of the curve, not with a Python object per row.  Every
command opens its output files before it reads or computes anything, and
refuses an output path that names an input file or another output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__, _fork, verify
from .bounds import SLOPE_MODES, envelope
from .errors import EcmError, ValidationError
from .margins import optimal_margins, weights
from .metrics import (
    HALF,
    STRICT,
    _check_alpha,
    average_precision,
    load_scores,
    pr_curve,
    ranking_error,
)
from .priors import all_class_stats, background_count, load_counts, read_json
from .sandbox import (
    SyntheticConfig,
    TrainConfig,
    bound_audit,
    run_experiment,
)

_CURVE_STEPS = 100
# Forking a child to format the second half of the PR curve pays for itself
# only from this many rows on (the measurement is in CHANGES.md).
_SPLIT_MIN_ROWS = 10_000
# The curve is formatted and written this many rows at a time, so the strings
# held at once do not grow with the curve (the measurement is in CHANGES.md).
_CURVE_CHUNK_ROWS = 16_384
# the JSON values a train config field of each annotated type accepts
_CONFIG_TYPES = {
    "int": (int, "an integer"),
    "float": ((int, float), "a finite number"),
    "str": (str, "a string"),
    "bool": (bool, "true or false"),
}


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _config_comment(config: dict) -> str:
    return "# " + json.dumps(config, sort_keys=True, separators=(",", ":")) + "\n"


def _emit_document(args, config: dict, body: dict, rows: list[dict], out) -> None:
    """The main output, to the opened --out file or else stdout: a JSON
    document of the config and the body, or with --format csv the rows under
    the config comment."""
    if args.format == "csv":
        text = _csv_text(config, list(rows[0]), [list(row.values()) for row in rows])
    else:
        text = _json_text({"config": config, **body})
    (sys.stdout if out is None else out).write(text)


def _same_file(a: str, b: str) -> bool:
    """Whether a and b name one regular file, or one path that is not a file
    yet, so that opening either for writing empties the other."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.isfile(a) and os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(args, inputs: tuple[str, ...], outputs: tuple[str, ...]) -> None:
    """Refuse an output path that names an input file or an earlier output,
    before anything is opened: opening it would empty that file."""
    paths = [(dest, getattr(args, dest)) for dest in inputs + outputs]
    paths = [(dest, path) for dest, path in paths if path is not None]
    for i, (dest, path) in enumerate(paths):
        for other, other_path in paths[:i]:
            if dest in outputs and _same_file(path, other_path):
                flags = ["--" + name.replace("_", "-") for name in (dest, other)]
                raise EcmError(f"{flags[0]} {path} names the same file as {flags[1]}")


def _open_output(path: str | None):
    """path opened for writing, or a null context when it is None.  Every
    command opens its files before it computes, so a bad path fails first."""
    return contextlib.nullcontext() if path is None else open(path, "w", encoding="utf-8")


def _emit_report(payload: dict, out) -> None:
    """verify and train print their JSON report, and also write it to the
    opened --out file, if any."""
    text = _json_text(payload)
    sys.stdout.write(text)
    if out is not None:
        out.write(text)


def _csv_text(config: dict, header: list[str], rows) -> str:
    buf = io.StringIO()
    buf.write(_config_comment(config))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _sig12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _require_json_format(args, command: str) -> None:
    if args.format != "json":
        raise EcmError(f"{command} supports --format json only")


def _resolved(args, command: str, **extra) -> dict:
    return {"command": command, "seed": args.seed, "format": args.format, "out": args.out, **extra}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_margins(args) -> int:
    ratio = args.background_ratio
    if ratio is not None and not 0.0 <= ratio < math.inf:
        raise EcmError(f"--background-ratio must be >= 0 and finite, got {ratio}")
    _check_outputs(args, ("counts",), ("out",))
    with _open_output(args.out) as out:
        counts = load_counts(args.counts)  # it checks the file's own ratio
        if ratio is None:
            ratio = counts.background_ratio if counts.background_ratio is not None else 0.0
        background = background_count(counts, ratio)
        config = _resolved(
            args,
            "margins",
            counts=args.counts,
            background_ratio=float(ratio),
            background_count=background,
        )

        classes = []
        for class_id, stats in all_class_stats(counts, background).items():
            margins = optimal_margins(stats)
            w = weights(margins)
            classes.append(
                {
                    "id": class_id,
                    "n_plus": stats.n_plus,
                    "n_minus": stats.n_minus,
                    "alpha": _sig12(stats.alpha),
                    "gamma_plus": _sig12(margins.gamma_plus),
                    "gamma_minus": _sig12(margins.gamma_minus),
                    "w_plus": _sig12(w.w_plus),
                    "w_minus": _sig12(w.w_minus),
                }
            )
        _emit_document(args, config, {"classes": classes}, classes, out)
    return 0


def _cmd_bounds(args) -> int:
    if args.r is None and args.emit_curve is None:
        raise EcmError("provide --r for a point evaluation and/or --emit-curve <path>")
    if args.r is None and args.out is not None:
        raise EcmError("--out without --r has nothing to write; use --emit-curve")
    _check_outputs(args, (), ("out", "emit_curve"))
    config = _resolved(
        args,
        "bounds",
        alpha=args.alpha,
        r=args.r,
        mode=args.mode,
        emit_curve=args.emit_curve,
    )

    # The bounds take microseconds and computing them is what checks --alpha
    # and --r, so they come before any file is opened.
    if args.emit_curve is not None:
        r = np.arange(_CURVE_STEPS + 1) / _CURVE_STEPS  # the floats i / 100
        env = envelope(args.alpha, r)
        columns = [r, env.ap_lower, env.ap_upper, env.det_lower, env.det_upper]
        rows = np.column_stack(columns).tolist()
        header = ["r", "ap_lower", "ap_upper", "det_lower", "det_upper"]
    if args.r is not None:
        fields = dataclasses.asdict(envelope(args.alpha, args.r, args.mode))

    with _open_output(args.out) as out, _open_output(args.emit_curve) as curve_out:
        if curve_out is not None:
            curve_out.write(_csv_text(config, header, rows))
        if args.r is not None:
            _emit_document(args, config, fields, [fields], out)
    return 0


def _cmd_metrics(args) -> int:
    try:
        alpha = _check_alpha(args.alpha)
    except ValidationError:
        raise EcmError(f"--alpha must be > 0 and finite, got {args.alpha}") from None
    _check_outputs(args, ("scores",), ("out", "pr_curve"))
    config = _resolved(
        args,
        "metrics",
        scores=args.scores,
        alpha=args.alpha,
        ties=args.ties,
        pr_curve=args.pr_curve,
    )
    with _open_output(args.out) as out, _open_output(args.pr_curve) as curve_out:
        ss = load_scores(args.scores)
        ap = average_precision(ss, alpha)
        fields = {
            "n_plus": ss.n_plus,
            "n_minus": ss.n_minus,
            "alpha": alpha,
            "average_precision": ap,
            "ranking_error": ranking_error(ss, ties=args.ties),
            "det_error": 1.0 - ap,
        }
        if curve_out is not None:
            head = _config_comment(config) + "threshold,recall,precision\n"
            _write_pr_curve(curve_out, head, pr_curve(ss, alpha))
        _emit_document(args, config, fields, [fields], out)
    return 0


def _curve_rows(curve, lo: int, hi: int) -> str:
    """Rows lo..hi-1 of the PR-curve CSV.  csv.writer writes a float as its
    repr, so these are _csv_text's bytes.  Recall steps only at a positive's
    score, so it is formatted once per run of equal values and that text
    repeated over the run; thresholds and precisions are formatted per row."""
    recall = curve.recall[lo:hi]
    starts = np.flatnonzero(np.concatenate([[True], recall[1:] != recall[:-1]]))
    text = np.array([repr(x) for x in recall[starts].tolist()], dtype=object)
    rec = np.repeat(text, np.diff(starts, append=recall.size)).tolist()
    columns = (curve.thresholds[lo:hi].tolist(), rec, curve.precision[lo:hi].tolist())
    return "".join([f"{t!r},{r},{prec!r}\n" for t, r, prec in zip(*columns)])


def _curve_chunks(curve, lo: int, hi: int):
    """Rows lo..hi-1 of the PR-curve CSV, _CURVE_CHUNK_ROWS rows at a time."""
    for start in range(lo, hi, _CURVE_CHUNK_ROWS):
        yield _curve_rows(curve, start, min(start + _CURVE_CHUNK_ROWS, hi))


def _curve_bytes(curve, lo: int, hi: int) -> bytearray:
    """Rows lo..hi-1 of the PR-curve CSV, encoded one chunk at a time into
    one buffer, so they are never held twice, as a join of the chunks would."""
    data = bytearray()
    for chunk in _curve_chunks(curve, lo, hi):
        data += chunk.encode()
    return data


def _write_pr_curve(fh, head: str, curve) -> None:
    """head, then the curve's rows, to the open text file fh, one chunk of
    rows at a time.  A long curve's second half is formatted by a forked child
    while this process formats the first, and its bytes go to fh's binary
    layer; a half whose child failed or never started is formatted here too."""
    rows = curve.thresholds.size
    cut = rows // 2 if rows >= _SPLIT_MIN_ROWS and _fork.can_fork() else rows
    child = _fork.fork(lambda: _curve_bytes(curve, cut, rows)) if cut < rows else None
    try:
        fh.write(head)
        fh.writelines(_curve_chunks(curve, 0, cut))
    finally:
        data = _fork.collect(child)
    if data is None:
        fh.writelines(_curve_chunks(curve, cut, rows))
    else:
        fh.flush()
        fh.buffer.write(data)


def _cmd_verify(args) -> int:
    _require_json_format(args, "verify")
    names = verify.plan(args.suite, args.trials, args.seed)
    config = _resolved(args, "verify", suite=args.suite, trials=args.trials)

    def run_suites(part) -> list[dict]:
        return [verify.run_suite(name, args.trials, args.seed) for name in part]

    # the first suite (bounds, the longest) runs here, the rest in a forked
    # child that sends their reports back as JSON, which keeps every float
    here, there = names[:1], names[1:]
    with _open_output(args.out) as out:
        forks = there and _fork.can_fork()
        child = _fork.fork(lambda: json.dumps(run_suites(there)).encode()) if forks else None
        try:
            reports = run_suites(here)
        finally:
            data = _fork.collect(child)
        reports += run_suites(there) if data is None else json.loads(data)
        report = verify.report(args.suite, args.trials, args.seed, reports)
        _emit_report({"config": config, **report}, out)
    return 0 if report["passed"] else 1


def _dataclass_from(flat: dict, cls, overrides: dict) -> object:
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {k: v for k, v in flat.items() if k in names}
    kwargs.update({k: v for k, v in overrides.items() if k in names})
    return cls(**kwargs)


def _cmd_train(args) -> int:
    _require_json_format(args, "train")
    flat = {} if args.config is None else read_json(args.config)
    if not isinstance(flat, dict):
        raise EcmError(f"config file {args.config}: expected a JSON object")

    types = {
        f.name: f.type for cls in (SyntheticConfig, TrainConfig) for f in dataclasses.fields(cls)
    }
    types["train_seed"] = "int"
    unknown = sorted(set(flat) - set(types))
    if unknown:
        raise EcmError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in flat.items():
        accepted, description = _CONFIG_TYPES[types[key]]
        # bool is an int to isinstance, so a bool passes only where one is expected
        if (
            isinstance(value, bool) != (types[key] == "bool")
            or not isinstance(value, accepted)
            or (isinstance(value, float) and not math.isfinite(value))
        ):
            raise EcmError(f"config key {key} must be {description}, got {json.dumps(value)}")

    seed = args.seed if args.seed is not None else flat.get("seed", 0)
    train_seed = flat.get("train_seed", seed)
    scfg = _dataclass_from(flat, SyntheticConfig, {"seed": seed})
    tcfg = _dataclass_from(flat, TrainConfig, {"seed": train_seed})

    config = _resolved(
        args,
        "train",
        config_file=args.config,
        loss_curve=args.loss_curve,
        synthetic=dataclasses.asdict(scfg),
        train=dataclasses.asdict(tcfg),
    )
    _check_outputs(args, ("config",), ("out", "loss_curve"))
    with _open_output(args.out) as out, _open_output(args.loss_curve) as curve_out:
        _, report = run_experiment(scfg, tcfg)
        audit_ok = bound_audit(report)
        _emit_report({"config": config, **report.to_dict(), "bound_audit": audit_ok}, out)
        if curve_out is not None:
            curve_out.write(_csv_text(config, ["epoch", "mean_loss"], report.loss_curve))
    return 0 if audit_ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help="deterministic seed; for train it also seeds the dataset unless "
        "the config file sets train_seed (default 0)",
    )
    common.add_argument("--out", default=None, help="write the main output to this file")
    common.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="main output encoding (curves are always CSV; verify/train are JSON only)",
    )

    parser = argparse.ArgumentParser(
        prog="ecmargin",
        description="Effective class margins: estimators, bounds, losses, sandbox.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "margins",
        parents=[common],
        help="per-class optimal margins and weights from an instance-count file",
    )
    p.add_argument(
        "--counts",
        required=True,
        help="JSON {categories:[{id,name,instance_count}],background_ratio?} or "
        "CSV with header id,name,instance_count",
    )
    p.add_argument(
        "--background-ratio",
        type=float,
        default=None,
        help="background-to-foreground ratio r (default: the file's value, else 0)",
    )
    p.set_defaults(handler=_cmd_margins)

    p = sub.add_parser(
        "bounds",
        parents=[common],
        help="AP / detection-error bound envelope at one (alpha, R), or a full curve",
    )
    p.add_argument("--alpha", type=float, required=True, help="negative/positive ratio")
    p.add_argument("--r", type=float, default=None, help="ranking error in [0,1]")
    p.add_argument(
        "--mode",
        choices=SLOPE_MODES,
        default="upper",
        help="slope_m mode reported in the envelope (default upper)",
    )
    p.add_argument(
        "--emit-curve",
        default=None,
        metavar="PATH",
        help="write CSV r,ap_lower,ap_upper,det_lower,det_upper over r in {0,0.01,...,1}",
    )
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser(
        "metrics",
        parents=[common],
        help="AP and ranking error of a score,label CSV file",
    )
    p.add_argument("--scores", required=True, help="CSV with header score,label (label 1/0)")
    p.add_argument("--alpha", type=float, required=True, help="negative/positive ratio")
    p.add_argument(
        "--ties",
        choices=(HALF, STRICT),
        default=HALF,
        help="tie convention for the ranking error (default half credit)",
    )
    p.add_argument(
        "--pr-curve",
        default=None,
        metavar="PATH",
        help="write the CSV threshold,recall,precision curve to this file",
    )
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="run seeded property suites; exit 1 if any check fails",
    )
    p.add_argument(
        "--suite",
        choices=("all",) + verify.SUITES,
        default="all",
        help="which suite to run (default all)",
    )
    p.add_argument("--trials", type=int, default=1000, help="trial count per suite")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "train",
        parents=[common],
        help="generate the synthetic sandbox, train, evaluate, and audit the bounds",
    )
    p.add_argument(
        "--config",
        default=None,
        help="flat JSON object with SyntheticConfig and TrainConfig fields "
        "(shared 'seed'; optional 'train_seed')",
    )
    p.add_argument(
        "--loss-curve",
        default=None,
        metavar="PATH",
        help="write the CSV epoch,mean_loss curve to this file",
    )
    p.set_defaults(handler=_cmd_train)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.seed is None and args.command != "train":
        args.seed = 0
    try:
        return args.handler(args)
    except (EcmError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
