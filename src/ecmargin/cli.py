"""Command line interface: margins, bounds, metrics, verify, train.

Exit codes: 0 success; 1 a verification run failed its checks (a
machine-readable report still goes to standard output); 2 malformed input or
flag values.  Every emitted document echoes the resolved configuration, JSON
under a "config" key and CSV as a leading "# {...}" comment line, and
contains no timestamps, so identical invocations produce identical bytes.
``metrics``, ``verify`` and ``train`` share their work with a forked child
through ``_fork.share``'s fork-join; the bytes are identical either way.
``verify.run`` and ``sandbox.train`` fork for ``verify`` and ``train``;
``metrics`` forks up to twice: ``load_scores`` parses the second half of a
long plain scores file in one child, and with ``--pr-curve`` another formats
the second half of a long curve.

``metrics`` parses a plain scores file, and writes the PR curve, in fixed-size
chunks with the same bytes as in one piece.  The curve's numbers are repr's
bytes, written from whole numpy columns by ``_reprs.cells``, which takes repr
itself for a value it cannot decide exactly.  Its memory grows with the file's
bytes, numpy arrays of one entry per row or curve point, and the forked
workers' results, their halves of the parse and of the curve, not with a
Python object per row.  Every command opens its output files before it reads
or computes anything, and refuses an output path that names an input file or
another output; a command that exits 2 on its input leaves every output path
as it was.

Building the parser needs no numpy, so the module imports only that much;
each handler imports the modules it runs.  ``--version``, ``--help``, a usage
error and ``margins`` never load numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import stat
import sys

from . import __version__
from ._choices import HALF, SLOPE_MODES, STRICT, SUITES
from .errors import EcmError, ValidationError

_CURVE_STEPS = 100
# Forking a child to format the second half of the PR curve pays for itself
# only from this many rows on (the measurement is in CHANGES.md).
_SPLIT_MIN_ROWS = 10_000
# The curve is formatted and written this many rows at a time, so the bytes
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
    import json

    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _config_comment(config: dict) -> str:
    import json

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
    yet, so that writing either overwrites the other."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.isfile(a) and os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(args, inputs: tuple[str, ...], outputs: tuple[str, ...]) -> None:
    """Refuse an output path that names an input file or an earlier output,
    before anything is opened: writing it would overwrite that file."""
    paths = [(dest, getattr(args, dest)) for dest in inputs + outputs]
    paths = [(dest, path) for dest, path in paths if path is not None]
    for i, (dest, path) in enumerate(paths):
        for other, other_path in paths[:i]:
            if dest in outputs and _same_file(path, other_path):
                flags = ["--" + name.replace("_", "-") for name in (dest, other)]
                raise EcmError(f"{flags[0]} {path} names the same file as {flags[1]}")


@contextlib.contextmanager
def _open_output(path: str | None):
    """path opened for writing, or None when it is None.  Every command opens
    its files before it computes, so a bad path fails first.  The file is
    opened without truncating and written from its start, and a regular file
    is cut at the end of what was written only when the command finishes
    with exit 0 or 1; a FIFO or a device is never truncated.  When the
    command raises instead, a file this run created is removed and an
    existing one is not cut, so an input error, raised before anything is
    written, leaves every output path as it was."""
    if path is None:
        yield None
        return
    try:
        fd, created = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), True
    except FileExistsError:
        fd, created = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), False
    with open(fd, "w", encoding="utf-8") as fh:
        try:
            yield fh
        except BaseException:
            if created:
                os.unlink(path)
            raise
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _emit_report(payload: dict, out) -> None:
    """verify and train print their JSON report, and also write it to the
    opened --out file, if any."""
    text = _json_text(payload)
    sys.stdout.write(text)
    if out is not None:
        out.write(text)


def _csv_text(config: dict, header: list[str], rows) -> str:
    import csv

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
    from .margins import optimal_margins, weights
    from .priors import all_class_stats, background_count, load_counts

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
    import dataclasses

    import numpy as np

    from .bounds import envelope

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
    from .metrics import _check_alpha, average_precision, load_scores, pr_curve, ranking_error

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


def _curve_rows(curve, lo: int, hi: int) -> bytes:
    """Rows lo..hi-1 of the PR-curve CSV, as ASCII bytes.  csv.writer writes
    a float as its repr, so these are _csv_text's bytes.  Each row is a
    fixed-width line of bytes, its three cells zero-padded by _reprs.cells,
    which writes repr's bytes from whole columns; the nonzero bytes of all
    lines, gathered in one pass, are the text.  Recall, which steps only at
    a positive's score, is formatted once per run of equal values and
    repeated over the run."""
    import numpy as np

    from ._reprs import WIDTH, cells

    recall = curve.recall[lo:hi]
    starts = np.flatnonzero(np.concatenate([[True], recall[1:] != recall[:-1]]))
    runs = np.empty((starts.size, WIDTH), dtype=np.uint8)
    cells(recall[starts], runs, ",")
    lines = np.empty((recall.size, 3, WIDTH), dtype=np.uint8)
    cells(curve.thresholds[lo:hi], lines[:, 0], ",")
    lines[:, 1] = np.repeat(runs, np.diff(starts, append=recall.size), axis=0)
    cells(curve.precision[lo:hi], lines[:, 2], "\n")
    return lines[lines != 0].tobytes()


def _curve_chunks(curve, lo: int, hi: int):
    """Rows lo..hi-1 of the PR-curve CSV, _CURVE_CHUNK_ROWS rows at a time."""
    for start in range(lo, hi, _CURVE_CHUNK_ROWS):
        yield _curve_rows(curve, start, min(start + _CURVE_CHUNK_ROWS, hi))


def _write_pr_curve(fh, head: str, curve) -> None:
    """head, then the curve's rows, to the open text file fh, one chunk of
    rows at a time; the rows go to its binary buffer.  When a fork is
    available, a long curve's second half is formatted by a forked child,
    whose chunks are written after the first half's.  The child returns its
    chunks as a list, not joined: one bytes object of the whole half would
    be held twice at once, in the child by the join and here by the
    unpickling, about 10 MB more in each at 10**6 rows."""
    from . import _fork

    rows = curve.thresholds.size
    cut = rows // 2 if rows >= _SPLIT_MIN_ROWS and _fork.available() else rows
    theirs = (lambda: list(_curve_chunks(curve, cut, rows))) if cut < rows else None
    fh.write(head)
    fh.flush()
    _, rest = _fork.share(lambda: fh.buffer.writelines(_curve_chunks(curve, 0, cut)), theirs)
    fh.buffer.writelines(rest or ())


def _cmd_verify(args) -> int:
    from . import verify

    _require_json_format(args, "verify")
    verify.plan(args.suite, args.trials, args.seed)  # before --out is opened
    config = _resolved(args, "verify", suite=args.suite, trials=args.trials)
    with _open_output(args.out) as out:
        report = verify.run(args.suite, args.trials, args.seed)
        _emit_report({"config": config, **report}, out)
    return 0 if report["passed"] else 1


def _dataclass_from(flat: dict, cls, overrides: dict) -> object:
    import dataclasses

    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {k: v for k, v in flat.items() if k in names}
    kwargs.update({k: v for k, v in overrides.items() if k in names})
    return cls(**kwargs)


def _cmd_train(args) -> int:
    import dataclasses
    import json

    from .priors import read_json
    from .sandbox import SyntheticConfig, TrainConfig, bound_audit, run_experiment

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
        choices=("all",) + SUITES,
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
