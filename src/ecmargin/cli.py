"""Command line interface: margins, bounds, metrics, verify, train.

Exit codes: 0 success; 1 a verification run failed its checks (a
machine-readable report still goes to standard output); 2 malformed input or
flag values.  Every emitted document echoes the resolved configuration, JSON
under a "config" key and CSV as a leading "# {...}" comment line, and
contains no timestamps, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

from . import __version__, verify
from .bounds import envelope, slope_m, SLOPE_MODES
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
from .priors import background_count, class_stats, load_counts
from .sandbox import (
    SyntheticConfig,
    TrainConfig,
    bound_audit,
    run_experiment,
)

_CURVE_STEPS = 100


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _config_comment(config: dict) -> str:
    return "# " + json.dumps(config, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv_text(config: dict, header: list[str], rows: list[list]) -> str:
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
    config = {
        "command": command,
        "seed": args.seed,
        "format": args.format,
        "out": args.out,
    }
    config.update(extra)
    return config


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_margins(args) -> int:
    counts = load_counts(args.counts)
    ratio = args.background_ratio
    if ratio is None:
        ratio = counts.background_ratio if counts.background_ratio is not None else 0.0
    if ratio < 0:
        raise EcmError(f"--background-ratio must be >= 0, got {ratio}")
    background = background_count(counts, ratio)
    config = _resolved(
        args,
        "margins",
        counts=args.counts,
        background_ratio=float(ratio),
        background_count=background,
    )

    classes = []
    for entry in sorted(counts.entries, key=lambda e: e.class_id):
        stats = class_stats(counts, entry.class_id, background)
        margins = optimal_margins(stats)
        w = weights(margins)
        classes.append(
            {
                "id": entry.class_id,
                "n_plus": stats.n_plus,
                "n_minus": stats.n_minus,
                "alpha": _sig12(stats.alpha),
                "gamma_plus": _sig12(margins.gamma_plus),
                "gamma_minus": _sig12(margins.gamma_minus),
                "w_plus": _sig12(w.w_plus),
                "w_minus": _sig12(w.w_minus),
            }
        )

    if args.format == "csv":
        header = [
            "id",
            "n_plus",
            "n_minus",
            "alpha",
            "gamma_plus",
            "gamma_minus",
            "w_plus",
            "w_minus",
        ]
        rows = [[c[k] for k in header] for c in classes]
        _emit(_csv_text(config, header, rows), args.out)
    else:
        _emit(_json_text({"config": config, "classes": classes}), args.out)
    return 0


def _cmd_bounds(args) -> int:
    if args.r is None and args.emit_curve is None:
        raise EcmError("provide --r for a point evaluation and/or --emit-curve <path>")
    config = _resolved(
        args,
        "bounds",
        alpha=args.alpha,
        r=args.r,
        mode=args.mode,
        emit_curve=args.emit_curve,
    )

    if args.emit_curve is not None:
        rows = []
        for i in range(_CURVE_STEPS + 1):
            r = i / _CURVE_STEPS
            env = envelope(args.alpha, r, args.mode)
            rows.append(
                [r, env.ap_lower, env.ap_upper, env.det_lower, env.det_upper]
            )
        header = ["r", "ap_lower", "ap_upper", "det_lower", "det_upper"]
        _emit(_csv_text(config, header, rows), args.emit_curve)

    if args.r is not None:
        env = envelope(args.alpha, args.r, args.mode)
        fields = {
            "alpha": env.alpha,
            "ranking_error": env.ranking_error,
            "ap_lower": env.ap_lower,
            "ap_upper": env.ap_upper,
            "det_lower": env.det_lower,
            "det_upper": env.det_upper,
            "slope_m": env.slope_m,
            "slope_mode": env.slope_mode,
        }
        if args.format == "csv":
            header = list(fields)
            _emit(_csv_text(config, header, [[fields[k] for k in header]]), args.out)
        else:
            _emit(_json_text({"config": config, **fields}), args.out)
    elif args.out is not None:
        raise EcmError("--out without --r has nothing to write; use --emit-curve")
    return 0


def _cmd_metrics(args) -> int:
    try:
        alpha = _check_alpha(args.alpha)
    except ValidationError:
        raise EcmError(f"--alpha must be > 0 and finite, got {args.alpha}") from None
    ss = load_scores(args.scores)
    config = _resolved(
        args,
        "metrics",
        scores=args.scores,
        alpha=args.alpha,
        ties=args.ties,
        pr_curve=args.pr_curve,
    )
    ap = average_precision(ss, alpha)
    r = ranking_error(ss, ties=args.ties)
    fields = {
        "n_plus": ss.n_plus,
        "n_minus": ss.n_minus,
        "alpha": alpha,
        "average_precision": ap,
        "ranking_error": r,
        "det_error": 1.0 - ap,
    }
    if args.pr_curve is not None:
        curve = pr_curve(ss, alpha)
        columns = (curve.thresholds.tolist(), curve.recall.tolist(), curve.precision.tolist())
        # csv.writer writes a float as its repr, so these are _csv_text's bytes
        rows = "".join([f"{t!r},{rec!r},{prec!r}\n" for t, rec, prec in zip(*columns)])
        _emit(
            _config_comment(config) + "threshold,recall,precision\n" + rows,
            args.pr_curve,
        )
    if args.format == "csv":
        header = list(fields)
        _emit(_csv_text(config, header, [[fields[k] for k in header]]), args.out)
    else:
        _emit(_json_text({"config": config, **fields}), args.out)
    return 0


def _cmd_verify(args) -> int:
    _require_json_format(args, "verify")
    config = _resolved(args, "verify", suite=args.suite, trials=args.trials)
    report = verify.run(suite=args.suite, trials=args.trials, seed=args.seed)
    text = _json_text({"config": config, **report})
    sys.stdout.write(text)
    if args.out is not None:
        _emit(text, args.out)
    return 0 if report["passed"] else 1


def _dataclass_from(flat: dict, cls, overrides: dict) -> object:
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {k: v for k, v in flat.items() if k in names}
    kwargs.update({k: v for k, v in overrides.items() if k in names})
    return cls(**kwargs)


def _cmd_train(args) -> int:
    _require_json_format(args, "train")
    flat = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                flat = json.load(fh)
        except json.JSONDecodeError as exc:
            raise EcmError(f"config file {args.config}: {exc}") from exc
        if not isinstance(flat, dict):
            raise EcmError(f"config file {args.config}: expected a JSON object")

    synth_names = {f.name for f in dataclasses.fields(SyntheticConfig)}
    train_names = {f.name for f in dataclasses.fields(TrainConfig)}
    known = synth_names | train_names | {"train_seed"}
    unknown = sorted(set(flat) - known)
    if unknown:
        raise EcmError(f"unknown config keys: {', '.join(unknown)}")

    seed = args.seed if args.seed is not None else int(flat.get("seed", 0))
    train_seed = int(flat.get("train_seed", seed))
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
    _, report = run_experiment(scfg, tcfg)
    audit_ok = bound_audit(report)

    payload = {"config": config, **report.to_dict(), "bound_audit": audit_ok}
    text = _json_text(payload)
    sys.stdout.write(text)
    if args.out is not None:
        _emit(text, args.out)
    if args.loss_curve is not None:
        rows = [[epoch, loss] for epoch, loss in report.loss_curve]
        _emit(_csv_text(config, ["epoch", "mean_loss"], rows), args.loss_curve)
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
    except EcmError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
