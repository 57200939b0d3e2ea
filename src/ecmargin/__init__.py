"""Effective class margins for long-tail detection.

Estimators for probabilistic AP and pairwise ranking error, closed-form
bounds tying the two together, optimal per-class margins with the matching
surrogate loss, and a synthetic sandbox that audits trained models against
the theory.

A public name's module is imported when the name is first read (PEP 562), so
``import ecmargin`` loads neither numpy nor any module that needs it.
"""

from importlib import import_module as _import_module

# every public name, by the module that defines it; "name=attr" exports attr
# under another name
_PUBLIC = {
    "_choices": "SUITES",
    "bounds": (
        "Audit BoundEnvelope analytic_min_feasible ap_lower ap_lower_branches ap_upper audit "
        "binary_bound_check envelope slope_m variational_max_oracle variational_min_oracle"
    ),
    "errors": "EcmError InputFormatError NumericalError ResourceLimitError ValidationError",
    "losses": (
        "NEGATIVE POSITIVE LossEval bce_loss decision_logit ecm_loss focal_ecm_loss "
        "log_weight_ratio"
    ),
    "margins": "Margins MarginWeights margins_grid_oracle optimal_margins weights",
    "metrics": (
        "PrecisionRecallCurve ScoreSet average_precision load_scores pr_curve ranking_error "
        "ranking_error_bruteforce"
    ),
    "priors": "ClassCounts ClassEntry ClassStats all_class_stats background_count load_counts",
    "sandbox": (
        "BACKGROUND_LABEL Dataset Model PerClassReport SyntheticConfig TrainConfig TrainReport "
        "bound_audit dataset_stats default_margin_weights evaluate generate rare_tercile "
        "run_experiment train zipf_class_counts"
    ),
    "verify": "run_verification=run",
}
# public name -> (defining module, its attribute there)
_SOURCE = {
    name: (module, attr or name)
    for module, names in _PUBLIC.items()
    for name, _, attr in (entry.partition("=") for entry in names.split())
}

__version__ = "0.1.0"
__all__ = sorted(_SOURCE) + ["__version__"]


def _bind(module: str) -> None:
    """Import one defining module and bind all its public names here."""
    mod = _import_module(f".{module}", __name__)
    for name, (source, attr) in _SOURCE.items():
        if source == module:
            globals()[name] = getattr(mod, attr)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_SOURCE[name][0])
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


_bind("errors")  # no numpy, and every command raises them
