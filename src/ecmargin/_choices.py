"""The named modes the library accepts and the CLI offers as choices.

They are stated here, apart from the numpy modules that act on them, so the
CLI builds its parser without importing numpy.
"""

# bounds.slope_m's modes
SLOPE_MODES = ("unit", "lower", "upper", "meet")
# metrics.ranking_error's tie conventions: half credit, or none
HALF = "half"
STRICT = "strict"
# verify's suites, in run order: a suite's index here names its seed stream
SUITES = ("bounds", "gradients", "estimators", "margins", "oracles")
