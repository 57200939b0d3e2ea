"""Empirical estimators of probabilistic precision, recall, AP, and ranking error.

Scores live in [0,1].  Recall/precision tails use the strict ">" of the
probabilistic definitions; the AP estimator averages precision over the
positive samples with the >=-convention at each positive's own score; the
ranking-error estimator gives ties half credit by default (the limit of
breaking ties uniformly at random), with a strict mode behind a flag.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InputFormatError,
    ResourceLimitError,
    UndefinedPrecisionError,
    ValidationError,
)

HALF = "half"
STRICT = "strict"

_BRUTEFORCE_PAIR_LIMIT = 10**8

_HEADER = b"score,label\n"
# bytes a plain data row `<score>,<0|1>\n` may hold: score digits and '.', ',' and '\n'
_PLAIN_BYTES = np.zeros(256, dtype=bool)
_PLAIN_BYTES[list(b"0123456789.,\n")] = True


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0:
        raise ValidationError(f"alpha must be a positive finite real, got {alpha}")
    return alpha


def _as_scores(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size and not (np.all(arr >= 0.0) and np.all(arr <= 1.0)):
        raise ValidationError(f"{name} scores must lie in [0,1]")
    return arr


@dataclass(frozen=True)
class ScoreSet:
    """Positive and negative score samples for one class."""

    positives: np.ndarray
    negatives: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "positives", _as_scores("positive", self.positives))
        object.__setattr__(self, "negatives", _as_scores("negative", self.negatives))
        # estimators are searchsorted-based; sort once here instead of per call
        object.__setattr__(self, "_pos_sorted", np.sort(self.positives))
        object.__setattr__(self, "_neg_sorted", np.sort(self.negatives))

    @property
    def pos_sorted(self) -> np.ndarray:
        return self._pos_sorted

    @property
    def neg_sorted(self) -> np.ndarray:
        return self._neg_sorted

    @property
    def n_plus(self) -> int:
        return int(self.positives.size)

    @property
    def n_minus(self) -> int:
        return int(self.negatives.size)

    def swapped(self) -> "ScoreSet":
        return ScoreSet(positives=self.negatives, negatives=self.positives)


@dataclass(frozen=True)
class PrecisionRecallCurve:
    """A PR curve as three equal-length float64 arrays, one entry per point.

    Thresholds strictly descend, recall is non-decreasing along them, and all
    three arrays lie in [0,1].
    """

    thresholds: np.ndarray
    recall: np.ndarray
    precision: np.ndarray

    def __post_init__(self):
        for field in ("thresholds", "recall", "precision"):
            object.__setattr__(
                self, field, np.asarray(getattr(self, field), dtype=np.float64)
            )
        t, r, p = self.thresholds, self.recall, self.precision
        if t.ndim != 1 or r.shape != t.shape or p.shape != t.shape:
            raise ValidationError(
                "thresholds, recall and precision must be 1-D arrays of one length"
            )
        for name, arr in (("threshold", t), ("recall", r), ("precision", p)):
            outside = ~((arr >= 0.0) & (arr <= 1.0))
            if outside.any():
                raise ValidationError(f"{name} {arr[outside][0]} outside [0,1]")
        if not (np.diff(t) < 0.0).all():
            raise ValidationError("thresholds must be strictly descending")
        if not (np.diff(r) >= 0.0).all():
            raise ValidationError("recall must be non-decreasing as threshold drops")


def _require_positives(s: ScoreSet):
    if s.n_plus == 0:
        raise ValidationError("score set has no positives")


def _require_negatives(s: ScoreSet):
    if s.n_minus == 0:
        raise ValidationError("score set has no negatives")


def recall_at(s: ScoreSet, t: float) -> float:
    """Fraction of positives scoring strictly above t."""
    _require_positives(s)
    return float(np.count_nonzero(s.positives > t)) / s.n_plus


def precision_at(s: ScoreSet, t: float, alpha: float) -> float:
    """Probabilistic precision r / (r + alpha * negative tail) at threshold t.

    Raises UndefinedPrecisionError when both tails are zero (0/0); the caller
    picks the convention.
    """
    _require_positives(s)
    _require_negatives(s)
    alpha = _check_alpha(alpha)
    r = recall_at(s, t)
    g = float(np.count_nonzero(s.negatives > t)) / s.n_minus
    if r == 0.0 and g == 0.0:
        raise UndefinedPrecisionError(f"no positive or negative mass above t={t}")
    return r / (r + alpha * g)


def average_precision(s: ScoreSet, alpha: float) -> float:
    """Mean precision over positive samples, >=-convention at each positive score.

    For positive score s_k: prec_k = (P_k/n+) / (P_k/n+ + alpha * N_k/n-), with
    P_k = #positives >= s_k and N_k = #negatives >= s_k.  O(n log n).
    """
    return float(np.mean(positive_precisions(s, alpha)))


def _rank_counts(s: ScoreSet) -> tuple[np.ndarray, np.ndarray, int, int]:
    """(P_k, N_k, #pos<neg pairs, #tied pairs); alpha-free, cached per set."""
    cached = s.__dict__.get("_rank_counts")
    if cached is None:
        pos = s.pos_sorted
        neg = s.neg_sorted
        p_ge = pos.size - np.searchsorted(pos, pos, side="left")
        left = np.searchsorted(neg, pos, side="left")
        right = np.searchsorted(neg, pos, side="right")
        n_ge = neg.size - left
        less = int(np.sum(neg.size - right, dtype=np.int64))
        ties = int(np.sum(right - left, dtype=np.int64))
        cached = (p_ge, n_ge, less, ties)
        object.__setattr__(s, "_rank_counts", cached)
    return cached


def positive_precisions(s: ScoreSet, alpha: float) -> np.ndarray:
    """The per-positive precision terms averaged by average_precision.

    Exposed so callers can estimate the finite-sample spread of the AP
    estimate from the same pass.  Terms come back in ascending score order.
    """
    _require_positives(s)
    _require_negatives(s)
    alpha = _check_alpha(alpha)
    p_ge, n_ge, _, _ = _rank_counts(s)
    r = p_ge / s.n_plus
    g = n_ge / s.n_minus
    return r / (r + alpha * g)


def _pair_counts_bruteforce(s: ScoreSet) -> tuple[int, int]:
    """Same counts by explicit pairwise comparison, chunked over positives."""
    neg = s.negatives
    less = 0
    ties = 0
    chunk = max(1, _BRUTEFORCE_PAIR_LIMIT // (8 * max(1, neg.size)))
    for start in range(0, s.n_plus, chunk):
        block = s.positives[start : start + chunk, None]
        less += int(np.count_nonzero(block < neg[None, :]))
        ties += int(np.count_nonzero(block == neg[None, :]))
    return less, ties


def _ranking_from_counts(less: int, ties: int, n_pairs: int, ties_mode: str) -> float:
    if ties_mode == HALF:
        return (less + 0.5 * ties) / n_pairs
    if ties_mode == STRICT:
        return less / n_pairs
    raise ValidationError(f"ties must be 'half' or 'strict', got {ties_mode!r}")


def ranking_error(s: ScoreSet, ties: str = HALF) -> float:
    """P(positive scores below negative), ties half credit by default.

    Sort-and-merge implementation, O(n log n).
    """
    _require_positives(s)
    _require_negatives(s)
    _, _, less, tied = _rank_counts(s)
    return _ranking_from_counts(less, tied, s.n_plus * s.n_minus, ties)


def ranking_error_bruteforce(s: ScoreSet, ties: str = HALF) -> float:
    """O(n^2) oracle for ranking_error; bit-identical by construction.

    Both estimators reduce to the same integer pair counts before the single
    float division, so agreement is exact.
    """
    _require_positives(s)
    _require_negatives(s)
    n_pairs = s.n_plus * s.n_minus
    if n_pairs > _BRUTEFORCE_PAIR_LIMIT:
        raise ResourceLimitError(
            f"{n_pairs} pairs exceeds the brute-force guard of {_BRUTEFORCE_PAIR_LIMIT}"
        )
    less, tied = _pair_counts_bruteforce(s)
    return _ranking_from_counts(less, tied, n_pairs, ties)


def pr_curve(s: ScoreSet, alpha: float) -> PrecisionRecallCurve:
    """One PR point per distinct score, descending threshold order.

    Thresholds where both tails are empty (precision 0/0, i.e. nothing scores
    above the largest sample) are dropped rather than assigned a convention.
    """
    _require_positives(s)
    _require_negatives(s)
    alpha = _check_alpha(alpha)
    thresholds = np.unique(np.concatenate([s.positives, s.negatives]))[::-1]
    pos = s.pos_sorted
    neg = s.neg_sorted
    r = (pos.size - np.searchsorted(pos, thresholds, side="right")) / pos.size
    g = (neg.size - np.searchsorted(neg, thresholds, side="right")) / neg.size
    keep = (r > 0.0) | (g > 0.0)
    r, g = r[keep], g[keep]
    return PrecisionRecallCurve(
        thresholds=thresholds[keep], recall=r, precision=r / (r + alpha * g)
    )


def ranking_standard_error(s: ScoreSet) -> float:
    """Conservative finite-sample standard error of the ranking estimate.

    Bernoulli-style spread over the correlated pair indicators, plus an
    additive (1/n+ + 1/n-) guard so small samples and pair correlation never
    make the value optimistic.
    """
    r = ranking_error(s)
    inv = 1.0 / s.n_plus + 1.0 / s.n_minus
    return float(np.sqrt(r * (1.0 - r) * inv)) + inv


def ap_standard_error(s: ScoreSet, alpha: float) -> float:
    """Conservative finite-sample standard error of the AP estimate.

    Spread of the per-positive precision terms, plus an additive
    2 (1/n+ + 1/n-) guard for the correlation among those terms and the
    ratio-estimator bias.
    """
    prec = positive_precisions(s, alpha)
    inv = 1.0 / s.n_plus + 1.0 / s.n_minus
    return float(np.sqrt(np.var(prec) / s.n_plus)) + 2.0 * inv


def _parse_plain(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """(scores, is_positive) when every row of ``data`` is plain ``<score>,<0|1>\\n``.

    A plain score is digits with at most one '.', in [0,1].  Returns None when
    this vectorized pass cannot prove every row valid; the file then goes to
    the csv row loop, which owns every diagnostic and the rarer valid layouts
    (quoted or padded fields, CRLF, blank lines, no trailing newline).
    """
    if not data.startswith(_HEADER) or not data.endswith(b"\n") or len(data) == len(_HEADER):
        return None
    body = np.frombuffer(data, dtype=np.uint8, offset=len(_HEADER))
    ends = np.flatnonzero(body == ord("\n"))
    # each line has >= 1 score byte, the only ',' just before a 0/1 label
    if not (
        _PLAIN_BYTES[body].all()
        and (np.diff(ends, prepend=-1) >= 4).all()
        and np.count_nonzero(body == ord(",")) == ends.size
        and (body[ends - 2] == ord(",")).all()
        and ((body[ends - 1] == ord("0")) | (body[ends - 1] == ord("1"))).all()
    ):
        return None
    text = data[len(_HEADER) :].decode("ascii")
    try:
        scores = np.loadtxt(
            text.splitlines(), delimiter=",", usecols=0, comments=None, ndmin=1
        )
    except ValueError:  # '.', '1.2.3': float() rejects these too
        return None
    if not ((scores >= 0.0) & (scores <= 1.0)).all():
        return None
    return scores, body[ends - 1] == ord("1")


def _parse_rows(path: str, data: bytes) -> tuple[list[float], list[float]]:
    """(positives, negatives) by the csv row loop, with line-numbered errors."""
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputFormatError(f"{path}: empty file") from None
        if [h.strip() for h in header] != ["score", "label"]:
            raise InputFormatError(
                f"{path}: line 1: expected header 'score,label', got {','.join(header)!r}"
            )
        positives, negatives = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise InputFormatError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            try:
                score = float(row[0])
            except ValueError:
                raise InputFormatError(
                    f"{path}: line {lineno}: field 'score' is not a number: {row[0]!r}"
                ) from None
            if not 0.0 <= score <= 1.0:
                raise InputFormatError(
                    f"{path}: line {lineno}: score {score} outside [0,1]"
                )
            label = row[1].strip()
            if label == "1":
                positives.append(score)
            elif label == "0":
                negatives.append(score)
            else:
                raise InputFormatError(
                    f"{path}: line {lineno}: label must be 1 or 0, got {row[1]!r}"
                )
    return positives, negatives


def load_scores(path: str) -> ScoreSet:
    """Load a score,label CSV (label 1 = positive, 0 = negative)."""
    with open(path, "rb") as fh:
        data = fh.read()
    plain = _parse_plain(data)
    if plain is None:
        positives, negatives = map(np.array, _parse_rows(path, data))
    else:
        scores, is_pos = plain
        positives, negatives = scores[is_pos], scores[~is_pos]
    if not positives.size or not negatives.size:
        raise InputFormatError(f"{path}: need at least one positive and one negative row")
    return ScoreSet(positives=positives, negatives=negatives)
