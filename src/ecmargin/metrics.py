"""Empirical estimators of probabilistic precision, recall, AP, and ranking error.

Scores live in [0,1].  Recall/precision tails use the strict ">" of the
probabilistic definitions; the AP estimator averages precision over the
positive samples with the >=-convention at each positive's own score; the
ranking-error estimator gives ties half credit by default (the limit of
breaking ties uniformly at random), with a strict mode behind a flag.

A ScoreSet sorts each side once and takes the alpha-free rank counts when it
is built; the estimators here and the bound audit in ``bounds`` read them.
The counts come from one binary search of the positives into the sorted
negatives, plus a second search over only the positives tied with a
negative; the positives' own counts come from their runs of equal scores.

``load_scores`` parses a plain file in fixed-size chunks of bytes, so besides
the file's bytes it holds two arrays of one entry per row and one chunk's
temporaries, not a Python object per row.  Any other file goes through
``priors.read_csv``, the CSV reader it shares with the count files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InputFormatError,
    ResourceLimitError,
    UndefinedPrecisionError,
    ValidationError,
)
from .priors import read_csv

HALF = "half"
STRICT = "strict"

_BRUTEFORCE_PAIR_LIMIT = 10**8

_HEADER = b"score,label\n"
# bytes a plain data row `<score>,<0|1>\n` may hold: score digits and '.', ',' and '\n'
_PLAIN_BYTES = np.zeros(256, dtype=bool)
_PLAIN_BYTES[list(b"0123456789.,\n")] = True
# The plain pass checks and parses the body about this many bytes at a time,
# each chunk ending just after a newline (the measurement is in CHANGES.md).
_PARSE_CHUNK_BYTES = 1 << 18


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0:
        raise ValidationError(f"alpha must be a positive finite real, got {alpha}")
    return alpha


def _sorted_side(name: str, values) -> np.ndarray:
    """One side's scores as a new flat float64 array, sorted ascending, with
    -0.0 turned into 0.0."""
    arr = np.sort(np.asarray(values, dtype=np.float64), axis=None)
    # NaN sorts last, so the two ends bound every score
    if arr.size and not (arr[0] >= 0.0 and arr[-1] <= 1.0):
        raise ValidationError(f"{name} scores must lie in [0,1]")
    arr += 0.0  # -0.0 + 0.0 is 0.0, so a run of equal scores has one sign
    return arr


@dataclass(frozen=True, eq=False)
class ScoreSet:
    """Positive and negative score samples for one class.

    Each side is stored once, sorted ascending, with -0.0 stored as 0.0.  The
    alpha-free rank counts every estimator reads are taken here, once per
    set: for each positive s_k, P_k = #positives >= s_k and
    N_k = #negatives >= s_k, plus the numbers of (positive, negative) pairs
    with the positive below or tied.  They take one binary search of the
    positives into the negatives, and a second over only the positives equal
    to some negative.  Sets compare and hash by identity, since the fields
    are arrays.
    """

    positives: np.ndarray
    negatives: np.ndarray

    def __post_init__(self):
        pos = _sorted_side("positive", self.positives)
        neg = _sorted_side("negative", self.negatives)
        # P_k is n+ minus the index where s_k's run of equal positives starts
        first = np.arange(pos.size)
        first[1:][pos[1:] == pos[:-1]] = 0
        # left[k] = #negatives < s_k; only a positive equal to negatives[left[k]]
        # has a tie, and only those get the second search
        left = np.searchsorted(neg, pos, side="left")
        n_ge = neg.size - left
        pairs_tied = 0
        if neg.size:
            tied = neg[np.minimum(left, neg.size - 1)] == pos
            right = np.searchsorted(neg, pos[tied], side="right")
            pairs_tied = int(np.sum(right - left[tied], dtype=np.int64))
        object.__setattr__(self, "positives", pos)
        object.__setattr__(self, "negatives", neg)
        object.__setattr__(self, "_p_ge", pos.size - np.maximum.accumulate(first))
        object.__setattr__(self, "_n_ge", n_ge)
        object.__setattr__(self, "_pairs_less", int(np.sum(n_ge, dtype=np.int64)) - pairs_tied)
        object.__setattr__(self, "_pairs_tied", pairs_tied)

    @property
    def n_plus(self) -> int:
        return int(self.positives.size)

    @property
    def n_minus(self) -> int:
        return int(self.negatives.size)

    def swapped(self) -> "ScoreSet":
        return ScoreSet(positives=self.negatives, negatives=self.positives)


@dataclass(frozen=True, eq=False)
class PrecisionRecallCurve:
    """A PR curve as three equal-length float64 arrays, one entry per point.

    Thresholds strictly descend, recall is non-decreasing along them, and all
    three arrays lie in [0,1].  Curves compare and hash by identity, since the
    fields are arrays.
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


def _count_above(sorted_scores: np.ndarray, t):
    """How many of the sorted scores lie strictly above t (a scalar or an array)."""
    return sorted_scores.size - np.searchsorted(sorted_scores, t, side="right")


def recall_at(s: ScoreSet, t: float) -> float:
    """Fraction of positives scoring strictly above t."""
    _require_positives(s)
    return float(_count_above(s.positives, t)) / s.n_plus


def precision_at(s: ScoreSet, t: float, alpha: float) -> float:
    """Probabilistic precision r / (r + alpha * negative tail) at threshold t.

    Raises UndefinedPrecisionError when both tails are zero (0/0); the caller
    picks the convention.
    """
    _require_positives(s)
    _require_negatives(s)
    alpha = _check_alpha(alpha)
    r = recall_at(s, t)
    g = float(_count_above(s.negatives, t)) / s.n_minus
    if r == 0.0 and g == 0.0:
        raise UndefinedPrecisionError(f"no positive or negative mass above t={t}")
    return r / (r + alpha * g)


def average_precision(s: ScoreSet, alpha: float) -> float:
    """Mean precision over positive samples, >=-convention at each positive score.

    For positive score s_k: prec_k = (P_k/n+) / (P_k/n+ + alpha * N_k/n-), with
    P_k = #positives >= s_k and N_k = #negatives >= s_k.  O(n log n).
    """
    return float(np.mean(positive_precisions(s, alpha)))


def _precisions(s: ScoreSet, alpha) -> np.ndarray:
    """Per-positive precision terms in ascending score order: a 1-D array for
    a float alpha, one row per alpha for a column of them."""
    r = s._p_ge / s.n_plus
    g = s._n_ge / s.n_minus
    return r / (r + alpha * g)


def positive_precisions(s: ScoreSet, alpha: float) -> np.ndarray:
    """The per-positive precision terms averaged by average_precision.

    Terms come back in ascending score order.
    """
    _require_positives(s)
    _require_negatives(s)
    return _precisions(s, _check_alpha(alpha))


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

    Reads the pair counts the ScoreSet took when it was built, by binary
    search of the sorted sides: O(n log n) once per set, O(1) here.
    """
    _require_positives(s)
    _require_negatives(s)
    return _ranking_from_counts(s._pairs_less, s._pairs_tied, s.n_plus * s.n_minus, ties)


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

    The largest score is left out rather than assigned a convention: nothing
    scores above it, so its precision is 0/0.

    Both sides are merged once; a threshold's index in the merge gives how
    many samples lie above it, and one binary search into the positives
    splits that count into the two tails.
    """
    _require_positives(s)
    _require_negatives(s)
    alpha = _check_alpha(alpha)
    both = np.concatenate([s.positives, s.negatives])
    both.sort(kind="stable")  # two sorted runs: one merge
    # the last of each run of equal scores, the largest run left out
    ends = np.flatnonzero(both[1:] != both[:-1])[::-1]
    thresholds = both[ends]
    del both  # free the merged samples before the counts
    # samples above threshold i: the n - 1 - ends[i] after it in the merge;
    # the counts overwrite ends, so no second array of them is held
    pos_above = _count_above(s.positives, thresholds)
    np.subtract(s.n_plus + s.n_minus - 1, ends, out=ends)
    ends -= pos_above  # the negatives above
    r = pos_above / s.n_plus
    del pos_above
    g = ends / s.n_minus
    del ends
    return PrecisionRecallCurve(thresholds=thresholds, recall=r, precision=r / (r + alpha * g))


def _line_chunks(data: bytes, start: int, size: int):
    """(start, stop) of consecutive chunks of data[start:], each ending just
    after the first newline at or past size bytes in; data ends with one."""
    while start < len(data):
        stop = data.find(b"\n", min(start + size, len(data)) - 1) + 1
        yield start, stop
        start = stop


def _parse_plain(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """(scores, is_positive) when every row of ``data`` is plain ``<score>,<0|1>\\n``.

    A plain score is digits with at most one '.', in [0,1].  Returns None when
    this vectorized pass cannot prove every row valid; the file then goes to
    the csv row loop, which owns every diagnostic and the rarer valid layouts
    (quoted or padded fields, CRLF, blank lines, no trailing newline).  The
    body is checked and parsed one chunk of whole rows at a time, straight
    into arrays sized from the newline count.
    """
    if not data.startswith(_HEADER) or not data.endswith(b"\n") or len(data) == len(_HEADER):
        return None
    rows = data.count(b"\n", len(_HEADER))
    scores = np.empty(rows)
    is_pos = np.empty(rows, dtype=bool)
    row = 0
    for start, stop in _line_chunks(data, len(_HEADER), _PARSE_CHUNK_BYTES):
        body = np.frombuffer(data, dtype=np.uint8, count=stop - start, offset=start)
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
        try:
            part = np.loadtxt(
                data[start:stop].decode("ascii").splitlines(),
                delimiter=",",
                usecols=0,
                comments=None,
                ndmin=1,
            )
        except ValueError:  # '.', '1.2.3': float() rejects these too
            return None
        if not ((part >= 0.0) & (part <= 1.0)).all():
            return None
        scores[row : row + ends.size] = part
        is_pos[row : row + ends.size] = body[ends - 1] == ord("1")
        row += ends.size
    return scores, is_pos


def _parse_rows(path: str, data: bytes) -> tuple[list[float], list[float]]:
    """(positives, negatives) by the csv row loop, with line-numbered errors."""
    positives, negatives = [], []
    for lineno, row in read_csv(path, data, ("score", "label")):
        try:
            score = float(row[0])
        except ValueError:
            raise InputFormatError(
                f"{path}: line {lineno}: field 'score' is not a number: {row[0]!r}"
            ) from None
        if not 0.0 <= score <= 1.0:
            raise InputFormatError(f"{path}: line {lineno}: score {score} outside [0,1]")
        label = row[1].strip()
        if label == "1":
            positives.append(score)
        elif label == "0":
            negatives.append(score)
        else:
            raise InputFormatError(f"{path}: line {lineno}: label must be 1 or 0, got {row[1]!r}")
    return positives, negatives


def _read_sides(path: str) -> tuple[np.ndarray, np.ndarray]:
    """(positives, negatives) of a score,label CSV, in file order.  A plain
    file's bytes are let go before the sides are copied out, and its parsed
    column before ScoreSet sorts the sides, so the three are never held at
    once."""
    with open(path, "rb") as fh:
        data = fh.read()
    plain = _parse_plain(data)
    if plain is None:
        return tuple(map(np.array, _parse_rows(path, data)))
    del data
    scores, is_pos = plain
    return scores[is_pos], scores[~is_pos]


def load_scores(path: str) -> ScoreSet:
    """Load a score,label CSV (label 1 = positive, 0 = negative)."""
    positives, negatives = _read_sides(path)
    if not positives.size or not negatives.size:
        raise InputFormatError(f"{path}: need at least one positive and one negative row")
    return ScoreSet(positives=positives, negatives=negatives)
