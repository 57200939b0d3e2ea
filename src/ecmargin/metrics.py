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
temporaries, not a Python object per row.  A chunk whose score fields are
all at most 16 bytes is read a word at a time: each field's last 16 bytes
become two little-endian uint64 words, whose digits are combined eight at a
time (Lemire's "Number parsing at a gigabyte per second") and divided once
by a power of ten, which is exact (Clinger's fast path); a chunk with a
longer field goes to ``np.loadtxt``.  Either way each score is float()'s
value of its field.  A long plain file is cut in two
only when ``_fork.available()``, the one cut rule it shares with the PR-curve
writer: then a forked child (``_fork.share``) parses the rows after the first
newline past the body's middle into the same shared map of the arrays and
returns only whether they were plain, with the same values as a parse in one
process, and is killed as soon as a row before the cut is found not plain;
otherwise the body is parsed in one piece, which stops at the first chunk with
a row that is not plain.  Any other file goes through ``priors.read_csv``, the
CSV reader it shares with the count files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _fork
from ._choices import HALF, STRICT
from .errors import InputFormatError, NumericalError, ResourceLimitError, ValidationError
from .priors import read_csv

_BRUTEFORCE_PAIR_LIMIT = 10**8

_HEADER = b"score,label\n"
# The word parse reads the last 16 bytes of a score field as two
# little-endian uint64 words.  Every operand stays uint64: numpy 1.24 turns
# uint64 mixed with int64 into float64.  _FIELD[k] masks the last k bytes of
# a word, its most significant.
_FIELD = np.array([2**64 - 2 ** (64 - 8 * k) for k in range(9)], dtype=np.uint64)
_BIT4 = np.uint64(0x1010101010101010)
_NIBBLES = np.uint64(0x0F0F0F0F0F0F0F0F)
_POW10 = np.array([float(10**k) for k in range(16)])  # exact: each is below 2**53
# The plain pass checks and parses the body about this many bytes at a time,
# each chunk ending just after a newline (the measurement is in CHANGES.md).
_PARSE_CHUNK_BYTES = 1 << 18
# Forking a child to parse the second half of a plain body pays for itself
# only from this many rows on (the measurement is in CHANGES.md).
_PARSE_SPLIT_MIN_ROWS = 200_000


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0:
        raise ValidationError(f"alpha must be a positive finite real, got {alpha}")
    return alpha


def _sorted_side(values) -> np.ndarray:
    """One side's scores as a new flat float64 array, sorted ascending, with
    -0.0 turned into 0.0.  NaN sorts last, so the two ends bound every score."""
    arr = np.sort(np.asarray(values, dtype=np.float64), axis=None)
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
        pos, neg = _sorted_side(self.positives), _sorted_side(self.negatives)
        for name, side in (("positive", pos), ("negative", neg)):
            if side.size and not (side[0] >= 0.0 and side[-1] <= 1.0):
                raise ValidationError(f"{name} scores must lie in [0,1]")
        self._rank(pos, neg)

    def _rank(self, pos: np.ndarray, neg: np.ndarray) -> None:
        """Store the sorted sides and take their rank counts."""
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


def _real_score_set(positives, negatives, source: str) -> ScoreSet:
    """A ScoreSet of any finite reals, such as raw logits: the rank counts, all
    that average_precision, ranking_error and bounds.audit read, need no [0,1]
    scale, and only those may take it.  A value that is not finite raises
    NumericalError naming ``source``."""
    pos, neg = _sorted_side(positives), _sorted_side(negatives)
    for side in (pos, neg):
        if side.size and not (math.isfinite(side[0]) and math.isfinite(side[-1])):
            raise NumericalError(f"non-finite {source}")
    s = object.__new__(ScoreSet)
    s._rank(pos, neg)
    return s


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


def _require_both_sides(s: ScoreSet):
    if s.n_plus == 0:
        raise ValidationError("score set has no positives")
    if s.n_minus == 0:
        raise ValidationError("score set has no negatives")


def _count_above(sorted_scores: np.ndarray, t):
    """How many of the sorted scores lie strictly above t (a scalar or an array)."""
    return sorted_scores.size - np.searchsorted(sorted_scores, t, side="right")


def average_precision(s: ScoreSet, alpha: float) -> float:
    """Mean precision over positive samples, >=-convention at each positive score.

    For positive score s_k: prec_k = (P_k/n+) / (P_k/n+ + alpha * N_k/n-), with
    P_k = #positives >= s_k and N_k = #negatives >= s_k.  O(n log n).
    """
    _require_both_sides(s)
    return float(np.mean(_precisions(s, _check_alpha(alpha))))


def _precisions(s: ScoreSet, alpha) -> np.ndarray:
    """Per-positive precision terms in ascending score order: a 1-D array for
    a float alpha, one row per alpha for a column of them."""
    r = s._p_ge / s.n_plus
    g = s._n_ge / s.n_minus
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

    Reads the pair counts the ScoreSet took when it was built, by binary
    search of the sorted sides: O(n log n) once per set, O(1) here.
    """
    _require_both_sides(s)
    return _ranking_from_counts(s._pairs_less, s._pairs_tied, s.n_plus * s.n_minus, ties)


def ranking_error_bruteforce(s: ScoreSet, ties: str = HALF) -> float:
    """O(n^2) oracle for ranking_error; bit-identical by construction.

    Both estimators reduce to the same integer pair counts before the single
    float division, so agreement is exact.
    """
    _require_both_sides(s)
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
    _require_both_sides(s)
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


def _line_chunks(data: bytes, start: int, stop: int, size: int):
    """(start, stop) of consecutive chunks of data[start:stop], each ending
    just after the first newline at or past size bytes in; data[stop - 1] is
    a newline."""
    while start < stop:
        end = data.find(b"\n", min(start + size, stop) - 1) + 1
        yield start, end
        start = end


def _word_digits(words: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, dots) of one word per row, whose last byte is the last of a
    field of ``width`` bytes of digits and '.': the integer that the field's
    last min(width, 8) bytes spell, a '.' read as a 0 digit, and bit 4 of
    each of those bytes that is a '.'."""
    field = _FIELD[np.clip(width, 0, 8)]
    # bit 4 is set in the digits 0x30..0x39 and clear in '.', 0x2E
    dots = ~words & field & _BIT4
    # '.' + 2 is '0', and the low nibble of a digit is its value
    d = (words + (dots >> np.uint64(3))) & field & _NIBBLES
    # the first byte is the most significant: pairs, then quads, then all 8
    d *= np.uint64(2561)
    d >>= np.uint64(8)
    d &= np.uint64(0x00FF00FF00FF00FF)
    d *= np.uint64(6553601)
    d >>= np.uint64(16)
    d &= np.uint64(0x0000FFFF0000FFFF)
    d *= np.uint64(42949672960001)
    d >>= np.uint64(32)
    return d, dots


def _parse_words(body: np.ndarray, ends: np.ndarray, width: np.ndarray) -> np.ndarray | None:
    """The scores of a chunk whose lines end at ``ends`` and whose score
    fields, ``width`` <= 16 bytes each, hold only digits and '.', read a
    word at a time as float() reads them; None when a field holds two dots
    or is only '.', which float() rejects.

    A field is read as V, the integer its digits spell with the '.' as a 0
    digit, and F, the number of digits after the '.'.  With only 0s before
    the '.', V is the number the digits after it spell, of at most 15
    digits, so V < 2**53 and 10**F are exact doubles and the one division
    V / 10**F is the correctly rounded value (Clinger's fast path).  Any
    other digit before the '.' makes the field 1 or more: exactly 1 when
    V = 10**(F + 1), for which the division gives exactly 10.0, and more
    than 10 otherwise, which the range check refuses.  With no '.', V is the
    field's value, exact up to 2**53 and refused above 1."""
    padded = np.zeros(16 + body.size, dtype=np.uint8)
    padded[16:] = body
    # words[i] is padded[i:i + 8], named little-endian so that a big-endian
    # host reads the same words; a row's field ends just before its ','
    words = np.ndarray((padded.size - 7,), dtype="<u8", buffer=padded, strides=(1,))
    value, dots = _word_digits(words[ends + 6], width)
    several = dots & (dots - np.uint64(1))
    place = dots.astype(np.float64)
    if width.max() > 8:
        high, high_dots = _word_digits(words[ends - 2], width - 8)
        value += high * np.uint64(10**8)
        several |= high_dots & (high_dots - np.uint64(1))
        several |= np.minimum(dots, high_dots)  # a '.' in each word
        place += high_dots.astype(np.float64) * 2.0**-64
    has_dot = place != 0.0
    if several.any() or (has_dot & (width == 1)).any():
        return None
    # a '.' at byte j of the 16 before the ',' makes place 2**(8*j - 60),
    # whose frexp exponent 8*j - 59 gives the 15 - j digits after the '.'
    after = (61 - np.frexp(place)[1]) >> 3
    after[~has_dot] = 0
    scores = value / _POW10[after]
    scores[has_dot & (scores == 10.0)] = 1.0
    return scores


def _parse_span(data: bytes, start: int, stop: int, scores, is_pos) -> bool:
    """Check and parse the whole rows of data[start:stop] into scores and
    is_pos, one entry per row, one chunk of rows at a time.  False when this
    pass cannot prove every row plain; the entries are then unspecified.

    A chunk whose score fields are all at most 16 bytes is read a word at a
    time (_parse_words); a chunk with a longer field goes to np.loadtxt.
    Both give float()'s value for every field, so the scores do not depend
    on where the chunks end."""
    row = 0
    for lo, hi in _line_chunks(data, start, stop, _PARSE_CHUNK_BYTES):
        body = np.frombuffer(data, dtype=np.uint8, count=hi - lo, offset=lo)
        ends = np.flatnonzero(body == ord("\n"))
        width = np.diff(ends, prepend=-1) - 3
        labels = body[ends - 1]
        # each line has >= 1 score byte, the only ',' just before a 0/1 label;
        # every other byte is a digit or '.': from '.' to '9', but not '/'
        if not (
            width.min() >= 1
            and np.count_nonzero(body == ord(",")) == ends.size
            and (body[ends - 2] == ord(",")).all()
            and np.count_nonzero(body >= ord(".")) == body.size - 2 * ends.size
            and not (body > ord("9")).any()
            and not (body == ord("/")).any()
            and ((labels == ord("0")) | (labels == ord("1"))).all()
        ):
            return False
        if width.max() <= 16:
            part = _parse_words(body, ends, width)
        else:
            try:
                part = np.loadtxt(
                    data[lo:hi].decode("ascii").splitlines(),
                    delimiter=",",
                    usecols=0,
                    comments=None,
                    ndmin=1,
                )
            except ValueError:  # '.', '1.2.3': float() rejects these too
                part = None
        # no '-' can make a score negative
        if part is None or not (part <= 1.0).all():
            return False
        scores[row : row + ends.size] = part
        is_pos[row : row + ends.size] = labels == ord("1")
        row += ends.size
    return True


class _NotPlain(Exception):
    """A row before the cut is not plain."""


def _parse_plain(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """(scores, is_positive) when every row of ``data`` is plain ``<score>,<0|1>\\n``.

    A plain score is digits with at most one '.', in [0,1].  Returns None when
    this vectorized pass cannot prove every row valid; the file then goes to
    the csv row loop, which owns every diagnostic and the rarer valid layouts
    (quoted or padded fields, CRLF, blank lines, no trailing newline).  The
    body is checked and parsed one chunk of whole rows at a time, straight
    into arrays sized from the newline count.  When a fork is available, a
    body of _PARSE_SPLIT_MIN_ROWS rows or more is cut at the first newline at
    or past its middle, and a forked child parses the rows after the cut into
    the same shared map while this process parses those before it; each
    score is float()'s value of its field, whichever route read its chunk,
    so the values do not depend on the cut.  A row before the cut that is
    not plain kills the child at once.
    """
    if not data.startswith(_HEADER) or not data.endswith(b"\n") or len(data) == len(_HEADER):
        return None
    start = len(_HEADER)
    rows = data.count(b"\n", start)
    cut = len(data)
    if rows >= _PARSE_SPLIT_MIN_ROWS and _fork.available():
        cut = data.find(b"\n", (start + len(data)) // 2) + 1
    head = data.count(b"\n", start, cut)
    import mmap  # here, so that importing ecmargin or its CLI does not load it

    # made before any fork, so a child writes its rows where this process reads them
    shared = mmap.mmap(-1, 9 * rows)
    scores = np.frombuffer(shared, count=rows)
    is_pos = np.frombuffer(shared, dtype=bool, count=rows, offset=8 * rows)

    def parse_head():
        if not _parse_span(data, start, cut, scores[:head], is_pos[:head]):
            raise _NotPlain  # so that share kills a child still parsing the tail

    def parse_tail():
        return _parse_span(data, cut, len(data), scores[head:], is_pos[head:])

    try:
        _, tail_plain = _fork.share(parse_head, parse_tail if cut < len(data) else None)
    except _NotPlain:
        return None
    return None if tail_plain is False else (scores, is_pos)


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
