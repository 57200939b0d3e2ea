import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecmargin import (
    InputFormatError,
    PrecisionRecallCurve,
    ResourceLimitError,
    ScoreSet,
    UndefinedPrecisionError,
    ValidationError,
    audit,
    average_precision,
    load_scores,
    positive_precisions,
    pr_curve,
    precision_at,
    ranking_error,
    ranking_error_bruteforce,
    recall_at,
)
from ecmargin import metrics
from ecmargin.metrics import _line_chunks, _parse_plain

EXAMPLE = ScoreSet(positives=[0.9, 0.4], negatives=[0.5, 0.1])


def quantized_sets(max_side=60):
    """Score sets on a coarse grid so ties occur within and across sides."""
    level = st.integers(min_value=0, max_value=6)
    side = st.lists(level, min_size=1, max_size=max_side)
    return st.tuples(side, side).map(
        lambda ab: ScoreSet(
            positives=np.array(ab[0]) / 6.0, negatives=np.array(ab[1]) / 6.0
        )
    )


def edge_sides():
    """Raw (positives, negatives) inputs at the edges of the rank counts:
    empty and one-level sides, the 0.0 and 1.0 ends (-0.0 too), ties within
    and across sides, unsorted order, and 2-D layouts to flatten."""
    level = st.sampled_from([0.0, -0.0, 5e-324, 0.25, 0.5, np.nextafter(0.5, 1.0), 1.0])
    side = st.one_of(
        st.lists(level, max_size=12),
        st.tuples(level, st.integers(0, 8)).map(lambda vn: [vn[0]] * vn[1]),
    )
    layout = st.sampled_from([list, np.array, lambda v: np.array(v).reshape(-1, 1)])
    return st.tuples(side, layout, side, layout).map(
        lambda t: (t[1](t[0]), t[3](t[2]))
    )


def _flat_sorted(values) -> np.ndarray:
    return np.sort(np.ravel(np.asarray(values, dtype=np.float64)))


def reference_rank_counts(positives, negatives):
    """(P_k, N_k, pairs_less, pairs_tied) by the former construction: three
    searchsorted calls over the sorted sides."""
    pos, neg = _flat_sorted(positives), _flat_sorted(negatives)
    left = np.searchsorted(neg, pos, side="left")
    right = np.searchsorted(neg, pos, side="right")
    return (
        pos.size - np.searchsorted(pos, pos, side="left"),
        neg.size - left,
        int(np.sum(neg.size - right, dtype=np.int64)),
        int(np.sum(right - left, dtype=np.int64)),
    )


def bruteforce_rank_counts(positives, negatives):
    """The same four counts by comparing every pair: P_k = #positives >= s_k,
    N_k = #negatives >= s_k, and the pairs with the positive below or tied."""
    pos, neg = _flat_sorted(positives), _flat_sorted(negatives)
    return (
        np.count_nonzero(pos[None, :] >= pos[:, None], axis=1),
        np.count_nonzero(neg[None, :] >= pos[:, None], axis=1),
        int(np.count_nonzero(pos[:, None] < neg[None, :])),
        int(np.count_nonzero(pos[:, None] == neg[None, :])),
    )


def assert_rank_counts(s: ScoreSet, positives, negatives):
    got = (s._p_ge, s._n_ge, s._pairs_less, s._pairs_tied)
    for want in (
        reference_rank_counts(positives, negatives),
        bruteforce_rank_counts(positives, negatives),
    ):
        for g, w in zip(got, want):
            assert type(g) is type(w) and np.asarray(g).dtype == np.asarray(w).dtype
            assert np.array_equal(g, w)


class TestScoreSet:
    @pytest.mark.parametrize("side", ["positive", "negative"])
    @pytest.mark.parametrize("at", [0, 2, 5])
    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, np.nextafter(1.0, 2.0), -5e-324, 1.5]
    )
    def test_scores_outside_unit_interval_rejected(self, side, at, bad):
        """The check reads only the ends of each sorted side; NaN sorts last."""
        scores = np.insert(np.array([0.0, 0.3, 0.3, 0.7, 1.0]), at, bad)
        sides = {"positives": [0.5], "negatives": [0.5], f"{side}s": scores}
        with pytest.raises(ValidationError, match=rf"^{side} scores must lie in \[0,1\]$"):
            ScoreSet(**sides)

    def test_empty_sides_build(self):
        for pos, neg in (([], [0.3]), ([0.3], []), ([], [])):
            s = ScoreSet(positives=pos, negatives=neg)
            assert (s.n_plus, s.n_minus) == (len(pos), len(neg))
            assert_rank_counts(s, pos, neg)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(quantized_sets())
    def test_rank_counts_match_reference_and_bruteforce(self, s):
        assert_rank_counts(s, s.positives, s.negatives)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(edge_sides())
    @example(([[1.0, 0.0], [0.5, -0.0]], [-0.0, 1.0, 0.5, 0.0]))
    @example(([0.5, 0.5, 0.5], [0.5, 0.5]))
    @example(([1.0, 0.0], np.array([[0.0, 1.0]])))
    def test_rank_counts_at_the_edges_match_reference_and_bruteforce(self, sides):
        positives, negatives = sides
        assert_rank_counts(ScoreSet(positives, negatives), positives, negatives)

    def test_minus_zero_is_stored_as_zero_and_the_input_is_untouched(self):
        raw = np.array([0.0, 0.2, -0.0])
        s = ScoreSet(positives=raw, negatives=[0.5, -0.0])
        for side in (s.positives, s.negatives):
            assert not np.signbit(side).any()
        assert np.signbit(raw[2])

    def test_swapped_exchanges_sides(self):
        s = EXAMPLE.swapped()
        assert np.array_equal(s.positives, EXAMPLE.negatives)
        assert np.array_equal(s.negatives, EXAMPLE.positives)

    def test_sides_are_stored_sorted(self, rng):
        raw = rng.random(17)
        s = ScoreSet(positives=raw, negatives=rng.random(5))
        assert np.array_equal(s.positives, np.sort(raw))



class TestIdentitySemantics:
    """ScoreSet and PrecisionRecallCurve hold arrays, so they compare and hash
    by identity instead of raising on an elementwise ==."""

    @staticmethod
    def twins():
        a = ScoreSet(positives=[0.1, 0.2], negatives=[0.3])
        b = ScoreSet(positives=[0.1, 0.2], negatives=[0.3])
        return [(a, b), (pr_curve(a, 1.0), pr_curve(b, 1.0))]

    def test_equality_is_a_bool_and_never_raises(self):
        for a, b in self.twins():
            assert (a == b) is False and (a != b) is True
            assert (a == a) is True and (a != a) is False

    def test_both_types_go_into_a_set(self):
        for a, b in self.twins():
            assert len({a, b, a}) == 2
            assert hash(a) == hash(a)


class TestTailStatistics:
    def test_recall_counts_strictly_above(self):
        assert recall_at(EXAMPLE, 0.4) == 0.5
        assert recall_at(EXAMPLE, 0.39) == 1.0

    def test_precision_at_threshold(self):
        assert precision_at(EXAMPLE, 0.45, alpha=1.0) == 0.5 / (0.5 + 0.5)

    def test_precision_undefined_above_all_scores(self):
        with pytest.raises(UndefinedPrecisionError):
            precision_at(EXAMPLE, 0.95, alpha=1.0)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValidationError):
            precision_at(EXAMPLE, 0.4, alpha=0.0)


class TestAveragePrecision:
    def test_worked_example(self):
        """Two positives at 0.9 and 0.4 against negatives at 0.5 and 0.1."""
        np.testing.assert_allclose(
            average_precision(EXAMPLE, alpha=1.0), 5.0 / 6.0, rtol=0, atol=1e-15
        )

    def test_per_positive_terms_average_to_ap(self, rng):
        s = ScoreSet(positives=rng.random(40), negatives=rng.random(60))
        terms = positive_precisions(s, alpha=2.0)
        assert float(np.mean(terms)) == average_precision(s, alpha=2.0)

    def test_ge_convention_keeps_tied_positive_inclusive(self):
        """A positive tied with a negative counts itself and the tie mass."""
        s = ScoreSet(positives=[0.5], negatives=[0.5])
        # r = 1, g = 1 at the only positive score
        assert average_precision(s, alpha=1.0) == 0.5

    def test_separable_set_scores_one(self):
        s = ScoreSet(positives=[0.8, 0.9], negatives=[0.1, 0.2])
        assert average_precision(s, alpha=10.0) == 1.0

    def test_alpha_monotonicity(self, rng):
        """Raising alpha never raises the estimate."""
        s = ScoreSet(positives=rng.random(30), negatives=rng.random(30))
        aps = [average_precision(s, a) for a in (0.1, 1.0, 10.0, 100.0)]
        assert all(b <= a for a, b in zip(aps, aps[1:]))

    def test_empty_side_rejected(self):
        with pytest.raises(ValidationError):
            average_precision(ScoreSet(positives=[], negatives=[0.3]), alpha=1.0)


class TestRankingError:
    def test_worked_example_half_credit(self):
        assert ranking_error(EXAMPLE) == 0.25

    def test_tie_conventions(self):
        tied = ScoreSet(positives=[0.5], negatives=[0.5])
        assert ranking_error(tied) == 0.5
        assert ranking_error(tied, ties="strict") == 0.0

    def test_unknown_tie_mode_rejected(self):
        with pytest.raises(ValidationError):
            ranking_error(EXAMPLE, ties="optimistic")

    def test_swap_complements_half_credit(self, rng):
        s = ScoreSet(positives=rng.random(25), negatives=rng.random(35))
        np.testing.assert_allclose(
            ranking_error(s.swapped()), 1.0 - ranking_error(s), rtol=0, atol=1e-12
        )

    def test_bruteforce_guard(self):
        big = ScoreSet(positives=np.full(10**5, 0.5), negatives=np.full(10**4, 0.5))
        with pytest.raises(ResourceLimitError):
            ranking_error_bruteforce(big)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(quantized_sets())
    def test_equals_bruteforce_exactly(self, s):
        """Sorted and O(n^2) estimators share integer counts, so == holds."""
        assert ranking_error(s) == ranking_error_bruteforce(s)
        assert ranking_error(s, ties="strict") == ranking_error_bruteforce(s, ties="strict")

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(quantized_sets())
    def test_monotone_transform_invariance(self, s):
        """Cubing scores changes values, never ranks."""
        cubed = ScoreSet(positives=s.positives**3, negatives=s.negatives**3)
        assert ranking_error(cubed) == ranking_error(s)
        assert average_precision(cubed, 1.0) == average_precision(s, 1.0)


def reference_pr_curve(s: ScoreSet, alpha: float) -> list[bytes]:
    """The bytes of the three curve arrays by the former construction:
    np.unique over both sides, then a mask keeping the thresholds with a
    nonempty tail."""
    t = np.unique(np.concatenate([s.positives, s.negatives]))[::-1]
    r = (s.n_plus - np.searchsorted(s.positives, t, side="right")) / s.n_plus
    g = (s.n_minus - np.searchsorted(s.negatives, t, side="right")) / s.n_minus
    keep = (r > 0.0) | (g > 0.0)
    t, r, g = t[keep], r[keep], g[keep]
    return [a.tobytes() for a in (t, r, r / (r + alpha * g))]


class TestPRCurve:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(quantized_sets())
    def test_same_bytes_as_the_unique_and_mask_construction(self, s):
        for alpha in (0.3, 19.0):
            curve = pr_curve(s, alpha)
            got = [a.tobytes() for a in (curve.thresholds, curve.recall, curve.precision)]
            assert got == reference_pr_curve(s, alpha)

    def test_same_bytes_as_the_unique_and_mask_construction_untied(self, rng):
        s = ScoreSet(positives=rng.random(300), negatives=rng.random(3000))
        curve = pr_curve(s, 19.0)
        got = [a.tobytes() for a in (curve.thresholds, curve.recall, curve.precision)]
        assert got == reference_pr_curve(s, 19.0)

    def test_same_bytes_as_the_unique_and_mask_construction_long_tail(self, rng):
        """20 000 negatives and 1000 positives on a 1e-3 grid: most thresholds
        are tied within a side, many across sides, and the top score is a run
        holding both sides."""
        positives = np.append(rng.integers(0, 1001, 1000), [1000, 1000]) / 1000
        negatives = np.append(rng.integers(0, 1001, 20_000), [1000, 1000, 1000]) / 1000
        s = ScoreSet(positives=positives, negatives=negatives)
        assert np.intersect1d(s.positives, s.negatives).size > 500
        assert s.positives[-2] == s.negatives[-3] == 1.0
        curve = pr_curve(s, 19.0)
        assert curve.thresholds[0] < 1.0  # the tied top run is left out
        got = [a.tobytes() for a in (curve.thresholds, curve.recall, curve.precision)]
        assert got == reference_pr_curve(s, 19.0)

    def test_worked_example_points(self):
        curve = pr_curve(EXAMPLE, alpha=1.0)
        rows = list(
            zip(curve.thresholds.tolist(), curve.recall.tolist(), curve.precision.tolist())
        )
        assert rows == [
            (0.5, 0.5, 1.0),
            (0.4, 0.5, 0.5),
            (0.1, 1.0, 2.0 / 3.0),
        ]

    def test_top_threshold_dropped_when_undefined(self):
        """The max score has empty tails on both sides; no convention is invented."""
        curve = pr_curve(EXAMPLE, alpha=1.0)
        assert 0.9 not in curve.thresholds

    def test_recall_non_decreasing(self, rng):
        s = ScoreSet(positives=rng.random(50), negatives=rng.random(50))
        assert np.all(np.diff(pr_curve(s, alpha=1.0).recall) >= 0.0)

    def test_curve_validation_rejects_unsorted_thresholds(self):
        with pytest.raises(ValidationError, match="descending"):
            PrecisionRecallCurve(
                thresholds=[0.2, 0.5], recall=[0.1, 0.9], precision=[1.0, 0.5]
            )

    @pytest.mark.parametrize(
        "thresholds, recall, precision, message",
        [
            ([0.5, 0.2], [0.9, 0.1], [0.5, 1.0], "non-decreasing"),
            ([0.5, 0.2], [0.1, 0.9], [1.5, 0.5], "precision 1.5 outside"),
            ([0.5, np.nan, 0.2], [0.1, 0.5, 0.9], [1.0, 0.7, 0.5], "threshold nan outside"),
            ([0.5, 0.2], [0.1, 0.9], [1.0], "one length"),
        ],
    )
    def test_curve_validation_rejects_bad_arrays(self, thresholds, recall, precision, message):
        with pytest.raises(ValidationError, match=message):
            PrecisionRecallCurve(thresholds=thresholds, recall=recall, precision=precision)


class TestStandardErrors:
    def test_ranking_error_spread_has_additive_guard(self):
        s = ScoreSet(positives=[0.8, 0.9], negatives=[0.1, 0.2])
        # r = 0 so only the additive term remains
        a = audit(s, [1.0])[0]
        assert a.se_ranking == 1.0
        assert a.se_ap == 2.0

    def test_errors_shrink_with_sample_size(self, rng):
        small = ScoreSet(positives=rng.random(20), negatives=rng.random(20))
        large = ScoreSet(positives=rng.random(2000), negatives=rng.random(2000))
        a_small, a_large = audit(small, [1.0])[0], audit(large, [1.0])[0]
        assert a_large.se_ranking < a_small.se_ranking
        assert a_large.se_ap < a_small.se_ap


class TestLoadScores:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("score,label\n0.9,1\n0.4,1\n0.5,0\n0.1,0\n")
        s = load_scores(str(path))
        assert s.n_plus == 2 and s.n_minus == 2
        assert ranking_error(s) == 0.25

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("value,label\n0.9,1\n")
        with pytest.raises(InputFormatError, match="line 1"):
            load_scores(str(path))

    def test_out_of_range_score_names_line(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("score,label\n0.9,1\n1.4,0\n")
        with pytest.raises(InputFormatError, match="line 3"):
            load_scores(str(path))

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("score,label\n0.9,yes\n")
        with pytest.raises(InputFormatError, match="label"):
            load_scores(str(path))

    def test_single_sided_file_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("score,label\n0.9,1\n0.8,1\n")
        with pytest.raises(InputFormatError):
            load_scores(str(path))

    def test_bytes_that_are_not_utf8_are_a_format_error_naming_the_file(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(b'score,label\n0.5,1\n0.2,0\n"\xff",1\n')
        with pytest.raises(InputFormatError, match=f"{path}: line 4: 'utf-8' codec can't decode"):
            load_scores(str(path))

    @pytest.mark.parametrize(
        "text,line",
        [
            ("score,label\n0.5," + "x" * 200_000 + "\n0.2,0\n", 2),
            ("score," + "x" * 200_000 + "\n0.5,1\n0.2,0\n", 1),
        ],
        ids=["data row", "header"],
    )
    def test_field_past_the_field_limit_is_a_format_error(self, tmp_path, text, line):
        path = tmp_path / "scores.csv"
        path.write_text(text)
        with pytest.raises(InputFormatError) as info:
            load_scores(str(path))
        assert str(info.value) == f"{path}: line {line}: field larger than field limit (131072)"


def reference_load_scores(path: str) -> ScoreSet:
    """The csv row-loop loader load_scores had before its vectorized pass; the
    oracle.  Bytes that are not UTF-8 are an InputFormatError naming the file
    and the line of the first bad byte, which the message's position counts
    from the start of the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[: exc.start].count(b"\n") + 1
        raise InputFormatError(f"{path}: line {line}: {exc}") from None
    return _row_loop_load_scores(path)


def _row_loop_load_scores(path: str) -> ScoreSet:
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
    if not positives or not negatives:
        raise InputFormatError(f"{path}: need at least one positive and one negative row")
    return ScoreSet(positives=np.array(positives), negatives=np.array(negatives))


def _load_outcome(load, path: str):
    """Bit patterns of both sides, or the exception type and message."""
    try:
        s = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return s.positives.tobytes(), s.negatives.tobytes()


PLAIN_SCORE = st.floats(min_value=0.0, max_value=1.0).flatmap(
    lambda x: st.sampled_from([f"{x:.6f}", repr(x), f"{x:.25f}", f"{x:.0f}"])
)
ODD_SCORE = st.sampled_from(
    ["nan", "inf", "-0.0", "1_0", "1.4", "1.2.3", ".", ".5", "5.", "0007", "1e-3",
     "", " 0.25", "0.25 ", '"0.75"', "abc", "0." + "3" * 30]
)
ODD_LABEL = st.sampled_from(["+1", "1.0", "yes", " 1", "0 ", '"1"', "", "2"])
PLAIN_ROW = st.tuples(PLAIN_SCORE, st.sampled_from(["0", "1"])).map(",".join)
ODD_ROW = st.one_of(
    st.tuples(ODD_SCORE, st.sampled_from(["0", "1"])).map(",".join),
    st.tuples(PLAIN_SCORE, ODD_LABEL).map(",".join),
    st.sampled_from(["", "   ", "0.5", "0.5,1,0", "0.5,,1", ",", ",1", '"0.5,1"']),
)


@st.composite
def score_files(draw) -> bytes:
    """Mostly plain score,label files, some with a few odd rows or another layout."""
    rows = draw(st.lists(PLAIN_ROW, max_size=25))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        rows.insert(draw(st.integers(0, len(rows))), draw(ODD_ROW))
    header = draw(st.sampled_from(
        ["score,label"] * 4 + ["", " score , label", '"score","label"', "label,score", "score,label,x"]
    ))
    newline = draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"]))
    text = newline.join([header, *rows])
    if draw(st.sampled_from([True, True, True, False])):
        text += newline
    data = text.encode("utf-8")
    if draw(st.sampled_from([False] * 9 + [True])):  # not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def check_against_row_loop(tmp_path_factory):
    """load_scores gives the reference's values or error on 400 score files,
    the same files on every call."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=score_files())
    def same_values_or_same_error(data):
        path = tmp_path_factory.mktemp("scores") / "scores.csv"
        path.write_bytes(data)
        assert _load_outcome(load_scores, str(path)) == _load_outcome(
            reference_load_scores, str(path)
        )

    same_values_or_same_error()


class TestLoadScoresMatchesRowLoop:
    def test_same_values_or_same_error(self, tmp_path_factory):
        check_against_row_loop(tmp_path_factory)

    @pytest.mark.parametrize("chunk_bytes", [1, 4, 9, 23])
    def test_same_values_or_same_error_in_tiny_chunks(self, tmp_path_factory, chunk_bytes):
        """The same 400 files, read a few bytes at a time by the plain pass."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "_PARSE_CHUNK_BYTES", chunk_bytes)
            check_against_row_loop(tmp_path_factory)

    def test_plain_file_takes_the_vectorized_pass(self, tmp_path, rng):
        k = rng.integers(0, 10**6, size=3000)
        labels = rng.integers(0, 2, size=k.size)
        data = ("score,label\n" + "".join(
            f"{a // 10**6}.{a % 10**6:06d},{b}\n" for a, b in zip(k.tolist(), labels.tolist())
        )).encode()
        scores, is_pos = _parse_plain(data)
        assert np.array_equal(is_pos, labels == 1)
        path = tmp_path / "scores.csv"
        path.write_bytes(data)
        assert _load_outcome(load_scores, str(path)) == _load_outcome(
            reference_load_scores, str(path)
        )


def plain_rows(rng, n: int) -> str:
    k = rng.integers(0, 10**6, size=n)
    labels = rng.integers(0, 2, size=n)
    labels[:2] = 0, 1
    return "".join(f"{a // 10**6}.{a % 10**6:06d},{b}\n" for a, b in zip(k.tolist(), labels.tolist()))


class TestChunkBoundaries:
    """The plain pass reads the body in chunks of _PARSE_CHUNK_BYTES that end
    just after a newline; shrunk to a few bytes, small files span many."""

    CHUNK = 16

    @pytest.fixture(autouse=True)
    def tiny_chunks(self, monkeypatch):
        monkeypatch.setattr(metrics, "_PARSE_CHUNK_BYTES", self.CHUNK)

    def same_as_reference(self, tmp_path, text: str):
        path = tmp_path / "scores.csv"
        path.write_bytes(text.encode())
        outcome = _load_outcome(load_scores, str(path))
        assert outcome == _load_outcome(reference_load_scores, str(path))
        return outcome

    @pytest.mark.parametrize(
        "last_row, message",
        [
            ("0.5,2", "line 42: label must be 1 or 0, got '2'"),
            ("abc,1", "line 42: field 'score' is not a number: 'abc'"),
            (".,1", "line 42: field 'score' is not a number: '.'"),
            ("1.5,0", "line 42: score 1.5 outside [0,1]"),
            ("0.25,1\r", None),  # a CRLF row is valid, but only the row loop reads it
        ],
    )
    def test_an_odd_last_row_gets_the_reference_outcome(self, tmp_path, rng, last_row, message):
        text = "score,label\n" + plain_rows(rng, 40) + last_row + "\n"
        outcome = self.same_as_reference(tmp_path, text)
        assert _parse_plain(text.encode()) is None
        if message is None:
            assert outcome[0] != InputFormatError
        else:
            assert outcome[0] is InputFormatError and message in outcome[1]

    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_a_chunk_that_ends_at_the_final_newline(self, tmp_path, monkeypatch, rows):
        body = "0.125000,1\n0.500000,0\n" * rows  # 11-byte rows
        monkeypatch.setattr(metrics, "_PARSE_CHUNK_BYTES", 11)
        data = ("score,label\n" + body).encode()
        chunks = list(_line_chunks(data, len(b"score,label\n"), 11))
        assert len(chunks) == 2 * rows and chunks[-1][1] == len(data)
        scores, is_pos = _parse_plain(data)
        assert scores.tolist() == [0.125, 0.5] * rows and is_pos.tolist() == [True, False] * rows
        self.same_as_reference(tmp_path, "score,label\n" + body)

    def test_a_row_longer_than_a_chunk(self, tmp_path, rng):
        long_score = "0." + "1234567890" * 3
        text = "score,label\n" + plain_rows(rng, 5) + f"{long_score},1\n" + plain_rows(rng, 5)
        data = text.encode()
        chunks = list(_line_chunks(data, len(b"score,label\n"), self.CHUNK))
        assert [data[stop - 1] for _, stop in chunks] == [ord("\n")] * len(chunks)
        assert b"".join(data[a:b] for a, b in chunks) == data[len(b"score,label\n") :]
        long_row = f"{long_score},1\n".encode()
        assert any(long_row in data[a:b] and b - a > self.CHUNK for a, b in chunks)
        scores, _ = _parse_plain(data)
        assert scores[5] == float(long_score)
        self.same_as_reference(tmp_path, text)


def test_load_scores_memory_does_not_grow_with_python_objects_per_row(tmp_path, rng):
    """The parse holds the file's bytes, two arrays of one entry per row and
    one chunk's temporaries: a few times the file, not a str per row."""
    path = tmp_path / "scores.csv"
    path.write_text("score,label\n" + plain_rows(rng, 200_000))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        s = load_scores(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.n_plus + s.n_minus == 200_000
    assert peak <= 5 * size, f"peak {peak} bytes for a {size}-byte file"
