import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecmargin import (
    InputFormatError,
    PrecisionRecallCurve,
    ResourceLimitError,
    ScoreSet,
    UndefinedPrecisionError,
    ValidationError,
    ap_standard_error,
    average_precision,
    load_scores,
    positive_precisions,
    pr_curve,
    precision_at,
    ranking_error,
    ranking_error_bruteforce,
    ranking_standard_error,
    recall_at,
)
from ecmargin.metrics import _parse_plain

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


class TestScoreSet:
    def test_scores_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError):
            ScoreSet(positives=[1.5], negatives=[0.2])

    def test_swapped_exchanges_sides(self):
        s = EXAMPLE.swapped()
        assert np.array_equal(s.positives, EXAMPLE.negatives)
        assert np.array_equal(s.negatives, EXAMPLE.positives)

    def test_sorted_views_match_numpy_sort(self, rng):
        raw = rng.random(17)
        s = ScoreSet(positives=raw, negatives=rng.random(5))
        assert np.array_equal(s.pos_sorted, np.sort(raw))


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


class TestPRCurve:
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
        assert ranking_standard_error(s) == 1.0
        assert ap_standard_error(s, alpha=1.0) == 2.0

    def test_errors_shrink_with_sample_size(self, rng):
        small = ScoreSet(positives=rng.random(20), negatives=rng.random(20))
        large = ScoreSet(positives=rng.random(2000), negatives=rng.random(2000))
        assert ranking_standard_error(large) < ranking_standard_error(small)
        assert ap_standard_error(large, 1.0) < ap_standard_error(small, 1.0)


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


def reference_load_scores(path: str) -> ScoreSet:
    """The csv row-loop loader load_scores had before its vectorized pass; the oracle."""
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


class TestLoadScoresMatchesRowLoop:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=score_files())
    def test_same_values_or_same_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("scores") / "scores.csv"
        path.write_bytes(data)
        assert _load_outcome(load_scores, str(path)) == _load_outcome(
            reference_load_scores, str(path)
        )

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
