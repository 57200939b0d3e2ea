import json
import math

import numpy as np
import pytest

from ecmargin import (
    ClassCounts,
    ClassEntry,
    ClassStats,
    InputFormatError,
    UnknownClassError,
    ValidationError,
    all_class_stats,
    background_count,
    class_stats,
    load_counts,
)

COUNTS = ClassCounts(
    entries=(
        ClassEntry(class_id=1, name="cat", instance_count=16),
        ClassEntry(class_id=2, name="dog", instance_count=81),
        ClassEntry(class_id=3, name="bird", instance_count=4607),
    ),
    background_ratio=1.0,
)


class TestClassCounts:
    def test_total_foreground(self):
        """Foreground total is the plain sum of instance counts."""
        assert COUNTS.total_foreground() == 16 + 81 + 4607

    def test_get_returns_entry(self):
        assert COUNTS.get(2).name == "dog"

    def test_get_unknown_id_raises(self):
        with pytest.raises(UnknownClassError):
            COUNTS.get(99)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            ClassCounts(
                entries=(
                    ClassEntry(class_id=1, name="a", instance_count=1),
                    ClassEntry(class_id=1, name="b", instance_count=2),
                )
            )

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            ClassCounts(entries=(ClassEntry(class_id=0, name="a", instance_count=-1),))

    # a 401-digit count, and two counts whose sum passes the float maximum
    @pytest.mark.parametrize(
        "counts,class_id", [((10**400, 5), 0), ((5, 10**400), 1), ((10**308, 10**308), 1)]
    )
    def test_counts_beyond_the_float_range_rejected(self, counts, class_id):
        entries = tuple(ClassEntry(i, f"c{i}", n) for i, n in enumerate(counts))
        with pytest.raises(ValidationError, match=f"through class {class_id} sum past"):
            ClassCounts(entries=entries)

    @pytest.mark.parametrize("ratio", [-0.5, math.nan, math.inf])
    def test_negative_background_ratio_rejected(self, ratio):
        with pytest.raises(ValidationError):
            ClassCounts(entries=COUNTS.entries, background_ratio=ratio)


class TestClassStats:
    def test_alpha_must_match_counts(self):
        with pytest.raises(ValidationError):
            ClassStats(n_plus=10, n_minus=30, alpha=2.0)

    def test_roundtripped_alpha_accepted(self):
        """alpha recomputed from its own counts passes the one-ulp check."""
        stats = ClassStats(n_plus=7, n_minus=13, alpha=13 / 7)
        assert stats.alpha == 13 / 7

    def test_zero_counts_rejected(self):
        with pytest.raises(ValidationError):
            ClassStats(n_plus=0, n_minus=5, alpha=0.0)


class TestBackgroundCount:
    def test_half_away_from_zero_rounding(self):
        """ratio * foreground rounds half away from zero."""
        counts = ClassCounts(entries=(ClassEntry(class_id=0, name="x", instance_count=5),))
        assert background_count(counts, 0.5) == 3
        assert background_count(counts, 0.1) == 1
        assert background_count(counts, 0.0) == 0

    @pytest.mark.parametrize("ratio", [-1.0, math.nan, math.inf])
    def test_negative_ratio_rejected(self, ratio):
        with pytest.raises(ValidationError):
            background_count(COUNTS, ratio)

    def test_ratio_whose_count_overflows_rejected(self):
        with pytest.raises(ValidationError, match="overflows"):
            background_count(COUNTS, 1e308)
        assert background_count(COUNTS, 1e300) == int(1e300 * 4704 + 0.5)


class TestClassStatsFromCounts:
    def test_negatives_are_rest_plus_background(self):
        stats = class_stats(COUNTS, 1, background_count(COUNTS, 1.0))
        assert stats.n_plus == 16
        assert stats.n_minus == 81 + 4607 + 4704
        assert stats.alpha == stats.n_minus / stats.n_plus

    def test_all_class_stats_covers_every_id(self):
        stats = all_class_stats(COUNTS, 0)
        assert sorted(stats) == [1, 2, 3]
        assert stats[3].n_minus == 16 + 81

    def test_all_class_stats_are_in_class_id_order(self):
        counts = ClassCounts(entries=tuple(reversed(COUNTS.entries)))
        assert list(all_class_stats(counts, 0)) == [1, 2, 3]

    @pytest.mark.parametrize("seed", range(24))
    def test_all_class_stats_matches_class_stats_per_class(self, seed):
        """The one-pass all_class_stats gives what class_stats gives class by
        class in ascending id order: the same stats, or the same first error.
        The seeds cycle through all-valid counts, zero-count classes, a
        lowest-id class with no negatives, and a negative background."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 30))
        ids = [int(i) for i in rng.permutation(100)[:k]]
        sizes = [int(c) for c in rng.integers(1, 50, size=k)]
        background = int(rng.integers(0, 200))
        mode = seed % 4
        if mode == 1:
            sizes = [0 if rng.random() < 0.3 else c for c in sizes]
        elif mode == 2:
            sizes = [c if i == min(ids) else 0 for i, c in zip(ids, sizes)]
            background = 0
        elif mode == 3:
            background = -1
        counts = ClassCounts(entries=tuple(ClassEntry(i, f"c{i}", c) for i, c in zip(ids, sizes)))

        def outcome(compute):
            try:
                return compute()
            except ValidationError as exc:
                return type(exc), str(exc)

        expected = outcome(
            lambda: {i: class_stats(counts, i, background) for i in sorted(ids)}
        )
        got = outcome(lambda: all_class_stats(counts, background))
        assert got == expected
        if isinstance(expected, dict):
            assert list(got) == sorted(ids)
        if mode == 2:
            assert "has no negatives" in expected[1]

    def test_all_class_stats_of_no_classes_is_empty(self):
        assert all_class_stats(ClassCounts(entries=()), -1) == {}

    def test_negatives_beyond_the_float_range_rejected(self):
        counts = ClassCounts(entries=(ClassEntry(0, "a", 1), ClassEntry(1, "b", 10**308)))
        background = background_count(counts, 1.0)
        with pytest.raises(ValidationError, match="class 0 has more negatives than fit a float"):
            class_stats(counts, 0, background)

    def test_zero_count_class_rejected(self):
        counts = ClassCounts(
            entries=(
                ClassEntry(class_id=0, name="a", instance_count=0),
                ClassEntry(class_id=1, name="b", instance_count=3),
            )
        )
        with pytest.raises(ValidationError):
            class_stats(counts, 0, 0)


class TestLoadCounts:
    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(
            json.dumps(
                {
                    "categories": [
                        {"id": 1, "name": "cat", "instance_count": 16},
                        {"id": 2, "name": "dog", "instance_count": 81},
                    ],
                    "background_ratio": 2.5,
                }
            )
        )
        counts = load_counts(str(path))
        assert counts.get(1).instance_count == 16
        assert counts.background_ratio == 2.5

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("id,name,instance_count\n1,cat,16\n2,dog,81\n")
        counts = load_counts(str(path))
        assert counts.total_foreground() == 97
        assert counts.background_ratio is None

    def test_format_inferred_from_extension(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("id,name,instance_count\n1,cat,16\n")
        assert load_counts(str(path)).get(1).name == "cat"

    def test_json_missing_field_names_entry(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"categories": [{"id": 1, "name": "cat"}]}))
        with pytest.raises(InputFormatError, match="categories\\[0\\]"):
            load_counts(str(path))

    def test_csv_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("identifier,name,count\n1,cat,16\n")
        with pytest.raises(InputFormatError, match="line 1"):
            load_counts(str(path))

    def test_csv_non_integer_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,name,instance_count\n1,cat,lots\n")
        with pytest.raises(InputFormatError, match="line 2"):
            load_counts(str(path))

    # bytes that are not UTF-8, and an integer past Python's 4300-digit limit
    @pytest.mark.parametrize(
        "name,count,message", [(b"\xff", b"3", "utf-8"), (b"a", b"1" * 5000, "digits")]
    )
    def test_undecodable_json_is_a_format_error(self, tmp_path, name, count, message):
        data = b'{"categories": [{"id": 1, "name": "%s", "instance_count": %s}]}' % (name, count)
        path = tmp_path / "counts.json"
        path.write_bytes(data)
        with pytest.raises(InputFormatError, match=message):
            load_counts(str(path))

    def test_undecodable_csv_is_a_format_error_naming_the_file(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_bytes(b"id,name,instance_count\n1,\xff,3\n")
        with pytest.raises(InputFormatError, match=f"{path}: line 2: 'utf-8' codec"):
            load_counts(str(path))

    @pytest.mark.parametrize(
        "text,line",
        [
            ("id,name,instance_count\n0," + "a" * 200_000 + ",3\n", 2),
            ("id," + "a" * 200_000 + ",instance_count\n0,a,3\n", 1),
        ],
        ids=["data row", "header"],
    )
    def test_csv_field_past_the_field_limit_is_a_format_error(self, tmp_path, text, line):
        path = tmp_path / "counts.csv"
        path.write_text(text)
        with pytest.raises(InputFormatError) as info:
            load_counts(str(path))
        assert str(info.value) == f"{path}: line {line}: field larger than field limit (131072)"

    def test_json_nested_past_the_parser_limit_is_a_format_error(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_bytes(b'{"categories": ' + b"[" * 200_000)
        with pytest.raises(InputFormatError, match="nested too deeply"):
            load_counts(str(path))

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text("{}")
        with pytest.raises(ValidationError):
            load_counts(str(path), format="xml")
