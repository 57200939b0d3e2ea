"""Per-class instance counts and the statistics (n+, n-, alpha) derived from them.

The negative count for a class is everything that is not the class: all other
foreground classes plus the background pool, whose size is a user-supplied
ratio r times the total foreground count.

``read_json`` and ``read_csv`` read every JSON and CSV input: count files,
train configs, and the score files that ``metrics`` cannot parse as plain.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass

from .errors import InputFormatError, ValidationError

# counts enter float arithmetic (alpha, the margins), so they must fit a float
_MAX_COUNT = int(sys.float_info.max)


@dataclass(frozen=True)
class ClassEntry:
    class_id: int
    name: str
    instance_count: int


@dataclass(frozen=True)
class ClassCounts:
    """Immutable per-class instance counts plus an optional background ratio."""

    entries: tuple[ClassEntry, ...]
    background_ratio: float | None = None

    def __post_init__(self):
        seen: set[int] = set()
        total = 0
        for e in self.entries:
            if e.class_id < 0:
                raise ValidationError(f"class_id must be >= 0, got {e.class_id}")
            if e.instance_count < 0:
                raise ValidationError(
                    f"instance_count must be >= 0, got {e.instance_count} for class {e.class_id}"
                )
            total += e.instance_count
            if total > _MAX_COUNT:
                raise ValidationError(
                    f"instance counts through class {e.class_id} sum past the float range"
                )
            if e.class_id in seen:
                raise ValidationError(f"duplicate class_id {e.class_id}")
            seen.add(e.class_id)
        if self.background_ratio is not None and not 0.0 <= self.background_ratio < math.inf:
            raise ValidationError(
                f"background_ratio must be >= 0 and finite, got {self.background_ratio}"
            )

    def total_foreground(self) -> int:
        return sum(e.instance_count for e in self.entries)


@dataclass(frozen=True)
class ClassStats:
    """Positive/negative counts and their ratio alpha = n_minus / n_plus."""

    n_plus: int
    n_minus: int
    alpha: float

    def __post_init__(self):
        if self.n_plus < 1 or self.n_minus < 1:
            raise ValidationError(
                f"counts must be >= 1, got n_plus={self.n_plus}, n_minus={self.n_minus}"
            )
        expected = self.n_minus / self.n_plus
        # one ulp of slack so round-tripped values are not rejected
        if abs(self.alpha - expected) > math.ulp(expected):
            raise ValidationError(f"alpha {self.alpha} is not n_minus/n_plus = {expected}")


def load_counts(path: str) -> ClassCounts:
    """Load per-class counts from a CSV file when the path ends in ``.csv``
    (any case), and from a JSON file otherwise.

    JSON schema: {"categories": [{"id", "name", "instance_count"}, ...],
    "background_ratio": <optional number>}.  CSV schema: header
    ``id,name,instance_count`` and one row per class.
    """
    return _load_csv(path) if str(path).lower().endswith(".csv") else _load_json(path)


def read_json(path: str):
    """The JSON document in a file.  Every way the bytes can fail to be one
    is an InputFormatError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # bytes that are not UTF-8, or an integer past the digit limit
        raise InputFormatError(f"{path}: {exc}") from exc
    except RecursionError:
        raise InputFormatError(f"{path}: JSON nested too deeply to parse") from None


def read_csv(path: str, data: bytes, header: tuple[str, ...]):
    """(line number, fields) of each non-blank data row of a CSV file's bytes,
    records numbered from 1 for the header, which must be ``header`` once its
    fields are stripped.  Every way the bytes can fail to be such a file is an
    InputFormatError naming the file, and the record when there is one (a
    field past ``csv.field_size_limit()`` included).  The bytes are first
    decoded in one piece, so a byte that is not UTF-8 is reported at its
    offset in the file and on its line, counted by newlines; that text is
    let go and the rows are decoded a block at a time, since a StringIO of
    it would hold four bytes per character."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputFormatError(f"{path}: line {line}: {exc}") from None
    lineno = 0  # records read so far
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None:
                raise InputFormatError(f"{path}: empty file")
            lineno = 1
            if tuple(h.strip() for h in first) != header:
                raise InputFormatError(
                    f"{path}: line 1: expected header {','.join(header)!r}, got {','.join(first)!r}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(header):
                    raise InputFormatError(
                        f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
                    )
                yield lineno, row
    except csv.Error as exc:
        raise InputFormatError(f"{path}: line {lineno + 1}: {exc}") from None


def _load_json(path: str) -> ClassCounts:
    data = read_json(path)
    if not isinstance(data, dict) or "categories" not in data:
        raise InputFormatError(f"{path}: top-level object must contain a 'categories' list")
    cats = data["categories"]
    if not isinstance(cats, list):
        raise InputFormatError(f"{path}: 'categories' must be a list")
    entries = []
    for i, cat in enumerate(cats):
        if not isinstance(cat, dict):
            raise InputFormatError(f"{path}: categories[{i}] is not an object")
        try:
            cid = cat["id"]
            name = cat["name"]
            count = cat["instance_count"]
        except KeyError as exc:
            raise InputFormatError(f"{path}: categories[{i}] is missing field {exc.args[0]!r}") from exc
        if not isinstance(cid, int) or isinstance(cid, bool):
            raise InputFormatError(f"{path}: categories[{i}].id must be an integer, got {cid!r}")
        if not isinstance(count, int) or isinstance(count, bool):
            raise InputFormatError(
                f"{path}: categories[{i}].instance_count must be an integer, got {count!r}"
            )
        entries.append(ClassEntry(cid, str(name), count))
    ratio = data.get("background_ratio")
    if ratio is not None and (not isinstance(ratio, (int, float)) or isinstance(ratio, bool)):
        raise InputFormatError(f"{path}: background_ratio must be a number, got {ratio!r}")
    return ClassCounts(entries=tuple(entries), background_ratio=None if ratio is None else float(ratio))


def _load_csv(path: str) -> ClassCounts:
    with open(path, "rb") as fh:
        data = fh.read()
    entries = []
    for lineno, row in read_csv(path, data, ("id", "name", "instance_count")):
        try:
            cid = int(row[0])
        except ValueError:
            raise InputFormatError(f"{path}: line {lineno}: field 'id' is not an integer: {row[0]!r}") from None
        try:
            count = int(row[2])
        except ValueError:
            raise InputFormatError(
                f"{path}: line {lineno}: field 'instance_count' is not an integer: {row[2]!r}"
            ) from None
        entries.append(ClassEntry(cid, row[1], count))
    return ClassCounts(entries=tuple(entries))


def background_count(counts: ClassCounts, ratio: float) -> int:
    """Number of background samples implied by the ratio r: round(r * total).

    Rounding is half-away-from-zero (2.5 -> 3), since all inputs are
    nonnegative this is floor(x + 0.5).
    """
    if not 0.0 <= ratio < math.inf:
        raise ValidationError(f"ratio must be >= 0 and finite, got {ratio}")
    total = counts.total_foreground()
    if total < 1:
        raise ValidationError("total foreground count is 0; background ratio is meaningless")
    background = ratio * total
    if not math.isfinite(background):
        raise ValidationError(
            f"ratio {ratio} times the {total} foreground instances overflows a float"
        )
    return int(math.floor(background + 0.5))


def all_class_stats(counts: ClassCounts, background: int) -> dict[int, ClassStats]:
    """Stats for every class, keyed by class_id in ascending order:
    n_plus = n_c, n_minus = (all foreground + background) - n_c.

    One pass: the foreground total is summed once, not once per class.
    """
    entries = sorted(counts.entries, key=lambda e: e.class_id)
    if entries and background < 0:
        raise ValidationError(f"background must be >= 0, got {background}")
    foreground = counts.total_foreground()
    return {e.class_id: _entry_stats(e, foreground, background) for e in entries}


def _entry_stats(entry: ClassEntry, foreground: int, background: int) -> ClassStats:
    class_id = entry.class_id
    if entry.instance_count < 1:
        raise ValidationError(
            f"class {class_id} has zero instances; margins are undefined for empty classes"
        )
    n_plus = entry.instance_count
    n_minus = foreground + background - n_plus
    if n_minus < 1:
        raise ValidationError(
            f"class {class_id} has no negatives (n_minus={n_minus}); need at least one other sample"
        )
    if n_minus > _MAX_COUNT:
        raise ValidationError(f"class {class_id} has more negatives than fit a float")
    return ClassStats(n_plus=n_plus, n_minus=n_minus, alpha=n_minus / n_plus)
