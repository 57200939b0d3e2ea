"""Check the plain scores parse against float() on seeded decimal fields.

    PYTHONPATH=src python tests/parse_sweep.py [--values N] [--seed S]

``metrics._parse_span`` reads a chunk whose score fields are all at most 16
bytes a word at a time, and must give float()'s value for every field.  This
script draws at least N fields (default 10**7) of widths 1..16 from the
families below, in batches of about a million rows, parses each batch with
_parse_span, np.loadtxt made to raise so that every chunk takes the word
parse, and compares each value with float()'s bit for bit.  It also checks
that the parse refuses fields that float() refuses or reads above 1.  It
prints the field count and the run time, and exits 1 on any mismatch, after
printing the first few.  ``test_metrics.py`` runs the same families at about
5 * 10**5 fields.

The families, all of values in [0, 1]:

- one word: widths 1..8, so each chunk is read one word per row;
- two words: widths 1..16, so nearly every chunk is read two words per row;
- wide: widths 9..16.

In each, nine fields in ten hold one '.', anywhere but alone, with only 0
digits before it; one in twenty of those reads exactly 1 ('1.', '001.000').
The others are 0 digits ending in a 0 or a 1.  A field's digits after the
'.' are uniform, or only 0s and 9s, or mostly 0s.

The refused fields, each checked in a span of its own: values just above 1,
16-digit fields with no '.', fields like '0007', two dots among 0s, and a
lone '.'.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from ecmargin import metrics

BATCH = 10**6
HEADER = b"score,label\n"
WIDEST = 16
FAMILIES = {"one word": (1, 8), "two words": (1, 16), "wide": (9, 16)}


def fields(rng, n: int, lo: int, hi: int) -> np.ndarray:
    """n plain score fields of widths lo..hi, each right-aligned in a row of
    an (n, 16) uint8 array whose bytes before the field are 0."""
    width = rng.integers(lo, hi + 1, n)
    start = WIDEST - width
    column = np.arange(WIDEST)
    uniform = rng.integers(0, 10, (n, WIDEST))
    style = rng.integers(0, 3, n)[:, None]
    digits = np.where(style == 0, uniform, 0)
    digits += np.where(style == 1, 9 * rng.integers(0, 2, (n, WIDEST)), 0)
    digits += np.where((style == 2) & (rng.random((n, WIDEST)) < 0.1), uniform, 0)
    has_dot = (width > 1) & (rng.random(n) < 0.9)
    dot = np.where(has_dot, start + rng.integers(0, width), WIDEST)
    digits[column < dot[:, None]] = 0
    undotted = np.flatnonzero(~has_dot)
    digits[undotted, -1] = rng.integers(0, 2, undotted.size)
    # exactly 1: a 1 just before the '.', only 0s after it
    one = np.flatnonzero(has_dot & (dot > start) & (rng.random(n) < 0.05))
    digits[one] *= column < dot[one, None]
    digits[one, dot[one] - 1] = 1
    out = (digits + ord("0")).astype(np.uint8)
    out[column == dot[:, None]] = ord(".")
    out[column < start[:, None]] = 0
    return out


def refused_fields(rng, n: int) -> list[bytes]:
    """About n fields of 1..16 bytes that float() rejects or reads above 1."""
    each = max(1, n // 5)
    out = [b"."]
    for _ in range(each):
        w = int(rng.integers(3, WIDEST + 1))
        zeros = b"0" * int(rng.integers(0, w - 2))
        frac = zeros + str(int(rng.integers(1, 10))).encode()
        lead = b"0" * int(rng.integers(0, w - len(frac) - 1))
        out.append(lead + b"1." + frac)  # just above 1
        out.append(str(int(rng.integers(10**15, 10**16))).encode())  # 16 digits, no '.'
        out.append(b"0" * int(rng.integers(0, w)) + str(int(rng.integers(2, 10))).encode())
        # two dots in 0s: only the second dot makes the field bad
        field = bytearray(b"0" * (w - 1) + str(int(rng.integers(0, 10))).encode())
        for at in rng.choice(w, 2, replace=False).tolist():
            field[at] = ord(".")
        out.append(bytes(field))
    return out


def rows(field_bytes: np.ndarray, labels: np.ndarray) -> bytes:
    """The body of plain rows: each field, ',', its 0/1 label, '\\n'."""
    tail = np.empty((labels.size, 3), dtype=np.uint8)
    tail[:, 0] = ord(",")
    tail[:, 1] = labels + ord("0")
    tail[:, 2] = ord("\n")
    lines = np.concatenate([field_bytes, tail], axis=1)
    return lines[lines != 0].tobytes()


def parse(body: bytes, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(scores, is_pos) of the n rows of body by _parse_span, or None."""
    data = HEADER + body
    scores = np.empty(n)
    is_pos = np.empty(n, dtype=bool)
    if not metrics._parse_span(data, len(HEADER), len(data), scores, is_pos):
        return None
    return scores, is_pos


def check(rng, n: int, lo: int, hi: int) -> list[bytes]:
    """The fields of a batch of n, of widths lo..hi, whose parse differs
    from float()'s value, or all of them when the parse refused the batch."""
    field_bytes = fields(rng, n, lo, hi)
    labels = rng.integers(0, 2, n)
    body = rows(field_bytes, labels)
    texts = [line[:-2] for line in body.split(b"\n")[:-1]]
    want = np.array([float(text) for text in texts])
    parsed = parse(body, n)
    if parsed is None:
        return texts
    scores, is_pos = parsed
    wrong = (scores.view(np.uint64) != want.view(np.uint64)) | (is_pos != (labels == 1))
    return [texts[i] for i in np.flatnonzero(wrong).tolist()]


def check_refused(rng, n: int) -> list[bytes]:
    """The refused fields that float() accepts within [0, 1], or that the
    parse accepts, each in a span with two plain rows."""
    bad = []
    for field in refused_fields(rng, n):
        try:
            accepted = float(field) <= 1.0
        except ValueError:
            accepted = False
        body = b"0.5,1\n" + field + b",0\n0.25,1\n"
        if accepted or parse(body, 3) is not None:
            bad.append(field)
    return bad


def loadtxt_refused(*args, **kwargs):
    raise AssertionError("a chunk of fields of at most 16 bytes went to np.loadtxt")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--values", type=int, default=10**7)
    parser.add_argument("--seed", type=int, default=20261021)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    np.loadtxt = loadtxt_refused
    start = time.perf_counter()
    values, bad = 0, []
    while values < args.values:
        for name, (lo, hi) in FAMILIES.items():
            size = min(BATCH, -(-args.values // len(FAMILIES)))
            bad += [(name, text) for text in check(rng, size, lo, hi)]
            values += size
    refused = check_refused(rng, 10**4)
    bad += [("refused", text) for text in refused]
    seconds = time.perf_counter() - start
    print(f"{values} fields and 10**4 refused fields, {len(bad)} mismatches, {seconds:.1f} s")
    for name, text in bad[:10]:
        print(f"mismatch in {name}: {text!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
