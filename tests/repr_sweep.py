"""Check the PR curve's float formatter against repr on seeded float64 values.

    PYTHONPATH=src python tests/repr_sweep.py [--values N] [--seed S]

``ecmargin._reprs.cells`` must write repr's bytes for every float64.  This
script draws at least N values (default 3 * 10**7) from the families below,
in batches of about a million, formats each batch with cells and with repr,
and prints the value count, how many values took repr itself (the
fallback), and the run time.  It exits 1 on any mismatch, after printing the
first few.  ``test_reprs.py`` runs the same families at about 10**6 values.

The families:

- the three columns of the PR curve of seeded six-decimal scores, with
  ties;
- random bit patterns over [1e-4, 1), [1e-30, 1e-4), [1e-280, 1) and
  [5e-324, 1];
- d-digit decimals, d = 1..17, at scales 1, 1e-5, 1e-9, 1e-20, 1e-100 and
  1e-270, each with both float neighbours;
- ratios tp / (tp + 19 fp);
- every power of two and of ten in [5e-324, 1], with both neighbours, and
  0.0, 1.0, 1e-4, 5e-324, the largest subnormal and the smallest normal,
  with theirs (once per run).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from ecmargin._reprs import WIDTH, cells
from ecmargin.metrics import ScoreSet, pr_curve

BATCH = 10**6
SCALES = (0, 5, 9, 20, 100, 270)  # the decimals' scales, as powers of 1/10


def with_neighbours(values: np.ndarray) -> np.ndarray:
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, 2.0)])


def bit_patterns(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """n doubles whose bit patterns are uniform over those of [lo, hi)."""
    lo_bits, hi_bits = np.array([lo, hi]).view(np.int64)
    return rng.integers(lo_bits, hi_bits, n).view(np.float64)


def decimals(rng, n: int) -> np.ndarray:
    """About n doubles: the nearest to random d-digit decimals at each scale,
    and their neighbours."""
    each = max(1, n // (3 * 17 * len(SCALES)))
    texts = []
    for d in range(1, 18):
        digits = rng.integers(10 ** (d - 1), 10**d, each, dtype=np.int64).tolist()
        texts += [f"{m}e-{d + s}" for s in SCALES for m in digits]
    return with_neighbours(np.array([float(text) for text in texts]))


def curve_columns(rng, rows: int) -> np.ndarray:
    """The thresholds, recall and precision of the PR curve of rows seeded
    six-decimal scores, 5% of them positive, at alpha 19."""
    scores = rng.integers(0, 10**6 + 1, rows) / 10**6
    positive = rng.random(rows) < 0.05
    positive[:2] = True, False  # both sides are never empty
    curve = pr_curve(ScoreSet(scores[positive], scores[~positive]), 19.0)
    return np.concatenate([curve.thresholds, curve.recall, curve.precision])


def ratios(rng, n: int) -> np.ndarray:
    tp = rng.integers(0, 10**6, n)
    fp = rng.integers(0, 10**6, n)
    tp[fp == 0] |= 1  # no 0/0
    return tp / (tp + 19 * fp)


def landmarks() -> np.ndarray:
    """Powers of two and ten, and the special values, with neighbours."""
    tens = [float(f"1e{e}") for e in range(-323, 1)]
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1)), tens])
    special = [0.0, 1.0, 1e-4, 5e-324, 2.0**-1022 - 2.0**-1074, 2.0**-1022]
    return with_neighbours(np.concatenate([powers, special]))


def families(rng, n: int):
    """(name, values) batches of about BATCH values, of at least n values in
    all; every family appears at least once."""
    yield "landmarks", landmarks()
    count = 0
    while count < n:
        size = min(BATCH, n) // 8 + 1
        for name, values in (
            ("curve", curve_columns(rng, size)),
            ("bits [1e-4, 1)", bit_patterns(rng, 1e-4, 1.0, size)),
            ("bits [1e-30, 1e-4)", bit_patterns(rng, 1e-30, 1e-4, size)),
            ("bits [1e-280, 1)", bit_patterns(rng, 1e-280, 1.0, size)),
            ("bits [5e-324, 1]", bit_patterns(rng, 5e-324, np.nextafter(1.0, 2.0), size)),
            ("decimals", decimals(rng, size)),
            ("ratios", ratios(rng, size)),
        ):
            count += values.size
            yield name, values


def check(values: np.ndarray) -> tuple[list[float], int]:
    """(the values whose cells differ from repr, how many took repr)."""
    out = np.empty((values.size, WIDTH), dtype=np.uint8)
    fallbacks = cells(values, out, "\n")
    got = out[out != 0].tobytes().decode("ascii")
    want = "".join([f"{v!r}\n" for v in values.tolist()])
    if got == want:
        return [], fallbacks
    pairs = zip(values.tolist(), got.splitlines(), want.splitlines())
    return [v for v, a, b in pairs if a != b], fallbacks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--values", type=int, default=3 * 10**7)
    parser.add_argument("--seed", type=int, default=20261020)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    values = fallbacks = 0
    bad = []
    for name, batch in families(np.random.default_rng(args.seed), args.values):
        wrong, fell_back = check(batch)
        values += batch.size
        fallbacks += fell_back
        bad += [(name, v) for v in wrong]
    seconds = time.perf_counter() - start
    print(f"{values} values, {fallbacks} took repr, {len(bad)} mismatches, {seconds:.1f} s")
    for name, v in bad[:10]:
        print(f"mismatch in {name}: {v!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
