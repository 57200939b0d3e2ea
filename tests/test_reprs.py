"""The PR curve's float formatter writes repr's bytes.

``_reprs.cells`` finds the digits of most values from whole numpy columns
and leaves the rest to repr; these tests compare it with repr itself on
seeded families of values (``repr_sweep.py`` runs the same families at a
larger count), pin the fallback by switching the fast path off, and check
that the fast path decides nearly every ordinary value.
"""

import numpy as np
import pytest
import repr_sweep

from ecmargin import _reprs, cli
from ecmargin.metrics import load_scores, pr_curve


def test_every_family_matches_repr():
    """About 10**6 values, 0.0, 1.0, 1e-4 and its neighbours, 5e-324 and the
    largest subnormal among them (2-3 s on a 2-vCPU machine)."""
    checked = 0
    for name, values in repr_sweep.families(np.random.default_rng(33), 10**6):
        bad, _ = repr_sweep.check(values)
        assert bad == [], (name, bad[:5])
        checked += values.size
    assert checked >= 10**6


@pytest.fixture(scope="module")
def curve(tmp_path_factory):
    """The PR curve of a seeded 10**5-row scores file of six-decimal scores."""
    rng = np.random.default_rng(5)
    scores = rng.integers(0, 10**6 + 1, 10**5)
    labels = rng.random(10**5) < 0.05
    path = tmp_path_factory.mktemp("curve") / "scores.csv"
    rows = [
        f"{s // 10**6}.{s % 10**6:06d},{int(y)}\n" for s, y in zip(scores.tolist(), labels.tolist())
    ]
    path.write_text("score,label\n" + "".join(rows))
    return pr_curve(load_scores(str(path)), 19.0)


def curve_text(curve) -> bytes:
    return b"".join(cli._curve_chunks(curve, 0, curve.thresholds.size))


def per_row_text(curve) -> bytes:
    columns = (curve.thresholds.tolist(), curve.recall.tolist(), curve.precision.tolist())
    return "".join([f"{t!r},{r!r},{p!r}\n" for t, r, p in zip(*columns)]).encode("ascii")


def test_a_whole_curve_is_its_per_row_repr(curve):
    assert curve.thresholds.size > 90_000
    assert curve_text(curve) == per_row_text(curve)


@pytest.mark.parametrize("switch", [("_FAST_MIN", 2.0), ("_GUARD", np.inf)], ids=["range", "guard"])
def test_with_the_fast_path_off_every_value_takes_repr(monkeypatch, curve, switch):
    """Nothing lies in an empty range, and no decision clears an infinite
    guard: every value but the literals 0.0 and 1.0 takes repr, and the
    curve's bytes do not change."""
    monkeypatch.setattr(_reprs, *switch)
    for column in (curve.thresholds, curve.recall, curve.precision):
        out = np.empty((column.size, _reprs.WIDTH), dtype=np.uint8)
        literals = np.count_nonzero((column == 0.0) | (column == 1.0))
        assert _reprs.cells(column, out, "\n") == column.size - literals
    assert curve_text(curve) == per_row_text(curve)


def powers_of_ten():
    """1e-279 .. 0.1 and their neighbours; log10 gives the decade of about
    half of them one too high, and the fast path rescales those."""
    tens = np.array([float(f"1e{e}") for e in range(-279, 0)])
    return np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, 1.0)])


@pytest.mark.parametrize(
    "values, most",
    [(np.random.default_rng(7).uniform(1e-4, 1.0, 10**5), 100), (powers_of_ten(), 0)],
    ids=["uniform", "powers-of-ten"],
)
def test_the_fast_path_decides_nearly_every_ordinary_value(values, most):
    """At least 99.9% of uniform values in [1e-4, 1), read from the count of
    those that took repr, and every power of ten in range."""
    out = np.empty((values.size, _reprs.WIDTH), dtype=np.uint8)
    assert _reprs.cells(values, out, "\n") <= most
    assert out[out != 0].tobytes().decode() == "".join(f"{v!r}\n" for v in values.tolist())
