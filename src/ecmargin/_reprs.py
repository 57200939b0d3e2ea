"""repr of whole float64 columns, byte for byte, in numpy.

``cells(values, out, end)`` writes ``repr(v)`` of each value into its row of
a uint8 matrix, zero bytes after it and ``end`` last; the nonzero bytes of
such rows, gathered in order, are the text of the values joined by ``end``.

repr writes the shortest digits that read back as the same double and, of
those, the nearest to it (Steele & White 1990; Gay's dtoa, mode 0).  For
1e-280 <= x < 1 they are found exactly, without a Python object per value:

- Scaling.  X = x * 10**k lies in [1e16, 1e17), held as an integer P plus a
  double e.  Dekker's (1971) product makes x * fl(10**k) exactly p + e; past
  10**22, where the power is no double, a double-double (hi + lo) of it is
  used and x * lo added to e, so X - (P + e) is below 2**-47 in absolute
  value.  k comes from log10, and a value whose X misses the decade, as next
  to a power of ten, is scaled once more.
- The round-trip interval.  Every decimal between X - h_lo and X + h_hi,
  where h is half an ulp of x times 10**k and h_lo is h/2 when x is a power
  of two, reads back as x.  h is in [0.55, 11.2], and h_lo is at least 0.55,
  so the integers inside run from L = P + ceil(e - h_lo) to
  U = P + floor(e + h_hi), at most 23 of them, and the integer nearest X is
  always one.
- The digits.  A multiple of 100 inside the interval is the only one there
  and gives the shortest digits, its trailing zeros dropped.  Otherwise the
  shortest digits have 16 or 17 digits: the multiple of 10 inside that lies
  nearest X, else the integer nearest X.

The error of every quantity these decisions compare is below 2**-46.  A
decision within _GUARD = 2**-40 of its boundary takes repr for that value:
e - h_lo or e + h_hi near an integer, X near the midpoint of the two
multiples of 10 or of the two integers around it when both are inside, and X
near 1e16 or 1e17.  So do 0 < x < 1e-280, subnormals, x > 1, negative
values, inf and nan; 0.0 and 1.0 are written as literals.
"""

from __future__ import annotations

import numpy as np

# a cell: repr's bytes (at most 24, as in "-2.2250738585072014e-308"), zero
# bytes, and an end byte; 8-byte words 0..3 hold the part before the 16
# digits after the first, those digits as four groups, and "e-" and the
# exponent
WIDTH = 32
_FAST_MIN = 1e-280
_MAX_K = 16 + 282  # 10**k for every x >= _FAST_MIN, and a decade more
# a decision this close to its boundary takes repr (see the module docstring)
_GUARD = 2.0**-40
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter for doubles

# 10**k = _TEN_HI[k] + _TEN_LO[k] to far below an ulp of _TEN_LO[k], from
# Python's exact integers; _TEN_HI split in two halves of 26 bits for Dekker
_TEN_HI = np.array([float(10**k) for k in range(_MAX_K + 1)])
_TEN_LO = np.array([float(10**k - int(float(10**k))) for k in range(_MAX_K + 1)])
_TEN_HI_HI = _TEN_HI * _SPLIT - (_TEN_HI * _SPLIT - _TEN_HI)
_TEN_HI_LO = _TEN_HI - _TEN_HI_HI


def _table(texts: list[str], size: int) -> np.ndarray:
    """Each text zero-padded to size bytes, read as one unsigned integer."""
    return np.array([text.encode() for text in texts], dtype=f"S{size}").view(f"u{size}")


# the part before the 16 digits: 10 z + d for "0." z zeros and d, then
# 40 + d for "d." and 50 + d for "d" alone
_PREFIX = _table(
    [f"0.{'0' * z}{d}" for z in range(4) for d in range(10)]
    + [f"{d}." for d in range(10)]
    + [f"{d}" for d in range(10)],
    8,
)
# 0..9999 as four digits, then as the same without trailing zeros, for the
# last nonzero group of the 16 digits
_GROUPS = _table(
    [f"{g:04d}" for g in range(10**4)] + [f"{g:04d}".rstrip("0") for g in range(10**4)], 4
)
_SUFFIX = _table([""] + [f"e-{ex:02d}" for ex in range(1, 300)], 8)  # "" or "e-" ex
_ZERO, _ONE = np.array([b"0.0", b"1.0"], dtype=f"S{WIDTH}").view(np.uint8).reshape(2, WIDTH)


def _off_integer(v: np.ndarray) -> np.ndarray:
    """Whether each v lies further than _GUARD from every integer."""
    return np.abs(v - np.rint(v)) > _GUARD


def _scaled(x: np.ndarray, k: np.ndarray):
    """(P, e), an int64 and a double whose sum is x * 10**k to below 2**-47,
    for x * 10**k in about [1e15, 1e18)."""
    hi = _TEN_HI[k]
    # Dekker: p + e = x * hi exactly
    p = x * hi
    c = x * _SPLIT
    x_hi = c - (c - x)
    x_lo = x - x_hi
    t_hi, t_lo = _TEN_HI_HI[k], _TEN_HI_LO[k]
    e = ((x_hi * t_hi - p) + x_hi * t_lo + x_lo * t_hi) + x_lo * t_lo
    e += x * _TEN_LO[k]
    return p.astype(np.int64), e


def _digits(x: np.ndarray):
    """(D, k, decided) for x in [_FAST_MIN, 1): repr's digits are those of
    the integer D in [1e16, 1e17] without its trailing zeros, and x is about
    D / 10**k; decided is False where a guard left that to repr."""
    k = 16 - np.floor(np.log10(x)).astype(np.int64)
    P, e = _scaled(x, k)
    # log10 rounds the decade of a double next to a power of ten either way
    down = (P - 10**16).astype(np.float64) + e < 0
    up = (P - 10**17).astype(np.float64) + e >= 0
    missed = np.flatnonzero(down | up)
    if missed.size:
        k[missed] += down[missed].astype(np.int64) - up[missed]
        P[missed], e[missed] = _scaled(x[missed], k[missed])
    # half an ulp of x, 2**(exp - 54) with x = f * 2**exp, times 10**k
    f, exp = np.frexp(x)
    h_hi = np.ldexp(_TEN_HI[k], exp - 54)
    h_lo = np.where(f == 0.5, h_hi / 2, h_hi)
    below, above = e - h_lo, e + h_hi
    L = P + np.ceil(below).astype(np.int64)
    U = P + np.floor(above).astype(np.int64)
    decided = (
        _off_integer(below)
        & _off_integer(above)
        & ((P - 10**16).astype(np.float64) + e > _GUARD)
        & ((P - 10**17).astype(np.float64) + e < -_GUARD)
    )
    # 1. the one multiple of 100 inside, if any
    m100 = L + (-L) % 100
    in100 = m100 <= U
    # 2. the multiple of 10 inside nearest X
    r10 = P % 10
    t = r10 + e  # X minus the multiple of 10 P - r10
    fl10 = np.floor(t / 10)
    down10 = P - r10 + 10 * fl10.astype(np.int64)
    frac10 = t - 10 * fl10  # X - down10
    down_in, up_in = down10 >= L, down10 + 10 <= U
    D10 = down10 + 10 * (up_in & (~down_in | (frac10 > 5)))
    in10 = down_in | up_in
    # 3. the integer nearest X
    fl1 = np.floor(e)
    frac1 = e - fl1
    D1 = P + fl1.astype(np.int64) + (frac1 > 0.5)
    tie10 = down_in & up_in & (np.abs(frac10 - 5) <= _GUARD)
    decided &= in100 | np.where(in10, ~tie10, _off_integer(frac1 - 0.5))
    return np.where(in100, m100, np.where(in10, D10, D1)), k, decided


def cells(values: np.ndarray, out: np.ndarray, end: str) -> int:
    """Write each float64 in values into its row of out, a uint8 array of
    shape (len(values), WIDTH) whose rows are contiguous at a multiple of 8
    bytes apart: repr(v), zero bytes, and end as the last byte.  Returns how
    many values took repr itself."""
    x = np.asarray(values, dtype=np.float64)
    fast = (x >= _FAST_MIN) & (x < 1.0)
    if fast.any():
        D, k, decided = _digits(np.where(fast, x, 0.5))
        fast &= decided
        top = D == 10**17  # 1e16 a decade up
        D[top] = 10**16
        decpt = 17 - k + top  # x is 0.ddd * 10**decpt
        first = D // 10**16
        rest = D - first * 10**16
        high = rest // 10**8
        low = rest - high * 10**8
        groups = (high // 10**4, high % 10**4, low // 10**4, low % 10**4)
        sci = decpt <= -4
        words, quads = out.view(np.uint64), out.view(np.uint32)
        words[:, 0] = _PREFIX[np.where(sci, 40 + 10 * (rest == 0) + first, first - 10 * decpt)]
        later = np.zeros(x.size, dtype=bool)  # a nonzero group after this one
        for i in (3, 2, 1, 0):
            quads[:, 2 + i] = _GROUPS[groups[i] + 10**4 * ~later]
            later |= groups[i] != 0
        words[:, 3] = _SUFFIX[np.where(sci, 1 - decpt, 0)]
    zero, one = x == 0.0, x == 1.0
    out[zero] = _ZERO
    out[one] = _ONE
    slow = np.flatnonzero(~(fast | zero | one))
    if slow.size:
        text = list(map(repr, x[slow].tolist()))
        out[slow] = np.array(text, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
    out[:, -1] = ord(end)
    return slow.size
