"""The bytes of ``'%.15g' % x`` for a whole float64 array at once.

``encode(values)`` gives a ``values.shape + (W,)`` uint8 array: each
value's text, byte for byte what CPython's ``%`` gives, left-aligned and
padded with zero bytes to ``W = 22``, the longest such text
(``-1.23456789012345e-308``). No text holds a zero byte, so the padding
is every zero byte of a row.
``cli.format_number`` stays the scalar definition of the format; this is
its block form.

The 15 significant digits of a finite nonzero x are one integer,
``D = round(|x| * 10^(14 - X))`` with X = floor(log10 |x|), and the text
follows from D, X and the sign. X is exact: np.log10 gives it to within
one, and |x| < 10^m exactly when |x| is below the least double >= 10^m,
which is tabulated. 10^k is held as a double-double ``hi + lo`` (hi the
nearest double, lo the nearest double to the rest), so hi + lo is 10^k
to a relative 2^-106. The scaled value t = |x| * 10^(14 - X) lies in
[10^14, 10^15) and is formed as p + err + |x| * lo, where p + err equals
|x| * hi exactly (Dekker's product on Veltkamp halves). Its fraction,
(p - floor(p)) + (err + |x| * lo), of which the first term is exact,
carries an absolute error below 2e-16: 1.2e-17 from dropping the rest of
10^k, 1.2e-17 from rounding |x| * lo (it is below 0.12), 2e-17 from
rounding the small sum (below 0.18) and 1.1e-16 from the last sum (below
1.2). That is far below the 1e-9 tie margin: where the computed fraction
is more than 1e-9 from a half, the exact one lies on the same side of
it, so D is the correctly rounded integer that CPython's conversion
(round half to even on the exact binary value) gives too; elsewhere the
value falls back. If D rounds up to 10^15, x rounded to the next power
of ten: D becomes 10^14 and X grows by one, as ``%g`` picks its
notation after rounding.

A value takes ``'%.15g' % x`` itself instead (the fallback) when:
  * 0 < |x| < 1e-280, |x| > 1e280, or x is not finite: subnormals, and
    scalings by 10^k that would leave the double range, stay out;
  * the computed fraction lies within 1e-9 of a half. That covers every
    true tie, such as 1e15 + 5 -> '1e+15', whose rounding depends on the
    parity of the last digit; a smooth spread of values has about one in
    5e8 there.
Zero needs neither: it is '0' or '-0'.

The text is picked byte by byte from a 32-byte source row per value
(digit triples, exponent, constants) by one of 2 x 21 x 15 layouts: the
sign, the notation class (positional for -4 <= X < 15, else exponential
with a two- or three-digit exponent) and the count of digits left once
trailing zeros go.

Values are formatted in passes of at most CHUNK (4096), so the
temporaries stay O(CHUNK): under tracemalloc they peak at ~180 bytes per
value, ~0.73 MB for a full pass, on top of the output's W bytes per
value. A pass holds as many whole rows of the last axis as fit in CHUNK,
at least one; a row longer than CHUNK is cut into CHUNK-value slices of
the ravel. A 1-d input is one row. The rule is there for memory: a sink
formats a whole (B, 2N + 8) block in one call, and from N = 1021 to 2043
a pass of whole rows holds one row, ~2N values, not 4096. Flat
4096-value slices cost a JSON ``evolve`` at N = 1031 1263 B per level in
``test_lattice_size_limit_fits_memory_budget``, against 945 with rows
and the 1024 allowed.
"""
from __future__ import annotations

import math

import numpy as np

W = 22  # longest '%.15g' text
CHUNK = 1 << 12  # values per kernel pass
DIGITS = 15
TIE_MARGIN = 1e-9
SMALLEST, LARGEST = 1e-280, 1e280  # |x| the kernel formats itself

_RANGE = 300  # tables are indexed by m + _RANGE for exponents |m| <= _RANGE
_VELTKAMP = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves


def _split(v):
    c = _VELTKAMP * v
    high = c - (c - v)
    return high, v - high


def _powers_of_ten():
    """(hi, lo) with hi + lo = 10^m to 2^-106 relative, for |m| <= _RANGE.
    Integer arithmetic: int -> float conversion and int true division
    round correctly, and so does ldexp by 2^-s while lo stays normal."""
    his, los = [], []
    q = 1
    for _ in range(_RANGE + 1):  # 10^0 .. 10^_RANGE
        his.append(float(q))
        los.append(float(q - int(his[-1])))
        q *= 10
    q = 1
    for _ in range(_RANGE):  # 10^-1 .. 10^-_RANGE, as hi = num / 2^s
        q *= 10
        hi = 1 / q
        mantissa, exponent = math.frexp(hi)
        num, s = int(mantissa * 2**53), 53 - exponent
        his.insert(0, hi)
        los.insert(0, math.ldexp(((1 << s) - num * q) / q, -s))  # 1/q - num/2^s
    return np.array(his), np.array(los)


_HI, _LO = _powers_of_ten()
_HI_HIGH, _HI_LOW = _split(_HI)
_CEIL = np.where(_LO > 0, np.nextafter(_HI, np.inf), _HI)  # least double >= 10^m


def _words(rows) -> np.ndarray:
    """Rows of four bytes as one native uint32 each."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view(np.uint32).ravel()


# Source row: five digit-triple words, an exponent word, a constants word
# and a zero word. A triple's fourth byte, never shown, holds 3j plus the
# triple's digits up to its last nonzero one at group j (0 for "000"), so
# the largest of the five counts D's significant digits.
_GROUPS = np.arange(1000)
_TRIPLES = np.empty((DIGITS // 3, 1000, 4), dtype=np.uint8)
_TRIPLES[:, :, 0] = _GROUPS // 100 + ord("0")
_TRIPLES[:, :, 1] = _GROUPS // 10 % 10 + ord("0")
_TRIPLES[:, :, 2] = _GROUPS % 10 + ord("0")
_TRIPLES[:, :, 3] = np.where(
    _GROUPS > 0,
    3 * np.arange(DIGITS // 3)[:, None] + 3 - (_GROUPS % 10 == 0) - (_GROUPS % 100 == 0),
    0,
)
_TRIPLES = _TRIPLES.view(np.uint32)[:, :, 0]
_EXPONENT_VALUES = np.arange(-_RANGE, _RANGE + 1)
_EXPONENTS = _words(np.column_stack((
    np.where(_EXPONENT_VALUES < 0, ord("-"), ord("+")),
    abs(_EXPONENT_VALUES) // 100 + ord("0"),
    abs(_EXPONENT_VALUES) // 10 % 10 + ord("0"),
    abs(_EXPONENT_VALUES) % 10 + ord("0"),
)))
_CONSTANTS = _words([list(b"-.0e")])[0]
_DIGIT_COLS = [4 * (i // 3) + i % 3 for i in range(DIGITS)]
_EXP_SIGN, _EXP_DIGITS = 20, [21, 22, 23]
_MINUS, _POINT, _ZERO, _E, _PAD = 24, 25, 26, 27, 28  # _PAD is zero

_FIXED_MIN = -4  # positional classes 0..18 for X in [-4, 14]
_EXP2, _EXP3 = 19, 20  # exponential, two- or three-digit exponent
_CLASSES = 21


def _layout(cls: int, ndigits: int) -> list:
    """Source columns of each byte of a positive value's text, for a class
    and a count of significant digits. D's digits past that count are 0."""
    digits = _DIGIT_COLS[:ndigits]
    if cls < _EXP2:
        exponent = cls + _FIXED_MIN
        if exponent < 0:
            cols = [_ZERO, _POINT] + [_ZERO] * (-exponent - 1) + digits
        else:
            cols = _DIGIT_COLS[:exponent + 1]
            if ndigits > exponent + 1:
                cols += [_POINT] + digits[exponent + 1:]
    else:
        cols = digits[:1] + ([_POINT] + digits[1:] if ndigits > 1 else [])
        cols += [_E, _EXP_SIGN] + _EXP_DIGITS[(cls == _EXP2):]
    return cols + [_PAD] * (W - len(cols))


_POSITIVE_LAYOUTS = np.array([
    col
    for cls in range(_CLASSES)
    for ndigits in range(1, DIGITS + 1)
    for col in _layout(cls, ndigits)
], dtype=np.intp).reshape(-1, W)
_LAYOUTS = np.concatenate((  # a negative value's text is "-" and the positive's
    _POSITIVE_LAYOUTS,
    np.column_stack((np.full(len(_POSITIVE_LAYOUTS), _MINUS), _POSITIVE_LAYOUTS[:, :-1])),
))
_NEGATIVE_LAYOUTS = _CLASSES * DIGITS
_LAYOUT_HALVES = [(half, np.ascontiguousarray(_LAYOUTS[:, half]))
                  for half in (slice(0, W // 2), slice(W // 2, W))]
_CLASS_LAYOUTS = DIGITS * np.array([  # each exponent's first layout, less one
    m - _FIXED_MIN if _FIXED_MIN <= m < DIGITS else _EXP2 if abs(m) < 100 else _EXP3
    for m in range(-_RANGE, _RANGE + 1)
]) - 1


def _exponent_estimate(a):
    """floor(log10 a) to within one, for a in [SMALLEST, LARGEST]."""
    return np.floor(np.log10(a)).astype(np.intp)


def _decimal(x):
    """(D, X + _RANGE, fallback) for a 1-d chunk. Values outside the
    kernel's range are worked as 1.0 (X = 0); zero then gets D = 0."""
    a = np.abs(x)
    zero = a == 0
    inside = (a >= SMALLEST) & (a <= LARGEST)
    a = np.where(inside, a, 1.0)
    index = _exponent_estimate(a) + _RANGE
    index -= a < _CEIL[index]
    index += a >= _CEIL[index + 1]
    scale = 2 * _RANGE + DIGITS - 1 - index
    product = a * _HI[scale]
    a_high, a_low = _split(a)
    hi_high, hi_low = _HI_HIGH[scale], _HI_LOW[scale]
    rest = ((a_high * hi_high - product) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
    rest += a * _LO[scale]
    whole = np.floor(product)
    fraction = product - whole
    fraction += rest
    digits = whole.astype(np.int64)
    digits += fraction >= 0.5
    fallback = np.abs(fraction - 0.5) < TIE_MARGIN
    fallback |= ~(inside | zero)
    carry = digits == 10**15
    digits[carry] = 10**14
    index += carry
    digits[zero] = 0
    return digits, index, fallback


def _groups(digits):
    """D's five groups of three digits, most significant first. Floor
    division by a scalar (libdivide in NumPy) and a subtraction beat
    np.divmod."""
    rest = digits
    for unit in (10**12, 10**9, 10**6, 1000):
        group = rest // unit
        yield group
        rest = rest - group * unit
    yield rest


def _text(x, digits, index, out):
    """Write the text of each value of a 1-d chunk, from its D and
    X + _RANGE, into the rows of out."""
    source = np.zeros((x.size, 8), dtype=np.uint32)
    for word, group in enumerate(_groups(digits)):
        source[:, word] = _TRIPLES[word][group]
    source[:, 5] = _EXPONENTS[index]
    source[:, 6] = _CONSTANTS
    source = source.view(np.uint8)
    ndigits = np.ones(x.size, dtype=np.uint8)  # zero's one digit, "0"
    for ranks in source[:, 3:20:4].T:
        np.maximum(ndigits, ranks, out=ndigits)
    layout = _CLASS_LAYOUTS[index]
    layout += ndigits
    layout += np.signbit(x) * _NEGATIVE_LAYOUTS
    row_starts = np.arange(0, source.size, source.shape[1])[:, None]
    cols = np.empty((x.size, W // 2), dtype=np.intp)  # half a row: half the bytes
    for half, layouts in _LAYOUT_HALVES:
        np.take(layouts, layout, axis=0, out=cols, mode="clip")
        cols += row_starts
        out[:, half] = source.ravel()[cols]


def encode(values) -> np.ndarray:
    """The text of '%.15g' % v for each value: a values.shape + (W,)
    uint8 array, each text left-aligned and zero-padded."""
    values = np.asarray(values, dtype=np.float64)
    flat = values.ravel()
    out = np.empty((flat.size, W), dtype=np.uint8)
    row = max(1, values.shape[-1] if values.ndim else 1)
    per_pass = CHUNK // row * row or CHUNK  # whole rows, or a slice of one
    for start in range(0, flat.size, per_pass):
        chunk = flat[start:start + per_pass]
        rows = out[start:start + per_pass]
        digits, index, fallback = _decimal(chunk)
        _text(chunk, digits, index, rows)
        (slow,) = np.nonzero(fallback)
        if slow.size:
            texts = ["%.15g" % v for v in chunk[slow].tolist()]
            rows[slow] = np.array(texts, dtype=f"S{W}").view(np.uint8).reshape(-1, W)
    return out.reshape(*values.shape, W)
