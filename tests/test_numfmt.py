import struct
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stockwave import numfmt
from helpers import powers_of_ten_and_neighbours


def texts(values):
    """numfmt.encode's rows as strings, each stripped of its trailing zero
    bytes; no zero byte may be left inside a row, so the padding comes
    only after the text."""
    rows = [bytes(row).rstrip(b"\0") for row in numfmt.encode(values)]
    assert not any(b"\0" in row for row in rows)
    return [row.decode("ascii") for row in rows]


def reference(values):
    return ["%.15g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


def from_bits(bits):
    return [struct.unpack("<d", struct.pack("<Q", b))[0] for b in bits]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_encode_matches_percent_on_floats(values):
    assert texts(values) == reference(values)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_encode_matches_percent_on_bit_patterns(bits):
    # every double: subnormals, nan payloads and infinities included
    values = from_bits(bits)
    assert texts(values) == reference(values)


EDGES = [
    1e15 + 5,  # a true tie: '1e+15'
    999999999999999.5,  # a true tie: '1e+15'
    9.9999999999999995e-5,  # rounds up into positional notation: '0.0001'
    1e-4,
    np.nextafter(1e-4, 0.0),
    1e15,  # the first exponential integer
    1e16,
    999999999999999.0,
    123456789012345678.0,
    5e-324,
    2.2250738585072014e-308 / 3,  # subnormal
    2.2250738585072014e-308,
    0.0,
    -0.0,
    1e100,  # three-digit exponents
    -1.5e-100,
    1.23456789012345e-308,
    -1.7976931348623157e308,
    numfmt.SMALLEST,
    np.nextafter(numfmt.SMALLEST, 0.0),
    numfmt.LARGEST,
    np.nextafter(numfmt.LARGEST, np.inf),
    0.1,
    1.0 / 3.0,
    2.0 / 3.0,
    123.456,
    float("nan"),
    float("inf"),
    -float("inf"),
]


@pytest.mark.parametrize("values", [powers_of_ten_and_neighbours(), np.array(EDGES)],
                         ids=["powers-of-ten", "edges"])
def test_encode_matches_percent_on_edges(values):
    assert texts(values) == reference(values)


@pytest.mark.parametrize("error", [-1, 1])
def test_exponent_is_exact_from_an_estimate_off_by_one(monkeypatch, error):
    # np.log10 rounds across a power of ten, up here and maybe down elsewhere
    def estimate(a):
        return np.array([Decimal(v).adjusted() + error for v in a.tolist()], dtype=np.intp)

    monkeypatch.setattr(numfmt, "_exponent_estimate", estimate)
    values = np.concatenate([powers_of_ten_and_neighbours(), np.array(EDGES)])
    assert texts(values) == reference(values)


def test_encode_matches_percent_across_chunks():
    rng = np.random.default_rng(12)
    values = np.concatenate([
        rng.random(numfmt.CHUNK + 1) ** 8,
        10.0 ** rng.uniform(-300, 300, numfmt.CHUNK) * rng.choice([-1.0, 1.0], numfmt.CHUNK),
        rng.integers(-10**17, 10**17, 5).astype(float),
    ])
    assert texts(values) == reference(values)


@pytest.mark.parametrize("shape, passes", [
    ((200, 50), [4050, 4050, 1900]),  # 81 rows a pass
    ((5, 2048), [4096, 4096, 2048]),  # 2 rows a pass
    ((3, 2050), [2050] * 3),  # one row a pass
    ((2, 5000), [4096, 4096, 1808]),  # rows longer than CHUNK: CHUNK-value slices
    ((5000,), [4096, 904]),  # a 1-d input is one row
])
def test_encode_passes_hold_whole_rows(monkeypatch, shape, passes):
    values = 10.0 ** np.random.default_rng(3).uniform(-20, 20, shape)
    sizes, decimal = [], numfmt._decimal

    def counted_decimal(chunk):
        sizes.append(chunk.size)
        return decimal(chunk)

    monkeypatch.setattr(numfmt, "_decimal", counted_decimal)
    text = numfmt.encode(values)
    assert sizes == passes
    assert text.shape == (*shape, numfmt.W)
    assert text.tobytes() == numfmt.encode(values.ravel()).tobytes()
    assert texts(values.ravel()) == reference(values.ravel())


def is_tie(value):
    """Whether |value| * 10^(14 - X), X its decimal exponent, ends in
    exactly .5, computed in exact decimal arithmetic."""
    with localcontext() as context:
        context.prec = 1100
        exact = abs(Decimal(value))
        scaled = exact.scaleb(14 - exact.adjusted())
        return scaled - int(scaled) == Decimal("0.5")


def test_ties_and_out_of_range_values_take_the_fallback():
    ties = [1e15 + 5, 999999999999999.5, 100000000000000.5, 12345678901234.25, 1234567890123455.0]
    assert all(map(is_tie, ties))
    outside = [5e-324, 1e-300, 1e300, float("inf"), float("nan")]
    kernel = [0.1, 1.0 / 3.0, 0.5, 1e15, 0.0, -0.0, numfmt.SMALLEST, numfmt.LARGEST]
    *_, fallback = numfmt._decimal(np.array(ties + outside + kernel))
    assert fallback.tolist() == [True] * (len(ties) + len(outside)) + [False] * len(kernel)
    assert texts(ties) == reference(ties) == [
        "1e+15", "1e+15", "100000000000000", "12345678901234.2", "1.23456789012346e+15"
    ]
