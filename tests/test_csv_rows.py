"""`pw._csv_rows`, the writer of every `integrate` CSV, against one `'%.17g'`
per value (`reference.csv_rows`).

The writer forms each value's 17 significant digits exactly with numpy.
It hands `'%.17g'` only the values it cannot decide that way: zeros, inf,
NaN, |x| outside [1e-270, 1e270], ties and near ties, and a value whose
decade log10 misjudged.  Whichever route a value takes, the bytes must be
the reference's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from sympoisson import pw


def _assert_same(table):
    assert pw._csv_rows(table) == reference.csv_rows(table)


def _floats(bits):
    return np.asarray(bits, dtype=np.int64).view(np.float64)


# sign, biased exponent (0: zeros and subnormals, 2047: inf and NaN), mantissa
_BITS = st.one_of(
    st.builds(lambda s, e, m: s << 63 | e << 52 | m, st.integers(0, 1), st.integers(0, 2047), st.integers(0, 2**52 - 1)),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]).map(lambda v: int(np.float64(v).view(np.uint64))),
)


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(0, 12), st.integers(1, 9)).flatmap(
    lambda shape: st.lists(_BITS, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]).map(
        lambda bits: np.array(bits, dtype=np.uint64).view(np.float64).reshape(shape))))
def test_drawn_bit_patterns(table):
    _assert_same(table)


def _powers_of_ten():
    """10^k rounded to a double, for every k with 10^k in the double range."""
    return np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in range(-323, 309)])


def test_three_ulps_around_every_power_of_ten():
    # just below 10^-269, |x| 10^(16-e) rounds up to 10^16 while its floor is
    # 10^16 - 1: only the exact floor tells that e is one too high
    bits = _powers_of_ten().view(np.int64)[:, None] + np.arange(-3, 4)
    table = _floats(np.maximum(bits, 0))
    _assert_same(np.vstack([table, -table]))


def test_ties_and_near_ties():
    # M/4 and M/8 with M odd in [4e15, 9e15) are doubles whose 18th
    # significant digit is an exact 5: '%.17g' rounds them half to even
    m = 2 * np.random.default_rng(24).integers(2 * 10**15, 45 * 10**14, 2000) + 1
    ties = np.concatenate([m / 4, m / 8])
    assert pw._csv_rows(np.array([[(4 * 10**15 + 1) / 4]])) == "1000000000000000.2\n"
    table = _floats(ties.view(np.int64)[:, None] + np.arange(-2, 3))
    _assert_same(np.vstack([table, -table]))


EDGES = [
    1.0, 100.0, 100.5, 1e16, 1.5e16, 12345678901234568.0, 99999999999999984.0, 1e17, 1e22, 1e23,
    0.0001, 0.00012345, 9.9999999999999995e-5, 1e-5, 0.1, 0.3, 2.0 / 3.0, 123456.789, 1e-270, 1e270,
    np.nextafter(1e-270, 0), np.nextafter(1e270, np.inf), 5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, 1e-100, 1e100, 1e-99, 1e99, 1.25e-17,
]


def test_edge_values():
    values = np.array(EDGES)
    _assert_same(np.stack([values, -values], axis=1))


def test_rounded_decimals_dyadics_and_steps():
    rng = np.random.default_rng(7)
    normals = rng.standard_normal(3000) * 10.0 ** rng.integers(-8, 20, 3000)
    rounded = np.round(rng.standard_normal(3000) * 1000, rng.integers(0, 8))
    dyadic = rng.integers(-(2**40), 2**40, 3000) / 2.0 ** rng.integers(0, 70, 3000)
    steps = 1e-3 * np.arange(3000)
    _assert_same(np.stack([normals, rounded, dyadic, steps], axis=1))


@pytest.mark.parametrize("rows, cols", [(0, 1), (0, 6), (1, 1), (5000, 1), (1, 6), (7, 9), (1001, 14), (4097, 3)])
def test_shapes(rows, cols):
    # r x 1 and r x (3n + 3), the trajectory tables; 4096 values to a block
    rng = np.random.default_rng(rows + 31 * cols)
    _assert_same(rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-6, 6, (rows, cols)))


def test_printf_runs_only_where_the_digits_are_undecided():
    # below 1e12 a double with a full mantissa has over 20 significant
    # digits, so none is a tie; from 1e13 on ties are common (1 in 8 at 2e14)
    rng = np.random.default_rng(3)
    values = rng.standard_normal(20000) * 10.0 ** rng.integers(-250, 10, 20000)
    assert pw._decimal(values)[2].all()
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, 1e300, (4 * 10**15 + 1) / 4])
    assert not pw._decimal(special)[2].any()
