"""Exact verdicts reduce integer tables.

`jj._integers` turns an array of Fractions into its integer form, q times
the lcm of q's denominators, as Python ints.  The left-invariant verdicts
read the integer forms of theta and of the connection coefficients; here
they are compared with the term-by-term Fraction sums of `reference.py` on
thetas and connections whose entries mix denominators (1/2, 1/3, 1/7 and
float-born values with denominators up to 2^1074).  The draws are catalog
pairs, whose verdicts are known, in a drawn rational basis, so that true
verdicts rest on cancellations between entries of different denominators.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from sympoisson import jj, liealg, registry
from sympoisson.liealg import LeftInvariantConnection, LeftInvariantSymTensor, LieAlgebra

_FLOAT_BORN = st.floats(min_value=-4, max_value=4, allow_nan=False).map(Fraction)
_MIXED = st.one_of(
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 7])),
    _FLOAT_BORN,
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=0, max_size=3).flatmap(
        lambda shape: st.lists(_MIXED, min_size=math.prod(shape), max_size=math.prod(shape)).map(
            lambda flat: np.array(flat, dtype=object).reshape(shape)
        )
    )
)
def test_the_integer_form_is_the_lcm_multiple_as_python_ints(q):
    ints, scale = jj._integers(q)
    assert scale == math.lcm(*(v.denominator for v in q.flat))
    assert ints.shape == q.shape and ints.dtype == object
    for n, v in zip(ints.flat, q.flat):
        assert type(n) is int
        assert n == v * scale
        assert (n == 0) == (v == 0)


def test_the_integer_form_keeps_float_born_denominators():
    q = np.array([Fraction(0.1), Fraction(1, 3), Fraction(0)], dtype=object)
    ints, scale = jj._integers(q)
    assert scale == 3 * 2**55 and type(ints[0]) is int and ints[0] == Fraction(0.1) * scale
    assert list(ints[1:]) == [2**55, 0]


def _in_basis(p, c, a, theta):
    """Constants, coefficients (both lower-lower-upper as c[k, i, j]) and a
    contravariant theta in the frame X'_i = sum_m p[m, i] X_m."""
    inv = np.array(jj._exact_inverse(p), dtype=object)

    def lower_pair(t):
        return np.tensordot(inv, p.T @ t @ p, axes=([1], [0]))

    return lower_pair(c), lower_pair(a), inv @ theta @ inv.T


@st.composite
def mixed_pairs(draw):
    """(algebra, connection, theta): a catalog Lie entry's theta and
    connection in a drawn rational basis, the connection sometimes moved by
    a drawn symmetric part, which keeps it torsion-free."""
    ident = draw(st.sampled_from(sorted(registry.LIE_ENTRIES)))
    entry = registry.LIE_ENTRIES[ident]
    g = liealg.algebra(ident)
    d = g.dim
    check = draw(st.sampled_from(entry.checks))
    conn = registry.LIE_CONNECTIONS[check.connection](g)
    theta = LeftInvariantSymTensor.from_dict(d, 2, entry.thetas[check.theta]).comps
    # an invertible p: a unit lower triangle times a scaled permutation
    lower = np.identity(d, dtype=object) + np.tril(
        np.array(draw(st.lists(_MIXED, min_size=d * d, max_size=d * d)), dtype=object).reshape(d, d), -1
    )
    perm = np.identity(d, dtype=object)[draw(st.permutations(range(d)))]
    scales = draw(st.lists(_MIXED.filter(bool), min_size=d, max_size=d))
    p = jj._fractions(lower @ (perm * np.array(scales, dtype=object)), (d, d))
    c, a, theta = _in_basis(p, g.c, conn.a, theta)
    if draw(st.booleans()):
        idx = st.integers(0, d - 1)
        for (k, i, j), v in draw(st.lists(st.tuples(st.tuples(idx, idx, idx), _MIXED), max_size=3)):
            a[k, i, j] += v
            if i != j:
                a[k, j, i] += v
    g2 = LieAlgebra(d, c)
    return g2, LeftInvariantConnection(g2, a), LeftInvariantSymTensor(d, 2, theta)


@settings(max_examples=40, deadline=None)
@given(mixed_pairs())
def test_integer_verdicts_match_the_fraction_sums_on_mixed_denominators(drawn):
    g, conn, theta = drawn
    assert conn.is_torsion_free()
    d = g.dim
    nabla = [reference.covariant_derivative_sum(conn.a, theta.comps, m) for m in range(d)]
    rows = reference.directional_sum(conn.a, theta.comps)
    parallel = not any(v for n in nabla for v in n.flat)
    strong = not any(v for row in rows for v in row.flat)
    cyclic = not any(
        rows[i][j, k] + rows[j][k, i] + rows[k][i, j] for i, j, k in itertools.product(range(d), repeat=3)
    )
    assert liealg.li_is_parallel(theta, conn) is parallel
    assert liealg.li_is_strong(theta, conn) is strong
    assert liealg.li_is_symmetric_poisson(theta, conn) is cyclic
