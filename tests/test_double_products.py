"""The exact identities read one double-product table and one derivative chain.

`jacobiator`, `associator` and `li_curvature_weitzenboeck` read the table of
((e_j e_k) e_i) an algebra builds once; the left-invariant verdicts read
`liealg._derivative_chain`.  Each is compared with `==` on Fractions against
the term-by-term sums of `reference.py`, on every catalog algebra, every
left-invariant catalog theta and connection, and on hypothesis-drawn sparse
rational constants of dimension 1 to 4.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from sympoisson import jj, liealg, registry
from sympoisson.liealg import LeftInvariantSymTensor, LieAlgebra, LieAlgebraError

LIE_IDENTS = ["abelian_1", "abelian_4", "so3", "aff1", "aff1xR", "heisenberg3"]


def triples(d):
    return itertools.product(range(d), repeat=3)


def check_algebra_identities(alg):
    c = alg.c
    for i, j, k in triples(alg.dim):
        assert alg.double_product(i, j, k) == reference.triple_sum(c, i, j, k)
        assert alg.jacobiator(i, j, k) == reference.jacobi_sum(c, i, j, k)
    jacobi = all(not any(reference.jacobi_sum(c, *t)) for t in triples(alg.dim))
    assert alg.satisfies_jacobi() == jacobi


def check_commutative(alg):
    check_algebra_identities(alg)
    for i, j, k in triples(alg.dim):
        assert alg.associator(i, j, k) == reference.associator_sum(alg.c, i, j, k)
    associative = all(not any(reference.associator_sum(alg.c, *t)) for t in triples(alg.dim))
    assert jj.is_associative(alg) == associative
    assert jj.is_jacobi_jordan(alg) == alg.satisfies_jacobi()


def check_lie(g):
    check_algebra_identities(g)
    quarter = Fraction(-1, 4)
    for i, j, k in triples(g.dim):
        # -1/4 [[X_i, X_j], X_k] is the (k, i, j) rotation of the table
        expected = tuple(quarter * v for v in reference.triple_sum(g.c, k, i, j))
        assert liealg.li_curvature_weitzenboeck(g, i, j, k) == expected


def check_chain(conn, theta):
    a = conn.a
    nabla, d = liealg._derivative_chain(a, theta.comps)
    for i in range(conn.dim):
        assert (nabla[i] == reference.covariant_derivative_sum(a, theta.comps, i)).all()
    rows = reference.directional_sum(a, theta.comps)
    for i in range(conn.dim):
        assert (d[i] == rows[i]).all()
    dim = conn.dim
    parallel = not any(v for m in range(dim) for v in reference.covariant_derivative_sum(a, theta.comps, m).flat)
    strong = not any(v for row in rows for v in row.flat)
    cyclic = not any(
        rows[i][j, k] + rows[j][k, i] + rows[k][i, j] for i, j, k in itertools.product(range(dim), repeat=3)
    )
    assert liealg.li_is_parallel(theta, conn) is parallel
    assert liealg.li_is_strong(theta, conn) is strong
    assert liealg.li_is_symmetric_poisson(theta, conn) is cyclic


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("entry", jj.catalog(), ids=lambda e: e.ident)
def test_catalog_algebra_matches_the_term_by_term_sums(entry):
    check_commutative(entry.algebra)


@pytest.mark.parametrize("ident", LIE_IDENTS)
def test_lie_algebra_matches_the_term_by_term_sums(ident):
    check_lie(liealg.algebra(ident))


@pytest.mark.parametrize("ident", list(registry.LIE_ENTRIES))
def test_lie_entry_chains_match_the_row_sums(ident):
    entry = registry.LIE_ENTRIES[ident]
    g = liealg.algebra(ident)
    keys = dict.fromkeys(c.connection for c in entry.checks)
    for key in keys:
        conn = registry.LIE_CONNECTIONS[key](g)
        for t in entry.thetas:
            check_chain(conn, LeftInvariantSymTensor.from_dict(g.dim, 2, t))


def test_catalog_entries_are_their_own_registry_rows():
    for entry in jj.catalog():
        assert registry.CATALOG[f"jj:{entry.ident}"] is entry
        assert entry.kind == "jj"
        assert entry.pair().theta.comps.shape == (entry.dim, entry.dim)


# ---------------------------------------------------------------------------
# drawn constants
# ---------------------------------------------------------------------------

_VALUES = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def sparse_constants(draw, sign):
    """Constants c[k][i][j] with c[k][j][i] = sign * c[k][i][j], a few nonzero."""
    dim = draw(st.integers(min_value=1, max_value=4))
    idx = st.integers(min_value=0, max_value=dim - 1)
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (k, i, j), v in draw(st.lists(st.tuples(st.tuples(idx, idx, idx), _VALUES), max_size=6)):
        if sign < 0 and i == j:
            continue
        c[k][i][j], c[k][j][i] = v, sign * v
    return dim, c


@settings(max_examples=60, deadline=None)
@given(sparse_constants(1))
def test_drawn_commutative_constants(drawn):
    check_commutative(jj.CommutativeAlgebra(*drawn))


@settings(max_examples=60, deadline=None)
@given(sparse_constants(-1))
def test_drawn_lie_constants_are_refused_exactly_when_jacobi_fails(drawn):
    dim, c = drawn
    jacobi = all(not any(reference.jacobi_sum(c, *t)) for t in triples(dim))
    if not jacobi:
        with pytest.raises(LieAlgebraError, match="Jacobi identity fails"):
            LieAlgebra(dim, c)
        return
    check_lie(LieAlgebra(dim, c))


@st.composite
def lie_pairs(draw):
    """A catalog Lie algebra, a torsion-free connection (the halved bracket
    plus a drawn symmetric part) and a drawn symmetric theta."""
    g = liealg.algebra(draw(st.sampled_from(LIE_IDENTS)))
    d = g.dim
    idx = st.integers(min_value=0, max_value=d - 1)
    half = Fraction(1, 2)
    s = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for (k, i, j), v in draw(st.lists(st.tuples(st.tuples(idx, idx, idx), _VALUES), max_size=4)):
        s[k][i][j] = s[k][j][i] = v
    entries = {(k, i, j): half * g.c[k][i][j] + s[k][i][j] for k, i, j in triples(d)}
    conn = liealg.left_invariant_connection(g, entries)
    theta = {tuple(sorted(ij)): v for ij, v in draw(st.lists(st.tuples(st.tuples(idx, idx), _VALUES), max_size=4))}
    return conn, LeftInvariantSymTensor.from_dict(d, 2, theta)


@settings(max_examples=60, deadline=None)
@given(lie_pairs())
def test_drawn_chains_match_the_row_sums(drawn):
    conn, theta = drawn
    assert conn.is_torsion_free()
    check_chain(conn, theta)


@settings(max_examples=30, deadline=None)
@given(lie_pairs(), st.data())
def test_covariant_derivative_of_degree_0_and_3(drawn, data):
    conn, _ = drawn
    d = conn.dim
    idx = st.integers(min_value=0, max_value=d - 1)
    scalar = LeftInvariantSymTensor.from_dict(d, 0, {(): data.draw(_VALUES)})
    drawn_cubic = data.draw(st.lists(st.tuples(st.tuples(idx, idx, idx), _VALUES), max_size=4))
    cubic = LeftInvariantSymTensor.from_dict(d, 3, {tuple(sorted(ijk)): v for ijk, v in drawn_cubic})
    for i in range(d):
        zero = liealg.li_covariant_derivative(conn, scalar, i)
        assert isinstance(zero, LeftInvariantSymTensor) and zero.degree == 0
        assert zero.comps.shape == () and zero.comps[()] == 0 and isinstance(zero.comps[()], Fraction)
        got = liealg.li_covariant_derivative(conn, cubic, i)
        assert isinstance(got, LeftInvariantSymTensor) and got.degree == 3
        assert (got.comps == reference.covariant_derivative_sum(conn.a, cubic.comps, i)).all()


def test_the_chain_refuses_a_tensor_that_is_not_degree_2():
    g = liealg.algebra("so3")
    vector = LeftInvariantSymTensor.from_dict(3, 1, {0: 1})
    with pytest.raises(LieAlgebraError, match="degree-2"):
        liealg.li_is_strong(vector, liealg.weitzenboeck0(g))
