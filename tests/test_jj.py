import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sympoisson.jj import (
    AlgebraError,
    CommutativeAlgebra,
    _echelon,
    _exact_inverse,
    _frac,
    basis_change,
    catalog,
    catalog_entry,
    characteristic_generators,
    from_linear_structure,
    is_associative,
    is_jacobi_jordan,
    to_linear_structure,
)
from sympoisson.geometry import lie_bracket
from sympoisson.poisson import (
    Involutivity,
    involutivity_check,
    is_strong,
    is_symmetric_poisson,
)

F = Fraction


def dim2_algebra():
    return CommutativeAlgebra.from_products(2, {(0, 0): {1: 1}})


def dim5_algebra():
    return catalog_entry("dim5_nonassoc").algebra


# ---------------------------------------------------------------------------
# products and axioms
# ---------------------------------------------------------------------------

def test_product_dim2():
    alg = dim2_algebra()
    assert alg.product([1, 0], [1, 0]) == (F(0), F(1))
    assert alg.product([0, 1], [0, 1]) == (F(0), F(0))


def test_product_zero_algebra():
    alg = CommutativeAlgebra.zero(3)
    assert alg.product([1, 2, 3], [4, 5, 6]) == (F(0),) * 3


def test_product_dim5():
    alg = dim5_algebra()
    e = np.eye(5, dtype=int)
    assert alg.product(e[0], e[3]) == (F(0), F(0), F(0), F(0), F(1))
    assert alg.product(e[0], e[4]) == (F(0), F(0), F(-1, 2), F(0), F(0))
    assert alg.product(e[1], e[3]) == (F(0), F(0), F(1), F(0), F(0))
    assert alg.product(e[0], e[0]) == (F(0), F(1), F(0), F(0), F(0))


def test_commutativity_enforced():
    with pytest.raises(AlgebraError):
        CommutativeAlgebra(2, [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])


def test_constants_of_another_shape_are_refused():
    big = np.zeros((3, 3, 3), dtype=int)
    with pytest.raises(AlgebraError, match="expected shape"):
        CommutativeAlgebra(2, big)  # not cut down to its 2x2x2 block
    with pytest.raises(AlgebraError, match="expected shape"):
        CommutativeAlgebra(3, np.zeros((2, 2, 2), dtype=int))
    with pytest.raises(AlgebraError, match="names no entry"):
        CommutativeAlgebra.from_products(2, {(0, 2): {0: 1}})
    with pytest.raises(AlgebraError, match="names no entry"):
        CommutativeAlgebra.from_products(2, {(0, 0): {-1: 1}})


def test_basis_change_refuses_a_matrix_that_is_not_square():
    p = [[1, 0], [0, 1], [1, 1]]
    with pytest.raises(AlgebraError, match="expected shape"):
        basis_change(catalog_entry("dim3_1").algebra, p)  # not read as its leading rows


def test_jacobi_and_associativity_catalog():
    for entry in catalog():
        assert is_jacobi_jordan(entry.algebra) == entry.expect["jacobi"]
        assert is_associative(entry.algebra) == entry.expect["associative"]


def test_dim5_associator_witness():
    # (e1 e1) e4 = e3 while e1 (e1 e4) = -e3/2
    alg = dim5_algebra()
    assoc = alg.associator(0, 0, 3)
    assert assoc == (F(0), F(0), F(-3, 2), F(0), F(0))


def test_zero_algebra_is_both():
    alg = CommutativeAlgebra.zero(4)
    assert is_jacobi_jordan(alg) and is_associative(alg)


def test_random_nonjacobi_detected():
    alg = CommutativeAlgebra.from_products(2, {(0, 0): {0: 1}})
    # e1 e1 = e1 gives Jac(e1,e1,e1) = 3 e1
    assert not is_jacobi_jordan(alg)


# ---------------------------------------------------------------------------
# linear structures
# ---------------------------------------------------------------------------

def test_to_linear_structure_dim2():
    pair = to_linear_structure(dim2_algebra())
    assert pair.chart.names == ("x", "y")
    m = pair.theta.evaluate((0.3, 0.7))
    assert np.allclose(m, [[0.7, 0.0], [0.0, 0.0]])
    assert is_symmetric_poisson(pair) and is_strong(pair)


def test_to_linear_structure_zero():
    pair = to_linear_structure(CommutativeAlgebra.zero(3))
    assert pair.theta.is_zero_on()
    assert is_strong(pair)


def test_dim5_verdicts():
    pair = to_linear_structure(dim5_algebra())
    assert is_symmetric_poisson(pair)
    assert not is_strong(pair)
    report = involutivity_check(pair)
    assert report.verdict == Involutivity.INVOLUTIVE_ON_SAMPLES


def test_dim5_module_commutators():
    """The generators commute except for a single exact relation.

    With X1 = theta(dx1), X2 = theta(dx2), X3 = theta(dx4), X4 = theta(dx5)
    the only nonvanishing bracket is [X1, X3], an exact constant multiple of
    x3 d1; every other pair commutes identically.
    """
    pair = to_linear_structure(dim5_algebra())
    gens = characteristic_generators(pair)
    x1, x2, x3, x4 = gens[0], gens[1], gens[3], gens[4]
    # theta(dx3) = 0 identically
    assert gens[2].is_zero_on()
    samples = pair.chart.sample_points()
    for a, b in [(x1, x2), (x1, x4), (x2, x3), (x2, x4), (x3, x4)]:
        assert lie_bracket(a, b).is_zero_on(samples)
    comm = lie_bracket(x1, x3)
    # exact value: [X1, X3] = -3/2 x3 d1 (and theta(dx5) = -1/2 x3 d1, so
    # the commutator is +3 times theta(dx5): inside the module either way)
    for p in samples:
        v = comm.evaluate(p)
        expected = np.zeros(5)
        expected[0] = -1.5 * p[2]
        assert np.allclose(v, expected, atol=1e-12)
        assert np.allclose(v, 3.0 * x4.evaluate(p), atol=1e-12)


def test_from_linear_structure_round_trip():
    for entry in catalog():
        pair = to_linear_structure(entry.algebra)
        back = from_linear_structure(pair.theta)
        assert back == entry.algebra


def test_from_linear_structure_rejects_nonlinear():
    from sympoisson.geometry import Chart, SymTensorField

    chart = Chart(["x", "y"])
    theta = SymTensorField.from_dict(chart, 2, {(0, 0): "x^2"})
    with pytest.raises(AlgebraError):
        from_linear_structure(theta)
    theta = SymTensorField.from_dict(chart, 2, {(0, 0): "1 + x"})
    with pytest.raises(AlgebraError):
        from_linear_structure(theta)
    with pytest.raises(AlgebraError, match="^expected a degree-2 field$"):
        from_linear_structure(SymTensorField.from_dict(chart, 1, {0: "x"}))


@pytest.mark.parametrize(
    "entries, message",
    [
        ({(0, 1): "x^2", (1, 1): "1 + y"}, "component (0,1) is not linear in the coordinates"),
        ({(0, 1): "1 + y", (1, 1): "x^2"}, "component (0,1) has a constant part"),
    ],
)
def test_from_linear_structure_names_the_first_faulty_component(entries, message):
    from sympoisson.geometry import Chart, SymTensorField

    theta = SymTensorField.from_dict(Chart(["x", "y"]), 2, entries)
    with pytest.raises(AlgebraError) as err:
        from_linear_structure(theta)
    assert str(err.value) == message


def test_catalog_entries_are_shared_and_read_only():
    entry = catalog_entry("dim2")
    assert entry is catalog_entry("dim2") and entry in catalog()
    with pytest.raises(TypeError):
        entry.expect["strong"] = False
    assert entry.expect["strong"] is True


def test_round_trip_on_random_jacobi_jordan():
    rng = np.random.default_rng(8)
    base = catalog_entry("dim4_4").algebra
    p = _random_unimodular(rng, 4)
    alg = basis_change(base, p)
    assert is_jacobi_jordan(alg)
    pair = to_linear_structure(alg)
    assert from_linear_structure(pair.theta) == alg


def _random_unimodular(rng, n):
    # integer shear products stay exactly invertible
    m = np.eye(n, dtype=object)
    for _ in range(6):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            shear = np.eye(n, dtype=object)
            shear[i][j] = int(rng.integers(-2, 3))
            m = m @ shear
    return [[F(int(m[a][b])) for b in range(n)] for a in range(n)]


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_size_and_ids():
    entries = catalog()
    assert len(entries) == 9
    idents = [e.ident for e in entries]
    assert idents[0] == "dim2" and idents[-1] == "dim5_nonassoc"
    assert len([e for e in entries if e.dim <= 4]) == 8


def test_catalog_all_low_dim_strong():
    for entry in catalog():
        pair = to_linear_structure(entry.algebra)
        assert is_symmetric_poisson(pair) == entry.expect["symmetric_poisson"]
        assert is_strong(pair) == entry.expect["strong"]
        if entry.dim <= 4:
            assert is_strong(pair)


def test_basis_change_preserves_verdicts():
    rng = np.random.default_rng(21)
    for ident in ["dim3_2", "dim4_5", "dim5_nonassoc"]:
        alg = catalog_entry(ident).algebra
        p = _random_unimodular(rng, alg.dim)
        changed = basis_change(alg, p)
        assert is_jacobi_jordan(changed) == is_jacobi_jordan(alg)
        assert is_associative(changed) == is_associative(alg)


def test_equivalence_battery_random_dims_2_to_4():
    """Bijection coherence: algebra axioms must mirror chart verdicts."""
    rng = np.random.default_rng(77)
    checked_true = 0
    for trial in range(60):
        dim = int(rng.integers(2, 5))
        if trial % 3 == 0:
            # known-good algebra under a random basis change
            pool = [e for e in catalog() if e.dim == dim]
            alg = basis_change(
                pool[int(rng.integers(0, len(pool)))].algebra,
                _random_unimodular(rng, dim),
            )
        else:
            alg = _random_symmetric_algebra(rng, dim)
        pair = to_linear_structure(alg)
        jac = is_jacobi_jordan(alg)
        assert is_symmetric_poisson(pair) == jac
        assert is_strong(pair) == (jac and is_associative(alg))
        checked_true += int(jac)
    assert checked_true >= 15  # battery must exercise both sides


def _random_symmetric_algebra(rng, dim):
    c = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for _ in range(dim + 1):
        i, j, k = rng.integers(0, dim, size=3)
        v = F(int(rng.integers(-4, 5)), 4)
        c[k][i][j] = v
        c[k][j][i] = v
    return CommutativeAlgebra(dim, c)


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def _rows(width: int, count: int):
    return st.lists(st.lists(rationals, min_size=width, max_size=width), min_size=count, max_size=count)


def _det(m):
    """Leibniz expansion over Fractions, independent of the elimination."""
    d = len(m)
    total = F(0)
    for perm in itertools.permutations(range(d)):
        inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        term = F(-1 if inversions % 2 else 1)
        for i in range(d):
            term *= m[i][perm[i]]
        total += term
    return total


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: _rows(d, d)))
def test_exact_inverse_inverts_invertible_rational_matrices(m):
    assume(_det(m) != 0)
    inv = _exact_inverse(m)
    d = len(m)
    identity = [[F(int(i == j)) for j in range(d)] for i in range(d)]
    assert [[sum((inv[i][k] * m[k][j] for k in range(d)), F(0)) for j in range(d)] for i in range(d)] == identity
    assert [[sum((m[i][k] * inv[k][j] for k in range(d)), F(0)) for j in range(d)] for i in range(d)] == identity


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4).flatmap(lambda d: _rows(d, d - 1)),
    st.lists(rationals, min_size=4, max_size=4),
    st.data(),
)
def test_exact_inverse_refuses_singular_rational_matrices(rows, weights, data):
    # the last row is a rational combination of the others, so m is singular
    d = len(rows) + 1
    dependent = [sum((w * row[j] for w, row in zip(weights, rows)), F(0)) for j in range(d)]
    m = list(rows)
    m.insert(data.draw(st.integers(0, d - 1)), dependent)
    assert _det(m) == 0
    with pytest.raises(AlgebraError, match="not invertible"):
        _exact_inverse(m)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=5))
def test_echelon_basis_is_reduced_and_spans_the_rows(rows):
    basis = _echelon(rows)
    leads = [lead for lead, _ in basis]
    assert leads == sorted(set(leads))
    for lead, row in basis:
        assert [row[other] for other in leads] == [F(int(other == lead)) for other in leads]
        assert all(v == 0 for v in row[:lead])
    # every input row is in the span, so adding one again adds no pivot
    assert all(len(_echelon([row], basis)) == len(basis) for row in rows)


def test_exact_rationals_read_from_text_and_refuse_other_objects():
    assert _frac("3/4") == Fraction(3, 4)
    with pytest.raises(AlgebraError, match="cannot interpret"):
        _frac(object())
