import itertools
import math

import numpy as np
import pytest

from reference import eval_scaled
from sympoisson import expr as ex
from sympoisson import geometry as geo
from sympoisson.expr import ScalarField
from sympoisson.geometry import (
    Chart,
    Connection,
    SymFormField,
    SymTensorField,
    anticommutative_schouten,
    contract,
    covariant_derivative,
    curvature,
    differential,
    invert_metric,
    is_killing,
    levi_civita,
    lie_bracket,
    lower_indices,
    raise_indices,
    ricci,
    schouten,
    schouten_decomposable,
    sym_product,
    symmetric_bracket,
    symmetric_derivative,
    symmetric_lie_derivative,
    torsion_free_part,
)

R2 = Chart(["x", "y"])
R3 = Chart(["x", "y", "z"])


def euclidean(chart):
    return Connection.euclidean(chart)


def vec(chart, *entries):
    return SymTensorField.from_dict(chart, 1, {(i,): e for i, e in enumerate(entries)})


def form1(chart, *entries):
    return SymFormField.from_dict(chart, 1, {(i,): e for i, e in enumerate(entries)})


@pytest.fixture
def kill_conn():
    # torsion-free connection on R^2 with nabla_dx dy = dx + dy and zero otherwise
    return Connection.from_dict(R2, {(0, 0, 1): "1", (1, 0, 1): "1"})


@pytest.fixture
def kill_metric():
    # split-signature metric exp(2y) dx . exp(2x) dy
    return SymFormField.from_dict(R2, 2, {(0, 1): "exp(2*y) * exp(2*x)"})


def max_err(field, samples=None):
    return field.residual_on(samples)


# ---------------------------------------------------------------------------
# symmetric product
# ---------------------------------------------------------------------------

def test_sym_product_square_is_twice_tensor_square():
    x = vec(R2, "x^2", "y")
    sq = sym_product(x, x)
    pts = R2.sample_points(10)
    for p in pts:
        xv = x.evaluate(p)
        assert np.allclose(sq.evaluate(p), 2.0 * np.outer(xv, xv), rtol=1e-13)


def test_sym_product_degree_one_shuffle():
    x = vec(R2, "x", "0")
    y = vec(R2, "0", "exp(y)")
    prod = sym_product(x, y)
    for p in R2.sample_points(10):
        xv, yv = x.evaluate(p), y.evaluate(p)
        assert np.allclose(prod.evaluate(p), np.outer(xv, yv) + np.outer(yv, xv))


def test_sym_product_21_matches_symmetrization_oracle():
    # (A . B) = binom(3,1) * sym(A x B) for deg A = 2, deg B = 1
    a = sym_product(vec(R2, "x", "1"), vec(R2, "y", "x*y"))
    b = vec(R2, "exp(x)", "y^2")
    prod = sym_product(a, b)
    for p in R2.sample_points(10):
        av, bv = a.evaluate(p), b.evaluate(p)
        tensor = np.einsum("ij,k->ijk", av, bv)
        symm = np.zeros_like(tensor)
        for perm in itertools.permutations(range(3)):
            symm += np.transpose(tensor, perm)
        symm /= 6.0
        assert np.allclose(prod.evaluate(p), 3.0 * symm, rtol=1e-12)


def test_sym_product_commutes_and_associates():
    a = vec(R2, "x", "y")
    b = vec(R2, "1", "x")
    c = vec(R2, "y", "0")
    lhs = sym_product(sym_product(a, b), c)
    rhs = sym_product(a, sym_product(b, c))
    assert max_err(lhs - rhs) <= 1e-13
    assert max_err(sym_product(a, b) - sym_product(b, a)) <= 1e-13


def test_sym_product_degree_cap():
    a = sym_product(vec(R2, "x", "y"), vec(R2, "1", "0"))
    with pytest.raises(geo.GeometryError):
        sym_product(sym_product(a, a), vec(R2, "1", "0"))


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def test_contract_vector_pairing():
    alpha = form1(R2, "y", "x^2")
    x = vec(R2, "exp(x)", "1")
    out = contract(alpha, x)
    for p in R2.sample_points(10):
        assert out.evaluate(p)[()] == pytest.approx(
            alpha.evaluate(p) @ x.evaluate(p), rel=1e-14
        )


def test_contract_is_derivation_of_product():
    alpha = form1(R2, "1", "x")
    x = vec(R2, "x*y", "1")
    y = vec(R2, "0", "y^2")
    lhs = contract(alpha, sym_product(x, y))
    rhs = sym_product(contract(alpha, x), y) + sym_product(x, contract(alpha, y))
    assert max_err(lhs - rhs) <= 1e-14


def test_contract_derivation_higher_degrees():
    alpha = form1(R2, "y", "1")
    a = sym_product(vec(R2, "x", "1"), vec(R2, "0", "y"))
    b = vec(R2, "exp(y)", "x")
    lhs = contract(alpha, sym_product(a, b))
    rhs = sym_product(contract(alpha, a), b) + sym_product(a, contract(alpha, b))
    assert max_err(lhs - rhs) <= 1e-13


def test_contract_flat_inverse_metric():
    # theta = dx . dx + dy . dy as a bivector; i_{dx} theta = d/dx
    theta = SymTensorField.from_dict(R2, 2, {(0, 0): "1", (1, 1): "1"})
    dx1 = form1(R2, "1", "0")
    out = contract(dx1, theta)
    assert max_err(out - vec(R2, "1", "0")) == 0.0


def test_contract_mirror_into_forms():
    x = vec(R2, "x", "y")
    phi = SymFormField.from_dict(R2, 2, {(0, 0): "1", (0, 1): "x"})
    out = contract(x, phi)
    for p in R2.sample_points(5):
        assert np.allclose(out.evaluate(p), phi.evaluate(p) @ x.evaluate(p))


# ---------------------------------------------------------------------------
# covariant derivative
# ---------------------------------------------------------------------------

def test_covariant_derivative_flat_constant():
    t = SymTensorField.from_dict(R2, 2, {(0, 0): "2", (0, 1): "-1"})
    nabla = covariant_derivative(euclidean(R2), t)
    assert nabla.is_zero_on()


def test_covariant_derivative_killing_witness(kill_conn, kill_metric):
    # (nabla_dx g)(dy, dy) = -2 exp(2(x+y))
    nabla = covariant_derivative(kill_conn, kill_metric)
    dxg = nabla.directional(0)
    for p in R2.sample_points(10):
        x, y = p
        assert dxg.evaluate(p)[1, 1] == pytest.approx(
            -2.0 * math.exp(2.0 * (x + y)), rel=1e-13
        )


def test_covariant_derivative_leibniz(kill_conn):
    f = R2.parse("exp(x) + y^2")
    t = SymTensorField.from_dict(R2, 2, {(0, 0): "y", (0, 1): "x*y"})
    lhs = covariant_derivative(kill_conn, t.scale(f))
    base = covariant_derivative(kill_conn, t)
    n = R2.n
    for p in R2.sample_points(10):
        got = np.array([lhs.directional(i).evaluate(p) for i in range(n)])
        expected = np.array(
            [
                f.diff(i)(p) * t.evaluate(p) + f(p) * base.directional(i).evaluate(p)
                for i in range(n)
            ]
        )
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# symmetric derivative and Killing tensors
# ---------------------------------------------------------------------------

def test_symmetric_derivative_flat_dx():
    dx = form1(R2, "1", "0")
    assert symmetric_derivative(euclidean(R2), dx).is_zero_on()


def test_symmetric_derivative_on_function_is_differential():
    f = R2.parse("x^2*y + exp(y)")
    phi = SymFormField.from_scalar(f, R2)
    out = symmetric_derivative(euclidean(R2), phi)
    assert max_err(out - differential(f, R2)) == 0.0


def test_symmetric_derivative_killing_one_forms(kill_conn):
    alpha = form1(R2, "exp(2*y)", "0")
    beta = form1(R2, "0", "exp(2*x)")
    assert symmetric_derivative(kill_conn, alpha).is_zero_on()
    assert symmetric_derivative(kill_conn, beta).is_zero_on()


def test_symmetric_derivative_requires_torsion_free():
    gamma = geo._zero_comps(2, 3)
    gamma[0, 0, 1] = ex.ONE  # gamma[0, 1, 0] stays zero: torsion
    conn = Connection(R2, gamma)
    with pytest.raises(geo.TorsionError):
        symmetric_derivative(conn, form1(R2, "x", "y"))


def test_symmetric_derivative_is_derivation():
    conn = Connection.from_dict(R2, {(0, 0, 0): "y", (1, 1, 1): "x"})
    a = form1(R2, "x*y", "1")
    b = form1(R2, "0", "exp(x)")
    lhs = symmetric_derivative(conn, sym_product(a, b))
    rhs = sym_product(symmetric_derivative(conn, a), b) + sym_product(
        a, symmetric_derivative(conn, b)
    )
    assert max_err(lhs - rhs) <= 1e-12


def test_is_killing_examples(kill_conn, kill_metric):
    assert is_killing(kill_conn, form1(R2, "exp(2*y)", "0"))
    assert is_killing(kill_conn, kill_metric)
    xdxdx = SymFormField.from_dict(R2, 2, {(0, 0): "x"})
    assert not is_killing(euclidean(R2), xdxdx)


# ---------------------------------------------------------------------------
# symmetric bracket and Lie derivative
# ---------------------------------------------------------------------------

def test_symmetric_bracket_dimension_one():
    line = Chart(["x"])
    f = "x^2 + 1"
    h = "exp(x)"
    out = symmetric_bracket(
        euclidean(line), vec(line, f), vec(line, h)
    )
    expected = vec(line, "(2*x)*exp(x) + (x^2 + 1)*exp(x)")
    assert max_err(out - expected) <= 1e-13


def test_symmetric_bracket_self(kill_conn):
    x = vec(R2, "y", "x")
    lhs = symmetric_bracket(kill_conn, x, x)
    rhs = covariant_derivative(kill_conn, x).along(x).scale(2.0)
    assert max_err(lhs - rhs) == 0.0


def test_symmetric_bracket_matches_covariant_assembly(kill_conn):
    x = vec(R2, "x*y", "1")
    y = vec(R2, "exp(y)", "x")
    lhs = symmetric_bracket(kill_conn, x, y)
    rhs = covariant_derivative(kill_conn, y).along(x) + covariant_derivative(
        kill_conn, x
    ).along(y)
    assert max_err(lhs - rhs) == 0.0


def test_symmetric_lie_derivative_on_functions(kill_conn):
    f = R2.parse("x^2*y")
    phi = SymFormField.from_scalar(f, R2)
    x = vec(R2, "y", "exp(x)")
    out = symmetric_lie_derivative(kill_conn, x, phi)
    expected = sum(
        (x.entry(i) * f.diff(i) for i in range(R2.n)),
        start=ScalarField.zero(R2.n),
    )
    assert max_err(out - SymFormField.from_scalar(expected, R2)) <= 1e-13


def test_symmetric_lie_derivative_bracket_identity(kill_conn):
    # i_{<X,Y>} phi = L^s_X i_Y phi - i_Y L^s_X phi
    x = vec(R2, "x", "y")
    y = vec(R2, "1", "x*y")
    phi = SymFormField.from_dict(R2, 2, {(0, 0): "y", (0, 1): "x", (1, 1): "1"})
    lhs = contract(symmetric_bracket(kill_conn, x, y), phi)
    rhs = symmetric_lie_derivative(kill_conn, x, contract(y, phi)) - contract(
        y, symmetric_lie_derivative(kill_conn, x, phi)
    )
    assert max_err(lhs - rhs) <= 1e-12


def test_symmetric_lie_derivative_flat_constant():
    x = vec(R2, "1", "2")
    phi = SymFormField.from_dict(R2, 2, {(0, 0): "3", (1, 1): "1"})
    assert symmetric_lie_derivative(euclidean(R2), x, phi).is_zero_on()


# ---------------------------------------------------------------------------
# Schouten bracket
# ---------------------------------------------------------------------------

def test_schouten_vector_function(kill_conn):
    x = vec(R2, "y", "x^2")
    f = R2.parse("x*y")
    out = schouten(kill_conn, x, SymTensorField.from_scalar(f, R2))
    expected = SymTensorField.from_scalar(
        x.entry(0) * f.diff(0) + x.entry(1) * f.diff(1), R2
    )
    assert max_err(out - expected) <= 1e-13


def test_schouten_against_first_slot_contraction():
    # [dxdx, x] = i_{dx}(dxdx) = d/dx on flat R^2
    a = SymTensorField.from_dict(R2, 2, {(0, 0): "1"})
    f = SymTensorField.from_scalar(R2.parse("x"), R2)
    out = schouten(euclidean(R2), a, f)
    assert max_err(out - vec(R2, "1", "0")) == 0.0


def test_schouten_commutative(kill_conn):
    a = sym_product(vec(R2, "x", "1"), vec(R2, "y", "x"))
    b = vec(R2, "exp(y)", "y")
    assert max_err(schouten(kill_conn, a, b) - schouten(kill_conn, b, a)) <= 1e-13


def test_schouten_derivation_property(kill_conn):
    a = vec(R2, "x*y", "1")
    b = vec(R2, "0", "x")
    c = vec(R2, "y", "exp(x)")
    lhs = schouten(kill_conn, a, sym_product(b, c))
    rhs = sym_product(schouten(kill_conn, a, b), c) + sym_product(
        b, schouten(kill_conn, a, c)
    )
    assert max_err(lhs - rhs) <= 1e-12


def _random_vec(chart, rng):
    def poly():
        c = rng.integers(-2, 3, size=4)
        return f"{c[0]} + {c[1]}*x + {c[2]}*y + {c[3]}*x*y"

    return vec(chart, poly(), poly())


def test_schouten_matches_decomposable_oracle(kill_conn):
    rng = np.random.default_rng(42)
    samples = R2.sample_points(25)
    for r, l in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (1, 3)]:
        xs = [_random_vec(R2, rng) for _ in range(r)]
        ys = [_random_vec(R2, rng) for _ in range(l)]
        lhs = schouten(kill_conn, geo.sym_product_many(xs), geo.sym_product_many(ys))
        rhs = schouten_decomposable(kill_conn, xs, ys)
        for p in samples:
            a, b = lhs.evaluate(p), rhs.evaluate(p)
            assert np.allclose(a, b, rtol=1e-8, atol=1e-8 * (1 + np.abs(b).max()))


def test_anticommutative_schouten_vectors_lie_bracket():
    x = vec(R2, "x*y", "1")
    y = vec(R2, "exp(y)", "x")
    out = anticommutative_schouten(x, y)
    assert max_err(out - lie_bracket(x, y)) == 0.0


def test_anticommutative_schouten_antisymmetry():
    a = sym_product(vec(R2, "x", "1"), vec(R2, "y", "x"))
    b = vec(R2, "y^2", "x")
    assert max_err(anticommutative_schouten(a, b) + anticommutative_schouten(b, a)) <= 1e-13


def test_anticommutative_schouten_function_rule():
    x = vec(R2, "x", "y^2")
    f = SymTensorField.from_scalar(R2.parse("x*y"), R2)
    out = anticommutative_schouten(x, f)
    expected = SymTensorField.from_scalar(
        x.entry(0) * R2.parse("x*y").diff(0) + x.entry(1) * R2.parse("x*y").diff(1), R2
    )
    assert max_err(out - expected) <= 1e-14


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def test_curvature_flat_zero():
    assert curvature(euclidean(R3)).is_zero_on()


def test_curvature_antisymmetry(kill_conn):
    r = curvature(kill_conn)
    for p in R2.sample_points(10):
        v = r.evaluate(p)
        assert np.allclose(v, -np.transpose(v, (0, 1, 3, 2)), atol=1e-12)


def test_curvature_algebraic_bianchi(kill_conn):
    # R(X,Y)Z + R(Y,Z)X + R(Z,X)Y = 0 for torsion-free connections
    r = curvature(kill_conn)
    for p in R2.sample_points(10):
        v = r.evaluate(p)  # v[l, k, i, j]
        cyc = (
            np.transpose(v, (0, 1, 2, 3))
            + np.transpose(v, (0, 3, 1, 2))
            + np.transpose(v, (0, 2, 3, 1))
        )
        assert np.allclose(cyc, 0.0, atol=1e-12)


def test_curvature_nonflat_connection(kill_conn):
    assert not curvature(kill_conn).is_zero_on()


# ---------------------------------------------------------------------------
# Levi-Civita
# ---------------------------------------------------------------------------

def test_levi_civita_euclidean_metric():
    g = SymFormField.from_dict(R2, 2, {(0, 0): "1", (1, 1): "1"})
    conn = levi_civita(g)
    assert all(
        isinstance(conn.gamma[k, i, j], ex.Const) and conn.gamma[k, i, j].value == 0.0
        for k in range(2)
        for i in range(2)
        for j in range(2)
    )


def test_levi_civita_parallel_and_torsion_free(kill_metric):
    conn = levi_civita(kill_metric)
    assert conn.is_torsion_free()
    assert covariant_derivative(conn, kill_metric).is_zero_on()


def test_levi_civita_differs_from_killing_connection(kill_conn, kill_metric):
    lc = levi_civita(kill_metric)
    diff = np.empty((2, 2, 2), dtype=object)
    worst = 0.0
    for idx in np.ndindex(2, 2, 2):
        d = ex.sub(lc.gamma[idx], kill_conn.gamma[idx])
        for p in R2.sample_points(10):
            v, scale = eval_scaled(d, p)
            worst = max(worst, abs(v) / (1 + scale))
    assert worst > 1e-3


def test_levi_civita_conformal_koszul_oracle():
    # g = exp(2x) (dx x dx + dy x dy); hand-derived Christoffels:
    # G^x_xx = 1, G^x_yy = -1, G^y_xy = G^y_yx = 1, rest 0
    g = SymFormField.from_dict(R2, 2, {(0, 0): "exp(2*x)", (1, 1): "exp(2*x)"})
    conn = levi_civita(g)
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0
    expected[0, 1, 1] = -1.0
    expected[1, 0, 1] = expected[1, 1, 0] = 1.0
    for p in R2.sample_points(10):
        assert np.allclose(conn.gamma_at(p), expected, atol=1e-12)


def test_gamma_at_names_the_failing_subterm():
    conn = Connection.from_dict(R2, {(0, 0, 1): "y / x", (1, 1, 1): "x"})
    assert conn.gamma_at((2.0, 1.0))[0, 1, 0] == 0.5
    with pytest.raises(ex.EvalDomainError) as err:
        conn.gamma_at((0.0, 1.0))
    assert err.value.named(R2.names) == "division by zero in subterm 'y / x'"


def test_levi_civita_rejects_degenerate():
    g = SymFormField.from_dict(R2, 2, {(0, 0): "1", (1, 1): "0"})
    with pytest.raises(geo.DegenerateMetricError):
        levi_civita(g)


def test_invert_metric_names_the_first_degenerate_sample():
    # x - sqrt(x^2) is exactly 0 where x >= 0 and nonzero elsewhere
    g = SymFormField.from_dict(R2, 2, {(0, 0): "1", (1, 1): "x - sqrt(x^2)"})
    samples = R2.sample_points()
    first = next(p for p in samples if p[0] >= 0.0)
    assert samples[0][0] < 0.0  # the first sample is not the degenerate one
    with pytest.raises(geo.DegenerateMetricError) as err:
        invert_metric(g)
    assert str(err.value) == f"degenerate at sample point {tuple(first)}"


def test_ricci_symmetry_for_levi_civita():
    g = SymFormField.from_dict(R2, 2, {(0, 0): "exp(2*x)", (1, 1): "exp(2*y) + x^2"})
    ric = ricci(levi_civita(g))
    for p in R2.sample_points(10):
        m = np.array([[ScalarField(e, R2.n)(p) for e in row] for row in ric])
        assert np.allclose(m, m.T, atol=1e-10)


# ---------------------------------------------------------------------------
# raising / lowering, torsion
# ---------------------------------------------------------------------------

def test_raise_lower_round_trip(kill_metric):
    ginv = invert_metric(kill_metric)
    k = SymFormField.from_dict(R2, 2, {(0, 0): "x", (0, 1): "1", (1, 1): "y"})
    back = lower_indices(kill_metric, raise_indices(ginv, k))
    assert max_err(back - k) <= 1e-11


def test_invert_metric_pointwise(kill_metric):
    ginv = invert_metric(kill_metric)
    for p in R2.sample_points(10):
        assert np.allclose(
            ginv.evaluate(p) @ kill_metric.evaluate(p), np.eye(2), atol=1e-12
        )


def test_torsion_free_part():
    gamma = geo._zero_comps(2, 3)
    gamma[0, 0, 1] = R2.parse("x").expr
    conn = Connection(R2, gamma)
    assert not conn.is_torsion_free()
    fixed = torsion_free_part(conn)
    assert fixed.is_torsion_free()
    for p in R2.sample_points(5):
        x = p[0]
        g = fixed.gamma_at(p)
        assert g[0, 0, 1] == pytest.approx(x / 2)
        assert g[0, 1, 0] == pytest.approx(x / 2)


def test_chart_mismatch_raises():
    with pytest.raises(geo.ChartMismatchError):
        sym_product(vec(R2, "x", "y"), vec(R3, "x", "y", "z"))


def test_sample_points_rejects_counts_below_one():
    for count in (0, -3):
        with pytest.raises(geo.GeometryError, match="at least 1"):
            R2.sample_points(count)


@pytest.mark.parametrize(
    "interval", [(math.nan, 1.0), (0.0, math.nan), (1.0, -1.0), (0.0, 0.0), (math.inf, math.inf), (-math.inf, 1.0)]
)
def test_chart_rejects_a_box_that_is_not_finite_with_lo_below_hi(interval):
    with pytest.raises(geo.GeometryError, match="must be finite with lo < hi"):
        Chart(["x", "y"], box=[(-1.0, 1.0), interval])


@pytest.mark.parametrize("name", ["", "1a", "x y", "exp"])
def test_chart_rejects_a_name_the_parser_cannot_read_back(name):
    with pytest.raises(geo.GeometryError, match="not an identifier the expression parser reads"):
        Chart([name, "y"])


def test_killing_bracket_plan_shares_nodes():
    # [g^-1, g^-1 K] for K = g: a tree of 53,068 nodes over 382 distinct
    # structures, each one interned object (978 objects without interning)
    g = SymFormField.from_dict(R2, 2, {(0, 0): "2 + 0.1*x", (0, 1): "0.2", (1, 1): "2 - 0.3*y"})
    ginv = invert_metric(g)
    bracket = schouten(levi_civita(g), ginv, raise_indices(ginv, g))
    assert len(bracket.plan()) <= 382
    assert bracket.plan() is bracket.plan()
    assert bracket.residual_on() <= 1e-9
    p = R2.sample_points()[3]
    one_by_one = [ex.Plan([e]).values(p)[0] for e in bracket.comps.flat]
    assert bracket.evaluate(p).ravel().tolist() == one_by_one


def test_contracting_a_one_form_into_a_function_gives_the_zero_function():
    out = contract(form1(R2, "x", "1"), SymTensorField.from_dict(R2, 0, {(): "x * y"}))
    assert type(out) is SymTensorField and out.degree == 0
    assert ex.is_structural_zero(out.comps[()])


def test_raising_the_indices_of_a_function_keeps_it():
    ginv = SymTensorField.from_dict(R2, 2, {(0, 0): "1", (1, 1): "x"})
    f = SymFormField.from_dict(R2, 0, {(): "x^2"})
    raised = raise_indices(ginv, f)
    assert type(raised) is SymTensorField and raised.degree == 0
    assert raised.comps[()] is f.comps[()]


# ---------------------------------------------------------------------------
# guards: arguments no operation is defined on
# ---------------------------------------------------------------------------

_X, _BI = vec(R2, "x", "y"), SymTensorField.from_dict(R2, 2, {(0, 1): "x"})
_A1, _F2 = form1(R2, "x", "1"), SymFormField.from_dict(R2, 2, {(0, 1): "x"})

GUARDS = {
    "no coordinate": (lambda: Chart([]), "chart needs at least one coordinate"),
    "repeated name": (lambda: Chart(["x", "x"]), "coordinate names must be distinct"),
    "degree 5": (lambda: SymTensorField(R2, 5, np.empty((2,) * 5, dtype=object)),
                 "degree 5 outside supported range 0..4"),
    "component shape": (lambda: SymTensorField(R2, 2, np.empty((2,), dtype=object)),
                        "component array has shape (2,), expected (2, 2)"),
    "vector plus form": (lambda: _X + _A1, "cannot mix covariant and contravariant fields"),
    "vector plus bivector": (lambda: _X + _BI, "degree mismatch"),
    "gamma shape": (lambda: Connection(R2, np.empty((2, 2), dtype=object)), "gamma must have shape (2, 2, 2)"),
    "product of kinds": (lambda: sym_product(_X, _A1), "cannot multiply covariant with contravariant"),
    "contract kinds": (lambda: contract(_X, _BI), "contract expects (form, tensor) or (vector, form)"),
    "contract degree": (lambda: contract(_F2, _BI), "first argument must have degree 1"),
    "lie bracket": (lambda: lie_bracket(_BI, _X), "lie bracket is defined on vector fields"),
    "symmetric bracket": (lambda: symmetric_bracket(euclidean(R2), _BI, _X),
                          "symmetric bracket is defined on vector fields"),
    "along": (lambda: covariant_derivative(euclidean(R2), _X).along(_BI), "direction must be a vector field"),
    "bracket of scalars": (lambda: anticommutative_schouten(SymTensorField.zero(R2, 0), SymTensorField.zero(R2, 0)),
                           "bracket needs total degree at least 1"),
    "bracket over the cap": (lambda: anticommutative_schouten(SymTensorField.zero(R2, 3), SymTensorField.zero(R2, 3)),
                             "bracket degree 5 exceeds cap 4"),
    "no factor": (lambda: schouten_decomposable(euclidean(R2), [], [_X]), "need at least one factor on each side"),
    "invert a 1-form": (lambda: invert_metric(_A1), "inversion expects a degree-2 field"),
}


@pytest.mark.parametrize("case", GUARDS)
def test_a_guard_refuses_an_argument_no_operation_is_defined_on(case):
    build, message = GUARDS[case]
    with pytest.raises(geo.GeometryError) as err:
        build()
    assert str(err.value) == message


def test_adding_a_number_to_a_field_is_a_type_error():
    with pytest.raises(TypeError) as err:
        _X + 1
    assert str(err.value) == "unsupported operand 1"
