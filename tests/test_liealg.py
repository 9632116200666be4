import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from sympoisson.liealg import (
    LeftInvariantSymTensor,
    LieAlgebra,
    LieAlgebraError,
    aff1xR_parallelizing_connection,
    algebra,
    left_invariant_connection,
    li_covariant_derivative,
    li_curvature_general,
    li_curvature_weitzenboeck,
    li_is_involutive,
    li_is_parallel,
    li_is_strong,
    li_is_symmetric_poisson,
    li_levi_civita,
    li_symmetric_bracket,
    su2_flow,
    su2_flow_closed_form_i,
    su2_flow_matrix,
    weitzenboeck0,
)

F = Fraction


def tensor(dim, entries):
    return LeftInvariantSymTensor.from_dict(dim, 2, entries)


# ---------------------------------------------------------------------------
# algebras and the halved-bracket connection
# ---------------------------------------------------------------------------

def test_algebra_catalog():
    assert algebra("abelian_4").dim == 4
    assert algebra("so3").bracket([1, 0, 0], [0, 1, 0]) == (F(0), F(0), F(1))
    assert algebra("aff1").bracket([1, 0], [0, 1]) == (F(0), F(1))
    assert algebra("heisenberg3").bracket([1, 0, 0], [0, 1, 0]) == (F(0), F(0), F(1))
    with pytest.raises(KeyError):
        algebra("nope")


def test_jacobi_identity_enforced():
    with pytest.raises(LieAlgebraError):
        # [e1,e2]=e3, [e1,e3]=e1 violates Jacobi
        LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})


def test_constants_must_be_antisymmetric_and_vectors_match_the_dimension():
    with pytest.raises(LieAlgebraError, match=r"not antisymmetric at \(k,i,j\)=\(0,0,1\)"):
        LieAlgebra(2, [[[0, 1], [1, 0]], [[0, 0], [0, 0]]])
    with pytest.raises(LieAlgebraError, match="dimension mismatch"):
        algebra("so3").bracket([1, 0], [0, 1, 0])


def test_a_theta_entry_must_name_a_component():
    with pytest.raises(LieAlgebraError, match="names no entry"):
        LeftInvariantSymTensor.from_dict(3, 2, {(0,): 1})  # not a whole row of ones
    with pytest.raises(LieAlgebraError, match="names no entry"):
        LeftInvariantSymTensor.from_dict(3, 2, {(0, 3): 1})


def test_a_connection_entry_must_name_a_coefficient():
    g = algebra("so3")
    with pytest.raises(LieAlgebraError, match="names no entry"):
        left_invariant_connection(g, {(-1, 0, 1): 1})  # not written to a[2][0][1]
    with pytest.raises(LieAlgebraError, match="names no entry"):
        left_invariant_connection(g, {(3, 0, 0): 1})
    with pytest.raises(LieAlgebraError, match="names no entry"):
        left_invariant_connection(g, {(0, 1): 1})


def test_levi_civita_refuses_a_metric_that_is_not_symmetric():
    g = algebra("so3")
    with pytest.raises(LieAlgebraError, match="metric not symmetric"):
        li_levi_civita(g, [[2, 1, 0], [0, 2, 0], [0, 0, 2]])
    with pytest.raises(LieAlgebraError, match="expected shape"):
        li_levi_civita(g, [[2, 0], [0, 2]])


def test_weitzenboeck0_abelian():
    conn = weitzenboeck0(algebra("abelian_3"))
    assert all(
        conn.a[k][i][j] == 0 for k in range(3) for i in range(3) for j in range(3)
    )
    assert conn.is_torsion_free()


def test_weitzenboeck0_so3():
    conn = weitzenboeck0(algebra("so3"))
    assert conn.a[2][0][1] == F(1, 2)  # nabla_{X1} X2 = X3/2
    assert conn.is_torsion_free()


def test_li_symmetric_bracket_vanishes_for_weitzenboeck():
    for ident in ["so3", "aff1", "heisenberg3", "aff1xR"]:
        conn = weitzenboeck0(algebra(ident))
        d = conn.dim
        for i in range(d):
            for j in range(d):
                assert li_symmetric_bracket(conn, i, j) == (F(0),) * d


def test_li_covariant_derivative_so3():
    # theta = X1 x X1 + X2 x X2: nabla_1 theta = (1/2)(X3 . X2)
    g = algebra("so3")
    conn = weitzenboeck0(g)
    theta = tensor(3, {(0, 0): 1, (1, 1): 1})
    d1 = li_covariant_derivative(conn, theta, 0)
    expected = tensor(3, {(1, 2): F(1, 2)})
    assert (d1 - expected).is_zero()
    assert not d1.is_zero()


def test_li_covariant_derivative_abelian():
    conn = weitzenboeck0(algebra("abelian_3"))
    theta = tensor(3, {(0, 1): 2, (2, 2): -1})
    for i in range(3):
        assert li_covariant_derivative(conn, theta, i).is_zero()
    assert li_is_parallel(theta, conn)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def test_so3_verdicts():
    g = algebra("so3")
    conn = weitzenboeck0(g)
    theta = tensor(3, {(0, 0): 1, (1, 1): 1})
    assert li_is_symmetric_poisson(theta, conn)
    assert not li_is_strong(theta, conn)
    assert not li_is_involutive(theta, g)  # [X1, X2] = X3 leaves the span


def test_aff1_strong_iff_determinant_vanishes():
    g = algebra("aff1")
    conn = weitzenboeck0(g)
    cases = [
        (1, 0, 0), (0, 0, 1), (1, 2, 4), (1, 1, 1), (2, 2, 2),
        (1, 1, 2), (0, 1, 0), (3, -3, 3), (4, 2, 1),
    ]
    for l1, l2, l3 in cases:
        theta = tensor(2, {(0, 0): l1, (0, 1): l2, (1, 1): l3})
        assert li_is_symmetric_poisson(theta, conn)
        assert li_is_strong(theta, conn) == (l1 * l3 - l2 * l2 == 0)
        # parallel only when theta = 0
        assert li_is_parallel(theta, conn) == (l1 == l2 == l3 == 0)


def test_su2_round_metric_strong():
    g = algebra("su2")
    conn = weitzenboeck0(g)
    # inverse of the bi-invariant metric 2*I is I/2: any multiple of the
    # identity is strong here
    theta = tensor(3, {(0, 0): F(1, 2), (1, 1): F(1, 2), (2, 2): F(1, 2)})
    assert li_is_strong(theta, conn)
    assert li_is_involutive(theta, g)
    # the halved bracket is the Levi-Civita connection of the metric 2*I
    metric = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    lc = li_levi_civita(g, metric)
    assert np.array_equal(lc.a, conn.a)


def test_aff1xR_involutive_not_strong_with_halved_bracket():
    g = algebra("aff1xR")
    conn = weitzenboeck0(g)
    theta = tensor(3, {(0, 1): 1})  # X . Y
    assert li_is_symmetric_poisson(theta, conn)
    assert not li_is_strong(theta, conn)
    assert li_is_involutive(theta, g)
    # nabla^0_X theta = theta/2
    d0 = li_covariant_derivative(conn, theta, 0)
    assert (d0 - theta.scale(F(1, 2))).is_zero()


def test_aff1xR_custom_connection_parallel():
    g = algebra("aff1xR")
    conn = aff1xR_parallelizing_connection()
    assert conn.is_torsion_free()
    theta = tensor(3, {(0, 1): 1})
    assert li_is_parallel(theta, conn)
    assert li_is_strong(theta, conn)
    assert li_is_symmetric_poisson(theta, conn)


def test_left_invariant_always_integrable_battery():
    rng = np.random.default_rng(13)
    algebras = [algebra(i) for i in ["so3", "aff1", "aff1xR", "heisenberg3", "abelian_2"]]
    count = 0
    for _ in range(200):
        g = algebras[int(rng.integers(0, len(algebras)))]
        d = g.dim
        entries = {}
        for _ in range(d):
            i, j = rng.integers(0, d, size=2)
            entries[(int(min(i, j)), int(max(i, j)))] = int(rng.integers(-3, 4))
        theta = tensor(d, entries)
        conn = weitzenboeck0(g)
        assert li_is_symmetric_poisson(theta, conn)
        if li_is_strong(theta, conn):
            assert li_is_involutive(theta, g)
            count += 1
    assert count >= 10  # abelian and degenerate cases must appear


def test_torsion_enforced():
    g = algebra("aff1")
    bad = left_invariant_connection(g, {})  # zero connection has torsion here
    theta = tensor(2, {(0, 0): 1})
    with pytest.raises(LieAlgebraError):
        li_is_strong(theta, bad)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def test_curvature_abelian_zero():
    g = algebra("abelian_3")
    for i, j, k in [(0, 1, 2), (1, 2, 0)]:
        assert li_curvature_weitzenboeck(g, i, j, k) == (F(0),) * 3


def test_curvature_heisenberg_flat():
    g = algebra("heisenberg3")
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert li_curvature_weitzenboeck(g, i, j, k) == (F(0),) * 3


def test_curvature_so3():
    g = algebra("so3")
    # [[X1,X2],X1] = [X3,X1] = X2, so R(X1,X2)X1 = -X2/4
    assert li_curvature_weitzenboeck(g, 0, 1, 0) == (F(0), F(-1, 4), F(0))


def test_curvature_formulas_agree():
    for ident in ["so3", "aff1", "aff1xR", "heisenberg3"]:
        g = algebra(ident)
        conn = weitzenboeck0(g)
        d = g.dim
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    assert li_curvature_weitzenboeck(g, i, j, k) == li_curvature_general(
                        conn, i, j, k
                    )


# ---------------------------------------------------------------------------
# unit-quaternion flow
# ---------------------------------------------------------------------------

def test_su2_flow_closed_form():
    q0 = np.array([0.5, 0.5, 0.5, 0.5])
    t = math.pi / 3
    got = su2_flow(1.0, 0.0, 0.0, q0, t)
    assert np.abs(got - su2_flow_closed_form_i(q0, t)).max() <= 1e-8


def test_su2_flow_identity_at_zero():
    q0 = np.array([1.0, 0.0, 0.0, 0.0])
    got = su2_flow(0.7, -0.3, 0.2, q0, 0.0)
    assert np.allclose(got, q0)


def test_su2_flow_matches_matrix_exponential():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, b, c = rng.uniform(-1, 1, size=3)
        q0 = rng.normal(size=4)
        q0 /= np.linalg.norm(q0)
        t = float(rng.uniform(0.2, 2.5))
        oracle = expm(t * su2_flow_matrix(a, b, c)) @ q0
        got = su2_flow(a, b, c, q0, t)
        assert np.abs(got - oracle).max() <= 1e-8


def test_su2_flow_norm_preserved_long_run():
    q0 = np.array([0.5, -0.5, 0.5, -0.5])
    got = su2_flow(0.4, 0.9, -0.2, q0, 4 * math.pi)
    assert abs(np.linalg.norm(got) - 1.0) <= 1e-10


def test_su2_flow_requires_unit_vector():
    with pytest.raises(LieAlgebraError):
        su2_flow(1.0, 0.0, 0.0, np.array([1.0, 1.0, 0.0, 0.0]), 1.0)


def test_hopf_great_circle():
    # the (1,0,0) flow traces a great circle through any starting point
    q0 = np.array([1.0, 0.0, 0.0, 0.0])
    quarter = su2_flow(1.0, 0.0, 0.0, q0, math.pi / 2)
    assert np.allclose(quarter, [0.0, 1.0, 0.0, 0.0], atol=1e-9)
    full = su2_flow(1.0, 0.0, 0.0, q0, 2 * math.pi)
    assert np.allclose(full, q0, atol=1e-8)


# ---------------------------------------------------------------------------
# chart export
# ---------------------------------------------------------------------------

def test_chart_export_heisenberg_frame_brackets():
    from sympoisson.geometry import curvature, lie_bracket
    from sympoisson.liealg import chart_export, polynomial_frame
    from sympoisson.poisson import is_symmetric_poisson

    g = algebra("heisenberg3")
    chart, frame = polynomial_frame("heisenberg3")
    # the frame realizes the bracket table
    e12 = lie_bracket(frame[0], frame[1])
    assert (e12 - frame[2]).residual_on() == 0.0
    conn = weitzenboeck0(g)
    theta = tensor(3, {(0, 0): 1, (1, 2): 1})
    pair = chart_export(g, conn, theta, chart, frame)
    assert pair.nabla.is_torsion_free()
    # the halved bracket of a 2-step nilpotent algebra is flat
    assert curvature(pair.nabla).is_zero_on()
    assert is_symmetric_poisson(pair)


def test_chart_export_refuses_a_frame_of_another_dimension():
    from sympoisson.liealg import chart_export, polynomial_frame

    g = algebra("heisenberg3")
    chart, _ = polynomial_frame("heisenberg3")
    with pytest.raises(LieAlgebraError, match="^frame must match the algebra dimension$"):
        chart_export(g, weitzenboeck0(g), LeftInvariantSymTensor.from_dict(3, 2, {(0, 0): 1}), chart, [])


def test_chart_export_aff1xR_matches_algebraic_verdicts():
    from sympoisson.liealg import chart_export, polynomial_frame
    from sympoisson.poisson import (
        Involutivity,
        involutivity_check,
        is_parallel,
        is_strong,
        is_symmetric_poisson,
    )

    g = algebra("aff1xR")
    chart, frame = polynomial_frame("aff1xR")
    theta = tensor(3, {(0, 1): 1})

    pair0 = chart_export(g, weitzenboeck0(g), theta, chart, frame)
    assert is_symmetric_poisson(pair0)
    assert not is_strong(pair0)
    assert involutivity_check(pair0).verdict == Involutivity.INVOLUTIVE_ON_SAMPLES

    custom = aff1xR_parallelizing_connection()
    pair1 = chart_export(g, custom, theta, chart, frame)
    assert is_parallel(pair1)
    assert is_strong(pair1)


def test_chart_export_aff1_strong_condition():
    from sympoisson.liealg import chart_export, polynomial_frame
    from sympoisson.poisson import is_strong, is_symmetric_poisson

    g = algebra("aff1")
    chart, frame = polynomial_frame("aff1")
    conn = weitzenboeck0(g)
    degenerate = tensor(2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})  # det = 0
    nondeg = tensor(2, {(0, 0): 1, (1, 1): 1})
    pair_d = chart_export(g, conn, degenerate, chart, frame)
    pair_n = chart_export(g, conn, nondeg, chart, frame)
    assert is_symmetric_poisson(pair_d) and is_strong(pair_d)
    assert is_symmetric_poisson(pair_n) and not is_strong(pair_n)


def test_polynomial_frame_unknown():
    from sympoisson.liealg import polynomial_frame

    with pytest.raises(KeyError):
        polynomial_frame("so3")


def test_left_invariant_tensors_add_componentwise():
    t = LeftInvariantSymTensor.from_dict(2, 2, {(0, 1): 1})
    assert np.array_equal((t + t).comps, LeftInvariantSymTensor.from_dict(2, 2, {(0, 1): 2}).comps)
