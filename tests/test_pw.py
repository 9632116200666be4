import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

import reference
from test_geodesic_table import CATALOG, INTEGRATED, STRUCTURES
from reference import eval_scaled
from sympoisson import cli, registry
from sympoisson import expr as ex
from sympoisson.geometry import (
    Chart,
    ChartMismatchError,
    Connection,
    SymFormField,
    SymTensorField,
    anticommutative_schouten,
    schouten,
    sym_product,
)
from sympoisson.poisson import SymPoissonPair
from sympoisson.pw import (
    BlowUpError,
    CotangentState,
    DynamicsError,
    PhaseField,
    TrajectoryError,
    base_lift,
    canonical_bracket,
    check_locally_geodesically_invariant,
    geodesic_residual_along,
    hamiltonian_vector_field,
    integrate_geodesic,
    integrate_pw,
    monitor_geodesic_residual,
    monitor_speed_square,
    pw_bracket,
    pw_gradient,
    pw_metric_matrix,
    run_newtonian,
    speed_square_field,
    trajectory_to_csv,
    vertical_lift,
)

R2 = Chart(["x", "y"])


def vec(chart, *entries):
    return SymTensorField.from_dict(chart, 1, {(i,): e for i, e in enumerate(entries)})


def rand_states(chart, count, seed=17, scale=1.0):
    rng = np.random.default_rng(seed)
    n = chart.n
    return [
        CotangentState(tuple(rng.uniform(-1, 1, n) * scale), tuple(rng.uniform(-1, 1, n) * scale))
        for _ in range(count)
    ]


def phase_zero(chart, f: PhaseField, states, tol=1e-9):
    worst = 0.0
    for s in states:
        v, scale = eval_scaled(f.f.expr, s.flat())
        worst = max(worst, abs(v) / (1.0 + scale))
    return worst <= tol


# ---------------------------------------------------------------------------
# metric matrix
# ---------------------------------------------------------------------------

def test_metric_matrix_flat():
    conn = Connection.euclidean(R2)
    m = pw_metric_matrix(conn, CotangentState((0.3, -0.2), (1.0, 2.0)))
    expected = np.zeros((4, 4))
    expected[:2, 2:] = np.eye(2)
    expected[2:, :2] = np.eye(2)
    assert np.array_equal(m, expected)


def test_metric_matrix_curved_block():
    # xx block is -2 p_k G^k_{ij}; at x = 0 with p = (1, 1) the only
    # nonvanishing Christoffels G^x_{xy} = G^y_{xy} = 1 give entries -4
    conn = registry.kill_connection(R2)
    m = pw_metric_matrix(conn, CotangentState((0.0, 0.0), (1.0, 1.0)))
    xx = m[:2, :2]
    assert np.allclose(xx, np.array([[0.0, -4.0], [-4.0, 0.0]]))
    assert np.allclose(m[:2, 2:], np.eye(2))
    assert np.allclose(m, m.T)


def test_metric_matrix_split_signature():
    conn = registry.kill_connection(R2)
    for s in rand_states(R2, 20):
        lam = np.linalg.eigvalsh(pw_metric_matrix(conn, s))
        assert (lam > 0).sum() == 2 and (lam < 0).sum() == 2


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

def test_pw_bracket_flat():
    conn = Connection.euclidean(R2)
    f = PhaseField.parse(R2, "x * p1^2")
    g = PhaseField.parse(R2, "y + p2")
    out = pw_bracket(conn, f, g)
    n = R2.n
    states = rand_states(R2, 15)
    for s in states:
        v = s.flat()
        expected = sum(
            f.diff(i)(v) * g.diff(n + i)(v) + f.diff(n + i)(v) * g.diff(i)(v)
            for i in range(n)
        )
        assert out(v) == pytest.approx(expected, rel=1e-13)


def test_pw_bracket_vertical_functions_vanish():
    conn = registry.kill_connection(R2)
    f = base_lift(R2, R2.parse("exp(x)*y"))
    g = base_lift(R2, R2.parse("x^2 - y"))
    out = pw_bracket(conn, f, g)
    assert phase_zero(R2, out, rand_states(R2, 20))


def test_pw_bracket_on_lifted_vectors_is_symmetric_bracket():
    conn = registry.kill_connection(R2)
    x = vec(R2, "x*y", "1")
    y = vec(R2, "exp(y)", "x")
    lhs = pw_bracket(conn, vertical_lift(x), vertical_lift(y))
    from sympoisson.geometry import symmetric_bracket

    rhs = vertical_lift(symmetric_bracket(conn, x, y))
    diff = lhs - rhs
    assert phase_zero(R2, diff, rand_states(R2, 25))


def test_pw_bracket_matches_inverse_metric():
    conn = registry.kill_connection(R2)
    f = PhaseField.parse(R2, "x*p1 + y^2*p2")
    g = PhaseField.parse(R2, "p1*p2 + x")
    out = pw_bracket(conn, f, g)
    n = R2.n
    for s in rand_states(R2, 20):
        v = s.flat()
        gm = pw_metric_matrix(conn, s)
        df = np.array([f.diff(i)(v) for i in range(2 * n)])
        dg = np.array([g.diff(i)(v) for i in range(2 * n)])
        expected = df @ np.linalg.solve(gm, dg)
        assert out(v) == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_canonical_bracket_basics():
    f = PhaseField.parse(R2, "x")
    g = PhaseField.parse(R2, "p1")
    assert canonical_bracket(f, g)((0.2, 0.3, 0.5, 0.7)) == 1.0
    h = PhaseField.parse(R2, "x*p2^2 + y")
    assert phase_zero(R2, canonical_bracket(h, h), rand_states(R2, 10))


def test_vertical_lift_shapes():
    f = R2.parse("x + y^2")
    assert base_lift(R2, f)((0.5, 1.0, 9.0, 9.0)) == 1.5
    x = vec(R2, "2", "x")
    assert vertical_lift(x)((1.0, 0.0, 0.25, 3.0)) == pytest.approx(2 * 0.25 + 1 * 3.0)
    theta = SymTensorField.from_dict(R2, 2, {(0, 0): "1", (0, 1): "x"})
    lifted = vertical_lift(theta)
    # (1/2) theta^{ij} p_i p_j with theta = [[1, x], [x, 0]]
    assert lifted((2.0, 0.0, 3.0, 5.0)) == pytest.approx(0.5 * 9.0 + 2.0 * 15.0)


def test_vertical_lift_is_schouten_morphism():
    conn = registry.kill_connection(R2)
    rng = np.random.default_rng(5)

    def rand_field(degree):
        if degree == 1:
            return _rand_vec(rng)
        return sym_product(_rand_vec(rng), _rand_vec(rng))

    states = rand_states(R2, 25)
    for da, db in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        a, b = rand_field(da), rand_field(db)
        lhs = vertical_lift(schouten(conn, a, b))
        rhs = pw_bracket(conn, vertical_lift(a), vertical_lift(b))
        assert phase_zero(R2, lhs - rhs, states)


def test_vertical_lift_canonical_morphism():
    rng = np.random.default_rng(6)
    states = rand_states(R2, 25)
    for _ in range(4):
        a = sym_product(_rand_vec(rng), _rand_vec(rng))
        b = _rand_vec(rng)
        lhs = vertical_lift(anticommutative_schouten(a, b))
        rhs = canonical_bracket(vertical_lift(a), vertical_lift(b))
        # lifted bracket equals minus the canonical bracket of the lifts
        assert phase_zero(R2, lhs + rhs, states)


def _rand_vec(rng):
    def poly():
        c = rng.integers(-2, 3, size=4)
        return f"{c[0]} + {c[1]}*x + {c[2]}*y + {c[3]}*x*y"

    return vec(R2, poly(), poly())


# ---------------------------------------------------------------------------
# gradient flow
# ---------------------------------------------------------------------------

def test_pw_gradient_flat_kinetic():
    conn = Connection.euclidean(R2)
    h = PhaseField.parse(R2, "(p1^2 + p2^2) / 2")
    grad = pw_gradient(conn, h)
    v = (0.1, 0.2, 0.7, -0.4)
    assert [g(v) for g in grad] == pytest.approx([0.7, -0.4, 0.0, 0.0])


def test_pw_gradient_linear_hamiltonian_base_component():
    conn = registry.kill_connection(R2)
    x = vec(R2, "y", "x^2")
    grad = pw_gradient(conn, vertical_lift(x))
    for s in rand_states(R2, 10):
        v = s.flat()
        assert grad[0](v) == pytest.approx(s.x[1])
        assert grad[1](v) == pytest.approx(s.x[0] ** 2)


def test_pw_gradient_metric_duality():
    # g(grad H, .) = dH at random states
    conn = registry.kill_connection(R2)
    h = PhaseField.parse(R2, "x*p1^2 + y*p2 + exp(y)")
    grad = pw_gradient(conn, h)
    n = R2.n
    for s in rand_states(R2, 15):
        v = s.flat()
        gm = pw_metric_matrix(conn, s)
        gv = np.array([g(v) for g in grad])
        dh = np.array([h.diff(i)(v) for i in range(2 * n)])
        assert np.allclose(gm @ gv, dh, rtol=1e-10, atol=1e-10)


def test_gradient_plus_hamiltonian_is_vertical():
    # grad H + Ham H must have no horizontal part; with Ham = (-H_p, H_x)
    # the x block cancels and the p block doubles the vertical projection
    conn = registry.kill_connection(R2)
    h = PhaseField.parse(R2, "x*y*p1 + p2^2 + x^3")
    grad = pw_gradient(conn, h)
    ham = hamiltonian_vector_field(h)
    n = R2.n
    for s in rand_states(R2, 15):
        v = s.flat()
        w = np.array([g(v) for g in grad]) - np.array([g(v) for g in ham])
        # minus: ham returns (H_p, -H_x); the flow decomposition uses its negative
        w2 = np.array([g(v) for g in grad]) + np.array(
            [-ham[i](v) for i in range(n)] + [-ham[n + i](v) for i in range(n)]
        )
        assert np.allclose(w2[:n], 0.0, atol=1e-12)
        gamma = conn.gamma_at(s.x)
        vert_of_ham = np.array(
            [
                -ham[n + j](v)
                - sum(s.p[k] * gamma[k, i, j] * (-ham[i](v)) for i in range(n) for k in range(n))
                for j in range(n)
            ]
        )
        assert np.allclose(w2[n:], 2.0 * vert_of_ham, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("ident", [f"file:{name}" for name in INTEGRATED] + list(CATALOG))
def test_the_gradient_is_the_dense_products_node_for_node(ident):
    # the vertical lift; -1.5 (p_1 + ... + p_n), where a zero Gamma's product
    # is 0.0 * -1.5 = -0.0; and inf * p_1, where it is 0.0 * inf = NaN, which
    # the sum keeps
    if ident.startswith("file:"):
        pair = cli.load_structure(str(STRUCTURES / f"{ident[5:]}.ini")).pair
    else:
        pair = CATALOG[ident]
    n = pair.chart.n
    linear = ex.neg(ex.expr_sum([ex.mul(ex.const(1.5), ex.var(n + i)) for i in range(n)]))
    infinite = ex.mul(ex.const(math.inf), ex.var(n))
    for h in (vertical_lift(pair.theta), *(PhaseField.from_expr(pair.chart, e) for e in (linear, infinite))):
        got = [f.expr for f in pw_gradient(pair.nabla, h)]
        want = reference.pw_gradient_dense(pair.nabla.gamma, h)
        assert len(got) == len(want) == 2 * n
        assert all(a is b for a, b in zip(got, want)), ident


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_integrate_flat_kinetic_linear_flow():
    conn = Connection.euclidean(R2)
    h = PhaseField.parse(R2, "(p1^2 + p2^2) / 2")
    s0 = CotangentState((0.0, 1.0), (0.5, -0.25))
    traj = integrate_pw(conn, h, s0, dt=1e-3, steps=1000)
    t = 1.0
    assert np.allclose(traj.xs[-1], [0.0 + 0.5 * t, 1.0 - 0.25 * t], atol=1e-10)
    assert np.allclose(traj.ps[-1], [0.5, -0.25], atol=1e-12)
    assert traj.channel_drift("hamiltonian") <= 1e-12


def test_integrate_autoparallel_linear_hamiltonian_pairing():
    # H = lift of X with nabla_X X = 0: the pairing p(xdot) stays constant
    chart = registry._punctured_chart()
    conn = registry.rotation_connection(chart, +1.0)
    x = vec(chart, "-y", "x")
    h = vertical_lift(x)
    s0 = CotangentState((1.0, 0.0), (0.3, 0.8))
    traj = integrate_pw(conn, h, s0, dt=1e-3, steps=1000)
    pairing = np.einsum("ki,ki->k", traj.ps, traj.velocities)
    assert np.abs(pairing - pairing[0]).max() <= 1e-8


def test_integrate_bivector_hamiltonian_conserved():
    pair = registry.build("nondeg_kill")
    h = vertical_lift(pair.theta)
    s0 = CotangentState((0.1, -0.2), (0.8, 0.4))
    traj = integrate_pw(pair.nabla, h, s0, dt=1e-3, steps=1000)
    assert traj.channel_drift("hamiltonian") <= 1e-8


def test_blow_up_reports_step_and_partial():
    line = Chart(["x"])
    conn = Connection.euclidean(line)
    # xdot = x^2 p^2 style growth: guaranteed finite-time escape
    h = PhaseField.parse(line, "x^2 * p1^2")
    with pytest.raises(BlowUpError) as err:
        integrate_pw(conn, h, CotangentState((2.0,), (2.0,)), dt=0.05, steps=2000)
    assert err.value.step >= 1
    assert len(err.value.trajectory.xs) == err.value.step


def test_domain_error_is_not_a_blow_up():
    line = Chart(["x"])
    h = PhaseField.parse(line, "0.5*p1^2 + ln(x)")
    # the second RK4 stage lands on x = 0, where H_x = 1/x
    with pytest.raises(TrajectoryError) as err:
        integrate_pw(Connection.euclidean(line), h, CotangentState((0.001,), (-2.0,)), dt=1e-3, steps=10)
    assert not isinstance(err.value, BlowUpError)
    assert str(err.value) == "division by zero in subterm '1 / x' at step 1"
    assert err.value.step == 1
    assert len(err.value.trajectory.xs) == 1


def test_monitor_domain_error_at_the_first_state():
    line = Chart(["x"])
    h = PhaseField.parse(line, "p1")
    log = {"log": PhaseField.parse(line, "ln(x)")}
    with pytest.raises(TrajectoryError) as err:
        integrate_pw(Connection.euclidean(line), h, CotangentState((-1.0,), (0.0,)), steps=5, extra_monitors=log)
    assert str(err.value) == "ln of a non-positive argument in subterm 'ln(x)' at step 0"
    assert trajectory_to_csv(err.value.trajectory) == "t,x1,p1,hamiltonian,log\n"


def test_overflow_is_a_blow_up_naming_the_subterm():
    line = Chart(["x"])
    h = PhaseField.parse(line, "0.5*p1^2 + x^4")
    with pytest.raises(BlowUpError) as err:
        integrate_pw(Connection.euclidean(line), h, CotangentState((100.0,), (1e30,)), dt=1e-3, steps=10)
    assert str(err.value).startswith(f"trajectory blew up at step {err.value.step}: overflow in subterm")
    assert len(err.value.trajectory.xs) == err.value.step


def test_geodesic_domain_error_names_the_step():
    line = Chart(["x"])
    conn = Connection.from_dict(line, {(0, 0, 0): "1/x"})
    with pytest.raises(TrajectoryError) as err:
        integrate_geodesic(conn, (0.0,), (1.0,), dt=1e-3, steps=10)
    assert str(err.value) == "division by zero in subterm '1 / x' at step 1"
    assert len(err.value.trajectory.xs) == 1


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
def test_step_size_must_be_finite_and_positive(dt):
    from sympoisson.pw import DynamicsError

    line = Chart(["x"])
    conn = Connection.euclidean(line)
    with pytest.raises(DynamicsError, match="finite dt > 0"):
        integrate_pw(conn, PhaseField.parse(line, "p1"), CotangentState((0.0,), (1.0,)), dt=dt, steps=3)
    with pytest.raises(DynamicsError, match="finite dt > 0"):
        integrate_geodesic(conn, (0.0,), (1.0,), dt=dt, steps=3)


def test_integrate_geodesic_straight_lines():
    conn = Connection.euclidean(R2)
    traj = integrate_geodesic(conn, (0.0, 0.0), (1.0, 2.0), dt=1e-3, steps=500)
    assert np.allclose(traj.xs[-1], [0.5, 1.0], atol=1e-12)
    assert np.allclose(traj.velocities[-1], [1.0, 2.0], atol=1e-12)


def test_integrate_geodesic_circle():
    # rotation-invariant connection: the unit circle is a geodesic
    chart = registry._punctured_chart()
    conn = registry.rotation_connection(chart, +1.0)
    steps = int(round(2 * math.pi / 1e-3))
    traj = integrate_geodesic(conn, (1.0, 0.0), (0.0, 1.0), dt=1e-3, steps=steps)
    radii = np.linalg.norm(traj.xs, axis=1)
    assert np.abs(radii - 1.0).max() <= 1e-6
    t = traj.times
    exact = np.stack([np.cos(t), np.sin(t)], axis=1)
    assert np.linalg.norm(traj.xs - exact, axis=1).max() <= 1e-6


def test_geodesic_self_residual():
    # residual is dominated by finite-difference truncation ~ dt^2/6 |v'''|
    chart = registry._punctured_chart()
    conn = registry.rotation_connection(chart, +1.0)
    traj = integrate_geodesic(conn, (1.0, 0.0), (0.0, 1.0), dt=5e-4, steps=2000)
    res = geodesic_residual_along(conn, traj)
    assert res[1:-1].max() <= 1e-7


def test_geodesic_residual_along_is_the_monitor_for_zero_theta():
    # one defect routine: with theta = 0 the bracket side drops out exactly
    chart = registry._punctured_chart()
    conn = registry.rotation_connection(chart, +1.0)
    traj = integrate_geodesic(conn, (1.0, 0.0), (0.0, 1.0), dt=1e-3, steps=300)
    pair = SymPoissonPair(SymTensorField.zero(chart, 2), conn)
    res = geodesic_residual_along(conn, traj)
    assert res.shape == (len(traj.xs) - 2,)
    assert res.tobytes() == monitor_geodesic_residual(pair, traj).tobytes()


def test_geodesic_residual_along_needs_three_states():
    chart = registry._punctured_chart()
    conn = registry.rotation_connection(chart, +1.0)
    traj = integrate_geodesic(conn, (1.0, 0.0), (0.0, 1.0), dt=1e-3, steps=1)
    with pytest.raises(DynamicsError, match="at least 3 stored states"):
        geodesic_residual_along(conn, traj)


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------

def test_speed_square_conserved_for_integrable_pair():
    pair = registry.build("inclusion")
    h = vertical_lift(pair.theta)
    s0 = CotangentState((0.2, 0.1), (1.0, 0.5))
    traj = integrate_pw(pair.nabla, h, s0, dt=1e-3, steps=1000)
    sq = monitor_speed_square(pair, traj)
    assert np.abs(sq - sq[0]).max() <= 1e-8


def test_speed_square_zero_structure():
    pair = registry.build("zero_bivector")
    h = vertical_lift(pair.theta)
    traj = integrate_pw(pair.nabla, h, CotangentState((0.1, 0.1), (1.0, 1.0)), dt=1e-2, steps=50)
    sq = monitor_speed_square(pair, traj)
    assert np.abs(sq).max() == 0.0
    # base point never moves for the zero bivector
    assert np.allclose(traj.xs, traj.xs[0])


@pytest.mark.parametrize("ident", ["inclusion", "sing_line", "nondeg_kill"])
def test_speed_square_monitor_equals_its_integrated_channel(ident):
    pair = registry.build(ident)
    n = pair.chart.n
    s0 = CotangentState((0.3,) * n, tuple(0.5 - 0.25 * i for i in range(n)))
    traj = integrate_pw(pair.nabla, vertical_lift(pair.theta), s0, dt=1e-2, steps=100,
                        extra_monitors={"speed_sq": speed_square_field(pair)})
    assert monitor_speed_square(pair, traj).tobytes() == traj.channels["speed_sq"].tobytes()


def test_speed_square_drifts_for_non_integrable_pair():
    pair = registry.build("sing_line")
    h = vertical_lift(pair.theta)
    traj = integrate_pw(pair.nabla, h, CotangentState((1.0,), (0.5,)), dt=1e-3, steps=1000)
    sq = monitor_speed_square(pair, traj)
    assert np.abs(sq - sq[0]).max() >= 1e-3


def test_geodesic_residual_monitor_integrable():
    pair = registry.build("nondeg_kill")
    h = vertical_lift(pair.theta)
    traj = integrate_pw(pair.nabla, h, CotangentState((0.0, 0.0), (0.7, 0.3)), dt=1e-3, steps=1000)
    res = monitor_geodesic_residual(pair, traj)
    assert res.max() <= 1e-6


def test_the_geodesic_monitor_builds_no_bracket(monkeypatch):
    from sympoisson import geometry, poisson

    pair = registry.build("nondeg_kill")
    traj = integrate_pw(pair.nabla, vertical_lift(pair.theta), CotangentState((0.0, 0.0), (0.7, 0.3)), dt=1e-3, steps=20)
    want = reference.geodesic_defect_pointwise(pair.nabla, poisson.schouten_self(pair), traj)

    def refuse(*args):
        raise AssertionError("the monitor built a tree")

    for owner, name in [(geometry, "schouten"), (poisson, "schouten"), (geometry, "_trace_bracket"),
                        (geometry, "covariant_derivative"), (poisson, "covariant_derivative")]:
        monkeypatch.setattr(owner, name, refuse)
    fresh = registry.build("nondeg_kill")
    assert monitor_geodesic_residual(fresh, traj).tobytes() == want.tobytes()
    assert monitor_geodesic_residual(fresh, traj).tobytes() == want.tobytes()


def test_geodesic_residual_monitor_matches_bracket_defect():
    pair = registry.build("sing_line")
    h = vertical_lift(pair.theta)
    traj = integrate_pw(pair.nabla, h, CotangentState((1.0,), (0.5,)), dt=1e-3, steps=1000)
    res = monitor_geodesic_residual(pair, traj)
    # both sides are nonzero but must agree within finite-difference error
    assert res.max() <= 1e-5
    from sympoisson.poisson import schouten_self

    cubic = schouten_self(pair)
    k = 500
    x, p = traj.xs[k], traj.ps[k]
    rhs = 0.25 * p[0] * p[0] * cubic.evaluate(x)[0, 0, 0]
    assert abs(rhs) > 1e-3  # genuinely away from zero


def test_locally_geodesically_invariant_reports():
    flat = registry.flat_pair(2, 0)
    rep = check_locally_geodesically_invariant(flat, (0.1, 0.2), (1.0, -0.5), steps=400)
    assert rep.max_base_distance <= 1e-10
    assert rep.max_distribution_residual <= 1e-10

    plane = registry.build("plane_rank2")
    rep = check_locally_geodesically_invariant(plane, (0.0, 0.0, 0.3), (0.6, 0.2, 0.9), steps=400)
    assert rep.max_base_distance <= 1e-10
    assert rep.max_distribution_residual <= 1e-8

    r5 = registry.build("r5")
    rep = check_locally_geodesically_invariant(
        r5, (0.1, 0.2, 0.7, -0.3, 0.4), (1.0, 0.0, 0.0, 0.5, -0.2), steps=400
    )
    assert rep.max_base_distance <= 1e-6
    assert rep.max_distribution_residual <= 1e-6


def test_zero_covector_rejected():
    pair = registry.build("zero_bivector")
    with pytest.raises(Exception):
        check_locally_geodesically_invariant(pair, (0.0, 0.0), (1.0, 1.0))


# ---------------------------------------------------------------------------
# Newtonian reduction
# ---------------------------------------------------------------------------

def test_newtonian_harmonic_oscillator():
    line = Chart(["x"])
    g = SymFormField.from_dict(line, 2, {(0, 0): "1"})
    f = line.parse("x^2 / 2")
    steps = int(round(2 * math.pi / 1e-3))
    traj = run_newtonian(g, f, (1.0,), (0.0,), dt=1e-3, steps=steps)
    expected = np.cos(traj.times)
    assert np.abs(traj.xs[:, 0] - expected).max() <= 1e-6
    assert traj.channel_drift("energy") <= 1e-7


def test_newtonian_free_particle_straight():
    g = SymFormField.from_dict(R2, 2, {(0, 0): "1", (1, 1): "1"})
    f = R2.zero()
    traj = run_newtonian(g, f, (0.0, 0.0), (1.0, -1.0), dt=1e-3, steps=500)
    assert np.allclose(traj.xs[-1], [0.5, -0.5], atol=1e-10)


def test_newtonian_energy_drift_small():
    line = Chart(["x"])
    g = SymFormField.from_dict(line, 2, {(0, 0): "1"})
    f = line.parse("x^4 / 4")
    traj = run_newtonian(g, f, (1.0,), (0.2,), dt=1e-3, steps=1000)
    assert traj.channel_drift("energy") <= 1e-7


def test_rk4_order_on_oscillator():
    line = Chart(["x"])
    g = SymFormField.from_dict(line, 2, {(0, 0): "1"})
    f = line.parse("x^2 / 2")

    def max_err(dt):
        steps = int(round(2 * math.pi / dt))
        traj = run_newtonian(g, f, (1.0,), (0.0,), dt=dt, steps=steps)
        return np.abs(traj.xs[:, 0] - np.cos(traj.times)).max()

    ratio = max_err(0.05) / max_err(0.025)
    assert ratio >= 12.0


def test_parallel_transport_reduction():
    # flat-but-curvilinear connection with parallel field V = du - u dv;
    # H = lift(V) has horizontal gradient, so a is parallel along the flow
    chart = Chart(["u", "v"])
    conn = Connection.from_dict(chart, {(1, 0, 0): "1"})
    x = vec(chart, "1", "-u")
    h = vertical_lift(x)
    n = chart.n
    grad = pw_gradient(conn, h)
    # horizontality: vertical part of the gradient vanishes at random states
    for s in rand_states(chart, 10):
        v = s.flat()
        gamma = conn.gamma_at(s.x)
        vert = [
            grad[n + j](v)
            - sum(s.p[k] * gamma[k, i, j] * grad[i](v) for i in range(n) for k in range(n))
            for j in range(n)
        ]
        assert np.allclose(vert, 0.0, atol=1e-12)
    traj = integrate_pw(conn, h, CotangentState((0.2, 0.1), (0.5, -0.3)), dt=1e-3, steps=1000)
    # finite-difference covariant derivative of a along the curve
    worst = 0.0
    for k in range(1, traj.steps):
        pdot = (traj.ps[k + 1] - traj.ps[k - 1]) / (2 * traj.dt)
        gamma = conn.gamma_at(tuple(traj.xs[k]))
        cov = pdot - np.einsum("kij,i,k->j", gamma, traj.velocities[k], traj.ps[k])
        worst = max(worst, np.linalg.norm(cov))
    assert worst <= 1e-6


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_trajectory_csv_layout():
    pair = registry.build("inclusion")
    h = vertical_lift(pair.theta)
    traj = integrate_pw(
        pair.nabla,
        h,
        CotangentState((0.0, 0.0), (1.0, 0.0)),
        dt=0.1,
        steps=3,
        extra_monitors={"speed_sq": speed_square_field(pair)},
    )
    text = trajectory_to_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,x1,x2,p1,p2,hamiltonian,speed_sq"
    assert len(lines) == 5  # header + steps + 1 states
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    # full precision round trip
    assert float(first[3]) == 1.0


def test_trajectory_csv_deterministic():
    pair = registry.build("nondeg_kill")
    h = vertical_lift(pair.theta)

    def run():
        traj = integrate_pw(pair.nabla, h, CotangentState((0.1, 0.2), (0.5, -0.5)), dt=0.01, steps=20)
        return trajectory_to_csv(traj)

    assert run() == run()


def test_geodesic_residual_monitor_zero_structure():
    pair = registry.build("zero_bivector")
    h = vertical_lift(pair.theta)
    traj = integrate_pw(pair.nabla, h, CotangentState((0.2, -0.1), (1.0, 1.0)), dt=1e-2, steps=50)
    res = monitor_geodesic_residual(pair, traj)
    assert np.abs(res).max() == 0.0


# CSV digests recorded before the right-hand side became generated code; the
# flow, the monitors and the CSV formatting must keep every byte
PINNED_CSV = {
    "nondeg_kill": (
        ["--hamiltonian", "theta_v", "--x0=0.1,0.2", "--p0=0.4,-0.3"],
        "4f90f8c25ee91a4057a359aecfc90dbb2414098e3df016400a4dfd16ab277b55",
    ),
    "r5": (
        ["--x0=0.3,-0.2,0.5,0.1,-0.4", "--p0=0.2,0.6,-0.5,0.3,0.1"],
        "f9786142e4629188b06ab4d6b34ffc453a0a9dcebb01ef2d421b35a445e0b42d",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CSV))
def test_integrate_csv_bytes_are_pinned(name, tmp_path, capsys):
    extra, digest = PINNED_CSV[name]
    out = tmp_path / "run.csv"
    structure = Path(__file__).resolve().parents[1] / "structures" / f"{name}.ini"
    code = cli.main(
        ["integrate", str(structure), *extra, "--steps", "200",
         "--monitors", "hamiltonian,speed_sq,geodesic_residual", "--out", str(out)]
    )
    assert code == 0, capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_the_vertical_lift_of_a_function_is_its_base_lift():
    f = SymTensorField.from_dict(R2, 0, {(): "x * y"})
    lift = vertical_lift(f)
    assert lift.f.arity == 4
    assert lift.f.expr is base_lift(R2, f.scalar()).f.expr is ex.parse("x * y", ["x", "y"]).expr


# ---------------------------------------------------------------------------
# guards: phase fields on the wrong chart
# ---------------------------------------------------------------------------

_UV = Chart(["u", "v"])
_PHASE = PhaseField.parse(R2, "p1*x")

GUARDS = {
    "phase field arity": (lambda: PhaseField(R2, ex.parse("x1", 1)), DynamicsError, "phase field must have arity 2n"),
    "pw bracket charts": (lambda: pw_bracket(Connection.euclidean(_UV), _PHASE, _PHASE), ChartMismatchError,
                          "phase fields on a different chart"),
    "canonical bracket charts": (lambda: canonical_bracket(_PHASE, PhaseField.parse(_UV, "p1*u")),
                                 ChartMismatchError, "phase fields on different charts"),
}


@pytest.mark.parametrize("case", GUARDS)
def test_a_guard_refuses_phase_fields_it_is_not_defined_on(case):
    build, error, message = GUARDS[case]
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message
