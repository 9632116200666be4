"""The geodesic defect read from one table against the per-state loop.

`pw._geodesic_defect` evaluates Gamma and the cubic once over all interior
states (`Plan.table`).  `reference.geodesic_defect_pointwise` calls one
generated function per state instead.  Both must give the same defect bit
for bit, or stop with the same error: class, message and failing node,
met at the first failing state.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from sympoisson import expr as ex
from sympoisson import pw
from sympoisson.expr import EvalDomainError
from sympoisson.geometry import Chart, Connection, SymTensorField

LINE = Chart(["x"])
PLANE = Chart(["x", "y"])


def _trajectory(xs, dt=1e-2):
    """A trajectory with the given base points, unit-ish velocities and momenta."""
    xs = np.array(xs, dtype=float).reshape(len(xs), -1)
    steps, n = xs.shape
    grid = np.arange(steps * n, dtype=float).reshape(steps, n)
    return pw.Trajectory(dt=dt, xs=xs, ps=0.5 - 0.125 * grid, velocities=1.0 + 0.25 * grid)


def _outcome(defect, conn, cubic, traj):
    # huge coordinates overflow the shared numpy stacks of both routes
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return "done", defect(conn, cubic, traj).tobytes()
    except EvalDomainError as err:
        return type(err), str(err), err.node


def _same_as_pointwise(conn, cubic, traj):
    """The (equal) outcome of the table route and the per-state reference."""
    got = _outcome(pw._geodesic_defect, conn, cubic, traj)
    assert got == _outcome(reference.geodesic_defect_pointwise, conn, cubic, traj)
    return got


# ---------------------------------------------------------------------------
# drawn connections, cubics and trajectories
# ---------------------------------------------------------------------------

_CONSTS = [0.5, 1.0, 2.0, -1.5, 3.0]
_ZEROS = [ex.ZERO, ex.const(-0.0)]
_COORDS = [0.0, 0.5, -0.5, 1.0, -2.0, 10.0, 1e200, -1e200]


def _draw_expr(draw, arity, depth):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return ex.var(draw(st.integers(0, arity - 1)))
        return ex.const(draw(st.sampled_from(_CONSTS)))
    kind = draw(st.sampled_from(["+", "-", "*", "/", "^", "^", "exp", "ln", "sqrt", "sin", "neg"]))
    a = _draw_expr(draw, arity, depth - 1)
    if kind in ("+", "-", "*", "/"):
        b = _draw_expr(draw, arity, depth - 1)
        return {"+": ex.add, "-": ex.sub, "*": ex.mul, "/": ex.div}[kind](a, b)
    if kind == "^":
        return ex.powi(a, draw(st.sampled_from([-2, -1, 2, 3, 400])))
    return ex.neg(a) if kind == "neg" else ex.call(kind, a)


def _draw_comps(draw, n, pool):
    """An (n, n, n) array of structural zeros (0.0 and -0.0) and of entries
    from `pool`, so components repeat."""
    comps = np.empty((n, n, n), dtype=object)
    for idx in np.ndindex(n, n, n):
        comps[idx] = draw(st.sampled_from(_ZEROS)) if draw(st.booleans()) else draw(st.sampled_from(pool))
    return comps


@st.composite
def _defects(draw):
    """A chart of dimension 1-3, a connection, a cubic or None, and a
    trajectory of 3-8 stored states."""
    n = draw(st.integers(1, 3))
    chart = Chart(["x", "y", "z"][:n])
    try:
        pool = [_draw_expr(draw, n, 3) for _ in range(draw(st.integers(1, 4)))]
    except EvalDomainError:  # constant folding met a domain error while building
        pool = [ex.var(0)]
    conn = Connection(chart, _draw_comps(draw, n, pool))
    cubic = SymTensorField(chart, 3, _draw_comps(draw, n, pool)) if draw(st.booleans()) else None
    steps = draw(st.integers(3, 8))
    xs = draw(st.lists(st.sampled_from(_COORDS), min_size=steps * n, max_size=steps * n))
    return conn, cubic, _trajectory(np.reshape(xs, (steps, n)), dt=draw(st.sampled_from([1e-3, 0.25])))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_defects())
def test_table_defect_matches_the_pointwise_reference(case):
    _same_as_pointwise(*case)


# ---------------------------------------------------------------------------
# errors: the first failing state names the failure
# ---------------------------------------------------------------------------

def test_division_by_zero_at_a_later_state():
    conn = Connection.from_dict(LINE, {(0, 0, 0): "1/x"})
    got = _same_as_pointwise(conn, None, _trajectory([[1.0], [2.0], [0.0], [3.0]]))
    assert got[:2] == (EvalDomainError, "division by zero in subterm '1 / x1'")


def test_ln_of_a_negative_in_the_cubic():
    cubic = SymTensorField.from_dict(LINE, 3, {(0, 0, 0): "ln(x)"})
    got = _same_as_pointwise(Connection.euclidean(LINE), cubic, _trajectory([[1.0], [2.0], [-1.0], [3.0]]))
    assert got[:2] == (EvalDomainError, "ln of a non-positive argument in subterm 'ln(x1)'")


def test_overflow_in_a_power_raises_as_the_loop_does():
    # the table alone reads 10^400 as inf; the defect must raise instead
    conn = Connection.from_dict(LINE, {(0, 0, 0): "x^400"})
    got = _same_as_pointwise(conn, None, _trajectory([[0.0], [1.0], [10.0], [0.0]]))
    assert got[:2] == (EvalDomainError, "overflow in subterm 'x1^400'")


def test_the_earlier_state_wins_over_the_earlier_component():
    # Gamma^0_00 fails at the third interior state, Gamma^1_11 at the second
    conn = Connection.from_dict(PLANE, {(0, 0, 0): "1/x", (1, 1, 1): "ln(y)"})
    traj = _trajectory([[1.0, 1.0], [1.0, 1.0], [1.0, -1.0], [0.0, 1.0], [1.0, 1.0]])
    got = _same_as_pointwise(conn, None, traj)
    assert got[:2] == (EvalDomainError, "ln of a non-positive argument in subterm 'ln(x2)'")


def test_infinities_no_state_raises_on_are_the_values():
    conn = Connection.from_dict(LINE, {(0, 0, 0): "x*x"})
    got = _same_as_pointwise(conn, None, _trajectory([[0.0], [1e200], [1.0], [0.0]]))
    defect = np.frombuffer(got[1])
    assert math.isinf(defect[0]) and math.isfinite(defect[1])


def test_structural_zeros_keep_their_sign():
    zeros = [ex.const(-0.0), ex.ZERO, ex.var(0), ex.const(-0.0)]
    table = pw._values_at(zeros, np.array([[1.5], [2.5]]))
    assert table.tobytes() == np.array([[-0.0, 0.0, 1.5, -0.0], [-0.0, 0.0, 2.5, -0.0]]).tobytes()
