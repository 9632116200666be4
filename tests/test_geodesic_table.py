"""The geodesic defect read from the jet plan against the per-state loop
over the trees.

`pw._geodesic_defect` evaluates every jet leaf (theta, d theta and Gamma)
once over all interior states (`Plan.table` of `poisson._JetPlan`), and
contracts Gamma v v and p p [theta, theta] from them, [theta, theta] as
the cyclic sum the verdicts read.  `reference.geodesic_defect_pointwise`
evaluates the jet leaves, Gamma and the cyclic [theta, theta] tree
(`reference.cyclic_bracket`) state by state with `Plan.values`, then
contracts with `np.einsum`; like the jet plan, that tree forms no product
with a structural zero.  Both must give the same defect bit for bit, or
stop with the same error: class, message and failing node, met at the first
failing state and, there, at the first failing leaf in the plan's order.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference
from sympoisson import cli, poisson, pw
from sympoisson import expr as ex
from sympoisson.expr import EvalDomainError
from sympoisson.geometry import Chart, Connection, SymTensorField
from sympoisson.poisson import _JetPlan
from test_catalog_trees import _catalog_pairs

LINE = Chart(["x"])
PLANE = Chart(["x", "y"])


def _trajectory(xs, dt=1e-2):
    """A trajectory with the given base points, unit-ish velocities and momenta."""
    xs = np.array(xs, dtype=float).reshape(len(xs), -1)
    steps, n = xs.shape
    grid = np.arange(steps * n, dtype=float).reshape(steps, n)
    return pw.Trajectory(dt=dt, xs=xs, ps=0.5 - 0.125 * grid, velocities=1.0 + 0.25 * grid)


def _library(conn, theta, traj):
    if theta is None:
        return pw.geodesic_residual_along(conn, traj)
    return pw._geodesic_defect(_JetPlan(theta.comps, conn.gamma), traj)


def _pointwise(conn, theta, traj):
    if theta is None:
        return reference.geodesic_defect_pointwise(conn, None, traj)
    return reference.geodesic_defect_pointwise(conn, reference.cyclic_bracket(conn, theta), traj, theta)


def _outcome(defect, conn, theta, traj):
    # huge coordinates overflow the shared numpy stacks of both routes
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return "done", defect(conn, theta, traj).tobytes()
    except EvalDomainError as err:
        return type(err), str(err), err.node


def _same_as_pointwise(conn, theta, traj):
    """The (equal) outcome of the table route and the per-state reference."""
    got = _outcome(_library, conn, theta, traj)
    assert got == _outcome(_pointwise, conn, theta, traj)
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


def _draw_comps(draw, n, pool, rank):
    """An (n,) * rank array of structural zeros (0.0 and -0.0) and of entries
    from `pool`, so components repeat; a 2-index array is symmetric."""
    comps = np.empty((n,) * rank, dtype=object)
    for idx in np.ndindex(*comps.shape):
        if rank == 2 and idx[0] > idx[1]:
            comps[idx] = comps[idx[::-1]]
            continue
        comps[idx] = draw(st.sampled_from(_ZEROS)) if draw(st.booleans()) else draw(st.sampled_from(pool))
    return comps


@st.composite
def _defects(draw):
    """A chart of dimension 1-3, a connection, a theta or None, and a
    trajectory of 3-8 stored states."""
    n = draw(st.integers(1, 3))
    chart = Chart(["x", "y", "z"][:n])
    try:
        pool = [_draw_expr(draw, n, 3) for _ in range(draw(st.integers(1, 4)))]
    except EvalDomainError:  # constant folding met a domain error while building
        pool = [ex.var(0)]
    conn = Connection(chart, _draw_comps(draw, n, pool, 3))
    theta = SymTensorField(chart, 2, _draw_comps(draw, n, pool, 2)) if draw(st.booleans()) else None
    steps = draw(st.integers(3, 8))
    xs = draw(st.lists(st.sampled_from(_COORDS), min_size=steps * n, max_size=steps * n))
    return conn, theta, _trajectory(np.reshape(xs, (steps, n)), dt=draw(st.sampled_from([1e-3, 0.25])))


# 3^400 = 7.06e190, whose square overflows: nabla theta folds to the
# constant inf, and each theta^{im} that is a structural zero meets it
_HUGE = ex.powi(ex.const(3.0), 400)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_defects())
@example((Connection(PLANE, np.full((2, 2, 2), _HUGE, dtype=object)),
          SymTensorField(PLANE, 2, np.array([[_HUGE, ex.ZERO], [ex.ZERO, _HUGE]], dtype=object)),
          _trajectory([[0.0, 0.0]] * 3, dt=1e-3)))
def test_table_defect_matches_the_pointwise_reference(case):
    _same_as_pointwise(*case)


# ---------------------------------------------------------------------------
# errors: the first failing state names the failure
# ---------------------------------------------------------------------------

def test_division_by_zero_at_a_later_state():
    conn = Connection.from_dict(LINE, {(0, 0, 0): "1/x"})
    got = _same_as_pointwise(conn, None, _trajectory([[1.0], [2.0], [0.0], [3.0]]))
    assert got[:2] == (EvalDomainError, "division by zero in subterm '1 / x1'")


def test_ln_of_a_negative_in_the_bracket():
    theta = SymTensorField.from_dict(LINE, 2, {(0, 0): "ln(x)"})
    got = _same_as_pointwise(Connection.euclidean(LINE), theta, _trajectory([[1.0], [2.0], [-1.0], [3.0]]))
    assert got[:2] == (EvalDomainError, "ln of a non-positive argument in subterm 'ln(x1)'")


def test_the_jet_plan_names_the_first_of_two_failing_leaves():
    # at (0, -1) both d_x theta^{xx} = 1 / (2 sqrt(x)) and theta^{xy} = ln(y)
    # fail.  The jet plan evaluates theta before d theta, so it names the ln,
    # where the trace formula's tree, which meets theta^{xx} d_x theta^{xx}
    # first, would name the division
    theta = SymTensorField.from_dict(PLANE, 2, {(0, 0): "sqrt(x)", (0, 1): "ln(y)"})
    traj = _trajectory([[1.0, 1.0], [1.0, 1.0], [0.0, -1.0], [1.0, 1.0], [1.0, 1.0]])
    got = _same_as_pointwise(Connection.euclidean(PLANE), theta, traj)
    assert got[:2] == (EvalDomainError, "ln of a non-positive argument in subterm 'ln(x2)'")


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
    table = ex.Plan(zeros).table(np.array([[1.5], [2.5]]))[0]
    assert table.tobytes() == np.array([[-0.0, 0.0, 1.5, -0.0], [-0.0, 0.0, 2.5, -0.0]]).tobytes()


# ---------------------------------------------------------------------------
# the monitor on every pair integrate runs
# ---------------------------------------------------------------------------

STRUCTURES = Path(__file__).resolve().parents[1] / "structures"
CATALOG = dict(_catalog_pairs())
INTEGRATED = ["nondeg_kill", "oscillator", "r5", "inclusion"]
IDENTS = [f"file:{name}" for name in INTEGRATED] + list(CATALOG)


def _monitored(ident):
    """A pair, a 40-step trajectory inside its box and the monitor's defect."""
    if ident.startswith("file:"):
        pair = cli.load_structure(str(STRUCTURES / f"{ident[5:]}.ini")).pair
    else:
        pair = CATALOG[ident]
    n = pair.chart.n
    lo, hi = np.array(pair.chart.box, dtype=float).T
    start = pw.CotangentState(tuple(lo + (hi - lo) * np.linspace(0.3, 0.7, n)), tuple(np.linspace(-0.6, 0.5, n)))
    traj = pw.integrate_pw(pair.nabla, pw.vertical_lift(pair.theta), start, dt=1e-3, steps=40)
    return pair, traj, pw.monitor_geodesic_residual(pair, traj)


@pytest.mark.parametrize("ident", IDENTS)
def test_the_monitor_is_the_cyclic_bracket_defect_bit_for_bit(ident):
    pair, traj, got = _monitored(ident)
    want = reference.geodesic_defect_pointwise(pair.nabla, reference.cyclic_bracket(pair.nabla, pair.theta), traj,
                                               pair.theta)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ident", IDENTS)
def test_the_monitor_is_the_trace_formula_defect_up_to_rounding(ident):
    # the trace formula's tree sums [theta, theta] in another order, which
    # moves the last bits on liealg:aff1, ex:rotation and ex:radial
    pair, traj, got = _monitored(ident)
    want = reference.geodesic_defect_pointwise(pair.nabla, poisson.schouten_self(pair), traj)
    assert np.abs(got - want).max() / max(1.0, np.abs(got).max()) <= 1e-14
