"""The generated RK4 loop against the stepwise reference.

`pw._integrate` runs a whole trajectory as one generated function
(`expr.compile_rk4`).  `reference.integrate_stepwise` calls `Plan.values`
on the right-hand side once per stage instead.  Both must store the same states
bit for bit and stop with the same error: class, message, step, failing
node and partial trajectory.
"""

import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

import reference
from sympoisson import cli
from sympoisson import expr as ex
from sympoisson import pw
from sympoisson.expr import EvalDomainError, ScalarField
from sympoisson.geometry import Chart, Connection
from sympoisson.pw import CotangentState, PhaseField, integrate_geodesic, integrate_pw

LINE = Chart(["x"])


def _trajectory_bits(traj):
    channels = [(name, values.tobytes()) for name, values in traj.channels.items()]
    return traj.dt, traj.second, traj.xs.tobytes(), traj.ps.tobytes(), traj.velocities.tobytes(), channels


def _outcome(run):
    """The stored states of a run, or how it stopped."""
    try:
        return "done", _trajectory_bits(run())
    except pw.TrajectoryError as err:
        cause = err.__cause__
        node = None if cause is None else cause.node
        return type(err), str(err), err.step, node, _trajectory_bits(err.trajectory)


def _same_as_stepwise(run):
    """Run `run` through the generated loop and through the stepwise
    reference; return the (equal) outcome."""
    got = _outcome(run)
    with mock.patch.object(pw, "_integrate", reference.integrate_stepwise):
        want = _outcome(run)
    assert got == want
    return got


def _failing_stage(rhs_exprs, y0, dt, steps):
    """(step, stage) at which a stepwise run meets its first domain error."""
    fn, calls = ex.Plan(rhs_exprs).values, []

    def rhs(y):
        calls.append(y)
        return fn(y)

    y = tuple(y0)
    for step in range(1, steps + 1):
        calls.clear()
        try:
            y = reference.rk4_step(rhs, y, dt)
        except EvalDomainError:
            return step, len(calls)
    return None


# ---------------------------------------------------------------------------
# drawn Hamiltonians and connections
# ---------------------------------------------------------------------------

_CONSTS = [0.5, 1.0, 2.0, -1.5, 3.0, 0.25]
_UNARY = ["exp", "ln", "sin", "cos", "sqrt", "neg"]
_BINARY = {"+": ex.add, "-": ex.sub, "*": ex.mul, "/": ex.div}


def _draw_expr(draw, arity, depth):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return ex.var(draw(st.integers(0, arity - 1)))
        return ex.const(draw(st.sampled_from(_CONSTS)))
    kind = draw(st.sampled_from([*_BINARY, "^", *_UNARY]))
    a = _draw_expr(draw, arity, depth - 1)
    if kind in _BINARY:
        return _BINARY[kind](a, _draw_expr(draw, arity, depth - 1))
    if kind == "^":
        return ex.powi(a, draw(st.integers(-2, 4)))
    return ex.neg(a) if kind == "neg" else ex.call(kind, a)


@st.composite
def _flows(draw):
    """A chart of dimension 1-3, a connection on it, a phase Hamiltonian,
    an extra monitor, a start, a step size and a step count."""
    n = draw(st.integers(1, 3))
    chart = Chart(["x", "y", "z"][:n])
    try:
        entries = {}
        for _ in range(draw(st.integers(0, 3))):
            k, i, j = (draw(st.integers(0, n - 1)) for _ in range(3))
            entries[(k, min(i, j), max(i, j))] = ScalarField(_draw_expr(draw, n, 2), n)
        conn = Connection.from_dict(chart, entries)
        kinetic = ex.expr_sum([ex.mul(ex.var(n + i), ex.var(n + i)) for i in range(n)])
        h = PhaseField.from_expr(chart, ex.add(kinetic, _draw_expr(draw, 2 * n, 3)))
        monitor = PhaseField.from_expr(chart, _draw_expr(draw, 2 * n, 2))
        pw.pw_gradient(conn, h)
    except EvalDomainError:  # constant folding met a domain error while building
        reject()
    start = draw(st.lists(st.sampled_from([0.0, 0.5, -0.5, 1.0, -2.0, 0.3]), min_size=2 * n, max_size=2 * n))
    dt = draw(st.sampled_from([1e-3, 0.05, 0.25, 1.0]))
    return conn, h, monitor, start, dt, draw(st.integers(1, 25))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_flows())
def test_generated_loop_matches_the_stepwise_reference(flow):
    conn, h, monitor, start, dt, steps = flow
    n = conn.chart.n
    state = CotangentState(tuple(start[:n]), tuple(start[n:]))
    _same_as_stepwise(lambda: integrate_pw(conn, h, state, dt, steps, {"m": monitor}))
    _same_as_stepwise(lambda: integrate_geodesic(conn, start[:n], start[n:], dt, steps))


# ---------------------------------------------------------------------------
# the failing node in one stage, or in a monitor after the first state
# ---------------------------------------------------------------------------

# Gamma^x_xx = sqrt(x): the geodesic's only failing node is in its right-hand
# side, and a negative stage input x fails there: (x0, v0, dt, step, stage)
GEODESIC_STAGES = [
    (0.625, -1.375, 0.125, 4, 1),
    (0.125, -0.375, 0.25, 2, 2),
    (0.625, -0.375, 0.25, 6, 3),
    (0.125, -0.125, 0.125, 8, 4),
]

# H = p^2/2 + sqrt(x^2): H and the velocity p are defined everywhere, and
# H_x = 2 x / (2 sqrt(x^2)) divides by zero where a stage input x is 0
SQRT_H = "0.5*p1^2 + sqrt(x^2)"
PW_STAGES = [
    (0.0, 2.0, 0.5, 1, 1),
    (-2.0, 2.0, 0.5, 4, 2),
    (-1.75, 2.0, 1.0, 2, 3),
    (-1.875, 2.0, 0.25, 6, 4),
]


@pytest.mark.parametrize("x0, v0, dt, step, stage", GEODESIC_STAGES)
def test_geodesic_error_in_one_stage(x0, v0, dt, step, stage):
    conn = Connection.from_dict(LINE, {(0, 0, 0): "sqrt(x)"})
    velocity = ex.var(1)
    acc = ex.BinOp("-", ex.ZERO, ex.mul(ex.mul(conn.gamma[0, 0, 0], velocity), velocity))
    assert _failing_stage([velocity, acc], (x0, v0), dt, 10) == (step, stage)
    kind, message, got_step, node, partial = _same_as_stepwise(lambda: integrate_geodesic(conn, (x0,), (v0,), dt, 10))
    assert kind is pw.TrajectoryError
    assert message == f"sqrt of a negative argument in subterm 'sqrt(x)' at step {step}"
    assert (got_step, node) == (step, conn.gamma[0, 0, 0])
    assert len(np.frombuffer(partial[2])) == step


@pytest.mark.parametrize("x0, p0, dt, step, stage", PW_STAGES)
def test_pw_error_in_one_stage(x0, p0, dt, step, stage):
    conn = Connection.euclidean(LINE)
    h = PhaseField.parse(LINE, SQRT_H)
    assert _failing_stage([f.expr for f in pw.pw_gradient(conn, h)], (x0, p0), dt, 10) == (step, stage)
    kind, message, got_step, node, partial = _same_as_stepwise(
        lambda: integrate_pw(conn, h, CotangentState((x0,), (p0,)), dt, 10)
    )
    assert kind is pw.TrajectoryError
    assert message == f"division by zero in subterm '2 * x / (2 * sqrt(x^2))' at step {step}"
    assert (got_step, node) == (step, h.diff(0).expr)
    assert len(np.frombuffer(partial[2])) == step


@pytest.mark.parametrize(
    "hamiltonian, monitors, x0",
    [
        ("-p1", {"log": "ln(x)"}, 0.375),  # x = 0.375 - 0.125 k reaches 0 at step 3
        ("-p1 + ln(x)", {}, 0.3),  # the hamiltonian monitor itself, at x = -0.075
    ],
)
def test_monitor_error_after_the_first_state(hamiltonian, monitors, x0):
    conn = Connection.euclidean(LINE)
    h = PhaseField.parse(LINE, hamiltonian)
    extra = {name: PhaseField.parse(LINE, text) for name, text in monitors.items()}
    assert _failing_stage([f.expr for f in pw.pw_gradient(conn, h)], (x0, 0.0), 0.125, 10) is None
    kind, message, step, node, partial = _same_as_stepwise(
        lambda: integrate_pw(conn, h, CotangentState((x0,), (0.0,)), 0.125, 10, extra)
    )
    assert kind is pw.TrajectoryError
    assert message == "ln of a non-positive argument in subterm 'ln(x)' at step 3"
    assert (step, str(node)) == (3, "ln(x1)")
    assert len(np.frombuffer(partial[2])) == 3


@pytest.mark.parametrize(
    "hamiltonian, x0, p0, dt",
    [
        ("0.5*p1^2 + x^4", 100.0, 1e30, 1e-3),  # x^4 overflows in a stage
        ("x^2 * p1^2", 2.0, 2.0, 0.05),  # the state itself becomes non-finite
    ],
)
def test_blow_ups_match_the_stepwise_reference(hamiltonian, x0, p0, dt):
    h = PhaseField.parse(LINE, hamiltonian)
    kind, message, step, _, partial = _same_as_stepwise(
        lambda: integrate_pw(Connection.euclidean(LINE), h, CotangentState((x0,), (p0,)), dt, 2000)
    )
    assert kind is pw.BlowUpError and message.startswith(f"trajectory blew up at step {step}")
    assert len(np.frombuffer(partial[2])) == step


# ---------------------------------------------------------------------------
# the velocities and channels: one table of the stored states
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name, x0, p0",
    [("r5", (0.3, -0.2, 0.5, 0.1, -0.4), (0.2, 0.6, -0.5, 0.3, 0.1)), ("nondeg_kill", (0.1, 0.2), (0.4, -0.3))],
)
def test_velocities_and_channels_are_one_table_of_the_stored_states(name, x0, p0):
    pair = cli.load_structure(str(Path(__file__).resolve().parents[1] / "structures" / f"{name}.ini")).pair
    n = pair.chart.n
    h, speed_sq = pw.vertical_lift(pair.theta), pw.speed_square_field(pair)
    velocity = [f.expr for f in pw.pw_gradient(pair.nabla, h)][:n]
    flow = integrate_pw(pair.nabla, h, CotangentState(x0, p0), 1e-3, 200, {"speed_sq": speed_sq})
    table = ex.Plan([*velocity, h.f.expr, speed_sq.f.expr]).table(np.hstack([flow.xs, flow.ps]))[0]
    got = np.column_stack([flow.velocities, flow.channels["hamiltonian"], flow.channels["speed_sq"]])
    assert list(flow.channels) == ["hamiltonian", "speed_sq"] and len(got) == 201
    assert np.array_equal(got.view(np.uint64), table.view(np.uint64))

    geodesic = integrate_geodesic(pair.nabla, x0, p0, 1e-3, 200)
    states = np.hstack([geodesic.xs, geodesic.ps])
    table = ex.Plan([ex.var(n + i) for i in range(n)]).table(states)[0]
    assert geodesic.channels == {} and len(table) == 201
    assert np.array_equal(geodesic.velocities.view(np.uint64), table.view(np.uint64))


# ---------------------------------------------------------------------------
# the generated source: four stages, one line per key in each
# ---------------------------------------------------------------------------

def _generated_source(run):
    """The `_Source` of the one function `run` generates."""
    made, function = [], ex._Source.function

    def spy(source):
        made.append(source)
        return function(source)

    with mock.patch.object(ex._Source, "function", spy):
        run()
    (source,) = made
    return source


def _node_keys(source):
    """{block: [key of each node line]}: the block is the local's prefix
    (a-d the four stages, o an observation inlined in the loop), the key the
    operation and its operands as the line spells them, those of + and *
    sorted."""
    blocks = {}
    for line in source.lines:
        m = re.fullmatch(r" *([abcdo])\d+ = (.*)", line)
        if m:
            parts = m[2].split(" ")
            if len(parts) == 3 and parts[1] in ("+", "*"):
                parts = [parts[1], *sorted(parts[::2])]
            blocks.setdefault(m[1], []).append(tuple(parts))
    return blocks


def test_each_value_of_a_step_is_computed_once(tmp_path):
    r5 = Path(__file__).resolve().parents[1] / "structures" / "r5.ini"
    argv = ["integrate", str(r5), "--x0=0.1,0.2,-0.3,0.4,0.5", "--p0=0.3,-0.2,0.1,0.5,-0.4",
            "--monitors", "hamiltonian,speed_sq,geodesic_residual", "--steps", "5", "--out", str(tmp_path / "r5.csv")]
    source = _generated_source(lambda: cli.main(argv))
    keys = _node_keys(source)
    for block in "abcd":
        assert len(set(keys[block])) == len(keys[block]), block
    assert set(keys) == set("abcd")  # the velocities and monitors are a table of the stored states
    # not vacuous: the plan has commutative twins
    pair = cli.load_structure(str(r5)).pair
    rhs = [f.expr for f in pw.pw_gradient(pair.nabla, pw.vertical_lift(pair.theta))]
    interior = len(ex.Plan(rhs)._ops)
    assert len(keys["a"]) == len(keys["b"]) == len(keys["c"]) == len(keys["d"]) < interior


# Gamma^x_xx = ln(x) and H = p^2/2 from x = 1.125, p = -1.875 at dt = 1/16:
# every stage input of the first seven steps has x > 0 and the seventh state
# has x <= 0, so ln(x) first fails in stage 1 of step 8.  With a monitor ln(x)
# the table of the stored states fails at that state first: step 7.
@pytest.mark.parametrize("monitors, step", [({"log": "ln(x)"}, 7), ({}, 8)])
def test_a_failing_node_stage_1_reads_or_computes(monitors, step):
    conn = Connection.from_dict(LINE, {(0, 0, 0): "ln(x)"})
    h = PhaseField.parse(LINE, "0.5*p1^2")
    rhs = [f.expr for f in pw.pw_gradient(conn, h)]
    assert _failing_stage(rhs, (1.125, -1.875), 0.0625, 12) == (8, 1)
    extra = {name: PhaseField.parse(LINE, text) for name, text in monitors.items()}

    def run():
        return integrate_pw(conn, h, CotangentState((1.125,), (-1.875,)), 0.0625, 12, extra)

    kind, message, got_step, node, partial = _same_as_stepwise(run)
    assert kind is pw.TrajectoryError
    assert message == f"ln of a non-positive argument in subterm 'ln(x)' at step {step}"
    assert (got_step, node) == (step, conn.gamma[0, 0, 0])
    assert len(np.frombuffer(partial[2])) == step
    stage_1 = [line for line in _generated_source(lambda: pytest.raises(pw.TrajectoryError, run)).lines
               if re.match(r" *a\d+ = ", line)]
    assert any("_ln(" in line for line in stage_1)


def test_a_run_that_ends_never_evaluates_the_next_stage_1():
    # the same flow stopped at the seventh state, where ln(x) would fail
    conn = Connection.from_dict(LINE, {(0, 0, 0): "ln(x)"})
    h = PhaseField.parse(LINE, "0.5*p1^2")
    kind, bits = _same_as_stepwise(lambda: integrate_pw(conn, h, CotangentState((1.125,), (-1.875,)), 0.0625, 7))
    assert kind == "done" and np.frombuffer(bits[2])[-1] <= 0.0


# ---------------------------------------------------------------------------
# the stacked geodesic-defect norm
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(3, 400), st.integers(-8, 8), st.integers(0, 2**32 - 1))
def test_geodesic_defect_norm_is_the_row_norm(n, states, exponent, seed):
    """`geodesic_residual_along` takes the norms of all rows in one stacked call;
    each must equal np.linalg.norm of its row bit for bit.  Under the flat
    connection the defect is the central difference of the velocities."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((states, n)) * 10.0**exponent
    traj = pw.Trajectory(dt=1e-3, xs=rng.standard_normal((states, n)), ps=np.zeros((states, n)), velocities=v)
    chart = Chart([f"x{i + 1}" for i in range(n)])
    got = pw.geodesic_residual_along(Connection.euclidean(chart), traj)
    want = np.array([np.linalg.norm(d) for d in (v[2:] - v[:-2]) / (2.0 * traj.dt)])
    assert got.tobytes() == want.tobytes()
