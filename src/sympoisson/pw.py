"""Split-signature cotangent metric, its bracket, and the induced dynamics.

A torsion-free connection on an n-chart induces on the 2n phase chart
(x^1..x^n, p_1..p_n):

- the metric matrix   [[ -2 p_k G^k_{ij},  I ], [ I, 0 ]]           (blocks x|p)
- the bracket         {F,G} = dG(grad F) = F_{x^i} G_{p_i} + F_{p_i} G_{x^i}
                                            + 2 p_k G^k_{ij} F_{p_i} G_{p_j}
- the gradient flow   xdot^i = H_{p_i},
                      pdot_j = H_{x^j} + 2 p_k G^k_{ij} H_{p_i}

Trajectories are produced by classical fixed-step RK4; conserved-quantity
monitors are recorded per step so an inadequate step size is visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import geometry as geo
from .defaults import DT
from .expr import ScalarField
from .geometry import Chart, Connection, SymFormField, SymTensorField, levi_civita
from .poisson import SymPoissonPair, _membership, _spectra, schouten_self


class DynamicsError(Exception):
    pass


class TrajectoryError(DynamicsError):
    """A run stopped at `step`; carries the prefix of states before it.

    Raised as is for a domain error (such as ln of a non-positive value) met
    while computing that step or its monitors.
    """

    def __init__(self, message: str, step: int, trajectory: "Trajectory"):
        super().__init__(message)
        self.step = step
        self.trajectory = trajectory


class BlowUpError(TrajectoryError):
    """The state became non-finite, or a value overflowed (`cause` names it)."""

    def __init__(self, step: int, trajectory: "Trajectory", cause: str | None = None):
        message = f"trajectory blew up at step {step}"
        super().__init__(message if cause is None else f"{message}: {cause}", step, trajectory)


# ---------------------------------------------------------------------------
# phase fields
# ---------------------------------------------------------------------------

def phase_names(chart: Chart) -> list[str]:
    """Coordinate names on the phase chart: base names then p1..pn."""
    momenta = [f"p{i + 1}" for i in range(chart.n)]
    clash = set(momenta) & set(chart.names)
    if clash:
        raise DynamicsError(f"base coordinates {clash} collide with momentum names")
    return list(chart.names) + momenta


@dataclass(frozen=True)
class PhaseField:
    """Scalar function on the phase chart of a base chart (arity 2n)."""

    chart: Chart
    f: ScalarField

    def __post_init__(self):
        if self.f.arity != 2 * self.chart.n:
            raise DynamicsError("phase field must have arity 2n")

    @staticmethod
    def parse(chart: Chart, text: str) -> "PhaseField":
        return PhaseField(chart, ex.parse(text, phase_names(chart)))

    @staticmethod
    def from_expr(chart: Chart, e: ex.Expr) -> "PhaseField":
        return PhaseField(chart, ScalarField(e, 2 * chart.n))

    def __call__(self, state) -> float:
        return self.f(state)

    def diff(self, index: int) -> ScalarField:
        return self.f.diff(index)

    def __add__(self, other: "PhaseField") -> "PhaseField":
        return PhaseField(self.chart, self.f + other.f)

    def __sub__(self, other: "PhaseField") -> "PhaseField":
        return PhaseField(self.chart, self.f - other.f)


def base_lift(chart: Chart, f: ScalarField) -> PhaseField:
    """Pull a base function back to the phase chart (same leading variables)."""
    return PhaseField(chart, f.with_arity(2 * chart.n))


def vertical_lift(a: SymTensorField) -> PhaseField:
    """Degree-r multivector -> degree-r polynomial in momenta.

    Components contract against momenta with a 1/r! normalization, so a
    vector field X gives X^i p_i and a bivector theta gives
    (1/2) theta^{ij} p_i p_j.
    """
    chart = a.chart
    n = chart.n
    r = a.degree
    if r == 0:
        return base_lift(chart, a.scalar())
    terms = []
    for multi in np.ndindex(*(n,) * r):
        p_prod = ex.expr_product([ex.var(n + i) for i in multi])
        terms.append(ex.mul(a.comps[multi], p_prod))
    e = ex.mul(ex.const(1.0 / math.factorial(r)), ex.expr_sum(terms))
    return PhaseField.from_expr(chart, e)


# ---------------------------------------------------------------------------
# metric, brackets, gradient
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CotangentState:
    x: tuple[float, ...]
    p: tuple[float, ...]

    def __post_init__(self):
        if len(self.x) != len(self.p):
            raise DynamicsError("x and p must have the same length")
        if not all(math.isfinite(v) for v in self.x + self.p):
            raise DynamicsError("state entries must be finite")

    def flat(self) -> tuple[float, ...]:
        return self.x + self.p


def pw_metric_matrix(conn: Connection, state: CotangentState) -> np.ndarray:
    """2n x 2n symmetric matrix of the induced metric at a state."""
    n = conn.chart.n
    gamma = conn.gamma_at(state.x)
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            a[i, j] = -2.0 * sum(state.p[k] * gamma[k, i, j] for k in range(n))
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = a
    out[:n, n:] = np.eye(n)
    out[n:, :n] = np.eye(n)
    return out


def pw_bracket(conn: Connection, f: PhaseField, g: PhaseField) -> PhaseField:
    """{F, G}_PW = dG(grad F): G differentiated along the gradient flow of F."""
    if f.chart != conn.chart or g.chart != conn.chart:
        raise geo.ChartMismatchError("phase fields on a different chart")
    return _along(pw_gradient(conn, f), g)


def canonical_bracket(f: PhaseField, g: PhaseField) -> PhaseField:
    """{F,G}_can = dF(X_G) = F_{x^i} G_{p_i} - G_{x^i} F_{p_i}."""
    if f.chart != g.chart:
        raise geo.ChartMismatchError("phase fields on different charts")
    return _along(hamiltonian_vector_field(g), f)


def _along(components: list[ScalarField], g: PhaseField) -> PhaseField:
    """sum_a V^a d_a G: the derivative of G along the phase vector field V."""
    terms = [ex.mul(v.expr, g.diff(a).expr) for a, v in enumerate(components)]
    return PhaseField.from_expr(g.chart, ex.expr_sum(terms))


def pw_gradient(conn: Connection, h: PhaseField) -> list[ScalarField]:
    """Components of the gradient flow on the phase chart (x block then p block)."""
    n = conn.chart.n
    out: list[ScalarField] = []
    for i in range(n):
        out.append(h.diff(n + i))
    for j in range(n):
        terms = [h.diff(j).expr]
        for i in range(n):
            for k in range(n):
                terms.append(
                    ex.expr_product(
                        [ex.const(2.0), ex.var(n + k), conn.gamma[k, i, j], h.diff(n + i).expr]
                    )
                )
        out.append(ScalarField(ex.expr_sum(terms), 2 * n))
    return out


def hamiltonian_vector_field(h: PhaseField) -> list[ScalarField]:
    """Canonical flow components (H_{p_i}, -H_{x^j})."""
    n = h.chart.n
    return [h.diff(n + i) for i in range(n)] + [-h.diff(j) for j in range(n)]


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Uniform-step trajectory with aligned monitor channels.

    For cotangent runs the second block holds momenta; for geodesic runs it
    holds velocities (`second` records which).
    """

    dt: float
    xs: np.ndarray  # (steps+1, n)
    ps: np.ndarray  # (steps+1, n)
    velocities: np.ndarray  # (steps+1, n): xdot at each stored state
    channels: dict[str, np.ndarray] = field(default_factory=dict)
    second: str = "p"

    @property
    def steps(self) -> int:
        return len(self.xs) - 1

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.xs))

    def state(self, k: int) -> CotangentState:
        return CotangentState(tuple(self.xs[k]), tuple(self.ps[k]))

    def channel_drift(self, name: str) -> float:
        c = self.channels[name]
        return float(np.abs(c - c[0]).max())


def _integrate(
    rhs_exprs, observe_exprs, y0, dt: float, steps: int, chart: Chart, channels: list[str], second: str
) -> Trajectory:
    """RK4 from y0 with `steps` steps of size dt.

    `rhs_exprs` give the derivative of the state; `observe_exprs` give the
    velocity and then one value per channel at each stored state.  The
    whole run is one generated function (`expr.compile_rk4`), which raises
    an EvalDomainError naming the failing node.  A non-finite state or an
    overflow raises BlowUpError, any other domain error TrajectoryError;
    both name the step and carry the states before it.
    """
    rows: list[tuple[float, ...]] = []
    try:
        ex.compile_rk4(rhs_exprs, observe_exprs)(y0, dt, steps, rows)
    except ex.EvalDomainError as err:
        step = len(rows)
        partial = _make_traj(dt, rows, chart.n, channels, second)
        cause = err.named([*chart.names, *(f"p{i + 1}" for i in range(chart.n))])
        if err.reason == "overflow":
            raise BlowUpError(step, partial, cause) from err
        raise TrajectoryError(f"{cause} at step {step}", step, partial) from err
    traj = _make_traj(dt, rows, chart.n, channels, second)
    if len(rows) <= steps:  # the run stopped at a non-finite state
        raise BlowUpError(len(rows), traj)
    return traj


def _make_traj(dt: float, rows, n: int, channels: list[str], second: str) -> Trajectory:
    """Rows hold x, the second block, the velocity, then one value per channel."""
    table = np.array(rows, dtype=float).reshape(len(rows), 3 * n + len(channels))
    return Trajectory(
        dt=dt,
        xs=table[:, :n],
        ps=table[:, n : 2 * n],
        velocities=table[:, 2 * n : 3 * n],
        channels={name: table[:, 3 * n + c] for c, name in enumerate(channels)},
        second=second,
    )


def integrate_pw(
    conn: Connection,
    h: PhaseField,
    s0: CotangentState,
    dt: float = DT,
    steps: int = 1000,
    extra_monitors: dict[str, PhaseField] | None = None,
) -> Trajectory:
    """Integrate the gradient flow of `h`; records the `hamiltonian` channel.

    The whole run, gradient, velocities and monitors, is one generated
    function (see `_integrate`).  Raises BlowUpError if the state
    leaves the finite range, TrajectoryError on a domain error; both carry
    the finite prefix.
    """
    if not (math.isfinite(dt) and dt > 0) or steps < 1:
        raise DynamicsError("need a finite dt > 0 and steps >= 1")
    n = conn.chart.n
    grad = [f.expr for f in pw_gradient(conn, h)]
    monitors = {"hamiltonian": h, **(extra_monitors or {})}
    observed = grad[:n] + [m.f.expr for m in monitors.values()]
    return _integrate(grad, observed, s0.flat(), dt, steps, conn.chart, list(monitors), "p")


def integrate_geodesic(
    conn: Connection,
    x0,
    v0,
    dt: float = DT,
    steps: int = 1000,
) -> Trajectory:
    """RK4 solution of xddot^k + G^k_{ij} xdot^i xdot^j = 0."""
    if not (math.isfinite(dt) and dt > 0) or steps < 1:
        raise DynamicsError("need a finite dt > 0 and steps >= 1")
    n = conn.chart.n
    velocity = [ex.var(n + i) for i in range(n)]
    acc = [ex.ZERO] * n
    for k, i, j in np.ndindex(n, n, n):
        g = conn.gamma[k, i, j]
        if not ex.is_structural_zero(g):
            # acc[k] -= G^k_ij v^i v^j, accumulated from 0.0 in this order
            acc[k] = ex.BinOp("-", acc[k], ex.mul(ex.mul(g, velocity[i]), velocity[j]))
    y0 = [float(c) for c in x0] + [float(c) for c in v0]
    return _integrate(velocity + acc, velocity, y0, dt, steps, conn.chart, [], "v")


def _values_at(exprs: list[ex.Expr], points: np.ndarray) -> np.ndarray:
    """The values of `exprs` at each row of `points`, one column per expression.

    One `Plan.table` evaluates the expressions that are not structural zeros
    over all rows together, each distinct node once; a structural zero's
    column holds its own constant, so a -0.0 stays -0.0.  Each row equals a
    generated call at that point bit for bit.  The table reads an overflow
    in ``**`` as +-inf and meets failures root by root, so where it raises
    or a scale is not finite, `Plan.values` runs over the rows in order and
    the first row that fails raises the EvalDomainError a per-row loop
    would.  Where no row fails, the infinities are the values.
    """
    zero = [ex.is_structural_zero(e) for e in exprs]
    live = [c for c, z in enumerate(zero) if not z]
    out = np.empty((len(points), len(exprs)))
    out[:] = [e.value if z else math.nan for e, z in zip(exprs, zero)]
    plan = ex.Plan(exprs[c] for c in live)
    try:
        values, scales = plan.table(points)
    except ex.EvalDomainError:
        values = scales = None
    if scales is None or not np.isfinite(scales).all():
        for row in points.tolist():
            plan.values(row)
        assert values is not None, "a failure in the table is a failure at its row"
    out[:, live] = values
    return out


def _geodesic_defect(conn: Connection, cubic: SymTensorField | None, traj: Trajectory) -> np.ndarray:
    """| nabla_{xdot} xdot - (1/4) i_a i_a cubic | at each interior stored state.

    The acceleration is a central finite difference of the stored velocity
    channel.  Gamma^k_ij, then the components of `cubic` when one is given,
    come from one table over all interior states (`_values_at`), scattered
    into dense (states, n, n, n) stacks; the rest runs over the stack.
    Without `cubic` the defect is the geodesic equation's own residual.
    """
    states = len(traj.xs)
    if states < 3:
        raise DynamicsError("need at least 3 stored states for finite differences")
    n = conn.chart.n
    exprs = [*conn.gamma.flat, *(() if cubic is None else cubic.comps.flat)]
    table = _values_at(exprs, traj.xs[1:-1])
    v = traj.velocities
    gamma = table[:, : n**3].reshape(-1, n, n, n)
    defect = (v[2:] - v[:-2]) / (2.0 * traj.dt) + np.einsum("skij,si,sj->sk", gamma, v[1:-1], v[1:-1])
    if cubic is not None:
        p = traj.ps[1:-1]
        defect = defect - 0.25 * np.einsum("si,sj,sijm->sm", p, p, table[:, n**3 :].reshape(-1, n, n, n))
    # each row's dot product with itself, as a stacked matmul: it takes the
    # dot kernel np.linalg.norm takes, so every entry equals the row's norm bit
    # for bit; einsum or (d * d).sum(1) round differently in the last bit
    return np.sqrt(np.matmul(defect[:, None, :], defect[:, :, None])[:, 0, 0])


def geodesic_residual_along(conn: Connection, traj: Trajectory) -> np.ndarray:
    """|nabla_{xdot} xdot| at a trajectory's interior states (self-consistency)."""
    return _geodesic_defect(conn, None, traj)


# ---------------------------------------------------------------------------
# monitors tied to a symmetric Poisson pair
# ---------------------------------------------------------------------------

def speed_square_field(pair: SymPoissonPair) -> PhaseField:
    """theta(a, a) as a phase function (twice the vertical lift of theta)."""
    n = pair.chart.n
    terms = []
    for i in range(n):
        for j in range(n):
            terms.append(
                ex.expr_product([pair.theta.comps[i, j], ex.var(n + i), ex.var(n + j)])
            )
    return PhaseField.from_expr(pair.chart, ex.expr_sum(terms))


def monitor_speed_square(pair: SymPoissonPair, traj: Trajectory) -> np.ndarray:
    """Per-step values of theta(a, a) along a cotangent trajectory."""
    return _values_at([speed_square_field(pair).f.expr], np.hstack([traj.xs, traj.ps]))[:, 0]


def monitor_geodesic_residual(pair: SymPoissonPair, traj: Trajectory) -> np.ndarray:
    """Per interior step: | nabla_{xdot} xdot - (1/4) i_a i_a [theta,theta] |.

    The bracket side is the pair's [theta, theta], built once per pair (see
    `_geodesic_defect`).  A defect that is not finite, such as one whose
    square overflows, raises DynamicsError naming the first such step.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        defect = _geodesic_defect(pair.nabla, schouten_self(pair), traj)
    bad = np.flatnonzero(~np.isfinite(defect))
    if len(bad):
        raise DynamicsError(f"the geodesic residual is not finite at step {bad[0] + 1}")
    return defect


@dataclass
class GeodesicInvarianceReport:
    max_base_distance: float
    max_distribution_residual: float
    steps: int


def check_locally_geodesically_invariant(
    pair: SymPoissonPair,
    x0,
    zeta0,
    dt: float = DT,
    steps: int = 1000,
) -> GeodesicInvarianceReport:
    """Launch the gradient flow of the lifted bivector from (x0, zeta0) and
    compare with the plain geodesic started with velocity theta(zeta0).

    Reports the worst base-point distance between the two runs and the worst
    least-squares distance from the geodesic velocity to im theta.
    """
    x0 = np.array(x0, dtype=float)
    zeta0 = np.array(zeta0, dtype=float)
    theta0 = pair.theta.evaluate(x0)
    v0 = theta0 @ zeta0
    if np.linalg.norm(v0) == 0.0:
        raise DynamicsError("theta(zeta0) vanishes; pick a covector off the kernel")
    h = vertical_lift(pair.theta)
    lifted = integrate_pw(pair.nabla, h, CotangentState(tuple(x0), tuple(zeta0)), dt, steps)
    plain = integrate_geodesic(pair.nabla, x0, v0, dt, steps)
    base_dist = float(np.linalg.norm(lifted.xs - plain.xs, axis=1).max())
    picked = slice(0, len(plain.xs), max(1, len(plain.xs) // 50))
    states = plain.xs[picked]
    _, vecs, keep = _spectra(pair.theta, states, pair.theta.evaluate_on(states))
    worst_res = float(_membership(vecs, keep, plain.velocities[picked][:, None]).max(initial=0.0))
    return GeodesicInvarianceReport(base_dist, worst_res, steps)


# ---------------------------------------------------------------------------
# Newtonian reduction
# ---------------------------------------------------------------------------

def run_newtonian(
    g: SymFormField,
    f: ScalarField,
    x0,
    v0,
    dt: float = DT,
    steps: int = 1000,
) -> Trajectory:
    """Second-order dynamics nabla^g_{xdot} xdot = -grad_g f via the phase flow
    of (g^{-1} - f) lifted, under the Levi-Civita connection of g.

    Exposes `energy` = (1/2) g(xdot, xdot) + f and per-step position/velocity.
    """
    conn = levi_civita(g)
    kinetic, potential = vertical_lift(geo.invert_metric(g)), base_lift(g.chart, f)
    p0 = tuple(g.evaluate(x0) @ np.array(v0, dtype=float))
    state = CotangentState(tuple(float(v) for v in x0), p0)
    return integrate_pw(conn, kinetic - potential, state, dt, steps, {"energy": kinetic + potential})


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory) -> str:
    """Delimited export: t, x1..xn, p1..pn, then one column per monitor.

    Full double precision (17 significant digits), one row per stored state.
    """
    n = traj.xs.shape[1]
    second = traj.second
    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"{second}{i + 1}" for i in range(n)]
        + list(traj.channels.keys())
    )
    table = np.column_stack([traj.times, traj.xs, traj.ps, *traj.channels.values()])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return ",".join(header) + "\n" + (row * len(table)) % tuple(table.ravel().tolist())
