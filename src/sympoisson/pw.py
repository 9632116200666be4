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
from .poisson import SymPoissonPair, _JetPlan, _membership, _norms, _spectra


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
    eye = np.eye(conn.chart.n)
    a = -2.0 * np.tensordot(state.p, conn.gamma_at(state.x), axes=1)
    return np.block([[a, eye], [eye, np.zeros_like(eye)]])


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
    """Components of the gradient flow on the phase chart (x block then p block).

    The p block sums H_{x^j} and 2 p_k G^k_{ij} H_{p_i} over i, then k.  Where
    G^k_{ij} is a structural zero the product folds to 0 * H_{p_i} whatever
    k is, so it is built once per i and no product is formed.
    """
    n = conn.chart.n
    h_p = [h.diff(n + i) for i in range(n)]
    two = ex.const(2.0)
    out = list(h_p)
    for j in range(n):
        total = ex.add(ex.ZERO, h.diff(j).expr)
        for i, f in enumerate(h_p):
            zero = ex.mul(ex.ZERO, f.expr)
            for k in range(n):
                g = conn.gamma[k, i, j]
                term = zero if ex.is_structural_zero(g) else ex.expr_product([two, ex.var(n + k), g, f.expr])
                total = ex.add(total, term)
        out.append(ScalarField(total, 2 * n))
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
    states come from one generated function (`expr.compile_rk4`); the
    velocities and channels from one `Plan.table` of `observe_exprs` over
    them.  The run stops at the earliest error in step order: a node that
    fails at stored state k, which the table locates (`sample`), stops it
    at step k even where the loop went on past k, and otherwise the stage
    error or non-finite state that ended the loop.  An overflow or a
    non-finite state raises BlowUpError, any other domain error
    TrajectoryError; both name the step and carry the states before it,
    with their velocities and channels.
    """
    rows: list[tuple[float, ...]] = []
    failure = None
    try:
        ex.compile_rk4(rhs_exprs)(y0, dt, steps, rows)
    except ex.EvalDomainError as err:
        failure = err
    states = np.array(rows)
    observe = ex.Plan(observe_exprs)
    try:
        observed = observe.table(states)[0]
    except ex.EvalDomainError as err:
        failure, states = err, states[: err.sample]
        observed = observe.table(states)[0] if len(states) else np.empty((0, len(observe.roots)))
    n, step = chart.n, len(states)
    traj = Trajectory(dt, states[:, :n], states[:, n:], observed[:, :n], dict(zip(channels, observed[:, n:].T)), second)
    if failure is not None:
        cause = failure.named([*chart.names, *(f"p{i + 1}" for i in range(n))])
        if failure.reason == "overflow":
            raise BlowUpError(step, traj, cause) from failure
        raise TrajectoryError(f"{cause} at step {step}", step, traj) from failure
    if step <= steps:  # the run stopped at a non-finite state
        raise BlowUpError(step, traj)
    return traj


def integrate_pw(
    conn: Connection,
    h: PhaseField,
    s0: CotangentState,
    dt: float = DT,
    steps: int = 1000,
    extra_monitors: dict[str, PhaseField] | None = None,
) -> Trajectory:
    """Integrate the gradient flow of `h`; records the `hamiltonian` channel.

    The states are one generated function of the gradient, and the
    velocities and monitors one table of the stored states (see
    `_integrate`).  Raises BlowUpError if the state leaves the finite
    range, TrajectoryError on a domain error; both carry the finite prefix.
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


def _geodesic_defect(plan: _JetPlan, traj: Trajectory) -> np.ndarray:
    """| nabla_{xdot} xdot - (1/4) i_a i_a [theta, theta] | at each interior stored state.

    The acceleration is a central finite difference of the stored velocity
    channel.  Every jet leaf comes from one `Plan.table` of the jet plan
    over all interior states, so the first state that fails raises the
    error of its first failing leaf in the plan's order.  Gamma^k_{ij} v^i
    v^j and p_i p_j [theta, theta]^{ijk} are their live terms' ordered sums
    (`_JetPlan.quadratic`, `_JetPlan.cubic`), with [theta, theta] the
    contraction the verdicts read (`_JetPlan.contract`), equal bit for bit
    to the dense `np.einsum`s over the trees' values.  Without [theta,
    theta] the defect is the geodesic equation's own residual.
    """
    if len(traj.xs) < 3:
        raise DynamicsError("need at least 3 stored states for finite differences")
    values = plan.plan.table(traj.xs[1:-1])[0]
    v, p = traj.velocities, traj.ps[1:-1]
    defect = (v[2:] - v[:-2]) / (2.0 * traj.dt) + plan.quadratic(values, v[1:-1], v[1:-1])
    return _norms(defect - 0.25 * plan.cubic(p, p, plan.contract(values, values)[2]))


def geodesic_residual_along(conn: Connection, traj: Trajectory) -> np.ndarray:
    """|nabla_{xdot} xdot| at a trajectory's interior states (self-consistency),
    from the jet plan of theta = 0 and Gamma; no pair is built, so Gamma may
    have torsion."""
    zero = np.full((conn.chart.n,) * 2, ex.ZERO, dtype=object)
    return _geodesic_defect(_JetPlan(zero, conn.gamma), traj)


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
    return ex.Plan([speed_square_field(pair).f.expr]).table(np.hstack([traj.xs, traj.ps]))[0][:, 0]


def monitor_geodesic_residual(pair: SymPoissonPair, traj: Trajectory) -> np.ndarray:
    """Per interior step: | nabla_{xdot} xdot - (1/4) i_a i_a [theta,theta] |.

    Every leaf of the pair's jet plan (theta, d theta and Gamma) is read at
    the interior states from one table, and [theta, theta] is contracted
    from them as the cyclic sum the verdicts read; no bracket tree is built
    (see `_geodesic_defect`).  A leaf that fails raises its located error,
    named in the plan's leaf order.  A defect that is not finite, such as
    one whose square overflows, raises DynamicsError naming the first such
    step.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        defect = _geodesic_defect(pair._jet_plan, traj)
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

    One row per stored state.  Each value is exactly what `'%.17g'` prints
    for the stored double, `nan` and `inf` included (full double precision,
    17 significant digits); the whole table is written by one vectorized
    routine, `_csv_rows`.
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
    return ",".join(header) + "\n" + _csv_rows(table)


# Each value x != 0 is printed from its 17 significant digits, the integer
# D = |x| 10^(16-e) rounded half to even, 10^16 <= D < 10^17, where
# e = floor(log10 |x|).  `_decimal` forms |x| 10^(16-e) exactly as p + q:
# p = fl(|x| hi) is an integer (p > 2^53), q = err + fl(|x| lo), err = |x| hi - p
# is exact by Dekker's product, and hi + lo is 10^(16-e) rounded twice from
# exact integers.  q is within 5e-15 of the exact remainder, so
# D = p + floor(q) + (frac(q) > 1/2) unless frac(q) is within _TIE of 1/2.
# Those values, a floor p + floor(q) outside [10^16, 10^17) (log10 put e one
# off), zeros, inf, NaN and |x| outside [_LOW, _HIGH] (where the split
# overflows) are printed by '%.17g' itself.
_BLOCK = 4096  # values laid out at a time, so the temporaries stay small
_LOW, _HIGH = 1e-270, 1e270
_TIE = 1e-13
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
_EMIN = -330  # exponent suffixes from 10^-330 up: past both ends of [_LOW, _HIGH]


def _digit_groups() -> np.ndarray:
    """The 4 ASCII digits of 0..9999 as uint32; at 10000 + g, g's digits without its trailing zeros."""
    out = np.empty((2, 10000, 4), np.uint8)
    out[:] = 48 + np.indices((10,) * 4, np.uint8).reshape(4, -1).T
    trailing = np.ones(10000, bool)
    for j in (3, 2, 1, 0):
        trailing &= out[1, :, j] == 48
        out[1, trailing, j] = 0
    return out.view(np.uint32).ravel()


def _exponent_suffixes() -> np.ndarray:
    """'e-05', 'e+17', 'e+100' ... as uint64 for the exponents _EMIN..-_EMIN."""
    e = np.arange(_EMIN, -_EMIN + 1)
    a = np.abs(e)
    wide = a >= 100
    out = np.zeros((len(e), 8), np.uint8)
    out[:, 0] = ord("e")
    out[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    out[:, 2] = 48 + np.where(wide, a // 100, a // 10 % 10)
    out[:, 3] = 48 + np.where(wide, a // 10 % 10, a % 10)
    out[:, 4] = np.where(wide, 48 + a % 10, 0)
    return out.view(np.uint64).ravel()


# the 8 bytes before the last 16 digits, right-aligned, at 60 * negative +
# 10 * form + leading digit: the forms are 'd', 'd.' and, for e = -1..-4,
# '0.d', '0.0d', '0.00d', '0.000d'
_LEADS = np.frombuffer(
    b"".join(
        (sign + head + bytes([48 + d]) + tail).rjust(8, b"\0")
        for sign in (b"", b"-")
        for head, tail in [(b"", b""), (b"", b".")] + [(b"0." + b"0" * z, b"") for z in range(4)]
        for d in range(10)
    ),
    np.uint64,
)
_QUADS = _digit_groups()
_EXPONENTS = _exponent_suffixes()
_COLUMNS = np.arange(18)


def _scale(s: int) -> tuple[float, float]:
    """10^s as hi + lo: hi is 10^s rounded to a double, lo the rounded remainder."""
    if s >= 0:
        hi = float(10**s)
        return hi, float(10**s - int(hi))
    k = 10**-s
    hi = 1 / k
    num, den = hi.as_integer_ratio()
    return hi, (den - num * k) / (den * k)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, e, exact) for each value: |x| to 17 digits is D 10^(e-16) where `exact`.

    Elsewhere D is 10^16 and e is meaningless (see the comment above).
    """
    a = np.abs(x)
    exact = (a >= _LOW) & (a <= _HIGH)
    a[~exact] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    s = 16 - e
    first = int(s.min())
    hi_t, lo_t = np.empty((2, int(s.max()) - first + 1))
    for j in np.flatnonzero(np.bincount(s - first)).tolist():
        hi_t[j], lo_t[j] = _scale(first + j)
    hi, lo = hi_t[s - first], lo_t[s - first]
    p = a * hi
    ah, al = _split(a)
    hh, hl = _split(hi)
    q = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    whole = np.floor(q)
    frac = q - whole
    d = p.astype(np.int64) + whole.astype(np.int64)
    exact &= (d >= 10**16) & (d < 10**17) & (np.abs(frac - 0.5) > _TIE)
    d += frac > 0.5
    carry = d == 10**17
    d[carry | ~exact] = 10**16
    return d, e + carry, exact


def _slots(x: np.ndarray) -> np.ndarray:
    """(len(x), 32) uint8: each value's '%.17g' bytes with zero bytes among them.

    A slot is the lead (`_LEADS`), four groups of 4 digits (`_QUADS`, the
    trailing zeros of the number blanked), the exponent suffix and, in its
    last byte, room for the separator.  A fixed-point value with e >= 1
    moves its digits after the integer part one byte right for the point.
    """
    d, e, exact = _decimal(x)
    top = d // 10**16
    rest = d - top * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    groups = np.empty((len(x), 4), np.int64)
    groups[:, 0] = high // 10**4
    groups[:, 1] = high - groups[:, 0] * 10**4
    groups[:, 2] = low // 10**4
    groups[:, 3] = low - groups[:, 2] * 10**4 + 10000
    # a group drops its trailing zeros when every group after it is 0
    groups[:, 2] += 10000 * (groups[:, 3] == 10000)
    groups[:, 1] += 10000 * (low == 0)
    groups[:, 0] += 10000 * ((low == 0) & (groups[:, 1] == 10000))
    out = np.empty((len(x), 32), np.uint8)
    words = out.view(np.uint64)
    out.view(np.uint32)[:, 2:6] = _QUADS.take(groups)
    small = (e < 0) & (e >= -4)
    fixed = (e > 0) & (e < 17)
    form = np.where(small, 1 - e, np.where(fixed, 0, rest != 0))
    words[:, 0] = _LEADS.take(60 * (x < 0) + 10 * form + top)
    words[:, 3] = 0
    wide = np.flatnonzero((e < -4) | (e > 16))
    words[wide, 3] = _EXPONENTS[e[wide] - _EMIN]
    at = np.flatnonzero(fixed)
    if len(at):
        # the integer part keeps its zeros; the point follows it if digits do
        ef = e[at][:, None]
        digits = out[at, 7:25]
        digits = np.where((_COLUMNS <= ef) & (digits == 0), 48, digits)
        point = np.where(np.take_along_axis(digits, ef + 1, axis=1) != 0, 46, 0)
        moved = np.zeros_like(digits)
        moved[:, 1:] = digits[:, :-1]
        out[at, 7:25] = np.where(_COLUMNS <= ef, digits, np.where(_COLUMNS == ef + 1, point, moved))
    back = np.flatnonzero(~exact)
    if len(back):
        text = ["%.17g" % v for v in x[back].tolist()]
        out[back, :31] = np.array(text, "S31").view(np.uint8).reshape(-1, 31)
    return out


def _csv_rows(table: np.ndarray) -> str:
    """The rows of a (rows, columns) float table as CSV lines, each value as '%.17g' prints it."""
    rows, cols = table.shape
    step = max(1, _BLOCK // cols)
    parts = []
    for start in range(0, rows, step):
        block = table[start : start + step]
        out = _slots(block.ravel())
        sep = out[:, 31].reshape(block.shape)
        sep[:, :-1] = ord(",")
        sep[:, -1] = ord("\n")
        parts.append(out[out != 0].tobytes().decode("ascii"))
    return "".join(parts)
