"""Chart-based symmetric tensor calculus.

Conventions (see CONVENTIONS.md at the repo root for worked component
formulas):

- Tensor components are stored as full symmetric arrays indexed by all
  permutations, e.g. a degree-2 field stores T[i][j] = T[j][i].  A
  `_SymField`'s components are symmetric by construction, so the builders
  (`_build_components`) build each sorted index once and store that one node
  at every permutation of it: T[j][i] is T[i][j].
- The symmetric product `sym_product` is the unnormalized shuffle sum, so for
  vector fields (X . Y)^{ij} = X^i Y^j + X^j Y^i and X . X = 2 (X x X).
- Contraction of a 1-form into a degree-r field fills the first slot with no
  combinatorial factor: (i_a A)^{j...} = a_m A^{m j...}.  It is a degree -1
  derivation of the shuffle product.
- The symmetric derivative of a degree-r form places the derivative index in
  each of the r+1 slots and sums (equivalently (r+1) sym grad phi).

Degrees are capped at 4; nothing in the toolkit needs more.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from typing import Iterable, Sequence

import numpy as np

from . import expr as ex
from .defaults import N_SAMPLES, SEED, TOL
from .expr import ScalarField

DEGREE_CAP = 4


class GeometryError(Exception):
    pass


class ChartMismatchError(GeometryError):
    pass


class TorsionError(GeometryError):
    pass


class DegenerateMetricError(GeometryError):
    pass


class Chart:
    """A coordinate chart: dimension, coordinate names, and a sample box."""

    __slots__ = ("names", "box", "_samples")

    def __init__(
        self,
        names: Sequence[str],
        box: Sequence[tuple[float, float]] | None = None,
    ):
        names = tuple(names)
        if len(names) < 1:
            raise GeometryError("chart needs at least one coordinate")
        if len(set(names)) != len(names):
            raise GeometryError("coordinate names must be distinct")
        for i, name in enumerate(names):
            # a name that does not parse back to its own coordinate could not
            # be read from an exported structure file
            try:
                readable = ex.parse(name, names).expr is ex.var(i)
            except ex.ExprError:
                readable = False
            if not readable:
                raise GeometryError(f"coordinate name {name!r} is not an identifier the expression parser reads")
        self.names = names
        self.box = tuple(box) if box is not None else tuple((-1.0, 1.0) for _ in names)
        if len(self.box) != len(names):
            raise GeometryError("sample box must list one interval per coordinate")
        for lo, hi in self.box:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise GeometryError(f"sample box interval {lo:g}:{hi:g} must be finite with lo < hi")
        self._samples: dict[tuple[int, int], np.ndarray] = {}

    @property
    def n(self) -> int:
        return len(self.names)

    def parse(self, text: str) -> ScalarField:
        return ex.parse(text, self.names)

    def coordinate(self, i: int) -> ScalarField:
        return ScalarField.coordinate(i, self.n)

    def zero(self) -> ScalarField:
        return ScalarField.zero(self.n)

    def constant(self, v: float) -> ScalarField:
        return ScalarField.constant(v, self.n)

    def sample_points(self, count: int = N_SAMPLES, seed: int = SEED) -> np.ndarray:
        if count < 1:
            raise GeometryError(f"sample count must be at least 1, got {count}")
        key = (count, seed)
        if key not in self._samples:
            self._samples[key] = ex.sample_box(self.box, count, seed)
        return self._samples[key]

    def __eq__(self, other):
        return isinstance(other, Chart) and self.names == other.names and self.box == other.box

    def __hash__(self):
        return hash((self.names, self.box))

    def __repr__(self):
        return f"Chart({', '.join(self.names)})"


def _require_same_chart(*objs):
    charts = {o.chart for o in objs}
    if len(charts) > 1:
        raise ChartMismatchError(f"objects live on different charts: {charts}")


def _require_points(chart: Chart, points, ndim: int):
    """Refuse a point (ndim 1) or samples (ndim 2) without one value per coordinate."""
    shape = np.shape(points)
    if len(shape) != ndim or shape[-1] != chart.n:
        raise GeometryError(f"points of shape {shape} on a chart of dimension {chart.n}")


def _as_field(chart: Chart, value) -> ScalarField:
    if isinstance(value, ScalarField):
        if value.arity != chart.n:
            raise ChartMismatchError("scalar field arity does not match chart")
        return value
    if isinstance(value, str):
        return chart.parse(value)
    return chart.constant(float(value))


def _zero_comps(n: int, degree: int) -> np.ndarray:
    comps = np.empty((n,) * degree, dtype=object)
    comps[...] = ex.ZERO
    return comps


@functools.cache
def _orbits(n: int, rank: int) -> tuple:
    """Each sorted multi-index of the given rank with its distinct permutations."""
    return tuple(
        (idx, tuple(set(itertools.permutations(idx))))
        for idx in itertools.combinations_with_replacement(range(n), rank)
    )


def _build_components(n: int, rank: int, build, fixed: int = 0) -> np.ndarray:
    """The (n,)*rank component array symmetric in the axes after `fixed`.

    `build(idx)` runs once per index whose axes after `fixed` are sorted, in
    lexicographic order, and its node is stored at every permutation of
    those axes.  Callers build from symmetric fields, whose components are
    symmetric by construction, so the skipped builds would only have summed
    the same terms in another order.  With `fixed=rank` it runs once per
    index, in `np.ndindex` order: the array need not be symmetric at all.
    """
    comps = np.empty((n,) * rank, dtype=object)
    for head in itertools.product(range(n), repeat=fixed):
        for tail, perms in _orbits(n, rank - fixed):
            node = build(head + tail)
            for perm in perms:
                comps[head + perm] = node
    return comps


def _parity(perm: Sequence[int]) -> int:
    """1 for an odd permutation of range(len(perm)), 0 for an even one."""
    return sum(a > b for a, b in itertools.combinations(perm, 2)) % 2


def _fill(out: np.ndarray, entries: dict, value, sym: int, error: type, sign: int = 1) -> np.ndarray:
    """`out` with `value(v)` of each given {index: v} at the index and at every
    permutation of its last `sym` axes, negated at odd ones when `sign` is -1.
    An index (an int is a 1-tuple) must be `out.ndim` integers in range, and
    its slot (head axes, sorted tail) no other key's; else it raises `error`."""
    head = out.ndim - sym
    perms = [(perm, sign < 0 and _parity(perm)) for perm in itertools.permutations(range(sym))]
    given = {}
    for idx, v in entries.items():
        idx = idx if isinstance(idx, tuple) else (idx,)
        in_range = [isinstance(i, numbers.Integral) and 0 <= i < n for i, n in zip(idx, out.shape)]
        if len(idx) != out.ndim or not all(in_range):
            raise error(f"index {idx} names no entry of shape {out.shape}")
        slot = idx[:head] + tuple(sorted(idx[head:]))
        if slot in given:
            raise error(f"indices {given[slot]} and {idx} name the same entry")
        given[slot] = idx
        node = value(v)
        for perm, odd in perms:
            out[idx[:head] + tuple(idx[head + t] for t in perm)] = -node if odd else node
    return out


class _SymField:
    """Shared machinery for symmetric contravariant/covariant fields."""

    __slots__ = ("chart", "degree", "comps", "_plan")

    def __init__(self, chart: Chart, degree: int, comps: np.ndarray):
        if degree < 0 or degree > DEGREE_CAP:
            raise GeometryError(f"degree {degree} outside supported range 0..{DEGREE_CAP}")
        expected = (chart.n,) * degree
        if comps.shape != expected:
            raise GeometryError(f"component array has shape {comps.shape}, expected {expected}")
        self.chart = chart
        self.degree = degree
        self.comps = comps
        self._plan = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, degree: int):
        return cls(chart, degree, _zero_comps(chart.n, degree))

    @classmethod
    def from_dict(cls, chart: Chart, degree: int, entries: dict):
        """Build from {multi_index: expression}; symmetry filled in automatically.

        Indices are 0-based tuples (an int for degree 1).  A value may be an
        Expr source string, a ScalarField, or a number.
        """
        comps = _fill(_zero_comps(chart.n, degree), entries, lambda v: _as_field(chart, v).expr, degree, GeometryError)
        return cls(chart, degree, comps)

    @classmethod
    def from_scalar(cls, f: ScalarField, chart: Chart):
        comps = np.empty((), dtype=object)
        comps[()] = f.expr
        return cls(chart, 0, comps)

    # -- basic queries ---------------------------------------------------------

    def entry(self, *idx) -> ScalarField:
        return ScalarField(self.comps[idx], self.chart.n)

    def scalar(self) -> ScalarField:
        if self.degree != 0:
            raise GeometryError("not a degree-0 field")
        return ScalarField(self.comps[()], self.chart.n)

    def plan(self) -> ex.Plan:
        """The evaluation plan of the components, built once per field."""
        if self._plan is None:
            self._plan = ex.Plan(self.comps.flat)
        return self._plan

    def evaluate(self, point: Sequence[float]) -> np.ndarray:
        """Numeric component array at a point."""
        _require_points(self.chart, point, 1)
        return np.array(self.plan().values(point), dtype=float).reshape(self.comps.shape)

    def evaluate_on(self, samples) -> np.ndarray:
        """The component arrays at every sample, stacked: `Plan.table`, so the
        first sample at which `evaluate` raises raises its error here."""
        _require_points(self.chart, samples, 2)
        values = self.plan().table(samples)[0]
        return np.ascontiguousarray(values).reshape((len(values),) + self.comps.shape)

    def residual_on(self, samples: Iterable[Sequence[float]] | None = None) -> float:
        """Worst scaled residual of all components over the samples (default: the chart's)."""
        if samples is None:
            samples = self.chart.sample_points()
        _require_points(self.chart, samples, 2)
        return self.plan().residual(samples)

    def is_zero_on(self, samples: Iterable[Sequence[float]] | None = None) -> bool:
        return self.residual_on(samples) <= TOL

    # -- arithmetic --------------------------------------------------------------

    def _map(self, op, *others):
        """The field of the same kind with components op(T[idx], *(O[idx] for O in others))."""
        comps = _build_components(
            self.chart.n, self.degree, lambda idx: op(self.comps[idx], *(o.comps[idx] for o in others))
        )
        return type(self)(self.chart, self.degree, comps)

    def _binary(self, other, op):
        if isinstance(other, _SymField):
            if type(other) is not type(self):
                raise GeometryError("cannot mix covariant and contravariant fields")
            _require_same_chart(self, other)
            if other.degree != self.degree:
                raise GeometryError("degree mismatch")
            return self._map(op, other)
        raise TypeError(f"unsupported operand {other!r}")

    def __add__(self, other):
        return self._binary(other, ex.add)

    def __sub__(self, other):
        return self._binary(other, ex.sub)

    def __neg__(self):
        return self._map(ex.neg)

    def scale(self, factor) -> "_SymField":
        """Multiply by a scalar field or number."""
        f = _as_field(self.chart, factor)
        return self._map(lambda e: ex.mul(f.expr, e))

    def __mul__(self, factor):
        return self.scale(factor)

    __rmul__ = __mul__

    def __repr__(self):
        kind = type(self).__name__
        if self.degree == 0:
            return f"{kind}[deg 0]({self.comps[()]})"
        return f"{kind}[deg {self.degree}] on {self.chart!r}"


class SymTensorField(_SymField):
    """Totally symmetric contravariant field (degree 1 = vector field)."""


class SymFormField(_SymField):
    """Totally symmetric covariant field (degree 2 = metric candidate)."""


# ---------------------------------------------------------------------------
# Connections and curvature
# ---------------------------------------------------------------------------

class Connection:
    """Affine connection given by Christoffel symbols G[k][i][j] on a chart.

    The upper index comes first: nabla_{d_i} d_j = G[k][i][j] d_k.
    """

    __slots__ = ("chart", "gamma", "_plan", "_torsion_free")

    def __init__(self, chart: Chart, gamma: np.ndarray):
        n = chart.n
        if gamma.shape != (n, n, n):
            raise GeometryError(f"gamma must have shape {(n, n, n)}")
        self.chart = chart
        self.gamma = gamma
        self._plan = None
        self._torsion_free: bool | None = None

    @classmethod
    def euclidean(cls, chart: Chart) -> "Connection":
        return cls(chart, _zero_comps(chart.n, 3))

    @classmethod
    def from_dict(cls, chart: Chart, entries: dict) -> "Connection":
        """Sparse Christoffels {(k, i, j): expr}, each stored at (k, j, i) too;
        a connection with torsion is built from its full array."""
        gamma = _fill(_zero_comps(chart.n, 3), entries, lambda v: _as_field(chart, v).expr, 2, GeometryError)
        return cls(chart, gamma)

    def entry(self, k: int, i: int, j: int) -> ScalarField:
        return ScalarField(self.gamma[k, i, j], self.chart.n)

    def gamma_at(self, point: Sequence[float]) -> np.ndarray:
        """G[k][i][j] at a point (Plan.values)."""
        _require_points(self.chart, point, 1)
        if self._plan is None:
            self._plan = ex.Plan(self.gamma.flat)
        return np.array(self._plan.values(point)).reshape(self.gamma.shape)

    def is_torsion_free(self) -> bool:
        """Whether the torsion vanishes on the chart's samples; computed once.

        A slot pair that holds one node, as every symmetric builder and
        structure file stores G^k_{ij} and G^k_{ji}, has no torsion and is not
        sampled; with no other pair the answer is True without sampling.
        """
        if self._torsion_free is None:
            n, g = self.chart.n, self.gamma
            torsion = [
                ex.sub(g[k, i, j], g[k, j, i])
                for k in range(n)
                for i in range(n)
                for j in range(i + 1, n)
                if g[k, i, j] is not g[k, j, i]
            ]
            self._torsion_free = not torsion or ex.residual(torsion, self.chart.sample_points()) <= TOL
        return self._torsion_free

    def require_torsion_free(self):
        if not self.is_torsion_free():
            raise TorsionError("operation requires a torsion-free connection")

    def __repr__(self):
        return f"Connection on {self.chart!r}"


def torsion_free_part(conn: Connection) -> Connection:
    """The associated torsion-free connection: gamma0 = (gamma + gamma^T)/2."""
    g = conn.gamma
    half = ex.const(0.5)

    def build(idx):
        k, i, j = idx
        return ex.mul(half, ex.add(g[k, i, j], g[k, j, i]))

    return Connection(conn.chart, _build_components(conn.chart.n, 3, build, fixed=3))


class CurvatureField:
    """Curvature R[l][k][i][j]: R(d_i, d_j) d_k = R[l][k][i][j] d_l."""

    __slots__ = ("chart", "comps", "_plan")

    def __init__(self, chart: Chart, comps: np.ndarray):
        self.chart = chart
        self.comps = comps
        self._plan = None

    plan = _SymField.plan
    evaluate = _SymField.evaluate
    residual_on = _SymField.residual_on
    is_zero_on = _SymField.is_zero_on


# ---------------------------------------------------------------------------
# Symmetric algebra operations
# ---------------------------------------------------------------------------

def sym_product(a: _SymField, b: _SymField):
    """Unnormalized shuffle product; commutative, associative, bilinear."""
    if type(a) is not type(b):
        raise GeometryError("cannot multiply covariant with contravariant")
    _require_same_chart(a, b)
    p, q = a.degree, b.degree
    if p + q > DEGREE_CAP:
        raise GeometryError(f"product degree {p + q} exceeds cap {DEGREE_CAP}")
    if p == 0:
        return b.scale(a.scalar())
    if q == 0:
        return a.scale(b.scalar())
    positions = range(p + q)
    splits = [(s, tuple(t for t in positions if t not in s)) for s in itertools.combinations(positions, p)]

    def build(idx):
        return ex.expr_sum([
            ex.mul(a.comps[tuple(idx[t] for t in sa)], b.comps[tuple(idx[t] for t in sb)]) for sa, sb in splits
        ])

    return type(a)(a.chart, p + q, _build_components(a.chart.n, p + q, build))


def _contract_first_slot(one_comps: np.ndarray, comps: np.ndarray) -> np.ndarray:
    """a_m T^{m j...}: a 1-index array against the first axis of a component
    array that is symmetric in the other axes."""
    n = len(one_comps)
    return _build_components(
        n, comps.ndim - 1, lambda idx: ex.expr_sum([ex.mul(one_comps[m], comps[(m,) + idx]) for m in range(n)])
    )


def contract(a, b):
    """Single contraction of a degree-1 object into a symmetric field.

    Either a 1-form into a SymTensorField or a vector field into a
    SymFormField; in both cases (i_a T)^{j...} = a_m T^{m j...}, which is a
    degree -1 derivation of the shuffle product.  Contraction into a degree-0
    field returns the zero scalar.
    """
    if isinstance(a, SymFormField) and isinstance(b, SymTensorField):
        pass
    elif isinstance(a, SymTensorField) and isinstance(b, SymFormField):
        pass
    else:
        raise GeometryError("contract expects (form, tensor) or (vector, form)")
    if a.degree != 1:
        raise GeometryError("first argument must have degree 1")
    _require_same_chart(a, b)
    if b.degree == 0:
        return type(b).zero(b.chart, 0)
    return type(b)(b.chart, b.degree - 1, _contract_first_slot(a.comps, b.comps))


def multi_contract(x: SymTensorField, phi: SymFormField) -> SymFormField:
    """Contraction of a degree-r multivector into a degree-s form.

    On decomposables it is the composition of single contractions, which in
    full component arrays carries a 1/r! factor:
    (i_X phi)_{j...} = (1/r!) X^{i1..ir} phi_{i1..ir j...}.
    Returns zero when r exceeds s; scalars act by multiplication.
    """
    _require_same_chart(x, phi)
    r, s = x.degree, phi.degree
    if r == 0:
        return phi.scale(x.scalar())
    if r > s:
        return SymFormField.zero(phi.chart, 0)
    n = x.chart.n
    inv = ex.const(1.0 / math.factorial(r))
    multis = list(np.ndindex(*(n,) * r))

    def build(idx):
        return ex.mul(inv, ex.expr_sum([ex.mul(x.comps[multi], phi.comps[multi + idx]) for multi in multis]))

    return SymFormField(phi.chart, s - r, _build_components(n, s - r, build))


def differential(f: ScalarField, chart: Chart) -> SymFormField:
    """df as a degree-1 form."""
    return SymFormField.from_dict(chart, 1, {(i,): f.diff(i) for i in range(chart.n)})


class MixedDerivative:
    """Covariant derivative of a symmetric field: one extra covariant slot.

    comps[i][J] = (nabla_{d_i} T)^J with the derivative index first.
    """

    __slots__ = ("chart", "base_kind", "base_degree", "comps", "_plan")

    def __init__(self, chart: Chart, base_kind: type, base_degree: int, comps: np.ndarray):
        self.chart = chart
        self.base_kind = base_kind
        self.base_degree = base_degree
        self.comps = comps
        self._plan = None

    plan = _SymField.plan
    residual_on = _SymField.residual_on
    is_zero_on = _SymField.is_zero_on

    def directional(self, i: int):
        """nabla_{d_i} T as a field of the original kind."""
        return self.base_kind(self.chart, self.base_degree, _slot_fill(self.comps, i))

    def along(self, x: SymTensorField):
        """nabla_X T for a vector field X."""
        if x.degree != 1:
            raise GeometryError("direction must be a vector field")
        return self.base_kind(self.chart, self.base_degree, _contract_first_slot(x.comps, self.comps))


def covariant_derivative(conn: Connection, t: _SymField) -> MixedDerivative:
    """nabla T with the extra covariant slot first.

    Contravariant degree r:
      (nabla_i T)^{j1..jr} = d_i T^{j1..jr} + sum_a G^{ja}_{i m} T^{..m..}
    Covariant degree r:
      (nabla_i phi)_{j1..jr} = d_i phi_{j1..jr} - sum_a G^{m}_{i ja} phi_{..m..}
    """
    _require_same_chart(conn, t)
    n = conn.chart.n
    r = t.degree
    contravariant = isinstance(t, SymTensorField)

    def build(full):
        i, idx = full[0], full[1:]
        terms = [t.comps[idx].diff(i)]
        for a, ja in enumerate(idx):
            for m in range(n):
                swapped = idx[:a] + (m,) + idx[a + 1:]
                if contravariant:
                    terms.append(ex.mul(conn.gamma[ja, i, m], t.comps[swapped]))
                else:
                    terms.append(ex.neg(ex.mul(conn.gamma[m, i, ja], t.comps[swapped])))
        return ex.expr_sum(terms)

    return MixedDerivative(conn.chart, type(t), r, _build_components(n, r + 1, build, fixed=1))


def symmetric_derivative(conn: Connection, phi: SymFormField) -> SymFormField:
    """(r+1) sym(nabla phi): the derivative index is summed over every slot."""
    conn.require_torsion_free()
    nabla = covariant_derivative(conn, phi)
    r = phi.degree

    def build(idx):
        return ex.expr_sum([nabla.comps[(idx[m],) + idx[:m] + idx[m + 1:]] for m in range(r + 1)])

    return SymFormField(conn.chart, r + 1, _build_components(conn.chart.n, r + 1, build))


def symmetric_bracket(conn: Connection, x: SymTensorField, y: SymTensorField) -> SymTensorField:
    """<X, Y> = nabla_X Y + nabla_Y X."""
    conn.require_torsion_free()
    if x.degree != 1 or y.degree != 1:
        raise GeometryError("symmetric bracket is defined on vector fields")
    _require_same_chart(conn, x, y)
    return covariant_derivative(conn, y).along(x) + covariant_derivative(conn, x).along(y)


def lie_bracket(x: SymTensorField, y: SymTensorField) -> SymTensorField:
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k (no connection needed)."""
    if x.degree != 1 or y.degree != 1:
        raise GeometryError("lie bracket is defined on vector fields")
    _require_same_chart(x, y)
    n = x.chart.n

    def build(idx):
        terms = []
        for i in range(n):
            terms.append(ex.mul(x.comps[(i,)], y.comps[idx].diff(i)))
            terms.append(ex.neg(ex.mul(y.comps[(i,)], x.comps[idx].diff(i))))
        return ex.expr_sum(terms)

    return SymTensorField(x.chart, 1, _build_components(n, 1, build, fixed=1))


def symmetric_lie_derivative(conn: Connection, x: SymTensorField, phi: SymFormField) -> SymFormField:
    """L^s_X phi = i_X nabla^s phi - nabla^s i_X phi."""
    conn.require_torsion_free()
    first = contract(x, symmetric_derivative(conn, phi))
    if phi.degree == 0:
        # i_X phi = 0 for scalars, so only the first term survives; its degree is 0.
        return first
    return first - symmetric_derivative(conn, contract(x, phi))


def schouten(conn: Connection, a: SymTensorField, b: SymTensorField) -> SymTensorField:
    """Symmetric multivector bracket via the trace formula.

    [A, B] = sum_m  (i_{dx^m} A) . (nabla_m B) + (nabla_m A) . (i_{dx^m} B)

    For vector fields this is <X, Y>; [X, f] = Xf; each [A, .] is a
    degree-(deg A - 1) derivation of the shuffle product and the bracket is
    commutative.
    """
    conn.require_torsion_free()
    _require_same_chart(conn, a, b)
    return _trace_bracket(a, b, lambda t: covariant_derivative(conn, t).directional, operator.add)


def anticommutative_schouten(a: SymTensorField, b: SymTensorField) -> SymTensorField:
    """The connection-free antisymmetric bracket on symmetric multivectors.

    [A, B] = sum_m (i_{dx^m} A) . (d_m B) - (d_m A) . (i_{dx^m} B)

    restricts to the Lie bracket on vector fields and to [X, f] = Xf, and is
    a derivation in each slot.  Partial derivatives replace the connection;
    the axioms force chart independence.
    """
    return _trace_bracket(a, b, lambda t: lambda m: _partial(t, m), operator.sub)


def _trace_bracket(a: SymTensorField, b: SymTensorField, derivative, combine) -> SymTensorField:
    """sum_m (i_{dx^m} A) . (D_m B), then `combine` with (D_m A) . (i_{dx^m} B).

    `derivative(T)` gives the map m -> D_m T; it runs once per field, after
    the degree checks.  `combine` is operator.add or operator.sub.
    """
    _require_same_chart(a, b)
    r, l = a.degree, b.degree
    if r + l < 1:
        raise GeometryError("bracket needs total degree at least 1")
    if r + l - 1 > DEGREE_CAP:
        raise GeometryError(f"bracket degree {r + l - 1} exceeds cap {DEGREE_CAP}")
    da, db = derivative(a), derivative(b)
    out = SymTensorField.zero(a.chart, r + l - 1)
    for m in range(a.chart.n):
        if r >= 1:
            out = out + sym_product(type(a)(a.chart, r - 1, _slot_fill(a.comps, m)), db(m))
        if l >= 1:
            out = combine(out, sym_product(da(m), type(b)(b.chart, l - 1, _slot_fill(b.comps, m))))
    return out


def _slot_fill(comps: np.ndarray, m: int) -> np.ndarray:
    """i_{dx^m} T: the components with the first index fixed to m (no factor)."""
    return comps[m, ...].copy()


def _partial(t: _SymField, m: int):
    return t._map(lambda e: e.diff(m))


def schouten_decomposable(
    conn: Connection,
    xs: Sequence[SymTensorField],
    ys: Sequence[SymTensorField],
) -> SymTensorField:
    """Independent oracle for the bracket of decomposables X1...Xr, Y1...Yl:

    sum_{j,i} <X_j, Y_i> . X_1...^X_j...X_r . Y_1...^Y_i...Y_l
    """
    out = None
    for j in range(len(xs)):
        for i in range(len(ys)):
            term = symmetric_bracket(conn, xs[j], ys[i])
            for t, x in enumerate(xs):
                if t != j:
                    term = sym_product(term, x)
            for t, y in enumerate(ys):
                if t != i:
                    term = sym_product(term, y)
            out = term if out is None else out + term
    if out is None:
        raise GeometryError("need at least one factor on each side")
    return out


def sym_product_many(factors: Sequence[_SymField]):
    out = factors[0]
    for f in factors[1:]:
        out = sym_product(out, f)
    return out


# ---------------------------------------------------------------------------
# Curvature, metrics
# ---------------------------------------------------------------------------

def curvature(conn: Connection) -> CurvatureField:
    """R^l_{k i j} = d_i G^l_{j k} - d_j G^l_{i k} + G^l_{i m} G^m_{j k} - G^l_{j m} G^m_{i k}."""
    n = conn.chart.n
    g = conn.gamma

    def build(idx):
        l, k, i, j = idx
        terms = [g[l, j, k].diff(i), ex.neg(g[l, i, k].diff(j))]
        for m in range(n):
            terms.append(ex.mul(g[l, i, m], g[m, j, k]))
            terms.append(ex.neg(ex.mul(g[l, j, m], g[m, i, k])))
        return ex.expr_sum(terms)

    return CurvatureField(conn.chart, _build_components(n, 4, build, fixed=4))


def ricci(conn: Connection) -> np.ndarray:
    """Ric_{k j} = R^l_{k l j} as a covariant component array."""
    r = curvature(conn).comps
    n = conn.chart.n
    return _build_components(n, 2, lambda idx: ex.expr_sum([r[l, idx[0], l, idx[1]] for l in range(n)]), fixed=2)


def _symbolic_inverse(m: np.ndarray) -> np.ndarray:
    """Adjugate-over-determinant inverse of a square array of Expr.

    When every m[i, j] is m[j, i], the inverse is built symmetric: entry
    (i, j) with i <= j once, and stored at (j, i) too.
    """
    n = m.shape[0]
    det = _symbolic_det(m)

    def entry(idx):
        i, j = idx
        cof = _symbolic_det(np.delete(np.delete(m, j, axis=0), i, axis=1))
        return ex.div(ex.neg(cof) if (i + j) % 2 == 1 else cof, det)

    symmetric = all(m[i, j] is m[j, i] for i in range(n) for j in range(i))
    return _build_components(n, 2, entry, fixed=0 if symmetric else 2)


def _symbolic_det(m: np.ndarray):
    n = m.shape[0]
    if n == 0:
        return ex.ONE
    if n == 1:
        return m[0, 0]
    terms = []
    for perm in itertools.permutations(range(n)):
        prod = ex.expr_product([m[i, perm[i]] for i in range(n)])
        terms.append(ex.neg(prod) if _parity(perm) else prod)
    return ex.expr_sum(terms)


def invert_metric(g: _SymField) -> _SymField:
    """Symbolic inverse of a nondegenerate degree-2 field, as the other kind.

    A metric gives a bivector and a bivector gives a form, so
    `invert_bivector` is the same routine.  Checks invertibility on samples.
    """
    if g.degree != 2:
        raise GeometryError("inversion expects a degree-2 field")
    samples = g.chart.sample_points()
    m = g.evaluate_on(samples)
    scale = np.abs(m).max(axis=(1, 2)) + 1.0
    degenerate = np.abs(np.linalg.det(m)) <= (TOL * scale) ** g.chart.n
    if degenerate.any():
        raise DegenerateMetricError(f"degenerate at sample point {tuple(samples[np.argmax(degenerate)])}")
    dual = SymTensorField if isinstance(g, SymFormField) else SymFormField
    return dual(g.chart, 2, _symbolic_inverse(g.comps))


invert_bivector = invert_metric


def levi_civita(g: SymFormField) -> Connection:
    """G^k_{ij} = 1/2 g^{kl} (d_i g_{lj} + d_j g_{li} - d_l g_{ij})."""
    ginv = invert_metric(g).comps
    n = g.chart.n
    half = ex.const(0.5)

    def build(idx):
        k, i, j = idx
        terms = []
        for l in range(n):
            inner = ex.add(
                g.comps[l, j].diff(i),
                ex.sub(g.comps[l, i].diff(j), g.comps[i, j].diff(l)),
            )
            terms.append(ex.mul(ginv[k, l], inner))
        return ex.mul(half, ex.expr_sum(terms))

    return Connection(g.chart, _build_components(n, 3, build, fixed=3))


def raise_indices(ginv: _SymField, phi: _SymField) -> _SymField:
    """g^{-1}(phi): raise every slot with the inverse metric.

    The result has the kind of the degree-2 field that maps the slots, so
    `lower_indices(g, t)` is the same routine with the metric g.
    """
    _require_same_chart(ginv, phi)
    n = phi.chart.n
    r = phi.degree
    if r == 0:
        return type(ginv)(phi.chart, 0, phi.comps.copy())
    multis = list(np.ndindex(*(n,) * r))

    def build(idx):
        return ex.expr_sum([
            ex.expr_product([*(ginv.comps[i, j] for i, j in zip(idx, multi)), phi.comps[multi]]) for multi in multis
        ])

    return type(ginv)(phi.chart, r, _build_components(n, r, build))


lower_indices = raise_indices


def is_killing(conn: Connection, phi: SymFormField) -> bool:
    """phi is Killing iff nabla^s phi vanishes (kernel of the symmetric derivative)."""
    return symmetric_derivative(conn, phi).is_zero_on()
