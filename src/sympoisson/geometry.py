"""Chart-based symmetric tensor calculus.

Conventions (see CONVENTIONS.md at the repo root for worked component
formulas):

- Tensor components are stored as full symmetric arrays indexed by all
  permutations, e.g. a degree-2 field stores T[i][j] = T[j][i].
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

import itertools
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
        self.names = names
        self.box = tuple(box) if box is not None else tuple((-1.0, 1.0) for _ in names)
        if len(self.box) != len(names):
            raise GeometryError("sample box must list one interval per coordinate")
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


class _SymField:
    """Shared machinery for symmetric contravariant/covariant fields."""

    __slots__ = ("chart", "degree", "comps", "_compiled")

    def __init__(self, chart: Chart, degree: int, comps: np.ndarray):
        if degree < 0 or degree > DEGREE_CAP:
            raise GeometryError(f"degree {degree} outside supported range 0..{DEGREE_CAP}")
        expected = (chart.n,) * degree
        if comps.shape != expected:
            raise GeometryError(f"component array has shape {comps.shape}, expected {expected}")
        self.chart = chart
        self.degree = degree
        self.comps = comps
        self._compiled = None

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
        comps = _zero_comps(chart.n, degree)
        for idx, value in entries.items():
            if isinstance(idx, int):
                idx = (idx,)
            if len(idx) != degree:
                raise GeometryError(f"index {idx} has wrong length for degree {degree}")
            f = _as_field(chart, value)
            for perm in set(itertools.permutations(idx)):
                comps[perm] = f.expr
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
        if self._compiled is None:
            self._compiled = ex.Plan(self.comps.flat)
        return self._compiled

    def evaluate(self, point: Sequence[float]) -> np.ndarray:
        """Numeric component array at a point."""
        return np.array(self.plan().values(point), dtype=float).reshape(self.comps.shape)

    def is_zero_on(
        self,
        samples: Iterable[Sequence[float]] | None = None,
        tol: float = TOL,
    ) -> bool:
        return self.residual_on(samples) <= tol

    def residual_on(self, samples: Iterable[Sequence[float]] | None = None) -> float:
        """Worst scaled residual of all components over the samples."""
        if samples is None:
            samples = self.chart.sample_points()
        return self.plan().residual(samples)

    # -- arithmetic --------------------------------------------------------------

    def _binary(self, other, op):
        if isinstance(other, _SymField):
            if type(other) is not type(self):
                raise GeometryError("cannot mix covariant and contravariant fields")
            _require_same_chart(self, other)
            if other.degree != self.degree:
                raise GeometryError("degree mismatch")
            comps = np.empty(self.comps.shape, dtype=object)
            for idx in np.ndindex(*self.comps.shape):
                comps[idx] = op(self.comps[idx], other.comps[idx])
            return type(self)(self.chart, self.degree, comps)
        raise TypeError(f"unsupported operand {other!r}")

    def __add__(self, other):
        return self._binary(other, ex.add)

    def __sub__(self, other):
        return self._binary(other, ex.sub)

    def __neg__(self):
        comps = np.empty(self.comps.shape, dtype=object)
        for idx in np.ndindex(*self.comps.shape):
            comps[idx] = ex.neg(self.comps[idx])
        return type(self)(self.chart, self.degree, comps)

    def scale(self, factor) -> "_SymField":
        """Multiply by a scalar field or number."""
        f = _as_field(self.chart, factor)
        comps = np.empty(self.comps.shape, dtype=object)
        for idx in np.ndindex(*self.comps.shape):
            comps[idx] = ex.mul(f.expr, self.comps[idx])
        return type(self)(self.chart, self.degree, comps)

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

    def lower_with(self, g: "SymFormField") -> "SymFormField":
        return lower_indices(g, self)


class SymFormField(_SymField):
    """Totally symmetric covariant field (degree 2 = metric candidate)."""

    def raise_with(self, ginv: "SymTensorField") -> "SymTensorField":
        return raise_indices(ginv, self)


def vector_field(chart: Chart, entries: dict) -> SymTensorField:
    return SymTensorField.from_dict(chart, 1, entries)


# ---------------------------------------------------------------------------
# Connections and curvature
# ---------------------------------------------------------------------------

class Connection:
    """Affine connection given by Christoffel symbols G[k][i][j] on a chart.

    The upper index comes first: nabla_{d_i} d_j = G[k][i][j] d_k.
    """

    __slots__ = ("chart", "gamma", "_compiled", "_torsion_free")

    def __init__(self, chart: Chart, gamma: np.ndarray):
        n = chart.n
        if gamma.shape != (n, n, n):
            raise GeometryError(f"gamma must have shape {(n, n, n)}")
        self.chart = chart
        self.gamma = gamma
        self._compiled = None
        self._torsion_free: bool | None = None

    @classmethod
    def euclidean(cls, chart: Chart) -> "Connection":
        return cls(chart, _zero_comps(chart.n, 3))

    @classmethod
    def from_dict(cls, chart: Chart, entries: dict, symmetrize: bool = True) -> "Connection":
        """Sparse Christoffels {(k, i, j): expr}; (i, j)-symmetry applied by default."""
        gamma = _zero_comps(chart.n, 3)
        for (k, i, j), value in entries.items():
            f = _as_field(chart, value)
            gamma[k, i, j] = f.expr
            if symmetrize:
                gamma[k, j, i] = f.expr
        return cls(chart, gamma)

    def entry(self, k: int, i: int, j: int) -> ScalarField:
        return ScalarField(self.gamma[k, i, j], self.chart.n)

    def _compiled_gamma(self):
        if self._compiled is None:
            self._compiled = [
                [[ex.compile_expr(self.gamma[k, i, j]) for j in range(self.chart.n)]
                 for i in range(self.chart.n)]
                for k in range(self.chart.n)
            ]
        return self._compiled

    def gamma_at(self, point: Sequence[float]) -> np.ndarray:
        fns = self._compiled_gamma()
        n = self.chart.n
        out = np.empty((n, n, n), dtype=float)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    out[k, i, j] = fns[k][i][j](point)
        return out

    def is_torsion_free(self, tol: float = TOL) -> bool:
        if self._torsion_free is None:
            n = self.chart.n
            torsion = [
                ex.sub(self.gamma[k, i, j], self.gamma[k, j, i])
                for k in range(n)
                for i in range(n)
                for j in range(i + 1, n)
            ]
            self._torsion_free = ex.residual(torsion, self.chart.sample_points()) <= tol
        return self._torsion_free

    def require_torsion_free(self):
        if not self.is_torsion_free():
            raise TorsionError("operation requires a torsion-free connection")

    def __repr__(self):
        return f"Connection on {self.chart!r}"


def torsion_free_part(conn: Connection) -> Connection:
    """The associated torsion-free connection: gamma0 = (gamma + gamma^T)/2."""
    n = conn.chart.n
    half = ex.const(0.5)
    gamma = _zero_comps(n, 3)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                gamma[k, i, j] = ex.mul(half, ex.add(conn.gamma[k, i, j], conn.gamma[k, j, i]))
    return Connection(conn.chart, gamma)


class CurvatureField:
    """Curvature R[l][k][i][j]: R(d_i, d_j) d_k = R[l][k][i][j] d_l."""

    __slots__ = ("chart", "comps", "_compiled")

    def __init__(self, chart: Chart, comps: np.ndarray):
        self.chart = chart
        self.comps = comps
        self._compiled = None

    def plan(self) -> ex.Plan:
        if self._compiled is None:
            self._compiled = ex.Plan(self.comps.flat)
        return self._compiled

    def evaluate(self, point: Sequence[float]) -> np.ndarray:
        return np.array(self.plan().values(point), dtype=float).reshape(self.comps.shape)

    def is_zero_on(self, samples=None, tol: float = TOL) -> bool:
        if samples is None:
            samples = self.chart.sample_points()
        return self.plan().residual(samples) <= tol


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
    n = a.chart.n
    comps = np.empty((n,) * (p + q), dtype=object)
    positions = range(p + q)
    subsets = list(itertools.combinations(positions, p))
    for idx in np.ndindex(*comps.shape):
        terms = []
        for s in subsets:
            ia = tuple(idx[t] for t in s)
            ib = tuple(idx[t] for t in positions if t not in s)
            terms.append(ex.mul(a.comps[ia], b.comps[ib]))
        comps[idx] = ex.expr_sum(terms)
    return type(a)(a.chart, p + q, comps)


def _contract_first_slot(one_comps: np.ndarray, field: _SymField):
    """a_m T^{m j...} for a 1-index array against the field's first slot."""
    n = field.chart.n
    r = field.degree
    if r == 0:
        return type(field).zero(field.chart, 0)
    comps = np.empty((n,) * (r - 1), dtype=object)
    for idx in np.ndindex(*comps.shape):
        comps[idx] = ex.expr_sum(
            [ex.mul(one_comps[m], field.comps[(m,) + idx]) for m in range(n)]
        )
    return type(field)(field.chart, r - 1, comps)


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
    return _contract_first_slot(a.comps, b)


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
    factor = 1.0
    for m in range(2, r + 1):
        factor *= m
    inv = ex.const(1.0 / factor)
    comps = np.empty((n,) * (s - r), dtype=object)
    for idx in np.ndindex(*comps.shape):
        terms = []
        for multi in np.ndindex(*(n,) * r):
            terms.append(ex.mul(x.comps[multi], phi.comps[multi + idx]))
        comps[idx] = ex.mul(inv, ex.expr_sum(terms))
    return SymFormField(phi.chart, s - r, comps)


def differential(f: ScalarField, chart: Chart) -> SymFormField:
    """df as a degree-1 form."""
    return SymFormField.from_dict(chart, 1, {(i,): f.diff(i) for i in range(chart.n)})


class MixedDerivative:
    """Covariant derivative of a symmetric field: one extra covariant slot.

    comps[i][J] = (nabla_{d_i} T)^J with the derivative index first.
    """

    __slots__ = ("chart", "base_kind", "base_degree", "comps")

    def __init__(self, chart: Chart, base_kind: type, base_degree: int, comps: np.ndarray):
        self.chart = chart
        self.base_kind = base_kind
        self.base_degree = base_degree
        self.comps = comps

    def directional(self, i: int):
        """nabla_{d_i} T as a field of the original kind."""
        comps = np.empty((self.chart.n,) * self.base_degree, dtype=object)
        for idx in np.ndindex(*comps.shape):
            comps[idx] = self.comps[(i,) + idx]
        return self.base_kind(self.chart, self.base_degree, comps)

    def along(self, x: SymTensorField):
        """nabla_X T for a vector field X."""
        if x.degree != 1:
            raise GeometryError("direction must be a vector field")
        n = self.chart.n
        comps = np.empty((n,) * self.base_degree, dtype=object)
        for idx in np.ndindex(*comps.shape):
            comps[idx] = ex.expr_sum(
                [ex.mul(x.comps[(i,)], self.comps[(i,) + idx]) for i in range(n)]
            )
        return self.base_kind(self.chart, self.base_degree, comps)

    def residual_on(self, samples=None) -> float:
        if samples is None:
            samples = self.chart.sample_points()
        return ex.residual(self.comps.flat, samples)

    def is_zero_on(self, samples=None, tol: float = TOL) -> bool:
        return self.residual_on(samples) <= tol


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
    comps = np.empty((n,) * (r + 1), dtype=object)
    contravariant = isinstance(t, SymTensorField)
    for full in np.ndindex(*comps.shape):
        i = full[0]
        idx = full[1:]
        terms = [t.comps[idx].diff(i) if r > 0 else t.comps[()].diff(i)]
        for a in range(r):
            ja = idx[a]
            for m in range(n):
                swapped = idx[:a] + (m,) + idx[a + 1:]
                if contravariant:
                    terms.append(ex.mul(conn.gamma[ja, i, m], t.comps[swapped]))
                else:
                    terms.append(ex.neg(ex.mul(conn.gamma[m, i, ja], t.comps[swapped])))
        comps[full] = ex.expr_sum(terms)
    return MixedDerivative(conn.chart, type(t), r, comps)


def symmetric_derivative(conn: Connection, phi: SymFormField) -> SymFormField:
    """(r+1) sym(nabla phi): the derivative index is summed over every slot."""
    conn.require_torsion_free()
    nabla = covariant_derivative(conn, phi)
    n = conn.chart.n
    r = phi.degree
    comps = np.empty((n,) * (r + 1), dtype=object)
    for idx in np.ndindex(*comps.shape):
        terms = []
        for m in range(r + 1):
            rest = idx[:m] + idx[m + 1:]
            terms.append(nabla.comps[(idx[m],) + rest])
        comps[idx] = ex.expr_sum(terms)
    return SymFormField(conn.chart, r + 1, comps)


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
    comps = np.empty((n,), dtype=object)
    for k in range(n):
        terms = []
        for i in range(n):
            terms.append(ex.mul(x.comps[(i,)], y.comps[(k,)].diff(i)))
            terms.append(ex.neg(ex.mul(y.comps[(i,)], x.comps[(k,)].diff(i))))
        comps[(k,)] = ex.expr_sum(terms)
    return SymTensorField(x.chart, 1, comps)


def symmetric_lie_derivative(conn: Connection, x: SymTensorField, phi: SymFormField) -> SymFormField:
    """L^s_X phi = i_X nabla^s phi - nabla^s i_X phi."""
    conn.require_torsion_free()
    first = contract(x, symmetric_derivative(conn, phi))
    second = symmetric_derivative(conn, contract(x, phi)) if phi.degree >= 1 else SymFormField.zero(phi.chart, 1)
    if phi.degree == 0:
        # i_X phi = 0 for scalars, so only the first term survives; its degree is 0.
        return first
    return first - second


def schouten(conn: Connection, a: SymTensorField, b: SymTensorField) -> SymTensorField:
    """Symmetric multivector bracket via the trace formula.

    [A, B] = sum_m  (i_{dx^m} A) . (nabla_m B) + (nabla_m A) . (i_{dx^m} B)

    For vector fields this is <X, Y>; [X, f] = Xf; each [A, .] is a
    degree-(deg A - 1) derivation of the shuffle product and the bracket is
    commutative.
    """
    conn.require_torsion_free()
    _require_same_chart(conn, a, b)
    r, l = a.degree, b.degree
    if r + l < 1:
        raise GeometryError("bracket needs total degree at least 1")
    if r + l - 1 > DEGREE_CAP:
        raise GeometryError(f"bracket degree {r + l - 1} exceeds cap {DEGREE_CAP}")
    n = a.chart.n
    na = covariant_derivative(conn, a)
    nb = covariant_derivative(conn, b)
    out = SymTensorField.zero(a.chart, r + l - 1)
    for m in range(n):
        if r >= 1:
            ia = _slot_fill(a, m)
            out = out + sym_product(ia, nb.directional(m))
        if l >= 1:
            ib = _slot_fill(b, m)
            out = out + sym_product(na.directional(m), ib)
    return out


def _slot_fill(t: _SymField, m: int):
    """i_{dx^m} T: fix the first index to m (no factor)."""
    n = t.chart.n
    r = t.degree
    comps = np.empty((n,) * (r - 1), dtype=object)
    for idx in np.ndindex(*comps.shape):
        comps[idx] = t.comps[(m,) + idx]
    return type(t)(t.chart, r - 1, comps)


def anticommutative_schouten(a: SymTensorField, b: SymTensorField) -> SymTensorField:
    """The connection-free antisymmetric bracket on symmetric multivectors.

    [A, B] = sum_m (i_{dx^m} A) . (d_m B) - (d_m A) . (i_{dx^m} B)

    restricts to the Lie bracket on vector fields and to [X, f] = Xf, and is
    a derivation in each slot.  Partial derivatives replace the connection;
    the axioms force chart independence.
    """
    _require_same_chart(a, b)
    r, l = a.degree, b.degree
    if r + l < 1:
        raise GeometryError("bracket needs total degree at least 1")
    if r + l - 1 > DEGREE_CAP:
        raise GeometryError(f"bracket degree {r + l - 1} exceeds cap {DEGREE_CAP}")
    n = a.chart.n
    out = SymTensorField.zero(a.chart, r + l - 1)
    for m in range(n):
        if r >= 1:
            out = out + sym_product(_slot_fill(a, m), _partial(b, m))
        if l >= 1:
            out = out - sym_product(_partial(a, m), _slot_fill(b, m))
    return out


def _partial(t: _SymField, m: int):
    comps = np.empty(t.comps.shape, dtype=object)
    for idx in np.ndindex(*t.comps.shape):
        comps[idx] = t.comps[idx].diff(m)
    return type(t)(t.chart, t.degree, comps)


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
    comps = np.empty((n, n, n, n), dtype=object)
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    terms = [g[l, j, k].diff(i), ex.neg(g[l, i, k].diff(j))]
                    for m in range(n):
                        terms.append(ex.mul(g[l, i, m], g[m, j, k]))
                        terms.append(ex.neg(ex.mul(g[l, j, m], g[m, i, k])))
                    comps[l, k, i, j] = ex.expr_sum(terms)
    return CurvatureField(conn.chart, comps)


def ricci(conn: Connection) -> np.ndarray:
    """Ric_{k j} = R^l_{k l j} as a covariant component array."""
    r = curvature(conn).comps
    n = conn.chart.n
    out = np.empty((n, n), dtype=object)
    for k in range(n):
        for j in range(n):
            out[k, j] = ex.expr_sum([r[l, k, l, j] for l in range(n)])
    return out


def _symbolic_inverse(m: np.ndarray) -> np.ndarray:
    """Adjugate-over-determinant inverse of a square array of Expr."""
    n = m.shape[0]
    det = _symbolic_det(m)
    inv = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(m, j, axis=0), i, axis=1)
            cof = _symbolic_det(minor)
            if (i + j) % 2 == 1:
                cof = ex.neg(cof)
            inv[i, j] = ex.div(cof, det)
    return inv


def _symbolic_det(m: np.ndarray):
    n = m.shape[0]
    if n == 0:
        return ex.ONE
    if n == 1:
        return m[0, 0]
    terms = []
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = ex.expr_product([m[i, perm[i]] for i in range(n)])
        terms.append(prod if sign > 0 else ex.neg(prod))
    return ex.expr_sum(terms)


def invert_metric(g: SymFormField, tol: float = TOL) -> SymTensorField:
    """Symbolic inverse of a nondegenerate degree-2 form; checks invertibility on samples."""
    if g.degree != 2:
        raise GeometryError("invert_metric expects a degree-2 form")
    _check_nondegenerate(g, tol)
    inv = _symbolic_inverse(g.comps)
    return SymTensorField(g.chart, 2, inv)


def invert_bivector(theta: SymTensorField, tol: float = TOL) -> SymFormField:
    if theta.degree != 2:
        raise GeometryError("invert_bivector expects a degree-2 field")
    _check_nondegenerate(theta, tol)
    inv = _symbolic_inverse(theta.comps)
    return SymFormField(theta.chart, 2, inv)


def _check_nondegenerate(t: _SymField, tol: float):
    for p in t.chart.sample_points():
        m = t.evaluate(p)
        scale = np.abs(m).max() + 1.0
        if abs(np.linalg.det(m)) <= (tol * scale) ** t.chart.n:
            raise DegenerateMetricError(f"degenerate at sample point {tuple(p)}")


def levi_civita(g: SymFormField, tol: float = TOL) -> Connection:
    """G^k_{ij} = 1/2 g^{kl} (d_i g_{lj} + d_j g_{li} - d_l g_{ij})."""
    ginv = invert_metric(g, tol).comps
    n = g.chart.n
    half = ex.const(0.5)
    gamma = np.empty((n, n, n), dtype=object)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                terms = []
                for l in range(n):
                    inner = ex.add(
                        g.comps[l, j].diff(i),
                        ex.sub(g.comps[l, i].diff(j), g.comps[i, j].diff(l)),
                    )
                    terms.append(ex.mul(ginv[k, l], inner))
                gamma[k, i, j] = ex.mul(half, ex.expr_sum(terms))
    return Connection(g.chart, gamma)


def raise_indices(ginv: SymTensorField, phi: SymFormField) -> SymTensorField:
    """g^{-1}(phi): raise every slot with the inverse metric."""
    _require_same_chart(ginv, phi)
    n = phi.chart.n
    r = phi.degree
    if r == 0:
        return SymTensorField(phi.chart, 0, phi.comps.copy())
    comps = np.empty((n,) * r, dtype=object)
    for idx in np.ndindex(*comps.shape):
        terms = []
        for multi in np.ndindex(*(n,) * r):
            factors = [ginv.comps[idx[a], multi[a]] for a in range(r)]
            factors.append(phi.comps[multi])
            terms.append(ex.expr_product(factors))
        comps[idx] = ex.expr_sum(terms)
    return SymTensorField(phi.chart, r, comps)


def lower_indices(g: SymFormField, t: SymTensorField) -> SymFormField:
    _require_same_chart(g, t)
    n = t.chart.n
    r = t.degree
    if r == 0:
        return SymFormField(t.chart, 0, t.comps.copy())
    comps = np.empty((n,) * r, dtype=object)
    for idx in np.ndindex(*comps.shape):
        terms = []
        for multi in np.ndindex(*(n,) * r):
            factors = [g.comps[idx[a], multi[a]] for a in range(r)]
            factors.append(t.comps[multi])
            terms.append(ex.expr_product(factors))
        comps[idx] = ex.expr_sum(terms)
    return SymFormField(t.chart, r, comps)


def is_killing(conn: Connection, phi: SymFormField, tol: float = TOL, samples=None) -> bool:
    """phi is Killing iff nabla^s phi vanishes (kernel of the symmetric derivative)."""
    return symmetric_derivative(conn, phi).is_zero_on(samples, tol)
