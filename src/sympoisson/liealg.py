"""Left-invariant structures on Lie groups, handled through structure
constants in an invariant frame.

All verdicts here are exact linear algebra over the rationals: a
left-invariant bivector together with the halved-bracket torsion-free
connection is always integrable, strongness and involutivity are matrix
conditions, and curvature of that connection is -1/4 [[X,Y],Z].
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex
from .geometry import Chart, Connection, SymTensorField, _build_components, _symbolic_inverse
from .jj import _echelon, _exact_inverse, _frac, _StructureConstants
from .poisson import SymPoissonPair


class LieAlgebraError(Exception):
    pass


class LieAlgebra(_StructureConstants):
    """Structure constants c[k][i][j] with [X_i, X_j] = c^k_{ij} X_k."""

    __slots__ = ()
    _sign = -1
    _error = LieAlgebraError

    def __init__(self, dim: int, c):
        super().__init__(dim, c)
        if not self.satisfies_jacobi():
            raise LieAlgebraError("Jacobi identity fails")

    @classmethod
    def from_brackets(cls, dim: int, brackets: dict) -> "LieAlgebra":
        """{(i, j): {k: value}} meaning [X_i, X_j] = sum value X_k for i < j."""
        return cls._from_entries(dim, brackets)

    bracket = _StructureConstants._product


@dataclass(frozen=True)
class LeftInvariantConnection:
    """nabla_{X_i} X_j = A^k_{ij} X_k with constant coefficients."""

    algebra: LieAlgebra
    a: tuple  # a[k][i][j]

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def is_torsion_free(self) -> bool:
        d = self.dim
        return all(
            self.a[k][i][j] - self.a[k][j][i] == self.algebra.c[k][i][j]
            for k in range(d)
            for i in range(d)
            for j in range(d)
        )

    def require_torsion_free(self):
        if not self.is_torsion_free():
            raise LieAlgebraError("connection is not torsion-free against the bracket")


def left_invariant_connection(g: LieAlgebra, entries: dict) -> LeftInvariantConnection:
    """Sparse coefficients {(k, i, j): value} for nabla_{X_i} X_j = A^k_{ij} X_k."""
    d = g.dim
    a = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for (k, i, j), v in entries.items():
        a[k][i][j] = _frac(v)
    return LeftInvariantConnection(g, tuple(tuple(tuple(r) for r in lvl) for lvl in a))


def weitzenboeck0(g: LieAlgebra) -> LeftInvariantConnection:
    """The torsion-free part of the parallelizing connection: nabla_X Y = [X,Y]/2."""
    d = g.dim
    half = Fraction(1, 2)
    a = tuple(
        tuple(tuple(half * g.c[k][i][j] for j in range(d)) for i in range(d))
        for k in range(d)
    )
    return LeftInvariantConnection(g, a)


class LeftInvariantSymTensor:
    """Constant symmetric components in the invariant frame."""

    __slots__ = ("dim", "degree", "comps")

    def __init__(self, dim: int, degree: int, comps: np.ndarray):
        self.dim = dim
        self.degree = degree
        self.comps = comps

    @classmethod
    def from_dict(cls, dim: int, degree: int, entries: dict) -> "LeftInvariantSymTensor":
        comps = np.empty((dim,) * degree, dtype=object)
        comps[...] = Fraction(0)
        for idx, v in entries.items():
            if isinstance(idx, int):
                idx = (idx,)
            for perm in set(itertools.permutations(idx)):
                comps[perm] = _frac(v)
        return cls(dim, degree, comps)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.comps.flat)

    def __add__(self, other):
        return LeftInvariantSymTensor(self.dim, self.degree, self.comps + other.comps)

    def __sub__(self, other):
        return LeftInvariantSymTensor(self.dim, self.degree, self.comps - other.comps)

    def scale(self, v):
        return LeftInvariantSymTensor(self.dim, self.degree, _frac(v) * self.comps)


def li_symmetric_bracket(conn: LeftInvariantConnection, i: int, j: int) -> tuple[Fraction, ...]:
    """<X_i, X_j> = nabla_i X_j + nabla_j X_i in frame components."""
    d = conn.dim
    return tuple(conn.a[k][i][j] + conn.a[k][j][i] for k in range(d))


def li_covariant_derivative(
    conn: LeftInvariantConnection, theta: LeftInvariantSymTensor, i: int
) -> LeftInvariantSymTensor:
    """(nabla_i theta)^J = sum over slots of A^{j_a}_{i m} theta^{..m..}."""
    a_i = np.array(conn.a, dtype=object)[:, i, :]  # a_i[j, m] = A^j_{im}
    comps = np.full(theta.comps.shape, Fraction(0), dtype=object)
    for slot in range(theta.degree):
        comps = comps + np.moveaxis(np.tensordot(a_i, theta.comps, axes=([1], [slot])), 0, slot)
    return LeftInvariantSymTensor(conn.dim, theta.degree, comps)


def _nabla_theta(conn: LeftInvariantConnection, theta: LeftInvariantSymTensor) -> np.ndarray:
    """nabla[i] = nabla_i theta, stacked."""
    if theta.degree != 2:
        raise LieAlgebraError("directional derivatives expect a degree-2 tensor")
    return np.stack([li_covariant_derivative(conn, theta, i).comps for i in range(conn.dim)])


def _derivative_chain(conn: LeftInvariantConnection, theta: LeftInvariantSymTensor):
    """(nabla, d) with nabla[i] = nabla_i theta and d[i] = theta^{im} nabla_m theta."""
    nabla = _nabla_theta(conn, theta)
    return nabla, np.tensordot(theta.comps, nabla, axes=([1], [0]))


def li_is_parallel(theta: LeftInvariantSymTensor, conn: LeftInvariantConnection) -> bool:
    conn.require_torsion_free()
    return not bool(_nabla_theta(conn, theta).any())


def li_is_strong(theta: LeftInvariantSymTensor, conn: LeftInvariantConnection) -> bool:
    conn.require_torsion_free()
    return not bool(_derivative_chain(conn, theta)[1].any())


def li_is_symmetric_poisson(theta: LeftInvariantSymTensor, conn: LeftInvariantConnection) -> bool:
    """Cyclic alternative: sum_cyc (nabla_{theta(eps^i)} theta)^{jk} = 0 exactly."""
    conn.require_torsion_free()
    dirs = _derivative_chain(conn, theta)[1]
    return not bool((dirs + dirs.transpose(1, 2, 0) + dirs.transpose(2, 0, 1)).any())


def li_is_involutive(theta: LeftInvariantSymTensor, g: LieAlgebra) -> bool:
    """Closure of span{theta(eps^i)} under the bracket, by exact elimination:
    no bracket of two rows adds a pivot to the echelon basis of the rows."""
    d = g.dim
    rows = [[theta.comps[i, m] for m in range(d)] for i in range(d)]
    basis = _echelon(rows)
    return all(
        len(_echelon([g.bracket(rows[i], rows[j])], basis)) == len(basis) for i in range(d) for j in range(i + 1, d)
    )


def li_curvature_weitzenboeck(g: LieAlgebra, i: int, j: int, k: int) -> tuple[Fraction, ...]:
    """R(X_i, X_j) X_k = -1/4 [[X_i, X_j], X_k] for the halved-bracket connection."""
    return tuple(Fraction(-1, 4) * v for v in g.double_product(k, i, j))


def li_curvature_general(
    conn: LeftInvariantConnection, i: int, j: int, k: int
) -> tuple[Fraction, ...]:
    """R(X_i, X_j) X_k = nabla_i nabla_j X_k - nabla_j nabla_i X_k - nabla_{[X_i,X_j]} X_k."""
    d = conn.dim
    a, c = conn.a, conn.algebra.c
    out = [Fraction(0)] * d
    for m in range(d):
        for l in range(d):
            out[l] += a[m][j][k] * a[l][i][m] - a[m][i][k] * a[l][j][m]
        for l in range(d):
            out[l] -= c[m][i][j] * a[l][m][k]
    return tuple(out)


def li_levi_civita(g: LieAlgebra, metric) -> LeftInvariantConnection:
    """Koszul formula on the invariant frame for a constant metric g_{ij}.

    2 g(nabla_i j, k) = g([i,j],k) - g([j,k],i) + g([k,i],j)
    """
    d = g.dim
    gm = [[_frac(metric[i][j]) for j in range(d)] for i in range(d)]
    ginv = _exact_inverse(gm)
    a = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            rhs = []
            for k in range(d):
                term = Fraction(0)
                for m in range(d):
                    term += g.c[m][i][j] * gm[m][k]
                    term -= g.c[m][j][k] * gm[m][i]
                    term += g.c[m][k][i] * gm[m][j]
                rhs.append(term / 2)
            for l in range(d):
                a[l][i][j] = sum((ginv[l][k] * rhs[k] for k in range(d)), start=Fraction(0))
    return LeftInvariantConnection(g, tuple(tuple(tuple(r) for r in lvl) for lvl in a))


# ---------------------------------------------------------------------------
# unit-quaternion flow
# ---------------------------------------------------------------------------

def su2_flow_matrix(a: float, b: float, c: float) -> np.ndarray:
    """Generator of right multiplication by a i + b j + c k on unit quaternions.

    Skew by construction, so the induced flow preserves the Euclidean norm.
    """
    return np.array(
        [
            [0.0, -a, -b, -c],
            [a, 0.0, c, -b],
            [b, -c, 0.0, a],
            [c, b, -a, 0.0],
        ]
    )


def su2_flow(a: float, b: float, c: float, q0, t: float, dt: float = 1e-3) -> np.ndarray:
    """RK4 solution of qdot = M(a,b,c) q from a unit 4-vector q0.

    The generator is skew, so the Euclidean norm is preserved; a norm check
    guards against misuse anyway.
    """
    q = np.array(q0, dtype=float)
    if abs(np.linalg.norm(q) - 1.0) > 1e-12:
        raise LieAlgebraError("q0 must be a unit 4-vector")
    m = su2_flow_matrix(a, b, c)
    steps = max(1, int(round(abs(t) / dt)))
    h = t / steps
    for _ in range(steps):
        k1 = m @ q
        k2 = m @ (q + 0.5 * h * k1)
        k3 = m @ (q + 0.5 * h * k2)
        k4 = m @ (q + h * k3)
        q = q + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(q).all():  # unreachable for a skew generator
            raise LieAlgebraError("flow left the finite range")
    return q


def su2_flow_closed_form_i(q0, t: float) -> np.ndarray:
    """Closed form for the (a,b,c) = (1,0,0) flow."""
    x0, y0, z0, w0 = q0
    ct, st = np.cos(t), np.sin(t)
    return np.array(
        [
            x0 * ct - y0 * st,
            y0 * ct + x0 * st,
            z0 * ct + w0 * st,
            w0 * ct - z0 * st,
        ]
    )


# ---------------------------------------------------------------------------
# named algebras
# ---------------------------------------------------------------------------

@functools.cache
def algebra(ident: str) -> LieAlgebra:
    """Catalog: abelian_n, so3, su2, aff1, aff1xR, heisenberg3; built once per ident."""
    if ident.startswith("abelian_"):
        return LieAlgebra.from_brackets(int(ident.split("_")[1]), {})
    if ident in ("so3", "su2"):
        return LieAlgebra.from_brackets(
            3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}}
        )
    if ident == "aff1":
        return LieAlgebra.from_brackets(2, {(0, 1): {1: 1}})
    if ident == "aff1xR":
        return LieAlgebra.from_brackets(3, {(0, 1): {1: 1}})
    if ident == "heisenberg3":
        return LieAlgebra.from_brackets(3, {(0, 1): {2: 1}})
    raise KeyError(ident)


def aff1xR_parallelizing_connection() -> LeftInvariantConnection:
    """The torsion-free connection making X . Y parallel on aff(1) x R:

    nabla_X X = -X, nabla_X Y = Y, everything else zero.
    """
    g = algebra("aff1xR")
    return left_invariant_connection(g, {(0, 0, 0): -1, (1, 0, 1): 1})


# ---------------------------------------------------------------------------
# chart export
# ---------------------------------------------------------------------------

# ident -> (coordinate names, sample box, the components of each frame field)
POLYNOMIAL_FRAMES = {
    "heisenberg3": (("x", "y", "z"), None, (("1", "0", "0"), ("0", "1", "x"), ("0", "0", "1"))),
    "aff1": (("a", "b"), ((0.5, 1.5), (-1.0, 1.0)), (("a", "0"), ("0", "a"))),
    "aff1xR": (
        ("a", "b", "c"),
        ((0.5, 1.5), (-1.0, 1.0), (-1.0, 1.0)),
        (("a", "0", "0"), ("0", "a", "0"), ("0", "0", "1")),
    ),
}


def polynomial_frame(ident: str):
    """Chart plus an exact polynomial invariant frame for the named algebra.

    Available for algebras whose invariant frames close in polynomial (or
    rational) coordinate expressions: abelian_n and POLYNOMIAL_FRAMES.
    """
    if ident.startswith("abelian_"):
        n = int(ident.split("_")[1])
        names, box, rows = [f"x{i + 1}" for i in range(n)], None, [{i: 1.0} for i in range(n)]
    elif ident in POLYNOMIAL_FRAMES:
        names, box, texts = POLYNOMIAL_FRAMES[ident]
        rows = [dict(enumerate(row)) for row in texts]
    else:
        raise KeyError(f"no polynomial frame for '{ident}'")
    chart = Chart(names, box)
    return chart, [SymTensorField.from_dict(chart, 1, row) for row in rows]


def chart_export(
    g: LieAlgebra,
    conn: LeftInvariantConnection,
    theta: LeftInvariantSymTensor,
    chart,
    frame,
):
    """Realize an invariant pair in coordinates through an explicit frame.

    The frame fields must satisfy the algebra's bracket relations; the
    resulting chart connection reproduces nabla_{E_i} E_j = A^k_{ij} E_k and
    theta pushes forward through the frame.
    """
    n = chart.n
    if g.dim != n or len(frame) != n:
        raise LieAlgebraError("frame must match the algebra dimension")
    conn.require_torsion_free()
    m = _build_components(n, 2, lambda idx: frame[idx[1]].comps[idx[:1]], fixed=2)  # m[a, i] = E_i^a
    m_inv = _symbolic_inverse(m)  # m_inv[i, a]

    def frame_defect(idx):
        # F^b_{ij} = A^k_{ij} E_k^b - E_i^a d_a E_j^b
        b, i, j = idx
        a_ij = [conn.a[k][i][j] for k in range(n)]
        terms = [ex.mul(ex.const(float(a_ij[k])), frame[k].comps[(b,)]) for k in range(n) if a_ij[k] != 0]
        for a in range(n):
            terms.append(ex.neg(ex.mul(frame[i].comps[(a,)], frame[j].comps[(b,)].diff(a))))
        return ex.expr_sum(terms)

    f = _build_components(n, 3, frame_defect, fixed=3)

    def christoffel(idx):
        b, a, c = idx
        return ex.expr_sum([ex.expr_product([m_inv[i, a], m_inv[j, c], f[b, i, j]]) for i, j in np.ndindex(n, n)])

    def pushed_theta(idx):
        a, b = idx
        return ex.expr_sum([
            ex.expr_product([ex.const(float(theta.comps[i, j])), frame[i].comps[(a,)], frame[j].comps[(b,)]])
            for i, j in np.ndindex(n, n)
            if theta.comps[i, j] != 0
        ])

    gamma = _build_components(n, 3, christoffel, fixed=3)
    comps = _build_components(n, 2, pushed_theta, fixed=2)
    theta_chart = SymTensorField(chart, 2, comps)
    return SymPoissonPair(theta_chart, Connection(chart, gamma))
