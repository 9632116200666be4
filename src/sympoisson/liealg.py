"""Left-invariant structures on Lie groups, handled through structure
constants in an invariant frame.

All verdicts here are exact linear algebra over the rationals: a
left-invariant bivector together with the halved-bracket torsion-free
connection is always integrable, strongness and involutivity are matrix
conditions, and curvature of that connection is -1/4 [[X,Y],Z].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex
from .defaults import DT
from .geometry import Chart, Connection, SymTensorField, _build_components, _symbolic_inverse
from .jj import _echelon, _exact_inverse, _frac, _fractions, _integers, _StructureConstants
from .poisson import SymPoissonPair


class LieAlgebraError(Exception):
    pass


class LieAlgebra(_StructureConstants):
    """Structure constants c[k, i, j] with [X_i, X_j] = c^k_{ij} X_k."""

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


@dataclass(frozen=True, eq=False)
class LeftInvariantConnection:
    """nabla_{X_i} X_j = A^k_{ij} X_k with constant coefficients."""

    algebra: LieAlgebra
    a: np.ndarray  # a[k, i, j], Fractions

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def is_torsion_free(self) -> bool:
        """A^k_ij - A^k_ji = c^k_ij, on the integer form of the stacked (a, c)."""
        a, c = _integers(np.stack([self.a, self.algebra.c]))[0]
        return not (a - a.transpose(0, 2, 1) - c).any()

    def require_torsion_free(self):
        if not self.is_torsion_free():
            raise LieAlgebraError("connection is not torsion-free against the bracket")


def left_invariant_connection(g: LieAlgebra, entries: dict) -> LeftInvariantConnection:
    """Sparse coefficients {(k, i, j): value} for nabla_{X_i} X_j = A^k_{ij} X_k."""
    return LeftInvariantConnection(g, _fractions(entries, (g.dim,) * 3, LieAlgebraError))


def weitzenboeck0(g: LieAlgebra) -> LeftInvariantConnection:
    """The torsion-free part of the parallelizing connection: nabla_X Y = [X,Y]/2."""
    return LeftInvariantConnection(g, Fraction(1, 2) * g.c)


class LeftInvariantSymTensor:
    """Constant symmetric components in the invariant frame."""

    __slots__ = ("dim", "degree", "comps")

    def __init__(self, dim: int, degree: int, comps: np.ndarray):
        self.dim = dim
        self.degree = degree
        self.comps = comps

    @classmethod
    def from_dict(cls, dim: int, degree: int, entries: dict) -> "LeftInvariantSymTensor":
        """{indices: value}, each value written at every permutation of its
        indices (an int stands for a 1-tuple)."""
        return cls(dim, degree, _fractions(entries, (dim,) * degree, LieAlgebraError, degree))

    def is_zero(self) -> bool:
        return not self.comps.any()

    def __add__(self, other):
        return LeftInvariantSymTensor(self.dim, self.degree, self.comps + other.comps)

    def __sub__(self, other):
        return LeftInvariantSymTensor(self.dim, self.degree, self.comps - other.comps)

    def scale(self, v):
        return LeftInvariantSymTensor(self.dim, self.degree, _frac(v) * self.comps)


def li_symmetric_bracket(conn: LeftInvariantConnection, i: int, j: int) -> tuple[Fraction, ...]:
    """<X_i, X_j> = nabla_i X_j + nabla_j X_i in frame components."""
    return tuple(conn.a[:, i, j] + conn.a[:, j, i])


def _nabla(a: np.ndarray, comps: np.ndarray) -> np.ndarray:
    """nabla[i] = nabla_i comps for each i of a[:, i, :], stacked: the sum over
    slots s of A^{j_s}_{i m} comps^{..m at s..}, with no derivative term."""
    return sum(
        (np.moveaxis(np.tensordot(a, comps, axes=([2], [s])), (1, 0), (0, 1 + s)) for s in range(comps.ndim)),
        np.zeros(a.shape[1:2] + comps.shape, dtype=object),
    )


def li_covariant_derivative(
    conn: LeftInvariantConnection, theta: LeftInvariantSymTensor, i: int
) -> LeftInvariantSymTensor:
    """(nabla_i theta)^J = sum over slots of A^{j_a}_{i m} theta^{..m..}."""
    comps = _nabla(conn.a[:, [i], :], theta.comps)[0]
    # a degree-0 theta has no slot, so its derivative is the int zero start
    return LeftInvariantSymTensor(conn.dim, theta.degree, _fractions(comps, theta.comps.shape, LieAlgebraError))


def _derivative_chain(a: np.ndarray, theta: np.ndarray):
    """(nabla, D) for connection coefficients a[k, i, j] and degree-2
    components theta: nabla[i] = nabla_i theta and D[i] = theta^{im} nabla_m theta."""
    nabla = _nabla(a, theta)
    return nabla, np.tensordot(theta, nabla, axes=([1], [0]))


def _integer_tables(theta: LeftInvariantSymTensor, conn: LeftInvariantConnection):
    """The integer tables of conn's coefficients and of a degree-2 theta,
    which the verdicts below read: nabla is of degree 1 in each, D of degree
    1 in a and 2 in theta, so each vanishes exactly where its rational form does."""
    conn.require_torsion_free()
    if theta.degree != 2:
        raise LieAlgebraError("directional derivatives expect a degree-2 tensor")
    return _integers(conn.a)[0], _integers(theta.comps)[0]


def li_is_parallel(theta: LeftInvariantSymTensor, conn: LeftInvariantConnection) -> bool:
    return not _nabla(*_integer_tables(theta, conn)).any()


def li_is_strong(theta: LeftInvariantSymTensor, conn: LeftInvariantConnection) -> bool:
    return not _derivative_chain(*_integer_tables(theta, conn))[1].any()


def li_is_symmetric_poisson(theta: LeftInvariantSymTensor, conn: LeftInvariantConnection) -> bool:
    """Cyclic alternative: sum_cyc (nabla_{theta(eps^i)} theta)^{jk} = 0 exactly."""
    dirs = _derivative_chain(*_integer_tables(theta, conn))[1]
    return not (dirs + dirs.transpose(1, 2, 0) + dirs.transpose(2, 0, 1)).any()


def li_is_involutive(theta: LeftInvariantSymTensor, g: LieAlgebra) -> bool:
    """Closure of span{theta(eps^i)} under the bracket, by exact elimination on
    the integer tables: b[:, i, j] = c^k_{mn} t^{im} t^{jn}, a positive multiple
    of [row i, row j], adds no pivot to the echelon basis of the rows t."""
    c, t = _integers(g.c)[0], _integers(theta.comps)[0]
    b = np.tensordot(np.tensordot(c, t, axes=([1], [1])), t, axes=([1], [1]))
    i, j = np.triu_indices(g.dim, 1)
    basis = _echelon(t)
    return len(_echelon(b[:, i, j].T, basis)) == len(basis)


def li_curvature_weitzenboeck(g: LieAlgebra, i: int, j: int, k: int) -> tuple[Fraction, ...]:
    """R(X_i, X_j) X_k = -1/4 [[X_i, X_j], X_k] for the halved-bracket connection."""
    return tuple(Fraction(-1, 4) * v for v in g.double_product(k, i, j))


def li_curvature_general(
    conn: LeftInvariantConnection, i: int, j: int, k: int
) -> tuple[Fraction, ...]:
    """R(X_i, X_j) X_k = nabla_i nabla_j X_k - nabla_j nabla_i X_k - nabla_{[X_i,X_j]} X_k."""
    a, c = conn.a, conn.algebra.c
    return tuple(a[:, i, :].dot(a[:, j, k]) - a[:, j, :].dot(a[:, i, k]) - a[:, :, k].dot(c[:, i, j]))


def li_levi_civita(g: LieAlgebra, metric) -> LeftInvariantConnection:
    """Koszul formula on the invariant frame for a constant symmetric metric g_{ij}.

    2 g(nabla_i j, k) = g([i,j],k) - g([j,k],i) + g([k,i],j)
    """
    gm = _fractions(metric, (g.dim,) * 2, LieAlgebraError)
    if (gm != gm.T).any():
        raise LieAlgebraError("metric not symmetric")
    b = np.tensordot(g.c, gm, axes=([0], [0]))  # b[i, j, k] = g([i,j], k)
    rhs = (b - b.transpose(2, 0, 1) + b.transpose(1, 2, 0)) / 2
    ginv = np.array(_exact_inverse(gm), dtype=object)
    return LeftInvariantConnection(g, np.tensordot(ginv, rhs, axes=([1], [2])))


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


def su2_flow(a: float, b: float, c: float, q0, t: float, dt: float = DT) -> np.ndarray:
    """RK4 solution of qdot = M(a,b,c) q from a unit 4-vector q0, as one
    `expr.compile_rk4` run.

    The generator is skew, so the Euclidean norm is preserved; a norm check
    guards against misuse anyway.
    """
    q = np.array(q0, dtype=float)
    if abs(np.linalg.norm(q) - 1.0) > 1e-12:
        raise LieAlgebraError("q0 must be a unit 4-vector")
    rhs = [ex.expr_sum([ex.mul(ex.const(m), ex.var(j)) for j, m in enumerate(row)])
           for row in su2_flow_matrix(a, b, c).tolist()]
    steps = max(1, int(round(abs(t) / dt)))
    rows: list[tuple[float, ...]] = []
    ex.compile_rk4(rhs)(q.tolist(), t / steps, steps, rows)
    if len(rows) <= steps:  # unreachable for a skew generator
        raise LieAlgebraError("flow left the finite range")
    return np.array(rows[-1])


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
        a_ij = conn.a[:, i, j]
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
