"""Commutative algebras from linear brackets on a dual space.

A linear bracket on coordinate functions of V* is the same data as a
commutative product on V through {i_u, i_v} = i_{u.v}.  In a basis the
structure constants satisfy theta^{ij}(x) = c^k_{ij} x^k, and:

- the bracket is integrable (with the flat connection) iff the algebra has
  a vanishing cyclic Jacobiator;
- it is strongly integrable iff, in addition, the product is associative,
  which for these algebras is equivalent to all triple products vanishing.

Catalog constants are exact rationals; verdicts on them are exact.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import ClassVar, Mapping, Sequence

import numpy as np

from . import expr as ex
from .geometry import Chart, Connection, SymTensorField, _build_components
from .poisson import Involutivity, SymPoissonPair, characteristic_generators  # noqa: F401 (re-exported)


class AlgebraError(Exception):
    pass


_ZERO = Fraction(0)


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, numbers.Integral):
        return Fraction(int(v))
    if isinstance(v, float):
        return Fraction(v)  # exact binary expansion
    if isinstance(v, str):
        return Fraction(v)
    raise AlgebraError(f"cannot interpret {v!r} as an exact rational")


class _StructureConstants:
    """Exact constants c[k][i][j] of a bilinear product e_i * e_j = c^k_{ij} e_k.

    A subclass fixes the symmetry in (i, j): `_sign` 1 for symmetric, -1 for
    antisymmetric constants; `_error` is the exception it raises.
    """

    __slots__ = ("dim", "c", "_double")
    _sign = 1
    _error = AlgebraError

    def __init__(self, dim: int, c):
        self.dim = dim
        self.c = tuple(
            tuple(tuple(_frac(c[k][i][j]) for j in range(dim)) for i in range(dim))
            for k in range(dim)
        )
        for k, level in enumerate(self.c):
            mirror = tuple(zip(*level))
            if self._sign < 0:
                mirror = tuple(tuple(-v for v in row) for row in mirror)
            if level != mirror:
                i, j = next((i, j) for i in range(dim) for j in range(dim) if level[i][j] != mirror[i][j])
                kind = "symmetric" if self._sign > 0 else "antisymmetric"
                raise self._error(f"constants not {kind} at (k,i,j)=({k},{i},{j})")
        # the double products ((e_j e_k) e_i)^l = sum_m c^m_jk c^l_mi, keyed
        # (l, i, j, k), built from the nonzero constants and kept where nonzero
        nonzero = [(k, i, j, v) for k, level in enumerate(self.c) for i, row in enumerate(level)
                   for j, v in enumerate(row) if v]
        double = {}
        for m, j, k, v in nonzero:
            for l, first, i, w in nonzero:
                if first == m:
                    double[l, i, j, k] = double.get((l, i, j, k), 0) + v * w
        self._double = {key: t for key, t in double.items() if t}

    @classmethod
    def _from_entries(cls, dim: int, entries: dict):
        """{(i, j): {k: value}} meaning e_i * e_j = sum value * e_k (0-based)."""
        c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), comp in entries.items():
            for k, v in comp.items():
                c[k][i][j] = _frac(v)
                c[k][j][i] = cls._sign * _frac(v)
        return cls(dim, c)

    def _product(self, u: Sequence, v: Sequence) -> tuple[Fraction, ...]:
        if len(u) != self.dim or len(v) != self.dim:
            raise self._error("vector dimension mismatch")
        u = [_frac(a) for a in u]
        v = [_frac(a) for a in v]
        return tuple(
            sum(
                (self.c[k][i][j] * u[i] * v[j] for i in range(self.dim) for j in range(self.dim)),
                start=Fraction(0),
            )
            for k in range(self.dim)
        )

    def double_product(self, i: int, j: int, k: int) -> tuple[Fraction, ...]:
        """(e_j e_k) e_i in coordinates."""
        return tuple(self._double.get((l, i, j, k), _ZERO) for l in range(self.dim))

    def jacobiator(self, i: int, j: int, k: int) -> tuple[Fraction, ...]:
        """The cyclic sum (e_j e_k) e_i + (e_k e_i) e_j + (e_i e_j) e_k."""
        rotations = zip(self.double_product(i, j, k), self.double_product(j, k, i), self.double_product(k, i, j))
        return tuple(a + b + c for a, b, c in rotations)

    def satisfies_jacobi(self) -> bool:
        """Exact check of the cyclic Jacobiator over the sorted basis triples:
        it is symmetric for symmetric constants and alternating for
        antisymmetric ones, so the sorted triples decide every triple."""
        zero = (_ZERO,) * self.dim
        return all(
            self.jacobiator(i, j, k) == zero
            for i, j, k in itertools.combinations_with_replacement(range(self.dim), 3)
        )

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class CommutativeAlgebra(_StructureConstants):
    """Structure constants c[k][i][j], exactly symmetric in (i, j)."""

    __slots__ = ()

    @classmethod
    def zero(cls, dim: int) -> "CommutativeAlgebra":
        z = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        return cls(dim, z)

    @classmethod
    def from_products(cls, dim: int, products: dict) -> "CommutativeAlgebra":
        """{(i, j): {k: value}} meaning e_i . e_j = sum value * e_k (0-based)."""
        return cls._from_entries(dim, products)

    product = _StructureConstants._product

    def associator(self, i: int, j: int, k: int) -> tuple[Fraction, ...]:
        """e_i . (e_j . e_k) - (e_i . e_j) . e_k."""
        return tuple(a - b for a, b in zip(self.double_product(i, j, k), self.double_product(k, i, j)))

    def __eq__(self, other):
        return isinstance(other, CommutativeAlgebra) and self.c == other.c


def product(alg: CommutativeAlgebra, u, v):
    return alg.product(u, v)


def is_jacobi_jordan(alg: CommutativeAlgebra) -> bool:
    """Exact check that the cyclic Jacobiator vanishes."""
    return alg.satisfies_jacobi()


def is_associative(alg: CommutativeAlgebra) -> bool:
    zero = (_ZERO,) * alg.dim
    return all(
        alg.associator(i, j, k) == zero for i, j, k in itertools.product(range(alg.dim), repeat=3)
    )


def basis_change(alg: CommutativeAlgebra, p: Sequence[Sequence]) -> CommutativeAlgebra:
    """Structure constants in the basis f_i = sum_m p[m][i] e_m (p invertible)."""
    d = alg.dim
    pm = [[_frac(p[m][i]) for i in range(d)] for m in range(d)]
    inv = _exact_inverse(pm)
    c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            prod = alg.product([pm[m][i] for m in range(d)], [pm[m][j] for m in range(d)])
            for r in range(d):
                c[r][i][j] = sum(
                    (inv[r][k] * prod[k] for k in range(d)), start=Fraction(0)
                )
    return CommutativeAlgebra(d, c)


def _exact_inverse(m):
    """The inverse of a square rational matrix: the right block of the reduced
    echelon form of [m | I], whose pivots all fall in the left block exactly
    when m is invertible."""
    d = len(m)
    basis = _echelon([list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(m)])
    if [lead for lead, _ in basis] != list(range(d)):
        raise AlgebraError("matrix not invertible")
    return [row[d:] for _, row in basis]


def _echelon(rows, basis=()) -> list[tuple[int, list[Fraction]]]:
    """The reduced row echelon basis, as (pivot, row) by pivot, of the span of
    `rows` and `basis` (an earlier result), exact over the rationals."""
    basis = list(basis)
    for row in rows:
        row = [Fraction(v) for v in row]
        for lead, b in basis:
            if row[lead]:
                f = row[lead]
                row = [v - f * w for v, w in zip(row, b)]
        lead = next((c for c, v in enumerate(row) if v), None)
        if lead is None:
            continue
        row = [v / row[lead] for v in row]
        basis = [(p, [v - b[lead] * w for v, w in zip(b, row)] if b[lead] else b) for p, b in basis]
        basis = sorted(basis + [(lead, row)], key=lambda entry: entry[0])
    return basis


# ---------------------------------------------------------------------------
# linear structures
# ---------------------------------------------------------------------------

def _chart_names(dim: int) -> list[str]:
    if dim <= 4:
        return ["x", "y", "z", "t"][:dim]
    return [f"x{i + 1}" for i in range(dim)]


def to_linear_structure(alg: CommutativeAlgebra, names: Sequence[str] | None = None) -> SymPoissonPair:
    """theta^{ij} = c^k_{ij} x^k on the dual chart, with the flat connection."""
    names = list(names) if names is not None else _chart_names(alg.dim)
    chart = Chart(names)
    d = alg.dim

    def build(idx):
        i, j = idx
        c = [alg.c[k][i][j] for k in range(d)]
        return ex.expr_sum([ex.mul(ex.const(float(c[k])), ex.var(k)) for k in range(d) if c[k] != 0])

    theta = SymTensorField(chart, 2, _build_components(d, 2, build, fixed=2))
    return SymPoissonPair(theta, Connection.euclidean(chart))


# the largest constant part or second derivative that still reads as zero
_LINEAR_TOL = 1e-12


def from_linear_structure(theta: SymTensorField) -> CommutativeAlgebra:
    """Recover structure constants from a homogeneous-linear bivector field.

    Raises AlgebraError when any component is not homogeneous linear.
    """
    if theta.degree != 2:
        raise AlgebraError("expected a degree-2 field")
    d = theta.chart.n
    origin = (0.0,) * d
    comps = {(i, j): ex.ScalarField(theta.comps[i, j], d) for i, j in np.ndindex(d, d)}
    firsts = {(i, j, k): e.diff(k) for (i, j), e in comps.items() for k in range(d)}
    seconds = ex.Plan(f.diff(m).expr for f in firsts.values() for m in range(d))
    curved = (np.abs(seconds.table(theta.chart.sample_points(5))[0]) > _LINEAR_TOL).any(axis=0)
    curved = curved.reshape(d, d, d * d).any(axis=2)
    c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i, j in np.ndindex(d, d):
        if abs(comps[i, j](origin)) > _LINEAR_TOL:
            raise AlgebraError(f"component ({i},{j}) has a constant part")
        for k in range(d):
            c[k][i][j] = Fraction(firsts[i, j, k](origin))
        if curved[i, j]:
            raise AlgebraError(f"component ({i},{j}) is not linear in the coordinates")
    return CommutativeAlgebra(d, c)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    kind: ClassVar[str] = "jj"
    ident: str
    dim: int
    algebra: CommutativeAlgebra
    coords: str  # display form of theta in chart coordinates
    expect: Mapping  # read-only: entries are shared by every lookup

    def pair(self) -> SymPoissonPair:
        return to_linear_structure(self.algebra)


def _expect(associative: bool) -> Mapping:
    # every entry is Jacobi-Jordan, and strong exactly when associative
    return MappingProxyType(dict(
        jacobi=True, associative=associative, symmetric_poisson=True, strong=associative,
        involutive=Involutivity.INVOLUTIVE_ON_SAMPLES,
    ))


_ASSOCIATIVE = _expect(True)

# (ident, dim, {(i, j): {k: value}} with e_i . e_j = sum value e_k, coords, expect)
_ROWS = (
    ("dim2", 2, {(0, 0): {1: 1}}, "y dx.dx", _ASSOCIATIVE),
    ("dim3_1", 3, {(0, 0): {2: 1}}, "z dx.dx", _ASSOCIATIVE),
    ("dim3_2", 3, {(0, 0): {2: 1}, (1, 1): {2: 1}}, "z (dx.dx + dy.dy)", _ASSOCIATIVE),
    ("dim4_1", 4, {(0, 0): {3: 1}}, "t dx.dx", _ASSOCIATIVE),
    ("dim4_2", 4, {(0, 0): {3: 1}, (1, 1): {3: 1}}, "t (dx.dx + dy.dy)", _ASSOCIATIVE),
    ("dim4_3", 4, {(0, 0): {3: 1}, (1, 1): {2: 1}}, "t dx.dx + z dy.dy", _ASSOCIATIVE),
    ("dim4_4", 4, {(0, 0): {3: 1}, (0, 1): {2: 1}}, "t dx.dx + z dx.dy + z dy.dx", _ASSOCIATIVE),
    ("dim4_5", 4, {(0, 0): {3: 1}, (1, 2): {3: 1}}, "t (dx.dx + dy.dz + dz.dy)", _ASSOCIATIVE),
    (
        "dim5_nonassoc", 5,
        {(0, 0): {1: 1}, (0, 3): {4: 1}, (0, 4): {2: Fraction(-1, 2)}, (1, 3): {2: 1}},
        "x2 d1.d1 + x5 (d1.d4 + d4.d1) - x3/2 (d1.d5 + d5.d1) + x3 (d2.d4 + d4.d2)",
        _expect(False),
    ),
)

# Nontrivial linear structures up to dimension 4, plus the unique
# 5-dimensional non-associative normal form, built once.
CATALOG = {
    ident: CatalogEntry(ident, dim, CommutativeAlgebra.from_products(dim, products), coords, expect)
    for ident, dim, products, coords, expect in _ROWS
}


def catalog() -> list[CatalogEntry]:
    """The nine catalog entries, in report order."""
    return list(CATALOG.values())


def catalog_entry(ident: str) -> CatalogEntry:
    return CATALOG[ident]
