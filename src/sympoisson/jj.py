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

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import ClassVar, Mapping, Sequence

import numpy as np

from . import expr as ex
from .geometry import Chart, Connection, SymTensorField, _build_components, _fill
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


def _fractions(values, shape: tuple[int, ...], error=AlgebraError, sym: int = 0, sign: int = 1) -> np.ndarray:
    """The one exact tensor format: an object array of Fractions of exactly
    `shape`, from nested sequences or an array, or from a dict {index: value}
    of entries with the rest zero, written by `geometry._fill` with its `sym`
    and `sign`.  Raises `error` on any other shape or an index that `_fill`
    refuses."""
    if isinstance(values, Mapping):
        return _fill(np.full(shape, _ZERO, dtype=object), values, _frac, sym, error, sign)
    arr = np.array(values, dtype=object)
    if arr.shape != shape:
        raise error(f"dimension mismatch: expected shape {shape}, got {arr.shape}")
    return np.array([_frac(v) for v in arr.flat], dtype=object).reshape(shape)


def _integers(q: np.ndarray) -> tuple[np.ndarray, int]:
    """(s q, s) for an array q of Fractions and s the lcm of its denominators:
    the integer table as Python ints, zero exactly where q is.

    An exact verdict tests a sum of products of one fixed degree in each
    array for zero; scaling an array by s > 0 scales every term of such a
    sum alike, so the integer sum vanishes exactly where the rational one does.
    """
    s = math.lcm(*(v.denominator for v in q.flat))
    return np.array([v.numerator * (s // v.denominator) for v in q.flat], dtype=object).reshape(q.shape), s


class _StructureConstants:
    """Exact constants c[k, i, j] of a bilinear product e_i * e_j = c^k_{ij} e_k.

    A subclass fixes the symmetry in (i, j): `_sign` 1 for symmetric, -1 for
    antisymmetric constants; `_error` is the exception it raises.
    """

    __slots__ = ("dim", "c", "_scale", "_table")
    _sign = 1
    _error = AlgebraError

    def __init__(self, dim: int, c):
        self.dim = dim
        self.c = _fractions(c, (dim,) * 3, self._error)
        ints, self._scale = _integers(self.c)
        asymmetric = np.argwhere(ints != self._sign * ints.transpose(0, 2, 1))
        if len(asymmetric):
            kind = "symmetric" if self._sign > 0 else "antisymmetric"
            raise self._error(f"constants not {kind} at (k,i,j)=({','.join(map(str, asymmetric[0]))})")
        # the double products T[l, i, j, k] = ((e_j e_k) e_i)^l = sum_m c^m_jk
        # c^l_mi, times the scale squared
        self._table = np.tensordot(ints, ints, axes=([1], [0]))

    @classmethod
    def _from_entries(cls, dim: int, entries: dict):
        """{(i, j): {k: value}} meaning e_i * e_j = sum value * e_k (0-based);
        any other shape raises the class's error."""
        c = {}
        for ij, comp in entries.items():
            if not isinstance(ij, tuple) or not isinstance(comp, Mapping):
                raise cls._error(f"entry {ij!r}: {comp!r} is not of the form (i, j): {{k: value}}")
            c.update(((k, *ij), v) for k, v in comp.items())
        return cls(dim, _fractions(c, (dim,) * 3, cls._error, 2, cls._sign))

    def _product(self, u: Sequence, v: Sequence) -> tuple[Fraction, ...]:
        shape = (self.dim,)
        return tuple(self.c.dot(_fractions(v, shape, self._error)).dot(_fractions(u, shape, self._error)))

    def _rational(self, column) -> tuple[Fraction, ...]:
        """A column of the integer double-product table as the exact vector."""
        return tuple(Fraction(v, self._scale**2) for v in column)

    def double_product(self, i: int, j: int, k: int) -> tuple[Fraction, ...]:
        """(e_j e_k) e_i in coordinates."""
        return self._rational(self._table[:, i, j, k])

    def jacobiator(self, i: int, j: int, k: int) -> tuple[Fraction, ...]:
        """The cyclic sum (e_j e_k) e_i + (e_k e_i) e_j + (e_i e_j) e_k."""
        t = self._table
        return self._rational(t[:, i, j, k] + t[:, j, k, i] + t[:, k, i, j])

    def satisfies_jacobi(self) -> bool:
        """Exact check that the cyclic Jacobiator vanishes at every triple."""
        t = self._table
        return not (t + t.transpose(0, 3, 1, 2) + t.transpose(0, 2, 3, 1)).any()

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class CommutativeAlgebra(_StructureConstants):
    """Structure constants c[k, i, j], exactly symmetric in (i, j)."""

    __slots__ = ()

    @classmethod
    def zero(cls, dim: int) -> "CommutativeAlgebra":
        return cls(dim, np.zeros((dim,) * 3, dtype=int))

    @classmethod
    def from_products(cls, dim: int, products: dict) -> "CommutativeAlgebra":
        """{(i, j): {k: value}} meaning e_i . e_j = sum value * e_k (0-based)."""
        return cls._from_entries(dim, products)

    product = _StructureConstants._product

    def associator(self, i: int, j: int, k: int) -> tuple[Fraction, ...]:
        """e_i . (e_j . e_k) - (e_i . e_j) . e_k."""
        return self._rational(self._table[:, i, j, k] - self._table[:, k, i, j])

    def __eq__(self, other):
        return isinstance(other, CommutativeAlgebra) and np.array_equal(self.c, other.c)


def is_jacobi_jordan(alg: CommutativeAlgebra) -> bool:
    """Exact check that the cyclic Jacobiator vanishes."""
    return alg.satisfies_jacobi()


def is_associative(alg: CommutativeAlgebra) -> bool:
    """Exact check that every associator T[l,i,j,k] - T[l,k,i,j] vanishes."""
    t = alg._table
    return not (t - t.transpose(0, 2, 3, 1)).any()


def basis_change(alg: CommutativeAlgebra, p: Sequence[Sequence]) -> CommutativeAlgebra:
    """Structure constants in the basis f_i = sum_m p[m][i] e_m (p invertible):
    c'^r_ij = sum inv[r][k] c^k_mn p[m][i] p[n][j]."""
    pm = _fractions(p, (alg.dim,) * 2)
    inv = np.array(_exact_inverse(pm), dtype=object)
    return CommutativeAlgebra(alg.dim, np.tensordot(inv, pm.T @ alg.c @ pm, axes=([1], [0])))


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


def to_linear_structure(alg: CommutativeAlgebra) -> SymPoissonPair:
    """theta^{ij} = c^k_{ij} x^k on the dual chart, with the flat connection."""
    chart = Chart(_chart_names(alg.dim))
    d = alg.dim

    def build(idx):
        i, j = idx
        c = alg.c[:, i, j]
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
    comps = [ex.ScalarField(theta.comps[idx], d) for idx in np.ndindex(d, d)]
    firsts = [f.diff(k) for f in comps for k in range(d)]
    seconds = ex.Plan(f.diff(m).expr for f in firsts for m in range(d))
    curved = (np.abs(seconds.table(theta.chart.sample_points(5))[0]) > _LINEAR_TOL).any(axis=0)
    curved = curved.reshape(d * d, d * d).any(axis=1)
    for (i, j), f, bent in zip(np.ndindex(d, d), comps, curved):
        if abs(f(origin)) > _LINEAR_TOL:
            raise AlgebraError(f"component ({i},{j}) has a constant part")
        if bent:
            raise AlgebraError(f"component ({i},{j}) is not linear in the coordinates")
    # firsts[(i d + j) d + k] = d_k theta^{ij} = c^k_{ij}
    c = np.array([f(origin) for f in firsts], dtype=object).reshape(d, d, d).transpose(2, 0, 1)
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
