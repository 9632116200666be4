"""The linear-structure theorem on generated families, not only the catalog.

A linear structure theta^{ij} = c^k_{ij} x^k is symmetric Poisson iff its
algebra is Jacobi-Jordan, and strong iff it is also associative.  The exact
verdicts on the integer tables and the sampled verdicts on the chart are
independent routes to both sides; every algebra below must get the same
answer from each.  Non-associative Jacobi-Jordan algebras first appear in
dimension 5 (Burde & Fialowski, Linear Algebra Appl. 459, 2014), so that side
comes from basis changes of `jj:dim5_nonassoc`.
"""

import itertools

import numpy as np
import pytest

from sympoisson import jj
from sympoisson.poisson import is_strong, is_symmetric_poisson

# drawn per jj: entry, fixed before the first run
BASIS_CHANGES = 8


def _agree(alg) -> tuple[bool, bool]:
    """(Jacobi-Jordan, associative), after checking the sampled verdicts
    against them."""
    pair = jj.to_linear_structure(alg)
    jordan, associative = jj.is_jacobi_jordan(alg), jj.is_associative(alg)
    assert is_symmetric_poisson(pair) == jordan, alg.c.tolist()
    assert is_strong(pair) == (jordan and associative), alg.c.tolist()
    return jordan, associative


def _family(dim, slots, values):
    """Every algebra whose constants c^k_ij = c^k_ji take the given values
    at the (k, i, j) slots with i <= j, and vanish elsewhere."""
    for drawn in itertools.product(values, repeat=len(slots)):
        c = np.zeros((dim,) * 3, dtype=int)
        for (k, i, j), v in zip(slots, drawn):
            c[k, i, j] = c[k, j, i] = v
        yield jj.CommutativeAlgebra(dim, c)


def _slots(dim, triangular):
    """(k, i, j) with i <= j; triangular keeps k > j, which makes the algebra nilpotent."""
    return [(k, i, j) for k in range(dim) for i in range(dim) for j in range(i, dim) if not triangular or k > j]


@pytest.mark.parametrize(
    "dim,triangular,values,size,jordan",
    [(2, False, (-1, 0, 1), 729, 9), (3, True, (-1, 0, 1), 81, 33), (4, True, (0, 1), 1024, 130)],
    ids=["commutative-dim2", "triangular-dim3", "triangular-dim4"],
)
def test_exhaustive_families(dim, triangular, values, size, jordan):
    verdicts = [_agree(alg) for alg in _family(dim, _slots(dim, triangular), values)]
    assert len(verdicts) == size
    assert sum(j for j, _ in verdicts) == jordan


def _random_unimodular(rng, n):
    # integer shear products stay exactly invertible
    m = np.eye(n, dtype=int)
    for _ in range(6):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            shear = np.eye(n, dtype=int)
            shear[i, j] = rng.integers(-2, 3)
            m = m @ shear
    return m.tolist()


def test_basis_changes_of_every_catalog_entry():
    rng = np.random.default_rng(2025)
    nonassociative = 0
    for entry in jj.catalog():
        for _ in range(BASIS_CHANGES):
            jordan, associative = _agree(jj.basis_change(entry.algebra, _random_unimodular(rng, entry.dim)))
            assert jordan
            nonassociative += not associative
    assert nonassociative >= BASIS_CHANGES
