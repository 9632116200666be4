"""Symmetric components are built once per sorted index.

Every builder that returns a symmetric field stores one node at all
permutations of an index: `comps[perm] is comps[sorted]`.  Its values agree
with a per-permutation build (`reference.py`) within 1e-12, scaled, on random
symmetric fields, so aliasing only drops round-off.  `Plan.nodes` keeps the
order of the reference post-order walk, on catalog and bracket-sized trees.
"""

import itertools

import numpy as np
import pytest

import reference
from sympoisson import algebroid, poisson, registry
from sympoisson import expr as ex
from sympoisson.expr import Plan
from sympoisson.geometry import (
    Chart,
    Connection,
    SymFormField,
    SymTensorField,
    contract,
    covariant_derivative,
    invert_metric,
    levi_civita,
    multi_contract,
    raise_indices,
    schouten,
    sym_product,
    symmetric_derivative,
)

R2 = Chart(["x", "y"])
R3 = Chart(["x", "y", "z"])


def _poly(rng, names) -> str:
    c = rng.uniform(-2.0, 2.0, size=4)
    a, b = rng.choice(names, size=2)
    return f"{c[0]:.6f} + {c[1]:.6f}*{a} + {c[2]:.6f}*{a}*{b} + {c[3]:.6f}*{b}^2"


def _field(kind, chart, degree, rng):
    """A random field of the kind, one polynomial per sorted index."""
    entries = {idx: _poly(rng, chart.names)
               for idx in itertools.combinations_with_replacement(range(chart.n), degree)}
    if degree == 0:
        return kind.from_scalar(chart.parse(entries[()]), chart)
    return kind.from_dict(chart, degree, entries)


def _connection(chart, rng, symmetric=True):
    n = chart.n
    entries = {(k, i, j): _poly(rng, chart.names)
               for k in range(n) for i in range(n) for j in range(n) if i <= j or not symmetric}
    if symmetric:
        return Connection.from_dict(chart, entries)
    gamma = np.empty((n, n, n), dtype=object)
    for idx, text in entries.items():
        gamma[idx] = chart.parse(text).expr
    return Connection(chart, gamma)


def _assert_identity_symmetric(comps, fixed=0):
    for idx in np.ndindex(*comps.shape):
        head, tail = idx[:fixed], idx[fixed:]
        assert comps[idx] is comps[head + tuple(sorted(tail))], idx


def _assert_agree(got, want, chart):
    assert got.shape == want.shape
    samples = chart.sample_points()
    value, scale = Plan(got.flat).table(samples)
    ref_value, ref_scale = Plan(want.flat).table(samples)
    assert np.all(np.abs(value - ref_value) <= 1e-12 * (1.0 + np.maximum(scale, ref_scale)))


DEGREE_PAIRS = [(p, q) for p in range(5) for q in range(5) if 1 <= p + q <= 4]


@pytest.mark.parametrize("kind", [SymTensorField, SymFormField])
@pytest.mark.parametrize("p, q", DEGREE_PAIRS)
def test_sym_product_builds_each_sorted_index_once(kind, p, q):
    rng = np.random.default_rng(100 * p + q)
    a, b = _field(kind, R3, p, rng), _field(kind, R3, q, rng)
    out = sym_product(a, b)
    _assert_identity_symmetric(out.comps)
    if p and q:
        _assert_agree(out.comps, reference.sym_product_comps(a.comps, b.comps, R3.n), R3)


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("kind", [SymTensorField, SymFormField])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_covariant_derivative_aliases_only_its_last_slots(kind, degree, symmetric):
    # the connection need not be torsion free: the base slots are symmetric anyway
    rng = np.random.default_rng(10 * degree + symmetric)
    conn, t = _connection(R3, rng, symmetric), _field(kind, R3, degree, rng)
    nabla = covariant_derivative(conn, t)
    _assert_identity_symmetric(nabla.comps, fixed=1)
    want = reference.covariant_derivative_comps(conn.gamma, t.comps, kind is SymTensorField, R3.n)
    _assert_agree(nabla.comps, want, R3)
    x = _field(SymTensorField, R3, 1, rng)
    along = nabla.along(x)
    _assert_identity_symmetric(along.comps)
    _assert_agree(along.comps, reference.contract_first_slot_comps(x.comps, want), R3)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_symmetric_derivative_builds_each_sorted_index_once(degree):
    rng = np.random.default_rng(degree)
    conn, phi = _connection(R3, rng), _field(SymFormField, R3, degree, rng)
    out = symmetric_derivative(conn, phi)
    _assert_identity_symmetric(out.comps)
    want = reference.covariant_derivative_comps(conn.gamma, phi.comps, False, R3.n)
    _assert_agree(out.comps, reference.symmetric_derivative_comps(want), R3)


@pytest.mark.parametrize("kinds", [(SymFormField, SymTensorField), (SymTensorField, SymFormField)])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_contract_builds_each_sorted_index_once(kinds, degree):
    rng = np.random.default_rng(degree)
    a, t = _field(kinds[0], R3, 1, rng), _field(kinds[1], R3, degree, rng)
    out = contract(a, t)
    _assert_identity_symmetric(out.comps)
    _assert_agree(out.comps, reference.contract_first_slot_comps(a.comps, t.comps), R3)


@pytest.mark.parametrize("r, s", [(r, s) for s in range(1, 5) for r in range(1, s + 1)])
def test_multi_contract_builds_each_sorted_index_once(r, s):
    rng = np.random.default_rng(10 * r + s)
    x, phi = _field(SymTensorField, R3, r, rng), _field(SymFormField, R3, s, rng)
    out = multi_contract(x, phi)
    _assert_identity_symmetric(out.comps)
    _assert_agree(out.comps, reference.multi_contract_comps(x.comps, phi.comps, R3.n), R3)


@pytest.mark.parametrize("kind", [SymTensorField, SymFormField])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_raise_indices_builds_each_sorted_index_once(kind, degree):
    rng = np.random.default_rng(degree)
    other = SymFormField if kind is SymTensorField else SymTensorField
    ginv, phi = _field(kind, R3, 2, rng), _field(other, R3, degree, rng)
    out = raise_indices(ginv, phi)
    assert type(out) is kind
    _assert_identity_symmetric(out.comps)
    _assert_agree(out.comps, reference.raise_indices_comps(ginv.comps, phi.comps, R3.n), R3)


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_componentwise_arithmetic_builds_each_sorted_index_once(degree):
    # per-permutation products: symmetric in value, one tree per permutation
    rng = np.random.default_rng(degree)
    u, v, w = (_field(SymTensorField, R3, d, rng) for d in (1, degree - 1, degree))
    a = SymTensorField(R3, degree, reference.sym_product_comps(u.comps, v.comps, R3.n))
    for out, op in ((a + w, ex.add), (a - w, ex.sub), (-a, lambda e, _: ex.neg(e))):
        _assert_identity_symmetric(out.comps)
        _assert_agree(out.comps, np.frompyfunc(op, 2, 1)(a.comps, w.comps), R3)


def test_invert_metric_builds_each_sorted_index_once():
    rng = np.random.default_rng(3)
    g = _field(SymFormField, R3, 2, rng)
    ginv = invert_metric(g)
    _assert_identity_symmetric(ginv.comps)
    want = np.linalg.inv(g.evaluate_on(R3.sample_points()))
    assert np.allclose(ginv.evaluate_on(R3.sample_points()), want, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# Plan.nodes keeps the reference post-order
# ---------------------------------------------------------------------------

def test_plan_order_on_catalog_trees():
    for ident, entry in registry.CATALOG.items():
        try:
            pair = entry.pair()
        except registry.CatalogError:
            continue
        nabla_theta = covariant_derivative(pair.nabla, pair.theta).comps
        directional = [reference.contract_first_slot_comps(row, nabla_theta) for row in pair.theta.comps]
        roots = [*pair.theta.comps.flat, *pair.nabla.gamma.flat, *np.stack(directional).flat,
                 *poisson.schouten_self(pair).comps.flat]
        assert Plan(roots).nodes == reference.plan_order(roots), ident


def _killing_bracket():
    g = SymFormField.from_dict(R2, 2, {(0, 0): "2 + 0.1*x", (0, 1): "0.2", (1, 1): "2 - 0.3*y"})
    ginv = invert_metric(g)
    return schouten(levi_civita(g), ginv, raise_indices(ginv, g))


def _derived_bracket():
    rng = np.random.default_rng(7)
    x = sym_product(_field(SymTensorField, R2, 1, rng), _field(SymTensorField, R2, 1, rng))
    y, phi = _field(SymTensorField, R2, 1, rng), _field(SymFormField, R2, 3, rng)
    return algebroid.derived_bracket_check(registry.kill_connection(R2), x, y, phi)


@pytest.mark.parametrize("build", [_killing_bracket, _derived_bracket])
def test_plan_order_on_bracket_trees(build):
    # the trees the bracket benchmark evaluates: [g^-1, g^-1 K] with K = g,
    # and a derived bracket of degrees (2, 1) on a degree-3 form
    roots = list(build().comps.flat)
    plan = Plan(roots)
    assert len(plan) > 250
    assert plan.nodes == reference.plan_order(roots)
    # listing the roots again, reversed, adds no node and moves none
    assert Plan(roots + roots[::-1]).nodes == plan.nodes
