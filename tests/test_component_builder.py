"""Every symbolic component array comes from `geometry._build_components`.

With `fixed` axes kept per index, the builder calls `build` once per index
whose remaining axes are sorted, in `np.ndindex` order; with `fixed=rank`
that is every index.  The arrays that are not symmetric (Gamma, R, Ric, the
Lie bracket, the Bianchi term, linear structures and chart exports) are
built that way, so each component is the very node the nested loops in
`reference` build: the same terms in the same order, and nodes are
interned.  So is a contraction into the first slot of nabla theta.
"""

import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from sympoisson import algebroid, jj, liealg, poisson, registry
from sympoisson import expr as ex
from sympoisson.expr import ScalarField
from sympoisson.geometry import (
    Chart,
    Connection,
    DegenerateMetricError,
    SymFormField,
    SymTensorField,
    _build_components,
    _symbolic_det,
    _symbolic_inverse,
    covariant_derivative,
    curvature,
    invert_metric,
    levi_civita,
    lie_bracket,
    ricci,
    torsion_free_part,
)

# a polynomial as (coefficient, exponents) terms; exponents past the arity are dropped
monomials = st.tuples(st.integers(-3, 3).filter(bool), st.tuples(*[st.integers(0, 3)] * 3))
polynomials = st.lists(monomials, min_size=1, max_size=4)
charts = st.sampled_from([Chart(["x"]), Chart(["x", "y"]), Chart(["x", "y", "z"])])


def _polynomial(terms, arity: int):
    return ex.expr_sum([
        ex.expr_product([ex.const(c)] + [ex.powi(ex.var(k), e) for k, e in enumerate(exponents[:arity])])
        for c, exponents in terms
    ])


def _array(draw, shape, arity):
    comps = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        comps[idx] = _polynomial(draw(polynomials), arity)
    return comps


def _assert_same_nodes(got, want):
    assert got.shape == want.shape
    for idx in np.ndindex(*want.shape):
        assert got[idx] is want[idx], idx


@functools.cache
def _catalog_pairs():
    pairs = {}
    for ident, entry in registry.CATALOG.items():
        try:
            pairs[ident] = entry.pair()
        except registry.CatalogError:
            continue
    assert len(pairs) == 25
    return pairs


# ---------------------------------------------------------------------------
# the builder
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("rank, fixed", [(r, f) for r in range(5) for f in range(r + 1)])
def test_build_runs_once_per_index_with_sorted_free_axes_in_ndindex_order(n, rank, fixed):
    calls = []

    def build(idx):
        calls.append(idx)
        return ex.const(float(len(calls)))

    comps = _build_components(n, rank, build, fixed=fixed)
    indices = list(np.ndindex(*(n,) * rank))
    assert calls == [idx for idx in indices if list(idx[fixed:]) == sorted(idx[fixed:])]
    for idx in indices:
        built = calls.index(idx[:fixed] + tuple(sorted(idx[fixed:])))
        assert comps[idx] is ex.const(float(built + 1)), idx


# ---------------------------------------------------------------------------
# catalog pairs
# ---------------------------------------------------------------------------

def test_connection_arrays_of_the_catalog_are_the_loop_nodes():
    for ident, pair in _catalog_pairs().items():
        gamma = pair.nabla.gamma
        r = curvature(pair.nabla).comps
        _assert_same_nodes(r, reference.curvature_comps(gamma))
        _assert_same_nodes(ricci(pair.nabla), reference.ricci_comps(r))
        _assert_same_nodes(torsion_free_part(pair.nabla).gamma, reference.torsion_free_part_comps(gamma))


def test_levi_civita_connections_of_nondegenerate_catalog_thetas_are_the_loop_nodes():
    metrics = 0
    for ident, pair in _catalog_pairs().items():
        try:
            g = invert_metric(pair.theta)
        except DegenerateMetricError:
            continue
        metrics += 1
        want = reference.levi_civita_comps(g.comps, invert_metric(g).comps)
        _assert_same_nodes(levi_civita(g).gamma, want)
    assert metrics == 7


def test_directional_derivatives_and_generator_brackets_of_the_catalog_are_the_loop_nodes():
    for ident, pair in _catalog_pairs().items():
        nabla_theta = covariant_derivative(pair.nabla, pair.theta)
        fields = poisson.characteristic_generators(pair)
        for x in fields:
            want = reference.contract_first_slot_comps(x.comps, nabla_theta.comps)
            _assert_same_nodes(nabla_theta.along(x).comps, want)
        for x, y in itertools.combinations(fields, 2):
            _assert_same_nodes(lie_bracket(x, y).comps, reference.lie_bracket_comps(x.comps, y.comps))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_catalog_pairs())), st.data())
def test_bianchi_term_of_catalog_pairs_is_the_loop_nodes(ident, data):
    pair = _catalog_pairs()[ident]
    n = pair.chart.n
    forms = [SymFormField(pair.chart, 1, _array(data.draw, (n,), n)) for _ in range(3)]
    got = algebroid.bianchi_residual(pair, *forms).comps
    anchors = [algebroid.anchor(pair, f).comps for f in forms]
    want = reference.bianchi_comps(curvature(pair.nabla).comps, [f.comps for f in forms], anchors)
    _assert_same_nodes(got, want)


@pytest.mark.parametrize("ident", [e.ident for e in jj.catalog()])
def test_linear_structures_are_the_loop_nodes(ident):
    alg = jj.catalog_entry(ident).algebra
    _assert_same_nodes(jj.to_linear_structure(alg).theta.comps, reference.linear_structure_comps(alg.c))


@pytest.mark.parametrize("ident", ["aff1", "aff1xR", "heisenberg3", "abelian_2"])
def test_chart_exports_are_the_loop_nodes(ident):
    entry = registry.LIE_ENTRIES[ident]
    pair = entry.pair()
    g = liealg.algebra(ident)
    theta = liealg.LeftInvariantSymTensor.from_dict(g.dim, 2, entry.thetas[entry.export])
    frame = [list(e.comps) for e in liealg.polynomial_frame(ident)[1]]
    gamma, pushed = reference.chart_export_comps(liealg.weitzenboeck0(g).a, theta.comps, frame, _symbolic_inverse)
    _assert_same_nodes(pair.nabla.gamma, gamma)
    _assert_same_nodes(pair.theta.comps, pushed)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["aff1", "aff1xR", "heisenberg3"]), st.data())
def test_exports_through_drawn_frames_are_the_loop_nodes(ident, data):
    # A drawn frame breaks the algebra's brackets, so its connection has
    # torsion and no pair holds it; the export itself never looks.  40 on the
    # diagonal keeps the frame matrix invertible.
    g = liealg.algebra(ident)
    n = g.dim
    chart = Chart(["x", "y", "z"][:n])
    frame = _array(data.draw, (n, n), n)
    for i in range(n):
        frame[i, i] = ex.add(ex.const(40.0), frame[i, i])
    values = data.draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    upper = {(i, j): values[n * i + j] for i, j in np.ndindex(n, n) if i <= j}
    theta = liealg.LeftInvariantSymTensor.from_dict(n, 2, upper)
    conn = liealg.weitzenboeck0(g)
    with mock.patch.object(liealg, "SymPoissonPair", lambda theta, nabla: (theta, nabla)):
        theta_chart, nabla = liealg.chart_export(g, conn, theta, chart, [SymTensorField(chart, 1, e) for e in frame])
    gamma, pushed = reference.chart_export_comps(conn.a, theta.comps, frame, _symbolic_inverse)
    _assert_same_nodes(nabla.gamma, gamma)
    _assert_same_nodes(theta_chart.comps, pushed)


# ---------------------------------------------------------------------------
# drawn fields
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(charts, st.data())
def test_drawn_connection_arrays_are_the_loop_nodes(chart, data):
    n = chart.n
    conn = Connection(chart, _array(data.draw, (n, n, n), n))  # with torsion
    r = curvature(conn).comps
    _assert_same_nodes(r, reference.curvature_comps(conn.gamma))
    _assert_same_nodes(ricci(conn), reference.ricci_comps(r))
    _assert_same_nodes(torsion_free_part(conn).gamma, reference.torsion_free_part_comps(conn.gamma))


@settings(max_examples=30, deadline=None)
@given(charts, st.data())
def test_drawn_lie_brackets_are_the_loop_nodes(chart, data):
    n = chart.n
    x, y = (SymTensorField(chart, 1, _array(data.draw, (n,), n)) for _ in range(2))
    _assert_same_nodes(lie_bracket(x, y).comps, reference.lie_bracket_comps(x.comps, y.comps))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([Chart(["x", "y"]), Chart(["x", "y", "z"])]), st.data())
def test_drawn_levi_civita_connections_are_the_loop_nodes(chart, data):
    # |each drawn polynomial| <= 12 on the unit box, so 40 on the diagonal
    # keeps g diagonally dominant, hence nondegenerate
    n = chart.n
    entries = {}
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        p = _polynomial(data.draw(polynomials), n)
        entries[i, j] = ScalarField(ex.add(ex.const(40.0), p) if i == j else p, n)
    g = SymFormField.from_dict(chart, 2, entries)
    conn = levi_civita(g)
    ginv = _symbolic_inverse(g.comps)
    _assert_same_nodes(conn.gamma, reference.levi_civita_comps(g.comps, ginv))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3), st.data())
def test_drawn_asymmetric_inverses_are_the_loop_nodes(n, data):
    m = _array(data.draw, (n, n), n)
    m[0, 1] = ex.add(m[1, 0], ex.ONE)
    _assert_same_nodes(_symbolic_inverse(m), reference.inverse_comps(m, _symbolic_det))
