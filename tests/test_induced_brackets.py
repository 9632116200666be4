"""Each bracket is one function differentiated along the vector field the
other induces: {f, g} = dg(X_f), {F, G}_PW = dG(grad F) and
{F, G}_can = dF(X_G).  The library builds them, the Laplacian and the
anchor's derivative through those fields; each is compared here with its
formula expanded term by term in `reference`, on drawn polynomials, by the
scaled residual |got - want| / (1 + scale) at 25 samples.

The module generators theta(dx^i) are theta's rows, node for node.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from sympoisson import algebroid, poisson, pw, registry
from sympoisson import expr as ex
from sympoisson.expr import ScalarField
from sympoisson.geometry import SymFormField, contract

# curved connections (the first five), a flat one, and theta of full and of
# deficient rank
PAIR_IDS = ("ex:nondeg_kill", "ex:rotation", "ex:radial", "liealg:aff1xR", "liealg:heisenberg3", "jj:dim3_2")
SAMPLES = 25
TOL = 1e-12

# a polynomial as (coefficient, exponents) terms; exponents past the arity are dropped
monomials = st.tuples(st.integers(-3, 3).filter(bool), st.tuples(*[st.integers(0, 3)] * 6))
polynomials = st.lists(monomials, min_size=1, max_size=4)
covectors = st.lists(polynomials, min_size=3, max_size=3)


@functools.cache
def _pair(ident: str) -> poisson.SymPoissonPair:
    return registry.catalog_entry(ident).pair()


def _polynomial(terms, arity: int) -> ScalarField:
    return ScalarField(
        ex.expr_sum([
            ex.expr_product([ex.const(c)] + [ex.powi(ex.var(k), e) for k, e in enumerate(exponents[:arity])])
            for c, exponents in terms
        ]),
        arity,
    )


def _phase(pair, terms) -> pw.PhaseField:
    return pw.PhaseField(pair.chart, _polynomial(terms, 2 * pair.chart.n))


def _phase_samples(pair):
    n = pair.chart.n
    return ex.sample_box(pair.chart.box + ((-1.0, 1.0),) * n, SAMPLES)


def _residual(got, want, samples) -> float:
    """Worst scaled residual of got - want, componentwise over the samples."""
    return ex.residual([ex.sub(a, b) for a, b in zip(got, want)], samples)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PAIR_IDS), polynomials, polynomials)
def test_poisson_bracket_matches_the_expanded_formula(ident, f_terms, g_terms):
    pair = _pair(ident)
    f, g = _polynomial(f_terms, pair.chart.n), _polynomial(g_terms, pair.chart.n)
    got = poisson.poisson_bracket(pair, f, g).expr
    want = reference.poisson_bracket_sum(pair.theta.comps, f, g)
    assert _residual([got], [want], pair.chart.sample_points(SAMPLES)) <= TOL


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PAIR_IDS), polynomials)
def test_laplacian_matches_the_expanded_formula(ident, f_terms):
    pair = _pair(ident)
    f = _polynomial(f_terms, pair.chart.n)
    got = poisson.laplacian(pair, f).expr
    want = reference.laplacian_sum(pair.theta.comps, pair.nabla.gamma, f)
    assert _residual([got], [want], pair.chart.sample_points(SAMPLES)) <= TOL


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PAIR_IDS), polynomials, polynomials)
def test_pw_bracket_matches_the_expanded_formula(ident, f_terms, g_terms):
    pair = _pair(ident)
    f, g = _phase(pair, f_terms), _phase(pair, g_terms)
    got = pw.pw_bracket(pair.nabla, f, g).f.expr
    want = reference.pw_bracket_sum(pair.nabla.gamma, f, g)
    assert _residual([got], [want], _phase_samples(pair)) <= TOL


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PAIR_IDS), polynomials, polynomials)
def test_canonical_bracket_matches_the_expanded_formula(ident, f_terms, g_terms):
    pair = _pair(ident)
    f, g = _phase(pair, f_terms), _phase(pair, g_terms)
    got = pw.canonical_bracket(f, g).f.expr
    want = reference.canonical_bracket_sum(f, g, pair.chart.n)
    assert _residual([got], [want], _phase_samples(pair)) <= TOL


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(PAIR_IDS), covectors, polynomials, covectors)
def test_leibniz_residual_matches_the_expanded_anchor_derivative(ident, a_terms, f_terms, b_terms):
    pair = _pair(ident)
    chart, n = pair.chart, pair.chart.n
    alpha = SymFormField.from_dict(chart, 1, {(i,): _polynomial(t, n) for i, t in enumerate(a_terms[:n])})
    beta = SymFormField.from_dict(chart, 1, {(i,): _polynomial(t, n) for i, t in enumerate(b_terms[:n])})
    f = _polynomial(f_terms, n)
    taf = ScalarField(reference.derivative_along_sum(algebroid.anchor(pair, alpha).comps, f), n)
    lhs = algebroid.cotangent_bracket(pair, alpha, beta.scale(f))
    want = lhs - (beta.scale(taf) + algebroid.cotangent_bracket(pair, alpha, beta).scale(f))
    got = algebroid.leibniz_residual(pair, alpha, f, beta)
    assert _residual(got.comps.flat, want.comps.flat, chart.sample_points(SAMPLES)) <= TOL


def test_characteristic_generators_are_the_rows_of_theta():
    pairs = 0
    for ident, entry in registry.CATALOG.items():
        try:
            pair = entry.pair()
        except registry.CatalogError:
            continue
        pairs += 1
        theta, n = pair.theta.comps, pair.chart.n
        for i, gen in enumerate(poisson.characteristic_generators(pair)):
            # theta(dx^i) by contraction builds the same interned nodes
            contracted = contract(SymFormField.from_dict(pair.chart, 1, {(i,): 1.0}), pair.theta)
            for j in range(n):
                assert gen.comps[j] is theta[i, j], (ident, i, j)
                assert contracted.comps[j] is theta[i, j], (ident, i, j)
    assert pairs == 25
