"""Killing tensors through the multivector bracket, the derived-bracket
identity, and the cotangent almost-Lie bracket of a pair.

Operator identities are checked extensionally: both operator sides are
applied to a supplied symmetric form and the difference is sampled.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from .geometry import (
    Connection,
    SymFormField,
    SymTensorField,
    _build_components,
    contract,
    covariant_derivative,
    curvature,
    differential,
    invert_metric,
    levi_civita,
    lie_bracket,
    multi_contract,
    raise_indices,
    schouten,
    symmetric_derivative,
)
from .poisson import SymPoissonPair


# ---------------------------------------------------------------------------
# Killing tensors via the bracket
# ---------------------------------------------------------------------------

def killing_via_schouten(g: SymFormField, k: SymFormField) -> bool:
    """K is Killing for the metric connection iff [g^{-1}, g^{-1}(K)] = 0.

    The bracket is taken with the Levi-Civita connection of g; this is the
    mate of the kernel condition on the symmetric derivative.
    """
    ginv = invert_metric(g)
    lifted = raise_indices(ginv, k)
    conn = levi_civita(g)
    return schouten(conn, ginv, lifted).is_zero_on()


# ---------------------------------------------------------------------------
# derived bracket
# ---------------------------------------------------------------------------

def derived_bracket_check(
    conn: Connection,
    x: SymTensorField,
    y: SymTensorField,
    phi: SymFormField,
) -> SymFormField:
    """Residual of [[i_X, D], i_Y] phi = i_{[X, Y]} phi with D the symmetric
    derivative.

    Both sides are expanded on phi; the result is a form whose sampled norm
    measures the defect (identically zero in exact arithmetic).  Both sides
    have degree deg phi - deg X - deg Y + 1; below 0 they vanish, and the
    residual is the degree-0 zero form.
    """
    conn.require_torsion_free()
    degree = phi.degree - x.degree - y.degree + 1
    if degree < 0:
        return SymFormField.zero(phi.chart, 0)
    d = lambda f: symmetric_derivative(conn, f)  # noqa: E731
    ix = lambda f: multi_contract(x, f)  # noqa: E731
    iy = lambda f: multi_contract(y, f)  # noqa: E731
    # [[i_X, D], i_Y] phi = i_X D i_Y phi - D i_X i_Y phi - i_Y i_X D phi + i_Y D i_X phi;
    # a term that collapsed to another degree must be a structural zero
    lhs = SymFormField.zero(phi.chart, degree)
    for term in (ix(d(iy(phi))), d(ix(iy(phi))).scale(-1.0), iy(ix(d(phi))).scale(-1.0), iy(d(ix(phi)))):
        if term.degree == degree:
            lhs = lhs + term
        elif not all(map(ex.is_structural_zero, term.comps.flat)):
            raise ValueError(f"a term of degree {term.degree} is not zero; the identity has degree {degree}")
    return lhs - multi_contract(schouten(conn, x, y), phi)


# ---------------------------------------------------------------------------
# cotangent bracket
# ---------------------------------------------------------------------------

def cotangent_bracket(pair: SymPoissonPair, alpha: SymFormField, beta: SymFormField) -> SymFormField:
    """[alpha, beta] = nabla_{theta(alpha)} beta - nabla_{theta(beta)} alpha."""
    if alpha.degree != 1 or beta.degree != 1:
        raise ValueError("cotangent bracket is defined on 1-forms")
    ta = contract(alpha, pair.theta)
    tb = contract(beta, pair.theta)
    return (
        covariant_derivative(pair.nabla, beta).along(ta)
        - covariant_derivative(pair.nabla, alpha).along(tb)
    )


def anchor(pair: SymPoissonPair, alpha: SymFormField) -> SymTensorField:
    return contract(alpha, pair.theta)


def leibniz_residual(
    pair: SymPoissonPair, alpha: SymFormField, f, beta: SymFormField
) -> SymFormField:
    """[alpha, f beta] - (theta(alpha) f) beta - f [alpha, beta]."""
    chart = pair.chart
    f = chart.parse(f) if isinstance(f, str) else f
    lhs = cotangent_bracket(pair, alpha, beta.scale(f))
    taf = contract(differential(f, chart), anchor(pair, alpha)).scalar()
    rhs = beta.scale(taf) + cotangent_bracket(pair, alpha, beta).scale(f)
    return lhs - rhs


def anchor_morphism_residual(
    pair: SymPoissonPair, alpha: SymFormField, beta: SymFormField
) -> SymTensorField:
    """theta([alpha, beta]) - [theta(alpha), theta(beta)]; zero for strong pairs."""
    lhs = anchor(pair, cotangent_bracket(pair, alpha, beta))
    rhs = lie_bracket(anchor(pair, alpha), anchor(pair, beta))
    return lhs - rhs


def jacobi_residual(
    pair: SymPoissonPair, alpha: SymFormField, beta: SymFormField, eta: SymFormField
) -> SymFormField:
    """[alpha, [beta, eta]] + cyclic."""
    out = cotangent_bracket(pair, alpha, cotangent_bracket(pair, beta, eta))
    out = out + cotangent_bracket(pair, beta, cotangent_bracket(pair, eta, alpha))
    out = out + cotangent_bracket(pair, eta, cotangent_bracket(pair, alpha, beta))
    return out


def bianchi_residual(
    pair: SymPoissonPair, alpha: SymFormField, beta: SymFormField, eta: SymFormField
) -> SymFormField:
    """R(theta(alpha), theta(beta)) . eta + cyclic, acting on 1-forms by duality.

    (R(X,Y) eta)_k = - eta_l R^l_{k i j} X^i Y^j.
    """
    chart = pair.chart
    n = chart.n
    r = curvature(pair.nabla).comps
    fields = [alpha, beta, eta]
    anchors = [anchor(pair, f) for f in fields]

    def build(idx):
        (k,) = idx
        terms = []
        for a_ix in range(3):
            x = anchors[a_ix]
            y = anchors[(a_ix + 1) % 3]
            w = fields[(a_ix + 2) % 3]
            for l, i, j in np.ndindex(n, n, n):
                terms.append(ex.neg(ex.expr_product([w.comps[(l,)], r[l, k, i, j], x.comps[(i,)], y.comps[(j,)]])))
        return ex.expr_sum(terms)

    return SymFormField(chart, 1, _build_components(n, 1, build, fixed=1))
