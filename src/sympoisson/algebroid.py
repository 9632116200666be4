"""Killing tensors through the multivector bracket, the derived-bracket
identity, and the cotangent almost-Lie bracket of a pair.

Operator identities are checked extensionally: both operator sides are
applied to a supplied symmetric form and the difference is sampled.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from .defaults import TOL
from .geometry import (
    Connection,
    SymFormField,
    SymTensorField,
    contract,
    covariant_derivative,
    curvature,
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

def killing_via_schouten(
    g: SymFormField, k: SymFormField, tol: float = TOL, samples=None
) -> bool:
    """K is Killing for the metric connection iff [g^{-1}, g^{-1}(K)] = 0.

    The bracket is taken with the Levi-Civita connection of g; this is the
    mate of the kernel condition on the symmetric derivative.
    """
    ginv = invert_metric(g)
    lifted = raise_indices(ginv, k)
    conn = levi_civita(g)
    return schouten(conn, ginv, lifted).is_zero_on(samples, tol)


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
    measures the defect (identically zero in exact arithmetic).
    """
    conn.require_torsion_free()
    lhs = _apply_commutator(conn, x, y, phi)
    if x.degree + y.degree - 1 > phi.degree:
        rhs = SymFormField.zero(phi.chart, max(phi.degree - x.degree - y.degree + 1, 0))
    else:
        rhs = multi_contract(schouten(conn, x, y), phi)
    if lhs.degree != rhs.degree:
        # one side collapsed structurally; the residual is the surviving side
        if _is_structural_zero(lhs) and _is_structural_zero(rhs):
            return SymFormField.zero(phi.chart, 0)
        if _is_structural_zero(lhs):
            return rhs.scale(-1.0)
        if _is_structural_zero(rhs):
            return lhs
        raise ValueError("degree mismatch with nonzero sides")
    return lhs - rhs


def _apply_commutator(conn, x, y, phi):
    """[[i_X, D], i_Y] phi = i_X D i_Y phi - D i_X i_Y phi - i_Y i_X D phi + i_Y D i_X phi."""
    d = lambda f: symmetric_derivative(conn, f)  # noqa: E731
    ix = lambda f: multi_contract(x, f)  # noqa: E731
    iy = lambda f: multi_contract(y, f)  # noqa: E731
    t1 = ix(d(iy(phi)))
    t2 = d(ix(iy(phi)))
    t3 = iy(ix(d(phi)))
    t4 = iy(d(ix(phi)))
    return _sum_forms([t1, t2.scale(-1.0), t3.scale(-1.0), t4])


def _sum_forms(forms):
    # structurally zero terms absorb into whatever degree the live terms carry
    degrees = {f.degree for f in forms if not _is_structural_zero(f)}
    if not degrees:
        return forms[0]
    if len(degrees) > 1:
        raise ValueError(f"cannot sum forms of degrees {degrees}")
    deg = degrees.pop()
    chart = forms[0].chart
    out = SymFormField.zero(chart, deg)
    for f in forms:
        if f.degree != deg:
            continue
        out = out + f
    return out


def _is_structural_zero(f) -> bool:
    return all(isinstance(e, ex.Const) and e.value == 0.0 for e in f.comps.flat)


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
    ta = anchor(pair, alpha)
    taf = sum((ta.entry(i) * f.diff(i) for i in range(chart.n)), start=chart.zero())
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
    comps = np.empty((n,), dtype=object)
    for k in range(n):
        terms = []
        for a_ix in range(3):
            x = anchors[a_ix]
            y = anchors[(a_ix + 1) % 3]
            w = fields[(a_ix + 2) % 3]
            for l in range(n):
                for i in range(n):
                    for j in range(n):
                        terms.append(
                            ex.neg(
                                ex.expr_product(
                                    [w.comps[(l,)], r[l, k, i, j], x.comps[(i,)], y.comps[(j,)]]
                                )
                            )
                        )
        comps[(k,)] = ex.expr_sum(terms)
    return SymFormField(chart, 1, comps)
