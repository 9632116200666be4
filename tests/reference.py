"""The reference routes that evaluation plans and component builders are
tested against.

`eval_scaled` walks an expression tree recursively at one point, node by
node with multiplicity, independently of `expr.Plan`; a node fails there
where it fails in both of a plan's runners, an overflow in ``**``
included.
`plan_order` gives `Plan.nodes` by a recursive walk.  `parse_reference`
parses a text with the lazy lexer and recursive-descent parser that
`expr.parse` used before it scanned each text once.  The `*_comps`
functions build a component array index by index with nested loops.  The
`*_sum` functions spell the exact algebra identities out term by term over
the structure constants and connection coefficients, and
`involutive_pairwise` tests one bracket of two rows at a time.  The
`*_bracket_sum`, `laplacian_sum` and `derivative_along_sum` functions expand
the bracket formulas over components, one term at a time, without the
vector field that induces each bracket; `pw_gradient_dense` forms every
product of the gradient flow, as `pw.pw_gradient` did before it skipped the
structural zeros of gamma.  `integrate_stepwise` runs a
trajectory one RK4 step at a time, calling `Plan.values` on the right-hand
side once per stage.  `add_folded` and `mul_folded` fold two constants into
a new `Const` every time, as `expr.add` and `expr.mul` did before they returned
existing nodes.  `membership_pointwise` tests one vector against im theta
at one point, with its own eigendecomposition, as `involutivity_check` did
sample by sample before the stacked routine.  `geodesic_defect_pointwise`
evaluates Gamma and the cubic with one `Plan.values` call per interior state
and contracts them with `np.einsum`, as the geodesic monitor did before it
read a table of jet leaves; `cyclic_bracket` builds the cyclic [theta, theta]
tree it reads.  `verdict_trees`
builds the symbolic fields the sampled verdicts contract from the jet
table, and `tree_verdicts` reads the verdicts from those trees, as
`verdict_suite` did before the jet table.  `dense_jet_contractions`
contracts a jet table over every index, structural zeros included, as
`poisson.Jets` did before it summed only live terms; `dense_jets` scatters
the live components `poisson.Jets` forms into the same dense arrays, and
`jet_leaves` reads theta, d theta and Gamma from its table.  `csv_rows` prints a float table
with one `'%.17g'` per value, as `pw.trajectory_to_csv` did before its
vectorized writer.
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np

from sympoisson import expr as ex
from sympoisson import geometry, poisson, pw
from sympoisson.defaults import RANK_TOL, TOL
from sympoisson.expr import BinOp, Call, Const, EvalDomainError, Expr, Neg, ParseError, Pow, Var

_FUNCS = {"exp": math.exp, "ln": math.log, "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt}


def eval_scaled(e, values):
    """(value, scale) of `e` at the point `values`; scale = max |v| over all
    subterm values.  Raises EvalDomainError naming the first failing subterm,
    an overflow in ``**`` or exp among them, as `Plan.values` and
    `Plan.table` do."""
    if isinstance(e, Const):
        return e.value, abs(e.value)
    if isinstance(e, Var):
        v = values[e.index]
        return v, abs(v)
    if isinstance(e, BinOp):
        a, sa = eval_scaled(e.left, values)
        b, sb = eval_scaled(e.right, values)
        if e.op == "+":
            v = a + b
        elif e.op == "-":
            v = a - b
        elif e.op == "*":
            v = a * b
        else:
            if b == 0.0:
                raise EvalDomainError("division by zero", e)
            v = a / b
        return v, max(sa, sb, abs(v))
    if isinstance(e, Pow):
        b, sb = eval_scaled(e.base, values)
        if b == 0.0 and e.exponent < 0:
            raise EvalDomainError("zero raised to a negative power", e)
        try:
            v = b ** e.exponent
        except OverflowError:
            raise EvalDomainError("overflow", e) from None
        return v, max(sb, abs(v))
    if isinstance(e, Neg):
        v, s = eval_scaled(e.arg, values)
        return -v, s
    if isinstance(e, Call):
        a, s = eval_scaled(e.arg, values)
        v = _apply(e, a)
        return v, max(s, abs(v))
    raise TypeError(f"not an expression node: {e!r}")


def _apply(e, a):
    if e.func == "ln" and a <= 0.0:
        raise EvalDomainError("ln of a non-positive argument", e)
    if e.func == "sqrt" and a < 0.0:
        raise EvalDomainError("sqrt of a negative argument", e)
    try:
        return _FUNCS[e.func](a)
    except OverflowError:
        raise EvalDomainError("overflow", e) from None


# ---------------------------------------------------------------------------
# Per-permutation builds: every component index built on its own, so no
# permutation shares the node of its sorted index as `geometry` builds them.
# Arguments and results are component arrays of Expr.
# ---------------------------------------------------------------------------

def sym_product_comps(a, b, n):
    p, q = a.ndim, b.ndim
    positions = range(p + q)
    comps = np.empty((n,) * (p + q), dtype=object)
    for idx in np.ndindex(*comps.shape):
        terms = []
        for s in itertools.combinations(positions, p):
            ia = tuple(idx[t] for t in s)
            ib = tuple(idx[t] for t in positions if t not in s)
            terms.append(ex.mul(a[ia], b[ib]))
        comps[idx] = ex.expr_sum(terms)
    return comps


def contract_first_slot_comps(one, comps):
    out = np.empty(comps.shape[1:], dtype=object)
    for idx in np.ndindex(*out.shape):
        out[idx] = ex.expr_sum([ex.mul(one[m], comps[(m,) + idx]) for m in range(len(one))])
    return out


def multi_contract_comps(x, phi, n):
    r, s = x.ndim, phi.ndim
    inv = ex.const(1.0 / math.factorial(r))
    comps = np.empty((n,) * (s - r), dtype=object)
    for idx in np.ndindex(*comps.shape):
        terms = [ex.mul(x[multi], phi[multi + idx]) for multi in np.ndindex(*(n,) * r)]
        comps[idx] = ex.mul(inv, ex.expr_sum(terms))
    return comps


def raise_indices_comps(ginv, phi, n):
    r = phi.ndim
    comps = np.empty((n,) * r, dtype=object)
    for idx in np.ndindex(*comps.shape):
        terms = []
        for multi in np.ndindex(*(n,) * r):
            factors = [ginv[idx[a], multi[a]] for a in range(r)] + [phi[multi]]
            terms.append(ex.expr_product(factors))
        comps[idx] = ex.expr_sum(terms)
    return comps


def covariant_derivative_comps(gamma, t, contravariant, n):
    r = t.ndim
    comps = np.empty((n,) * (r + 1), dtype=object)
    for full in np.ndindex(*comps.shape):
        i, idx = full[0], full[1:]
        terms = [t[idx].diff(i)]
        for a in range(r):
            for m in range(n):
                swapped = idx[:a] + (m,) + idx[a + 1:]
                if contravariant:
                    terms.append(ex.mul(gamma[idx[a], i, m], t[swapped]))
                else:
                    terms.append(ex.neg(ex.mul(gamma[m, i, idx[a]], t[swapped])))
        comps[full] = ex.expr_sum(terms)
    return comps


def symmetric_derivative_comps(nabla):
    comps = np.empty(nabla.shape, dtype=object)
    r = nabla.ndim - 1
    for idx in np.ndindex(*comps.shape):
        comps[idx] = ex.expr_sum([nabla[(idx[m],) + idx[:m] + idx[m + 1:]] for m in range(r + 1)])
    return comps


# ---------------------------------------------------------------------------
# Arrays built index by index with nested loops, in the library's term order;
# `geometry._build_components(..., fixed=rank)` builds each of them.
# ---------------------------------------------------------------------------

def torsion_free_part_comps(gamma):
    n = len(gamma)
    half = ex.const(0.5)
    comps = np.empty((n, n, n), dtype=object)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                comps[k, i, j] = ex.mul(half, ex.add(gamma[k, i, j], gamma[k, j, i]))
    return comps


def lie_bracket_comps(x, y):
    n = len(x)
    comps = np.empty((n,), dtype=object)
    for k in range(n):
        terms = []
        for i in range(n):
            terms.append(ex.mul(x[i], y[k].diff(i)))
            terms.append(ex.neg(ex.mul(y[i], x[k].diff(i))))
        comps[k] = ex.expr_sum(terms)
    return comps


def curvature_comps(gamma):
    n = len(gamma)
    comps = np.empty((n, n, n, n), dtype=object)
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    terms = [gamma[l, j, k].diff(i), ex.neg(gamma[l, i, k].diff(j))]
                    for m in range(n):
                        terms.append(ex.mul(gamma[l, i, m], gamma[m, j, k]))
                        terms.append(ex.neg(ex.mul(gamma[l, j, m], gamma[m, i, k])))
                    comps[l, k, i, j] = ex.expr_sum(terms)
    return comps


def ricci_comps(r):
    n = len(r)
    comps = np.empty((n, n), dtype=object)
    for k in range(n):
        for j in range(n):
            comps[k, j] = ex.expr_sum([r[l, k, l, j] for l in range(n)])
    return comps


def inverse_comps(m, det):
    """Adjugate over `det`, one cofactor expansion per entry."""
    n = len(m)
    comps = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            cof = det(np.delete(np.delete(m, j, axis=0), i, axis=1))
            comps[i, j] = ex.div(ex.neg(cof) if (i + j) % 2 == 1 else cof, det(m))
    return comps


def levi_civita_comps(g, ginv):
    n = len(g)
    half = ex.const(0.5)
    comps = np.empty((n, n, n), dtype=object)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                terms = []
                for l in range(n):
                    inner = ex.add(g[l, j].diff(i), ex.sub(g[l, i].diff(j), g[i, j].diff(l)))
                    terms.append(ex.mul(ginv[k, l], inner))
                comps[k, i, j] = ex.mul(half, ex.expr_sum(terms))
    return comps


def schouten_self_cyclic_comps(d):
    n = len(d)
    two = ex.const(2.0)
    comps = np.empty((n, n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                comps[i, j, k] = ex.mul(two, ex.expr_sum([d[i, j, k], d[j, k, i], d[k, i, j]]))
    return comps


def bianchi_comps(r, forms, anchors):
    """-(eta_l R^l_{kij} X^i Y^j) + cyclic over (alpha, beta, eta) and their anchors."""
    n = len(r)
    comps = np.empty((n,), dtype=object)
    for k in range(n):
        terms = []
        for a in range(3):
            x, y, w = anchors[a], anchors[(a + 1) % 3], forms[(a + 2) % 3]
            for l in range(n):
                for i in range(n):
                    for j in range(n):
                        terms.append(ex.neg(ex.expr_product([w[l], r[l, k, i, j], x[i], y[j]])))
        comps[k] = ex.expr_sum(terms)
    return comps


def linear_structure_comps(c):
    """theta^{ij} = c^k_{ij} x^k over the nonzero constants."""
    d = len(c)
    comps = np.empty((d, d), dtype=object)
    for i in range(d):
        for j in range(d):
            terms = [ex.mul(ex.const(float(c[k][i][j])), ex.var(k)) for k in range(d) if c[k][i][j] != 0]
            comps[i, j] = ex.expr_sum(terms)
    return comps


def chart_export_comps(a, theta, frame, inverse):
    """(Gamma, theta) in the chart of a frame, E_i^b = frame[i][b]: the
    frame matrix m[b, i] = E_i^b, F^b_{ij} = A^k_{ij} E_k^b - E_i^c d_c E_j^b,
    Gamma^b_{ac} = m^{-1}[i, a] m^{-1}[j, c] F^b_{ij} and
    theta^{ab} = theta^{ij} E_i^a E_j^b, with m^{-1} = inverse(m)."""
    n = len(frame)
    m = np.empty((n, n), dtype=object)
    for b in range(n):
        for i in range(n):
            m[b, i] = frame[i][b]
    m_inv = inverse(m)
    f = np.empty((n, n, n), dtype=object)
    for b in range(n):
        for i in range(n):
            for j in range(n):
                terms = [ex.mul(ex.const(float(a[k][i][j])), frame[k][b]) for k in range(n) if a[k][i][j] != 0]
                for c in range(n):
                    terms.append(ex.neg(ex.mul(frame[i][c], frame[j][b].diff(c))))
                f[b, i, j] = ex.expr_sum(terms)
    gamma = np.empty((n, n, n), dtype=object)
    for b in range(n):
        for a_ in range(n):
            for c in range(n):
                terms = []
                for i in range(n):
                    for j in range(n):
                        terms.append(ex.expr_product([m_inv[i, a_], m_inv[j, c], f[b, i, j]]))
                gamma[b, a_, c] = ex.expr_sum(terms)
    pushed = np.empty((n, n), dtype=object)
    for a_ in range(n):
        for b in range(n):
            terms = []
            for i in range(n):
                for j in range(n):
                    if theta[i, j] != 0:
                        terms.append(ex.expr_product([ex.const(float(theta[i, j])), frame[i][a_], frame[j][b]]))
            pushed[a_, b] = ex.expr_sum(terms)
    return gamma, pushed


# ---------------------------------------------------------------------------
# Bracket formulas expanded term by term.  theta and gamma are component
# arrays of Expr; f and g are scalar or phase fields (anything with `diff`);
# the results are Expr.
# ---------------------------------------------------------------------------

def poisson_bracket_sum(theta, f, g):
    """theta^ij d_i f d_j g."""
    n = len(theta)
    return ex.expr_sum([
        ex.expr_product([theta[i, j], f.diff(i).expr, g.diff(j).expr]) for i in range(n) for j in range(n)
    ])


def pw_bracket_sum(gamma, f, g):
    """F_{x^i} G_{p_i} + F_{p_i} G_{x^i} + 2 p_k G^k_ij F_{p_i} G_{p_j} on the
    phase chart (x^1..x^n, p_1..p_n)."""
    n = len(gamma)
    terms = []
    for i in range(n):
        terms += [ex.mul(f.diff(i).expr, g.diff(n + i).expr), ex.mul(f.diff(n + i).expr, g.diff(i).expr)]
    for i, j, k in np.ndindex(n, n, n):
        factors = [ex.const(2.0), ex.var(n + k), gamma[k, i, j], f.diff(n + i).expr, g.diff(n + j).expr]
        terms.append(ex.expr_product(factors))
    return ex.expr_sum(terms)


def pw_gradient_dense(gamma, h):
    """The gradient flow's components (H_{p_i}, then H_{x^j} + 2 p_k G^k_ij
    H_{p_i}), one product per (i, k), structural zeros of gamma included."""
    n = len(gamma)
    out = [h.diff(n + i).expr for i in range(n)]
    for j in range(n):
        terms = [h.diff(j).expr]
        for i, k in np.ndindex(n, n):
            terms.append(ex.expr_product([ex.const(2.0), ex.var(n + k), gamma[k, i, j], h.diff(n + i).expr]))
        out.append(ex.expr_sum(terms))
    return out


def canonical_bracket_sum(f, g, n):
    """F_{x^i} G_{p_i} - G_{x^i} F_{p_i} on the phase chart of an n-chart."""
    terms = []
    for i in range(n):
        terms += [ex.mul(f.diff(i).expr, g.diff(n + i).expr), ex.neg(ex.mul(g.diff(i).expr, f.diff(n + i).expr))]
    return ex.expr_sum(terms)


def laplacian_sum(theta, gamma, f):
    """theta^ij (d_i d_j f - G^k_ij d_k f)."""
    n = len(theta)
    terms = []
    for i, j in np.ndindex(n, n):
        corr = ex.expr_sum([ex.mul(gamma[k, i, j], f.diff(k).expr) for k in range(n)])
        terms.append(ex.mul(theta[i, j], ex.sub(f.diff(i).diff(j).expr, corr)))
    return ex.expr_sum(terms)


def derivative_along_sum(x, f):
    """X^i d_i f for the components X^i of a vector field."""
    return ex.expr_sum([ex.mul(x[i], f.diff(i).expr) for i in range(len(x))])


# ---------------------------------------------------------------------------
# The node order of an evaluation plan, by a recursive walk
# ---------------------------------------------------------------------------

def plan_order(exprs):
    """The constants, then the variables, then every other node, each group
    in the post-order of a left-to-right walk over `exprs` with repeats
    dropped.  Children are the node's Expr-valued dataclass fields, in
    field order."""
    seen, order = set(), []

    def walk(e):
        if id(e) in seen:
            return
        for f in dataclasses.fields(e):
            child = getattr(e, f.name)
            if isinstance(child, Expr):
                walk(child)
        seen.add(id(e))
        order.append(e)

    for root in exprs:
        walk(root)
    kinds = [Const, Var]
    return [e for k in kinds for e in order if type(e) is k] + [e for e in order if type(e) not in kinds]


# ---------------------------------------------------------------------------
# The lazy lexer and recursive-descent parser that `expr.parse` replaced
# ---------------------------------------------------------------------------

class _Lexer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        save = self.pos
        tok = self.next()
        self.pos = save
        return tok

    def next(self):
        self._skip_ws()
        start = self.pos
        if self.pos >= len(self.text):
            return ("end", "", start)
        ch = self.text[self.pos]
        if ch in "+-*/^()":
            self.pos += 1
            return ("op", ch, start)
        if ch.isdigit() or ch == ".":
            j = self.pos
            seen_e = False
            while j < len(self.text):
                c = self.text[j]
                if c.isdigit() or c == ".":
                    j += 1
                elif c in "eE" and not seen_e and j + 1 < len(self.text) and (
                    self.text[j + 1].isdigit() or self.text[j + 1] in "+-"
                ):
                    seen_e = True
                    j += 2 if self.text[j + 1] in "+-" else 1
                else:
                    break
            lit = self.text[self.pos:j]
            self.pos = j
            try:
                float(lit)
            except ValueError:
                raise ParseError(f"bad number literal '{lit}'", start) from None
            return ("num", lit, start)
        if ch.isalpha() or ch == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            name = self.text[self.pos:j]
            self.pos = j
            return ("ident", name, start)
        raise ParseError(f"unexpected character '{ch}'", start)


class _Parser:
    def __init__(self, text, names):
        self.lexer = _Lexer(text)
        self.names = list(names)

    def parse(self):
        e = self.expr()
        kind, val, pos = self.lexer.next()
        if kind != "end":
            raise ParseError(f"unexpected trailing input '{val}'", pos)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, val, _ = self.lexer.peek()
            if kind == "op" and val in "+-":
                self.lexer.next()
                rhs = self.term()
                e = ex.add(e, rhs) if val == "+" else ex.sub(e, rhs)
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, val, _ = self.lexer.peek()
            if kind == "op" and val in "*/":
                self.lexer.next()
                rhs = self.factor()
                e = ex.mul(e, rhs) if val == "*" else ex.div(e, rhs)
            else:
                return e

    def factor(self):
        e = self.base()
        kind, val, _ = self.lexer.peek()
        if kind == "op" and val == "^":
            self.lexer.next()
            e = ex.powi(e, self._int_literal())
        return e

    def _int_literal(self):
        kind, val, pos = self.lexer.next()
        sign = 1
        if kind == "op" and val == "-":
            sign = -1
            kind, val, pos = self.lexer.next()
        if kind != "num" or any(c in val for c in ".eE"):
            raise ParseError("exponent must be a constant integer", pos)
        return sign * int(val)

    def base(self):
        kind, val, pos = self.lexer.next()
        if kind == "num":
            return Const(float(val))
        if kind == "op" and val == "-":
            return ex.neg(self.base())
        if kind == "op" and val == "(":
            e = self.expr()
            kind, val, pos = self.lexer.next()
            if not (kind == "op" and val == ")"):
                raise ParseError("expected ')'", pos)
            return e
        if kind == "ident":
            if val in _FUNCS:
                kind2, val2, pos2 = self.lexer.next()
                if not (kind2 == "op" and val2 == "("):
                    raise ParseError(f"expected '(' after function {val}", pos2)
                e = self.expr()
                kind2, val2, pos2 = self.lexer.next()
                if not (kind2 == "op" and val2 == ")"):
                    raise ParseError("expected ')'", pos2)
                return ex.call(val, e)
            if val in self.names:
                return Var(self.names.index(val))
            raise ParseError(f"unknown identifier '{val}'", pos)
        raise ParseError(f"unexpected token '{val}'", pos)


def parse_reference(text, names):
    """The expression tree of `text` over the coordinate `names`, or its
    ParseError, by the lazy lexer, which lexes a token again at each peek."""
    return _Parser(text, names).parse()


# ---------------------------------------------------------------------------
# Exact identities term by term, over structure constants c[k][i][j]
# (e_i e_j = c^k_ij e_k) and connection coefficients a[k][i][j]
# (nabla_i X_j = A^k_ij X_k); every value is a Fraction.
# ---------------------------------------------------------------------------

def _fsum(terms):
    return sum(terms, start=Fraction(0))


def triple_sum(c, i, j, k):
    """((e_j e_k) e_i)^l = sum_m c^m_jk c^l_mi, for every l."""
    d = len(c)
    return tuple(_fsum(c[m][j][k] * c[l][m][i] for m in range(d)) for l in range(d))


def jacobi_sum(c, i, j, k):
    """sum_m c^m_ij c^l_mk + c^m_jk c^l_mi + c^m_ki c^l_mj, for every l."""
    d = len(c)
    return tuple(
        _fsum(c[m][i][j] * c[l][m][k] + c[m][j][k] * c[l][m][i] + c[m][k][i] * c[l][m][j] for m in range(d))
        for l in range(d)
    )


def associator_sum(c, i, j, k):
    """e_i (e_j e_k) - (e_i e_j) e_k = sum_m c^m_jk c^l_im - c^m_ij c^l_mk."""
    d = len(c)
    return tuple(_fsum(c[m][j][k] * c[l][i][m] - c[m][i][j] * c[l][m][k] for m in range(d)) for l in range(d))


def covariant_derivative_sum(a, comps, i):
    """(nabla_i theta)^J = sum over slots s and m of A^{J_s}_im theta^{J with m at s}."""
    d = len(a)
    out = np.empty(comps.shape, dtype=object)
    for idx in np.ndindex(*comps.shape):
        out[idx] = _fsum(
            a[idx[s]][i][m] * comps[idx[:s] + (m,) + idx[s + 1:]] for s in range(len(idx)) for m in range(d)
        )
    return out


def _rank(rows):
    """The rank of rational rows, by Gaussian elimination over Fractions."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def involutive_pairwise(c, theta):
    """Whether each bracket [row i, row j]^k = sum_mn c^k_mn theta_im theta_jn
    lies in the span of the rows of theta, one pair and one rank at a time."""
    d = len(c)
    rows = [list(theta[i]) for i in range(d)]
    base = _rank(rows)
    for i in range(d):
        for j in range(i + 1, d):
            bracket = [_fsum(c[k][m][n] * rows[i][m] * rows[j][n] for m in range(d) for n in range(d)) for k in range(d)]
            if _rank(rows + [bracket]) != base:
                return False
    return True


def directional_sum(a, theta):
    """Row i: sum_m theta_im nabla_m theta, one m at a time."""
    d = len(a)
    nabla = [covariant_derivative_sum(a, theta, m) for m in range(d)]
    rows = []
    for i in range(d):
        row = np.full((d, d), Fraction(0), dtype=object)
        for m in range(d):
            row = row + theta[i, m] * nabla[m]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# RK4 one step at a time: the stepper `pw._integrate` ran before the whole
# trajectory became one generated function
# ---------------------------------------------------------------------------

def rk4_step(rhs, y, dt):
    """One classical RK4 step on tuples of Python floats, in the operation
    order of ``y + (dt/6) * (k1 + 2 k2 + 2 k3 + k4)``, element by element."""
    half = 0.5 * dt
    k1 = rhs(y)
    k2 = rhs([a + half * b for a, b in zip(y, k1)])
    k3 = rhs([a + half * b for a, b in zip(y, k2)])
    k4 = rhs([a + dt * b for a, b in zip(y, k3)])
    sixth = dt / 6.0
    return tuple(
        [a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    )


def _trajectory(dt, rows, n, channels, second):
    """Rows hold x, the second block, the velocity, then one value per channel."""
    table = np.array(rows, dtype=float).reshape(len(rows), 3 * n + len(channels))
    channels = {name: table[:, 3 * n + c] for c, name in enumerate(channels)}
    return pw.Trajectory(dt, table[:, :n], table[:, n : 2 * n], table[:, 2 * n : 3 * n], channels, second)


def integrate_stepwise(rhs_exprs, observe_exprs, y0, dt, steps, chart, channels, second):
    """`pw._integrate` with one `Plan.values` call per stage and per stored
    state, raising the same errors with the same partial trajectories."""
    rhs, observe = ex.Plan(rhs_exprs).values, ex.Plan(observe_exprs).values
    rows = []
    y = tuple(y0)
    try:
        for step in range(steps + 1):
            if step:
                y = rk4_step(rhs, y, dt)
                if not all(map(math.isfinite, y)):
                    raise pw.BlowUpError(step, _trajectory(dt, rows, chart.n, channels, second))
            rows.append(y + tuple(observe(y)))
    except EvalDomainError as err:
        partial = _trajectory(dt, rows, chart.n, channels, second)
        cause = err.named([*chart.names, *(f"p{i + 1}" for i in range(chart.n))])
        if err.reason == "overflow":
            raise pw.BlowUpError(step, partial, cause) from err
        raise pw.TrajectoryError(f"{cause} at step {step}", step, partial) from err
    return _trajectory(dt, rows, chart.n, channels, second)


# ---------------------------------------------------------------------------
# Constant folds as `expr.add` and `expr.mul` made them before they returned
# an operand's node where the folded value is that operand bit for bit
# ---------------------------------------------------------------------------

def add_folded(a, b):
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb:
        return Const(a.value + b.value)
    if ca and a.value == 0.0:
        return b
    if cb and b.value == 0.0:
        return a
    return BinOp("+", a, b)


def mul_folded(a, b):
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb:
        return Const(a.value * b.value)
    if ca or cb:
        c, other = (a.value, b) if ca else (b.value, a)
        if c == 0.0:
            return ex.ZERO
        if c == 1.0:
            return other
        if c == -1.0:
            return ex.neg(other)
    return BinOp("*", a, b)


# ---------------------------------------------------------------------------
# Membership in im theta one point and one vector at a time: the loop that
# `involutivity_check` ran over per-sample characteristic data
# ---------------------------------------------------------------------------

def membership_pointwise(matrix, v):
    """|v - B B^T v| / (1 + |v|), or inf where that is not finite, with B the
    eigenvectors of the symmetrized matrix (theta at a point) whose
    eigenvalue passes the rank threshold."""
    lam, vecs = np.linalg.eigh(0.5 * matrix + 0.5 * matrix.T)
    keep = np.abs(lam) > RANK_TOL * (np.abs(lam).max() + 1.0)
    basis = vecs[:, keep]
    with np.errstate(all="ignore"):
        if not keep.any():
            dist = float(np.linalg.norm(v))
        else:
            coeffs = basis.T @ v
            dist = float(np.linalg.norm(v - basis @ coeffs))
        res = dist / (1.0 + float(np.linalg.norm(v)))
    return res if math.isfinite(res) else math.inf


# ---------------------------------------------------------------------------
# The geodesic defect with one point evaluation per interior state: the loop
# `pw._geodesic_defect` ran before it read one table over all states
# ---------------------------------------------------------------------------

def cyclic_bracket(conn, theta):
    """The cyclic [theta, theta] tree, 2 ((D^{ijk} + D^{jki}) + D^{kij}) with
    D^{ijk} = theta^{im} nabla_m theta^{jk}, built without the torsion check
    that samples Gamma on the chart's box.  nabla_m theta^{ij} sums the terms
    of `geometry.covariant_derivative` in its order, built for i <= j.

    A product with a structural-zero factor is left out of its sum, as the
    jet plan leaves it out.  `expr.add` drops such a product anyway wherever
    `expr.mul` folds it to a zero; it differs only where the other factor is
    an infinite constant, which `expr.mul` folds to NaN (0 * inf)."""
    n, t, gamma = theta.chart.n, theta.comps, conn.gamma

    def total(first, pairs):
        return ex.expr_sum([*first, *(ex.mul(a, b) for a, b in pairs
                                      if not (ex.is_structural_zero(a) or ex.is_structural_zero(b)))])

    nabla = np.empty((n, n, n), dtype=object)
    for m, i, j in np.ndindex(n, n, n):
        if i <= j:
            pairs = [(gamma[i, m, k], t[k, j]) for k in range(n)] + [(gamma[j, m, k], t[i, k]) for k in range(n)]
            nabla[m, i, j] = nabla[m, j, i] = total([t[i, j].diff(m)], pairs)
    d = np.empty((n, n, n), dtype=object)
    for i, j, k in np.ndindex(n, n, n):
        d[i, j, k] = total([], [(t[i, m], nabla[m, j, k]) for m in range(n)])
    return geometry.SymTensorField(theta.chart, 3, schouten_self_cyclic_comps(d))


def geodesic_defect_pointwise(conn, cubic, traj, theta=None):
    """| nabla_{xdot} xdot - (1/4) i_a i_a cubic | at each interior state,
    with Gamma and `cubic` from `Plan.values` called state by state.

    Given `theta`, the plan's roots start with the jet leaves in
    `poisson._Layout` order (theta, d theta, Gamma), so where several
    leaves fail at one state the error names the leaf the jet plan names."""
    states = len(traj.xs)
    if states < 3:
        raise pw.DynamicsError("need at least 3 stored states for finite differences")
    n = conn.chart.n
    leaves = []
    if theta is not None:
        leaves = [*theta.comps.flat, *(theta.comps[i, j].diff(m) for m, i, j in np.ndindex(n, n, n))]
    exprs = [*leaves, *conn.gamma.flat, *(() if cubic is None else cubic.comps.flat)]
    fields = ex.Plan(exprs).values
    table = np.empty((states - 2, len(exprs)))
    for s, x in enumerate(traj.xs[1:-1].tolist()):
        table[s] = fields(x)
    table = table[:, len(leaves) :]
    v = traj.velocities
    gamma = table[:, : n**3].reshape(-1, n, n, n)
    defect = (v[2:] - v[:-2]) / (2.0 * traj.dt) + np.einsum("skij,si,sj->sk", gamma, v[1:-1], v[1:-1])
    if cubic is not None:
        p = traj.ps[1:-1]
        defect = defect - 0.25 * np.einsum("si,sj,sijm->sm", p, p, table[:, n**3 :].reshape(-1, n, n, n))
    return np.sqrt(np.matmul(defect[:, None, :], defect[:, :, None])[:, 0, 0])


# ---------------------------------------------------------------------------
# The sampled verdicts read from symbolic trees: the route `verdict_suite`
# took before it contracted one jet table of theta, d theta and Gamma
# ---------------------------------------------------------------------------

def verdict_trees(pair):
    """{quantity: component array of nodes}: nabla theta (m, i, j), theta^{im}
    nabla_m theta (i, j, k), the cyclic [theta, theta] (i, j, k) and the Lie
    brackets of the rows of theta, one row per i < j (pairs, k), each built
    index by index with the nested loops above."""
    n = pair.chart.n
    theta = pair.theta.comps
    nabla_theta = covariant_derivative_comps(pair.nabla.gamma, theta, True, n)
    directional = np.stack([contract_first_slot_comps(row, nabla_theta) for row in theta])
    commutators = [lie_bracket_comps(theta[i], theta[j]) for i in range(n) for j in range(i + 1, n)]
    return {
        "nabla_theta": nabla_theta,
        "directional": directional,
        "schouten": schouten_self_cyclic_comps(directional),
        "commutators": np.array(commutators, dtype=object).reshape(len(commutators), n),
    }


def _fold(terms):
    out = terms[0].copy()
    for term in terms[1:]:
        out += term
    return out


def jet_leaves(jets):
    """theta (samples, i, j), d theta (samples, m, i, j) = d_m theta^{ij} and
    Gamma (samples, k, i, j) = Gamma^k_{ij} of `poisson.Jets`, each (value,
    scale), read from the jet plan's columns."""
    plan = jets._plan
    n = plan.n
    views = []
    for table in (jets.values, jets.scales):
        leaves = table[:, plan.columns]
        views.append((leaves[:, : n * n].reshape(-1, n, n), leaves[:, n * n : n * n + n**3].reshape(-1, n, n, n),
                      leaves[:, n * n + n**3 : -1].reshape(-1, n, n, n)))
    return tuple(zip(*views))


def dense_jets(jets):
    """{quantity: (value, scale)} of `poisson.Jets.contracted`, each scattered
    into (samples, n, n, n): nabla theta at (m, i, j) and (m, j, i), D and
    [theta, theta] at (i, j, k).  A component the jet plan does not form
    reads 0."""
    plan = jets._plan
    n = plan.n
    i, j = np.triu_indices(n)
    m, i, j = np.repeat(np.arange(n), len(i)), np.tile(i, n), np.tile(j, n)
    out = {}
    for quantity, components in zip(poisson.QUANTITIES, plan.components):
        slots = [components]
        if quantity == "nabla_theta":
            slots = [(m[components] * n + i[components]) * n + j[components],
                     (m[components] * n + j[components]) * n + i[components]]
        dense = []
        for table in jets.contracted[quantity]:
            full = np.zeros((len(table), n**3))
            for slot in slots:
                full[:, slot] = table
            dense.append(full.reshape(-1, n, n, n))
        out[quantity] = tuple(dense)
    return out


def dense_jet_contractions(jets):
    """{quantity: (value, scale)} of `poisson.Jets` by dense products over
    every index, each sum folded in the trees' order, over the leaf values
    and over the leaf scales alike: nabla theta (samples, m, i, j), D
    (samples, i, j, k), the cyclic [theta, theta] and the commutators
    (samples, pairs, k; no scale).  Terms with a structural zero are formed
    too, so the leaves and their scales must be finite."""
    (t, st), (d, sd), (g, sg) = jet_leaves(jets)
    n = t.shape[1]
    i, j = np.triu_indices(n, 1)

    def contract(t, d, g):
        gk = g.transpose(3, 0, 2, 1)  # [k, s, m, i] = Gamma^i_{mk}
        first = gk[..., None] * t.transpose(1, 0, 2)[:, :, None, None, :]
        second = gk[:, :, :, None, :] * t.transpose(2, 0, 1)[:, :, None, :, None]
        nabla = _fold(np.concatenate([d[None], first, second]))
        nabla[:, :, j, i] = nabla[:, :, i, j]
        return nabla, _fold(t.transpose(2, 0, 1)[..., None, None] * nabla.transpose(1, 0, 2, 3)[:, :, None])

    def cyclic(a):
        return 2.0 * (a + a.transpose(0, 3, 1, 2) + a.transpose(0, 2, 3, 1))

    def terms(x, y):
        return t[:, x].transpose(2, 0, 1)[..., None] * d[:, :, y].transpose(1, 0, 2, 3)

    (nabla, directional), (nabla_scale, directional_scale) = contract(t, d, g), contract(st, sd, sg)
    commutators = _fold(np.stack([terms(i, j), -terms(j, i)], axis=1).reshape((2 * n, len(t), len(i), n)))
    return {
        "nabla_theta": (nabla, nabla_scale),
        "directional": (directional, directional_scale),
        "schouten": (cyclic(directional), cyclic(directional_scale)),
        "commutators": (commutators, None),
    }


def tree_table(comps, samples):
    """(values, scales) of a component array of nodes at the samples, each
    (samples, *comps.shape), from one plan."""
    values, scales = ex.Plan(comps.flat).table(samples)
    shape = (len(samples),) + comps.shape
    return values.reshape(shape), scales.reshape(shape)


def tree_verdicts(pair, samples):
    """The four verdicts from the trees of `verdict_trees`: each residual
    scaled by its largest subterm, and the membership of the commutators."""
    trees = verdict_trees(pair)
    got = {
        name: ex.Plan(trees[quantity].flat).residual(samples) <= TOL
        for name, quantity in [("symmetric_poisson", "schouten"), ("strong", "directional"), ("parallel", "nabla_theta")]
    }
    _, vecs, keep = poisson._spectra(pair.theta, samples, pair.theta.evaluate_on(samples))
    table, _ = tree_table(trees["commutators"], samples)
    got["involutive"] = poisson._involutivity_report(vecs, keep, table).verdict
    return got


def csv_rows(table):
    """The rows of a (rows, columns) float table as CSV lines, one '%.17g' per value."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return row * len(table) % tuple(table.ravel().tolist())
