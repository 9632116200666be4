import copy
import dataclasses
import gc
import hashlib
import math
import pickle
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import eval_scaled, parse_reference
from sympoisson import expr
from sympoisson.expr import (
    EvalDomainError,
    ParseError,
    Plan,
    ScalarField,
    compile_expr,
    differentiate,
    evaluate,
    is_zero_field,
    parse,
    residual,
    sample_box,
    zero_residual,
)


def test_parse_examples():
    f = parse("x^2 * exp(2*y)", ["x", "y"])
    assert evaluate(f, (1.0, 0.0)) == 1.0

    z = parse("0", ["x", "y"])
    for pt in [(0.0, 0.0), (3.0, -7.0)]:
        assert evaluate(z, pt) == 0.0

    g = parse("exp(2*y)", ["x", "y"])
    assert evaluate(g, (0.0, math.log(2.0))) == pytest.approx(4.0, rel=1e-15)


def test_evaluate_examples():
    assert evaluate(parse("3.5", ["x"]), (123.0,)) == 3.5
    assert evaluate(parse("x*y", ["x", "y"]), (3.0, 5.0)) == 15.0
    # value used by the -2*exp(2*(x+y)) witness at the origin
    assert evaluate(parse("exp(2*(x+y))", ["x", "y"]), (0.0, 0.0)) == 1.0


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("x + * y", ["x", "y"])
    assert err.value.position == 4

    with pytest.raises(ParseError, match="unknown identifier"):
        parse("x + w", ["x", "y"])

    with pytest.raises(ParseError, match="integer"):
        parse("x^y", ["x", "y"])

    with pytest.raises(ParseError):
        parse("exp 2", ["x"])

    with pytest.raises(ParseError):
        parse("(x + 1", ["x"])

    for text, message, position in [
        ("1.2.3", "bad number literal '1.2.3'", 0),
        ("x $ 1", "unexpected character '$'", 2),
        ("exp(x", "expected ')'", 5),
        ("x )", "unexpected trailing input ')'", 2),
        ("x^2^3", "unexpected trailing input '^'", 3),
        ("x^y", "exponent must be a constant integer", 2),
        ("x^-1.5", "exponent must be a constant integer", 3),
        ("(x + 1", "expected ')'", 6),
        ("exp 2", "expected '(' after function exp", 4),
        ("x + w", "unknown identifier 'w'", 4),
        ("x + * y", "unexpected token '*'", 4),
        ("", "unexpected token ''", 0),
        ("1e+", "bad number literal '1e+'", 0),
        (" x ² ", "bad number literal '²'", 3),
        # a text fails at the first token its parse reads, not at the first
        # token that cannot be lexed
        ("x ) $", "unexpected trailing input ')'", 2),
        ("x ) 1.2.3", "unexpected trailing input ')'", 2),
        ("exp $", "unexpected character '$'", 4),
        # at most 200 unary minuses, parentheses and function arguments one
        # inside another: the 201st fails at the token that opens it
        ("(" * 201 + "x" + ")" * 201, "expression nested too deeply", 200),
        ("-" * 1000 + "x", "expression nested too deeply", 200),
        ("sin(" * 201 + "x" + ")" * 201, "expression nested too deeply", 803),
        ("-(" * 100 + "-x" + ")" * 100, "expression nested too deeply", 200),
    ]:
        with pytest.raises(ParseError) as err:
            parse(text, ["x"])
        assert (str(err.value), err.value.position) == (f"{message} (at position {position})", position)


def test_parse_reads_200_levels_of_nesting():
    x = expr.var(0)
    assert parse("(" * 200 + "x" + ")" * 200, ["x"]).expr is x
    assert parse("-" * 200 + "x", ["x"]).expr is x
    assert parse("-(" * 100 + "x" + ")" * 100, ["x"]).expr is x
    assert parse("sin(" * 200 + "x" + ")" * 200, ["x"]).expr.max_var() == 0


_TEXT_PIECES = [*"+-*/^()0123456789.eE \t", "\u00a0", "$", "²", "½", "٣", "é", "Ⅷ", "x", "y", "_", "exp", "ln",
                "sqrt", "1e5", "2.5"]
_GRAMMAR_TEXTS = st.recursive(
    st.sampled_from(["x", "y", "e", "w", "2", "0.5", "1e-3", "3.", "٣", "0"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(" ".join),
        inner.map("-{}".format),
        inner.map("({})".format),
        st.tuples(st.sampled_from(["exp", "ln", "sin", "cos", "sqrt"]), inner).map("{0[0]}({0[1]})".format),
        st.tuples(inner, st.sampled_from(["2", "-1", "0", "1.5", "y"])).map("{0[0]}^{0[1]}".format),
    ),
    max_leaves=8,
)


def _parsed(parse_tree, text):
    try:
        return parse_tree(text)
    except expr.ExprError as err:
        return type(err), str(err), getattr(err, "position", None)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(_TEXT_PIECES), max_size=14).map("".join),
    _GRAMMAR_TEXTS,
    st.tuples(_GRAMMAR_TEXTS, st.integers(0, 40)).map(lambda cut: cut[0][:cut[1]]),
))
def test_parse_agrees_with_the_lazy_lexer(text):
    # "x" twice: a repeated name binds to its first index
    names = ["x", "y", "e", "x"]
    got = _parsed(lambda t: parse(t, names).expr, text)
    want = _parsed(lambda t: parse_reference(t, names), text)
    if isinstance(want, expr.Expr):
        assert got is want
    else:
        assert got == want


def test_grammar_shapes():
    # '-' binds at base level: -x^2 is (-x)^2 per factor := base ('^' int)?
    f = parse("-x^2", ["x"])
    assert evaluate(f, (3.0,)) == 9.0
    g = parse("-(x^2)", ["x"])
    assert evaluate(g, (3.0,)) == -9.0
    h = parse("2*x^-1", ["x"])
    assert evaluate(h, (4.0,)) == 0.5
    assert evaluate(parse("1e-2 * x", ["x"]), (3.0,)) == pytest.approx(0.03)


def test_domain_errors_name_subterm():
    f = parse("1/(x - 1)", ["x"])
    with pytest.raises(EvalDomainError, match="division by zero"):
        evaluate(f, (1.0,))
    with pytest.raises(EvalDomainError, match="ln"):
        evaluate(parse("ln(x)", ["x"]), (-2.0,))
    with pytest.raises(EvalDomainError, match="sqrt"):
        evaluate(parse("sqrt(x)", ["x"]), (-1.0,))


def test_point_evaluation_overflow_is_a_domain_error():
    f = parse("x^400", ["x"])
    with pytest.raises(EvalDomainError, match="overflow in subterm 'x1\\^400'"):
        evaluate(f, (10.0,))
    with pytest.raises(EvalDomainError, match="overflow"):
        f((10.0,))
    assert f.plan() is f.plan()


def test_differentiate_examples():
    f = parse("exp(2*y)", ["x", "y"])
    df = differentiate(f, 1)
    for y in (-0.7, 0.0, 1.3):
        assert df((0.0, y)) == pytest.approx(2.0 * math.exp(2.0 * y), rel=1e-14)

    g = parse("x^2 + y", ["x", "y"])
    dg = differentiate(g, 0)
    for x in (-2.0, 0.5):
        assert dg((x, 9.0)) == 2.0 * x


def _fd(f: ScalarField, point, i, h=1e-5):
    p_plus = list(point)
    p_minus = list(point)
    p_plus[i] += h
    p_minus[i] -= h
    return (f(p_plus) - f(p_minus)) / (2 * h)


def test_diff_matches_finite_difference_on_random_cubic():
    rng = np.random.default_rng(expr.SEED if hasattr(expr, "SEED") else 0)
    # random degree-3 polynomial in 3 variables
    names = ["x", "y", "z"]
    terms = []
    for _ in range(8):
        c = rng.integers(-4, 5)
        a, b, d = rng.integers(0, 2, size=3)
        terms.append(f"{c}*x^{a + 1}*y^{b}*z^{d + 1}" if b else f"{c}*x^{a}*y^{b + 1}*z^{d}")
    f = parse(" + ".join(terms), names)
    pts = sample_box([(-1, 1)] * 3, count=20, seed=7)
    for i in range(3):
        df = differentiate(f, i)
        for p in pts:
            exact = df(p)
            approx = _fd(f, p, i)
            assert abs(exact - approx) <= 1e-6 * (1.0 + abs(exact))


def test_diff_matches_fd_for_unary_functions():
    f = parse("exp(x*y) + sin(x) * cos(y) + sqrt(x + 2) + ln(y + 3)", ["x", "y"])
    pts = sample_box([(-1, 1), (-1, 1)], count=10, seed=3)
    for i in range(2):
        df = differentiate(f, i)
        for p in pts:
            assert abs(df(p) - _fd(f, p, i)) <= 1e-6 * (1.0 + abs(df(p)))


def test_is_zero_field():
    pts = sample_box([(-1, 1), (-1, 1)], count=25)
    assert is_zero_field(parse("0", ["x", "y"]), pts)
    assert is_zero_field(parse("x - x", ["x", "y"]), pts)
    assert is_zero_field(parse("1e-20 * x", ["x", "y"]), pts)
    assert not is_zero_field(parse("x", ["x", "y"]), pts)
    # big-minus-big cancellation is judged against the subterm scale
    assert is_zero_field(parse("exp(8*(x+1)) - exp(8*(x+1))", ["x", "y"]), pts)
    with pytest.raises(expr.ExprError):
        is_zero_field(parse("x", ["x", "y"]), [])


def test_zero_residual_scaled():
    pts = sample_box([(-1, 1)], count=25)
    assert zero_residual(parse("0", ["x"]), pts) == 0.0
    assert zero_residual(parse("x - x", ["x"]), pts) == 0.0
    assert zero_residual(parse("x", ["x"]), pts) > 1e-2


def test_product_rule_identity():
    pts = sample_box([(-1, 1), (-1, 1)], count=25, seed=11)
    f = parse("exp(x) * sin(y) + x^3", ["x", "y"])
    g = parse("y^2 - x*y + 2", ["x", "y"])
    for i in range(2):
        lhs = (f * g).diff(i)
        rhs = f.diff(i) * g + f * g.diff(i)
        for p in pts:
            a, b = lhs(p), rhs(p)
            assert abs(a - b) <= 1e-10 * (1.0 + abs(a))


def test_chain_rule_identity():
    pts = sample_box([(0.1, 1)], count=15, seed=12)
    f = parse("exp(sin(x^2))", ["x"])
    df = f.diff(0)
    for p in pts:
        x = p[0]
        expected = math.exp(math.sin(x * x)) * math.cos(x * x) * 2 * x
        assert df(p) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
@example(seed=94496)  # folds exp(729) while the tree is built
def test_print_reparse_round_trip(seed):
    rng = np.random.default_rng(seed)
    names = ["x", "y"]
    try:
        e = _random_expr(rng, depth=4)
    except EvalDomainError as err:
        # a constant folded during the build overflowed: its printed text
        # folds the same way when parsed
        with pytest.raises(EvalDomainError) as again:
            parse(err.subterm, names)
        assert str(again.value) == str(err)
        return
    f = ScalarField(e, 2)
    text = f.to_string(names)
    g = parse(text, names)
    pts = sample_box([(0.25, 2.0), (0.25, 2.0)], count=50, seed=seed + 1)
    for p in pts:
        try:
            a = f(p)
        except EvalDomainError:
            continue
        assert g(p) == a  # tol 0: identical evaluation


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return expr.var(int(rng.integers(0, 2)))
        return expr.const(float(rng.integers(-3, 4)))
    kind = rng.integers(0, 6)
    if kind == 0:
        return expr.add(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == 1:
        return expr.sub(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == 2:
        return expr.mul(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == 3:
        return expr.powi(_random_expr(rng, depth - 1), int(rng.integers(0, 4)))
    if kind == 4:
        return expr.neg(_random_expr(rng, depth - 1))
    fn = ["exp", "sin", "cos"][int(rng.integers(0, 3))]
    return expr.call(fn, _random_expr(rng, depth - 1))


def test_compiled_matches_interpreted():
    f = parse("exp(x*y) - sin(x)^3 / (2 + cos(y))", ["x", "y"])
    fc = _generated([f.expr], 2)
    for p in sample_box([(-1, 1), (-1, 1)], count=30, seed=5):
        assert fc(tuple(p)) == (f(tuple(p)),)


def test_sample_box_deterministic():
    a = sample_box([(-1, 1), (0, 2)], count=5)
    b = sample_box([(-1, 1), (0, 2)], count=5)
    assert np.array_equal(a, b)
    assert a.shape == (5, 2)
    assert (a[:, 1] >= 0).all() and (a[:, 1] <= 2).all()


def test_the_variable_range_is_stored_when_a_node_is_interned():
    assert expr.const(2.0).max_var() == -1
    assert expr.var(3).max_var() == 3
    assert parse("sin(x1) * x3^2 - 4", 3).expr.max_var() == 2
    # e_{k+1} = e_k (e_k + 1): a tree of 2^25 - 1 leaves over 50 distinct nodes
    e = expr.var(0)
    for _ in range(24):
        e = expr.mul(e, expr.add(e, expr.ONE))
    start = time.perf_counter()
    f = ScalarField(e, 1)
    d = f.diff(0)
    with pytest.raises(expr.ExprError, match="cannot shrink arity below used variables"):
        f.with_arity(0)
    assert time.perf_counter() - start < 0.5
    assert d.expr.max_var() == 0
    with pytest.raises(expr.ExprError, match="expression uses variable index 3 but arity is 2"):
        ScalarField(expr.var(3), 2)
    assert copy.deepcopy(e) is e and pickle.loads(pickle.dumps(e)) is e


def test_scalar_field_arithmetic_with_numbers_prints_its_tree():
    f = parse("x1 * x2", 2)
    assert f.arity == 2
    assert (3 - f).to_string() == "3 - x1 * x2"
    assert (f / 2).to_string() == "x1 * x2 / 2"


def test_arity_validation():
    with pytest.raises(expr.ExprError):
        ScalarField(expr.var(2), 2)
    f = parse("x + y", ["x", "y"])
    with pytest.raises(expr.ExprError):
        f.diff(5)
    with pytest.raises(expr.ExprError, match="^arity mismatch$"):
        parse("x1", 1) + parse("x1", 2)
    with pytest.raises(expr.ExprError, match="^unknown function foo$"):
        expr.call("foo", expr.var(0))


def test_sample_box_rejects_counts_below_one():
    for count in (0, -3):
        with pytest.raises(expr.ExprError, match="at least 1"):
            sample_box([(-1, 1)], count=count)


# ---------------------------------------------------------------------------
# evaluation plans
# ---------------------------------------------------------------------------

def test_plan_evaluates_each_shared_node_once():
    x = expr.var(0)
    shared = expr.mul(expr.add(x, expr.const(1.0)), expr.add(x, expr.const(1.0)))
    roots = [expr.add(shared, shared), expr.sub(shared, x), shared]
    plan = Plan(roots)
    # x, 1.0, x + 1 (both sums are one interned node), the product, and the two roots
    assert len(plan) == 6
    assert plan.values((2.0,)) == [18.0, 7.0, 9.0]


def test_residual_is_inf_for_non_finite_values():
    f = parse("x + y", ["x", "y"])
    with_nan = np.array([[0.5, 0.5], [math.nan, 0.5]])
    assert residual([f.expr], with_nan) == math.inf
    # inf / (1 + inf) is NaN, which a plain max() would drop; a product
    # that overflows fails no node, so it reads inf
    big = parse("(1e200*x)*(1e200*x) - (1e200*x)*(1e200*x)", ["x"])
    pts = sample_box([(2.0, 1000.0)], count=25)
    assert zero_residual(big, pts) == math.inf
    assert not is_zero_field(big, pts)
    # an overflow in ** fails its node: the values loop's error
    power = parse("x^400 - x^400", ["x"])
    with pytest.raises(EvalDomainError) as loop_err:
        for p in pts:
            power(p)
    assert str(loop_err.value) == "overflow in subterm 'x1^400'"
    for read in (zero_residual, is_zero_field):
        with pytest.raises(EvalDomainError) as err:
            read(power, pts)
        assert str(err.value) == str(loop_err.value) and err.value.node is loop_err.value.node


def test_residual_rejects_empty_samples():
    with pytest.raises(expr.ExprError):
        residual([parse("x", ["x"]).expr], [])


def test_point_overflow_is_a_domain_error():
    plan = Plan([parse("x^400", ["x"]).expr, parse("exp(x)", ["x"]).expr])
    with pytest.raises(EvalDomainError, match="overflow in subterm 'x1\\^400'"):
        plan.values((1000.0,))
    with pytest.raises(EvalDomainError, match="overflow in subterm 'exp\\(x1\\)'"):
        Plan([parse("exp(x)", ["x"]).expr]).values((1000.0,))
    with pytest.raises(EvalDomainError, match="zero raised to a negative power"):
        Plan([parse("x^-2", ["x"]).expr]).values((0.0,))


def test_residual_reports_the_tree_walks_first_domain_error():
    names = ["x", "y"]
    # component 0 fails only at the second sample, component 1 at both:
    # a sample-by-sample walk meets component 1's failure first
    exprs = [parse("ln(x)", names).expr, parse("1 / (y - y) + sqrt(x)", names).expr]
    pts = np.array([[0.5, 0.0], [-0.5, 0.0]])
    with pytest.raises(EvalDomainError) as err:
        residual(exprs, pts)
    assert str(err.value) == "division by zero in subterm '1 / (x2 - x2)'"
    with pytest.raises(EvalDomainError) as err:
        residual(exprs[::-1], pts)
    assert str(err.value) == "division by zero in subterm '1 / (x2 - x2)'"
    # two nodes fail at the same sample: the left one comes first
    with pytest.raises(EvalDomainError) as err:
        residual([parse("sqrt(x) * ln(x)", names).expr], pts)
    assert str(err.value) == "sqrt of a negative argument in subterm 'sqrt(x1)'"


def _shared_exprs(rng):
    """A few roots drawn from a pool in which every new node reuses older
    nodes, so subterms are shared within and across roots."""
    pool = [expr.var(0), expr.var(1)]
    for _ in range(int(rng.integers(4, 11))):
        a = pool[int(rng.integers(len(pool) // 2, len(pool)))]  # grow deep subterms
        if rng.random() < 0.25:
            b = expr.const(float(rng.integers(-4, 5)) / 2)
        else:
            b = pool[int(rng.integers(len(pool)))]
        kind = int(rng.integers(0, 8))
        try:  # constant folding may leave the domain
            if kind == 0:
                node = expr.add(a, b)
            elif kind == 1:
                node = expr.sub(a, b)
            elif kind == 2:
                node = expr.mul(a, b)
            elif kind == 3:
                node = expr.div(a, b)
            elif kind == 4:
                node = expr.powi(a, int(rng.choice([-2, -1, 2, 3])))
            elif kind == 5:
                node = expr.neg(a)
            else:
                node = expr.call(["exp", "ln", "sin", "cos", "sqrt"][int(rng.integers(0, 5))], a)
        except EvalDomainError:
            continue
        pool.append(node)
    picks = rng.integers(len(pool) // 2, len(pool), size=int(rng.integers(1, 5)))
    return [pool[int(i)] for i in picks]


def _tree_walk_residual(exprs, samples):
    """The reference route: one eval_scaled walk per sample and component,
    sample by sample and then component by component; the first walk that
    fails raises, an overflow in ``**`` included."""
    worst = 0.0
    with np.errstate(all="ignore"):
        for p in samples:
            for e in exprs:
                v, scale = eval_scaled(e, p)
                r = abs(v) / (1.0 + scale)
                worst = max(worst, r if math.isfinite(r) and math.isfinite(scale) else math.inf)
    return worst


def _generated(exprs, dim):
    """The values of `exprs` at a point of `dim` coordinates as generated code
    computes them: a function written through `_Source`, the emitter of the
    RK4 stages, which reads the point's coordinates, computes the plan's
    lines in one ``try`` and returns its roots."""
    code = expr._Source("def f(y):")
    code.add("    ", *(f"y{k} = _float(y[{k}])" for k in range(dim)), "try:")
    lines, roots = code.nodes(Plan(exprs), "o", [f"y{k}" for k in range(dim)])
    code.emit("        ", lines)
    code.add("        ", f"return {expr._tuple(roots)}")
    code.add("    ", "except _FAILURES as err:", "    raise _located(err) from None")
    return code.function()


def _same_floats(a, b):
    return len(a) == len(b) and all(x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(a, b))


def _same_outcome(run, want, point):
    """run(point) returns the floats want(point) returns, or raises the same
    EvalDomainError: the same message about the same node.  Returns what
    run returned, or None."""
    try:
        expected = want(point)
    except EvalDomainError as err:
        with pytest.raises(EvalDomainError) as got:
            run(point)
        assert str(got.value) == str(err) and got.value.node is err.node is not None
        return None
    got = run(point)
    assert _same_floats(got, expected)
    return got


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_plan_agrees_with_tree_walk_and_compiled_lambdas(seed):
    rng = np.random.default_rng(seed)
    exprs = _shared_exprs(rng)
    plan = Plan(exprs)
    samples = sample_box([(-2, 2), (-2, 2)], count=int(rng.integers(1, 8)), seed=seed)

    # residual vs the per-sample eval_scaled loop: same value, same failures
    try:
        want, want_err = _tree_walk_residual(exprs, samples), None
    except (EvalDomainError, ValueError) as err:  # ValueError: sin/cos of inf
        want, want_err = None, err
    if want_err is None:
        # the same float operations in the same order: equal, not merely close
        assert plan.residual(samples) == want
    else:
        with pytest.raises(EvalDomainError) as got_err:
            plan.residual(samples)
        if isinstance(want_err, EvalDomainError):
            assert str(got_err.value) == str(want_err) and got_err.value.node is want_err.node
        else:
            assert "non-finite argument" in str(got_err.value)

    # table rows vs point values: where the row and its scales are finite,
    # no node overflowed or failed, and the values are equal bit for bit
    if want_err is None:
        values, scales = plan.table(samples)
        assert values.shape == scales.shape == (len(samples), len(exprs))
        for point, row, scale in zip(samples, values, scales):
            if np.isfinite(scale).all():
                got = np.array(plan.values(point))
                assert np.array_equal(got.view(np.uint64), np.array(row).view(np.uint64))

    # point values vs generated code, one function per expression, on tuples
    # and on numpy float64 rows: equal values, or the error of the same node
    fns = [_generated([e], 2) for e in exprs]
    for row in samples:
        for point in (tuple(float(c) for c in row), row):
            _same_outcome(lambda p: [f(p)[0] for f in fns], plan.values, point)


def test_table_raises_an_overflow_in_power_where_values_does():
    odd = Plan([parse("x^401", ["x"]).expr])
    samples = [[1.0], [1000.0], [-1000.0]]
    with pytest.raises(EvalDomainError) as loop_err:
        for p in samples:
            odd.values(p)
    assert str(loop_err.value) == "overflow in subterm 'x1^401'"
    for read in (odd.table, odd.residual, lambda s: residual([odd.nodes[odd.roots[0]]], s)):
        with pytest.raises(EvalDomainError) as err:
            read(samples)
        assert str(err.value) == str(loop_err.value) and err.value.node is loop_err.value.node


# ---------------------------------------------------------------------------
# interning and memoised derivatives
# ---------------------------------------------------------------------------

def test_building_a_structure_twice_gives_one_node():
    names = ["x", "y"]
    text = "x * sin(y) - 2 / (x + 1)^3"
    assert parse(text, names).expr is parse(text, names).expr
    x, one = expr.var(0), expr.const(1.0)
    assert expr.mul(expr.add(x, one), x) is expr.mul(expr.add(x, one), x)
    direct = expr.BinOp("+", expr.Var(0), expr.Const(1.0))
    assert direct is expr.BinOp("+", expr.Var(0), expr.Const(1.0))
    assert direct is expr.add(x, one) is parse("x + 1", ["x"]).expr
    assert copy.deepcopy(direct) is direct and pickle.loads(pickle.dumps(direct)) is direct


def test_signed_zero_constants_stay_apart():
    pos, negz = expr.Const(0.0), expr.Const(-0.0)
    assert pos is expr.ZERO and negz is not pos and negz is expr.Const(-0.0)
    assert (str(pos), str(negz)) == ("0", "-0")
    assert expr.is_structural_zero(pos) and expr.is_structural_zero(negz)
    values = Plan([pos, negz]).values(())
    assert [math.copysign(1.0, v) for v in values] == [1.0, -1.0]


# recorded with the constructors as they were before each tested an
# operand's kind once
FOLDING_DIGEST = "b5f0702ab3b3eef6126fc21e0999ce94d33ec0fa7c4418fe3df83c676d16bb99"


def test_constant_folding_rules_are_pinned():
    """Every constructor on every pair of operands from constants that fold
    specially (+-0, +-1, nan, inf), a plain constant, a variable and a
    negation: the built tree, by its text and constants' bits, or the error."""
    operands = [expr.Const(v) for v in (0.0, -0.0, 1.0, -1.0, 2.5, math.nan, math.inf)]
    operands += [expr.Var(0), expr.Neg(expr.Var(1))]

    def built(make):
        try:
            e = make()
        except EvalDomainError as err:
            return f"error {err}"
        leaves = [f"{type(n).__name__}:{n.value.hex()}" for n in Plan([e]).nodes if type(n) is expr.Const]
        return f"{type(e).__name__} {e} {leaves} {expr.is_structural_zero(e)}"

    lines = []
    for a in operands:
        for b in operands:
            lines += [built(lambda f=f: f(a, b)) for f in (expr.add, expr.sub, expr.mul, expr.div)]
        lines += [built(lambda k=k: expr.powi(a, k)) for k in (-1, 0, 1, 2)]
        lines += [built(lambda name=name: expr.call(name, a)) for name in ("exp", "ln", "sin", "cos", "sqrt")]
        lines.append(built(lambda: expr.neg(a)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == FOLDING_DIGEST


def test_a_nan_constant_interns_and_evaluates_to_nan():
    nan = expr.Const(math.nan)
    assert nan is expr.Const(math.nan)
    assert str(nan) == "nan"
    assert math.isnan(Plan([nan]).values(())[0])
    assert math.isnan(_generated([expr.add(expr.var(0), nan)], 1)((1.0,))[0])


def test_diff_is_built_once_per_node_and_variable():
    e = parse("x^3 * exp(x * y) / (1 + y^2)", ["x", "y"]).expr
    for i in (0, 1):
        assert e.diff(i) is e.diff(i)
    assert e.diff(0) is not e.diff(1)


def test_the_intern_table_releases_dead_nodes():
    x = expr.var(0)
    gc.collect()
    before = len(expr._NODES)
    # exp(x + c) is its own derivative, so each memo holds a cycle back to its node
    nodes = [expr.call("exp", expr.add(x, expr.const(i + 0.5))) for i in range(3400)]
    assert all(n.diff(0) is n for n in nodes)
    assert len(expr._NODES) >= before + 10_000
    del nodes
    gc.collect()
    assert len(expr._NODES) == before


def test_diff_is_linear_in_the_nodes_of_a_shared_dag(monkeypatch):
    calls = []
    for kind in (expr.Const, expr.Var, expr.BinOp, expr.Pow, expr.Neg, expr.Call):
        def counted(self, index, rule=kind._diff):
            calls.append(self)
            return rule(self, index)
        monkeypatch.setattr(kind, "_diff", counted)
    depth = 16
    x = expr.var(0)
    e = x
    for _ in range(depth):
        e = expr.mul(e, expr.add(e, x))  # a tree of 2^depth leaves, 2 new nodes per level
    d = e.diff(0)
    assert len(calls) <= 3 * depth
    # at x = 0.5 every level is 0.5, and level k+1 has derivative 1.5 d_k + 0.5
    want = 1.0
    for _ in range(depth):
        want = 1.5 * want + 0.5
    assert Plan([d]).values((0.5,))[0] == pytest.approx(want, rel=1e-12)


def _distinct_structures(roots) -> int:
    """How many structurally distinct nodes lie under the roots, by a walk
    that keys each node on its kind, its payload (floats by float.hex) and
    the keys of its children."""
    canon: dict[int, int] = {}
    keys: dict[tuple, int] = {}

    def walk(e):
        if id(e) not in canon:
            parts = [type(e).__name__]
            for f in dataclasses.fields(e):
                value = getattr(e, f.name)
                parts.append(walk(value) if isinstance(value, expr.Expr)
                             else value.hex() if isinstance(value, float) else value)
            canon[id(e)] = keys.setdefault(tuple(parts), len(keys))
        return canon[id(e)]

    for root in roots:
        walk(root)
    return len(keys)


def _rebuilt(e):
    """A copy of e made by calling each node kind's constructor on copied children."""
    values = (getattr(e, f.name) for f in dataclasses.fields(e))
    return type(e)(*(_rebuilt(v) if isinstance(v, expr.Expr) else v for v in values))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_plans_are_maximally_shared(seed):
    roots = _shared_exprs(np.random.default_rng(seed))
    assert len(Plan(roots)) == _distinct_structures(roots)
    assert all(_rebuilt(r) is r for r in roots)


# ---------------------------------------------------------------------------
# generated code
# ---------------------------------------------------------------------------

def test_generated_code_of_no_expressions_returns_an_empty_tuple():
    assert _generated([], 2)((1.0, 2.0)) == ()


@pytest.mark.parametrize(
    "node, point",
    [
        (expr.Pow(expr.Const(-2.0), 2), ()),  # was emitted as -2.0 ** 2 == -4.0
        (expr.Pow(expr.Const(-0.5), -3), ()),
        (expr.BinOp("-", expr.Var(0), expr.Const(-3.0)), (1.0,)),
        (expr.Neg(expr.Const(-2.0)), ()),
        (expr.BinOp("+", expr.Var(0), expr.Const(math.inf)), (1.0,)),
        (expr.BinOp("*", expr.Var(0), expr.Const(-math.inf)), (2.0,)),
        (expr.BinOp("+", expr.Var(0), expr.Const(math.nan)), (1.0,)),
        (expr.Pow(expr.Const(-math.inf), 3), ()),
    ],
)
def test_compiled_constants_evaluate_like_the_plan(node, point):
    want = Plan([node]).values(point)
    assert _same_floats(_generated([node], len(point))(point), want)


def test_constant_folding_raises_domain_errors():
    with pytest.raises(EvalDomainError, match="zero raised to a negative power in subterm '0\\^-1'"):
        parse("0^-1 + x", ["x"])
    with pytest.raises(EvalDomainError, match="overflow in subterm 'exp\\(1000\\)'"):
        parse("exp(1000) * x", ["x"])
    with pytest.raises(EvalDomainError, match="overflow in subterm '1e\\+200\\^2'"):
        expr.powi(expr.const(1e200), 2)
    with pytest.raises(EvalDomainError, match="ln of a non-positive argument in subterm 'ln\\(0\\)'"):
        expr.call("ln", expr.ZERO)
    with pytest.raises(EvalDomainError, match="sqrt of a negative argument"):
        expr.call("sqrt", expr.const(-1.0))


def test_domain_error_names_the_subterm_in_given_names():
    with pytest.raises(EvalDomainError) as err:
        Plan([parse("y + ln(x)", ["x", "y"]).expr]).values((-1.0, 0.0))
    assert str(err.value) == "ln of a non-positive argument in subterm 'ln(x1)'"
    assert err.value.named(["x", "y"]) == "ln of a non-positive argument in subterm 'ln(x)'"
    assert err.value.named(None) == str(err.value)
    # an error built from text has no node to rename
    assert EvalDomainError("overflow", "x1^9").named(["x"]) == "overflow in subterm 'x1^9'"


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_generated_code_agrees_with_plan_values(seed):
    """All roots in one generated function: equal values, and the same
    EvalDomainError about the same node where Plan.values raises one, at
    tuple points and at numpy rows."""
    rng = np.random.default_rng(seed)
    exprs = _shared_exprs(rng)
    plan = Plan(exprs)
    fn = _generated(exprs, 2)
    for row in sample_box([(-2, 2), (-2, 2)], count=int(rng.integers(1, 8)), seed=seed):
        for point in (tuple(float(c) for c in row), row):
            got = _same_outcome(fn, plan.values, point)
            if got is not None:
                assert type(got) is tuple and all(type(v) is float for v in got)


@pytest.mark.parametrize(
    "text, point, message",
    [
        ("y + 1 / (x - 1)", (1.0, 0.0), "division by zero in subterm '1 / (x - 1)'"),
        ("y + ln(x)", (-1.0, 0.0), "ln of a non-positive argument in subterm 'ln(x)'"),
        ("sqrt(y) * x", (1.0, -4.0), "sqrt of a negative argument in subterm 'sqrt(y)'"),
        ("x^400 - y", (1000.0, 0.0), "overflow in subterm 'x^400'"),
        ("exp(x) + y", (800.0, 0.0), "overflow in subterm 'exp(x)'"),
    ],
)
def test_generated_code_names_the_failing_subterm(text, point, message):
    f = parse(text, ["x", "y"])
    for run in (_generated([f.expr], 2), compile_expr(f.expr), f):
        with pytest.raises(EvalDomainError) as err:
            run(point)
        assert err.value.named(["x", "y"]) == message
        assert err.value.node is not None and err.value.__cause__ is None
