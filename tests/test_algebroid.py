import numpy as np
import pytest

from sympoisson import registry
from sympoisson.algebroid import (
    anchor_morphism_residual,
    bianchi_residual,
    cotangent_bracket,
    derived_bracket_check,
    jacobi_residual,
    killing_via_schouten,
    leibniz_residual,
)
from sympoisson.geometry import (
    Chart,
    DegenerateMetricError,
    SymFormField,
    SymTensorField,
    is_killing,
    levi_civita,
    sym_product,
)
from sympoisson.poisson import SymPoissonPair

R2 = Chart(["x", "y"])


def vec(chart, *entries):
    return SymTensorField.from_dict(chart, 1, {(i,): e for i, e in enumerate(entries)})


def form1(chart, *entries):
    return SymFormField.from_dict(chart, 1, {(i,): e for i, e in enumerate(entries)})


def rand_metric(rng, chart):
    a, b, c = rng.uniform(-0.5, 0.5, size=3)
    return SymFormField.from_dict(
        chart,
        2,
        {
            (0, 0): f"2 + {a:.6f}*x",
            (0, 1): f"{b:.6f}",
            (1, 1): f"2 + {c:.6f}*y",
        },
    )


# ---------------------------------------------------------------------------
# Killing tensors via the bracket
# ---------------------------------------------------------------------------

def test_killing_via_schouten_flat_examples():
    g = SymFormField.from_dict(R2, 2, {(0, 0): "1", (1, 1): "1"})
    k_const = SymFormField.from_dict(R2, 2, {(0, 0): "1"})
    assert killing_via_schouten(g, k_const)
    k_bad = SymFormField.from_dict(R2, 2, {(0, 0): "x"})
    assert not killing_via_schouten(g, k_bad)


def test_killing_via_schouten_degenerate_metric_rejected():
    g = SymFormField.from_dict(R2, 2, {(0, 0): "1"})
    k = SymFormField.from_dict(R2, 2, {(0, 0): "1"})
    with pytest.raises(DegenerateMetricError):
        killing_via_schouten(g, k)


def test_killing_equivalence_randomized():
    rng = np.random.default_rng(11)
    agree = 0
    trues = 0
    for trial in range(50):
        g = rand_metric(rng, R2)
        if trial % 5 == 0:
            k = g  # a metric is Killing for its own connection
        elif trial % 5 == 1:
            k = g.scale(2.0)
        elif trial % 5 == 2:
            k = form1(R2, f"{rng.uniform(-1, 1):.6f}", f"{rng.uniform(-1, 1):.6f}")
        else:
            k = SymFormField.from_dict(
                R2,
                2,
                {
                    (0, 0): f"{rng.uniform(-1, 1):.6f}*x",
                    (0, 1): f"{rng.uniform(-1, 1):.6f}*y",
                    (1, 1): f"{rng.uniform(-1, 1):.6f}",
                },
            )
        direct = is_killing(levi_civita(g), k)
        via = killing_via_schouten(g, k)
        assert direct == via
        agree += 1
        trues += int(direct)
    assert agree == 50 and trues >= 10


# ---------------------------------------------------------------------------
# derived bracket
# ---------------------------------------------------------------------------

def test_derived_bracket_scalar_first_argument():
    conn = registry.kill_connection(R2)
    f = SymTensorField.from_scalar(R2.parse("x*y"), R2)
    y = vec(R2, "y", "x^2")
    phi = SymFormField.from_dict(R2, 2, {(0, 0): "1", (0, 1): "x"})
    res = derived_bracket_check(conn, f, y, phi)
    assert res.is_zero_on()


def test_derived_bracket_vectors_on_two_form():
    conn = registry.kill_connection(R2)
    x = vec(R2, "x", "1")
    y = vec(R2, "0", "x*y")
    phi = SymFormField.from_dict(R2, 2, {(0, 0): "y", (0, 1): "x", (1, 1): "1"})
    res = derived_bracket_check(conn, x, y, phi)
    assert res.residual_on() <= 1e-9


def test_derived_bracket_degenerate_degrees():
    conn = registry.kill_connection(R2)
    x = sym_product(vec(R2, "x", "1"), vec(R2, "y", "0"))
    y = sym_product(vec(R2, "0", "1"), vec(R2, "1", "x"))
    phi = SymFormField.from_scalar(R2.parse("x + y"), R2)  # degree 0
    res = derived_bracket_check(conn, x, y, phi)
    assert res.is_zero_on()


def test_derived_bracket_randomized():
    conn = registry.kill_connection(R2)
    rng = np.random.default_rng(23)

    def rand_vec():
        c = rng.integers(-2, 3, size=6)
        return vec(R2, f"{c[0]} + {c[1]}*x + {c[2]}*y", f"{c[3]} + {c[4]}*x + {c[5]}*y")

    def rand_multi(deg):
        out = rand_vec()
        for _ in range(deg - 1):
            out = sym_product(out, rand_vec())
        return out

    def rand_form(deg):
        entries = {}
        for idx in [(0,) * deg, (1,) * deg, (0, 1) if deg == 2 else (0,) * deg]:
            c = rng.integers(-2, 3, size=3)
            entries[idx] = f"{c[0]} + {c[1]}*x + {c[2]}*y"
        return SymFormField.from_dict(R2, deg, entries)

    combos = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 3), (1, 2, 3)]
    for r, l, s in combos:
        for _ in range(4):
            res = derived_bracket_check(conn, rand_multi(r), rand_multi(l), rand_form(s))
            assert res.residual_on() <= 1e-9, (r, l, s)


# ---------------------------------------------------------------------------
# cotangent bracket
# ---------------------------------------------------------------------------

def test_cotangent_bracket_antisymmetric():
    pair = registry.build("nondeg_kill")
    a = form1(pair.chart, "x", "1")
    b = form1(pair.chart, "y^2", "x*y")
    out = cotangent_bracket(pair, a, b) + cotangent_bracket(pair, b, a)
    assert out.residual_on() <= 1e-13


def test_cotangent_bracket_refuses_a_field_that_is_not_a_1_form():
    pair = registry.build("nondeg_kill")
    bivector = SymTensorField.from_dict(pair.chart, 2, {(0, 1): "x"})
    with pytest.raises(ValueError, match="^cotangent bracket is defined on 1-forms$"):
        cotangent_bracket(pair, bivector, form1(pair.chart, "x", "1"))


def test_cotangent_bracket_leibniz_any_pair():
    # the Leibniz rule needs no integrability at all
    chart = Chart(["x", "y"])
    theta = SymTensorField.from_dict(chart, 2, {(0, 0): "x", (0, 1): "1"})
    pair = SymPoissonPair(theta, registry.kill_connection(chart))
    a = form1(chart, "1", "x")
    b = form1(chart, "y", "0")
    res = leibniz_residual(pair, a, "exp(x)*y", b)
    assert res.residual_on() <= 1e-12


def test_anchor_morphism_strong_pair():
    pair = registry.build("inclusion")
    a = form1(pair.chart, "x*y", "1")
    b = form1(pair.chart, "0", "exp(y)")
    res = anchor_morphism_residual(pair, a, b)
    assert res.residual_on() <= 1e-10


def test_anchor_morphism_can_fail_for_weak_pair():
    pair = registry.build("nondeg_kill")  # integrable but not strong
    a = form1(pair.chart, "1", "0")
    b = form1(pair.chart, "0", "1")
    res = anchor_morphism_residual(pair, a, b)
    assert res.residual_on() > 1e-4


def test_jacobi_for_flat_nondegenerate():
    # Euclidean inverse metric: the bracket mirrors the coordinate Lie algebroid
    pair = registry.flat_pair(2, 0)
    a = form1(pair.chart, "x", "y^2")
    b = form1(pair.chart, "1", "x*y")
    c = form1(pair.chart, "y", "exp(x)")
    res = jacobi_residual(pair, a, b, c)
    assert res.residual_on() <= 1e-10


def test_jacobi_for_flat_strong_pair():
    pair = registry.build("inclusion")  # strong with the flat connection
    a = form1(pair.chart, "x", "y")
    b = form1(pair.chart, "y", "1")
    c = form1(pair.chart, "x*y", "x")
    res = jacobi_residual(pair, a, b, c)
    assert res.residual_on() <= 1e-8
    assert bianchi_residual(pair, a, b, c).residual_on() <= 1e-12


def test_bianchi_residual_matches_jacobi_for_strong_pairs():
    # with curvature present the two residuals agree for strong pairs
    pair = registry.build("rotation")
    chart = pair.chart
    a = form1(chart, "1", "0")
    b = form1(chart, "0", "1")
    c = form1(chart, "x", "y")
    jac = jacobi_residual(pair, a, b, c)
    bnc = bianchi_residual(pair, a, b, c)
    diff = jac - bnc
    assert diff.residual_on() <= 1e-8
