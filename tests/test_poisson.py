import math

import numpy as np
import pytest

from sympoisson import registry
from sympoisson.expr import ScalarField
from sympoisson.geometry import (
    Chart,
    Connection,
    SymFormField,
    SymTensorField,
    invert_bivector,
    invert_metric,
    is_killing,
    levi_civita,
)
from sympoisson.poisson import (
    Involutivity,
    SymPoissonPair,
    characteristic_data,
    gradient,
    involutivity_check,
    is_parallel,
    is_strong,
    is_symmetric_poisson,
    jacobiator_identity_check,
    laplacian,
    one_dim_poisson_family,
    one_dim_residual,
    parallel_residual,
    poisson_bracket,
    scalar_curvature,
    schouten_self,
    schouten_self_cyclic,
    strong_morphism_check,
    strong_residual,
    symmetric_poisson_residual,
    verdict_suite,
)

R2 = Chart(["x", "y"])


def zero_on_samples(f: ScalarField, chart, tol=1e-9):
    from sympoisson.expr import is_zero_field

    return is_zero_field(f, chart.sample_points(), tol)


# ---------------------------------------------------------------------------
# bracket and gradient
# ---------------------------------------------------------------------------

def test_bracket_flat_signature_formula():
    pair = registry.flat_pair(1, 1)
    chart = pair.chart
    f = chart.parse("x^2*y")
    g = chart.parse("exp(x) + y^2")
    out = poisson_bracket(pair, f, g)
    expected = f.diff(0) * g.diff(0) - f.diff(1) * g.diff(1)
    assert zero_on_samples(out - expected, chart)


def test_bracket_leibniz_and_symmetry():
    pair = registry.build("nondeg_kill")
    chart = pair.chart
    f = chart.parse("x*y")
    g = chart.parse("exp(y)")
    h = chart.parse("x^2")
    lhs = poisson_bracket(pair, f, g * h)
    rhs = poisson_bracket(pair, f, g) * h + g * poisson_bracket(pair, f, h)
    assert zero_on_samples(lhs - rhs, chart)
    sym = poisson_bracket(pair, f, g) - poisson_bracket(pair, g, f)
    assert zero_on_samples(sym, chart)


def test_bracket_rank_one_derivation():
    chart = Chart(["x", "y"])
    theta = SymTensorField.from_dict(chart, 2, {(0, 0): "1"})
    pair = SymPoissonPair(theta, Connection.euclidean(chart))
    out = poisson_bracket(pair, chart.parse("x"), chart.parse("x*y"))
    assert zero_on_samples(out - chart.parse("y"), chart)


def test_gradient_flat_and_constant():
    pair = registry.flat_pair(1, 1)
    chart = pair.chart
    f = chart.parse("x^2 + x*y")
    grad = gradient(pair, f)
    expected = SymTensorField.from_dict(
        chart, 1, {(0,): f.diff(0), (1,): -f.diff(1)}
    )
    assert (grad - expected).residual_on() <= 1e-14
    assert gradient(pair, chart.constant(7.0)).is_zero_on()


def test_gradient_of_coordinate_on_singular_structure():
    chart = Chart(["x"])
    theta = SymTensorField.from_dict(chart, 2, {(0, 0): "x^2"})
    pair = SymPoissonPair(theta, Connection.euclidean(chart))
    grad = gradient(pair, chart.parse("x"))
    assert (grad - SymTensorField.from_dict(chart, 1, {(0,): "x^2"})).residual_on() == 0.0


# ---------------------------------------------------------------------------
# integrability verdicts
# ---------------------------------------------------------------------------

def test_schouten_self_routes_agree():
    for ident in ["inclusion", "nondeg_kill", "r5", "rotation"]:
        pair = registry.build(ident)
        a = schouten_self(pair)
        b = schouten_self_cyclic(pair)
        for p in pair.chart.sample_points(10):
            va, vb = a.evaluate(p), b.evaluate(p)
            assert np.allclose(va, vb, rtol=1e-9, atol=1e-9 * (1 + np.abs(vb).max()))


def test_verdicts_inclusion():
    pair = registry.build("inclusion")
    assert is_symmetric_poisson(pair)
    assert is_strong(pair)
    assert not is_parallel(pair)


def test_verdicts_nondeg_kill():
    pair = registry.build("nondeg_kill")
    assert is_symmetric_poisson(pair)
    assert not is_strong(pair)


def test_verdicts_singular_line():
    pair = registry.build("sing_line")
    assert not is_symmetric_poisson(pair)


def test_verdicts_zero_and_flat():
    assert is_strong(registry.build("zero_bivector"))
    flat = registry.flat_pair(2, 0)
    assert is_parallel(flat) and is_strong(flat) and is_symmetric_poisson(flat)


def test_verdict_hierarchy_battery():
    for ident, entry in registry.CHART_ENTRIES.items():
        pair = entry.build()
        suite = verdict_suite(pair)
        if suite.parallel:
            assert suite.strong, ident
        if suite.strong:
            assert suite.symmetric_poisson, ident
            assert suite.involutive in (
                Involutivity.INVOLUTIVE_ON_SAMPLES,
                Involutivity.INCONCLUSIVE,
            ), ident
        for key, expected in entry.expect.items():
            got = {
                "sp": suite.symmetric_poisson,
                "strong": suite.strong,
                "parallel": suite.parallel,
                "involutive": suite.involutive,
            }[key]
            assert got == expected, f"{ident}: {key}"


# ---------------------------------------------------------------------------
# characteristic data
# ---------------------------------------------------------------------------

def test_characteristic_cubic_line():
    pair = registry.build("cubic_line")
    data = characteristic_data(pair.theta, (2.0,))
    assert data.rank == 1
    assert data.signature == (1, 0)
    e = np.array([1.0])
    assert data.metric_value(e, e) == pytest.approx(1.0 / 8.0, rel=1e-12)


def test_characteristic_zero():
    chart = Chart(["x", "y"])
    theta = SymTensorField.zero(chart, 2)
    data = characteristic_data(theta, (0.3, -0.4))
    assert data.rank == 0 and data.signature == (0, 0)
    assert data.metric_gram.shape == (0, 0)


def test_characteristic_r5_strata():
    pair = registry.build("r5")
    # x3 != 0: rank 4, split signature
    data = characteristic_data(pair.theta, (0.0, 0.0, 0.7, 0.0, 0.3))
    assert data.rank == 4
    assert data.signature == (2, 2)
    # x3 = 0, x5 != 0: rank 2 Lorentzian
    data = characteristic_data(pair.theta, (0.1, 0.2, 0.0, 0.5, 0.8))
    assert data.rank == 2
    assert data.signature == (1, 1)
    # x3 = x5 = 0, x2 = b: rank 1, sign of b decides definiteness
    data = characteristic_data(pair.theta, (0.0, 0.6, 0.0, 0.9, 0.0))
    assert data.rank == 1 and data.signature == (1, 0)
    e1 = np.eye(5)[0]
    assert data.metric_value(e1, e1) == pytest.approx(1.0 / 0.6, rel=1e-10)
    data = characteristic_data(pair.theta, (0.0, -0.6, 0.0, 0.9, 0.0))
    assert data.rank == 1 and data.signature == (0, 1)
    # origin stratum
    data = characteristic_data(pair.theta, (0.4, 0.0, 0.0, 1.0, 0.0))
    assert data.rank == 0


def test_characteristic_r5_leaf_metrics():
    """Gram data must match the closed-form leaf metrics on each stratum."""
    pair = registry.build("r5")
    t, x2, x5 = 0.8, 0.25, -0.4
    point = (0.3, x2, t, 0.7, x5)
    data = characteristic_data(pair.theta, point)
    # leaf coordinates (x1, x2, x4, x5); closed-form inverse of the restricted theta
    g_leaf = np.array(
        [
            [0.0, 0.0, 0.0, -2.0 / t],
            [0.0, 0.0, 1.0 / t, 2.0 * x5 / t**2],
            [0.0, 1.0 / t, 0.0, 0.0],
            [-2.0 / t, 2.0 * x5 / t**2, 0.0, -4.0 * x2 / t**2],
        ]
    )
    axes = [0, 1, 3, 4]
    for a, ea in enumerate(axes):
        for b, eb in enumerate(axes):
            u = np.eye(5)[ea]
            v = np.eye(5)[eb]
            assert data.contains(u) and data.contains(v)
            assert data.metric_value(u, v) == pytest.approx(g_leaf[a, b], abs=1e-8)
    # rank-2 stratum: g = (1/a) dx1 . dx4 - (b/a^2) dx4 x dx4
    a_, b_ = 0.9, -0.35
    data = characteristic_data(pair.theta, (0.1, b_, 0.0, 0.4, a_))
    e1, e4 = np.eye(5)[0], np.eye(5)[3]
    assert data.metric_value(e1, e4) == pytest.approx(1.0 / a_, abs=1e-10)
    assert data.metric_value(e4, e4) == pytest.approx(-b_ / a_**2, abs=1e-10)
    assert data.metric_value(e1, e1) == pytest.approx(0.0, abs=1e-10)


def test_characteristic_reconstruction():
    for ident in ["r5", "nondeg_kill", "inclusion", "rotation"]:
        pair = registry.build(ident)
        for p in pair.chart.sample_points(5):
            data = characteristic_data(pair.theta, p)
            rebuilt = data.rebuild_theta()
            target = pair.theta.evaluate(p)
            assert np.allclose(rebuilt, target, atol=1e-8 * (1 + np.abs(target).max()))


# ---------------------------------------------------------------------------
# involutivity
# ---------------------------------------------------------------------------

def test_involutivity_r5():
    report = involutivity_check(registry.build("r5"))
    assert report.verdict == Involutivity.INVOLUTIVE_ON_SAMPLES
    assert set(report.ranks) == {4}


def test_involutivity_rank_one():
    chart = Chart(["x", "y"])
    theta = SymTensorField.from_dict(chart, 2, {(0, 0): "1"})
    pair = SymPoissonPair(theta, Connection.euclidean(chart))
    assert involutivity_check(pair).verdict == Involutivity.INVOLUTIVE_ON_SAMPLES


def test_involutivity_radial():
    report = involutivity_check(registry.build("radial"))
    assert report.verdict == Involutivity.INVOLUTIVE_ON_SAMPLES


def test_involutivity_negative_example():
    report = involutivity_check(registry.build("heisenberg_frame"))
    assert report.verdict == Involutivity.NOT_INVOLUTIVE


def test_involutivity_inconclusive_on_rank_jump():
    # rank jumps inside the box without any commutator failure: inconclusive
    chart = Chart(["x", "y"])
    theta = SymTensorField.from_dict(chart, 2, {(0, 0): "x^2", (1, 1): "1"})
    pair = SymPoissonPair(theta, Connection.euclidean(chart))
    samples = [(0.0, 0.0), (0.5, 0.5), (1.0, -0.5)]
    report = involutivity_check(pair, samples=samples)
    assert report.verdict == Involutivity.INCONCLUSIVE
    assert len(set(report.ranks)) > 1


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------

def test_jacobiator_identity_inclusion():
    pair = registry.build("inclusion")
    chart = pair.chart
    res = jacobiator_identity_check(
        pair, chart.parse("x"), chart.parse("y"), chart.parse("x*y")
    )
    assert zero_on_samples(res, chart)


def test_jacobiator_identity_zero_structure():
    pair = registry.build("zero_bivector")
    chart = pair.chart
    res = jacobiator_identity_check(
        pair, chart.parse("x^2"), chart.parse("y"), chart.parse("x + y")
    )
    assert res.is_zero_expr() or zero_on_samples(res, chart)


def test_jacobiator_identity_flat_random_polys():
    pair = registry.flat_pair(1, 1)
    chart = pair.chart
    rng = np.random.default_rng(9)
    for _ in range(5):
        polys = []
        for _ in range(3):
            c = rng.integers(-3, 4, size=6)
            polys.append(
                chart.parse(
                    f"{c[0]} + {c[1]}*x + {c[2]}*y + {c[3]}*x*y + {c[4]}*x^2 + {c[5]}*y^2"
                )
            )
        res = jacobiator_identity_check(pair, *polys)
        assert zero_on_samples(res, chart)


def test_strong_morphism_inclusion_and_zero():
    pair = registry.build("inclusion")
    chart = pair.chart
    res = strong_morphism_check(pair, chart.parse("x"), chart.parse("x"))
    assert res.is_zero_on()
    zero = registry.build("zero_bivector")
    res = strong_morphism_check(zero, zero.chart.parse("x*y"), zero.chart.parse("y"))
    assert res.is_zero_on()


def test_strong_morphism_detects_nondeg_kill():
    pair = registry.build("nondeg_kill")
    chart = pair.chart
    monomials = ["x", "y", "x*y", "x^2", "y^2"]
    found = 0.0
    for a in monomials:
        for b in monomials:
            res = strong_morphism_check(pair, chart.parse(a), chart.parse(b))
            found = max(found, res.residual_on())
    assert found > 1e-4


# ---------------------------------------------------------------------------
# non-degenerate equivalences
# ---------------------------------------------------------------------------

def test_nondegenerate_poisson_iff_killing():
    chart = Chart(["x", "y"])
    g = registry.kill_metric(chart)
    conn = registry.kill_connection(chart)
    pair = SymPoissonPair(invert_metric(g), conn)
    assert is_symmetric_poisson(pair) == is_killing(conn, g)
    assert is_symmetric_poisson(pair)
    # same metric with the Euclidean connection: both sides flip to False
    eu = Connection.euclidean(chart)
    pair2 = SymPoissonPair(invert_metric(g), eu)
    assert is_symmetric_poisson(pair2) == is_killing(eu, g)
    assert not is_symmetric_poisson(pair2)


def test_nondegenerate_strong_iff_levi_civita():
    chart = Chart(["x", "y"])
    g = SymFormField.from_dict(chart, 2, {(0, 0): "exp(2*x)", (1, 1): "exp(2*x)"})
    lc = levi_civita(g)
    pair = SymPoissonPair(invert_metric(g), lc)
    assert is_strong(pair)
    # non-Levi-Civita connection for the same inverse: strong fails
    pair2 = registry.build("nondeg_kill")
    lc2 = levi_civita(invert_bivector(pair2.theta))
    diff = 0.0
    for p in pair2.chart.sample_points(10):
        diff = max(diff, np.abs(lc2.gamma_at(p) - pair2.nabla.gamma_at(p)).max())
    assert not is_strong(pair2)
    assert diff > 1e-3


# ---------------------------------------------------------------------------
# curvature scalars
# ---------------------------------------------------------------------------

def test_laplacian_flat():
    pair = registry.flat_pair(2, 0)
    chart = pair.chart
    f = chart.parse("x^3*y + exp(y)")
    lap = laplacian(pair, f)
    expected = f.diff(0).diff(0) + f.diff(1).diff(1)
    assert zero_on_samples(lap - expected, chart)


def test_laplacian_split_signature():
    pair = registry.flat_pair(1, 1)
    chart = pair.chart
    f = chart.parse("x^2*y^2")
    lap = laplacian(pair, f)
    expected = f.diff(0).diff(0) - f.diff(1).diff(1)
    assert zero_on_samples(lap - expected, chart)


def test_scalar_curvature_zero_structure():
    pair = registry.build("zero_bivector")
    assert scalar_curvature(pair).is_zero_expr()
    assert laplacian(pair, pair.chart.parse("x*y")).is_zero_expr()


def test_scalar_curvature_flat_connection():
    pair = registry.flat_pair(2, 0)
    assert zero_on_samples(scalar_curvature(pair), pair.chart)


# ---------------------------------------------------------------------------
# dimension one
# ---------------------------------------------------------------------------

def test_one_dim_family_members_pass():
    rng = np.random.default_rng(31)
    chart = Chart(["x"])
    for _ in range(10):
        lam = float(rng.uniform(0.2, 3.0))
        c = rng.integers(-2, 3, size=3)
        h = chart.parse(f"{c[0]} + {c[1]}*x + {c[2]}*x^2")
        hp = chart.parse(f"{c[0]}*x + {c[1]}*x^2/2 + {c[2]}*x^3/3")
        pair = one_dim_poisson_family(lam, h, hp)
        assert is_symmetric_poisson(pair)
        assert is_strong(pair)
        assert zero_on_samples(one_dim_residual(pair), chart)


def test_one_dim_family_perturbation_fails():
    chart = Chart(["x"])
    h = chart.parse("1 + x")
    hp = chart.parse("x + x^2/2")
    pair = one_dim_poisson_family(1.0, h, hp)
    # multiply f by a 1 percent x-dependent factor: leaves the family
    theta = pair.theta.scale(chart.parse("1 + 0.01*x"))
    perturbed = SymPoissonPair(theta, pair.nabla)
    assert not is_symmetric_poisson(perturbed)
    assert symmetric_poisson_residual(perturbed) > 1e-4


def test_one_dim_residual_matches_general_check():
    chart = Chart(["x"])
    theta = SymTensorField.from_dict(chart, 2, {(0, 0): "x"})
    pair = SymPoissonPair(theta, Connection.euclidean(chart))
    res = one_dim_residual(pair)
    # residual x d/dx(x) /... = 1/2 (x^2)' = x: detectably nonzero
    assert not zero_on_samples(res, chart)
    assert not is_symmetric_poisson(pair)


def test_scalar_curvature_curved_connection():
    from sympoisson.geometry import ricci

    chart = Chart(["x", "y"])
    theta = SymTensorField.from_dict(chart, 2, {(0, 0): "1", (0, 1): "x", (1, 1): "2"})
    pair = SymPoissonPair(theta, registry.kill_connection(chart))
    r = scalar_curvature(pair)
    ric = ricci(pair.nabla)
    for p in chart.sample_points(10):
        direct = sum(
            theta.evaluate(p)[i, j] * ric[i, j].evaluate(p)
            for i in range(2)
            for j in range(2)
        )
        assert r(p) == pytest.approx(direct, rel=1e-12, abs=1e-12)
    assert not zero_on_samples(r, chart)


def test_overflowing_structure_fails_every_residual():
    # x^400 overflows on most of the box; inf / (1 + inf) must not read as 0
    chart = Chart(["x", "y"], [(2.0, 1000.0), (2.0, 1000.0)])
    theta = SymTensorField.from_dict(chart, 2, {(0, 1): "x^400 + y"})
    pair = SymPoissonPair(theta, Connection.euclidean(chart))
    assert symmetric_poisson_residual(pair) == math.inf
    assert strong_residual(pair) == math.inf
    assert parallel_residual(pair) == math.inf
    assert not is_symmetric_poisson(pair)
