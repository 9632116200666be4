"""Acceptance battery.

Each test prints one line per criterion (run with `pytest -v -s` to see them)
and asserts the criterion at its stated tolerance.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from reference import eval_scaled
from sympoisson import jj, liealg, registry
from sympoisson.algebroid import (
    anchor_morphism_residual,
    cotangent_bracket,
    derived_bracket_check,
    jacobi_residual,
    killing_via_schouten,
    leibniz_residual,
)
from sympoisson.geometry import (
    Chart,
    SymFormField,
    SymTensorField,
    anticommutative_schouten,
    covariant_derivative,
    is_killing,
    levi_civita,
    lie_bracket,
    schouten,
    schouten_decomposable,
    sym_product,
    sym_product_many,
)
from sympoisson.poisson import (
    Involutivity,
    SymPoissonPair,
    characteristic_data,
    involutivity_check,
    is_parallel,
    is_strong,
    is_symmetric_poisson,
    one_dim_poisson_family,
    symmetric_poisson_residual,
)
from sympoisson.pw import (
    CotangentState,
    canonical_bracket,
    integrate_pw,
    monitor_geodesic_residual,
    monitor_speed_square,
    pw_bracket,
    run_newtonian,
    vertical_lift,
)

R2 = Chart(["x", "y"])


def announce(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{status}] {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def vec(chart, *entries):
    return SymTensorField.from_dict(chart, 1, {(i,): e for i, e in enumerate(entries)})


def _rand_poly(rng, deg=1):
    c = rng.integers(-2, 3, size=6)
    if deg == 1:
        return f"{c[0]} + {c[1]}*x + {c[2]}*y"
    return f"{c[0]} + {c[1]}*x + {c[2]}*y + {c[3]}*x*y + {c[4]}*x^2 + {c[5]}*y^2"


def _rand_vec(rng, deg=1):
    return vec(R2, _rand_poly(rng, deg), _rand_poly(rng, deg))


# ---------------------------------------------------------------------------

def test_criterion_01_worked_example_battery():
    failures = []

    def expect(cond, label):
        if not cond:
            failures.append(label)

    flat = registry.flat_pair(1, 1)
    expect(is_symmetric_poisson(flat) and is_strong(flat), "flat split plane")
    flat2 = registry.flat_pair(2, 0)
    expect(is_symmetric_poisson(flat2) and is_strong(flat2), "flat Euclidean plane")

    zero = registry.build("zero_bivector")
    expect(is_strong(zero), "zero bivector strong")

    inc = registry.build("inclusion")
    expect(
        is_symmetric_poisson(inc) and is_strong(inc) and not is_parallel(inc),
        "rank-one exp(y) structure",
    )

    ndk = registry.build("nondeg_kill")
    chart = ndk.chart
    g = registry.kill_metric(chart)
    conn = registry.kill_connection(chart)
    expect(is_killing(conn, g), "metric is a Killing 2-tensor")
    expect(is_symmetric_poisson(ndk) and not is_strong(ndk), "Killing pair verdicts")
    witness = covariant_derivative(conn, g).directional(0)
    pts = chart.sample_points(5)
    wit_ok = all(
        abs(witness.evaluate(p)[1, 1] + 2.0 * math.exp(2.0 * (p[0] + p[1]))) <= 1e-9 * (1 + math.exp(2 * (p[0] + p[1])))
        for p in pts
    )
    expect(wit_ok, "metric-connection mismatch witness")

    g_so3 = liealg.algebra("so3")
    w0 = liealg.weitzenboeck0(g_so3)
    th = liealg.LeftInvariantSymTensor.from_dict(3, 2, {(0, 0): 1, (1, 1): 1})
    expect(
        liealg.li_is_symmetric_poisson(th, w0)
        and not liealg.li_is_strong(th, w0)
        and not liealg.li_is_involutive(th, g_so3),
        "rotation-algebra verdicts",
    )

    g_aff = liealg.algebra("aff1")
    w_aff = liealg.weitzenboeck0(g_aff)
    for l1, l2, l3 in [(1, 0, 0), (1, 1, 1), (1, 1, 2), (2, 2, 2), (1, 2, 4), (0, 1, 0)]:
        ta = liealg.LeftInvariantSymTensor.from_dict(2, 2, {(0, 0): l1, (0, 1): l2, (1, 1): l3})
        expect(liealg.li_is_symmetric_poisson(ta, w_aff), f"affine sp {l1},{l2},{l3}")
        expect(
            liealg.li_is_strong(ta, w_aff) == (l1 * l3 - l2 * l2 == 0),
            f"affine strong iff degenerate {l1},{l2},{l3}",
        )

    g_su2 = liealg.algebra("su2")
    w_su2 = liealg.weitzenboeck0(g_su2)
    half = Fraction(1, 2)
    round_inv = liealg.LeftInvariantSymTensor.from_dict(
        3, 2, {(0, 0): half, (1, 1): half, (2, 2): half}
    )
    expect(liealg.li_is_strong(round_inv, w_su2), "round-metric inverse strong")
    lc = liealg.li_levi_civita(g_su2, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    expect(np.array_equal(lc.a, w_su2.a), "halved bracket is the metric connection")

    g_ar = liealg.algebra("aff1xR")
    w_ar = liealg.weitzenboeck0(g_ar)
    th_ar = liealg.LeftInvariantSymTensor.from_dict(3, 2, {(0, 1): 1})
    expect(
        liealg.li_is_symmetric_poisson(th_ar, w_ar)
        and not liealg.li_is_strong(th_ar, w_ar)
        and liealg.li_is_involutive(th_ar, g_ar),
        "product-group verdicts",
    )
    custom = liealg.aff1xR_parallelizing_connection()
    expect(
        liealg.li_is_parallel(th_ar, custom) and liealg.li_is_strong(th_ar, custom),
        "product-group custom connection",
    )

    announce(1, "worked example battery", not failures, "; ".join(failures))


def test_criterion_02_bracket_cross_validation():
    conn = registry.kill_connection(R2)
    rng = np.random.default_rng(0x5EED)
    samples = R2.sample_points(25)
    degree_pairs = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3)]
    worst = 0.0
    for trial in range(50):
        r, l = degree_pairs[trial % len(degree_pairs)]
        xs = [_rand_vec(rng) for _ in range(r)]
        ys = [_rand_vec(rng) for _ in range(l)]
        lhs = schouten(conn, sym_product_many(xs), sym_product_many(ys))
        rhs = schouten_decomposable(conn, xs, ys)
        for p in samples:
            a, b = lhs.evaluate(p), rhs.evaluate(p)
            scale = 1.0 + max(np.abs(a).max(), np.abs(b).max())
            worst = max(worst, np.abs(a - b).max() / scale)
    announce(2, "bracket trace formula vs decomposable oracle", worst <= 1e-8, f"max dev {worst:.2e}")


def test_criterion_03_vertical_lift_isomorphism():
    conn = registry.kill_connection(R2)
    rng = np.random.default_rng(0xA11CE)
    states = [
        tuple(rng.uniform(-1, 1, size=4))
        for _ in range(25)
    ]

    def rand_multi():
        deg = int(rng.integers(1, 3))
        out = _rand_vec(rng)
        for _ in range(deg - 1):
            out = sym_product(out, _rand_vec(rng))
        return out

    worst_sym = 0.0
    worst_can = 0.0
    for _ in range(50):
        a, b = rand_multi(), rand_multi()
        lhs = vertical_lift(schouten(conn, a, b))
        rhs = pw_bracket(conn, vertical_lift(a), vertical_lift(b))
        diff = lhs - rhs
        lhs_c = vertical_lift(anticommutative_schouten(a, b))
        rhs_c = canonical_bracket(vertical_lift(a), vertical_lift(b))
        diff_c = lhs_c + rhs_c
        for s in states:
            v, scale = eval_scaled(diff.f.expr, s)
            worst_sym = max(worst_sym, abs(v) / (1 + scale))
            v, scale = eval_scaled(diff_c.f.expr, s)
            worst_can = max(worst_can, abs(v) / (1 + scale))
    ok = worst_sym <= 1e-9 and worst_can <= 1e-9
    announce(3, "vertical lift intertwines both brackets", ok, f"sym {worst_sym:.2e}, can {worst_can:.2e}")


PW_SCENARIOS = [
    ("flat_11", (0.1, -0.2), (0.7, 0.4)),
    ("inclusion", (0.2, 0.1), (1.0, 0.5)),
    ("nondeg_kill", (0.0, 0.0), (0.4, 0.2)),
    ("rotation", (1.0, 0.0), (0.3, 0.5)),
    ("r5", (0.1, 0.2, 0.7, -0.3, 0.4), (0.6, 0.0, 0.0, 0.5, -0.2)),
]


def test_criterion_04_conserved_speed_square():
    worst = 0.0
    for ident, x0, p0 in PW_SCENARIOS:
        pair = registry.build(ident)
        traj = integrate_pw(
            pair.nabla, vertical_lift(pair.theta), CotangentState(x0, p0), 1e-3, 1000
        )
        sq = monitor_speed_square(pair, traj)
        worst = max(worst, float(np.abs(sq - sq[0]).max()))
    bad = registry.build("sing_line")
    traj = integrate_pw(bad.nabla, vertical_lift(bad.theta), CotangentState((1.0,), (0.5,)), 1e-3, 1000)
    sq = monitor_speed_square(bad, traj)
    bad_drift = float(np.abs(sq - sq[0]).max())
    ok = worst <= 1e-8 and bad_drift >= 1e-3
    announce(4, "speed square conserved exactly when integrable", ok,
             f"max drift {worst:.2e}, counterexample drift {bad_drift:.2e}")


def test_criterion_05_geodesic_projection():
    worst = 0.0
    for ident, x0, p0 in PW_SCENARIOS:
        pair = registry.build(ident)
        traj = integrate_pw(
            pair.nabla, vertical_lift(pair.theta), CotangentState(x0, p0), 1e-3, 1000
        )
        res = monitor_geodesic_residual(pair, traj)
        worst = max(worst, float(res.max()))
    bad = registry.build("sing_line")
    traj = integrate_pw(bad.nabla, vertical_lift(bad.theta), CotangentState((1.0,), (0.5,)), 1e-3, 1000)
    res_bad = monitor_geodesic_residual(bad, traj)
    ok = worst <= 1e-6 and float(res_bad.max()) <= 1e-5
    announce(5, "base curves are geodesics; defect matches the cubic bracket", ok,
             f"integrable {worst:.2e}, counterexample agreement {float(res_bad.max()):.2e}")


def test_criterion_06_newtonian_reduction():
    line = Chart(["x"])
    g = SymFormField.from_dict(line, 2, {(0, 0): "1"})
    f = line.parse("x^2 / 2")
    steps = int(round(2 * math.pi / 1e-3))
    traj = run_newtonian(g, f, (1.0,), (0.0,), dt=1e-3, steps=steps)
    err = float(np.abs(traj.xs[:, 0] - np.cos(traj.times)).max())

    def order_err(dt):
        n = int(round(2 * math.pi / dt))
        t = run_newtonian(g, f, (1.0,), (0.0,), dt=dt, steps=n)
        return np.abs(t.xs[:, 0] - np.cos(t.times)).max()

    ratio = order_err(0.05) / order_err(0.025)
    ok = err <= 1e-6 and ratio >= 12.0
    announce(6, "harmonic oscillator and integrator order", ok, f"err {err:.2e}, ratio {ratio:.1f}")


def test_criterion_07_linear_structure_bijection():
    rng = np.random.default_rng(0xBEEF)
    exceptions = 0
    positives = 0
    for trial in range(100):
        dim = int(rng.integers(2, 5))
        if trial % 3 == 0:
            pool = [e for e in jj.catalog() if e.dim == dim]
            base = pool[int(rng.integers(0, len(pool)))].algebra
            p = _random_unimodular(rng, dim)
            alg = jj.basis_change(base, p)
        else:
            alg = _random_symmetric_algebra(rng, dim)
        pair = jj.to_linear_structure(alg)
        jac = jj.is_jacobi_jordan(alg)
        strong_expected = jac and jj.is_associative(alg)
        if is_symmetric_poisson(pair) != jac:
            exceptions += 1
        if is_strong(pair) != strong_expected:
            exceptions += 1
        positives += int(jac)

    catalog_ok = True
    for entry in jj.catalog():
        pair = jj.to_linear_structure(entry.algebra)
        if entry.dim <= 4 and not is_strong(pair):
            catalog_ok = False

    dim5 = jj.to_linear_structure(jj.catalog_entry("dim5_nonassoc").algebra)
    inv = involutivity_check(dim5)
    dim5_ok = (
        is_symmetric_poisson(dim5)
        and not is_strong(dim5)
        and inv.verdict == Involutivity.INVOLUTIVE_ON_SAMPLES
    )
    # the single surviving generator commutator, exactly:
    gens = jj.characteristic_generators(dim5)
    comm = lie_bracket(gens[0], gens[3])
    comm_ok = True
    for p in dim5.chart.sample_points():
        v = comm.evaluate(p)
        expected = np.zeros(5)
        expected[0] = -1.5 * p[2]
        comm_ok = comm_ok and bool(np.array_equal(v, expected) or np.abs(v - expected).max() == 0.0)
    for i, j in [(0, 1), (0, 4), (1, 3), (1, 4), (3, 4)]:
        if not lie_bracket(gens[i], gens[j]).is_zero_on():
            comm_ok = False

    ok = exceptions == 0 and positives >= 20 and catalog_ok and dim5_ok and comm_ok
    announce(
        7,
        "linear structures match algebra axioms",
        ok,
        f"exceptions {exceptions}, integrable cases {positives}",
    )


def _random_unimodular(rng, n):
    m = np.eye(n, dtype=object)
    for _ in range(6):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            shear = np.eye(n, dtype=object)
            shear[i][j] = int(rng.integers(-2, 3))
            m = m @ shear
    return [[Fraction(int(m[a][b])) for b in range(n)] for a in range(n)]


def _random_symmetric_algebra(rng, dim):
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for _ in range(dim + 1):
        i, j, k = rng.integers(0, dim, size=3)
        v = Fraction(int(rng.integers(-4, 5)), 4)
        c[k][i][j] = v
        c[k][j][i] = v
    return jj.CommutativeAlgebra(dim, c)


def test_criterion_08_rank_stratification():
    pair = registry.build("r5")
    checks = []

    data = characteristic_data(pair.theta, (0.3, 0.25, 0.8, 0.7, -0.4))
    checks.append(data.rank == 4 and data.signature == (2, 2))
    t, x2, x5 = 0.8, 0.25, -0.4
    g_leaf = np.array(
        [
            [0.0, 0.0, 0.0, -2.0 / t],
            [0.0, 0.0, 1.0 / t, 2.0 * x5 / t**2],
            [0.0, 1.0 / t, 0.0, 0.0],
            [-2.0 / t, 2.0 * x5 / t**2, 0.0, -4.0 * x2 / t**2],
        ]
    )
    axes = [0, 1, 3, 4]
    gram_err = max(
        abs(data.metric_value(np.eye(5)[ea], np.eye(5)[eb]) - g_leaf[a, b])
        for a, ea in enumerate(axes)
        for b, eb in enumerate(axes)
    )
    checks.append(gram_err <= 1e-8)

    a_, b_ = 0.9, -0.35
    data = characteristic_data(pair.theta, (0.1, b_, 0.0, 0.4, a_))
    checks.append(data.rank == 2 and data.signature == (1, 1))
    e1, e4 = np.eye(5)[0], np.eye(5)[3]
    gram_err2 = max(
        abs(data.metric_value(e1, e4) - 1.0 / a_),
        abs(data.metric_value(e4, e4) + b_ / a_**2),
        abs(data.metric_value(e1, e1)),
    )
    checks.append(gram_err2 <= 1e-8)

    data = characteristic_data(pair.theta, (0.0, 0.6, 0.0, 0.9, 0.0))
    checks.append(data.rank == 1 and data.signature == (1, 0))
    checks.append(abs(data.metric_value(np.eye(5)[0], np.eye(5)[0]) - 1 / 0.6) <= 1e-8)
    data = characteristic_data(pair.theta, (0.0, -0.6, 0.0, 0.9, 0.0))
    checks.append(data.rank == 1 and data.signature == (0, 1))
    data = characteristic_data(pair.theta, (0.5, 0.0, 0.0, 1.0, 0.0))
    checks.append(data.rank == 0)

    announce(8, "rank and induced-metric stratification", all(checks),
             f"gram errors {gram_err:.1e}, {gram_err2:.1e}")


def test_criterion_09_derived_bracket_and_killing():
    conn = registry.kill_connection(R2)
    rng = np.random.default_rng(0xD1CE)

    def rand_multi(deg):
        out = _rand_vec(rng)
        for _ in range(deg - 1):
            out = sym_product(out, _rand_vec(rng))
        return out

    def rand_form(deg):
        entries = {}
        idxs = {1: [(0,), (1,)], 2: [(0, 0), (0, 1), (1, 1)], 3: [(0, 0, 0), (0, 0, 1), (1, 1, 1)]}
        for idx in idxs[deg]:
            entries[idx] = _rand_poly(rng)
        return SymFormField.from_dict(R2, deg, entries)

    combos = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 3), (1, 2, 3), (1, 1, 3), (2, 1, 3), (3, 1, 3), (1, 3, 3)]
    worst = 0.0
    for trial in range(50):
        r, l, s = combos[trial % len(combos)]
        res = derived_bracket_check(conn, rand_multi(r), rand_multi(l), rand_form(s))
        worst = max(worst, res.residual_on())

    rng2 = np.random.default_rng(0xFACE)
    mismatches = 0
    killing_true = 0
    for trial in range(50):
        a, b, c = rng2.uniform(-0.5, 0.5, size=3)
        g = SymFormField.from_dict(
            R2, 2,
            {(0, 0): f"2 + {a:.6f}*x", (0, 1): f"{b:.6f}", (1, 1): f"2 + {c:.6f}*y"},
        )
        if trial % 5 == 0:
            k = g
        elif trial % 5 == 1:
            k = g.scale(-3.0)
        else:
            k = SymFormField.from_dict(
                R2, 2,
                {
                    (0, 0): f"{rng2.uniform(-1, 1):.6f}*x",
                    (0, 1): f"{rng2.uniform(-1, 1):.6f}",
                    (1, 1): f"{rng2.uniform(-1, 1):.6f}*y",
                },
            )
        direct = is_killing(levi_civita(g), k)
        via = killing_via_schouten(g, k)
        mismatches += int(direct != via)
        killing_true += int(direct)
    ok = worst <= 1e-9 and mismatches == 0 and killing_true >= 10
    announce(9, "derived bracket identity and Killing equivalence", ok,
             f"residual {worst:.2e}, mismatches {mismatches}")


def test_criterion_10_cotangent_bracket_and_flow():
    def form(chart, *entries):
        return SymFormField.from_dict(chart, 1, {(i,): e for i, e in enumerate(entries)})

    worst_almost = 0.0
    # almost-Lie axioms hold for arbitrary pairs, integrable or not
    arbitrary = [registry.build("sing_line"), registry.build("heisenberg_frame"), registry.build("nondeg_kill")]
    for pair in arbitrary:
        chart = pair.chart
        names = chart.names
        a = form(chart, *[f"{i + 1}" for i in range(chart.n)])
        b = form(chart, *[names[i % chart.n] for i in range(chart.n)])
        anti = cotangent_bracket(pair, a, b) + cotangent_bracket(pair, b, a)
        worst_almost = max(worst_almost, anti.residual_on())
        lres = leibniz_residual(pair, a, names[0], b)
        worst_almost = max(worst_almost, lres.residual_on())

    strong_pairs = [registry.build("inclusion"), registry.build("rotation"), registry.flat_pair(1, 1)]
    worst_anchor = 0.0
    for pair in strong_pairs:
        chart = pair.chart
        a = form(chart, "x*y", "1")
        b = form(chart, "y", "x")
        worst_anchor = max(worst_anchor, anchor_morphism_residual(pair, a, b).residual_on())

    flat_strong = [registry.build("inclusion"), registry.flat_pair(2, 0), registry.build("plane_rank2")]
    worst_jacobi = 0.0
    for pair in flat_strong:
        chart = pair.chart
        fs = ["x", "y", "x*y", "1"]
        a = form(chart, *fs[: chart.n])
        b = form(chart, *fs[1: chart.n + 1])
        c = form(chart, *(["y", "x"] + ["1"] * (chart.n - 2))[: chart.n])
        worst_jacobi = max(worst_jacobi, jacobi_residual(pair, a, b, c).residual_on())

    q0 = np.array([0.5, 0.5, 0.5, 0.5])
    t = math.pi / 3
    closed_err = float(
        np.abs(liealg.su2_flow(1.0, 0.0, 0.0, q0, t) - liealg.su2_flow_closed_form_i(q0, t)).max()
    )
    rng = np.random.default_rng(0xC0FFEE)
    expm_err = 0.0
    for _ in range(5):
        a_, b_, c_ = rng.uniform(-1, 1, size=3)
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        tt = float(rng.uniform(0.3, 2.0))
        oracle = expm(tt * liealg.su2_flow_matrix(a_, b_, c_)) @ q
        expm_err = max(expm_err, float(np.abs(liealg.su2_flow(a_, b_, c_, q, tt) - oracle).max()))

    ok = (
        worst_almost <= 1e-8
        and worst_anchor <= 1e-8
        and worst_jacobi <= 1e-8
        and closed_err <= 1e-8
        and expm_err <= 1e-8
    )
    announce(
        10,
        "cotangent bracket axioms and the circle flow",
        ok,
        f"almost {worst_almost:.1e}, anchor {worst_anchor:.1e}, jacobi {worst_jacobi:.1e}, "
        f"closed {closed_err:.1e}, expm {expm_err:.1e}",
    )


def test_criterion_11_line_family():
    rng = np.random.default_rng(0x1D)
    chart = Chart(["x"])
    all_pass = True
    for _ in range(10):
        lam = float(rng.uniform(0.2, 3.0))
        c = rng.integers(-2, 3, size=3)
        h = chart.parse(f"{c[0]} + {c[1]}*x + {c[2]}*x^2")
        hp = chart.parse(f"{c[0]}*x + {c[1]}*x^2/2 + {c[2]}*x^3/3")
        pair = one_dim_poisson_family(lam, h, hp)
        all_pass = all_pass and is_symmetric_poisson(pair)
    # a one percent coordinate-dependent perturbation must leave the family
    h = chart.parse("1 + x")
    hp = chart.parse("x + x^2/2")
    pair = one_dim_poisson_family(1.0, h, hp)
    perturbed = SymPoissonPair(pair.theta.scale(chart.parse("1 + 0.01*x")), pair.nabla)
    detected = not is_symmetric_poisson(perturbed)
    residual = symmetric_poisson_residual(perturbed)
    announce(11, "line family passes and perturbations fail", all_pass and detected,
             f"perturbation residual {residual:.2e}")
