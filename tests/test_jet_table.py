"""The sampled verdicts contracted from one jet table against the symbolic
trees they were read from before.

`SymPoissonPair.jets` evaluates theta, d theta and Gamma with one plan per
pair and one table per sample set; `Jets` contracts nabla theta, theta^{im}
nabla_m theta, the cyclic [theta, theta] and the module commutators from
them.  It is the library's one sampled route.  The second route is
`reference.verdict_trees`: the same quantities built as trees index by
index, evaluated by `expr.Plan`.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from sympoisson import expr as ex
from sympoisson import geometry, poisson
from sympoisson.geometry import Chart, Connection, SymTensorField
from sympoisson.poisson import SymPoissonPair, verdict_suite
from test_catalog_trees import _catalog_pairs

PAIRS = dict(_catalog_pairs())
SEEDS = (1, 7, 31)
EPS = np.finfo(float).eps


def _jet_values(jets, quantity):
    if quantity == "commutators":
        return jets.commutators, None
    return reference.dense_jets(jets)[quantity]


def _library_trees(pair):
    """The four quantities as trees over the library's nabla theta and Lie
    bracket, which build each (i <= j) once, in the order the contraction adds."""
    n = pair.chart.n
    nabla_theta = geometry.covariant_derivative(pair.nabla, pair.theta).comps
    directional = np.stack([reference.contract_first_slot_comps(row, nabla_theta) for row in pair.theta.comps])
    gens = poisson.characteristic_generators(pair)
    brackets = [geometry.lie_bracket(gens[i], gens[j]).comps for i in range(n) for j in range(i + 1, n)]
    return {
        "nabla_theta": nabla_theta,
        "directional": directional,
        "schouten": reference.schouten_self_cyclic_comps(directional),
        "commutators": np.array(brackets, dtype=object).reshape(len(brackets), n),
    }


@pytest.mark.parametrize("ident", list(PAIRS))
def test_jet_contractions_equal_the_trees(ident):
    pair = PAIRS[ident]
    trees, library = reference.verdict_trees(pair), _library_trees(pair)
    for seed in SEEDS:
        samples = pair.chart.sample_points(25, seed)
        jets = pair.jets(samples)
        for quantity, comps in trees.items():
            value, scale = _jet_values(jets, quantity)
            want, want_scale = reference.tree_table(comps, samples)
            # the reference builds every index, so (j, i) sums in another order
            bound = 4 * EPS * (want_scale if scale is None else scale)
            assert (np.abs(value - want) <= bound).all(), (seed, quantity)
            # the library builds (i <= j) once, in the order the contraction adds
            got, _ = reference.tree_table(library[quantity], samples)
            assert np.array_equal(np.abs(value), np.abs(got)), (seed, quantity)
        suite = verdict_suite(pair, samples=samples)
        assert reference.tree_verdicts(pair, samples) == {
            "symmetric_poisson": suite.symmetric_poisson,
            "strong": suite.strong,
            "parallel": suite.parallel,
            "involutive": suite.involutive,
        }, seed


@pytest.mark.parametrize("ident", list(PAIRS))
def test_live_term_contractions_equal_the_dense_contractions(ident):
    # the live terms, summed in order, against every index summed densely:
    # values up to the sign of a zero, scales bit for bit
    pair = PAIRS[ident]
    for seed in SEEDS:
        jets = pair.jets(pair.chart.sample_points(25, seed))
        for quantity, (value, scale) in reference.dense_jet_contractions(jets).items():
            got, got_scale = _jet_values(jets, quantity)
            assert np.isfinite(value).all() and (got + 0.0).tobytes() == (value + 0.0).tobytes(), (seed, quantity)
            assert scale is None or got_scale.tobytes() == scale.tobytes(), (seed, quantity)


def _expressions(names, depth):
    leaf = st.sampled_from(["0", "1", "-1", "2", "0.5", *names])
    return st.recursive(leaf, lambda sub: st.tuples(sub, st.sampled_from("+-*"), sub).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"), max_leaves=depth)


@st.composite
def _pairs(draw):
    """A pair on a 1-3 dimensional chart with polynomial theta and Gamma,
    each entry present or a structural zero."""
    names = ["x", "y", "z"][: draw(st.integers(1, 3))]
    n = len(names)

    def entries(slots, depth):
        return {slot: draw(_expressions(names, depth)) for slot in slots if draw(st.booleans())}

    theta = entries([(i, j) for i in range(n) for j in range(i, n)], 6)
    gamma = entries([(k, i, j) for k in range(n) for i in range(n) for j in range(i, n)], 3)
    chart = Chart(names)
    return SymPoissonPair(SymTensorField.from_dict(chart, 2, theta), Connection.from_dict(chart, gamma))


@settings(max_examples=60, deadline=None)
@given(_pairs(), st.integers(0, 2**16))
def test_jet_contractions_equal_the_trees_on_drawn_pairs(pair, seed):
    # constants 0 and +-1 exercise every fold the trees make of their terms
    samples = pair.chart.sample_points(6, seed)
    jets = pair.jets(samples)
    library = _library_trees(pair)
    for quantity in library:
        got, _ = reference.tree_table(library[quantity], samples)
        assert np.array_equal(np.abs(_jet_values(jets, quantity)[0]), np.abs(got)), quantity


def test_the_scale_is_the_contraction_over_the_leaf_scales():
    # theta^{11} = x^3 - x on the flat line: nabla theta = d theta = 3 x^2 - 1,
    # whose scale is its leaf's largest subterm, max(3, x^2, 3 x^2, 1, |3 x^2 - 1|)
    chart = Chart(["x"], box=[(-2.0, 2.0)])
    pair = SymPoissonPair(SymTensorField.from_dict(chart, 2, {(0, 0): "x^3 - x"}), Connection.euclidean(chart))
    samples = np.array([[0.5], [2.0]])
    dense = reference.dense_jets(pair.jets(samples))
    value, scale = dense["nabla_theta"]
    assert value[:, 0, 0, 0].tolist() == [3 * 0.25 - 1, 11.0]
    assert scale[:, 0, 0, 0].tolist() == [3.0, 12.0]
    assert poisson.parallel_residual(pair, samples) == 11.0 / 13.0
    # D = theta nabla theta, and [theta, theta] = 6 D on the line
    d, d_scale = dense["directional"]
    assert d[:, 0, 0, 0].tolist() == [(0.125 - 0.5) * (0.75 - 1), 6.0 * 11.0]
    assert d_scale[:, 0, 0, 0].tolist() == [0.5 * 3.0, 8.0 * 12.0]


def test_one_table_per_sample_set_kept_on_the_pair(monkeypatch):
    tables = []
    original = ex.Plan.table
    monkeypatch.setattr(ex.Plan, "table", lambda plan, samples: tables.append(plan) or original(plan, samples))
    pair = PAIRS["ex:r5"]
    pair.__dict__.pop("_jet_tables", None)
    first = pair.chart.sample_points(7, 3)
    assert pair.jets(first) is pair.jets(first.copy())
    assert pair.jets(pair.chart.sample_points(7, 4)) is not pair.jets(first)
    assert len(tables) == 2 and tables[0] is tables[1] is pair._jet_plan.plan


def test_a_gamma_no_tree_reads_fails_every_sampled_verdict():
    # Gamma^y_yy = ln(x) fails where x < 0.  theta^{yy} and theta^{xy} are
    # structural zeros, so no tree multiplies it in, but the one jet plan
    # holds every Gamma, so each verdict raises its error.
    chart = Chart(["x", "y"])
    theta = SymTensorField.from_dict(chart, 2, {(0, 0): "x"})
    ln = chart.parse("ln(x)").expr
    pair = SymPoissonPair(theta, Connection.from_dict(chart, {(1, 1, 1): "ln(x)"}))
    samples = chart.sample_points()
    assert (samples[:, 0] < 0).any()
    assert any(node is ln for node in pair._jet_plan.plan.nodes)
    for verdict in (poisson.symmetric_poisson_residual, poisson.strong_residual, poisson.parallel_residual,
                    poisson.involutivity_check):
        with pytest.raises(ex.EvalDomainError) as err:
            verdict(pair, samples)
        assert str(err.value) == "ln of a non-positive argument in subterm 'ln(x1)'", verdict.__name__
        assert err.value.node is ln, verdict.__name__


@pytest.mark.parametrize("gamma, message", [("exp(x)", "overflow in subterm 'exp(x1)'"),
                                            ("x^400", "overflow in subterm 'x1^400'")], ids=["exp", "power"])
def test_an_overflowing_gamma_fails_every_sampled_verdict(gamma, message):
    # Gamma^x_{xy} overflows on most of the box 2 <= x, y <= 1000: an
    # overflow in exp and one in ** fail their node alike, so each verdict
    # raises the error a values loop over the samples raises
    chart = Chart(["x", "y"], [(2.0, 1000.0), (2.0, 1000.0)])
    theta = SymTensorField.from_dict(chart, 2, {(0, 0): "1"})
    pair = SymPoissonPair(theta, Connection.from_dict(chart, {(0, 0, 1): gamma}))
    samples = chart.sample_points()
    node = chart.parse(gamma).expr
    for verdict in (poisson.symmetric_poisson_residual, poisson.strong_residual, poisson.parallel_residual,
                    poisson.involutivity_check):
        with pytest.raises(ex.EvalDomainError) as err:
            verdict(pair, samples)
        assert str(err.value) == message and err.value.node is node, verdict.__name__


def test_a_gamma_no_term_reads_stays_out_of_a_rescaled_scale():
    # the scales of D and [theta, theta] overflow over finite theta and d
    # theta scales (as in test_cli), so they are summed again over rescaled
    # leaf scales; Gamma^x_zz = 1e308 * 10 * x reads inf, but theta's row z
    # is all structural zeros, so no term reads it and no residual moves
    chart = Chart(["x", "y", "z"])
    theta = SymTensorField.from_dict(chart, 2, {(0, 0): "-1", (0, 1): "sin(x) / (1e150*x)", (1, 1): "x - 1e150*x"})
    masked = SymPoissonPair(theta, Connection.from_dict(chart, {(0, 2, 2): "1e308*10*x"}))
    plain = SymPoissonPair(theta, Connection.euclidean(chart))
    assert not np.isfinite(reference.jet_leaves(masked.jets())[2][1]).all()
    assert not np.isfinite(masked.jets().contracted["schouten"][1]).all()
    assert verdict_suite(masked).residuals == verdict_suite(plain).residuals
    assert verdict_suite(masked).symmetric_poisson


def test_the_jet_plan_has_one_column_per_distinct_leaf():
    # theta, d theta, Gamma and the constant 1 share a column wherever they
    # are one node, so the 25 catalog chart pairs have 114 columns, where
    # deduplicating theta and d theta apart from Gamma and 1 gave 153
    total = 0
    for ident, pair in PAIRS.items():
        plan, n = pair._jet_plan, pair.chart.n
        dtheta = [pair.theta.comps[i, j].diff(m) for m, i, j in itertools.product(range(n), repeat=3)]
        leaves = [*pair.theta.comps.flat, *dtheta, *pair.nabla.gamma.flat, ex.ONE]
        roots = [plan.plan.nodes[root] for root in plan.plan.roots]
        assert len(roots) == len({id(e) for e in leaves}), ident
        assert all(roots[c] is e for c, e in zip(plan.columns.tolist(), leaves, strict=True)), ident
        total += len(roots)
    assert (len(PAIRS), total) == (25, 114)


def test_a_leaf_only_the_parallel_tree_reads_fails_every_sampled_verdict():
    # d_x theta^{yy} = d_x sqrt(x^2) divides by zero at x = 0.  Only nabla_x
    # theta^{yy} reads it, as theta^{xx} and theta^{xy} are structural zeros,
    # but every verdict reads the one jet table, so each raises its error.
    chart = Chart(["x", "y"])
    pair = SymPoissonPair(SymTensorField.from_dict(chart, 2, {(1, 1): "sqrt(x^2)"}), Connection.euclidean(chart))
    samples = np.array([[0.5, 0.1], [0.0, 0.2]])
    with pytest.raises(ex.EvalDomainError) as want:
        poisson.parallel_residual(pair, samples)
    for verdict in (poisson.symmetric_poisson_residual, poisson.strong_residual, poisson.involutivity_check):
        with pytest.raises(ex.EvalDomainError) as err:
            verdict(pair, samples)
        assert str(err.value) == str(want.value) and err.value.node is want.value.node, verdict.__name__


def test_a_finite_value_over_an_infinite_scale_reads_inf(monkeypatch):
    # d theta = 1 whose scale is inf: every contraction is finite, every
    # scale inf, and |v| / (1 + inf) = 0 must not pass for a residual.
    # theta = 2 x, so d theta is the node 2, a column apart from the constant 1
    chart = Chart(["x"])
    pair = SymPoissonPair(SymTensorField.from_dict(chart, 2, {(0, 0): "2*x"}), Connection.euclidean(chart))
    samples = np.array([[0.5]])
    # leaves theta, d theta, Gamma and the constant 1, in the plan's columns
    columns = pair._jet_plan.columns
    assert columns.tolist() == [0, 1, 2, 3]
    values, scales = np.zeros((1, columns.max() + 1)), np.zeros((1, columns.max() + 1))
    values[:, columns], scales[:, columns] = [1.0, 1.0, 0.0, 1.0], [1.0, np.inf, 0.0, 1.0]
    jets = poisson.Jets(samples, pair._jet_plan, values, scales)
    for quantity in poisson.QUANTITIES:
        value, scale = jets.contracted[quantity]
        assert np.isfinite(value).all() and np.isinf(scale).all(), quantity
    monkeypatch.setattr(SymPoissonPair, "jets", lambda self, samples=None: jets)
    for residual in (poisson.symmetric_poisson_residual, poisson.strong_residual, poisson.parallel_residual):
        assert residual(pair, samples) == np.inf, residual.__name__


@pytest.mark.parametrize("theta", [{(1, 1): "1e308 * sin(2*x)"}, {(0, 1): "x*y", (1, 1): "1e308 * sin(2*x)"}],
                         ids=["dead-row", "structural-zero"])
def test_a_leaf_only_the_parallel_tree_reads_may_overflow(theta):
    # d_x theta^{yy} = 1e308 (2 cos(2 x)) overflows in a product near x = 0.
    # theta^{xx} is a structural zero, so no commutator reads it; with theta's
    # row x all structural zeros, neither does theta^{im} nabla_m theta.  The
    # verdicts are the trees': parallel reads inf, and involutivity holds.
    chart = Chart(["x", "y"])
    pair = SymPoissonPair(SymTensorField.from_dict(chart, 2, theta), Connection.euclidean(chart))
    samples = chart.sample_points()
    assert not np.isfinite(reference.jet_leaves(pair.jets(samples))[1][1]).all()
    suite = verdict_suite(pair)
    trees = reference.verdict_trees(pair)
    for name, quantity in [("symmetric_poisson", "schouten"), ("strong", "directional"), ("parallel", "nabla_theta")]:
        assert suite.residuals[name] == ex.Plan(trees[quantity].flat).residual(samples), name
    assert suite.residuals["parallel"] == np.inf
    assert reference.tree_verdicts(pair, samples) == {
        "symmetric_poisson": suite.symmetric_poisson,
        "strong": suite.strong,
        "parallel": suite.parallel,
        "involutive": suite.involutive,
    }


def test_an_overflow_under_a_finite_commutator_is_located():
    # [theta(dx), theta(dy)]^x = -theta^{yy} d_y theta^{xx}, and d_y (1 / (1e200 y))
    # = -1e200 / (1e200 y)^2 would read -0 where the square overflows: the
    # commutator would be finite, but the square fails its node, so the jet
    # table raises the values loop's error, and so does every verdict
    chart = Chart(["x", "y"])
    theta = SymTensorField.from_dict(chart, 2, {(0, 0): "1/(1e200*y)", (1, 1): "1"})
    pair = SymPoissonPair(theta, Connection.euclidean(chart))
    samples = np.array([[0.5, 0.5], [0.5, 1e-210], [0.5, 0.25]])
    with pytest.raises(ex.EvalDomainError) as loop_err:
        for p in samples:
            pair._jet_plan.plan.values(p)
    assert str(loop_err.value) == "overflow in subterm '(1e+200 * x2)^2'"
    for read in (pair.jets, pair._jet_plan.plan.table, pair._jet_plan.plan.residual,
                 *(lambda s, verdict=verdict: verdict(pair, s) for verdict in (
                     poisson.symmetric_poisson_residual, poisson.strong_residual, poisson.parallel_residual,
                     poisson.involutivity_check))):
        with pytest.raises(ex.EvalDomainError) as err:
            read(samples)
        assert str(err.value) == str(loop_err.value) and err.value.node is loop_err.value.node


def test_a_scale_that_overflows_over_finite_leaf_scales_is_rescaled():
    # Gamma^z_yy = x^400 - 1 / (1e200 y) makes nabla theta's scale overflow,
    # and D's and [theta, theta]'s with it, while every leaf scale is finite.
    # Summed again over leaf scales times 2^-e, each scale bounds |v|, and
    # each residual is the one the dense-then-live route read
    chart = Chart(["x", "y", "z"])
    theta = SymTensorField.from_dict(chart, 2, {(1, 1): "x - sin(x)/(1e150*x)", (1, 2): "exp(-2*(x+y))"})
    gamma = {(0, 0, 2): "cos(y)", (0, 1, 1): "z * y", (2, 1, 1): "x^400 - 1/(1e200*y)"}
    pair = SymPoissonPair(theta, Connection.from_dict(chart, gamma))
    samples = chart.sample_points(25, 2)
    jets = pair.jets(samples)
    assert np.isfinite(jets.scales).all()
    for quantity in ("nabla_theta", "directional", "schouten"):
        scale = jets.contracted[quantity][1]
        assert np.isinf(scale).any() and not np.isnan(scale).any(), quantity
    assert [residual(pair, samples) for residual in (
        poisson.symmetric_poisson_residual, poisson.strong_residual, poisson.parallel_residual)] == [
        0.7381151814050632, 0.6653227650829363, 0.9846772121952726]


def test_a_rescaled_scale_that_is_still_not_finite_reads_inf():
    # Gamma^x_{xy} = 1 / (1e308 * 10 * x) is finite (+-0), but its subterm
    # 1e308 * 10 folds to inf, so its scale is inf; theta^{11} = 1 is the
    # column of the constant 1 too.  The scales of the theta and d theta
    # columns are finite, so every contraction's scale is summed again with
    # those factors times 2^-e, and the live terms theta^{xj} Gamma^x_{yx}
    # keep it inf: each residual reads inf
    chart = Chart(["x", "y"])
    theta = SymTensorField.from_dict(chart, 2, {(0, 0): "1", (0, 1): "x"})
    pair = SymPoissonPair(theta, Connection.from_dict(chart, {(0, 0, 1): "1/(1e308*10*x)"}))
    jets, columns = pair.jets(), pair._jet_plan.columns
    assert columns[0] == columns[-1]
    assert np.isfinite(jets.scales[:, columns[: 2 * 2 + 2**3]]).all() and not np.isfinite(jets.scales).all()
    for quantity in poisson.QUANTITIES:
        value, scale = jets.contracted[quantity]
        assert np.isfinite(value).all() and np.isinf(scale).any(), quantity
    assert [residual(pair) for residual in (
        poisson.symmetric_poisson_residual, poisson.strong_residual, poisson.parallel_residual)] == [np.inf] * 3


def test_a_scale_sums_no_term_of_a_component_its_tree_folds_to_zero():
    # nabla_z theta^{xz} = Gamma^x_{zx} theta^{xz} + Gamma^z_{zz} theta^{xz} =
    # 1 * 1 + (-1) * 1 has constant terms only, which sum to 0: its tree is a
    # structural zero, so D^{xxz} = theta^{xz} nabla_z theta^{xz} forms no
    # term, and its scale is 0 (a dense sum over every index read 2 there)
    chart = Chart(["x", "y", "z"])
    theta = SymTensorField.from_dict(chart, 2, {(0, 2): "1", (2, 2): "2"})
    gamma = {(0, 0, 0): "-1", (0, 0, 2): "1", (1, 0, 1): "-1", (2, 0, 1): "2", (2, 0, 2): "1", (2, 2, 2): "-1"}
    pair = SymPoissonPair(theta, Connection.from_dict(chart, gamma))
    samples = chart.sample_points()
    assert reference.dense_jets(pair.jets(samples))["directional"][1][:, 0, 0, 2].tolist() == [0.0] * len(samples)
    assert [residual(pair, samples) for residual in (
        poisson.symmetric_poisson_residual, poisson.strong_residual, poisson.parallel_residual)] == [0.8, 2 / 3, 0.8]


def _fold(live, ids, negated, tables):
    """`_Terms` as a plain loop: each component's live products, factors
    multiplied left to right and negated where `negated` says, added in
    order from the first, then 0.0 once for each product it lacks against
    the longest component."""
    width = int(live.sum(axis=1).max(initial=0))
    out = np.zeros((len(tables[0]), len(live)))
    for s, c in np.ndindex(out.shape):
        total = None
        for t in np.flatnonzero(live[c]).tolist():
            product = float(tables[0][s, ids[0][c, t]])
            for table, column in zip(tables[1:], ids[1:]):
                product = product * float(table[s, column[c, t]])
            product = -product if negated is not None and negated[c, t] else product
            total = product if total is None else total + product
        for _ in range(int(live[c].sum()), width):
            total = 0.0 if total is None else total + 0.0
        out[s, c] = 0.0 if total is None else total
    return out


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("negate", [False, True])
@pytest.mark.parametrize("factors", [1, 2, 3])
def test_the_live_term_sum_is_a_plain_fold_over_the_live_entries(factors, negate, seed):
    # every entry that is not live reads a column holding inf or NaN, so a
    # product formed there would show; component 1 is the one product -0.0,
    # which the 0.0 padding turns into 0.0, and some component has none.  A
    # negated product reads its first factor from a negated copy of the
    # first table, past its columns, and equals the negated product
    rng = np.random.default_rng(seed)
    components, positions, samples = 6, 5, 4
    live = rng.random((components, positions)) < 0.5
    live[0], live[1] = True, np.arange(positions) == 0
    live[rng.integers(2, components)] = False
    if seed == 0:
        live[:] = False
    finite = [0.0, -0.0, 1.5, -2.25, 1e-300, 1e100]
    tables = []
    for _ in range(factors):
        values = rng.choice(finite, size=(samples, 8))
        values[:, :3] = rng.normal(size=(samples, 3))
        tables.append(np.concatenate([values, np.full((samples, 4), [-0.0, 1.0, np.inf, np.nan])], axis=1))
    ids = [np.where(live, rng.integers(8, size=live.shape), rng.integers(10, 12, size=live.shape))
           for _ in range(factors)]
    for f, column in enumerate(ids):
        column[1, 0] = 9 if f else 8
    negated = rng.random(live.shape) < 0.5 if negate else None
    if negate:
        negated[1, 0] = False
    want = _fold(live, ids, negated, tables)
    if negate:
        ids[0] = ids[0] + tables[0].shape[1] * negated
        tables[0] = np.hstack([tables[0], -tables[0]])
    got = poisson._Terms(live, *ids)(*tables)
    assert got.tobytes() == _fold(live, ids, None, tables).tobytes()
    assert got.shape == (samples, components)
    assert got.tobytes() == want.tobytes()
    assert not np.isnan(got).any()
