"""The stacked membership routine against the per-point reference, the
constant folds that return existing nodes, and the membership implications
of the symmetric Poisson and strong conditions over the catalog."""

import itertools
import math

import numpy as np
import pytest

import reference
from sympoisson import expr as ex
from sympoisson import poisson
from sympoisson.defaults import RANK_TOL
from sympoisson.geometry import covariant_derivative, lie_bracket, symmetric_bracket
from sympoisson.jj import AlgebraError, CommutativeAlgebra
from sympoisson.liealg import LieAlgebra, LieAlgebraError
from test_catalog_trees import _catalog_pairs

# ---------------------------------------------------------------------------
# folds of two constants
# ---------------------------------------------------------------------------

GRID = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, math.inf, -math.inf, math.nan, 5e-324]


@pytest.mark.parametrize("fold,old", [(ex.add, reference.add_folded), (ex.mul, reference.mul_folded)],
                         ids=["add", "mul"])
def test_constant_folds_return_the_node_the_old_fold_built(fold, old):
    for a, b in itertools.product(GRID, repeat=2):
        x, y = ex.const(a), ex.const(b)
        assert fold(x, y) is old(x, y), (a, b)


# ---------------------------------------------------------------------------
# the stacked routine against one point and one vector at a time
# ---------------------------------------------------------------------------

PAIRS = dict(_catalog_pairs())


def test_the_catalog_builds_25_chart_pairs():
    assert len(PAIRS) == 25


def _commutators(pair):
    fields = poisson.characteristic_generators(pair)
    n = pair.chart.n
    return [lie_bracket(fields[i], fields[j]) for i in range(n) for j in range(i + 1, n)]


def _pointwise(matrices, table):
    return [[reference.membership_pointwise(m, v) for v in row] for m, row in zip(matrices, table)]


@pytest.mark.parametrize("ident", list(PAIRS))
def test_stacked_memberships_equal_the_pointwise_route(ident):
    pair = PAIRS[ident]
    n = pair.chart.n
    for seed in (1, 7, 23):
        samples = pair.chart.sample_points(25, seed)
        matrices = pair.theta.evaluate_on(samples)
        _, vecs, keep = poisson._spectra(pair.theta, samples, matrices)
        commutators = _commutators(pair)
        plan = ex.Plan(e for commutator in commutators for e in commutator.comps)
        table = plan.table(samples)[0].reshape(len(samples), len(commutators), n)
        # one plan gives each commutator's own table, bit for bit
        for c, commutator in enumerate(commutators):
            assert np.array_equal(table[:, c], commutator.evaluate_on(samples))
        want = _pointwise(matrices, table)
        assert poisson._membership(vecs, keep, table).tolist() == want
        report = poisson.involutivity_check(pair, samples)
        assert report.max_residual == max(itertools.chain.from_iterable(want), default=0.0)
        assert report.ranks == tuple(int(k) for k in keep.sum(axis=1))


@pytest.mark.parametrize("ident", list(PAIRS))
def test_stacked_memberships_of_random_and_special_vectors(ident):
    pair = PAIRS[ident]
    n = pair.chart.n
    samples = pair.chart.sample_points(25, 3)
    matrices = pair.theta.evaluate_on(samples)
    _, vecs, keep = poisson._spectra(pair.theta, samples, matrices)
    rng = np.random.default_rng(len(ident))
    table = rng.normal(size=(len(samples), 8, n)) * 10.0 ** rng.integers(-300, 300, size=(len(samples), 8, 1))
    table[:, 0] = 0.0
    table[:, 1, 0] = math.nan
    table[:, 2, -1] = math.inf
    table[:, 3, 0] = -math.inf
    table[:, 4] = matrices[:, 0]  # a column of theta: inside im theta
    assert poisson._membership(vecs, keep, table).tolist() == _pointwise(matrices, table)
    data = poisson.characteristic_data(pair.theta, samples[5])
    assert [data.membership_residual(v) for v in table[5]] == _pointwise(matrices[5:6], table[5:6])[0]


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_samples_of_every_rank_in_one_stack(n):
    rng = np.random.default_rng(n)
    matrices = []
    for s in range(3 * (n + 1)):
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        lam = np.zeros(n)
        lam[: s % (n + 1)] = rng.normal(size=s % (n + 1)) * 10.0 ** rng.integers(-3, 3)
        matrices.append((q * lam) @ q.T)
    matrices = np.array(matrices)
    lam, vecs = np.linalg.eigh(0.5 * matrices + 0.5 * np.swapaxes(matrices, 1, 2))
    keep = np.abs(lam) > RANK_TOL * (np.abs(lam).max(axis=1, keepdims=True) + 1.0)
    assert set(keep.sum(axis=1).tolist()) == set(range(n + 1))
    table = rng.normal(size=(len(matrices), 7, n)) * 10.0 ** rng.integers(-5, 5, size=(len(matrices), 7, 1))
    assert poisson._membership(vecs, keep, table).tolist() == _pointwise(matrices, table)


def test_a_rank_zero_sample_reads_the_scaled_norm():
    pair = PAIRS["ex:zero_bivector"]
    samples = pair.chart.sample_points()
    _, vecs, keep = poisson._spectra(pair.theta, samples, pair.theta.evaluate_on(samples))
    assert not keep.any()
    v = np.array([[[3.0, 4.0], [0.0, 0.0], [math.nan, 0.0]]] * len(samples))
    assert poisson._membership(vecs, keep, v).tolist() == [[5.0 / 6.0, 0.0, math.inf]] * len(samples)


# ---------------------------------------------------------------------------
# symmetric Poisson => <X_i, X_j> in im theta; strong => nabla_{X_i} X_j in im theta
# ---------------------------------------------------------------------------

def _worst_membership(pair, fields):
    samples = pair.chart.sample_points()
    _, vecs, keep = poisson._spectra(pair.theta, samples, pair.theta.evaluate_on(samples))
    table = np.stack([f.evaluate_on(samples) for f in fields], axis=1)
    return float(poisson._membership(vecs, keep, table).max(initial=0.0))


def _implication_residuals(pair):
    x = poisson.characteristic_generators(pair)
    n = pair.chart.n
    brackets = [symmetric_bracket(pair.nabla, x[i], x[j]) for i in range(n) for j in range(i, n)]
    nabla_x = [covariant_derivative(pair.nabla, xj) for xj in x]
    along = [nabla_x[j].along(x[i]) for i in range(n) for j in range(n)]
    return _worst_membership(pair, brackets), _worst_membership(pair, along)


@pytest.mark.parametrize("ident", list(PAIRS))
def test_membership_implications_hold_on_the_catalog(ident):
    pair = PAIRS[ident]
    symmetric, along = _implication_residuals(pair)
    if poisson.is_symmetric_poisson(pair):
        assert symmetric <= RANK_TOL
    if poisson.is_strong(pair):
        assert along <= RANK_TOL


def test_the_heisenberg_frame_fails_both_memberships():
    pair = PAIRS["ex:heisenberg_frame"]
    assert not poisson.is_symmetric_poisson(pair)
    # 0.4997 on both at the default samples
    assert _implication_residuals(pair) == (pytest.approx(0.5, abs=1e-3), pytest.approx(0.5, abs=1e-3))


# ---------------------------------------------------------------------------
# structure constants of the wrong shape
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "build,error",
    [
        (lambda: CommutativeAlgebra.from_products(2, {0: {0: 1}}), AlgebraError),
        (lambda: CommutativeAlgebra.from_products(2, {(0, 1): 3}), AlgebraError),
        (lambda: LieAlgebra.from_brackets(2, {(0, 1): 5}), LieAlgebraError),
    ],
    ids=["products-bare-index", "products-bare-value", "brackets-bare-value"],
)
def test_constants_of_the_wrong_shape_raise_the_class_error(build, error):
    with pytest.raises(error, match="is not of the form"):
        build()
