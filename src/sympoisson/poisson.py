"""Symmetric Poisson pairs: brackets, gradients, integrability verdicts,
and characteristic distribution/metric analysis.

A pair couples a symmetric bivector field theta with a torsion-free
connection.  The three verdicts form a hierarchy:

    parallel  =>  strong  =>  symmetric Poisson,

with strong additionally implying an involutive characteristic module.
All verdicts are sampled identity checks on the chart's sample box.

Every condition is built from theta, its first derivatives and the
Christoffel symbols, so the sampled verdicts read one table of those
values, the pair's `Jets`, with one column per distinct leaf, and contract
numbers instead of building trees.  Every term is a plain product of
columns that reads its theta or d theta factor first; a commutator's minus
sign comes from a negated copy of the values.  There is one live-component
chain, `_JetPlan.contract`: nabla theta, then D^{ijk} = theta^{im} nabla_m
theta^{jk}, then the cyclic [theta, theta], each formed only on the
components whose tree is not a structural zero, for the verdicts and the
geodesic monitor alike.  Each contraction sums only the terms a symbolic
tree has, in the tree's order, so its values equal the tree's.  A residual
is max |v| / (1 + scale) over the live components, where the scale is the
same sums over the leaves' scales (a running error bound); where that
overflows over finite leaf scales it is formed again with the theta and d
theta factors read from the leaf scales times a power of two.  A leaf that
fails raises the table's located EvalDomainError, a residual whose value or
scale is not finite otherwise reads inf, and a commutator that is not
finite raises.  The geodesic monitor reads the same plan at a trajectory's
states: a failing leaf raises in the plan's leaf order.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from . import expr as ex
from . import geometry as geo
from .defaults import RANK_TOL, TOL
from .expr import ScalarField
from .geometry import (
    Chart,
    Connection,
    SymTensorField,
    contract,
    covariant_derivative,
    differential,
    ricci,
    schouten,
    symmetric_bracket,
)


class PoissonError(Exception):
    pass


@dataclass(frozen=True)
class SymPoissonPair:
    """A symmetric bivector field together with a torsion-free connection.

    Its one jet plan with its term lists, which the verdicts and the
    geodesic monitor both read, and each sample set's table of `jets` are
    built once, on first use; no bracket tree is built for any of them."""

    theta: SymTensorField
    nabla: Connection

    def __post_init__(self):
        if self.theta.degree != 2:
            raise PoissonError("theta must have degree 2")
        if self.theta.chart != self.nabla.chart:
            raise geo.ChartMismatchError("theta and connection on different charts")
        self.nabla.require_torsion_free()

    @property
    def chart(self) -> Chart:
        return self.theta.chart

    @cached_property
    def _jet_plan(self) -> _JetPlan:
        return _JetPlan(self.theta.comps, self.nabla.gamma)

    @cached_property
    def _jet_tables(self) -> dict:
        return {}

    def jets(self, samples=None) -> Jets:
        """theta, d theta and Gamma at the samples (default: the chart's), from
        one `Plan.table` per sample set, kept on the pair.  A leaf that fails
        raises the table's located EvalDomainError; one whose product
        overflows reads inf."""
        if samples is None:
            samples = self.chart.sample_points()
        geo._require_points(self.chart, samples, 2)
        pts = np.asarray(samples, dtype=float)
        key = (pts.shape, pts.tobytes())
        if key not in self._jet_tables:
            self._jet_tables[key] = Jets.of(self._jet_plan, pts)
        return self._jet_tables[key]


# ---------------------------------------------------------------------------
# jet leaves and the ordered sums of their live terms
# ---------------------------------------------------------------------------

class _Terms:
    """Ordered sums of products, as `expr.expr_sum` adds a tree's terms.

    `live` (components, positions) marks the products each component has;
    product t is the t-th True of `live` in row order, so a component's
    products are consecutive.  Factor f of a product reads column `ids[f]`
    (an array shaped as `live`) of the f-th table passed to the call, and
    the factors multiply left to right, ((a b) c) ...; a product that
    enters negated reads a negated factor from its table, as (-a) b equals
    -(a b) bit for bit.  A component adds its products one at a time,
    ((t0 + t1) + t2) + ..., so its value is the tree's bit for bit up to
    the sign of a zero: a component with fewer products than the longest
    adds 0.0 for each one it lacks, and one with none is 0.0.
    """

    def __init__(self, live: np.ndarray, *ids: np.ndarray):
        counts = live.sum(axis=1)
        ends = np.cumsum(counts)
        position = np.arange(counts.max(initial=0))[:, None]
        # positions[l]: the l-th product of every component, or the zero column
        self.positions = ends - counts + position
        self.positions[position >= counts] = ends[-1] if len(ends) else 0
        self.size = len(counts)
        self.ids = tuple(column[live] for column in ids)

    def __call__(self, *tables: np.ndarray) -> np.ndarray:
        """(samples, components) from one (samples, columns) table per factor."""
        first = tables[0]
        if not len(self.positions):
            return np.zeros((len(first), self.size))
        terms = np.empty((len(first), len(self.ids[0]) + 1))
        terms[:, -1] = 0.0
        body = terms[:, :-1]
        body[...] = first[:, self.ids[0]]
        for table, ids in zip(tables[1:], self.ids[1:]):
            np.multiply(body, table[:, ids], out=body)
        out = terms[:, self.positions[0]]
        for position in self.positions[1:]:
            out += terms[:, position]
        return out


class _Layout:
    """The index tables of the jet contractions on an n-chart, each term at
    its position in the tree that sums it, over leaf ids.  A pair's live
    terms are read from them through its structural zeros (`_JetPlan`).

    Leaf ids: theta^{ij} at i n + j, d_m theta^{ij} in (m, i, j) order from
    n^2, Gamma^k_{ij} in (k, i, j) order from n^2 + n^3, the constant 1 last.
    Every term reads its theta or d theta factor first.

    - nabla_m theta^{ij} for i <= j, in (m, i, j) order, as
      `geometry.covariant_derivative` sums it: d_m theta^{ij} * 1,
      theta^{kj} Gamma^i_{mk} (k), theta^{ik} Gamma^j_{mk} (k).
    - D^{ijk} = theta^{im} nabla_m theta^{jk} over m, for every (i, j, k):
      theta's leaf and the index of nabla_m theta^{jk} above.
    - the commutator of theta's rows a < b (the columns of `above_diagonal`,
      (2, pairs), in row order), for each k: theta^{am} d_m theta^{bk}, then
      (-theta^{bm}) d_m theta^{ak}, for each m in turn; `commutator_negated`
      marks the second, whose theta is read from a negated table.
    - the cyclic [theta, theta]^{ijk} = 2 ((D^{ijk} + D^{jki}) + D^{kij}):
      `cyclic` (3, n^3) holds the ids of its three D, for each (i, j, k).
    - p_i p_j [theta, theta]^{ijk} for each k, over (i, j) in order: the
      ids `pair_i`, `pair_j` and the component (i, j, k) of each (`cubic`).
    """

    def __init__(self, n: int):
        self.n, self.size = n, n * n + 2 * n**3 + 1
        theta = np.arange(n * n).reshape(n, n)
        dtheta = n * n + np.arange(n**3).reshape(n, n, n)
        self.gamma = gamma = n * n + n**3 + np.arange(n**3).reshape(n, n, n)
        i, j = np.triu_indices(n)
        m, i, j = (a[:, None] for a in (np.repeat(np.arange(n), len(i)), np.tile(i, n), np.tile(j, n)))
        k = np.arange(n)
        self.nabla_left = np.concatenate([dtheta[m, i, j], theta[k, j], theta[i, k]], axis=1)
        self.nabla_right = np.concatenate([np.full_like(m, self.size - 1), gamma[i, m, k], gamma[j, m, k]], axis=1)
        nabla_index = np.empty((n, n, n), int)
        nabla_index[m, i, j] = nabla_index[m, j, i] = np.arange(len(m))[:, None]
        i, j, k, m = np.indices((n, n, n, n)).reshape(4, n**3, n)
        self.directional_left, self.directional_comp = theta[i, m], nabla_index[m, j, k]
        self.above_diagonal = np.stack(np.triu_indices(n, 1))
        a, b = self.above_diagonal
        p, k, m = np.indices((len(a), n, n))
        a, b = a[p], b[p]
        self.commutator_left = np.stack([theta[a, m], theta[b, m]], axis=-1).reshape(-1, 2 * n)
        self.commutator_right = np.stack([dtheta[m, b, k], dtheta[m, a, k]], axis=-1).reshape(-1, 2 * n)
        self.commutator_negated = np.broadcast_to(np.arange(2 * n) % 2 == 1, self.commutator_left.shape)
        ijk = np.arange(n**3).reshape(n, n, n)
        self.cyclic = np.stack([ijk, ijk.transpose(2, 0, 1), ijk.transpose(1, 2, 0)]).reshape(3, n**3)
        k, i, j = np.indices((n, n, n)).reshape(3, n, n * n)
        self.cubic, self.pair_i, self.pair_j = ijk[i, j, k], i, j
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


@cache
def _layout(n: int) -> _Layout:
    return _Layout(n)


# the contractions `_JetPlan.contract` forms, in order
QUANTITIES = ("nabla_theta", "directional", "schouten")


class _JetPlan:
    """The pair's one plan of its jet leaves and the live-term lists of their
    contractions, which the sampled verdicts and the geodesic monitor both
    read.

    The plan's roots are the distinct leaves, theta, d theta, Gamma and the
    constant 1, in `_Layout` order, so each table column is one distinct
    leaf, however many of theta, d theta and Gamma hold it; `columns` maps
    each `_Layout` leaf id to its column, and every term list reads columns.
    Every leaf is in the plan, so a table of it raises for any leaf that
    fails, even one no term reads.  Every term list holds only the terms a
    tree has: a product with a structural zero is never formed.

    `components` holds the components `contract` forms, for each of
    `QUANTITIES`: the nabla theta whose tree is not a structural zero (as
    indices of `_Layout`'s (m, i <= j) order), the D that the live [theta,
    theta] components add, and the [theta, theta] where a D it adds is live
    (both as flat (i, j, k) indices).  Every other component is 0.
    """

    def __init__(self, theta: np.ndarray, gamma: np.ndarray):
        self.n = n = len(theta)
        layout = _layout(n)
        dtheta = (theta[i, j].diff(m) for m, i, j in itertools.product(range(n), repeat=3))
        leaves = [*theta.flat, *dtheta, *gamma.flat, ex.ONE]
        distinct = {id(e): e for e in leaves}
        self.plan = ex.Plan(distinct.values())
        slot = {key: c for c, key in enumerate(distinct)}
        self.columns = np.array([slot[id(e)] for e in leaves])
        const = np.array([e.value if type(e) is ex.Const else math.nan for e in leaves])
        self.zero = zero = const == 0.0
        # nabla theta: a term is live where neither factor is a structural
        # zero; a component with no live term, or with constant terms that sum
        # to 0 (NaN where a term is not constant), is a structural zero
        left, right = layout.nabla_left, layout.nabla_right
        live = ~zero[left] & ~zero[right]
        with np.errstate(all="ignore"):
            products = np.where(live, const[left] * const[right], 0.0)
            total = products[:, 0].copy()
            for column in products.T[1:]:
                total += column
        nabla_live = total != 0.0
        nabla = np.flatnonzero(nabla_live)
        # a term theta^{im} nabla_m theta^{jk} of D^{ijk} is live where theta^{im}
        # is not a structural zero and nabla_m theta^{jk} is live;
        # [theta, theta]^{ijk} is live where a D it adds has a live term
        d_live = ~zero[layout.directional_left] & nabla_live[layout.directional_comp]
        bracket = np.flatnonzero(d_live.any(axis=1)[layout.cyclic].any(axis=0))
        d = np.unique(layout.cyclic[:, bracket])
        self.components = (nabla, d, bracket)
        self.nabla = _Terms(live[nabla], self.columns[left[nabla]], self.columns[right[nabla]])
        self.directional = _Terms(d_live[d], self.columns[layout.directional_left[d]],
                                  np.searchsorted(nabla, layout.directional_comp[d]))
        self.cyclic = np.searchsorted(d, layout.cyclic[:, bracket])

    def contract(self, jet: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """nabla theta, D and the cyclic [theta, theta], each (samples, its
        `components`), from (samples, columns) tables of the plan's values or
        scales: the theta and d theta factors read `jet`, the rest `table`."""
        nabla = self.nabla(jet, table)
        d = self.directional(jet, nabla)
        first, second, third = (d[:, ids] for ids in self.cyclic)
        return nabla, d, 2.0 * (first + second + third)

    @cached_property
    def commutators(self) -> _Terms:
        layout, zero = _layout(self.n), self.zero
        left, right = layout.commutator_left, layout.commutator_right
        live = ~zero[left] & ~zero[right]
        # a negated product reads theta past the plan's columns (`Jets.commutators`)
        negated = len(self.plan.roots) * layout.commutator_negated
        return _Terms(live, self.columns[left] + negated, self.columns[right])

    @cached_property
    def quadratic(self) -> _Terms:
        """Gamma^k_{ij} v^i v^j (states, k) from the plan's values, v and v:
        the sum `np.einsum` forms, of (Gamma v^i) v^j over (i, j) in order."""
        layout = _layout(self.n)
        gamma = layout.gamma.reshape(self.n, -1)
        return _Terms(~self.zero[gamma], self.columns[gamma], layout.pair_i, layout.pair_j)

    @cached_property
    def cubic(self) -> _Terms:
        """p_i p_j [theta, theta]^{ijk} (states, k) from p, p and the
        contracted [theta, theta]: the sum `np.einsum` forms, of (p_i p_j)
        [theta, theta]^{ijk} over (i, j) in order, with the components that
        are 0 left out."""
        layout, bracket = _layout(self.n), self.components[2]
        live = np.zeros(self.n**3, bool)
        live[bracket] = True
        return _Terms(live[layout.cubic], layout.pair_i, layout.pair_j, np.searchsorted(bracket, layout.cubic))


class Jets:
    """The jet plan's table at some samples, and what the sampled verdicts
    contract from it.

    `values` and `scales` (samples, columns) are `Plan.table` of the jet
    plan; a scale is the largest |subterm| of its leaf there.  `contracted`
    holds each of `QUANTITIES` over its live components (`_JetPlan.contract`),
    each summed one term at a time in the order the symbolic builder sums
    it, so its values equal the tree's, up to the sign of a zero, and its
    scale is the same live-term sum taken over the leaf scales.
    """

    def __init__(self, samples: np.ndarray, plan: _JetPlan, values: np.ndarray, scales: np.ndarray):
        self.samples, self._plan = samples, plan
        self.values, self.scales = values, scales

    @classmethod
    def of(cls, plan: _JetPlan, samples: np.ndarray) -> Jets:
        return cls(samples, plan, *plan.plan.table(samples))

    @cached_property
    def theta(self) -> np.ndarray:
        """theta's values, (samples, i, j)."""
        n = self._plan.n
        return self.values[:, self._plan.columns[: n * n]].reshape(-1, n, n)

    @cached_property
    def contracted(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """{quantity: (value, scale)}, each (samples, live components).  A
        product that overflows reads inf, as in the trees."""
        with np.errstate(all="ignore"):
            return dict(zip(QUANTITIES, zip(*(self._plan.contract(t, t) for t in (self.values, self.scales)))))

    def residual(self, quantity: str) -> float:
        """max |v| / (1 + scale) of a contraction, or inf wherever a value is
        not finite, as `Plan.residual` reads.

        Where a scale overflows while every theta and d theta scale is
        finite, it is summed again with its theta and d theta factors read
        from the scales times 2^-e, which brings the largest below 1: the
        contraction is of degree d in them, so the sum is 2^-de times the
        scale, and the residual is |v| / scale from the mantissas and
        exponents of both (1 is below the scale's last bit).  A scale still
        not finite (a term may read a Gamma whose scale is inf), or lost to
        underflow, reads inf.
        """
        value, scale = self.contracted[quantity]
        if not np.isfinite(value).all():
            return math.inf
        over = ~np.isfinite(scale)
        if not over.any():
            return float((np.abs(value) / (1.0 + scale)).max(initial=0.0))
        n = self._plan.n
        jet = self.scales[:, self._plan.columns[: n * n + n**3]]
        if not np.isfinite(jet).all():
            return math.inf
        res = np.abs(value)
        res[~over] /= 1.0 + scale[~over]
        e = int(np.frexp(jet.max())[1])
        with np.errstate(all="ignore"):
            lower = self._plan.contract(np.ldexp(self.scales, -e), self.scales)[QUANTITIES.index(quantity)][over]
        if not (np.isfinite(lower).all() and (lower > 0.0).all()):
            return math.inf
        (mv, ev), (ms, es) = np.frexp(res[over]), np.frexp(lower)
        res[over] = np.ldexp(mv / ms, ev - es - (e if quantity == "nabla_theta" else 2 * e))
        return float(res.max())

    @cached_property
    def commutators(self) -> np.ndarray:
        """[theta(dx^i), theta(dx^j)]^k = theta^{im} d_m theta^{jk} - theta^{jm} d_m theta^{ik}
        for each i < j in order: (samples, pairs, k)."""
        s, n = len(self.samples), self._plan.n
        with np.errstate(all="ignore"):
            return self._plan.commutators(np.hstack([self.values, -self.values]), self.values).reshape(s, -1, n)


# ---------------------------------------------------------------------------
# bracket and gradient
# ---------------------------------------------------------------------------

def poisson_bracket(pair: SymPoissonPair, f: ScalarField, g: ScalarField) -> ScalarField:
    """{f, g} = dg(X_f) = theta(df, dg); symmetric and Leibniz in each slot."""
    return contract(differential(g, pair.chart), gradient(pair, f)).scalar()


def gradient(pair: SymPoissonPair, f: ScalarField) -> SymTensorField:
    """X_f = theta(df): contraction of df into the first slot."""
    return contract(differential(f, pair.chart), pair.theta)


# ---------------------------------------------------------------------------
# integrability
# ---------------------------------------------------------------------------

def schouten_self(pair: SymPoissonPair) -> SymTensorField:
    """[theta, theta] as a degree-3 field by the trace formula, built anew on
    each call: the symbolic route the jet contractions are checked against."""
    return schouten(pair.nabla, pair.theta, pair.theta)


def _jet_residual(pair: SymPoissonPair, samples, quantity: str) -> float:
    return pair.jets(samples).residual(quantity)


def is_symmetric_poisson(pair: SymPoissonPair) -> bool:
    return symmetric_poisson_residual(pair) <= TOL


def symmetric_poisson_residual(pair: SymPoissonPair, samples=None) -> float:
    """Worst scaled residual of the cyclic [theta, theta] = 2 (D^{ijk} + cyclic),
    D^{ijk} = theta^{im} nabla_m theta^{jk}, contracted from the jet table.

    The scale of each component is the same contraction over the leaves'
    scales.  A value or scale that is not finite reads inf; a jet leaf that
    fails, even one only `parallel_residual` multiplies in, raises its
    located EvalDomainError.
    """
    return _jet_residual(pair, samples, "schouten")


def is_strong(pair: SymPoissonPair) -> bool:
    return strong_residual(pair) <= TOL


def strong_residual(pair: SymPoissonPair, samples=None) -> float:
    """Worst scaled residual of nabla_{theta(dx^i)} theta = theta^{im} nabla_m theta
    over the covector basis, contracted from the jet table.

    Tensoriality in the covector slot makes the basis sufficient.  The
    scale, inf and errors are as in `symmetric_poisson_residual`.
    """
    return _jet_residual(pair, samples, "directional")


def is_parallel(pair: SymPoissonPair) -> bool:
    return parallel_residual(pair) <= TOL


def parallel_residual(pair: SymPoissonPair, samples=None) -> float:
    """Worst scaled residual of nabla_m theta^{ij} = d_m theta^{ij} + Gamma^i_{mk}
    theta^{kj} + Gamma^j_{mk} theta^{ik}, contracted from the jet table.

    The scale, inf and errors are as in `symmetric_poisson_residual`.
    """
    return _jet_residual(pair, samples, "nabla_theta")


# ---------------------------------------------------------------------------
# pointwise characteristic data
# ---------------------------------------------------------------------------

@dataclass
class CharacteristicData:
    """Pointwise image of theta with the induced metric on it.

    The basis columns are orthonormal eigenvectors of theta(point) with
    eigenvalue magnitude above the rank threshold; the induced metric takes
    the Gram matrix diag(1/lambda_i) on that basis.
    """

    point: tuple
    rank: int
    signature: tuple[int, int]
    eigenvalues: np.ndarray
    basis: np.ndarray  # n x rank, orthonormal columns
    metric_gram: np.ndarray  # rank x rank

    def _one(self, routine, v) -> float:
        # this point as a stack of one whose kept columns are the basis
        keep = np.ones((1, self.rank), bool)
        return float(routine(self.basis[None], keep, np.asarray(v, dtype=float)[None, None])[0, 0])

    def project_residual(self, v: np.ndarray) -> float:
        """Distance from v to im theta (least squares onto the basis)."""
        return self._one(_distances, v)

    def membership_residual(self, v: np.ndarray) -> float:
        """project_residual(v) / (1 + |v|), or inf where that is not finite."""
        return self._one(_membership, v)

    def contains(self, v: np.ndarray) -> bool:
        return self.membership_residual(v) <= RANK_TOL

    def metric_value(self, u: np.ndarray, v: np.ndarray) -> float:
        """Induced metric evaluated on two vectors of im theta."""
        cu = self.basis.T @ u
        cv = self.basis.T @ v
        return float(cu @ self.metric_gram @ cv)

    def rebuild_theta(self) -> np.ndarray:
        """Reconstruct theta(point) from (im theta, metric): unique by construction."""
        if self.rank == 0:
            n = self.basis.shape[0]
            return np.zeros((n, n))
        gram_inv = np.diag(1.0 / np.diag(self.metric_gram))
        return self.basis @ gram_inv @ self.basis.T


def characteristic_data(theta: SymTensorField, point) -> CharacteristicData:
    """Rank, signature, and the induced metric of theta at a point.

    Eigen-restricted inversion: eigenvalues below the threshold count as zero,
    the rest are inverted to produce the Gram matrix of the induced metric.
    A theta or an eigenvalue that is not finite raises EvalDomainError.
    """
    lam, vecs, keep = _spectra(theta, [point], theta.evaluate(point)[None])
    lam_kept = lam[0][keep[0]]
    rank, pos = len(lam_kept), int((lam_kept > 0).sum())
    gram = np.diag(1.0 / lam_kept) if rank else np.zeros((0, 0))
    where = tuple(float(v) for v in point)
    return CharacteristicData(where, rank, (pos, rank - pos), lam_kept, vecs[0][:, keep[0]], gram)


def _require_finite(what: str, field, points, values: np.ndarray):
    """Raise EvalDomainError, naming the component, at the first of the points
    at which the field's values there (points, *comps.shape) are not finite."""
    bad = np.flatnonzero(~np.isfinite(values.reshape(len(values), -1)).all(axis=1))
    if len(bad):
        entry = np.flatnonzero(~np.isfinite(values[bad[0]]))[0]
        where = tuple(float(v) for v in points[bad[0]])
        raise ex.EvalDomainError(f"{what} is not finite at {where}", field.comps.flat[entry])


def _spectra(theta: SymTensorField, points, matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam, vecs, keep): one symmetrize / eigh / threshold over the values of
    theta at the points (samples, n, n).  vecs[s][:, keep[s]] is an
    orthonormal basis of im theta at points[s], and keep.sum(axis=1) the ranks.

    A matrix or an eigenvalue that is not finite raises EvalDomainError at
    the first such point.
    """
    _require_finite("theta", theta, points, matrices)
    # symmetrize away representation roundoff; halving first cannot overflow
    lam, vecs = np.linalg.eigh(0.5 * matrices + 0.5 * np.swapaxes(matrices, 1, 2))
    bad = np.flatnonzero(~np.isfinite(lam).all(axis=1))
    if len(bad):
        where = tuple(float(v) for v in points[bad[0]])
        raise ex.EvalDomainError(f"the eigenvalues of theta overflow at {where}", "theta")
    keep = np.abs(lam) > RANK_TOL * (np.abs(lam).max(axis=1, keepdims=True) + 1.0)
    return lam, vecs, keep


def _norms(d: np.ndarray) -> np.ndarray:
    """|d| over the last axis, by the dot kernel that np.linalg.norm uses."""
    return np.sqrt(np.matmul(d[..., None, :], d[..., :, None]))[..., 0, 0]


def _distances(vecs: np.ndarray, keep: np.ndarray, table: np.ndarray) -> np.ndarray:
    """|v - B B^T v| for every vector v of the table (samples, m, n), where
    B = vecs[s][:, keep[s]] at v's sample: (samples, m).

    Samples are grouped by rank, and each group takes one batched matmul for
    B^T v and one for B (B^T v); a rank-0 group reads |v|.  Each B is laid
    out in memory as the one-point slice vecs[s][:, keep[s]] is, column by
    column, so each product runs the BLAS kernel of the one-point
    `B.T @ v` and every value equals it bit for bit.
    """
    ranks = keep.sum(axis=1)
    out = np.empty(table.shape[:2])
    for k in np.unique(ranks):
        group = np.flatnonzero(ranks == k)
        d = table[group]
        if k:
            columns = np.swapaxes(vecs[group], 1, 2)[keep[group]].reshape(len(group), k, -1)
            basis = np.swapaxes(columns, 1, 2)[:, None]
            d = d - np.matmul(basis, np.matmul(np.swapaxes(basis, 2, 3), d[..., None]))[..., 0]
        out[group] = _norms(d)
    return out


def _membership(vecs: np.ndarray, keep: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The scaled residual |v - B B^T v| / (1 + |v|) of every vector of the
    table against im theta at its sample (see `_distances`): (samples, m).
    A value that is not finite reads inf.
    """
    with np.errstate(all="ignore"):
        res = _distances(vecs, keep, table) / (1.0 + _norms(table))
    res[~np.isfinite(res)] = math.inf
    return res


class Involutivity(enum.Enum):
    INVOLUTIVE_ON_SAMPLES = "involutive_on_samples"
    NOT_INVOLUTIVE = "not_involutive"
    INCONCLUSIVE = "inconclusive"


@dataclass
class InvolutivityReport:
    verdict: Involutivity
    max_residual: float
    ranks: tuple[int, ...]


def involutivity_check(pair: SymPoissonPair, samples=None) -> InvolutivityReport:
    """Pointwise test whether [theta(dx^i), theta(dx^j)] stays in im theta,
    up to a distance of RANK_TOL (1 + |commutator|).

    theta and the commutators theta^{im} d_m theta^{jk} - theta^{jm} d_m
    theta^{ik} are read from the jet table, which has raised the first
    failing sample's located error wherever a leaf fails.  A value that is
    not finite (a product that overflows) raises EvalDomainError: theta's
    names its component, a commutator's its pair (i, j), component k and
    first sample.  A rank jump across samples downgrades a positive answer
    to inconclusive; a failed membership is conclusive either way.
    """
    jets = pair.jets(samples)
    theta, table = jets.theta, jets.commutators
    _, vecs, keep = _spectra(pair.theta, jets.samples, theta)
    if not np.isfinite(table).all():
        c, s, k = np.argwhere(~np.isfinite(table.transpose(1, 0, 2)))[0]
        i, j = _layout(pair.chart.n).above_diagonal[:, c]
        names, where = pair.chart.names, tuple(float(v) for v in jets.samples[s])
        raise ex.EvalDomainError(
            f"a commutator is not finite at {where}", f"[theta(d{names[i]}), theta(d{names[j]})]^{names[k]}"
        )
    return _involutivity_report(vecs, keep, table)


def _involutivity_report(vecs: np.ndarray, keep: np.ndarray, table: np.ndarray) -> InvolutivityReport:
    ranks = tuple(keep.sum(axis=1).tolist())
    worst = float(_membership(vecs, keep, table).max(initial=0.0))
    if worst > RANK_TOL:
        verdict = Involutivity.NOT_INVOLUTIVE
    elif len(set(ranks)) > 1:
        verdict = Involutivity.INCONCLUSIVE
    else:
        verdict = Involutivity.INVOLUTIVE_ON_SAMPLES
    return InvolutivityReport(verdict, worst, ranks)


def characteristic_generators(pair: SymPoissonPair) -> list[SymTensorField]:
    """theta(dx^i) for each coordinate covector (spanning the module): the
    rows of theta, sharing its nodes."""
    return [SymTensorField(pair.chart, 1, geo._slot_fill(pair.theta.comps, i)) for i in range(pair.chart.n)]


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------

def jacobiator_identity_check(
    pair: SymPoissonPair, f: ScalarField, g: ScalarField, h: ScalarField
) -> ScalarField:
    """Jac(f,g,h) - [dh(<X_f,X_g>) + cyclic]; vanishes for symmetric Poisson pairs."""
    jac = (
        poisson_bracket(pair, f, poisson_bracket(pair, g, h))
        + poisson_bracket(pair, g, poisson_bracket(pair, h, f))
        + poisson_bracket(pair, h, poisson_bracket(pair, f, g))
    )
    rhs = (
        _pair_df_bracket(pair, h, f, g)
        + _pair_df_bracket(pair, f, g, h)
        + _pair_df_bracket(pair, g, h, f)
    )
    return jac - rhs


def _pair_df_bracket(pair, w, u, v) -> ScalarField:
    """dw(<X_u, X_v>)."""
    bracket = symmetric_bracket(pair.nabla, gradient(pair, u), gradient(pair, v))
    out = contract(differential(w, pair.chart), bracket)
    return out.scalar()


def strong_morphism_check(
    pair: SymPoissonPair, f: ScalarField, g: ScalarField
) -> SymTensorField:
    """X_{{f,g}} - <X_f, X_g>; vanishes exactly when the gradient map is a morphism."""
    lhs = gradient(pair, poisson_bracket(pair, f, g))
    rhs = symmetric_bracket(pair.nabla, gradient(pair, f), gradient(pair, g))
    return lhs - rhs


# ---------------------------------------------------------------------------
# curvature scalars
# ---------------------------------------------------------------------------

def _theta_trace(pair: SymPoissonPair, m: np.ndarray) -> ScalarField:
    """theta^{ij} m_{ij} for an (n, n) array of covariant components."""
    n = pair.chart.n
    return ScalarField(ex.expr_sum([ex.mul(pair.theta.comps[i, j], m[i, j]) for i in range(n) for j in range(n)]), n)


def scalar_curvature(pair: SymPoissonPair) -> ScalarField:
    """tr(theta x Ric) = theta^{ij} Ric_{ij}."""
    return _theta_trace(pair, ricci(pair.nabla))


def laplacian(pair: SymPoissonPair, f: ScalarField) -> ScalarField:
    """tr(theta x nabla df) = theta^{ij} (d_i d_j f - G^k_{ij} d_k f)."""
    return _theta_trace(pair, covariant_derivative(pair.nabla, differential(f, pair.chart)).comps)


# ---------------------------------------------------------------------------
# dimension one
# ---------------------------------------------------------------------------

def one_dim_residual(pair: SymPoissonPair) -> ScalarField:
    """On the line the integrability condition is (1/2)(f^2)' + 2 f^2 h = 0,

    where theta = f d/dx x d/dx and nabla_{d/dx} d/dx = h d/dx.
    """
    if pair.chart.n != 1:
        raise PoissonError("one_dim_residual needs a 1-dimensional chart")
    f = pair.theta.entry(0, 0)
    h = pair.nabla.entry(0, 0, 0)
    fsq = f * f
    return fsq.diff(0) * 0.5 + fsq * h * 2.0


def one_dim_poisson_family(lam: float, h: ScalarField, h_primitive: ScalarField) -> SymPoissonPair:
    """The full solution family on the line: f^2 = lam * exp(-4 H), H' = h.

    Returns the pair (f d/dx x d/dx, nabla with nabla d/dx = h d/dx), which is
    always (strongly) symmetric Poisson.  lam must be nonnegative; lam = 0
    gives the zero structure.
    """
    if lam < 0:
        raise PoissonError("lam must be nonnegative for a real field")
    chart = Chart(["x"])
    f_expr = ex.mul(
        ex.const(math.sqrt(lam)),
        ex.call("exp", ex.mul(ex.const(-2.0), h_primitive.expr)),
    )
    theta = SymTensorField.from_dict(chart, 2, {(0, 0): ScalarField(f_expr, 1)})
    nabla = Connection.from_dict(chart, {(0, 0, 0): h})
    return SymPoissonPair(theta, nabla)


# ---------------------------------------------------------------------------
# verdict surface used by the CLI
# ---------------------------------------------------------------------------

# the four sampled verdicts, in the order a report prints them
VERDICTS = ("symmetric_poisson", "strong", "parallel", "involutive")


@dataclass
class VerdictSuite:
    """Verdicts of a pair; those not asked for are None.  `residuals` holds
    the computed ones, in the order they were asked for."""

    symmetric_poisson: bool | None = None
    strong: bool | None = None
    parallel: bool | None = None
    involutive: Involutivity | None = None
    residuals: dict = field(default_factory=dict)


def verdict_suite(
    pair: SymPoissonPair, tol: float = TOL, samples=None, verdicts=VERDICTS
) -> VerdictSuite:
    """Compute the named verdicts (a subsequence of VERDICTS) on the samples."""
    got = {}
    residuals = {}
    for name in verdicts:
        if name == "involutive":
            inv = involutivity_check(pair, samples=samples)
            got[name], residuals[name] = inv.verdict, inv.max_residual
        else:
            residual = {
                "symmetric_poisson": symmetric_poisson_residual,
                "strong": strong_residual,
                "parallel": parallel_residual,
            }[name](pair, samples)
            got[name], residuals[name] = residual <= tol, residual
    return VerdictSuite(**got, residuals=residuals)
