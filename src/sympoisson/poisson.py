"""Symmetric Poisson pairs: brackets, gradients, integrability verdicts,
and characteristic distribution/metric analysis.

A pair couples a symmetric bivector field theta with a torsion-free
connection.  The three verdicts form a hierarchy:

    parallel  =>  strong  =>  symmetric Poisson,

with strong additionally implying an involutive characteristic module.
All verdicts are sampled identity checks on the chart's sample box.

Every condition is built from theta, its first derivatives and the
Christoffel symbols, so the sampled verdicts read one table of those
values, the pair's `Jets`, and contract numbers instead of building trees:
nabla theta, theta^{im} nabla_m theta, the cyclic [theta, theta] and the
commutators of the module generators.  Each contraction sums the terms a
symbolic tree would, in the tree's order, so its values equal the tree's.
A residual is max |v| / (1 + scale), where the scale is the same
contraction taken over the leaves' scales (a running error bound of a sum
of products).  Where a leaf or a contracted value or scale is not finite,
the symbolic route (`schouten_self_cyclic`, `pair.directional`,
`pair.nabla_theta` and the `lie_bracket` commutators) runs instead: it
raises the located EvalDomainError, or reads inf.
"""

from __future__ import annotations

import enum
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
    lie_bracket,
    ricci,
    schouten,
    symmetric_bracket,
)


class PoissonError(Exception):
    pass


@dataclass(frozen=True)
class SymPoissonPair:
    """A symmetric bivector field together with a torsion-free connection.

    nabla theta, theta^{im} nabla_m theta and [theta, theta] are built once,
    on first use, and so is the table of `jets` at each sample set."""

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
    def nabla_theta(self) -> geo.MixedDerivative:
        return covariant_derivative(self.nabla, self.theta)

    @cached_property
    def directional(self) -> geo.MixedDerivative:
        """comps[i] = nabla_{theta(dx^i)} theta = theta^{im} nabla_m theta."""
        rows = [geo._contract_first_slot(row, self.nabla_theta.comps) for row in self.theta.comps]
        return geo.MixedDerivative(self.chart, SymTensorField, 2, np.stack(rows))

    @cached_property
    def schouten_self(self) -> SymTensorField:
        """[theta, theta] by the trace formula."""
        return schouten(self.nabla, self.theta, self.theta)

    @cached_property
    def _jet_plan(self) -> tuple[ex.Plan, np.ndarray]:
        """A plan of the distinct nodes among theta^{ij}, d_m theta^{ij} in (m, i, j)
        order and Gamma^k_{ij}, and the plan's column of each of those leaves."""
        t, n = self.theta.comps, self.chart.n
        leaves = [*t.flat, *(t[i, j].diff(m) for m in range(n) for i in range(n) for j in range(n)),
                  *self.nabla.gamma.flat]
        distinct = {id(e): e for e in leaves}
        column = {key: c for c, key in enumerate(distinct)}
        return ex.Plan(distinct.values()), np.array([column[id(e)] for e in leaves])

    @cached_property
    def _jet_tables(self) -> dict:
        return {}

    def jets(self, samples=None) -> Jets | None:
        """theta, d theta and Gamma at the samples (default: the chart's), from
        one `Plan.table` per sample set, kept on the pair; None where the
        table raises or a value or scale of it is not finite."""
        if samples is None:
            samples = self.chart.sample_points()
        geo._require_points(self.chart, samples, 2)
        pts = np.asarray(samples, dtype=float)
        key = (pts.shape, pts.tobytes())
        if key not in self._jet_tables:
            self._jet_tables[key] = Jets.of(*self._jet_plan, pts)
        return self._jet_tables[key]


class Jets:
    """theta, d theta and Gamma at some samples, and what the sampled verdicts
    contract from them.

    `theta` (samples, i, j), `dtheta` (samples, m, i, j) = d_m theta^{ij}
    and `gamma` (samples, k, i, j) = Gamma^k_{ij} are (value, scale) pairs of
    the jet table: a scale is the largest |subterm| of its leaf there.  Each
    contraction below adds its terms one at a time in the order the symbolic
    builder sums them, so its values equal the tree's, up to the sign of a
    zero; its scale is the sum of the terms' scale products.
    """

    def __init__(self, samples: np.ndarray, theta, dtheta, gamma):
        self.samples = samples
        self.theta, self.dtheta, self.gamma = theta, dtheta, gamma

    @classmethod
    def of(cls, plan: ex.Plan, columns: np.ndarray, samples: np.ndarray) -> Jets | None:
        try:
            values, scales = (table[:, columns] for table in plan.table(samples))
        except ex.EvalDomainError:
            return None
        if not (np.isfinite(values).all() and np.isfinite(scales).all()):
            return None
        s, n = samples.shape

        def split(table):
            return (table[:, : n * n].reshape(s, n, n), table[:, n * n : n * n + n**3].reshape(s, n, n, n),
                    table[:, n * n + n**3 :].reshape(s, n, n, n))

        return cls(samples, *zip(split(values), split(scales)))

    @cached_property
    def nabla_theta(self) -> tuple[np.ndarray, np.ndarray]:
        """nabla_m theta^{ij} = d_m theta^{ij} + Gamma^i_{mk} theta^{kj} + Gamma^j_{mk} theta^{ik}: (samples, m, i, j)."""
        (t, st), (d, sd), (g, sg) = self.theta, self.dtheta, self.gamma
        s, n = t.shape[:2]
        # [k, s, m, i] = Gamma^i_{mk}; a k whose Gamma are all zero adds only zeros
        g = g.transpose(3, 0, 2, 1)
        live = np.flatnonzero(g.any(axis=(1, 2, 3)))
        g = g[live]
        with np.errstate(all="ignore"):
            first = g[..., None] * t.transpose(1, 0, 2)[live, :, None, None, :]
            second = g[:, :, :, None, :] * t.transpose(2, 0, 1)[live, :, None, :, None]
            v = _fold(np.concatenate([d[None], first, second]))
            first = np.matmul(sg.transpose(0, 2, 1, 3).reshape(s, n * n, n), st).reshape(s, n, n, n)
            scale = sd + first + np.swapaxes(first, 2, 3)
        # the tree of (i, j) with i <= j is stored at (j, i) too
        i, j = _above_diagonal(n)
        v[:, :, j, i] = v[:, :, i, j]
        return v, scale

    @cached_property
    def directional(self) -> tuple[np.ndarray, np.ndarray]:
        """D^{ijk} = theta^{im} nabla_m theta^{jk}: (samples, i, j, k)."""
        (t, st), (nt, snt) = self.theta, self.nabla_theta
        s, n = t.shape[:2]
        with np.errstate(all="ignore"):
            v = _fold(t.transpose(2, 0, 1)[..., None, None] * nt.transpose(1, 0, 2, 3)[:, :, None])
            return v, np.matmul(st, snt.reshape(s, n, n * n)).reshape(s, n, n, n)

    @cached_property
    def schouten(self) -> tuple[np.ndarray, np.ndarray]:
        """[theta, theta]^{ijk} = 2 (D^{ijk} + D^{jki} + D^{kij}): (samples, i, j, k)."""
        with np.errstate(all="ignore"):
            return tuple(2.0 * (a + a.transpose(0, 3, 1, 2) + a.transpose(0, 2, 3, 1)) for a in self.directional)

    @cached_property
    def commutators(self) -> np.ndarray:
        """[theta(dx^i), theta(dx^j)]^k = theta^{im} d_m theta^{jk} - theta^{jm} d_m theta^{ik}
        for each i < j in order: (samples, pairs, k)."""
        (t, _), (d, _) = self.theta, self.dtheta
        s, n = t.shape[:2]
        i, j = _above_diagonal(n)
        with np.errstate(all="ignore"):
            plus = t[:, i].transpose(2, 0, 1)[..., None] * d[:, :, j].transpose(1, 0, 2, 3)
            minus = t[:, j].transpose(2, 0, 1)[..., None] * d[:, :, i].transpose(1, 0, 2, 3)
            # the tree adds X^m d_m Y^k, then -(Y^m d_m X^k), for each m in turn
            return _fold(np.stack([plus, -minus], axis=1).reshape((2 * n, s, len(i), n)))


@cache
def _above_diagonal(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (i, j) with i < j, in row order; read-only, as every caller shares them."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _fold(terms: np.ndarray) -> np.ndarray:
    """((t0 + t1) + t2) + ... over the first axis, one term at a time, in the
    order `expr.expr_sum` adds a tree's terms."""
    out = terms[0].copy()
    for term in terms[1:]:
        out += term
    return out


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
    """[theta, theta] as a degree-3 field (trace-formula route), built once per pair."""
    return pair.schouten_self


def schouten_self_cyclic(pair: SymPoissonPair) -> SymTensorField:
    """[theta, theta] assembled from the cyclic identity

        1/2 [theta, theta](a, b, c) = (nabla_{theta(a)} theta)(b, c) + cyclic.
    """
    d = pair.directional.comps
    two = ex.const(2.0)

    def build(idx):
        i, j, k = idx
        return ex.mul(two, ex.expr_sum([d[i, j, k], d[j, k, i], d[k, i, j]]))

    return SymTensorField(pair.chart, 3, geo._build_components(pair.chart.n, 3, build, fixed=3))


def _jet_residual(pair: SymPoissonPair, samples, quantity: str, tree) -> float:
    """max |v| / (1 + scale) of a contraction of the jet table; where that
    is not finite, the residual of the symbolic field `tree()` instead."""
    jets = pair.jets(samples)
    if jets is not None:
        value, scale = getattr(jets, quantity)
        if np.isfinite(value).all() and np.isfinite(scale).all():
            return float((np.abs(value) / (1.0 + scale)).max(initial=0.0))
    return tree().residual_on(samples)


def is_symmetric_poisson(pair: SymPoissonPair) -> bool:
    return symmetric_poisson_residual(pair) <= TOL


def symmetric_poisson_residual(pair: SymPoissonPair, samples=None) -> float:
    """Worst scaled residual of the cyclic [theta, theta] = 2 (D^{ijk} + cyclic),
    D^{ijk} = theta^{im} nabla_m theta^{jk}, contracted from the jet table.

    The scale of each component is the same contraction over the leaves'
    scales.  Where a value or scale is not finite, `schouten_self_cyclic`
    is evaluated instead: it raises the located EvalDomainError, or reads inf.
    """
    return _jet_residual(pair, samples, "schouten", lambda: schouten_self_cyclic(pair))


def is_strong(pair: SymPoissonPair) -> bool:
    return strong_residual(pair) <= TOL


def strong_residual(pair: SymPoissonPair, samples=None) -> float:
    """Worst scaled residual of nabla_{theta(dx^i)} theta = theta^{im} nabla_m theta
    over the covector basis, contracted from the jet table.

    Tensoriality in the covector slot makes the basis sufficient.  The
    scale and the route where a value is not finite (`pair.directional`)
    are as in `symmetric_poisson_residual`.
    """
    return _jet_residual(pair, samples, "directional", lambda: pair.directional)


def is_parallel(pair: SymPoissonPair) -> bool:
    return parallel_residual(pair) <= TOL


def parallel_residual(pair: SymPoissonPair, samples=None) -> float:
    """Worst scaled residual of nabla_m theta^{ij} = d_m theta^{ij} + Gamma^i_{mk}
    theta^{kj} + Gamma^j_{mk} theta^{ik}, contracted from the jet table.

    The scale and the route where a value is not finite (`pair.nabla_theta`)
    are as in `symmetric_poisson_residual`.
    """
    return _jet_residual(pair, samples, "nabla_theta", lambda: pair.nabla_theta)


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
    theta^{ik} are read from the jet table.  Where a commutator there is not
    finite, the `lie_bracket` commutators are evaluated instead, and one that
    is not finite at a sample (an overflow) raises EvalDomainError, like
    theta.  A rank jump across samples downgrades a positive answer to
    inconclusive; a failed membership is conclusive either way.
    """
    jets = pair.jets(samples)
    if jets is not None:
        table = jets.commutators
        if np.isfinite(table).all():
            _, vecs, keep = _spectra(pair.theta, jets.samples, jets.theta[0])
            return _involutivity_report(vecs, keep, table)
    n = pair.chart.n
    if samples is None:
        samples = pair.chart.sample_points()
    fields = characteristic_generators(pair)
    commutators = [lie_bracket(fields[i], fields[j]) for i in range(n) for j in range(i + 1, n)]
    _, vecs, keep = _spectra(pair.theta, samples, pair.theta.evaluate_on(samples))
    return _involutivity_report(vecs, keep, _commutator_table(commutators, samples, n))


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


def _commutator_table(commutators: list[SymTensorField], samples, n: int) -> np.ndarray:
    """The vector fields' values at every sample from one plan: (samples, m, n).

    The values are `Plan.rows`, so the first sample at which the point path
    raises raises its error here; a value that is still not finite raises
    EvalDomainError naming its field's component.
    """
    plan = ex.Plan(e for comm in commutators for e in comm.comps)
    table = plan.rows(samples).reshape(len(samples), len(commutators), n)
    if not np.isfinite(table).all():
        for c, comm in enumerate(commutators):
            _require_finite("a commutator", comm, samples, table[:, c])
    return table


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
