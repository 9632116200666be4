"""Symmetric Poisson pairs: brackets, gradients, integrability verdicts,
and characteristic distribution/metric analysis.

A pair couples a symmetric bivector field theta with a torsion-free
connection.  The three verdicts form a hierarchy:

    parallel  =>  strong  =>  symmetric Poisson,

with strong additionally implying an involutive characteristic module.
All verdicts are sampled identity checks on the chart's sample box.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import geometry as geo
from .defaults import RANK_TOL, TOL
from .expr import ScalarField
from .geometry import (
    Chart,
    Connection,
    SymFormField,
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
    """A symmetric bivector field together with a torsion-free connection."""

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

    def theta_matrix(self, point) -> np.ndarray:
        return self.theta.evaluate(point)


# ---------------------------------------------------------------------------
# bracket and gradient
# ---------------------------------------------------------------------------

def poisson_bracket(pair: SymPoissonPair, f: ScalarField, g: ScalarField) -> ScalarField:
    """{f, g} = theta(df, dg); symmetric and Leibniz in each slot."""
    chart = pair.chart
    n = chart.n
    terms = []
    for i in range(n):
        for j in range(n):
            terms.append(
                ex.expr_product([pair.theta.comps[i, j], f.diff(i).expr, g.diff(j).expr])
            )
    return ScalarField(ex.expr_sum(terms), n)


def gradient(pair: SymPoissonPair, f: ScalarField) -> SymTensorField:
    """X_f = theta(df): contraction of df into the first slot."""
    return contract(differential(f, pair.chart), pair.theta)


# ---------------------------------------------------------------------------
# integrability
# ---------------------------------------------------------------------------

def schouten_self(pair: SymPoissonPair) -> SymTensorField:
    """[theta, theta] as a degree-3 field (trace-formula route)."""
    return schouten(pair.nabla, pair.theta, pair.theta)


def schouten_self_cyclic(pair: SymPoissonPair) -> SymTensorField:
    """[theta, theta] assembled from the cyclic identity

        1/2 [theta, theta](a, b, c) = (nabla_{theta(a)} theta)(b, c) + cyclic.
    """
    chart = pair.chart
    n = chart.n
    nabla_theta = covariant_derivative(pair.nabla, pair.theta)
    # D[i] = nabla_{theta(dx^i)} theta = theta^{im} nabla_m theta
    d = []
    for i in range(n):
        comps = np.empty((n, n), dtype=object)
        for idx in np.ndindex(n, n):
            comps[idx] = ex.expr_sum(
                [
                    ex.mul(pair.theta.comps[i, m], nabla_theta.comps[(m,) + idx])
                    for m in range(n)
                ]
            )
        d.append(comps)
    out = np.empty((n, n, n), dtype=object)
    two = ex.const(2.0)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                cyc = ex.expr_sum([d[i][j, k], d[j][k, i], d[k][i, j]])
                out[i, j, k] = ex.mul(two, cyc)
    return SymTensorField(chart, 3, out)


def is_symmetric_poisson(pair: SymPoissonPair, tol: float = TOL, samples=None) -> bool:
    return symmetric_poisson_residual(pair, samples) <= tol


def symmetric_poisson_residual(pair: SymPoissonPair, samples=None) -> float:
    return schouten_self_cyclic(pair).residual_on(samples)


def is_strong(pair: SymPoissonPair, tol: float = TOL, samples=None) -> bool:
    return strong_residual(pair, samples) <= tol


def strong_residual(pair: SymPoissonPair, samples=None) -> float:
    """Worst residual of nabla_{theta(dx^i)} theta over the covector basis.

    Tensoriality in the covector slot makes the basis sufficient.
    """
    chart = pair.chart
    n = chart.n
    if samples is None:
        samples = chart.sample_points()
    nabla_theta = covariant_derivative(pair.nabla, pair.theta)
    components = [
        ex.expr_sum(
            [ex.mul(pair.theta.comps[i, m], nabla_theta.comps[(m,) + idx]) for m in range(n)]
        )
        for i in range(n)
        for idx in np.ndindex(n, n)
    ]
    return ex.residual(components, samples)


def is_parallel(pair: SymPoissonPair, tol: float = TOL, samples=None) -> bool:
    return parallel_residual(pair, samples) <= tol


def parallel_residual(pair: SymPoissonPair, samples=None) -> float:
    return covariant_derivative(pair.nabla, pair.theta).residual_on(samples)


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

    def project_residual(self, v: np.ndarray) -> float:
        """Distance from v to im theta (least squares onto the basis)."""
        if self.rank == 0:
            return float(np.linalg.norm(v))
        coeffs = self.basis.T @ v
        return float(np.linalg.norm(v - self.basis @ coeffs))

    def contains(self, v: np.ndarray, tol: float = RANK_TOL) -> bool:
        return self.project_residual(v) <= tol * (1.0 + float(np.linalg.norm(v)))

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


def characteristic_data(theta: SymTensorField, point, rank_tol: float = RANK_TOL) -> CharacteristicData:
    """Rank, signature, and the induced metric of theta at a point.

    Eigen-restricted inversion: eigenvalues below the threshold count as zero,
    the rest are inverted to produce the Gram matrix of the induced metric.
    """
    m = theta.evaluate(point)
    m = 0.5 * (m + m.T)  # symmetrize away representation roundoff
    lam, vecs = np.linalg.eigh(m)
    threshold = rank_tol * (np.abs(lam).max() + 1.0)
    keep = np.abs(lam) > threshold
    lam_kept = lam[keep]
    basis = vecs[:, keep]
    rank = int(keep.sum())
    pos = int((lam_kept > 0).sum())
    neg = rank - pos
    gram = np.diag(1.0 / lam_kept) if rank else np.zeros((0, 0))
    return CharacteristicData(
        point=tuple(float(v) for v in point),
        rank=rank,
        signature=(pos, neg),
        eigenvalues=lam_kept,
        basis=basis,
        metric_gram=gram,
    )


class Involutivity(enum.Enum):
    INVOLUTIVE_ON_SAMPLES = "involutive_on_samples"
    NOT_INVOLUTIVE = "not_involutive"
    INCONCLUSIVE = "inconclusive"


@dataclass
class InvolutivityReport:
    verdict: Involutivity
    max_residual: float
    ranks: tuple[int, ...]


def involutivity_check(
    pair: SymPoissonPair,
    tol: float = RANK_TOL,
    samples=None,
) -> InvolutivityReport:
    """Pointwise test whether [theta(dx^i), theta(dx^j)] stays in im theta.

    A rank jump across samples downgrades a positive answer to inconclusive;
    a failed membership is conclusive either way.
    """
    chart = pair.chart
    n = chart.n
    if samples is None:
        samples = chart.sample_points()
    fields = [contract(_basis_form(chart, i), pair.theta) for i in range(n)]
    commutators = {}
    for i in range(n):
        for j in range(i + 1, n):
            commutators[(i, j)] = lie_bracket(fields[i], fields[j])
    ranks = []
    worst = 0.0
    failed = False
    for p in samples:
        data = characteristic_data(pair.theta, p, tol)
        ranks.append(data.rank)
        for comm in commutators.values():
            v = comm.evaluate(p)
            res = data.project_residual(v) / (1.0 + float(np.linalg.norm(v)))
            if not math.isfinite(res):
                res = math.inf
            worst = max(worst, res)
            if res > tol:
                failed = True
    if failed:
        verdict = Involutivity.NOT_INVOLUTIVE
    elif len(set(ranks)) > 1:
        verdict = Involutivity.INCONCLUSIVE
    else:
        verdict = Involutivity.INVOLUTIVE_ON_SAMPLES
    return InvolutivityReport(verdict, worst, tuple(ranks))


def _basis_form(chart: Chart, i: int) -> SymFormField:
    return SymFormField.from_dict(chart, 1, {(i,): 1.0})


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

def scalar_curvature(pair: SymPoissonPair) -> ScalarField:
    """tr(theta x Ric) = theta^{ij} Ric_{ij}."""
    ric = ricci(pair.nabla)
    n = pair.chart.n
    terms = [
        ex.mul(pair.theta.comps[i, j], ric[i, j])
        for i in range(n)
        for j in range(n)
    ]
    return ScalarField(ex.expr_sum(terms), n)


def laplacian(pair: SymPoissonPair, f: ScalarField) -> ScalarField:
    """tr(theta x nabla df) = theta^{ij} (d_i d_j f - G^k_{ij} d_k f)."""
    chart = pair.chart
    n = chart.n
    terms = []
    for i in range(n):
        for j in range(n):
            hess = f.diff(i).diff(j).expr
            corr = ex.expr_sum(
                [ex.mul(pair.nabla.gamma[k, i, j], f.diff(k).expr) for k in range(n)]
            )
            terms.append(ex.mul(pair.theta.comps[i, j], ex.sub(hess, corr)))
    return ScalarField(ex.expr_sum(terms), n)


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

@dataclass
class VerdictSuite:
    symmetric_poisson: bool
    strong: bool
    parallel: bool
    involutive: Involutivity
    residuals: dict = field(default_factory=dict)


def verdict_suite(pair: SymPoissonPair, tol: float = TOL, samples=None) -> VerdictSuite:
    sp = symmetric_poisson_residual(pair, samples)
    st = strong_residual(pair, samples)
    pl = parallel_residual(pair, samples)
    inv = involutivity_check(pair, samples=samples)
    return VerdictSuite(
        symmetric_poisson=sp <= tol,
        strong=st <= tol,
        parallel=pl <= tol,
        involutive=inv.verdict,
        residuals={
            "symmetric_poisson": sp,
            "strong": st,
            "parallel": pl,
            "involutive": inv.max_residual,
        },
    )
