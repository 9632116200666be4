"""The catalog: every built-in structure with its expected verdicts.

`CATALOG` maps each full id to its entry, in report order: the linear
structures of `jj.catalog()` (`jj:`), the left-invariant structures of
`LIE_ENTRIES` (`liealg:`) and the worked chart structures of
`CHART_ENTRIES` (`ex:`), data rows that `chart_pair` builds the way a
structure file is built.  Every entry's `pair()` builds a fresh pair so
callers may mutate nothing shared.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from types import MappingProxyType
from typing import Callable, ClassVar

import numpy as np

from . import jj, liealg
from .geometry import Chart, Connection, SymFormField, SymTensorField, invert_metric
from .poisson import Involutivity, SymPoissonPair


class CatalogError(Exception):
    pass


@dataclass(frozen=True)
class ChartEntry:
    kind: ClassVar[str] = "ex"
    ident: str
    title: str
    build: Callable[[], SymPoissonPair]
    expect: Mapping

    def pair(self) -> SymPoissonPair:
        return self.build()


def chart_pair(names, theta: Mapping, gamma: Mapping | None = None, box=None) -> SymPoissonPair:
    """The pair on `Chart(names, box)` with theta {(i, j): value} and the
    Christoffels {(k, i, j): value}, both 0-based with their symmetries
    filled in; a value is expression text or a number."""
    chart = Chart(names, box)
    return SymPoissonPair(SymTensorField.from_dict(chart, 2, theta), Connection.from_dict(chart, gamma or {}))


def flat_pair(p: int, q: int) -> SymPoissonPair:
    """Pseudo-Euclidean R^{p+q}: theta = sum d_i x d_i - sum d_j x d_j, flat."""
    n = p + q
    names = [f"x{i + 1}" for i in range(n)] if n > 2 else ["x", "y"][:n]
    return chart_pair(names, {(i, i): 1.0 if i < p else -1.0 for i in range(n)})


# torsion-free on R^2: nabla_dx dy = dx + dy, everything else zero
_KILL = MappingProxyType({(0, 0, 1): "1", (1, 0, 1): "1"})


def kill_connection(chart: Chart) -> Connection:
    return Connection.from_dict(chart, _KILL)


def kill_metric(chart: Chart) -> SymFormField:
    """Split-signature exp(2y) dx . exp(2x) dy."""
    return SymFormField.from_dict(chart, 2, {(0, 1): "exp(2*y) * exp(2*x)"})


def _build_nondeg_kill() -> SymPoissonPair:
    # theta is the symbolic inverse of the Killing metric, so it is computed
    chart = Chart(["x", "y"])
    theta = invert_metric(kill_metric(chart))
    return SymPoissonPair(theta, kill_connection(chart))


# a box kept away from the origin where the rotation structure degenerates
_PUNCTURED = ((0.4, 1.4), (0.4, 1.4))


def _punctured_chart() -> Chart:
    return Chart(["x", "y"], box=_PUNCTURED)


def _rotation_gamma(sign: float) -> dict:
    # nabla_dx dx = nabla_dy dy = sign * R / (x^2 + y^2), nabla_dx dy = 0,
    # with R = x dx + y dy the radial field
    rr = "(x^2 + y^2)"
    return {
        (0, 0, 0): f"{sign:g} * x / {rr}",
        (1, 0, 0): f"{sign:g} * y / {rr}",
        (0, 1, 1): f"{sign:g} * x / {rr}",
        (1, 1, 1): f"{sign:g} * y / {rr}",
    }


def rotation_connection(chart: Chart, sign: float) -> Connection:
    return Connection.from_dict(chart, _rotation_gamma(sign))


_ON = Involutivity.INVOLUTIVE_ON_SAMPLES
_PASSES = MappingProxyType(dict(symmetric_poisson=True, strong=True, parallel=True, involutive=_ON))
_STRONG = MappingProxyType(dict(symmetric_poisson=True, strong=True, parallel=False, involutive=_ON))
_NOT_STRONG = MappingProxyType(dict(symmetric_poisson=True, strong=False, parallel=False, involutive=_ON))
_NOT_SP = MappingProxyType(dict(symmetric_poisson=False, strong=False, parallel=False))
_XY, _XYZ = ("x", "y"), ("x", "y", "z")

CHART_ENTRIES: dict[str, ChartEntry] = {
    e.ident: e
    for e in [
        ChartEntry("flat_11", "flat split-signature plane", partial(flat_pair, 1, 1), _PASSES),
        ChartEntry("flat_2", "flat Euclidean plane", partial(flat_pair, 2, 0), _PASSES),
        ChartEntry(
            "zero_bivector",
            "zero bivector with a curved torsion-free connection",
            partial(chart_pair, _XY, {}, _KILL),
            _PASSES,
        ),
        # theta = h(y) dx x dx with non-constant h depending only on y
        ChartEntry(
            "inclusion",
            "height-dependent rank-1 structure on the plane",
            partial(chart_pair, _XY, {(0, 0): "exp(y)"}),
            _STRONG,
        ),
        ChartEntry(
            "nondeg_kill",
            "inverse of a Killing metric with a non-metric connection",
            _build_nondeg_kill,
            _NOT_STRONG,
        ),
        ChartEntry(
            "sing_line",
            "x d/dx x d/dx on the line (not integrable)",
            partial(chart_pair, ("x",), {(0, 0): "x"}),
            _NOT_SP,
        ),
        ChartEntry(
            "cubic_line",
            "x^3 d/dx x d/dx on the half line",
            partial(chart_pair, ("x",), {(0, 0): "x^3"}, box=((0.5, 2.5),)),
            _NOT_SP,
        ),
        # theta = S x S for the rotation field S = -y dx + x dy, plus the
        # connection that makes S autoparallel (+ sign)
        ChartEntry(
            "rotation",
            "circle foliation of the punctured plane",
            partial(chart_pair, _XY, {(0, 0): "y^2", (0, 1): "-x*y", (1, 1): "x^2"},
                    _rotation_gamma(+1.0), box=_PUNCTURED),
            _STRONG,
        ),
        # theta = R x R for the radial field R = x dx + y dy (with the - sign)
        ChartEntry(
            "radial",
            "ray foliation of the punctured plane",
            partial(chart_pair, _XY, {(0, 0): "x^2", (0, 1): "x*y", (1, 1): "y^2"},
                    _rotation_gamma(-1.0), box=_PUNCTURED),
            _STRONG,
        ),
        # linear, and its algebra is not associative
        ChartEntry(
            "r5",
            "five-dimensional linear structure, involutive but never strong",
            partial(
                chart_pair,
                ("x1", "x2", "x3", "x4", "x5"),
                {(0, 0): "x2", (0, 3): "x5", (0, 4): "-0.5 * x3", (1, 3): "x3"},
            ),
            _NOT_STRONG,
        ),
        # regular rank-2 structure in R^3: parallel, hence strong
        ChartEntry(
            "plane_rank2",
            "parallel rank-2 plane field in R^3",
            partial(chart_pair, _XYZ, {(0, 0): 1.0, (1, 1): 1.0}),
            _PASSES,
        ),
        # theta = X1 x X1 + X2 x X2 for X1 = dx, X2 = dy + x dz: the bracket
        # [X1, X2] = dz leaves the span, so the module is not involutive
        ChartEntry(
            "heisenberg_frame",
            "rank-2 frame structure with non-involutive module",
            partial(chart_pair, _XYZ, {(0, 0): "1", (1, 1): "1", (1, 2): "x", (2, 2): "x^2"}),
            MappingProxyType(dict(involutive=Involutivity.NOT_INVOLUTIVE)),
        ),
    ]
}


def build(ident: str) -> SymPoissonPair:
    return CHART_ENTRIES[ident].build()


# ---------------------------------------------------------------------------
# linear structures and left-invariant structures
# ---------------------------------------------------------------------------

# Exact verdicts on (algebra, theta, connection) and the connections they
# judge.  They look the liealg functions up when they run, so a wrapper
# installed on the module afterwards sees every call.
LIE_VERDICTS: dict[str, Callable] = {
    "symmetric_poisson": lambda g, theta, conn: liealg.li_is_symmetric_poisson(theta, conn),
    "strong": lambda g, theta, conn: liealg.li_is_strong(theta, conn),
    "parallel": lambda g, theta, conn: liealg.li_is_parallel(theta, conn),
    "involutive": lambda g, theta, conn: liealg.li_is_involutive(theta, g),
    # the halved-bracket connection of g is flat: its curvature -1/4 T[l,k,i,j]
    # vanishes with the (integer) double-product table T
    "flat": lambda g, theta, conn: not g._table.any(),
    # conn is the Levi-Civita connection of the metric theta^-1
    "levi_civita": lambda g, theta, conn: np.array_equal(
        liealg.li_levi_civita(g, jj._exact_inverse(theta.comps)).a, conn.a
    ),
}
LIE_CONNECTIONS: dict[str, Callable] = {
    "halved": lambda g: liealg.weitzenboeck0(g),
    "aff1xR_parallelizing": lambda g: liealg.aff1xR_parallelizing_connection(),
}


@dataclass(frozen=True)
class LieCheck:
    """A printed check name and its expected value; the LIE_VERDICTS key
    (default: the name), theta index and LIE_CONNECTIONS key it is computed on."""

    name: str
    expected: bool
    verdict: str | None = None
    theta: int = 0
    connection: str = "halved"


@dataclass(frozen=True)
class LieEntry:
    """Left-invariant thetas on `liealg.algebra(ident)`, as {indices: value}
    dicts in the invariant frame, with their checks; `export` picks the theta
    that a `[catalog]` reference realizes in a chart."""

    kind: ClassVar[str] = "liealg"
    ident: str
    thetas: tuple[dict, ...]
    checks: tuple[LieCheck, ...]
    export: int = 0

    def verdicts(self) -> list[tuple[str, bool, bool]]:
        """(name, expected, got) of every check, computed exactly."""
        g = liealg.algebra(self.ident)
        thetas = [liealg.LeftInvariantSymTensor.from_dict(g.dim, 2, t) for t in self.thetas]
        conns = {key: LIE_CONNECTIONS[key](g) for key in dict.fromkeys(c.connection for c in self.checks)}
        return [
            (c.name, c.expected, LIE_VERDICTS[c.verdict or c.name](g, thetas[c.theta], conns[c.connection]))
            for c in self.checks
        ]

    def pair(self) -> SymPoissonPair:
        """The exported theta and the halved-bracket connection in the
        coordinates of the algebra's polynomial invariant frame."""
        try:
            chart, frame = liealg.polynomial_frame(self.ident)
        except KeyError as err:
            raise CatalogError(f"'liealg:{self.ident}' has no chart realization (no polynomial frame)") from err
        g = liealg.algebra(self.ident)
        theta = liealg.LeftInvariantSymTensor.from_dict(g.dim, 2, self.thetas[self.export])
        return liealg.chart_export(g, liealg.weitzenboeck0(g), theta, chart, frame)


def _aff1_entry() -> LieEntry:
    # every theta on aff(1) is symmetric Poisson, and strong exactly when
    # it is degenerate: l1 l3 = l2^2
    family = [(1, 0, 0), (1, 1, 1), (1, 1, 2), (0, 0, 1), (2, 2, 2), (1, 2, 4)]
    checks = []
    for k, (l1, l2, l3) in enumerate(family):
        checks += [
            LieCheck(f"strong({l1},{l2},{l3})", l1 * l3 == l2 * l2, "strong", k),
            LieCheck(f"symmetric_poisson({l1},{l2},{l3})", True, "symmetric_poisson", k),
        ]
    thetas = tuple({(0, 0): l1, (0, 1): l2, (1, 1): l3} for l1, l2, l3 in family)
    return LieEntry("aff1", thetas, tuple(checks), export=1)


_HALF = Fraction(1, 2)
_PARALLELIZING = dict(connection="aff1xR_parallelizing")

LIE_ENTRIES: dict[str, LieEntry] = {
    e.ident: e
    for e in [
        LieEntry("so3", ({(0, 0): 1, (1, 1): 1},), (
            LieCheck("symmetric_poisson", True), LieCheck("strong", False), LieCheck("involutive", False),
        )),
        LieEntry("su2", ({(0, 0): _HALF, (1, 1): _HALF, (2, 2): _HALF},), (
            LieCheck("strong", True), LieCheck("involutive", True),
            LieCheck("levi_civita_is_halved_bracket", True, "levi_civita"),
        )),
        _aff1_entry(),
        LieEntry("aff1xR", ({(0, 1): 1},), (
            LieCheck("symmetric_poisson", True),
            LieCheck("strong_halved_bracket", False, "strong"),
            LieCheck("involutive", True),
            LieCheck("parallel_custom", True, "parallel", **_PARALLELIZING),
            LieCheck("strong_custom", True, "strong", **_PARALLELIZING),
        )),
        LieEntry("heisenberg3", ({(0, 0): 1, (1, 2): 1},), (
            LieCheck("flat_halved_bracket", True, "flat"), LieCheck("symmetric_poisson", True),
        )),
        LieEntry("abelian_2", ({(0, 0): 2, (0, 1): -1},), (
            LieCheck("parallel", True), LieCheck("strong", True),
        )),
    ]
}


# ---------------------------------------------------------------------------
# the whole catalog
# ---------------------------------------------------------------------------

CATALOG: dict = {
    f"{e.kind}:{e.ident}": e
    for e in [*jj.catalog(), *LIE_ENTRIES.values(), *CHART_ENTRIES.values()]
}


def catalog_entry(ident: str, bare: bool = False):
    """The entry of a full catalog id, or with `bare` of a name that exactly
    one entry has; CatalogError otherwise."""
    entry = CATALOG.get(ident)
    if entry is None and bare:
        matches = [e for e in CATALOG.values() if e.ident == ident]
        entry = matches[0] if len(matches) == 1 else None
    if entry is None:
        raise CatalogError(f"unknown catalog id '{ident}'")
    return entry
