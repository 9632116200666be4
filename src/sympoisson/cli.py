"""Batch front end.

Commands:

    sympoisson check <file> [--tol T] [--samples N] [--seed S]
    sympoisson integrate <file> [--hamiltonian H] [--x0 ...] [--p0 ...]
                          [--dt D] [--steps K] [--monitors a,b] [--out PATH]
    sympoisson catalog [--id ID | --all]
    sympoisson report [--format text|csv] [--out PATH]

Exit codes: 0 pass, 1 usage or parse error, 2 expectation mismatch,
3 numeric failure (a domain error while computing verdicts, or trajectory
blow-up; a partial CSV is still flushed).

Structure files are INI-style documents; see README.md for the format.
"""

from __future__ import annotations

import argparse
import configparser
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import jj, liealg, registry
from .defaults import N_SAMPLES, SEED, TOL
from .expr import EvalDomainError, ExprError, ParseError
from .geometry import Chart, Connection, GeometryError, SymTensorField
from .poisson import (
    Involutivity,
    SymPoissonPair,
    characteristic_data,
    involutivity_check,
    parallel_residual,
    strong_residual,
    symmetric_poisson_residual,
)
from .pw import (
    BlowUpError,
    CotangentState,
    DynamicsError,
    PhaseField,
    integrate_pw,
    monitor_geodesic_residual,
    speed_square_field,
    trajectory_to_csv,
    vertical_lift,
)

USAGE_ERROR, MISMATCH, NUMERIC_FAILURE = 1, 2, 3


class StructureFileError(Exception):
    pass


# ---------------------------------------------------------------------------
# structure files
# ---------------------------------------------------------------------------

@dataclass
class Probe:
    point: tuple[float, ...]
    rank: int | None = None
    signature: tuple[int, int] | None = None


@dataclass
class StructureFile:
    pair: SymPoissonPair
    expect: dict = field(default_factory=dict)
    probes: list[Probe] = field(default_factory=list)
    hamiltonian: str | None = None


_KEY_RE = re.compile(r"^(\w+)\[([0-9,\s]+)\]$")


def _parse_indices(key: str, name: str, count: int) -> tuple[int, ...]:
    m = _KEY_RE.match(key.strip())
    if not m or m.group(1) != name:
        raise StructureFileError(f"bad key '{key}', expected {name}[i,...]")
    idx = tuple(int(tok) - 1 for tok in m.group(2).split(","))
    if len(idx) != count:
        raise StructureFileError(f"key '{key}' needs {count} indices")
    if any(i < 0 for i in idx):
        raise StructureFileError(f"indices in '{key}' are 1-based")
    return idx


def _unquote(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
        return value[1:-1]
    return value


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise StructureFileError(f"expected a boolean, got '{value}'")


def load_structure(path: str) -> StructureFile:
    cp = configparser.ConfigParser(delimiters=("=",), interpolation=None)
    cp.optionxform = str
    try:
        with open(path) as fh:
            cp.read_file(fh, source=path)
    except OSError as err:
        raise StructureFileError(f"cannot read {path}: {err}") from err
    except configparser.Error as err:
        raise StructureFileError(f"malformed file {path}: {err}") from err

    if cp.has_section("catalog"):
        ident = _unquote(cp.get("catalog", "id"))
        pair = _catalog_pair(ident)
    else:
        pair = _pair_from_sections(cp)

    expect: dict = {}
    if cp.has_section("expect"):
        for key, raw in cp.items("expect"):
            key = key.strip().lower()
            raw = _unquote(raw)
            if key in ("symmetric_poisson", "sp"):
                expect["symmetric_poisson"] = _parse_bool(raw)
            elif key in ("strong", "parallel"):
                expect[key] = _parse_bool(raw)
            elif key == "involutive":
                try:
                    expect["involutive"] = Involutivity(raw.strip().lower())
                except ValueError as err:
                    raise StructureFileError(f"unknown involutivity verdict '{raw}'") from err
            else:
                raise StructureFileError(f"unknown expectation '{key}'")

    probes: list[Probe] = []
    for section in cp.sections():
        if section == "probe" or section.startswith("probe."):
            body = dict(cp.items(section))
            if "point" not in body:
                raise StructureFileError(f"[{section}] needs a point")
            point = tuple(float(tok) for tok in _unquote(body["point"]).split(","))
            if len(point) != pair.chart.n:
                raise StructureFileError(f"[{section}] point has wrong dimension")
            rank = int(body["rank"]) if "rank" in body else None
            sig = None
            if "signature" in body:
                parts = [int(tok) for tok in _unquote(body["signature"]).split(",")]
                if len(parts) != 2:
                    raise StructureFileError(f"[{section}] signature must be 'p, q'")
                sig = (parts[0], parts[1])
            probes.append(Probe(point, rank, sig))

    hamiltonian = None
    if cp.has_section("hamiltonian"):
        hamiltonian = _unquote(cp.get("hamiltonian", "H"))

    return StructureFile(pair, expect, probes, hamiltonian)


def _pair_from_sections(cp: configparser.ConfigParser) -> SymPoissonPair:
    if not cp.has_section("chart"):
        raise StructureFileError("missing [chart] section (or a [catalog] reference)")
    dim = cp.getint("chart", "dim")
    names = [tok.strip() for tok in cp.get("chart", "names").split(",")]
    if len(names) != dim:
        raise StructureFileError("names list does not match dim")
    box = None
    if cp.has_option("chart", "box"):
        box = []
        for tok in cp.get("chart", "box").split(","):
            lo, _, hi = tok.partition(":")
            if not hi:
                raise StructureFileError("box intervals use lo:hi")
            box.append((float(lo), float(hi)))
        if len(box) != dim:
            raise StructureFileError("box must list one interval per coordinate")
    chart = Chart(names, box)

    theta_entries = {}
    if cp.has_section("theta"):
        for key, raw in cp.items("theta"):
            idx = _parse_indices(key, "theta", 2)
            if max(idx) >= dim:
                raise StructureFileError(f"index out of range in '{key}'")
            theta_entries[idx] = _unquote(raw)
    theta = SymTensorField.from_dict(chart, 2, theta_entries)

    gamma_entries = {}
    if cp.has_section("connection"):
        for key, raw in cp.items("connection"):
            idx = _parse_indices(key, "gamma", 3)
            if max(idx) >= dim:
                raise StructureFileError(f"index out of range in '{key}'")
            gamma_entries[idx] = _unquote(raw)
    conn = Connection.from_dict(chart, gamma_entries)
    return SymPoissonPair(theta, conn)


def _catalog_pair(ident: str) -> SymPoissonPair:
    kind, _, name = ident.partition(":")
    if kind == "jj":
        return jj.to_linear_structure(jj.catalog_entry(name).algebra)
    if kind == "ex":
        return registry.build(name)
    if kind == "liealg":
        return _liealg_chart_pair(name)
    raise StructureFileError(f"cannot build a chart pair from catalog id '{ident}'")


def _liealg_chart_pair(name: str) -> SymPoissonPair:
    """Realize a named invariant structure in coordinates.

    Available for algebras with polynomial invariant frames; the bivector is
    the one exercised by the catalog suite.
    """
    try:
        chart, frame = liealg.polynomial_frame(name)
    except KeyError as err:
        raise StructureFileError(
            f"'liealg:{name}' has no chart realization (no polynomial frame)"
        ) from err
    g = liealg.algebra(name)
    t = liealg.LeftInvariantSymTensor.from_dict
    if name == "aff1":
        theta = t(2, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    elif name == "aff1xR":
        theta = t(3, 2, {(0, 1): 1})
    elif name == "heisenberg3":
        theta = t(3, 2, {(0, 0): 1, (1, 2): 1})
    else:  # abelian_n
        theta = t(g.dim, 2, {(0, 0): 2, (0, g.dim - 1): -1})
    return liealg.chart_export(g, liealg.weitzenboeck0(g), theta, chart, frame)


def export_structure(pair: SymPoissonPair, expect: dict | None = None) -> str:
    """Serialize a pair to the structure-file format.

    Only the upper triangle of theta and the i <= j Christoffels are written;
    loading applies the symmetries again, so export/load round-trips.
    """
    chart = pair.chart
    n = chart.n
    lines = ["[chart]", f"dim = {n}", f"names = {', '.join(chart.names)}"]
    box = ", ".join(f"{lo:g}:{hi:g}" for lo, hi in chart.box)
    lines.append(f"box = {box}")
    theta_lines = []
    for i in range(n):
        for j in range(i, n):
            e = pair.theta.comps[i, j]
            if not (hasattr(e, "value") and getattr(e, "value", None) == 0.0):
                theta_lines.append(f"theta[{i + 1},{j + 1}] = \"{e.to_string(chart.names)}\"")
    if theta_lines:
        lines += ["", "[theta]"] + theta_lines
    gamma_lines = []
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                e = pair.nabla.gamma[k, i, j]
                if not (hasattr(e, "value") and getattr(e, "value", None) == 0.0):
                    gamma_lines.append(
                        f"gamma[{k + 1},{i + 1},{j + 1}] = \"{e.to_string(chart.names)}\""
                    )
    if gamma_lines:
        lines += ["", "[connection]"] + gamma_lines
    if expect:
        lines += ["", "[expect]"]
        for key, value in expect.items():
            rendered = value.value if isinstance(value, Involutivity) else str(value).lower()
            lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class CheckLine:
    suite: str
    name: str
    expected: str
    got: str
    residual: float | None
    ok: bool


@dataclass
class Report:
    lines: list[CheckLine]
    samples: int
    seed: int
    tol: float

    @property
    def ok(self) -> bool:
        return all(line.ok for line in self.lines)

    def render_text(self) -> str:
        out = [f"# samples={self.samples} seed={hex(self.seed)} tol={self.tol:g}"]
        width = max((len(f"{l.suite}:{l.name}") for l in self.lines), default=10)
        for l in self.lines:
            res = "" if l.residual is None else f" residual={l.residual:.3g}"
            status = "ok" if l.ok else "MISMATCH"
            out.append(
                f"{(l.suite + ':' + l.name).ljust(width)}  expected={l.expected} got={l.got}{res} [{status}]"
            )
        out.append(f"{'PASS' if self.ok else 'FAIL'} ({sum(l.ok for l in self.lines)}/{len(self.lines)})")
        return "\n".join(out) + "\n"

    def render_csv(self) -> str:
        rows = ["suite,check,expected,got,residual,ok,samples,seed,tol"]
        for l in self.lines:
            res = "" if l.residual is None else f"{l.residual:.17g}"
            rows.append(
                f"{l.suite},{l.name},{l.expected},{l.got},{res},{int(l.ok)},{self.samples},{hex(self.seed)},{self.tol:g}"
            )
        return "\n".join(rows) + "\n"


def _verdict_lines(suite: str, pair: SymPoissonPair, expect: dict, tol: float, samples) -> list[CheckLine]:
    lines = []
    sp = symmetric_poisson_residual(pair, samples)
    st = strong_residual(pair, samples)
    pl = parallel_residual(pair, samples)
    inv = involutivity_check(pair, samples=samples)
    got = {
        "symmetric_poisson": (sp <= tol, sp),
        "strong": (st <= tol, st),
        "parallel": (pl <= tol, pl),
    }
    for name, (value, residual) in got.items():
        expected = expect.get(name)
        ok = True if expected is None else expected == value
        lines.append(
            CheckLine(
                suite,
                name,
                "-" if expected is None else str(expected),
                str(value),
                residual,
                ok,
            )
        )
    expected_inv = expect.get("involutive")
    ok = True if expected_inv is None else expected_inv == inv.verdict
    lines.append(
        CheckLine(
            suite,
            "involutive",
            "-" if expected_inv is None else expected_inv.value,
            inv.verdict.value,
            inv.max_residual,
            ok,
        )
    )
    return lines


def _probe_lines(suite: str, pair: SymPoissonPair, probes: list[Probe]) -> list[CheckLine]:
    lines = []
    for probe in probes:
        data = characteristic_data(pair.theta, probe.point)
        if probe.rank is not None:
            lines.append(
                CheckLine(
                    suite,
                    f"rank@{probe.point}",
                    str(probe.rank),
                    str(data.rank),
                    None,
                    data.rank == probe.rank,
                )
            )
        if probe.signature is not None:
            lines.append(
                CheckLine(
                    suite,
                    f"signature@{probe.point}",
                    str(probe.signature),
                    str(data.signature),
                    None,
                    data.signature == probe.signature,
                )
            )
    return lines


# ---------------------------------------------------------------------------
# catalog suites
# ---------------------------------------------------------------------------

def _bool_line(suite, name, expected: bool, got: bool, residual=None) -> CheckLine:
    return CheckLine(suite, name, str(expected), str(got), residual, expected == got)


def jj_suite(ident: str, tol: float, samples_n: int, seed: int) -> list[CheckLine]:
    entry = jj.catalog_entry(ident)
    suite = f"jj:{ident}"
    alg = entry.algebra
    pair = jj.to_linear_structure(alg)
    samples = pair.chart.sample_points(samples_n, seed)
    sp_res = symmetric_poisson_residual(pair, samples)
    st_res = strong_residual(pair, samples)
    lines = [
        _bool_line(suite, "jacobi", entry.expect["jacobi"], jj.is_jacobi_jordan(alg)),
        _bool_line(suite, "associative", entry.expect["associative"], jj.is_associative(alg)),
        _bool_line(suite, "symmetric_poisson", entry.expect["sp"], sp_res <= tol, sp_res),
        _bool_line(suite, "strong", entry.expect["strong"], st_res <= tol, st_res),
    ]
    inv = involutivity_check(pair, samples=samples)
    lines.append(
        CheckLine(
            suite,
            "involutive",
            entry.expect["involutive"].value,
            inv.verdict.value,
            inv.max_residual,
            entry.expect["involutive"] == inv.verdict,
        )
    )
    if ident == "dim5_nonassoc":
        lines.append(_dim5_commutator_line(suite, pair, samples))
    return lines


def _dim5_commutator_line(suite: str, pair: SymPoissonPair, samples) -> CheckLine:
    """The only surviving commutator of the module generators is [X1, X3],
    an exact constant multiple of x3 d1 (hence inside the module)."""
    from .geometry import lie_bracket

    gens = jj.characteristic_generators(pair)
    x1, x3 = gens[0], gens[3]
    comm = lie_bracket(x1, x3)
    ok = True
    worst = 0.0
    for p in samples:
        v = comm.evaluate(p)
        expected = np.zeros(5)
        expected[0] = -1.5 * p[2]
        worst = max(worst, float(np.abs(v - expected).max()))
        ok = ok and np.allclose(v, expected, atol=1e-12)
    others = [(0, 1), (0, 4), (1, 3), (1, 4), (3, 4)]
    for i, j in others:
        if not lie_bracket(gens[i], gens[j]).is_zero_on(samples):
            ok = False
    return CheckLine(suite, "module_commutator", "[X1,X3] = -3/2 x3 d1", "same" if ok else "different", worst, ok)


def liealg_suite(ident: str) -> list[CheckLine]:
    suite = f"liealg:{ident}"
    t = liealg.LeftInvariantSymTensor.from_dict
    lines: list[CheckLine] = []
    if ident == "so3":
        g = liealg.algebra("so3")
        conn = liealg.weitzenboeck0(g)
        theta = t(3, 2, {(0, 0): 1, (1, 1): 1})
        lines += [
            _bool_line(suite, "symmetric_poisson", True, liealg.li_is_symmetric_poisson(theta, conn)),
            _bool_line(suite, "strong", False, liealg.li_is_strong(theta, conn)),
            _bool_line(suite, "involutive", False, liealg.li_is_involutive(theta, g)),
        ]
    elif ident == "su2":
        g = liealg.algebra("su2")
        conn = liealg.weitzenboeck0(g)
        theta = t(3, 2, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2), (2, 2): Fraction(1, 2)})
        lc = liealg.li_levi_civita(g, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        lines += [
            _bool_line(suite, "strong", True, liealg.li_is_strong(theta, conn)),
            _bool_line(suite, "involutive", True, liealg.li_is_involutive(theta, g)),
            _bool_line(suite, "levi_civita_is_halved_bracket", True, lc.a == conn.a),
        ]
    elif ident == "aff1":
        g = liealg.algebra("aff1")
        conn = liealg.weitzenboeck0(g)
        for l1, l2, l3 in [(1, 0, 0), (1, 1, 1), (1, 1, 2), (0, 0, 1), (2, 2, 2), (1, 2, 4)]:
            theta = t(2, 2, {(0, 0): l1, (0, 1): l2, (1, 1): l3})
            expected = l1 * l3 - l2 * l2 == 0
            lines.append(
                _bool_line(
                    suite,
                    f"strong({l1},{l2},{l3})",
                    expected,
                    liealg.li_is_strong(theta, conn),
                )
            )
            lines.append(
                _bool_line(
                    suite,
                    f"symmetric_poisson({l1},{l2},{l3})",
                    True,
                    liealg.li_is_symmetric_poisson(theta, conn),
                )
            )
    elif ident == "aff1xR":
        g = liealg.algebra("aff1xR")
        conn0 = liealg.weitzenboeck0(g)
        theta = t(3, 2, {(0, 1): 1})
        custom = liealg.aff1xR_parallelizing_connection()
        lines += [
            _bool_line(suite, "symmetric_poisson", True, liealg.li_is_symmetric_poisson(theta, conn0)),
            _bool_line(suite, "strong_halved_bracket", False, liealg.li_is_strong(theta, conn0)),
            _bool_line(suite, "involutive", True, liealg.li_is_involutive(theta, g)),
            _bool_line(suite, "parallel_custom", True, liealg.li_is_parallel(theta, custom)),
            _bool_line(suite, "strong_custom", True, liealg.li_is_strong(theta, custom)),
        ]
    elif ident == "heisenberg3":
        g = liealg.algebra("heisenberg3")
        conn = liealg.weitzenboeck0(g)
        flat = all(
            liealg.li_curvature_weitzenboeck(g, i, j, k) == (Fraction(0),) * 3
            for i in range(3)
            for j in range(3)
            for k in range(3)
        )
        theta = t(3, 2, {(0, 0): 1, (1, 2): 1})
        lines += [
            _bool_line(suite, "flat_halved_bracket", True, flat),
            _bool_line(suite, "symmetric_poisson", True, liealg.li_is_symmetric_poisson(theta, conn)),
        ]
    elif ident.startswith("abelian_"):
        g = liealg.algebra(ident)
        conn = liealg.weitzenboeck0(g)
        theta = t(g.dim, 2, {(0, 0): 2, (0, g.dim - 1): -1})
        lines += [
            _bool_line(suite, "parallel", True, liealg.li_is_parallel(theta, conn)),
            _bool_line(suite, "strong", True, liealg.li_is_strong(theta, conn)),
        ]
    else:
        raise KeyError(ident)
    return lines


def chart_suite(ident: str, tol: float, samples_n: int, seed: int) -> list[CheckLine]:
    entry = registry.CHART_ENTRIES[ident]
    pair = entry.build()
    samples = pair.chart.sample_points(samples_n, seed)
    expect = {
        {"sp": "symmetric_poisson"}.get(k, k): v for k, v in entry.expect.items()
    }
    return _verdict_lines(f"ex:{ident}", pair, expect, tol, samples)


def catalog_ids() -> list[str]:
    ids = [f"jj:{e.ident}" for e in jj.catalog()]
    ids += [f"liealg:{name}" for name in ["so3", "su2", "aff1", "aff1xR", "heisenberg3", "abelian_2"]]
    ids += [f"ex:{name}" for name in registry.CHART_ENTRIES]
    return ids


def run_catalog_id(ident: str, tol: float, samples_n: int, seed: int) -> list[CheckLine]:
    kind, _, name = ident.partition(":")
    if not name:
        matches = [full for full in catalog_ids() if full.split(":", 1)[1] == ident]
        if len(matches) != 1:
            raise KeyError(ident)
        kind, _, name = matches[0].partition(":")
    if kind == "jj":
        return jj_suite(name, tol, samples_n, seed)
    if kind == "liealg":
        return liealg_suite(name)
    if kind == "ex":
        return chart_suite(name, tol, samples_n, seed)
    raise KeyError(ident)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sympoisson", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=TOL)
    common.add_argument("--samples", type=int, default=N_SAMPLES)
    common.add_argument("--seed", type=lambda s: int(s, 0), default=SEED)

    p_check = sub.add_parser("check", parents=[common], help="verify a structure file")
    p_check.add_argument("file")

    p_int = sub.add_parser("integrate", parents=[common], help="run dynamics from a structure file")
    p_int.add_argument("file")
    p_int.add_argument("--hamiltonian", default=None, help="'theta_v', or a phase expression")
    p_int.add_argument("--x0", required=True, help="comma-separated base point")
    p_int.add_argument("--p0", required=True, help="comma-separated momentum")
    p_int.add_argument("--dt", type=float, default=1e-3)
    p_int.add_argument("--steps", type=int, default=1000)
    p_int.add_argument("--monitors", default="hamiltonian")
    p_int.add_argument("--out", default=None)

    p_cat = sub.add_parser("catalog", parents=[common], help="run expected-verdict suites")
    group = p_cat.add_mutually_exclusive_group(required=True)
    group.add_argument("--id", dest="ident")
    group.add_argument("--all", action="store_true")

    p_rep = sub.add_parser("report", parents=[common], help="run the full battery")
    p_rep.add_argument("--format", choices=["text", "csv"], default="text")
    p_rep.add_argument("--out", default=None)
    return parser


def _verdict_error(err: Exception) -> int:
    """Report a library error raised while computing verdicts; its exit code.

    A domain error is a numeric failure; any other expression or geometry
    error (such as a sample count below 1) is a usage error.
    """
    print(f"error: {err}", file=sys.stderr)
    return NUMERIC_FAILURE if isinstance(err, EvalDomainError) else USAGE_ERROR


def _catalog_lines(idents: list[str], args) -> list[CheckLine]:
    lines = []
    for ident in idents:
        lines += run_catalog_id(ident, args.tol, args.samples, args.seed)
    return lines


def cmd_check(args) -> int:
    try:
        sf = load_structure(args.file)
    except (StructureFileError, ParseError, ExprError, GeometryError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    try:
        samples = sf.pair.chart.sample_points(args.samples, args.seed)
        lines = _verdict_lines("check", sf.pair, sf.expect, args.tol, samples)
        lines += _probe_lines("check", sf.pair, sf.probes)
    except (ExprError, GeometryError) as err:
        return _verdict_error(err)
    report = Report(lines, args.samples, args.seed, args.tol)
    sys.stdout.write(report.render_text())
    return 0 if report.ok else MISMATCH


def cmd_integrate(args) -> int:
    if args.steps < 1 or args.dt <= 0:
        print("error: need --steps >= 1 and --dt > 0", file=sys.stderr)
        return USAGE_ERROR
    try:
        sf = load_structure(args.file)
        pair = sf.pair
        chart = pair.chart
        x0 = tuple(float(t) for t in args.x0.split(","))
        p0 = tuple(float(t) for t in args.p0.split(","))
        state = CotangentState(x0, p0)
        if len(x0) != chart.n:
            raise StructureFileError("--x0 has the wrong dimension")
        source = args.hamiltonian or sf.hamiltonian or "theta_v"
        if source == "theta_v":
            h = vertical_lift(pair.theta)
        else:
            h = PhaseField.parse(chart, source)
        monitors = [m.strip() for m in args.monitors.split(",") if m.strip()]
        extra = {}
        want_geo = False
        for m in monitors:
            if m == "speed_sq":
                extra["speed_sq"] = speed_square_field(pair)
            elif m == "geodesic_residual":
                want_geo = True
            elif m != "hamiltonian":
                raise StructureFileError(f"unknown monitor '{m}'")
    except (StructureFileError, ParseError, ExprError, GeometryError, DynamicsError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR

    code = 0
    try:
        traj = integrate_pw(pair.nabla, h, state, args.dt, args.steps, extra)
    except BlowUpError as err:
        print(f"error: {err}", file=sys.stderr)
        traj = err.trajectory
        code = NUMERIC_FAILURE
    if want_geo and len(traj.xs) >= 3:
        res = monitor_geodesic_residual(pair, traj)
        padded = np.concatenate([[np.nan], res, [np.nan]])
        traj.channels["geodesic_residual"] = padded

    csv_text = trajectory_to_csv(traj)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        sink = sys.stdout
    else:
        sys.stdout.write(csv_text)
        sink = sys.stderr
    for name, values in traj.channels.items():
        finite = values[np.isfinite(values)]
        if name == "geodesic_residual":
            print(f"monitor {name}: max {np.nanmax(values):.3g}", file=sink)
        elif len(finite):
            drift = float(np.abs(finite - finite[0]).max())
            print(f"monitor {name}: max drift {drift:.3g}", file=sink)
    return code


def cmd_catalog(args) -> int:
    try:
        lines = _catalog_lines(catalog_ids() if args.all else [args.ident], args)
    except KeyError as err:
        print(f"error: unknown catalog id {err}", file=sys.stderr)
        return USAGE_ERROR
    except (ExprError, GeometryError) as err:
        return _verdict_error(err)
    report = Report(lines, args.samples, args.seed, args.tol)
    sys.stdout.write(report.render_text())
    return 0 if report.ok else MISMATCH


def cmd_report(args) -> int:
    try:
        lines = _catalog_lines(catalog_ids(), args)
    except (ExprError, GeometryError) as err:
        return _verdict_error(err)
    report = Report(lines, args.samples, args.seed, args.tol)
    text = report.render_csv() if args.format == "csv" else report.render_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.ok else MISMATCH


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "check":
        return cmd_check(args)
    if args.command == "integrate":
        return cmd_integrate(args)
    if args.command == "catalog":
        return cmd_catalog(args)
    if args.command == "report":
        return cmd_report(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
