"""Batch front end.

Commands:

    sympoisson check <file> [--tol T] [--samples N] [--seed S]
    sympoisson integrate <file> [--hamiltonian H] [--x0 ...] [--p0 ...]
                          [--dt D] [--steps K] [--monitors a,b] [--out PATH]
    sympoisson catalog [--id ID | --all]
    sympoisson report [--format text|csv] [--out PATH]

Exit codes: 0 pass, 1 usage or parse error, 2 expectation mismatch,
3 numeric failure (a domain error while computing verdicts or a trajectory,
or trajectory blow-up; a partial CSV is still flushed).

Structure files are INI-style documents; see README.md for the format.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import itertools
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import jj, registry
from .defaults import DT, N_SAMPLES, SEED, TOL
from .expr import EvalDomainError, ExprError, ParseError, is_structural_zero, number_text
from .geometry import GeometryError, _orbits
from .poisson import (
    Involutivity,
    SymPoissonPair,
    VerdictSuite,
    characteristic_data,
    verdict_suite,
)
from .pw import (
    CotangentState,
    DynamicsError,
    PhaseField,
    TrajectoryError,
    integrate_pw,
    monitor_geodesic_residual,
    phase_names,
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


_KEY_RE = re.compile(r"^(\w+)\[(\s*[0-9]+\s*(?:,\s*[0-9]+\s*)*)\]$")


def _number(kind, text: str, where: str):
    """kind(text); a text it refuses is a StructureFileError saying where it came from."""
    try:
        return kind(text.strip())
    except ValueError as err:
        raise StructureFileError(f"{where}: {err}") from None


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
        # configparser spreads some messages over several lines
        text = " ".join(line.strip() for line in str(err).splitlines())
        raise StructureFileError(f"malformed file {path}: {text}") from err

    if cp.has_section("catalog"):
        try:
            pair = registry.catalog_entry(_unquote(cp.get("catalog", "id", fallback=""))).pair()
        except registry.CatalogError as err:
            raise StructureFileError(str(err)) from err
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
            point = tuple(_number(float, tok, f"[{section}] point") for tok in _unquote(body["point"]).split(","))
            if len(point) != pair.chart.n:
                raise StructureFileError(f"[{section}] point has wrong dimension")
            if not all(math.isfinite(v) for v in point):
                raise StructureFileError(f"[{section}] point {point} must be finite")
            rank = _number(int, body["rank"], f"[{section}] rank") if "rank" in body else None
            sig = None
            if "signature" in body:
                parts = [_number(int, tok, f"[{section}] signature") for tok in _unquote(body["signature"]).split(",")]
                if len(parts) != 2:
                    raise StructureFileError(f"[{section}] signature must be 'p, q'")
                sig = (parts[0], parts[1])
            probes.append(Probe(point, rank, sig))

    hamiltonian = None
    if cp.has_section("hamiltonian"):
        hamiltonian = _unquote(_option(cp, "hamiltonian", "H"))

    return StructureFile(pair, expect, probes, hamiltonian)


def _option(cp: configparser.ConfigParser, section: str, key: str) -> str:
    if not cp.has_option(section, key):
        raise StructureFileError(f"[{section}] needs {key}")
    return cp.get(section, key)


def _entries(cp: configparser.ConfigParser, section: str, name: str, count: int, dim: int) -> dict:
    """The {0-based indices: expression text} of a [theta] or [connection]
    section; two keys that differ in the order of the last two name one slot."""
    entries = {}
    keys = {}
    if cp.has_section(section):
        for key, raw in cp.items(section):
            idx = _parse_indices(key, name, count)
            if max(idx) >= dim:
                raise StructureFileError(f"index out of range in '{key}'")
            slot = idx[:-2] + tuple(sorted(idx[-2:]))
            if slot in keys:
                raise StructureFileError(f"[{section}] {keys[slot]} and {key} name the same slot")
            keys[slot] = key
            entries[idx] = _unquote(raw)
    return entries


def _pair_from_sections(cp: configparser.ConfigParser) -> SymPoissonPair:
    if not cp.has_section("chart"):
        raise StructureFileError("missing [chart] section (or a [catalog] reference)")
    dim = _number(int, _option(cp, "chart", "dim"), "[chart] dim")
    names = [tok.strip() for tok in _option(cp, "chart", "names").split(",")]
    if len(names) != dim:
        raise StructureFileError("names list does not match dim")
    box = None
    if cp.has_option("chart", "box"):
        box = []
        for tok in cp.get("chart", "box").split(","):
            lo, _, hi = tok.partition(":")
            if not hi:
                raise StructureFileError("box intervals use lo:hi")
            box.append((_number(float, lo, "[chart] box"), _number(float, hi, "[chart] box")))
    theta = _entries(cp, "theta", "theta", 2, dim)
    gamma = _entries(cp, "connection", "gamma", 3, dim)
    return registry.chart_pair(names, theta, gamma, box)


def export_structure(pair: SymPoissonPair, expect: dict | None = None) -> str:
    """Serialize a pair to the structure-file format.

    Only the upper triangle of theta and the i <= j Christoffels are written;
    loading applies the symmetries again, so export/load round-trips.
    """
    chart = pair.chart
    n = chart.n
    lines = ["[chart]", f"dim = {n}", f"names = {', '.join(chart.names)}"]
    box = ", ".join(f"{number_text(lo)}:{number_text(hi)}" for lo, hi in chart.box)
    lines.append(f"box = {box}")
    slots = [idx for idx, _ in _orbits(n, 2)]
    for section, name, comps, indices in (
        ("theta", "theta", pair.theta.comps, slots),
        ("connection", "gamma", pair.nabla.gamma, [(k, *idx) for k in range(n) for idx in slots]),
    ):
        entries = [
            f"{name}[{','.join(str(i + 1) for i in idx)}] = \"{comps[idx].to_string(chart.names)}\""
            for idx in indices
            if not is_structural_zero(comps[idx])
        ]
        if entries:
            lines += ["", f"[{section}]"] + entries
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


def _verdict_rows(suite: str, verdicts: VerdictSuite, expect: dict) -> list[CheckLine]:
    """One line per computed verdict, judged against `expect` where it has one."""
    lines = []
    for name, residual in verdicts.residuals.items():
        got, expected = getattr(verdicts, name), expect.get(name)
        shown = "-" if expected is None else _shown(expected)
        lines.append(CheckLine(suite, name, shown, _shown(got), residual, expected is None or expected == got))
    return lines


def _shown(verdict) -> str:
    return verdict.value if isinstance(verdict, Involutivity) else str(verdict)


def _probe_lines(suite: str, pair: SymPoissonPair, probes: list[Probe]) -> list[CheckLine]:
    lines = []
    for probe in probes:
        data = characteristic_data(pair.theta, probe.point)
        for name in ("rank", "signature"):
            expected = getattr(probe, name)
            if expected is not None:
                lines.append(_bool_line(suite, f"{name}@{probe.point}", expected, getattr(data, name)))
    return lines


# ---------------------------------------------------------------------------
# catalog suites
# ---------------------------------------------------------------------------

def _bool_line(suite, name, expected, got) -> CheckLine:
    return CheckLine(suite, name, str(expected), str(got), None, expected == got)


# the sampled verdicts a jj: suite prints, in order; it prints no parallel
JJ_VERDICTS = ("symmetric_poisson", "strong", "involutive")


def jj_suite(entry: jj.CatalogEntry, tol: float, samples_n: int, seed: int) -> list[CheckLine]:
    suite = f"jj:{entry.ident}"
    alg = entry.algebra
    pair = entry.pair()
    samples = pair.chart.sample_points(samples_n, seed)
    lines = [
        _bool_line(suite, "jacobi", entry.expect["jacobi"], jj.is_jacobi_jordan(alg)),
        _bool_line(suite, "associative", entry.expect["associative"], jj.is_associative(alg)),
    ]
    lines += _verdict_rows(suite, verdict_suite(pair, tol, samples, JJ_VERDICTS), entry.expect)
    if entry.ident == "dim5_nonassoc":
        lines.append(_dim5_commutator_line(suite, pair, samples))
    return lines


def _dim5_commutator_line(suite: str, pair: SymPoissonPair, samples) -> CheckLine:
    """The only surviving commutator of the module generators is [X1, X3],
    an exact constant multiple of x3 d1 (hence inside the module).  The
    commutators are the ones the suite's involutive verdict contracted."""
    table = pair.jets(samples).commutators
    column = {ij: c for c, ij in enumerate(itertools.combinations(range(pair.chart.n), 2))}
    v = table[:, column[0, 3]]
    expected = np.zeros_like(v)
    expected[:, 0] = -1.5 * np.asarray(samples, dtype=float)[:, 2]
    worst = float(np.abs(v - expected).max())
    others = [column[ij] for ij in [(0, 1), (0, 4), (1, 3), (1, 4), (3, 4)]]
    ok = bool(np.allclose(v, expected, atol=1e-12)) and not table[:, others].any()
    return CheckLine(suite, "module_commutator", "[X1,X3] = -3/2 x3 d1", "same" if ok else "different", worst, ok)


def catalog_ids() -> list[str]:
    return list(registry.CATALOG)


def run_catalog_id(ident: str, tol: float, samples_n: int, seed: int) -> list[CheckLine]:
    """The suite of a catalog id or an unambiguous bare name."""
    entry = registry.catalog_entry(ident, bare=True)
    suite = f"{entry.kind}:{entry.ident}"
    if entry.kind == "jj":
        return jj_suite(entry, tol, samples_n, seed)
    if entry.kind == "liealg":
        return [_bool_line(suite, *row) for row in entry.verdicts()]
    pair = entry.pair()
    samples = pair.chart.sample_points(samples_n, seed)
    return _verdict_rows(suite, verdict_suite(pair, tol, samples), entry.expect)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _tolerance(text: str) -> float:
    """A --tol value: a finite number >= 0 (NaN or a negative tolerance would
    fail every verdict, inf would pass every one)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got '{text}'")
    return value


def _seed(text: str) -> int:
    """A --seed value: an integer >= 0 in any base Python reads (0x5EED)."""
    try:
        value = int(text, 0)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got '{text}'")
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once; `parse_args` leaves it unchanged."""
    parser = _Parser(prog="sympoisson", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=_tolerance, default=TOL)
    common.add_argument("--samples", type=int, default=N_SAMPLES)
    common.add_argument("--seed", type=_seed, default=SEED)

    p_check = sub.add_parser("check", parents=[common], help="verify a structure file")
    p_check.add_argument("file")

    p_int = sub.add_parser("integrate", help="run dynamics from a structure file")
    p_int.add_argument("file")
    p_int.add_argument("--hamiltonian", default=None, help="'theta_v', or a phase expression")
    p_int.add_argument("--x0", required=True, help="comma-separated base point")
    p_int.add_argument("--p0", required=True, help="comma-separated momentum")
    p_int.add_argument("--dt", type=float, default=DT)
    p_int.add_argument("--steps", type=int, default=1000)
    p_int.add_argument("--monitors", default="hamiltonian")
    p_int.add_argument("--out", default=None)

    p_cat = sub.add_parser("catalog", parents=[common], help="run expected-verdict suites")
    group = p_cat.add_mutually_exclusive_group(required=True)
    group.add_argument("--id", dest="ident")
    group.add_argument("--all", action="store_true")
    p_cat.set_defaults(format="text", out=None)

    p_rep = sub.add_parser("report", parents=[common], help="run the full battery")
    p_rep.add_argument("--format", choices=["text", "csv"], default="text")
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(ident=None)
    return parser


def _verdict_error(err: Exception, names=None) -> int:
    """Report a library error raised while computing verdicts; its exit code.

    A domain error is a numeric failure, its subterm printed in `names`; any
    other expression or geometry error (such as a sample count below 1) is a
    usage error.
    """
    if isinstance(err, EvalDomainError):
        print(f"error: {err.named(names)}", file=sys.stderr)
        return NUMERIC_FAILURE
    print(f"error: {err}", file=sys.stderr)
    return USAGE_ERROR


def _write(path: str, text: str) -> bool:
    """Write `text` to the file `path`; on failure say why and return False."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as err:
        print(f"error: cannot write {path}: {err.strerror or err}", file=sys.stderr)
        return False
    return True


def cmd_check(args) -> int:
    try:
        sf = load_structure(args.file)
    except (StructureFileError, ParseError, ExprError, GeometryError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    try:
        samples = sf.pair.chart.sample_points(args.samples, args.seed)
        lines = _verdict_rows("check", verdict_suite(sf.pair, args.tol, samples), sf.expect)
        lines += _probe_lines("check", sf.pair, sf.probes)
    except (ExprError, GeometryError) as err:
        return _verdict_error(err, sf.pair.chart.names)
    report = Report(lines, args.samples, args.seed, args.tol)
    sys.stdout.write(report.render_text())
    return 0 if report.ok else MISMATCH


def cmd_integrate(args) -> int:
    if args.steps < 1 or not (math.isfinite(args.dt) and args.dt > 0):
        print("error: need --steps >= 1 and a finite --dt > 0", file=sys.stderr)
        return USAGE_ERROR
    try:
        sf = load_structure(args.file)
        pair = sf.pair
        chart = pair.chart
        x0 = tuple(_number(float, t, "--x0") for t in args.x0.split(","))
        p0 = tuple(_number(float, t, "--p0") for t in args.p0.split(","))
        state = CotangentState(x0, p0)
        if len(x0) != chart.n:
            raise StructureFileError("--x0 has the wrong dimension")
        phase_names(chart)  # refuses a base coordinate named like a momentum, whatever H is
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
                if args.steps < 2:
                    raise StructureFileError("the geodesic_residual monitor needs --steps >= 2")
                want_geo = True
            elif m != "hamiltonian":
                raise StructureFileError(f"unknown monitor '{m}'")
    except (StructureFileError, ParseError, ExprError, GeometryError, DynamicsError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR

    code = 0
    try:
        traj = integrate_pw(pair.nabla, h, state, args.dt, args.steps, extra)
    except TrajectoryError as err:
        print(f"error: {err}", file=sys.stderr)
        traj = err.trajectory
        code = NUMERIC_FAILURE
    if want_geo and len(traj.xs) >= 3:
        try:
            res = monitor_geodesic_residual(pair, traj)
        except EvalDomainError as err:
            print(f"error: {err.named(chart.names)} in the geodesic_residual monitor", file=sys.stderr)
            code = NUMERIC_FAILURE
        except DynamicsError as err:
            print(f"error: {err}", file=sys.stderr)
            code = NUMERIC_FAILURE
        else:
            traj.channels["geodesic_residual"] = np.concatenate([[np.nan], res, [np.nan]])

    csv_text = trajectory_to_csv(traj)
    if args.out:
        if not _write(args.out, csv_text):
            return USAGE_ERROR
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
    """`catalog` and `report`: the suites of one catalog id, or of every id."""
    idents = catalog_ids() if args.ident is None else [args.ident]
    try:
        lines = [line for ident in idents for line in run_catalog_id(ident, args.tol, args.samples, args.seed)]
    except registry.CatalogError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (ExprError, GeometryError) as err:
        return _verdict_error(err)
    report = Report(lines, args.samples, args.seed, args.tol)
    text = report.render_csv() if args.format == "csv" else report.render_text()
    if args.out:
        if not _write(args.out, text):
            return USAGE_ERROR
    else:
        sys.stdout.write(text)
    return 0 if report.ok else MISMATCH


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command != "integrate" and args.samples < 1:
        # checked before any suite runs: a liealg: suite samples nothing
        print(f"error: sample count must be at least 1, got {args.samples}", file=sys.stderr)
        return USAGE_ERROR
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "integrate":
            return cmd_integrate(args)
        return cmd_catalog(args)
    except RecursionError:
        # differentiation recurses down an expression tree
        print("error: expression nested too deeply", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
