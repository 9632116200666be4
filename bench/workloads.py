"""The benchmark's workloads: seeded inputs, operations and output checks.

A workload turns a seed into passes.  A pass is a fixed list of operations
(`Op`); `make_pass(k)` depends only on the workload seed and `k`, so pass k
is the same in every run with that seed.  Each operation calls sympoisson
through module attributes (never through names bound at import), so a traced
run sees every call.  `Op.check` inspects the operation's output and returns
an error message, or None when the output is correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from sympoisson import algebroid, cli, geometry, registry

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected"
OUT = BENCH / "out"

# integrate: the seed whose CSV digests were recorded at the seed commit
DEFAULT_SEED = 1


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _rng(seed: int, k: int) -> random.Random:
    return random.Random(seed * 1_000_003 + k)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process `sympoisson` command: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# battery: check / catalog verdicts
# ---------------------------------------------------------------------------

STRUCTURE_FILES = ["flat_11", "inclusion", "nondeg_kill", "oscillator", "r5", "sing_line"]

_LINE = re.compile(
    r"^(?P<key>\S.*?)\s+expected=(?P<expected>.*?) got=(?P<got>.*?)(?: residual=\S+)? \[(?P<status>ok|MISMATCH)\]$"
)


def verdict_lines(stdout: str) -> tuple[list[list[str]], list[str]]:
    """Parse a text report into sorted [check, expected, got] rows plus the
    lines that are not check rows (header and summary)."""
    rows, other = [], []
    for line in stdout.splitlines():
        m = _LINE.match(line)
        if m is None:
            other.append(line)
        elif m["status"] != "ok":
            other.append(line)
        else:
            rows.append([m["key"], m["expected"], m["got"]])
    return sorted(rows), other


def battery_items() -> list[tuple[str, list[str]]]:
    items = [(f"catalog --id {ident}", ["catalog", "--id", ident]) for ident in cli.catalog_ids()]
    for name in STRUCTURE_FILES:
        rel = f"structures/{name}.ini"
        items.append((f"check {rel}", ["check", str(ROOT / rel)]))
    return items


class Battery:
    """Every catalog id and every structure file, shuffled per pass, each with
    a sample seed drawn from 1..40."""

    def __init__(self, seed: int):
        self.seed = seed
        self.items = battery_items()
        self.expected = json.loads((EXPECTED / "battery_verdicts.json").read_text())

    def make_pass(self, k: int) -> list[Op]:
        rng = _rng(self.seed, k)
        order = list(self.items)
        rng.shuffle(order)
        ops = []
        for label, argv in order:
            sample_seed = str(rng.randint(1, 40))
            ops.append(Op(label, lambda a=argv + ["--seed", sample_seed]: run_cli(a),
                          lambda r, label=label: self._check(label, r)))
        return ops

    def _check(self, label: str, result) -> str | None:
        code, stdout, stderr = result
        if code != 0:
            return f"exit code {code}: {stderr.strip()[:200]}"
        rows, other = verdict_lines(stdout)
        if len(other) != 2 or not other[-1].startswith("PASS"):
            return f"unexpected report lines {other[:3]}"
        if rows != self.expected.get(label):
            return "verdict lines differ from the recorded ones"
        return None

    def final_checks(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# brackets: Killing routes, derived bracket, trace formula vs oracle on R^2
# ---------------------------------------------------------------------------

DERIVED_COMBOS = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 3),
                  (1, 2, 3), (1, 1, 3), (2, 1, 3), (3, 1, 3), (1, 3, 3)]
# the acceptance test's degree pairs without (2, 3), which costs as much as
# (3, 2): with it a pass takes a third longer and fewer operations fit a run
SCHOUTEN_DEGREES = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3), (3, 2)]
_FORM_INDICES = {1: [(0,), (1,)], 2: [(0, 0), (0, 1), (1, 1)], 3: [(0, 0, 0), (0, 0, 1), (1, 1, 1)]}


def _chart():
    return geometry.Chart(["x", "y"])


def _poly(rng: random.Random) -> str:
    # no coefficient folds to 0 or +-1, so every draw builds expressions of the
    # same shape and an operation's cost does not depend on the draw
    c = [rng.choice((-1, 1)) * rng.uniform(1.1, 2.9) for _ in range(3)]
    return f"{c[0]:.4f} + {c[1]:.4f}*x + {c[2]:.4f}*y"


def _vectors(rng, count: int) -> list[tuple[str, str]]:
    return [(_poly(rng), _poly(rng)) for _ in range(count)]


def _vector_fields(chart, specs):
    return [geometry.SymTensorField.from_dict(chart, 1, {(0,): a, (1,): b}) for a, b in specs]


def _metric_entries(rng) -> dict:
    a, b, c = (rng.uniform(-0.5, 0.5) for _ in range(3))
    return {(0, 0): f"2 + {a:.6f}*x", (0, 1): f"{b:.6f}", (1, 1): f"2 + {c:.6f}*y"}


def _killing_pair(g_entries: dict, k_spec):
    chart = _chart()
    g = geometry.SymFormField.from_dict(chart, 2, g_entries)
    kind, value = k_spec
    if kind == "g":
        k = g
    elif kind == "scaled":
        k = g.scale(value)
    else:
        k = geometry.SymFormField.from_dict(chart, 2, value)
    return g, k


def _is_killing(g_entries, k_spec) -> bool:
    g, k = _killing_pair(g_entries, k_spec)
    return geometry.is_killing(geometry.levi_civita(g), k)


def _killing_via_schouten(g_entries, k_spec) -> bool:
    g, k = _killing_pair(g_entries, k_spec)
    return algebroid.killing_via_schouten(g, k)


def _derived_residual(x_specs, y_specs, phi_degree, phi_entries) -> float:
    chart = _chart()
    conn = registry.kill_connection(chart)
    x = geometry.sym_product_many(_vector_fields(chart, x_specs))
    y = geometry.sym_product_many(_vector_fields(chart, y_specs))
    phi = geometry.SymFormField.from_dict(chart, phi_degree, phi_entries)
    return algebroid.derived_bracket_check(conn, x, y, phi).residual_on()


def _schouten_deviation(x_specs, y_specs, sample_seed) -> float:
    chart = _chart()
    conn = registry.kill_connection(chart)
    xs, ys = _vector_fields(chart, x_specs), _vector_fields(chart, y_specs)
    lhs = geometry.schouten(conn, geometry.sym_product_many(xs), geometry.sym_product_many(ys))
    rhs = geometry.schouten_decomposable(conn, xs, ys)
    worst = 0.0
    for p in chart.sample_points(25, sample_seed):
        a, b = lhs.evaluate(p), rhs.evaluate(p)
        scale = 1.0 + max(abs(a).max(), abs(b).max())
        worst = max(worst, float(abs(a - b).max()) / scale)
    return worst


def _at_most(bound: float):
    def check(value) -> str | None:
        if not (math.isfinite(value) and value <= bound):
            return f"residual {float(value):.3g} exceeds {bound:g}"
        return None
    return check


class Brackets:
    """Per pass: one random metric g with K = g, c*g and a random form, each
    through both Killing routes; every derived-bracket degree combination;
    every trace-formula vs decomposable-oracle degree pair."""

    def __init__(self, seed: int):
        self.seed = seed

    def make_pass(self, k: int) -> list[Op]:
        rng = _rng(self.seed, k)
        ops = []
        g_entries = _metric_entries(rng)
        scale = rng.choice((-1, 1)) * rng.uniform(0.5, 3.0)
        random_form = {(0, 0): f"{rng.uniform(-1, 1):.6f}*x", (0, 1): f"{rng.uniform(-1, 1):.6f}",
                       (1, 1): f"{rng.uniform(-1, 1):.6f}*y"}
        for k_spec in [("g", None), ("scaled", scale), ("form", random_form)]:
            direct: dict = {}
            must_hold = k_spec[0] != "form"

            def check_direct(value, direct=direct, must_hold=must_hold):
                direct["value"] = value
                return "metric-compatible K is not Killing" if must_hold and not value else None

            def check_via(value, direct=direct, must_hold=must_hold):
                if "value" not in direct:
                    return "no direct Killing verdict to compare with"
                if bool(value) != bool(direct["value"]):
                    return f"Killing routes disagree: direct {direct['value']}, via bracket {value}"
                return "metric-compatible K is not Killing" if must_hold and not value else None

            ops.append(Op(f"is_killing K={k_spec[0]}", lambda s=k_spec: _is_killing(g_entries, s), check_direct))
            ops.append(Op(f"killing_via_schouten K={k_spec[0]}",
                          lambda s=k_spec: _killing_via_schouten(g_entries, s), check_via))
        for r, l, s in DERIVED_COMBOS:
            args = (_vectors(rng, r), _vectors(rng, l), s, {i: _poly(rng) for i in _FORM_INDICES[s]})
            ops.append(Op(f"derived_bracket ({r},{l},{s})", lambda a=args: _derived_residual(*a), _at_most(1e-9)))
        for r, l in SCHOUTEN_DEGREES:
            args = (_vectors(rng, r), _vectors(rng, l), rng.randint(1, 2**31))
            ops.append(Op(f"schouten vs decomposable ({r},{l})", lambda a=args: _schouten_deviation(*a),
                          _at_most(1e-8)))
        return ops

    def final_checks(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# integrate: compiled RK4, monitors and CSV output
# ---------------------------------------------------------------------------

# (structure file, extra arguments, dimension); every chart's box is [-1, 1]^n
INTEGRATE_STRUCTURES = [
    ("nondeg_kill", ["--hamiltonian", "theta_v"], 2),
    ("oscillator", [], 1),
    ("r5", [], 5),
    ("inclusion", ["--hamiltonian", "theta_v"], 2),
]
MONITORS = ["hamiltonian", "hamiltonian,speed_sq", "hamiltonian,speed_sq,geodesic_residual"]
STEPS = 1000
DT = 1e-3


def _point(rng, n: int) -> str:
    return ",".join(f"{rng.uniform(-1, 1):.6f}" for _ in range(n))


def integrate_ops(seed: int, prefix: str) -> list[tuple[str, list[str], dict]]:
    """The 24 integrate calls for a seed: every structure with every monitor
    set, twice, from seeded initial points."""
    rng = _rng(seed, 0)
    calls = []
    for i in range(2 * len(INTEGRATE_STRUCTURES) * len(MONITORS)):
        name, extra, n = INTEGRATE_STRUCTURES[i % len(INTEGRATE_STRUCTURES)]
        monitors = MONITORS[i % len(MONITORS)]
        x0, p0 = _point(rng, n), _point(rng, n)
        out = OUT / f"{prefix}-{i:02d}.csv"
        argv = ["integrate", str(ROOT / f"structures/{name}.ini"), *extra, f"--x0={x0}", f"--p0={p0}",
                "--steps", str(STEPS), "--dt", repr(DT), "--monitors", monitors, "--out", str(out)]
        label = f"integrate {name} [{monitors}] #{i:02d}"
        calls.append((label, argv, {"name": name, "n": n, "x0": x0, "p0": p0, "out": out}))
    return calls


def check_trajectory(spec: dict, data: bytes) -> str | None:
    """Row count, finiteness, and the oscillator's closed form."""
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if len(rows) != STEPS + 1:
        return f"{len(rows)} rows, expected {STEPS + 1}"
    geo = header.index("geodesic_residual") if "geodesic_residual" in header else None
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            padded = c == geo and r in (0, STEPS)
            if math.isfinite(v) == padded:
                return f"row {r} column {header[c]} is {v!r}"
    if spec["name"] == "oscillator":
        x0, p0 = float(spec["x0"]), float(spec["p0"])
        worst = max(abs(row[1] - (x0 * math.cos(row[0]) + p0 * math.sin(row[0]))) for row in rows)
        if worst > 1e-8:
            return f"oscillator departs from x0 cos t + p0 sin t by {worst:.3g}"
    return None


class Integrate:
    """The same 24 integrate calls every pass; their CSVs must not change
    between passes, and the default seed's CSVs must match the recorded
    digests."""

    def __init__(self, seed: int):
        self.seed = seed
        self.recorded = json.loads((EXPECTED / "integrate_sha256.json").read_text())
        self.calls = integrate_ops(seed, "integrate")
        self.digests: dict[str, str] = {}
        OUT.mkdir(exist_ok=True)

    def _op(self, label: str, argv: list[str], spec: dict, digest: str | None) -> Op:
        def check(result) -> str | None:
            code, _, stderr = result
            if code != 0:
                return f"exit code {code}: {stderr.strip()[:200]}"
            data = spec["out"].read_bytes()
            got = hashlib.sha256(data).hexdigest()
            if got != self.digests.setdefault(label, got):
                return "CSV bytes differ from the first pass"
            if digest is not None and got != digest:
                return "CSV digest differs from the recorded one"
            return check_trajectory(spec, data)
        return Op(label, lambda: run_cli(argv), check)

    def make_pass(self, k: int) -> list[Op]:
        recorded = self.seed == DEFAULT_SEED
        return [self._op(label, argv, spec, self.recorded[label] if recorded else None)
                for label, argv, spec in self.calls]

    def final_checks(self) -> list[str]:
        """Run the default seed's calls once, untimed, against the recorded digests."""
        errors = []
        for label, argv, spec in integrate_ops(DEFAULT_SEED, "golden"):
            op = self._op(f"golden {label}", argv, spec, self.recorded[label])
            try:
                error = op.check(op.run())
            except Exception as exc:  # noqa: BLE001 - any failure is a check failure
                error = f"{type(exc).__name__}: {exc}"
            if error:
                errors.append(f"{op.label}: {error}")
        return errors


WORKLOADS = {"battery": Battery, "brackets": Brackets, "integrate": Integrate}
