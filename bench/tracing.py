"""Tracing for the benchmark: spans around sympoisson's public functions.

Nothing here edits the package's source.  `Tracer.install` wraps the public
functions listed in `WRAPPED` from outside and rebinds every name that a
sympoisson module imported with ``from ... import``, so calls made between
modules are traced as well.  Each span records its name, start, end, parent
span, operation id and whether it raised; spans stay in memory until the run
writes them out.

A layer's self time is its spans' durations minus the part of each span that
its child spans cover (`self_times`).  Expression sizes are counted by walking
the public node fields of the expressions handed to residual and evaluate
calls (`node_counts`); that walk runs inside a `trace.count` span so that it
is not charged to the layer that called it.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("expr", "geometry", "poisson", "jj", "liealg", "registry", "algebroid", "pw", "cli")

_BUILD = (
    "covariant_derivative", "symmetric_derivative", "schouten", "schouten_decomposable",
    "multi_contract", "contract", "sym_product", "lie_bracket", "levi_civita",
    "invert_metric", "raise_indices",
)

# (module, attribute path, bucket): the bucket names the per-layer metric.
WRAPPED = [
    ("expr", "parse", "expr.parse"),
    ("geometry", "Chart.parse", "expr.parse"),
    ("expr", "compile_expr", "expr.compile"),
    *[("geometry", name, "geometry.build") for name in _BUILD],
    ("geometry", "_SymField.residual_on", "geometry.residual"),
    ("geometry", "MixedDerivative.residual_on", "geometry.residual"),
    ("geometry", "CurvatureField.is_zero_on", "geometry.residual"),
    ("geometry", "_SymField.evaluate", "geometry.evaluate"),
    ("geometry", "CurvatureField.evaluate", "geometry.evaluate"),
    ("poisson", "symmetric_poisson_residual", "poisson.sp_residual"),
    ("poisson", "strong_residual", "poisson.strong_residual"),
    ("poisson", "parallel_residual", "poisson.parallel_residual"),
    ("poisson", "involutivity_check", "poisson.involutivity"),
    ("poisson", "characteristic_data", "poisson.characteristic_data"),
    ("jj", "catalog_entry", "jj.catalog"),
    ("jj", "is_jacobi_jordan", "jj.exact"),
    ("jj", "is_associative", "jj.exact"),
    ("jj", "to_linear_structure", "jj.exact"),
    ("liealg", "algebra", "liealg.algebra"),
    *[("liealg", f"li_is_{v}", "liealg.verdict") for v in ("parallel", "strong", "symmetric_poisson", "involutive")],
    ("registry", "build", "registry.build"),
    ("algebroid", "killing_via_schouten", "algebroid.killing_via_schouten"),
    ("algebroid", "derived_bracket_check", "algebroid.derived_bracket"),
    ("pw", "pw_gradient", "pw.gradient"),
    ("pw", "integrate_pw", "pw.step"),
    ("pw", "monitor_geodesic_residual", "pw.geodesic_monitor"),
    ("pw", "trajectory_to_csv", "pw.csv"),
    ("cli", "load_structure", "cli.load_structure"),
    ("cli", "Report.render_text", "cli.render"),
    ("cli", "Report.render_csv", "cli.render"),
]

# Per-layer metrics in report order: (name, unit).  Counts are per pass (the
# first traced pass); times are per operation unless the name says otherwise.
PER_OP_MS = [
    "expr.parse", "expr.compile", "geometry.build", "geometry.residual",
    "poisson.sp_residual", "poisson.strong_residual", "poisson.parallel_residual",
    "poisson.involutivity", "jj.catalog", "jj.exact", "liealg.algebra", "liealg.verdict",
    "registry.build", "algebroid.killing_via_schouten", "algebroid.derived_bracket",
    "pw.gradient", "cli.load_structure", "cli.render",
]
PASS_COUNTS = ["expr.tree_nodes", "expr.dag_nodes", "expr.unique_nodes", "geometry.residual.evals", "pw.rhs_evals"]
METRICS = (
    [(f"{b}.ms", "ms") for b in PER_OP_MS]
    + [(name, "count") for name in PASS_COUNTS]
    + [
        ("expr.redundancy", "ratio"),
        ("expr.eval.ns_per_node_sample", "ns"),
        ("geometry.evaluate.us", "us"),
        ("poisson.characteristic_data.us", "us"),
        ("pw.step.us", "us"),
        ("pw.geodesic_monitor.us_per_step", "us"),
        ("pw.csv.us_per_row", "us"),
    ]
    + [(f"{layer}.{kind}", "count") for layer in LAYERS for kind in ("calls", "errors")]
    + [("trace.ops_per_s_untraced", "1/s"), ("trace.ops_per_s_traced", "1/s"), ("trace.overhead", "ratio")]
)

_CHILDREN = ("left", "right", "base", "arg")
_ATOMS = ("op", "value", "index", "exponent", "func")


def node_counts(roots) -> tuple[int, int, int]:
    """(tree, dag, unique) node counts over a list of expression roots.

    tree counts nodes with multiplicity, as a tree walk evaluates them; dag
    counts distinct node objects; unique counts structurally distinct nodes.
    """
    size: dict[int, int] = {}
    canon: dict[int, int] = {}
    keys: dict[tuple, int] = {}

    def walk(e) -> tuple[int, int]:
        k = id(e)
        if k not in size:
            kids = [walk(c) for c in (getattr(e, a, None) for a in _CHILDREN) if c is not None]
            size[k] = 1 + sum(s for s, _ in kids)
            key = (type(e).__name__, tuple(getattr(e, a, None) for a in _ATOMS), tuple(c for _, c in kids))
            canon[k] = keys.setdefault(key, len(keys))
        return size[k], canon[k]

    tree = sum(walk(r)[0] for r in roots)
    return tree, len(size), len(keys)


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus the time its children cover.

    `spans` is a list of (name, start, end, parent_index, ...) tuples; the
    covered part is the union of the children's intervals clipped to the
    parent, so overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[3] is not None:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _resolve(owner, path: str):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and counters for one traced phase of a run."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, op, raised)
        self.counts: Counter = Counter()
        self.bucket: dict[str, str] = {}
        self.op: int | None = None
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, float]:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, perf_counter()

    def _close(self, sid: int, name: str, start: float, raised: bool):
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[sid] = (name, start, end, parent, self.op, raised)

    def wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, start = tracer._open()
            raised = False
            try:
                if before is not None:
                    tracer._counting(before, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    tracer._counting(after, result)
                return result
            except BaseException:
                raised = True
                raise
            finally:
                tracer._close(sid, name, start, raised)

        return traced

    def _counting(self, hook, *args):
        sid, start = self._open()
        try:
            hook(self, *args)
        finally:
            self._close(sid, "trace.count", start, False)

    # -- installation ------------------------------------------------------

    def install(self, package_modules: dict):
        """Wrap every function in WRAPPED and rebind imported aliases of it."""
        for mod_name, path, bucket in WRAPPED:
            owner, attr = _resolve(package_modules[mod_name], path)
            original = owner.__dict__[attr]
            name = f"{mod_name}.{path}"
            hooks = _HOOKS.get(bucket, {})
            wrapped = self.wrap(name, original, **hooks)
            self.bucket[name] = bucket
            setattr(owner, attr, wrapped)
            for module in package_modules.values():
                for alias, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, alias, wrapped)
        # catalog entries keep their builder in a field, not behind registry.build
        registry = package_modules["registry"]
        for ident, entry in registry.CHART_ENTRIES.items():
            name = f"registry.CHART_ENTRIES[{ident}].build"
            self.bucket[name] = "registry.build"
            object.__setattr__(entry, "build", self.wrap(name, entry.build))

    # -- reporting ---------------------------------------------------------

    def metrics(self, ops: int, first_pass_ops: int, first_pass_counts: Counter, speed: float = 1.0) -> dict[str, float]:
        """Per-layer metrics over the traced phase (`ops` operations); times
        are multiplied by `speed`, the phase's calibration factor."""
        selft = self_times(self.spans)
        busy: Counter = Counter()
        calls: Counter = Counter()
        layer_calls: Counter = Counter()
        layer_errors: Counter = Counter()
        for span, own in zip(self.spans, selft):
            name, _, _, _, op, raised = span
            bucket = self.bucket.get(name)
            if bucket is None:
                continue
            busy[bucket] += own * speed
            calls[bucket] += 1
            if op is not None and op < first_pass_ops:
                layer = bucket.split(".")[0]
                layer_calls[layer] += 1
                layer_errors[layer] += int(raised)
        c = first_pass_counts
        tot = self.counts

        def per(value, base, scale):
            return scale * value / base if base else 0.0

        out = {f"{b}.ms": per(busy[b], ops, 1e3) for b in PER_OP_MS}
        out.update({name: float(c[name]) for name in PASS_COUNTS})
        out["expr.redundancy"] = 1.0 - c["expr.unique_nodes"] / c["expr.tree_nodes"] if c["expr.tree_nodes"] else 0.0
        out["expr.eval.ns_per_node_sample"] = per(busy["geometry.residual"], tot["residual.node_samples"], 1e9)
        out["geometry.evaluate.us"] = per(busy["geometry.evaluate"], calls["geometry.evaluate"], 1e6)
        out["poisson.characteristic_data.us"] = per(
            busy["poisson.characteristic_data"], calls["poisson.characteristic_data"], 1e6
        )
        out["pw.step.us"] = per(busy["pw.step"], tot["pw.steps"], 1e6)
        out["pw.geodesic_monitor.us_per_step"] = per(busy["pw.geodesic_monitor"], tot["pw.geodesic_steps"], 1e6)
        out["pw.csv.us_per_row"] = per(busy["pw.csv"], tot["pw.csv_rows"], 1e6)
        for layer in LAYERS:
            out[f"{layer}.calls"] = float(layer_calls[layer])
            out[f"{layer}.errors"] = float(layer_errors[layer])
        return out

    def write(self, path, op_labels: list[str]):
        with open(path, "w") as fh:
            for op, label in enumerate(op_labels):
                fh.write(json.dumps({"op": op, "label": label}) + "\n")
            for sid, (name, start, end, parent, op, raised) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end,
                     "parent": parent, "op": op, "error": raised}
                ) + "\n")


# -- counting hooks ----------------------------------------------------------

def _is_zero_const(e) -> bool:
    return type(e).__name__ == "Const" and e.value == 0.0


def _count_exprs(tracer: Tracer, roots, samples: int, residual: bool):
    tree, dag, unique = node_counts(roots)
    tracer.counts["expr.tree_nodes"] += tree
    tracer.counts["expr.dag_nodes"] += dag
    tracer.counts["expr.unique_nodes"] += unique
    if residual:
        tracer.counts["geometry.residual.evals"] += len(roots) * samples
        tracer.counts["residual.node_samples"] += tree * samples


def _residual_before(tracer, args, kwargs):
    field = args[0]
    samples = args[1] if len(args) > 1 else kwargs.get("samples")
    if samples is None:
        samples = field.chart.sample_points()
    roots = list(field.comps.flat)
    if type(field).__name__ not in ("MixedDerivative", "CurvatureField"):
        # symmetric fields skip structurally zero components when sampling
        roots = [e for e in roots if not _is_zero_const(e)]
    _count_exprs(tracer, roots, len(samples), residual=True)


def _evaluate_before(tracer, args, kwargs):
    _count_exprs(tracer, list(args[0].comps.flat), 1, residual=False)


def _steps_after(tracer, traj):
    tracer.counts["pw.steps"] += traj.steps
    tracer.counts["pw.rhs_evals"] += 4 * traj.steps


def _geodesic_before(tracer, args, kwargs):
    tracer.counts["pw.geodesic_steps"] += max(len(args[1].xs) - 2, 0)


def _csv_before(tracer, args, kwargs):
    tracer.counts["pw.csv_rows"] += len(args[0].xs)


_HOOKS = {
    "geometry.residual": {"before": _residual_before},
    "geometry.evaluate": {"before": _evaluate_before},
    "pw.step": {"after": _steps_after},
    "pw.geodesic_monitor": {"before": _geodesic_before},
    "pw.csv": {"before": _csv_before},
}
