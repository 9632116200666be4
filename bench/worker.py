"""One benchmark process: set up a workload, run it closed-loop, check outputs.

Started by run.py, one fresh process per workload run.  It prints "ready"
once sympoisson is imported and the inputs of the first pass are generated,
then a line with the current calibration time.  Unless --setup-only, it then
runs whole passes until --seconds have elapsed, one operation at a time, and
prints one JSON line with the latencies, the failures, its peak RSS and, with
--trace 1, the per-layer metrics.

With --trace 1 the first half of the time runs untraced and the second half
traced, both from pass 0, so the tracing overhead is measured in the same
process and the traced pass counts repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# The machine this runs on has stretches of seconds to minutes in which all
# code runs up to twice as slowly.  Right before and right after every
# operation the worker times `calibrate`, a fixed piece of interpreter-bound
# work that does not use sympoisson, and scales the operation's latency to the
# speed at which `calibrate` takes CALIBRATION_REF_S (see `speed_factors`).
# Scaled times therefore compare across runs made at different machine speeds.
CALIBRATION_REF_S = 0.6e-3


def calibrate() -> float:
    """Seconds taken by the fixed reference work: build and walk a tree.

    The garbage collector is off meanwhile, so that a collection of objects
    sympoisson keeps alive is not charged to the reference."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _reference_work()
    finally:
        if gc_was_enabled:
            gc.enable()


def _reference_work() -> float:
    start = perf_counter()

    def build(depth):
        return ("+", build(depth - 1), build(depth - 1)) if depth else ("c", 1.5)

    def walk(t):
        return walk(t[1]) * 0.5 + walk(t[2]) if t[0] == "+" else t[1]

    tree = build(9)
    for _ in range(4):
        walk(tree)
    return perf_counter() - start


def speed_factors(spans: list[tuple[float, float]], calibrations: list[tuple[float, float]]) -> list[float]:
    """CALIBRATION_REF_S over the median calibration time near each operation.

    `spans` are the operations' (start, end) times and `calibrations` the
    (time, seconds) of every calibration, in time order.  An operation lasting
    d uses the calibrations timed within d of it: a short operation only its
    own two, a long one also its neighbours', which follow a change of speed
    during it better than the two at its ends.
    """
    times = [t for t, _ in calibrations]
    factors = []
    for start, end in spans:
        d = end - start
        near = calibrations[bisect_left(times, start - d):bisect_right(times, end + d)]
        factors.append(CALIBRATION_REF_S / statistics.median(c for _, c in near))
    return factors


def import_package():
    """Import sympoisson from this checkout's sources, never an installed copy."""
    package = SRC / "sympoisson"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no sympoisson sources at {package}")
    sys.path.insert(0, str(SRC))
    import sympoisson

    if Path(sympoisson.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported sympoisson from {sympoisson.__file__}, not {package}")
    return sympoisson


def run_phase(workload, seconds: float, first_pass=None, tracer=None) -> dict:
    """Run passes until `seconds` have elapsed; the last pass always completes."""
    spans: list[tuple[float, float]] = []
    calibrations: list[tuple[float, float]] = []
    labels: list[str] = []
    failures: list[str] = []
    first_pass_ops, first_pass_counts = 0, Counter()
    deadline = perf_counter() + seconds
    k = 0
    while True:
        ops = first_pass if k == 0 and first_pass is not None else workload.make_pass(k)
        for op in ops:
            before = calibrate()
            if tracer is not None:
                tracer.op = len(spans)
            start = perf_counter()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # noqa: BLE001 - a raising operation is a failed operation
                error = f"raised {type(exc).__name__}: {exc}"
            end = perf_counter()
            spans.append((start, end))
            labels.append(op.label)
            if tracer is not None:
                tracer.op = None
            calibrations += [(start, before), (end, calibrate())]
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:  # noqa: BLE001 - an output that breaks the check is wrong
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error:
                failures.append(f"{op.label}: {error}")
        k += 1
        if k == 1:
            first_pass_ops = len(spans)
            if tracer is not None:
                first_pass_counts = Counter(tracer.counts)
        if perf_counter() >= deadline:
            break
    latencies = [end - start for start, end in spans]
    factors = speed_factors(spans, calibrations)
    return {
        "latencies": [t * f for t, f in zip(latencies, factors)],
        "raw_latencies": latencies,
        "speed": statistics.median(factors),
        "labels": labels,
        "failures": failures,
        "passes": k,
        "first_pass_ops": first_pass_ops,
        "first_pass_counts": first_pass_counts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    package = import_package()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    first_pass = workload.make_pass(0)
    print("ready", flush=True)
    print(statistics.median(calibrate() for _ in range(5)), flush=True)
    if args.setup_only:
        return 0

    result: dict = {"trace": None}
    if args.trace:
        plain = run_phase(workload, args.seconds / 2, first_pass)
        tracer = tracing.Tracer()
        modules = {name: sys.modules[f"{package.__name__}.{name}"] for name in tracing.LAYERS}
        tracer.install(modules)
        traced = run_phase(workload, args.seconds / 2, tracer=tracer)
        metrics = tracer.metrics(len(traced["latencies"]), traced["first_pass_ops"], traced["first_pass_counts"],
                                 traced["speed"])
        untraced_rate = len(plain["latencies"]) / sum(plain["latencies"])
        traced_rate = len(traced["latencies"]) / sum(traced["latencies"])
        metrics["trace.ops_per_s_untraced"] = untraced_rate
        metrics["trace.ops_per_s_traced"] = traced_rate
        metrics["trace.overhead"] = untraced_rate / traced_rate
        workloads.OUT.mkdir(exist_ok=True)
        trace_file = workloads.OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_file, traced["labels"])
        result["trace"] = {"metrics": metrics, "file": str(trace_file), "spans": len(tracer.spans)}
        phases = [plain, traced]
    else:
        phases = [run_phase(workload, args.seconds, first_pass)]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["latencies"] = phases[-1]["latencies"]
    result["raw_latencies"] = phases[-1]["raw_latencies"]
    result["attempted"] = sum(len(p["latencies"]) for p in phases)
    result["failures"] = [f for p in phases for f in p["failures"]]
    result["passes"] = phases[-1]["passes"]
    result["check_errors"] = workload.final_checks()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
