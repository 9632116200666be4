"""Benchmark entry point.

    python3 bench/run.py --workload battery|brackets|integrate --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The set-up time is measured on several
fresh worker processes (spawn until the worker can run its first
operation) and reported as their median; one more worker runs the workload
closed-loop for S seconds.  Times are scaled to a reference machine speed
(see CALIBRATION_REF_S in worker.py).  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The exit code
is 0 only when every operation succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic

from worker import CALIBRATION_REF_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 9
TIME_LIMIT_S = 170.0
MIN_TAIL_BEYOND = 10


def central_median(latencies: list[float]) -> float:
    """The median, estimated as the mean of the values between the 40th and
    60th percentiles, so that it does not jump across a gap between two
    clusters of operation costs."""
    ordered = sorted(latencies)
    n = len(ordered)
    lo, hi = (2 * n) // 5, -(-3 * n // 5)
    return statistics.mean(ordered[lo:max(hi, lo + 1)])


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that still has at least
    MIN_TAIL_BEYOND samples beyond it."""
    n = len(latencies)
    if n <= MIN_TAIL_BEYOND:
        raise ValueError(f"need more than {MIN_TAIL_BEYOND} samples for a tail, got {n}")
    ordered = sorted(latencies)
    rank = n - MIN_TAIL_BEYOND  # 1-based rank with exactly MIN_TAIL_BEYOND samples above it
    return ordered[rank - 1], 100.0 * rank / n


class Worker:
    """A worker process with a watchdog that kills it at the deadline; leaving
    the `with` block kills it if it is still running and waits for it."""

    def __init__(self, args, deadline: float, setup_only: bool):
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if setup_only:
            cmd.append("--setup-only")
        self.started = monotonic()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(deadline - self.started, 1.0), self.proc.kill)
        self.timer.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def wait_ready(self) -> float | None:
        """Set-up time, scaled by the calibration time the worker reports next."""
        line = self.proc.stdout.readline()
        elapsed = monotonic() - self.started
        calibration = self.proc.stdout.readline() if line.strip() == "ready" else ""
        try:
            return elapsed * CALIBRATION_REF_S / float(calibration)
        except ValueError:
            return None

    def finish(self) -> tuple[int, str]:
        rest = self.proc.stdout.read()
        return self.proc.wait(), rest


def measure(args) -> dict | None:
    deadline = monotonic() + TIME_LIMIT_S
    setups = []
    for _ in range(SETUP_PROBES):
        with Worker(args, deadline, setup_only=True) as probe:
            setups.append(probe.wait_ready())
            code, _ = probe.finish()
        if setups[-1] is None or code != 0:
            print(f"error: set-up probe failed with exit code {code}", file=sys.stderr)
            return None
    with Worker(args, deadline, setup_only=False) as worker:
        setups.append(worker.wait_ready())
        code, out = worker.finish()
    if setups[-1] is None or code != 0 or not out.strip():
        print(f"error: worker failed with exit code {code}", file=sys.stderr)
        return None
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    return result


def end_to_end(result: dict) -> tuple[dict, str]:
    lat, raw = result["latencies"], result["raw_latencies"]
    tail, pct = tail_latency(lat)
    metrics = {
        "setup_s": (result["setup_s"], "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_ms_p50": (1e3 * central_median(lat), "ms"),
        "op_ms_tail": (1e3 * tail, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    note = (f"op_ms_tail is p{pct:.2f} of {len(lat)} operations; unscaled: "
            f"{len(raw) / sum(raw):.4g} ops/s, median {1e3 * statistics.median(raw):.4g} ms")
    return metrics, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sympoisson benchmark")
    parser.add_argument("--workload", required=True, choices=["battery", "brackets", "integrate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still stops its worker (see Worker.__exit__)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "sympoisson" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no sympoisson sources (src/sympoisson)", file=sys.stderr)
        return 2
    result = measure(args)
    if result is None:
        return 2

    attempted = result["attempted"]
    failed = len(result["failures"])
    errors = result["failures"] + result["check_errors"]
    for message in errors[:20]:
        print(f"FAILED {message}")
    if args.trace:
        from tracing import METRICS

        values = result["trace"]["metrics"]
        metrics = {name: (values[name], unit) for name, unit in METRICS}
        note = f"trace: {result['trace']['spans']} spans written to {result['trace']['file']}"
    else:
        metrics, note = end_to_end(result)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations, "
          f"{result['passes']} passes); {note}")
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
