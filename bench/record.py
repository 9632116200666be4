"""Record the reference outputs in bench/expected/ from the current sources.

    python3 bench/record.py

Writes the battery's verdict rows per operation (they must be the same for
every sample seed 1..40, which this script checks) and the sha256 digests of
the integrate CSVs for the default seed.  Run it only at a commit whose
behaviour is the reference; the benchmark compares every later commit
against these files.
"""

from __future__ import annotations

import hashlib
import json
import sys

from worker import import_package

import_package()

import workloads  # noqa: E402


def record_battery() -> dict:
    verdicts = {}
    for label, argv in workloads.battery_items():
        seen = set()
        for sample_seed in range(1, 41):
            code, stdout, stderr = workloads.run_cli(argv + ["--seed", str(sample_seed)])
            rows, other = workloads.verdict_lines(stdout)
            if code != 0 or len(other) != 2:
                raise SystemExit(f"{label} --seed {sample_seed}: exit {code}, {other} {stderr}")
            seen.add(json.dumps(rows))
        if len(seen) != 1:
            raise SystemExit(f"{label}: verdict rows depend on the sample seed")
        verdicts[label] = json.loads(seen.pop())
    return verdicts


def record_integrate() -> dict:
    workloads.OUT.mkdir(exist_ok=True)
    digests = {}
    for label, argv, spec in workloads.integrate_ops(workloads.DEFAULT_SEED, "record"):
        code, _, stderr = workloads.run_cli(argv)
        if code != 0:
            raise SystemExit(f"{label}: exit {code}: {stderr}")
        data = spec["out"].read_bytes()
        error = workloads.check_trajectory(spec, data)
        if error:
            raise SystemExit(f"{label}: {error}")
        digests[label] = hashlib.sha256(data).hexdigest()
    return digests


def main() -> int:
    workloads.EXPECTED.mkdir(exist_ok=True)
    for name, data in [("battery_verdicts.json", record_battery()), ("integrate_sha256.json", record_integrate())]:
        (workloads.EXPECTED / name).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
