"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. Runs every workload at minimal size (``--size mini``), untraced and
   traced, each in its own process, and asserts that the last output line
   carries exactly the metrics and units that BENCHMARK.json names, with no
   failed operation.
2. In this process, swaps in a wrong ``algebra.twist`` (and, for tables, a
   wrong ``analysis.twist_batch``) and asserts that the checks count
   failed operations.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import run


def _last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_emitted_metrics(spec: dict) -> None:
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [
                sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
                "--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--size", "mini",
            ]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=run.ROOT)
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            result = _last_json_line(proc.stdout)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert emitted == declared[trace], (workload, trace, set(emitted) ^ set(declared[trace]))
            for name, entry in result["metrics"].items():
                value = entry["value"]
                assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
            print(f"selftest: {workload} trace={trace}: {len(emitted)} metrics")


def check_wrong_results_fail() -> None:
    run.load_package()
    from cdtwist import algebra, analysis

    def wrong_twist(A, B, level, _right=algebra.twist):
        return _right(A, B, level) ^ 1

    def wrong_batch(A, B, level, _right=analysis.twist_batch):
        return _right(A, B, level) ^ 1

    cases = [
        (algebra, "twist", wrong_twist, ("verify", "products")),
        (analysis, "twist_batch", wrong_batch, ("tables",)),
    ]
    for owner, attr, wrong, workload_names in cases:
        right = getattr(owner, attr)
        setattr(owner, attr, wrong)
        try:
            for workload in workload_names:
                result, _ = run.run_workload(workload, seed=7, seconds=0, trace=False, mini=True)
                assert result["failed"] > 0 and not result["correct"], (attr, workload, result)
                print(f"selftest: wrong {attr}: {workload} failed {result['failed']} of {result['attempted']}")
        finally:
            setattr(owner, attr, right)


def main() -> int:
    check_emitted_metrics(run.SPEC)
    check_wrong_results_fail()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
