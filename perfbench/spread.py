"""Run-to-run spread of the end-to-end metrics, and the baseline record.

Run from the repository root:

    python3 perfbench/spread.py --workloads products --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --traced --out perfbench/baseline.json

Runs ``run.py`` once per workload and seed, one process at a time, for the
``run_seconds`` of BENCHMARK.json. For each end-to-end metric it prints the
median and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound. ``--traced`` adds one traced run per workload, with the
first seed. ``--out`` writes every value and the environment as JSON.
``--against`` takes such a file from an earlier set of runs and prints how
far each median got worse since (negative: better), next to the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def _seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [
        sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600, cwd=run.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main(argv=None) -> int:
    spec = run.SPEC
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write all values here as JSON")
    parser.add_argument("--against", help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)
    earlier = {}
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)["workloads"]

    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sign = {m["name"]: 1 if m["better"] == "lower" else -1 for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds:
            result, env = _run(workload, seed, spec["run_seconds"], 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed operations", file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            record["env"] = env
        entry = {"untraced": {name: summarize(v) for name, v in values.items()}}
        for name, s in entry["untraced"].items():
            flag = "ok" if s["spread"] < bounds[name] / 3 else "WIDE"
            print(
                f"{workload:16} {name:13} median {s['median']:12.6g}  "
                f"spread {s['spread']:7.4f}  bound {bounds[name]:.2f}  {flag}",
                flush=True,
            )
            if workload in earlier:
                before = earlier[workload]["untraced"][name]["median"]
                worse = sign[name] * (s["median"] / before - 1)
                verdict = "ok" if worse <= bounds[name] else "WORSE"
                print(f"{workload:16} {name:13} median worse by {worse:+.4f} than earlier  {verdict}")
        if args.traced:
            result, env = _run(workload, seeds[0], spec["run_seconds"], 1)
            entry["traced"] = {
                "seed": seeds[0],
                "correct": result["correct"],
                "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            }
            print(f"{workload:16} trace.overhead_frac {entry['traced']['metrics']['trace.overhead_frac']:.4f}")
        record["workloads"][workload] = entry
    if args.out:
        for key in ("workload", "seed", "trace", "passes", "ops_per_pass"):
            record["env"].pop(key, None)
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
