"""cdtwist benchmark: one seeded, time-boxed workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``verify``, ``products`` and ``tables``.
All are closed loops: one caller, and each operation starts when the
previous one returns. A pass runs the workload's operation list once,
starting from empty package caches, as a fresh `cdtwist` process would.
Passes repeat until ``--seconds`` have elapsed; the first pass always
completes, and no operation starts after the deadline. Every result is
checked outside the timed region; a result that raises or fails its check
counts in ``failed``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics:

* ``wall_s``: time of one pass, from the first operation to the last. Each
  operation counts with its median time over the passes run.
* ``setup_s``: from starting a new interpreter until it has imported the
  package and generated the seeded inputs; the median of several such
  interpreters, started at even intervals over the run so that the
  machine's drifting speed is sampled as for ``wall_s``.
* ``peak_rss_mib``: ``ru_maxrss`` of this process.

``attempted`` and ``failed`` count operation runs. With ``--trace 1`` the
run alternates untraced and traced passes, starting and ending untraced,
until ``--seconds`` have elapsed (at least one traced pass). It reports
the per-layer metrics of the first traced pass, and
``trace.overhead_frac``: the median over traced passes of the traced
pass time over the mean of the two untraced passes around it, minus 1.
The first traced pass's spans go to ``perfbench/out/``. Metric names and
units are those of BENCHMARK.json. Earlier lines of standard output record
the environment and each metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 5

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
# Metric names and units, in output order, for --trace 0 and --trace 1.
UNITS = {key: {m["name"]: m["unit"] for m in SPEC[key]} for key in ("end_to_end", "per_layer")}

# Run in a new interpreter by fresh_setup_s: import the package (through
# workloads) and generate the inputs, then say so.
_SETUP_CHILD = """
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), sys.argv[5] == "mini", sys.argv[6])
print("ready", flush=True)
"""

# One process, one thread: no numpy worker threads either.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def load_package():
    """Import numpy and cdtwist from this checkout's ``src/``.

    Raises ImportError when the sources are missing, including when another
    copy of cdtwist is importable from elsewhere.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import numpy
    import cdtwist

    if not os.path.abspath(cdtwist.__file__).startswith(SRC + os.sep):
        raise ImportError(f"cdtwist was imported from {cdtwist.__file__}, not from {SRC}")
    return numpy, cdtwist


class Measurement:
    def __init__(self, ops):
        self.times = [[] for _ in ops]  # seconds, per operation, one per pass
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def wall_s(self) -> float:
        return sum(statistics.median(t) for t in self.times)


def run_pass(ops, m: Measurement, reset_caches, tracer=None, deadline=None, between=None) -> None:
    """Run ``ops`` once from emptied caches, adding each time to ``m``.

    No operation starts after ``deadline``. ``between`` is called between
    operations, outside their timing.
    """
    reset_caches()
    gc.collect()
    for i, op in enumerate(ops):
        if between is not None:
            between()
        if deadline is not None and time.perf_counter() >= deadline:
            return
        m.attempted += 1
        t0 = time.perf_counter()
        try:
            result = tracer.call(f"op:{op.name}", op.run) if tracer else op.run()
        except Exception as exc:  # a failed operation must not end the run
            m.times[i].append(time.perf_counter() - t0)
            _report_failure(m, op, f"raised {exc!r}")
            continue
        m.times[i].append(time.perf_counter() - t0)
        try:
            ok = op.check(result)
        except Exception as exc:
            ok = False
            print(f"perfbench: check of {op.name} raised {exc!r}", file=sys.stderr)
        if not ok:
            _report_failure(m, op, "returned a wrong result")
    m.passes += 1


def measure(ops, seconds: float, reset_caches, between=None) -> Measurement:
    """Run passes over ``ops`` until ``seconds`` have elapsed; the first one whole."""
    m = Measurement(ops)
    deadline = time.perf_counter() + seconds
    run_pass(ops, m, reset_caches, between=between)
    while time.perf_counter() < deadline:
        run_pass(ops, m, reset_caches, deadline=deadline, between=between)
    return m


def measure_traced(ops, seconds: float, reset_caches, memo, tracing):
    """Alternate untraced and traced passes, untraced first and last.

    Returns the tracer of the first traced pass, ``memo.cache_info()``
    right after that pass, the overhead fraction, and the attempted and
    failed counts over all passes.
    """
    deadline = time.perf_counter() + seconds
    before = Measurement(ops)
    run_pass(ops, before, reset_caches)
    passes = [before]
    ratios = []
    first = None
    while not ratios or time.perf_counter() < deadline:
        tracer = tracing.Tracer()
        traced = Measurement(ops)
        with tracer.installed():
            run_pass(ops, traced, reset_caches, tracer)
        if first is None:
            first = tracer, memo.cache_info()
        after = Measurement(ops)
        run_pass(ops, after, reset_caches)
        ratios.append(2 * traced.wall_s() / (before.wall_s() + after.wall_s()))
        passes += [traced, after]
        before = after
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return (*first, statistics.median(ratios) - 1, attempted, failed)


def _report_failure(m: Measurement, op, what: str) -> None:
    m.failed += 1
    if m.failed <= 10:
        print(f"perfbench: {op.name} {what}", file=sys.stderr)


def fresh_setup_s(name: str, seed: int, mini: bool, tmpdir: str) -> float:
    """Seconds from starting a new interpreter until it has imported the
    package and generated the inputs of workload ``name``."""
    argv = [
        sys.executable, "-c", _SETUP_CHILD, SRC, BENCH_DIR,
        name, str(seed), "mini" if mini else "full", tmpdir,
    ]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or ready != "ready\n":
        raise RuntimeError(f"set-up of {name} in a new interpreter exited {proc.returncode}")
    return elapsed


def end_to_end(m: Measurement, setup_s: float) -> dict:
    return {
        "wall_s": m.wall_s(),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, mini: bool = False):
    """Set up and measure one workload in this process.

    Returns (result object for the last output line, environment record).
    """
    numpy, _ = load_package()
    import tracer as tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        ops = workloads.WORKLOADS[name](seed, mini, tmpdir)
        env = environment(name, seed, seconds, trace, mini, numpy.__version__)
        env["ops_per_pass"] = len(ops)
        if not trace:
            setups = []
            next_setup = time.perf_counter()

            def time_setup():
                nonlocal next_setup
                if len(setups) < SETUP_REPEATS and time.perf_counter() >= next_setup:
                    setups.append(fresh_setup_s(name, seed, mini, tmpdir))
                    next_setup += seconds / SETUP_REPEATS

            m = measure(ops, seconds, workloads.reset_caches, between=time_setup)
            while len(setups) < SETUP_REPEATS:
                setups.append(fresh_setup_s(name, seed, mini, tmpdir))
            attempted, failed = m.attempted, m.failed
            env["passes"] = m.passes
            values = end_to_end(m, statistics.median(setups))
            units = UNITS["end_to_end"]
        else:
            tracer, info, overhead, attempted, failed = measure_traced(
                ops, seconds, workloads.reset_caches, workloads.twist_mod.twist_recursive, tracing
            )
            values = tracer.metrics(info.hits, info.misses, overhead)
            units = UNITS["per_layer"]
            tracer.write(os.path.join(OUT, f"spans-{name}-seed{seed}.json.gz"), {"env": env})
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()},
    }
    return result, env


# ---------------------------------------------------------------------------
# environment record


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    best = None
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, entry, "level"))
        size = _read(os.path.join(base, entry, "size"))
        if level and size and (best is None or int(level) >= best[0]):
            best = (int(level), size.strip())
    return f"L{best[0]} {best[1]}" if best else "unknown"


def _git_commit() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(ROOT, ".git", ref))
    if commit:
        return commit.strip()
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "cdtwist")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def environment(name, seed, seconds, trace, mini, numpy_version) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": "mini" if mini else "full",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc": _last_level_cache(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "mini"),
        default="full",
        help="mini: a few small operations, for perfbench/selftest.py",
    )
    args = parser.parse_args(argv)
    try:
        result, env = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size == "mini"
        )
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env))
    print(f"ops_total {result['attempted']}  ops_failed {result['failed']}")
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
