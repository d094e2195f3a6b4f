"""Run one eigenbound benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 3 --seconds 10 --trace 0

Run from the root of a source checkout: the package is imported from
src/.  The run sets up (imports eigenbound, warms every grid size the
workload uses), then runs whole passes of the workload, another one only
while it is expected to end within --seconds; there is always one.  Every operation's check decides its
verdict; the lines before the last one are the environment, each
operation's verdict and a summary.  The last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

attempted counts operations, failed those that raised, exited nonzero or
disagreed with their reference, and correct is false when any operation
returned a result as a success that disagrees with its reference.

--trace 0 reports the end-to-end metrics: wall_s (median pass time),
setup_s (median time to import eigenbound and warm up, over this
interpreter and fresh ones, the workload's setup_samples in all),
peak_rss_mb and ok_ratio (1 - failed/attempted).
--trace 1 runs traced passes and reports the per-layer metrics of
layertrace.py, each the median over passes, with run.cpu_s (CPU seconds
of a pass) and run.trace_overhead_s, computed as the calls through the
wrappers in a pass times the measured cost of one such call.  Names and
units of the metrics are those in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_build")
# one set-up, timed in a fresh interpreter; the same steps as main's
SETUP = """import time
t0 = time.perf_counter()
import eigenbound, eigenbound.cli, workloads
workloads.make({name!r}, {seed}, {workdir!r}).warm_up()
print(time.perf_counter() - t0)
"""


def nproc():
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """BLAS threads at most nproc; must run before numpy is imported."""
    cap = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            cur = int(os.environ.get(var, cap))
        except ValueError:
            cur = cap
        os.environ[var] = str(min(max(cur, 1), cap))


def blas_info():
    """(library, thread count) of the BLAS numpy loaded, read from the library itself."""
    import ctypes
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, fn()
    return name, int(os.environ["OPENBLAS_NUM_THREADS"])


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown (git not found)"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fresh_setup_seconds(name, seed, workdir):
    """Time of one set-up of the workload in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, BENCH)))
    out = subprocess.run([sys.executable, "-c", SETUP.format(name=name, seed=seed,
                                                             workdir=workdir)],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def cpu_seconds():
    t = os.times()
    return t.user + t.system


def timed_pass(workload):
    t0, c0 = time.perf_counter(), cpu_seconds()
    verdicts = workload.run_pass()
    return time.perf_counter() - t0, cpu_seconds() - c0, verdicts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "eigenbound", "__init__.py")):
        print(f"no eigenbound sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    cap_blas_threads()
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import eigenbound, eigenbound.cli, workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(WORKDIR, f"run-{os.getpid()}")
    try:
        w = workloads.make(args.workload, args.seed, workdir)
        w.warm_up()
        setups = [time.perf_counter() - t0]
        setups += [fresh_setup_seconds(args.workload, args.seed, workdir)
                   for _ in range(w.setup_samples - 1)]

        import layertrace
        import numpy, scipy, mpmath
        blas, threads = blas_info()
        env = {"nproc": nproc(), "blas": blas, "blas_threads": threads,
               "numpy": numpy.__version__, "scipy": scipy.__version__,
               "mpmath": mpmath.__version__, "commit": commit()}
        print("env " + json.dumps(env), flush=True)

        passes, traced = [], []
        t_start = time.perf_counter()
        while True:
            if args.trace:
                tracer = layertrace.Tracer()
                with tracer.installed():
                    passes.append(timed_pass(w))
                traced.append(tracer)
            else:
                passes.append(timed_pass(w))
            elapsed = time.perf_counter() - t_start
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdicts = [v for _, _, vs in passes for v in vs]
    for v in verdicts:
        print(f"op {args.workload}/{v.name}: {v.status} ({v.seconds:.3f} s) {v.detail}")
    failed = sum(v.status != "ok" for v in verdicts)
    rel = [v.lambda_rel_dev for v in verdicts if v.lambda_rel_dev is not None]
    print(f"summary {args.workload}: {len(passes)} pass(es), fail_ratio {failed}/{len(verdicts)}"
          + (f", lambda_rel_dev {statistics.median(rel):.6e}" if rel else ""))

    if args.trace:
        per_pass = [t.metrics() for t in traced]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["run.cpu_s"] = statistics.median(p[1] for p in passes)
        values["run.trace_overhead_s"] = (statistics.median(t.spans for t in traced)
                                          * layertrace.Tracer.span_cost())
        specs = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(p[0] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "ok_ratio": 1.0 - failed / len(verdicts),
        }
        specs = spec["end_to_end"]
    if set(values) != {m["name"] for m in specs}:
        raise RuntimeError(f"measured metrics {sorted(values)} differ from BENCHMARK.json's "
                           f"{sorted(m['name'] for m in specs)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    print(json.dumps({"correct": not any(v.status == "wrong" for v in verdicts),
                      "attempted": len(verdicts), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
