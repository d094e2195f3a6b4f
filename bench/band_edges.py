"""Check that every operation ends the same way across the seeded input band.

    python3 bench/band_edges.py

Runs one pass of every workload with each coupling scaled by 1 - BAND,
at the seed-0 parameters and scaled by 1 + BAND, and prints every
verdict.  It exits 1
when an operation's status at either edge differs from its status at
seed 0, so the acceptance references the benchmark checks against hold
for every seed.  Run it from the root of a source checkout; it takes
about two minutes on two cores.
"""

from __future__ import annotations

import os
import shutil
import sys

from run import SRC, WORKDIR, cap_blas_threads


def main():
    cap_blas_threads()
    sys.path.insert(0, SRC)
    import workloads
    edges = (("low", 1.0 - workloads.BAND), ("seed0", 1.0), ("high", 1.0 + workloads.BAND))
    workdir = os.path.join(WORKDIR, f"band-{os.getpid()}")
    differ = 0
    try:
        for name in workloads.WORKLOADS:
            n = len(workloads.SWEEP_CASES) if name == "sweep" else 1
            status = {}
            for label, factor in edges:
                w = workloads.make(name, 0, workdir, [factor] * n)
                for v in w.run_pass():
                    status.setdefault(v.name, {})[label] = v.status
                    print(f"{label:5s} {name}/{v.name}: {v.status} ({v.seconds:.1f} s) "
                          f"{v.detail}", flush=True)
            for op, by_edge in status.items():
                if len(set(by_edge.values())) != 1:
                    differ += 1
                    print(f"DIFFERS {name}/{op}: {by_edge}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{differ} operation(s) end differently at a band edge than at seed 0")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
