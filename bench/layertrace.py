"""Per-layer counts and times, taken from outside the package.

Tracer.installed() replaces public entry points of the eigenbound modules
(and numpy.linalg.slogdet, the LU behind every determinant) with wrappers
that count and time the calls, and puts the originals back on exit.  A
group of nested entry points shares one timer and only its outermost
call is timed, so a DeterminantEvaluator built around a BSAssembler
counts its set-up once.  The grids module is timed under
fredholm.setup_s, inside those constructors.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter

import numpy as np

from eigenbound import cli, fredholm, kernel, oracle, potentials, scalarbounds, zerocount

# 8n^3/3 real flops for the LU of a complex n x n matrix; 16 bytes per entry
LU_GFLOP = lambda n: 8.0 * n ** 3 / 3.0 / 1e9
MATRIX_MB = lambda n: 16.0 * n * n / 1e6


class Tracer:
    def __init__(self):
        self.n = Counter()      # counts
        self.s = Counter()      # seconds
        self._depth = Counter()
        self._k_seen = set()
        self._assemblers = 0
        self.spans = 0          # calls through a wrapper

    @contextlib.contextmanager
    def _span(self, key):
        self.spans += 1
        self._depth[key] += 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._depth[key] -= 1
            if self._depth[key] == 0:
                self.s[key] += time.perf_counter() - t0

    def _timed(self, key, fn, count=None):
        def wrapper(*args, **kwargs):
            if count:
                self.n[count] += 1
            with self._span(key):
                return fn(*args, **kwargs)
        return wrapper

    def _assembler_init(self, fn):
        def wrapper(obj, *args, **kwargs):
            with self._span("fredholm.setup_s"):
                fn(obj, *args, **kwargs)
            self._assemblers += 1
            obj._bench_serial = self._assemblers
        return wrapper

    def _matrix(self, fn):
        def wrapper(obj, k, *args, **kwargs):
            self.n["fredholm.assemble_calls"] += 1
            self._k_seen.add((getattr(obj, "_bench_serial", 0), complex(k)))
            with self._span("fredholm.assemble_s"):
                return fn(obj, k, *args, **kwargs)
        return wrapper

    def _slogdet(self, fn):
        def wrapper(a, *args, **kwargs):
            n = np.shape(a)[-1]
            self.n["fredholm.lu_calls"] += 1
            self.s["fredholm.lu_gflop_computed"] += LU_GFLOP(n)
            self.s["fredholm.matrix_mb_computed"] += MATRIX_MB(n)
            with self._span("fredholm.lu_s"):
                return fn(a, *args, **kwargs)
        return wrapper

    def _locate(self, fn):
        def wrapper(f, *args, **kwargs):
            def counted(z):
                self.n["zerocount.fn_calls"] += 1
                with self._span("zerocount.fn_s"):
                    return f(z)
            with self._span("zerocount.locate_s"):
                res = fn(counted, *args, **kwargs)
            for key in ("boxes", "newton_fallbacks", "jitter_used"):
                self.n["zerocount." + key] += int(res.resolution_flags.get(key, 0))
            self.n["zerocount.zeros_located"] += res.total_multiplicity
            return res
        return wrapper

    def _radial_count(self, fn):
        def wrapper(*args, **kwargs):
            with self._span("oracle.count_s"):
                rc = fn(*args, **kwargs)
            self.n["oracle.channels"] += rc.l_max_used + 1
            return rc
        return wrapper

    def _cli_main(self, fn):
        def wrapper(argv=None):
            key = "cli." + argv[-1].replace("-", "_") + "_s"
            with self._span(key):
                return fn(argv)
        return wrapper

    @staticmethod
    def span_cost(calls=20000, repeats=5):
        """Seconds one call through a counting wrapper adds: the median over
        repeats of (wrapped - bare) time for calls of a no-op, per call."""
        noop = lambda: None
        wrapped = Tracer()._timed("noop", noop, "noop")
        costs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t1 = time.perf_counter()
            for _ in range(calls):
                noop()
            t2 = time.perf_counter()
            costs.append(((t1 - t0) - (t2 - t1)) / calls)
        return max(statistics.median(costs), 0.0)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the entry points for the duration of the block."""
        B, E = fredholm.BSAssembler, fredholm.DeterminantEvaluator
        patches = [
            (B, "__init__", self._assembler_init(B.__init__)),
            (E, "__init__", self._timed("fredholm.setup_s", E.__init__)),
            (B, "matrix", self._matrix(B.matrix)),
            (np.linalg, "slogdet", self._slogdet(np.linalg.slogdet)),
            (zerocount, "locate_zeros", self._locate(zerocount.locate_zeros)),
            (oracle, "count_eigenvalues_radial",
             self._radial_count(oracle.count_eigenvalues_radial)),
            (oracle, "jost_like_value",
             self._timed("oracle.jost_s", oracle.jost_like_value, "oracle.jost_calls")),
            (potentials, "measure_functionals",
             self._timed("potentials.functionals_s", potentials.measure_functionals,
                         "potentials.functionals_calls")),
            (kernel, "iterated_kernel",
             self._timed("kernel.iterated_s", kernel.iterated_kernel,
                         "kernel.iterated_calls")),
            (kernel, "hs_identity_check",
             self._timed("kernel.hs_identity_s", kernel.hs_identity_check)),
            (cli, "main", self._cli_main(cli.main)),
        ]
        patches += [(scalarbounds, name,
                     self._timed("scalarbounds.bounds_s", getattr(scalarbounds, name)))
                    for name in ("n_bound_theorem1", "n_bound_theorem2",
                                 "n_bound_corollary1", "n_bound_corollary2")]
        saved = [(obj, name, getattr(obj, name)) for obj, name, _ in patches]
        try:
            for obj, name, wrapper in patches:
                setattr(obj, name, wrapper)
            yield self
        finally:
            for obj, name, original in reversed(saved):
                setattr(obj, name, original)

    def metrics(self):
        """Every per-layer figure; a ratio whose base is 0 reads 0."""
        n, s = self.n, self.s
        distinct = len(self._k_seen)
        out = {
            "fredholm.setup_s": s["fredholm.setup_s"],
            "fredholm.assemble_calls": n["fredholm.assemble_calls"],
            "fredholm.assemble_s": s["fredholm.assemble_s"],
            "fredholm.distinct_k": distinct,
            "fredholm.reassembly_ratio":
                n["fredholm.assemble_calls"] / distinct if distinct else 0.0,
            "fredholm.lu_calls": n["fredholm.lu_calls"],
            "fredholm.lu_s": s["fredholm.lu_s"],
            "fredholm.lu_gflop_computed": s["fredholm.lu_gflop_computed"],
            "fredholm.matrix_mb_computed": s["fredholm.matrix_mb_computed"],
            "zerocount.locate_s": s["zerocount.locate_s"],
            "zerocount.locate_self_s": s["zerocount.locate_s"] - s["zerocount.fn_s"],
            "zerocount.fn_calls": n["zerocount.fn_calls"],
            "zerocount.boxes": n["zerocount.boxes"],
            "zerocount.newton_fallbacks": n["zerocount.newton_fallbacks"],
            "zerocount.jitter_used": n["zerocount.jitter_used"],
            "zerocount.zeros_located": n["zerocount.zeros_located"],
            "zerocount.evals_per_zero":
                n["zerocount.fn_calls"] / n["zerocount.zeros_located"]
                if n["zerocount.zeros_located"] else 0.0,
            "oracle.count_s": s["oracle.count_s"],
            "oracle.jost_calls": n["oracle.jost_calls"],
            "oracle.jost_s": s["oracle.jost_s"],
            "oracle.channels": n["oracle.channels"],
            "potentials.functionals_calls": n["potentials.functionals_calls"],
            "potentials.functionals_s": s["potentials.functionals_s"],
            "scalarbounds.bounds_s": s["scalarbounds.bounds_s"],
            "kernel.iterated_calls": n["kernel.iterated_calls"],
            "kernel.iterated_s": s["kernel.iterated_s"],
            "kernel.hs_identity_s": s["kernel.hs_identity_s"],
        }
        for cmd in ("bounds", "verify", "count", "compare_oracle"):
            out[f"cli.{cmd}_s"] = s[f"cli.{cmd}_s"]
        return out
