"""Command-line driver: bounds, determinant scans, zero counting, verification.

Subcommands
    bounds          constants, radius and multiplicity bounds as JSON
    scan            |D|, arg D, |det(I+A)| over a k-grid as CSV (NaN rows
                    outside the continuation strip)
    count           locate determinant zeros in a region
    verify          run the inequality suite; nonzero exit on violation
    compare-oracle  radial oracle count vs 3-D pipeline vs bound

The config's mode is "auto" or the theorem matching the potential's decay
class (Theorem1 for compact support, Theorem2 for exponential decay);
scalarbounds.count_bounds makes that choice for bounds, verify, count and
compare-oracle, and a mismatch exits 2 (scan does not read it).  Each of
those four commands measures the potential's functionals once, with the
sampler offset --seed and the tolerance tolerances.quadrature.

Exit codes: 0 ok, 2 invariant violation, 3 config error, 4 numerical
non-convergence.  EIGENBOUND_PRECISION=extended adds a 50-digit
cross-check of every closed-form bound to the bounds report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import fredholm, kernel, oracle, potentials, scalarbounds, zerocount
from .errors import (ConfigError, ContinuationOutOfStrip, EigenboundError,
                     NonConvergent, QuadratureNotConverged)

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4


@dataclass
class RunConfig:
    potential: potentials.Potential
    eps: float
    mode: str = "auto"
    n_radial: int = fredholm.DEFAULT_GRID[0]
    n_angular: int = fredholm.DEFAULT_GRID[1]
    region: Optional[tuple] = None
    out_dir: str = "."
    threads: int = 1
    refine: bool = False
    seed: int = 0
    tolerances: dict = field(default_factory=dict)

    @property
    def quadrature(self):
        """The spec of every functional measurement a command makes."""
        return potentials.QuadratureSpec(seed=self.seed,
                                         tol=self.tolerances.get("quadrature", 1e-6))


def _complex_from_json(v):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
    if isinstance(v, str):
        return complex(v.replace(" ", ""))
    raise ConfigError(f"cannot read complex value from {v!r}")


def load_potential(spec: dict) -> potentials.Potential:
    """The potential of a config's spec: potentials.FAMILIES[family] called
    with its parameters and center; a name the family does not take, a
    missing parameter or a value it rejects is a ConfigError."""
    family = spec.get("family") if isinstance(spec, dict) else None
    if not isinstance(family, str) or family not in potentials.FAMILIES:
        raise ConfigError(f"potential 'family' must be one of "
                          f"{sorted(potentials.FAMILIES)}, got {family!r}")
    try:
        params = dict(spec.get("parameters", {}))
        if "v0" in params:
            params["v0"] = _complex_from_json(params["v0"])
        if "values" in params:
            params["values"] = [_complex_from_json(v) for v in params["values"]]
        return potentials.FAMILIES[family](
            **params, center=tuple(spec.get("center", (0.0, 0.0, 0.0))))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"potential family {family!r}: {exc}")


def load_config(args) -> RunConfig:
    if not args.config:
        raise ConfigError("--config PATH is required")
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}")
    if "potential" not in raw:
        raise ConfigError("config needs a 'potential' section")
    p = load_potential(raw["potential"])
    eps = args.eps if args.eps is not None else raw.get("eps")
    if eps is None:
        if not p.is_compact:
            raise ConfigError("eps is required for exponential-decay potentials")
        eps = 1.0
    try:
        eps = float(eps)
        threads = args.threads or int(raw.get("threads", 1))
        seed = args.seed if args.seed is not None else int(raw.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"eps, threads and seed must be numbers: {exc}")
    if not eps > 0:
        raise ConfigError("eps must be positive")
    n_radial, n_angular = fredholm.DEFAULT_GRID
    grid_s = args.grid or raw.get("grid")
    if grid_s:
        try:
            n_radial, n_angular = (int(t) for t in str(grid_s).lower().split("x"))
        except ValueError:
            raise ConfigError(f"grid must look like '12x38', got {grid_s!r}")
        if min(n_radial, n_angular) < 2:
            raise ConfigError(f"grid needs at least 2 nodes per factor, got {grid_s!r}")
    region = None
    region_s = args.region or raw.get("region")
    if region_s:
        try:
            parts = [float(t) for t in str(region_s).replace(" ", "").split(",")] \
                if isinstance(region_s, str) else [float(t) for t in region_s]
            if len(parts) != 4:
                raise ValueError
            region = tuple(parts)
        except ValueError:
            raise ConfigError(f"region must be RE0,RE1,IM0,IM1, got {region_s!r}")
    mode = raw.get("mode", "auto")
    if mode not in ("auto", "Theorem1", "Theorem2"):
        raise ConfigError(f"mode must be auto|Theorem1|Theorem2, got {mode!r}")
    tol = raw.get("tolerances", {})
    if not (isinstance(tol, dict) and set(tol) <= {"quadrature", "scan_points_per_side"}
            and type(tol.get("quadrature", 1.0)) in (int, float)
            and 0 < tol.get("quadrature", 1.0) < math.inf
            and type(tol.get("scan_points_per_side", 2)) is int
            and tol.get("scan_points_per_side", 2) >= 2):
        raise ConfigError("tolerances may set only quadrature (a number > 0) and "
                          f"scan_points_per_side (an integer >= 2), got {tol!r}")
    return RunConfig(p, eps, mode, n_radial, n_angular, region,
                     args.out or raw.get("out", "."), threads, bool(args.refine),
                     seed, dict(tol))


def _write_json(cfg: RunConfig, name: str, obj) -> str:
    """Write obj as JSON to name in the output directory; returns the path."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
    return path


def _write_csv(cfg: RunConfig, name: str, columns, rows) -> str:
    """Write the columns and rows as CSV to name in the output directory; returns the path."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, name)
    with open(path, "w") as fh:
        for row in [columns, *rows]:
            fh.write(",".join(str(v) for v in row) + "\n")
    return path


def _functionals(cfg: RunConfig):
    return potentials.measure_functionals(cfg.potential, cfg.eps, cfg.quadrature)


def cmd_bounds(cfg: RunConfig) -> int:
    fn = _functionals(cfg)
    mode, c, theorem, corollary = scalarbounds.count_bounds(fn, cfg.mode)
    out = {
        "mode": mode,
        "functionals": {
            "l1_norm": fn.l1_norm, "l2_norm_sq": fn.l2_norm_sq,
            "linf_norm": fn.linf_norm, "grad_linf_norm": fn.grad_linf_norm,
            "support_diameter": fn.support_diameter,
            "kato_constant": fn.kato_constant,
            "weighted_sup_A": fn.weighted_sup, "weighted_l1_B": fn.weighted_l1,
            "quadrature_error_estimate": fn.quadrature_error_estimate,
            "eps": fn.eps,
        },
        "theorem": theorem.as_dict(),
        "corollary": corollary.as_dict(),
    }
    if os.environ.get("EIGENBOUND_PRECISION", "double") == "extended":
        _, _, tx, cx = scalarbounds.count_bounds(fn, mode, precision="extended")

        def rel(a, b):
            return abs(a - b) / max(abs(b), 1e-300)
        out["extended_cross_check"] = {
            "theorem_n_bound": tx.n_bound,
            "corollary_n_bound": cx.n_bound,
            "theorem_rel_dev": rel(theorem.n_bound, tx.n_bound),
            "corollary_rel_dev": rel(corollary.n_bound, cx.n_bound),
        }
    path = _write_json(cfg, "bounds.json", out)
    print(f"[{mode}] constant={c:.8g} R={theorem.radius_R:.8g} "
          f"A={fn.weighted_sup:.8g} B={fn.weighted_l1:.8g}")
    print(f"  T={theorem.T_used:.8g} rho={theorem.rho_used:.8g} "
          f"N(V) <= {theorem.n_bound:.8g} (theorem), {corollary.n_bound:.8g} (corollary)")
    print(f"  report written to {path}")
    return EXIT_OK


def cmd_scan(cfg: RunConfig) -> int:
    if cfg.region is None:
        raise ConfigError("scan needs a --region RE0,RE1,IM0,IM1")
    re0, re1, im0, im1 = cfg.region
    n_side = cfg.tolerances.get("scan_points_per_side", 9)
    ks = [complex(re, im)
          for im in np.linspace(im0, im1, n_side)
          for re in np.linspace(re0, re1, n_side)]
    p = cfg.potential
    ev = fredholm.DeterminantEvaluator(p, cfg.n_radial, cfg.n_angular)
    fine = (fredholm.DeterminantEvaluator(p, cfg.n_radial + cfg.n_radial // 2,
                                          cfg.n_angular) if cfg.refine else None)

    def one(k):
        try:
            (sm, lm), (sp, lp) = ev.factors(k, (-1.0, +1.0))
        except ContinuationOutOfStrip:
            return [k.real, k.imag] + [math.nan] * (4 if cfg.refine else 3)
        row = [k.real, k.imag, scalarbounds._exp(lm + lp), float(np.angle(sm * sp)),
               scalarbounds._exp(lp)]
        if cfg.refine:
            # |D / D_fine - 1| from the log forms, finite where |D| is not a double
            (fm, flm), (fp, flp) = fine.factors(k, (-1.0, +1.0))
            row.append(abs(sm * sp / (fm * fp) * scalarbounds._exp(lm + lp - flm - flp) - 1.0))
        return row

    with ThreadPoolExecutor(max_workers=max(cfg.threads, 1)) as pool:
        rows = list(pool.map(one, ks))
    path = _write_csv(cfg, "scan.csv", ["re_k", "im_k", "abs_D", "arg_D", "abs_det_plus"]
                      + (["refine_rel_err"] if cfg.refine else []), rows)
    print(f"scan written to {path} ({len(rows)} points)")
    return EXIT_OK


def _search(cfg: RunConfig):
    """The zero search and theorem bound of count and compare-oracle."""
    return zerocount.empirical_vs_bound(cfg.potential, cfg.eps, cfg.mode,
                                        cfg.n_radial, cfg.n_angular,
                                        region=cfg.region, quad=cfg.quadrature)


def cmd_count(cfg: RunConfig) -> int:
    comp = _search(cfg)
    summary = {
        "region": list(comp.region),
        "n_empirical_plus": comp.n_empirical_plus,
        "n_empirical_minus": comp.n_empirical_minus,
        "n_determinant": comp.n_determinant,
        "zeros_plus": [[z.k.real, z.k.imag, z.multiplicity] for z in comp.zeros_plus],
        "zeros_minus": [[z.k.real, z.k.imag, z.multiplicity] for z in comp.zeros_minus],
    }
    _write_json(cfg, "count.json", summary)
    for name, zeros in (("zeros_plus.csv", comp.zeros_plus),
                        ("zeros_minus.csv", comp.zeros_minus)):
        _write_csv(cfg, name, ["re_k", "im_k", "re_lambda", "im_lambda", "multiplicity"],
                   [[z.k.real, z.k.imag, z.lam.real, z.lam.imag, z.multiplicity]
                    for z in zeros])
    print(f"found {comp.n_empirical_plus} eigenvalues of -Delta+V, "
          f"{comp.n_empirical_minus} of -Delta-V in {comp.region}")
    return EXIT_OK


def _verdict(name, margin, ok):
    """(name, margin, ok) of one check; a NaN margin is a numerical failure, never a verdict."""
    if math.isnan(margin):
        raise NonConvergent(f"check {name!r} produced a NaN margin")
    return name, margin, ok


def _verify_checks(cfg: RunConfig):
    """Yield (name, margin, ok) for the desk-scale inequality suite."""
    p = cfg.potential
    eps = cfg.eps
    fn = _functionals(cfg)
    mode, c, theorem, corollary = scalarbounds.count_bounds(fn, cfg.mode)
    rng = np.random.default_rng(cfg.seed + 7)

    # scalar identities
    grid_t = np.linspace(0.05, 4.0, 12)
    worst = max(abs(scalarbounds.h_eps(e, scalarbounds.g_eps(e, t)) - t) / t
                for e in (0.3, 1.0, 2.5) for t in grid_t)
    yield _verdict("h_eps(g_eps(t)) = t", 1e-10 - worst, worst < 1e-10)
    a_grid = np.linspace(0.0, 3.0, 61)
    maj = min((1 + a) * math.exp(2 * a * a) - scalarbounds.f_series(a) for a in a_grid)
    yield _verdict("f(a) <= (1+a)e^{2a^2}", maj, maj >= 0.0)

    # the lemma's kernel bound on sampled (x, y, k)
    bound_margin = math.inf
    for _ in range(8):
        x = rng.normal(scale=0.4 * p.truncation_radius, size=3) + np.asarray(p.center)
        y = rng.normal(scale=0.4 * p.truncation_radius, size=3) + np.asarray(p.center)
        kk = complex(rng.uniform(-2, 2), rng.uniform(0.2, 2.5))
        g = kernel.iterated_kernel(kk, x, y, p)
        bound = scalarbounds.lemma_kernel_bound(fn, c, math.log(abs(kk)))
        bound_margin = min(bound_margin, bound * (1 + 1e-2) - abs(g))
    yield _verdict(f"lemma{mode[-1]} kernel bound", bound_margin, bound_margin >= 0.0)

    # Hilbert-Schmidt identity
    lhs, rhs = kernel.hs_identity_check(1j, p)
    ratio = lhs / rhs
    yield _verdict("HS identity ratio in [0.99, 1.01]", min(ratio - 0.99, 1.01 - ratio),
        0.99 <= ratio <= 1.01)

    # determinant factorization identity, against an independent
    # factorization of I - A^2 assembled afresh, compared in log form
    ev = fredholm.DeterminantEvaluator(p, cfg.n_radial, cfg.n_angular)
    a = ev.assembler.matrix(1.7j)
    s, log_abs = np.linalg.slogdet(np.eye(len(a)) - a @ a)
    (sm, lm), (sp, lp) = ev.factors(1.7j, (-1.0, +1.0))
    rel = abs(sm * sp / s * scalarbounds._exp(lm + lp - log_abs) - 1.0)
    yield _verdict("det(I-A^2) = det(I-A)det(I+A)", 1e-10 - rel, rel < 1e-10)

    # continuation bound |D| <= f(AB/2 pi eps) on a small strip grid
    margin = math.inf
    for kk in (1j, 2j, 1 + 0.5j, -1 + 0.5j, 0.4 - eps / 8 * 1j):
        absd, bound = fredholm.determinant_bound_check(ev, kk, eps, fn)
        margin = min(margin, bound * (1 + 1e-2) - absd)
    yield _verdict("|D(k)| <= f(AB/2 pi eps)", margin, margin >= 0.0)

    # the theorem's own Hadamard step at admissible T
    had_arg = {"Theorem1": "2C||V||1/(sqrt(1+4T)-1)", "Theorem2": "C~||V||1/h_eps(T)"}[mode]
    name = f"|D(iT)-1| <= f({had_arg}) - 1"
    T = theorem.T_used
    if T == math.inf:
        raise NonConvergent(f"check {name!r} needs D(iT) at ln T = {theorem.log_T:.6g}, "
                            f"past the double range")
    dev = abs(ev.det_value(1j * T) - 1.0)
    had = scalarbounds.f_series(
        scalarbounds.lemma_kernel_bound(fn, c * fn.l1_norm, theorem.log_T)) - 1.0
    yield _verdict(name, had * (1 + 1e-2) - dev, dev <= had * (1 + 1e-2))

    # corollary dominates theorem at the corollary's implied T (which may sit
    # exactly on the strict threshold, hence enforce=False)
    th_at = scalarbounds.count_bounds(fn, mode, T=corollary.T_used, enforce=False)[2]
    ok = corollary.n_bound >= th_at.n_bound * (1 - 1e-9)
    yield _verdict("corollary >= theorem at implied T",
                   corollary.n_bound - th_at.n_bound, ok)


def cmd_verify(cfg: RunConfig) -> int:
    failures = 0
    results = []
    for name, margin, ok in _verify_checks(cfg):
        results.append({"check": name, "margin": margin, "ok": bool(ok)})
        print(f"  [{'pass' if ok else 'FAIL'}] {name} (margin {margin:.3e})")
        if not ok:
            failures += 1
    _write_json(cfg, "verify.json", results)
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_VIOLATION if failures else EXIT_OK


def cmd_compare_oracle(cfg: RunConfig) -> int:
    oracle.assert_radial(cfg.potential)
    comp = _search(cfg)
    lam_r = math.sqrt(2.0) * max(comp.functionals.linf_norm, 1e-9)
    rc = oracle.count_eigenvalues_radial(cfg.potential, lam_r)
    rows = [("oracle count", rc.total),
            ("N_empirical(V)", comp.n_empirical_plus),
            ("N_empirical(-V)", comp.n_empirical_minus),
            ("N_D", comp.n_determinant),
            ("n_bound", comp.n_bound)]
    for name, val in rows:
        print(f"  {name:18s} {val}")
    ok = (rc.total == comp.n_empirical_plus
          and comp.n_empirical_plus <= comp.n_determinant <= comp.n_bound)
    out = {name: val for name, val in rows}
    out["per_channel"] = rc.per_channel
    out["chain_ok"] = bool(ok)
    _write_json(cfg, "compare_oracle.json", out)
    if not ok:
        print("ordering chain violated")
        return EXIT_VIOLATION
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(prog="eigenbound",
                                 description="Eigenvalue-count bounds for "
                                             "non-selfadjoint Schrodinger operators")
    ap.add_argument("--config", help="potential/run configuration (JSON)")
    ap.add_argument("--eps", type=float, default=None,
                    help="weight/decay rate epsilon")
    ap.add_argument("--grid", default=None, help="Nystrom grid, e.g. 12x38")
    ap.add_argument("--region", default=None, help="k-plane rectangle RE0,RE1,IM0,IM1")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--refine", action="store_true",
                    help="add refinement error estimates where supported")
    ap.add_argument("--seed", type=int, default=None,
                    help="offset of the deterministic low-discrepancy sampler")
    ap.add_argument("command", choices=["bounds", "scan", "count", "verify",
                                        "compare-oracle"])
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        cmd = {"bounds": cmd_bounds, "scan": cmd_scan, "count": cmd_count,
               "verify": cmd_verify, "compare-oracle": cmd_compare_oracle}[args.command]
        return cmd(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureNotConverged, NonConvergent) as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except EigenboundError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
