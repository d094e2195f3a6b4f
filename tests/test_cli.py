"""Command-line driver: config parsing, outputs, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from eigenbound import cli, fredholm, potentials, scalarbounds


def _write_config(tmp_path, body):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(body))
    return str(path)


BUMP_CFG = {
    "potential": {"family": "bump", "parameters": {"v0": [0.3, 0.1], "radius": 1.0}},
    "eps": 1.0,
}

BOUNDS_SCHEMA_KEYS = {"mode", "functionals", "theorem", "corollary"}
REPORT_KEYS = {"constant", "constant_kind", "radius_R", "A", "B", "T_used",
               "rho_used", "eps", "n_bound", "admissible", "diagnostic"}


class TestConfig:
    def test_missing_config(self):
        assert cli.main(["bounds"]) == cli.EXIT_CONFIG

    def test_bad_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert cli.main(["--config", str(p), "bounds"]) == cli.EXIT_CONFIG
        assert "line" in capsys.readouterr().err

    def test_unknown_family(self, tmp_path):
        # also: a parameter name the family does not take, a missing
        # parameter, and values the family rejects
        for spec in ({"family": "pineapple"},
                     {"family": "bump", "parameters": {"v0": -1.0, "radus": 3.0}},
                     {"family": "tabulated", "parameters": {"radii": [0.0, 1.0]}},
                     {"family": "tabulated", "parameters": {"radii": [0.0, 0.5, 1.0],
                                                            "values": [1.0, 0.0]}}):
            cfg = _write_config(tmp_path, {"potential": spec, "eps": 1.0})
            assert cli.main(["--config", cfg, "bounds"]) == cli.EXIT_CONFIG

    def test_missing_eps_for_exponential(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "potential": {"family": "mollified_exponential",
                          "parameters": {"v0": 0.2, "rate": 1.0}}})
        assert cli.main(["--config", cfg, "bounds"]) == cli.EXIT_CONFIG

    def test_bad_grid_spec(self, tmp_path):
        cfg = _write_config(tmp_path, dict(BUMP_CFG, grid="twelve"))
        assert cli.main(["--config", cfg, "bounds"]) == cli.EXIT_CONFIG

    def test_bad_region(self, tmp_path):
        cfg = _write_config(tmp_path, dict(BUMP_CFG, region=[1, 2, 3]))
        assert cli.main(["--config", cfg, "scan"]) == cli.EXIT_CONFIG

    def test_negative_tolerance(self, tmp_path):
        cfg = _write_config(tmp_path, dict(BUMP_CFG, tolerances={"quadrature": -1}))
        assert cli.main(["--config", cfg, "bounds"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("body", [
        {"eps": "abc"}, {"seed": "x"}, {"threads": [2]},
        {"tolerances": {"quadrature": "tight"}}, {"tolerances": {"quadratur": 1e-5}},
        {"tolerances": {"scan_points_per_side": 1}}, {"tolerances": [1e-5]},
        {"grid": "1x38"}, {"grid": "12x1"}, {"grid": "-3x38"}])
    def test_malformed_values_exit_3(self, tmp_path, capsys, body):
        cfg = _write_config(tmp_path, dict(BUMP_CFG, **body))
        assert cli.main(["--config", cfg, "bounds"]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_zero_family(self, tmp_path):
        cfg = _write_config(tmp_path, {"potential": {"family": "zero"}, "eps": 1.0})
        assert cli.main(["--config", cfg, "bounds",
                         "--out", str(tmp_path / "o")]) == cli.EXIT_OK


class TestBounds:
    def test_json_schema(self, tmp_path):
        cfg = _write_config(tmp_path, BUMP_CFG)
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out), "bounds"]) == cli.EXIT_OK
        data = json.loads((out / "bounds.json").read_text())
        assert BOUNDS_SCHEMA_KEYS <= set(data)
        assert REPORT_KEYS <= set(data["theorem"])
        assert REPORT_KEYS <= set(data["corollary"])
        assert data["mode"] == "Theorem1"
        assert data["theorem"]["admissible"] is True

    def test_zero_potential_bounds(self, tmp_path):
        cfg = _write_config(tmp_path, {"potential": {"family": "zero"}, "eps": 1.0})
        out = tmp_path / "out"
        cli.main(["--config", cfg, "--out", str(out), "bounds"])
        data = json.loads((out / "bounds.json").read_text())
        assert data["theorem"]["n_bound"] == 0.0
        assert data["theorem"]["radius_R"] == 0.0

    def test_extended_precision_block(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EIGENBOUND_PRECISION", "extended")
        cfg = _write_config(tmp_path, BUMP_CFG)
        out = tmp_path / "out"
        cli.main(["--config", cfg, "--out", str(out), "bounds"])
        data = json.loads((out / "bounds.json").read_text())
        assert data["extended_cross_check"]["theorem_rel_dev"] < 1e-12
        assert data["extended_cross_check"]["corollary_rel_dev"] < 1e-12

    def test_extended_precision_past_doubles_exits_4(self, tmp_path, monkeypatch, capsys):
        # the m2 well: its Theorem 2 bound lies past the double range, and
        # its extended cross-check past the series' term limit
        monkeypatch.setenv("EIGENBOUND_PRECISION", "extended")
        cfg = _write_config(tmp_path, {
            "potential": {"family": "screened_coulomb",
                          "parameters": {"v0": -37.0, "rate": 1.0,
                                         "core_radius": 0.25, "smoothing": 0.05}},
            "eps": 0.5, "tolerances": {"quadrature": 1e-3}})
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out), "bounds"]) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical non-convergence" in err and "terms" in err

    def test_theorem2_mode(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "potential": {"family": "mollified_exponential",
                          "parameters": {"v0": 0.2, "rate": 1.0}},
            "eps": 0.5})
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out), "bounds"]) == cli.EXIT_OK
        data = json.loads((out / "bounds.json").read_text())
        assert data["mode"] == "Theorem2"
        assert data["theorem"]["constant_kind"] == "Ct"


class TestScan:
    def test_grid_and_strip_markers(self, tmp_path):
        # the strip ends at -eps/4 for decaying V, and for the README bump
        # (radius 3) where e^{-2 Im k 3} leaves the double range
        mollified = {"family": "mollified_exponential",
                     "parameters": {"v0": 0.2, "rate": 1.0}}
        readme_bump = {"family": "bump", "parameters": {"v0": [-1.0, 0.0], "radius": 3.0}}
        for potential, eps, region, floor in (
                (mollified, 0.5, "-1,1,-0.4,1.0", -0.25),
                (readme_bump, 1.0, "-1,1,-200,1", -700.0 / 6.0)):
            cfg = _write_config(tmp_path, dict(
                BUMP_CFG, potential=potential, eps=eps, grid="6x14",
                tolerances={"scan_points_per_side": 5}))
            out = tmp_path / "out"
            rc = cli.main(["--config", cfg, "--out", str(out),
                           f"--region={region}", "scan"])
            assert rc == cli.EXIT_OK
            rows = list(csv.DictReader(open(out / "scan.csv")))
            assert len(rows) == 25
            below = [r for r in rows if float(r["im_k"]) <= floor]
            assert below and all(r["abs_D"] == "nan" for r in below)
            inside = [r for r in rows if float(r["im_k"]) > floor]
            assert all(r["abs_D"] != "nan" for r in inside
                       if (float(r["re_k"]), float(r["im_k"])) != (0.0, 0.0))

    def test_zero_potential_all_unity(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "potential": {"family": "zero"}, "eps": 1.0, "grid": "6x14",
            "tolerances": {"scan_points_per_side": 3}})
        out = tmp_path / "out"
        cli.main(["--config", cfg, "--out", str(out),
                  "--region=-1,1,0.2,1.0", "scan"])
        rows = list(csv.DictReader(open(out / "scan.csv")))
        assert all(abs(float(r["abs_D"]) - 1.0) < 1e-14 for r in rows)

    def test_refine_flag_adds_column(self, tmp_path):
        cfg = _write_config(tmp_path, dict(BUMP_CFG, grid="6x14",
                                           tolerances={"scan_points_per_side": 3}))
        out = tmp_path / "out"
        cli.main(["--config", cfg, "--out", str(out), "--refine",
                  "--region=0.2,1,0.2,1.0", "scan"])
        rows = list(csv.DictReader(open(out / "scan.csv")))
        assert all("refine_rel_err" in r for r in rows)
        assert all(float(r["refine_rel_err"]) < 0.05 for r in rows)

    def test_refine_finite_past_double_range(self, tmp_path, monkeypatch):
        # |D| = e^800 on both grids is not a double; the relative error of
        # the coarse grid against the fine one still is
        def factors(ev, k, signs):
            log_abs = 400.0 + 1e-3 * len(ev.assembler.weights) / 84
            return [(1.0, log_abs) for _ in signs]

        monkeypatch.setattr(fredholm.DeterminantEvaluator, "factors", factors)
        cfg = _write_config(tmp_path, dict(BUMP_CFG, grid="6x14",
                                           tolerances={"scan_points_per_side": 3}))
        out = tmp_path / "out"
        cli.main(["--config", cfg, "--out", str(out), "--refine",
                  "--region=0.2,1,0.2,1.0", "scan"])
        rows = list(csv.DictReader(open(out / "scan.csv")))
        assert len(rows) == 9 and all(r["abs_D"] == "inf" for r in rows)
        # 84 nodes against the fine grid's 9x14 = 126
        want = abs(math.exp(2e-3 * (84 - 126) / 84) - 1.0)
        assert all(float(r["refine_rel_err"]) == pytest.approx(want, rel=1e-9)
                   for r in rows)

    def test_two_lus_per_admitted_k(self, tmp_path, monkeypatch):
        # one evaluator shared by more workers than cores, switching often:
        # every block of det(I - A) and of det(I + A) factored once per k,
        # none for the points outside the strip
        factored = []
        slogdet = np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: factored.append(
            math.prod(np.shape(a)[:-2])) or slogdet(a))
        body = {"potential": {"family": "mollified_exponential",
                              "parameters": {"v0": 0.2, "rate": 1.0}},
                "eps": 0.5, "grid": "6x14", "tolerances": {"scan_points_per_side": 5}}
        cfg = _write_config(tmp_path, body)
        out = tmp_path / "out"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            rc = cli.main(["--config", cfg, "--out", str(out), "--threads", "4",
                           "--region=-1,1,-0.4,1.0", "scan"])
        finally:
            sys.setswitchinterval(interval)
        assert rc == cli.EXIT_OK
        rows = list(csv.DictReader(open(out / "scan.csv")))
        admitted = [r for r in rows if r["abs_D"] != "nan"]
        assert len(admitted) == 20
        block_sizes = fredholm.DeterminantEvaluator(
            cli.load_potential(body["potential"]), 6, 14).assembler.block_sizes
        assert sum(factored) == 2 * len(block_sizes) * len(admitted)

    def test_refine_builds_two_assemblers(self, tmp_path, monkeypatch):
        built = _count_assemblers(monkeypatch)
        cfg = _write_config(tmp_path, dict(BUMP_CFG, grid="6x14",
                                           tolerances={"scan_points_per_side": 3}))
        cli.main(["--config", cfg, "--out", str(tmp_path / "out"), "--refine",
                  "--region=0.2,1,0.2,1.0", "scan"])
        assert len(built) == 2


def _count_assemblers(monkeypatch):
    """List that grows by one per BSAssembler constructed."""
    built = []
    init = fredholm.BSAssembler.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(fredholm.BSAssembler, "__init__", counting)
    return built


class TestVerify:
    def test_bump_suite_passes(self, tmp_path):
        cfg = _write_config(tmp_path, dict(BUMP_CFG, grid="10x26"))
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out), "verify"]) == cli.EXIT_OK
        results = json.loads((out / "verify.json").read_text())
        assert all(r["ok"] for r in results)

    def test_exponential_suite_passes(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "potential": {"family": "mollified_exponential",
                          "parameters": {"v0": 0.15, "rate": 1.0}},
            "eps": 0.5, "grid": "10x26"})
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out), "verify"]) == cli.EXIT_OK
        results = json.loads((out / "verify.json").read_text())
        names = {r["check"] for r in results}
        assert any("lemma2" in n for n in names)
        # the Hadamard row holds Theorem 2's own step, f(C~||V||_1/h_eps(T)) - 1
        assert cli.main(["--config", cfg, "--out", str(out), "bounds"]) == cli.EXIT_OK
        bounds = json.loads((out / "bounds.json").read_text())
        theorem = bounds["theorem"]
        had = scalarbounds.f_series(theorem["constant"] * bounds["functionals"]["l1_norm"]
                                    / scalarbounds.h_eps(0.5, theorem["T_used"])) - 1.0
        (margin,) = [r["margin"] for r in results if "D(iT)" in r["check"]]
        assert margin < 1.01 * had

    def test_builds_one_assembler(self, tmp_path, monkeypatch):
        built = _count_assemblers(monkeypatch)
        cfg = _write_config(tmp_path, dict(BUMP_CFG, grid="10x26"))
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "out"),
                         "verify"]) == cli.EXIT_OK
        assert len(built) == 1

    def test_factorization_check_catches_sign_error(self, tmp_path, monkeypatch):
        # a sign error in the det(I + A) factor must fail the factorization
        # check, which compares with a separate factorization of I - A^2
        shifted = fredholm._slogdet_shifted

        def flipped(a, sign):
            s, log_abs = shifted(a, sign)
            return (-s if sign > 0 else s), log_abs
        monkeypatch.setattr(fredholm, "_slogdet_shifted", flipped)
        cfg = _write_config(tmp_path, dict(BUMP_CFG, grid="10x26"))
        out = tmp_path / "out"
        rc = cli.main(["--config", cfg, "--out", str(out), "verify"])
        assert rc == cli.EXIT_VIOLATION
        results = {r["check"]: r["ok"]
                   for r in json.loads((out / "verify.json").read_text())}
        assert results["det(I-A^2) = det(I-A)det(I+A)"] is False

    def test_fault_injection_fails_named_check(self, tmp_path, monkeypatch):
        lemma1_constant = scalarbounds.lemma1_constant
        monkeypatch.setattr(scalarbounds, "lemma1_constant",
                            lambda fn: 1e-3 * lemma1_constant(fn))
        cfg = _write_config(tmp_path, dict(BUMP_CFG, grid="10x26"))
        out = tmp_path / "out"
        rc = cli.main(["--config", cfg, "--out", str(out), "verify"])
        assert rc == cli.EXIT_VIOLATION
        results = json.loads((out / "verify.json").read_text())
        failed = [r["check"] for r in results if not r["ok"]]
        assert any("kernel bound" in n or "Hadamard" in n or "D(iT)" in n
                   for n in failed)


class TestCount:
    def test_weak_bump_no_zeros(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "potential": {"family": "bump",
                          "parameters": {"v0": [-0.3, 0.0], "radius": 1.0}},
            "eps": 1.0, "grid": "8x26"})
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out), "count"]) == cli.EXIT_OK
        data = json.loads((out / "count.json").read_text())
        assert data["n_empirical_plus"] == 0
        assert data["n_determinant"] == 0
        assert os.path.exists(out / "zeros_plus.csv")

    def test_readme_bump_zero_row(self, tmp_path):
        # the README config has one bound state: its zeros_plus.csv row is
        # the one count.json reports
        cfg = _write_config(tmp_path, dict(BUMP_CFG, potential={
            "family": "bump", "parameters": {"v0": [-1.0, 0.0], "radius": 3.0}}))
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out), "count"]) == cli.EXIT_OK
        data = json.loads((out / "count.json").read_text())
        rows = list(csv.DictReader(open(out / "zeros_plus.csv")))
        assert data["n_empirical_plus"] == 1 and len(rows) == 1
        (re_k, im_k, mult), = data["zeros_plus"]
        assert (float(rows[0]["re_k"]), float(rows[0]["im_k"]),
                int(rows[0]["multiplicity"])) == (re_k, im_k, mult)
        assert float(rows[0]["im_lambda"]) == 2.0 * re_k * im_k

    def test_mode_mismatch_exits_2(self, tmp_path):
        cfg = _write_config(tmp_path, dict(WEAK_BUMP_CFG, mode="Theorem2"))
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "out"),
                         "count"]) == cli.EXIT_VIOLATION


WEAK_BUMP_CFG = {
    "potential": {"family": "bump", "parameters": {"v0": [-0.3, 0.0], "radius": 1.0}},
    "eps": 1.0, "grid": "8x26",
}


@pytest.mark.parametrize("command", ["bounds", "verify", "count", "compare-oracle"])
def test_functionals_measured_once_with_config_spec(tmp_path, monkeypatch, command):
    # one measurement per command, at the --seed and tolerances.quadrature
    # of the config, never a second one at the defaults
    calls = []
    measure = potentials.measure_functionals

    def recording(p, eps, quad=None):
        calls.append((getattr(quad, "seed", None), getattr(quad, "tol", None)))
        return measure(p, eps, quad)
    monkeypatch.setattr(potentials, "measure_functionals", recording)
    cfg = _write_config(tmp_path, dict(WEAK_BUMP_CFG, tolerances={"quadrature": 1e-5}))
    rc = cli.main(["--config", cfg, "--out", str(tmp_path / "out"), "--seed", "3",
                   command])
    assert rc == cli.EXIT_OK
    assert calls == [(3, 1e-5)]


def test_readme_commands_load_neither_scipy_nor_mpmath(tmp_path):
    # a fresh interpreter imports the package and runs the README's four
    # commands on its bump config without loading either library
    cfg = _write_config(tmp_path, {
        "potential": {"family": "bump", "parameters": {"v0": [-1.0, 0.0], "radius": 3.0}},
        "eps": 1.0, "mode": "auto", "grid": "12x38"})
    out = str(tmp_path / "out")
    script = ("import sys, eigenbound, eigenbound.cli\n"
              "for cmd in ('bounds', 'verify', 'count', 'compare-oracle'):\n"
              f"    assert eigenbound.cli.main(['--config', {cfg!r}, '--out', {out!r}, cmd]) == 0\n"
              "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'mpmath'))))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=600)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
