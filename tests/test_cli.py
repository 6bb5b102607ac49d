import ast
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import stdlib_report_text
from kads import cli
from kads.cli import RunConfig, ConfigError, main


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "kads.cli", *args],
                          capture_output=True, text=True)
    return proc


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(samples=0)
    with pytest.raises(ConfigError):
        RunConfig(tolerance=0.0)
    with pytest.raises(ConfigError):
        RunConfig(fmt="yaml")


def test_exit_code_on_bad_flag():
    assert main(["check-bialgebra", "--lambda", "nonsense"]) == 3
    assert main(["poisson", "--samples", "0"]) == 3


# the residuals of the two checks that the J1^J2 term in delta(P0) breaks
FAULT_RESIDUALS = {
    "formal": (7, 1),
    "0": (0.31, 1.0),
    "-0.7": (0.5187292164511268, 1.0),
    "0.5": (0.43840620433565947, 1.0),
}


def test_bialgebra_pass_and_fault_injection(tmp_path):
    out = tmp_path / "rep.json"
    for lam, residuals in FAULT_RESIDUALS.items():
        code = main(["check-bialgebra", f"--lambda={lam}", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["pass"] and rep["config"]["schema"] == "report_v1"
        names = {c["name"] for c in rep["checks"]}
        assert "r_curved.mcybe" in names and "r_2plus1.mcybe" in names
        code = main(["check-bialgebra", f"--lambda={lam}", "--inject-fault",
                     "--out", str(out)])
        assert code == 2
        rep = json.loads(out.read_text())
        assert not rep["pass"]
        failed = {c["name"]: c["residual"] for c in rep["checks"] if not c["pass"]}
        assert list(failed) == ["r_curved.dual_jacobi", "r_curved.time_translation_primitive"]
        assert tuple(failed.values()) == pytest.approx(residuals, rel=1e-12), lam


# (lambda, --inject-fault): the numeric configurations of
# scripts/run_all_checks.py, both ends of the float range, and the fault
ORACLE_CONFIGS = [(0.0, False), (-0.7, False), (0.5, False), (-1e-08, False),
                  (5e-324, False), (-5e-324, False), (1e9, False), (-1e9, False),
                  (0.0, True), (-0.7, True), (0.5, True), (-1e-08, True)]


@pytest.mark.parametrize("lam, fault", ORACLE_CONFIGS)
def test_numeric_bialgebra_report_matches_the_sparse_oracle(tmp_path, lam, fault):
    # the dense cocommutator writes the bytes of the sparse cocommutator maps
    from oracles import sparse_bialgebra_report
    out = tmp_path / "rep.json"
    code = main(["check-bialgebra", f"--lambda={lam!r}", "--out", str(out)]
                + ["--inject-fault"] * fault)
    report = sparse_bialgebra_report(RunConfig(lam=lam, inject_fault=fault))
    text = stdlib_report_text(report) + "\n"
    assert out.read_bytes() == text.encode()
    assert code == (0 if report["pass"] else 2)


def test_bialgebra_numeric_mode(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["check-bialgebra", "--lambda", "0", "--kappa-inv", "0.4",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["config"]["lam"] == 0.0


def test_poisson_report(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["poisson", "--lambda", "-1.0", "--kappa-inv", "0.31",
                 "--samples", "20", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert set(rep["tables"]) == {"local", "twisted", "ambient"}
    assert rep["tables"]["local"]["max_deviation"] < 1e-8
    assert rep["tables"]["local"]["seed"] == 0x5EED
    assert [c["name"] for c in rep["checks"]] == [
        f"{table}.{check}" for table in ("local", "twisted", "ambient")
        for check in ("sklyanin_match", "lorentz_independence", "jacobi")
    ] + ["first_order_expansion", "sphere_leaf_conservation"]


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["poisson", "--lambda", "-1.0", "--kappa-inv", "0.31",
            "--samples", "10", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_determinism_across_processes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["classify", "--samples", "25", "--seed", "3"]
    for out in (a, b):
        proc = run_cli(args + ["--out", str(out)])
        assert proc.returncode == 0
    assert a.read_bytes() == b.read_bytes()


# sha256 of the exact reports as the Fraction-and-tuple kernel wrote them,
# before int coefficients and packed monomials; they hold no float, so they
# do not depend on the machine
PINNED_REPORTS = {
    "nc": "d5f71b191714104472dd9d81bd1c7f698ffe2b1721340b0909c08e6a5b85fd18",
    "check-bialgebra --lambda formal":
        "954abaa4d95d5d7675727c1005538db761cf24b76965f1804141d0990b1362a7",
}


@pytest.mark.parametrize("suite", PINNED_REPORTS)
def test_exact_report_matches_its_pinned_digest(tmp_path, suite):
    out = tmp_path / "rep.json"
    assert main(suite.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_REPORTS[suite]


def test_classify_exact_fields_match_the_pinned_values(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["classify", "--samples", "6", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["constraint_polynomials"] == [
        "alpha1*beta2 - alpha2*beta1",
        "alpha1*beta3 - alpha3*beta1",
        "alpha1^2 + alpha2^2 + alpha3^2 - eta^2*kinv^2",
        "alpha2*beta3 - alpha3*beta2",
    ]
    assert rep["ideal_equivalence"] == {
        "equal": True,
        "extracted_mod_reference": ["0"] * 4,
        "reference_mod_extracted": ["0"] * 4,
    }


def test_cli_process_entrypoint_and_env(tmp_path):
    # KADS_THREADS is no longer read: it must leave no trace in the report
    env = dict(os.environ, KADS_THREADS="2")
    proc = subprocess.run(
        [sys.executable, "-m", "kads.cli", "nc", "--samples", "5"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert "threads" not in rep["config"]
    assert rep["pass"]


@pytest.mark.parametrize("value", ["-1e-08", "-1E-8", "-0.3", "formal"])
def test_lambda_value_as_separate_word(tmp_path, value):
    out = tmp_path / "rep.json"
    assert main(["export", "--lambda", value, "--samples", "2",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["config"]["lam"] == (value if value == "formal" else float(value))


def test_format_is_an_export_flag(tmp_path):
    out = tmp_path / "p.csv"
    for suite in ("check-bialgebra", "classify", "poisson", "nc"):
        assert main([suite, "--lambda=-1", "--format", "csv", "--out", str(out)]) == 3
        assert main([suite, "--lambda=-1", "--format", "json", "--out", str(out)]) == 3
    assert list(tmp_path.iterdir()) == []


def test_csv_export_needs_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["export", "--lambda=-1", "--samples", "2", "--format", "csv"]) == 3
    with pytest.raises(ConfigError):
        RunConfig(fmt="csv")
    assert list(tmp_path.iterdir()) == []


# numpy is the only runtime dependency: the test-only packages and the
# references under tests/ must not be loaded by any suite
TEST_ONLY_MODULES = ("scipy", "sympy", "mpmath", "hypothesis", "oracles", "tables",
                     "batches")
# what the exact `kads nc` does not load: numpy, the exact layers with float
# kernels (liealg, bialgebra, rclass) and the numeric layers
NUMERIC_MODULES = ("numpy", "kads.liealg", "kads.bialgebra", "kads.rclass", "kads.curvtrig",
                   "kads.group_geom", "kads.sklyanin")


@pytest.mark.parametrize("argv", [
    ["check-bialgebra", "--lambda=formal"],
    ["classify", "--samples=2"],
    ["poisson", "--lambda=-1", "--samples=2"],
    ["nc"],
    ["export", "--lambda=-1", "--samples=2"],
    ["export", "--lambda=-1", "--samples=2", "--format=csv"],
], ids=["check-bialgebra", "classify", "poisson", "nc", "export", "export-csv"])
def test_poisson_runs_without_scipy(tmp_path, argv):
    out = tmp_path / ("rep.csv" if "--format=csv" in argv else "rep.json")
    probe = ("import sys\n"
             "from kads.cli import main\n"
             f"code = main({argv + ['--out', str(out)]!r})\n"
             f"roots = {TEST_ONLY_MODULES!r}\n"
             "print(code, sorted(m for m in sys.modules if m.split('.')[0] in roots))\n"
             f"numeric = {NUMERIC_MODULES!r}\n"
             "print(sorted(m for m in numeric if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # a csv export also prints its JSON report; the probe's lines come last
    assert proc.stdout.splitlines()[-2].split() == ["0", "[]"]
    if argv[0] == "nc":
        assert proc.stdout.splitlines()[-1] == "[]"
    if argv[0] == "check-bialgebra":
        # the formal certificates are exact: no numpy and no numeric layer
        assert proc.stdout.splitlines()[-1] == "['kads.bialgebra', 'kads.liealg', 'kads.rclass']"
    if argv[0] == "poisson":
        # the sphere Casimir check is exact: no integrator, so no scipy import
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert checks["sphere_leaf_conservation"] == {
            "name": "sphere_leaf_conservation", "residual": 0, "tolerance": 0, "pass": True}


def test_only_the_nc_engine_makes_fractions(tmp_path, monkeypatch):
    # the r-matrix layer solves in the Scalar ring: no suite but `nc`
    # builds a Frac
    from kads import scalars
    from kads.liealg import IDX, ads_algebra
    from kads.rclass import constraint_residuals, generic_ansatz, impose_primitivity

    def refuse(*args, **kwargs):
        raise AssertionError("a Frac was built")

    monkeypatch.setattr(scalars.Frac, "__init__", refuse)
    monkeypatch.setattr(scalars.Frac, "of", refuse)
    red = impose_primitivity(generic_ansatz(), ads_algebra(scalars.sym("Lambda")), IDX["P0"])
    assert len(red.params) == 15
    assert len(constraint_residuals()) == 4
    for argv in (["classify", "--samples", "2"], ["check-bialgebra", "--lambda", "formal"]):
        assert main(argv + ["--out", str(tmp_path / "rep.json")]) == 0


def test_main_reuses_one_parser():
    from kads.cli import build_parser
    assert build_parser() is build_parser()
    assert main(["poisson", "--samples", "0"]) == 3
    assert main(["nc", "--lambda", "nonsense"]) == 3
    args = build_parser().parse_args(["export", "--format", "csv"])
    assert (args.command, args.fmt, args.samples) == ("export", "csv", 200)
    args = build_parser().parse_args(["check-bialgebra", "--inject-fault"])
    assert args.inject_fault and not hasattr(args, "fmt")
    assert not hasattr(build_parser().parse_args(["poisson"]), "inject_fault")


@pytest.mark.parametrize("suite", ["check-bialgebra", "classify", "poisson", "nc",
                                   "export"])
@pytest.mark.parametrize("lam", ["formal", "-1"])
def test_kappa_inv_formal_is_a_config_error(suite, lam):
    assert main([suite, f"--lambda={lam}", "--kappa-inv", "formal"]) == 3


@pytest.mark.parametrize("suite", ["check-bialgebra", "classify", "poisson", "nc",
                                   "export"])
def test_negative_seed_is_a_config_error(tmp_path, suite):
    with pytest.raises(ConfigError):
        RunConfig(seed=-1)
    assert main([suite, "--seed=-1", "--out", str(tmp_path / "rep.json")]) == 3
    assert list(tmp_path.iterdir()) == []


OUT_SUITES = pytest.mark.parametrize("argv", [
    ["check-bialgebra"], ["check-bialgebra", "--lambda=-0.7"], ["classify", "--samples=2"],
    ["poisson", "--samples=2"], ["nc"], ["export", "--samples=2"],
    ["export", "--samples=2", "--format=csv"],
], ids=["check-bialgebra", "check-bialgebra-numeric", "classify", "poisson", "nc", "export",
        "export-csv"])


@OUT_SUITES
def test_out_into_a_missing_directory_is_a_config_error(tmp_path, monkeypatch, capsys, argv):
    # refused before any suite work: no suite runs, no traceback, no file
    monkeypatch.setitem(cli.COMMANDS, argv[0], lambda cfg: pytest.fail("suite ran"))
    missing = tmp_path / "missing" / "dir"
    assert main(argv + [f"--out={missing / 'r.json'}"]) == 3
    assert capsys.readouterr().err == (
        f"configuration error: --out directory {str(missing)!r} does not exist\n")
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ConfigError):
        RunConfig(out=str(missing / "r.json"))


@OUT_SUITES
def test_out_naming_an_existing_directory(tmp_path, monkeypatch, capsys, argv):
    # a JSON report cannot replace a directory: refused before any suite
    # work; the CSV files go beside the directory, as <dir>_geometry.csv
    folder = tmp_path / "reports"
    folder.mkdir()
    if "--format=csv" in argv:
        assert main(argv + [f"--out={folder}"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "reports", "reports_brackets.csv", "reports_geometry.csv"]
        assert list(folder.iterdir()) == []
        return
    monkeypatch.setitem(cli.COMMANDS, argv[0], lambda cfg: pytest.fail("suite ran"))
    assert main(argv + [f"--out={folder}"]) == 3
    assert capsys.readouterr().err == (
        f"configuration error: --out {str(folder)!r} is a directory\n")
    assert list(tmp_path.iterdir()) == [folder] and list(folder.iterdir()) == []
    with pytest.raises(ConfigError):
        RunConfig(out=str(folder))


def test_bad_seed_names_the_integer_converter(capsys):
    assert main(["nc", "--seed=abc"]) == 3
    assert capsys.readouterr().err == (
        "configuration error: argument --seed: invalid integer value: 'abc'\n")
    parse = cli.build_parser().parse_args
    for text, value in [("7", 7), ("0x5EED", 0x5EED), ("0o17", 15), ("0b101", 5),
                        ("1_000", 1000)]:
        assert parse(["nc", f"--seed={text}"]).seed == value == int(text, 0)


@pytest.mark.parametrize("lam", ["-1", "1"])
def test_poisson_at_zero_kappa_inv(tmp_path, lam):
    # the zero r-matrix: the Sklyanin brackets and the tables are all 0
    out = tmp_path / "rep.json"
    assert main(["poisson", f"--lambda={lam}", "--kappa-inv=0", "--samples", "20",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pass"] is True


def test_kappa_inv_is_used_under_formal_lambda(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["poisson", "--kappa-inv", "0.5", "--samples", "5",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["config"]["kappa_inv"] == 0.5
    assert all(t["kinv"] == rep["config"]["kappa_inv"]
               for t in rep["tables"].values())


def test_export_files(tmp_path):
    out = tmp_path / "dump.csv"
    code = main(["export", "--lambda", "-1.0", "--kappa-inv", "0.31",
                 "--samples", "4", "--format", "csv", "--out", str(out)])
    assert code == 0
    geo = tmp_path / "dump_geometry.csv"
    br = tmp_path / "dump_brackets.csv"
    assert geo.exists() and br.exists()
    header = geo.read_text().splitlines()[0]
    assert header.startswith("x0,x1,x2,x3,s4")
    assert len(geo.read_text().splitlines()) == 5


@pytest.mark.parametrize("suite", ["check-bialgebra", "poisson", "export"])
@pytest.mark.parametrize("flag", ["--lambda", "--kappa-inv", "--twist", "--tol"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_numbers_are_config_errors(suite, flag, value):
    argv = [suite, f"{flag}={value}"]
    if flag != "--lambda":
        argv.append("--lambda=-1")
    assert main(argv) == 3


def test_non_finite_numbers_rejected_by_run_config():
    for kwargs in ({"lam": float("nan")}, {"kappa_inv": float("inf")},
                   {"twist": float("-inf")}, {"tolerance": float("inf")}):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)


@pytest.mark.parametrize("lam", ["-1.0", "1.0", "-1e-08", "formal"])
def test_export_certifies_its_rows(tmp_path, lam):
    out = tmp_path / "rep.json"
    assert main(["export", f"--lambda={lam}", "--samples", "8",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    checks = {c["name"]: c for c in rep["checks"]}
    assert set(checks) == {"pseudosphere_residual", "isometry_residual",
                           "metric_pullback_dev"}
    for name, check in checks.items():
        assert check["residual"] == max(abs(r[name]) for r in rep["rows"])
        assert check["pass"] and check["tolerance"] == 1e-8
    # a tolerance below round-off makes the same rows fail
    assert main(["export", f"--lambda={lam}", "--samples", "8", "--tol", "1e-30",
                 "--out", str(out)]) == 2
    assert json.loads(out.read_text())["pass"] is False


def test_nan_residual_fails_export(tmp_path, monkeypatch, stdlib_bytes):
    from kads import group_geom
    monkeypatch.setattr(group_geom, "pseudosphere_residual", lambda s, lam: float("nan"))
    out = tmp_path / "rep.json"
    assert main(["export", "--lambda=-1", "--samples", "3", "--out", str(out)]) == 2
    assert out.read_text() == stdlib_bytes.pop() + "\n"
    rep = json.loads(out.read_text())
    bad = [c for c in rep["checks"] if not c["pass"]]
    assert [c["name"] for c in bad] == ["pseudosphere_residual"]


def test_nan_deviation_fails_poisson(tmp_path, monkeypatch, stdlib_bytes):
    from kads import sklyanin
    entries = sklyanin.BracketTable.entries

    def poisoned(self, coords):
        out = entries(self, coords)
        if self.name == "local":
            out[1, 3] = float("nan")
        return out

    monkeypatch.setattr(sklyanin.BracketTable, "entries", poisoned)
    out = tmp_path / "rep.json"
    assert main(["poisson", "--lambda=-1", "--samples", "4", "--out", str(out)]) == 2
    assert out.read_text() == stdlib_bytes.pop() + "\n"
    rep = json.loads(out.read_text())
    failed = sorted(c["name"] for c in rep["checks"] if not c["pass"])
    # the first-order check reads every local pair against the quantum algebra
    assert failed == ["first_order_expansion", "local.jacobi", "local.sklyanin_match"]
    local = rep["tables"]["local"]
    assert local["per_pair"]["x1^x3"] != local["per_pair"]["x1^x3"]  # NaN
    assert local["worst_point"] is not None


def test_nan_residual_fails_classify(tmp_path, monkeypatch, stdlib_bytes):
    from kads import rclass
    monkeypatch.setattr(rclass, "numeric_family_residual", lambda *a: float("nan"))
    out = tmp_path / "rep.json"
    assert main(["classify", "--samples", "3", "--out", str(out)]) == 2
    assert out.read_text() == stdlib_bytes.pop() + "\n"
    rep = json.loads(out.read_text())
    failed = sorted(c["name"] for c in rep["checks"] if not c["pass"])
    # canonicalize checks its sample with the same residual: a NaN there is
    # off the surface too
    assert failed == ["canonicalization_max_deviation", "satisfying_samples_max_residual",
                      "violating_samples_min_residual"]


def test_run_all_checks_passes_every_suite(tmp_path, capsys):
    # scripts/run_all_checks.py is the documented full run: 15 suites, each
    # exiting 0 with a passing report
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_all_checks.py")
    spec = importlib.util.spec_from_file_location("run_all_checks", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.run(tmp_path) == 0
    out = capsys.readouterr().out
    assert out.count(": exit 0 ->") == len(script.SUITES) == 15
    reports = sorted(tmp_path.glob("*.json"))
    assert len(reports) == 15
    assert all(json.loads(p.read_text())["pass"] is True for p in reports)
    # each line names its report and that report's sha256
    for line in out.splitlines():
        path, digest = line.split(" -> ")[1].split(" sha256=")
        assert digest == hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def test_suite_times_prints_one_json_line(capsys):
    # scripts/suite_times.py: the fastest of k in-process runs per item
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "suite_times.py")
    spec = importlib.util.spec_from_file_location("suite_times", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["-k", "1", "check-bialgebra --lambda formal"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    line = json.loads(lines[0])
    assert line["k"] == 1 and list(line["ms"]) == ["check-bialgebra --lambda formal"]
    assert line["ms"]["check-bialgebra --lambda formal"] > 0
    assert len(script.ITEMS) == 15
    with pytest.raises(SystemExit):
        script.main(["no such suite"])


def test_start_times_prints_one_json_line(capsys):
    # scripts/start_times.py: the fastest of k fresh-interpreter runs per item
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "start_times.py")
    spec = importlib.util.spec_from_file_location("start_times", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["-k", "1", "kads nc"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    line = json.loads(lines[0])
    assert line["k"] == 1 and list(line["ms"]) == ["kads nc"]
    assert line["bytecode_cache"] is (not sys.dont_write_bytecode)
    assert line["ms"]["kads nc"] > 0
    assert len(script.ITEMS) == 16
    with pytest.raises(SystemExit):
        script.main(["no such item"])


def test_every_traced_name_resolves_in_kads():
    # perfbench/tracer.py wraps these names from outside; a refactor that
    # moves one would leave the traced benchmark run without its span
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.TARGETS) > 30
    for name, modname, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner, attr = getattr(owner, cls_name), meth
            assert attr in vars(owner), (name, modname, cls_name, attr)
        assert callable(getattr(owner, attr, None)), (name, modname, attr)


# every function of src/kads that no suite reaches may stay only for a
# reason of one of these kinds: a new test-only function is declared here
REACH_REASONS = ("error path", "option path", "fallback", "test oracle", "tracer-wrapped",
                 "debugging aid")
UNREACHED = {
    "kads.bialgebra.NotAntisymmetric.__init__": "error path: a non-skew r-matrix",
    "kads.bialgebra.Bivector.__sub__": "test oracle: differences of bivectors",
    "kads.bialgebra.Bivector.__eq__": "test oracle: comparisons of bivectors",
    "kads.cli.integer": "option path: the --seed converter",
    "kads.cli._Parser.error": "error path: a bad command line",
    "kads.curvtrig.Dual.__repr__": "debugging aid",
    "kads.curvtrig.Dual.__bool__": "test oracle: truth of a dual number",
    "kads.curvtrig.tn": "test oracle: the curved tangent",
    "kads.liealg.coeff_norm": "test oracle: residual size in the float sparse loops",
    "kads.rclass.ConstraintViolated.__init__": "error path: a sample off the surface",
    "kads.scalars._overflow": "error path: an exponent overflow",
    "kads.scalars.Scalar.__rsub__": "test oracle: number minus Scalar",
    "kads.scalars.Scalar.__truediv__": "test oracle: Scalar over a rational",
    "kads.scalars.Scalar.exponents": "test oracle: monomial exponents",
    "kads.scalars.Scalar.total_degree": "test oracle: also read by the benchmark tracer",
    "kads.scalars.Scalar.degree_in": "test oracle: degree in one parameter",
    "kads.scalars.Scalar.eval_numeric": "test oracle: evaluation at float points",
    "kads.scalars.rat": "test oracle: rational constants",
    "kads.scalars._ugcd": "fallback: the gcd over the rationals",
    "kads.scalars.Frac.is_zero": "test oracle: zero test of a fraction",
    "kads.scalars.Frac.__eq__": "test oracle: comparisons of fractions",
    "kads.scalars.Frac.__str__": "test oracle: text of a fraction",
    "kads.sklyanin.BracketTable.entry": "test oracle: one entry of a Poisson table",
    "kads.sklyanin.bracket_matrix_local": "tracer-wrapped",
    "kads.sklyanin.bracket_matrix_ambient": "tracer-wrapped",
    "kads.sklyanin.eta_expansion_entry": "test oracle: the small-eta expansion",
}


def test_every_function_no_suite_reaches_is_declared():
    # scripts/reach.py, in a fresh interpreter so that no cache is warm
    assert all(reason.split(":")[0] in REACH_REASONS for reason in UNREACHED.values())
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "reach.py")
    # a declared name must still be a function of src/kads, named as reach.py
    # names it: an entry for deleted code is stale
    spec = importlib.util.spec_from_file_location("reach", path)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    package = pathlib.Path(cli.__file__).parent
    defined = {name for src in package.glob("*.py")
               for name, _, _ in reach.functions(ast.parse(src.read_text()), f"kads.{src.stem}")}
    assert UNREACHED.keys() <= defined, sorted(UNREACHED.keys() - defined)
    proc = subprocess.run([sys.executable, path], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *rows, total = proc.stdout.splitlines()
    sizes = {name: int(size) for size, name in (row.split("\t") for row in rows)}
    assert sizes.keys() <= UNREACHED.keys(), sorted(sizes.keys() - UNREACHED.keys())
    assert total == f"{len(sizes)} functions, {sum(sizes.values())} lines that no suite reaches"


@pytest.mark.parametrize("lam", ["5e-324", "-5e-324"])
def test_export_below_one_over_dbl_max_passes_without_warnings(tmp_path, lam):
    # -1/lam overflows there; the metric pullback takes the flat form
    out = tmp_path / "rep.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["export", f"--lambda={lam}", "--out", str(out)]) == 0
    checks = {c["name"]: c["residual"] for c in json.loads(out.read_text())["checks"]}
    assert all(0 <= v <= 1e-300 for v in checks.values()), checks


def test_poisson_and_export_raise_no_numpy_warnings(tmp_path):
    # the lambda sweep of the benchmark: both signs, ordinary and near flat
    out = str(tmp_path / "rep.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (-1.0, -0.3, -1e-8, 1e-8, 0.3, 1.0):
            for suite in ("poisson", "export"):
                assert main([suite, f"--lambda={lam!r}", "--samples", "20", "--out", out]) == 0


def test_poisson_at_an_overflowing_kappa_inv_fails_without_warnings(tmp_path):
    # products of kappa-inv overflow to inf and then NaN in the Jacobiators,
    # and the local and twisted tables miss their Sklyanin brackets by
    # round-off at that scale: those checks fail, with no numpy warning
    out = tmp_path / "rep.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["poisson", "--lambda=-1", "--samples=2", "--kappa-inv=1e308",
                     "--out", str(out)]) == 2
    failed = [c["name"] for c in json.loads(out.read_text())["checks"] if not c["pass"]]
    assert failed == ["local.sklyanin_match", "local.jacobi", "twisted.sklyanin_match",
                      "twisted.jacobi", "ambient.jacobi"]


def classify_report(tmp_path, kinv: str):
    out = tmp_path / "classify.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["classify", "--samples=3", f"--kappa-inv={kinv}", "--out", str(out)])
    return code, json.loads(out.read_text())


def test_classify_at_large_kappa_inv_fails_its_canonicalization_check(tmp_path):
    # kappa-inv 1e3 passes; from 1e4 the round-off of a sample on the surface
    # by construction stops canonicalize, which fails the check with the
    # residual that stopped it, and an overflow to NaN wins
    code, rep = classify_report(tmp_path, "1e3")
    assert code == 0 and rep["pass"]
    for kinv, error, residual in (("1e4", "ConstraintViolated", 2.9802322387695312e-08),
                                  ("3e4", "NotAntisymmetric", 1.1920928955078125e-07),
                                  ("1e300", "ConstraintViolated", None)):
        code, rep = classify_report(tmp_path, kinv)
        failed = [c for c in rep["checks"] if not c["pass"]]
        assert code == 2 and [c["name"] for c in failed] == ["canonicalization_max_deviation"]
        got, first = failed[0]["residual"], rep["canonicalization"][0]
        assert first["error"].startswith(error + ": ")
        if residual is None:
            assert math.isnan(got) and math.isnan(first["deviation"])
        else:
            assert got == first["deviation"] == residual


def test_non_finite_r_matrix_is_a_config_error(tmp_path, capsys):
    # kappa-inv * eta overflows to inf in the curved r-matrices
    out = tmp_path / "rep.json"
    assert main(["check-bialgebra", "--lambda=-1e9", "--kappa-inv=1e308",
                 "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert "r_curved has a non-finite entry" in err and "--kappa-inv=1e+308" in err


# sha256 of the reports of a finite r whose products overflow, as written
# before numpy's warnings were silenced; every residual is 0, 0.0 or NaN, so
# they do not depend on the machine
OVERFLOW_REPORTS = {
    "": "0b2b237331769680aa7a70826c69576cc07fc3799689ce5fda815d98c34336d3",
    "--inject-fault": "6034442ea256ea820109a16e2f2962f49a1eb08fdb760ba8aa1201dc23bf22b9",
}


@pytest.mark.parametrize("fault", OVERFLOW_REPORTS)
def test_overflowing_r_matrix_fails_its_checks_without_warnings(tmp_path, fault):
    out = tmp_path / "rep.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check-bialgebra", "--lambda=1e300", "--kappa-inv=1e10",
                     "--out", str(out)] + fault.split()) == 2
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OVERFLOW_REPORTS[fault]
    failed = {c["name"]: c["residual"] for c in json.loads(out.read_text())["checks"]
              if not c["pass"]}
    assert "r_curved.mcybe" in failed and all(math.isnan(v) for v in failed.values())


# -- the report encoder against the stdlib's -------------------------------------


@pytest.fixture
def stdlib_bytes(monkeypatch):
    """Check every text ``main`` encodes against the stdlib encoder; the
    list holds the texts."""
    texts = []

    def checked(report):
        text = report_text(report)
        assert text == stdlib_report_text(report)
        texts.append(text)
        return text

    report_text = cli.report_text
    monkeypatch.setattr(cli, "report_text", checked)
    return texts


@pytest.mark.parametrize("argv", [
    ["nc"],
    ["classify", "--samples=25", "--seed=3"],
    ["check-bialgebra", "--lambda=formal"],
    ["check-bialgebra", "--lambda=formal", "--inject-fault"],
    ["check-bialgebra", "--lambda=-0.7"],
    ["check-bialgebra", "--lambda=0.5", "--inject-fault"],
    ["poisson", "--lambda=-0.3", "--samples=4"],
    ["poisson", "--lambda=1", "--samples=9", "--seed=7"],
    ["export", "--lambda=-0.3", "--samples=16"],
    ["export", "--lambda=1e-08", "--samples=3", "--format=csv"],
], ids=" ".join)
def test_every_suite_writes_the_stdlib_bytes(tmp_path, capsys, stdlib_bytes, argv):
    out = tmp_path / "rep.json"
    main(argv + ["--out", str(out)])
    text = stdlib_bytes.pop() + "\n"
    # a csv export prints its report
    assert (capsys.readouterr().out if "--format=csv" in argv else out.read_text()) == text


class _Str(str):
    def __repr__(self):
        return "_Str()"


class _Int(int):
    def __repr__(self):
        return "_Int()"


class _Float(float):
    def __repr__(self):
        return "_Float()"


class _Dict(dict):
    pass


class _List(list):
    pass


# report trees with every leaf the stdlib encodes in its own way: control and
# non-ASCII text, NaN, infinities, -0.0, subnormals, complex and numpy
# scalars (through default=repr), subclasses and non-str keys
_floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                                         -5e-324, 2.2250738585072014e-308, 1e300])
_text = st.text() | st.text(st.characters(max_codepoint=0x1f)) | st.text(
    st.characters(min_codepoint=0x7f))
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), _floats, _text, st.complex_numbers(),
    _floats.map(np.float64), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_), _text.map(_Str), st.integers().map(_Int),
    _floats.map(_Float))
_keys = st.one_of(_text, _text.map(_Str), st.integers(), _floats, st.booleans(),
                  st.integers().map(_Int), st.none())
_trees = st.recursive(_leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.lists(kids, max_size=3).map(_List),
    st.dictionaries(_text, kids, max_size=4), st.dictionaries(_keys, kids, max_size=1),
    st.dictionaries(st.integers() | _floats | st.booleans(), kids, max_size=4),
    st.dictionaries(_text, kids, max_size=3).map(_Dict)), max_leaves=40)


@settings(max_examples=150, deadline=None)
@given(_trees)
def test_report_text_equals_the_stdlib_encoder(tree):
    assert cli.report_text(tree) == stdlib_report_text(tree)


def test_report_text_rejects_the_keys_the_stdlib_rejects():
    for bad in ({(1, 2): 0}, {"a": 1, 2: 0}, {None: 1, 0: 2}, {np.int64(3): 0}):
        for encode in (cli.report_text, stdlib_report_text):
            with pytest.raises(TypeError):
                encode(bad)
