"""Batch driver: every verification suite and table export as a subcommand.

Reports are JSON (schema ``report_v1``), deterministic byte-for-byte for a
fixed configuration (sorted keys, seeded sampling, no timestamps).  Exit
codes: 0 all checks passed, 2 some residual exceeded its tolerance, 3
configuration error.

The module level imports the standard library and the exact layers
(``scalars``, ``ncalg``) only; each suite imports numpy and its other
layers when it runs, once per call.  ``liealg``, ``bialgebra`` and
``rclass`` import numpy only in their float kernels, so ``kads nc`` and
``kads check-bialgebra --lambda formal`` load no numpy.  Numeric
``check-bialgebra`` is real: at lambda > 0 it checks the real form at -lambda.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import re
import sys
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii

from . import ncalg
from .scalars import Scalar, sym


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    lam: object = "formal"      # float or "formal"
    kappa_inv: float = 0.31
    twist: float = 0.17
    samples: int = 200
    seed: int = 0x5EED
    tolerance: float = 1e-8
    out: str | None = None
    fmt: str = "json"
    inject_fault: bool = False

    def __post_init__(self):
        numbers = {"--kappa-inv": self.kappa_inv, "--twist": self.twist,
                   "--tol": self.tolerance}
        if not self.formal:
            numbers["--lambda"] = self.lam
        for flag, value in numbers.items():
            if not math.isfinite(value):
                raise ConfigError(f"{flag} must be finite, got {value!r}")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.tolerance <= 0:
            raise ConfigError("tolerance must be positive")
        if self.fmt not in ("json", "csv"):
            raise ConfigError("format must be json or csv")
        if self.fmt == "csv" and not self.out:
            raise ConfigError("--format csv needs --out")
        if self.out:
            folder = os.path.dirname(self.out)
            if folder and not os.path.isdir(folder):
                raise ConfigError(f"--out directory {folder!r} does not exist")
            # CSV files go beside ``out`` (``<out>_geometry.csv``), a report into it
            if self.fmt == "json" and os.path.isdir(self.out):
                raise ConfigError(f"--out {self.out!r} is a directory")

    @property
    def formal(self) -> bool:
        return self.lam == "formal"

    def echo(self) -> dict:
        d = asdict(self)
        d.pop("out")  # the destination path is not semantic configuration
        d["schema"] = "report_v1"
        return d


def _parse_lambda(text: str):
    if text == "formal":
        return "formal"
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"bad --lambda value {text!r}") from exc


def _check(name: str, residual, tol, ok=None) -> dict:
    """A check record: it passes at ``residual <= tol`` unless ``ok`` is given."""
    ok = residual <= tol if ok is None else ok
    return {"name": name, "residual": residual, "tolerance": tol, "pass": bool(ok)}


def _report(suite: str, cfg: RunConfig, checks: list, **fields) -> dict:
    """A suite's report: name, configuration, checks, verdict and ``fields``."""
    return {"suite": suite, "config": cfg.echo(), **fields, "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def _rmatrix_set(formal: bool, lam, kinv, twist):
    """The five named r-matrices with the algebras they live on: exact
    LieAlgebras when formal, else the dense float tables f.  A numeric
    r-matrix with a non-finite entry (kappa-inv * eta overflowing) is a
    configuration error.  A numeric lambda > 0 (dS, eta = i sqrt(lambda))
    takes the real form at -lambda: P -> iP maps the algebra at lambda onto
    the one at -lambda and r(kinv, i sqrt(lambda)) onto -i r(kinv,
    -sqrt(lambda)), and P0 -> -P0, K -> -K flips the sign of eta.  Every
    certificate is a magnitude or a support, so the real r(kinv,
    sqrt(lambda)) over ``ads_tensor(-lambda)`` has the same ones."""
    from . import rclass
    from .liealg import ads_algebra, ads_tensor
    if formal:
        eta, kv, vt = sym("eta"), sym("kinv"), sym("vtheta")
        g_curved = ads_algebra(-(eta ** 2))
        g_flat = ads_algebra(0)
    else:
        curved = float(-lam if lam > 0 else lam)
        eta, kv, vt = math.sqrt(-curved), float(kinv), float(twist)
        g_curved = ads_tensor(curved)
        g_flat = ads_tensor(0.0)
    entries = [
        ("r_flat", g_flat, rclass.r_poincare(kv)),
        ("r_flat_twisted", g_flat, rclass.r_poincare_twisted(kv, vt)),
        ("r_curved", g_curved, rclass.r_kads(kv, eta)),
        ("r_curved_twisted", g_curved, rclass.r_kads_twisted(kv, eta, vt)),
        ("r_2plus1", g_curved, rclass.r_2plus1(kv)),
    ]
    for name, _, r in entries:
        if not (formal or all(map(math.isfinite, r.components.values()))):
            raise ConfigError(f"{name} has a non-finite entry at --lambda={lam!r} "
                              f"--kappa-inv={kinv!r} --twist={twist!r}")
    return entries


def _sparse_certificates(entries, inject_fault: bool) -> list:
    """``(name, mcybe, rest)`` for each r-matrix on its exact algebra, by the
    sparse loops.  ``rest`` is (dual Jacobi, Lorentz coisotropy,
    |delta(P0)|), or None for r_2plus1, whose mCYBE residual is taken on
    the 2+1 subalgebra, which must close.  ``inject_fault`` adds J1^J2 to
    delta(P0) of r_curved."""
    from . import bialgebra as B, rclass
    from .liealg import IDX, subalgebra
    p0, sub = IDX["P0"], rclass.SUBALG_2PLUS1
    out = []
    for name, g, r in entries:
        if name == "r_2plus1":
            remap = {gi: p for p, gi in enumerate(sub)}
            r_sub = B.Bivector({(remap[i], remap[j]): c for (i, j), c in r.components.items()})
            out.append((name, B.mcybe_residual(subalgebra(g, sub), r_sub), None))
            continue
        delta = B.cocommutator(g, r)
        if inject_fault and name == "r_curved":
            delta[p0] = delta[p0] + B.Bivector.from_terms(
                (IDX["J1"], IDX["J2"], Scalar.rational(1)))
        out.append((name, B.mcybe_residual(g, r),
                    (B.dual_jacobi_residual(delta), B.coisotropy_check(g, delta, rclass.LORENTZ),
                     delta[p0].norm())))
    return out


def _dense_certificates(entries, inject_fault: bool) -> list:
    """The same from the float tables f and one dense cocommutator per
    r-matrix."""
    import numpy as np

    from . import bialgebra as B, rclass
    from .liealg import DIM, IDX, subalgebra_dense
    p0, sub = IDX["P0"], rclass.SUBALG_2PLUS1
    out = []
    # a finite numeric r whose products overflow makes NaN residuals, which
    # fail their checks
    with np.errstate(over="ignore", invalid="ignore"):
        for name, f, r in entries:
            rmat = r.matrix(DIM)
            if name == "r_2plus1":
                out.append((name, B.mcybe_residual_dense(subalgebra_dense(f, sub),
                                                         rmat[sub, :][:, sub]), None))
                continue
            delta = B.cocommutator_dense(f, rmat)
            if inject_fault and name == "r_curved":
                delta[p0] += B.Bivector.from_terms((IDX["J1"], IDX["J2"], 1.0)).matrix(DIM)
            out.append((name, B.mcybe_residual_dense(f, rmat),
                        (B.dual_jacobi_residual(delta), B.coisotropy_check(f, delta, rclass.LORENTZ),
                         float(np.max(np.abs(delta[p0]))) or 0)))
    return out


def cmd_bialgebra(cfg: RunConfig) -> dict:
    entries = _rmatrix_set(cfg.formal, cfg.lam, cfg.kappa_inv, cfg.twist)
    tol = 0 if cfg.formal else cfg.tolerance
    certificates = _sparse_certificates if cfg.formal else _dense_certificates
    checks = []
    for name, mcybe, rest in certificates(entries, cfg.inject_fault):
        checks.append(_check(f"{name}.mcybe", mcybe, tol))
        if rest is None:
            continue
        dual_jacobi, coiso, primitive = rest
        checks.append(_check(f"{name}.dual_jacobi", dual_jacobi, tol))
        checks.append(_check(f"{name}.coisotropy_lorentz", 0 if coiso else 1, 0))
        checks.append(_check(f"{name}.time_translation_primitive", primitive, tol))
    return _report("bialgebra", cfg, checks)


def cmd_classify(cfg: RunConfig) -> dict:
    import numpy as np

    from . import bialgebra as B, rclass
    from .liealg import IDX, ads_algebra, worst_of
    rng = np.random.default_rng(cfg.seed)
    checks = []
    # symbolic ideal extraction and equivalence
    extracted = rclass.constraint_residuals()
    ideal = rclass.ideal_equivalence(extracted, rclass.eq_constraint_polynomials())
    checks.append(_check("constraint_ideal_equivalence", 0 if ideal["equal"] else 1, 0))
    # primitivity reduction of the generic ansatz
    fam = rclass.generic_ansatz()
    red = rclass.impose_primitivity(fam, ads_algebra(sym("Lambda")), IDX["P0"])
    checks.append(_check("primitivity_kernel_dim", len(red.params), 15,
                         ok=len(red.params) == 15))
    # canonicalization transcripts
    n_canon = min(cfg.samples, 100)
    worst = 0.0
    transcripts = []
    for _ in range(n_canon):
        th = float(rng.uniform(0.05, 3.0))
        if abs(th - math.pi / 2) < 0.05:
            th = 0.3
        ph = float(rng.uniform(0.0, 2 * math.pi))
        tw = float(rng.uniform(-1.0, 1.0))
        try:
            # an overflowing --kappa-inv makes NaN residuals, which fail below
            with np.errstate(over="ignore", invalid="ignore"):
                rot, exp, transcript = rclass.canonicalize(th, ph, tw, kinv=cfg.kappa_inv)
        except (rclass.ConstraintViolated, B.NotAntisymmetric) as exc:
            # round-off at a large --kappa-inv: the sample fails the check
            # with the residual that stopped it
            dev = exc.residual
            transcript = {"theta": th, "phi": ph, "twist_input": tw,
                          "error": f"{type(exc).__name__}: {exc}"}
        else:
            keys = set(rot.components) | set(exp.components)
            dev = functools.reduce(worst_of, (
                abs(rot.components.get(k, 0.0) - exp.components.get(k, 0.0)) for k in keys))
        worst = worst_of(worst, dev)
        transcript["deviation"] = dev
        transcripts.append(transcript)
    checks.append(_check("canonicalization_max_deviation", worst, 1e-12))
    # falsification sampling
    sat_worst = 0.0
    vio_best = math.inf
    sample_log = []
    for _ in range(cfg.samples):
        lamv = float(rng.uniform(-2.0, -0.2))
        kv = float(rng.uniform(0.1, 1.0))
        radius = math.sqrt(-lamv) * kv
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        t = float(rng.uniform(-1, 1))
        alpha = tuple(radius * v for v in n)
        beta = tuple(t * v for v in n)
        rs = rclass.numeric_family_residual(alpha, beta, kv, lamv)
        sat_worst = worst_of(sat_worst, rs)
        while True:
            alpha_v = tuple(rng.uniform(-1.5, 1.5, 3))
            beta_v = tuple(rng.uniform(-1.5, 1.5, 3))
            if rclass.constraint_distance(alpha_v, beta_v, radius) > 0.1:
                break
        rv = rclass.numeric_family_residual(alpha_v, beta_v, kv, lamv)
        vio_best = rv if rv != rv or rv < vio_best else vio_best  # NaN is least
        if len(sample_log) < 20:
            sample_log.append({"lambda": lamv, "kinv": kv,
                               "satisfying_residual": rs,
                               "violating_residual": rv})
    checks.append(_check("satisfying_samples_max_residual", sat_worst, 1e-10))
    checks.append(_check("violating_samples_min_residual", vio_best, 1e-6,
                         ok=vio_best > 1e-6))
    return _report("classify", cfg, checks,
                   constraint_polynomials=[str(p) for p in extracted],
                   ideal_equivalence=ideal, canonicalization=transcripts[:10],
                   sample_residuals=sample_log)


def cmd_poisson(cfg: RunConfig) -> dict:
    import numpy as np

    from . import rclass, sklyanin
    from .curvtrig import Dual, eps_part, eta_of, re_part
    lam = -1.0 if cfg.formal else float(cfg.lam)
    kinv = cfg.kappa_inv
    eta = eta_of(lam)
    checks = []
    reports = {}
    tables = [
        ("local", sklyanin.closed_form_local(lam, kinv), rclass.r_kads(kinv, eta)),
        ("twisted", sklyanin.closed_form_twisted(lam, kinv, cfg.twist),
         rclass.r_kads_twisted(kinv, eta, cfg.twist)),
        ("ambient", sklyanin.closed_form_ambient(lam, kinv), rclass.r_kads(kinv, eta)),
    ]
    batch = sklyanin.SampleBatch(cfg.samples, lam, cfg.seed)
    # an overflowing --kappa-inv makes NaN residuals, which fail their checks
    with np.errstate(over="ignore", invalid="ignore"):
        for name, table, r in tables:
            rep = sklyanin.verify_table(r, table, batch)
            rep["worst_point"] = list(rep["worst_point"]) if rep["worst_point"] else None
            reports[name] = rep
            checks.append(_check(f"{name}.sklyanin_match", rep["max_deviation"],
                                 cfg.tolerance))
            checks.append(_check(f"{name}.lorentz_independence",
                                 rep["lorentz_independence"], cfg.tolerance))
            checks.append(_check(f"{name}.jacobi", sklyanin.table_jacobi_residual(
                table, min(cfg.samples, 50), seed=cfg.seed), 1e-7))
    # the local table to first order in eta (a dual eta = 0 + eps) is the
    # Poisson reading of the first-order quantum algebra, pair by pair
    reading = sklyanin.reading_terms(ncalg.local_first_order, sklyanin.LOCAL_LABELS,
                                     {"eta": Dual(0.0, 1.0), "kinv": kinv})
    rng = np.random.default_rng(cfg.seed)
    x = tuple(rng.uniform(-0.8, 0.8, (min(cfg.samples, 50), 4)).T)
    exp_worst = 0.0
    for (i, j), v in sklyanin.eta_expansion_table("local", kinv).entries(x).items():
        z, f = re_part(v), eps_part(v)
        want = sklyanin.reading_entry(reading, i, j, x)
        for dev in (abs(z - re_part(want)), abs(f - eps_part(want))):
            exp_worst = sklyanin.worst_of(exp_worst, float(np.max(dev)))
    checks.append(_check("first_order_expansion", exp_worst, 1e-12))
    # |x|^2 is a Casimir of the quantum sphere's Poisson reading: {x^a, |x|^2}
    # vanishes as a polynomial in (eta, kinv) and the point (a1, a2, a3)
    sphere = sklyanin.formal_reading(ncalg.quantum_sphere)
    point = {"x1": sym("a1"), "x2": sym("a2"), "x3": sym("a3")}
    brackets = [sum(c * math.prod(point[n] for n in w) * 2 * point[b]
                    for b in point for w, c in sphere.get((a, b), {}).items())
                for a in point]
    checks.append(_check("sphere_leaf_conservation", sum(1 for v in brackets if v), 0))
    return _report("poisson", cfg, checks, tables=reports)


def cmd_nc(cfg: RunConfig) -> dict:
    checks = []
    attestations = {}
    bundles = ncalg.builtin_algebras()
    for name, bundle in bundles.items():
        alg = bundle["algebra"]
        residuals = alg.jacobi_residuals()
        checks.append(_check(f"{name}.jacobi_certificate",
                             alg.jacobi_certificate(residuals), 0))
        attestations[name] = alg.certificates_json(residuals)
        for cname, (cas, subset) in bundle["casimirs"].items():
            checks.append(_check(f"{name}.casimir.{cname}",
                                 alg.casimir_check(cas, subset), 0))
    checks.append(_check("flat_limits", 0 if ncalg.flat_limits_ok() else 1, 0))
    checks.append(_check("displayed_casimir_brackets",
                         0 if ncalg.displayed_brackets_ok() else 1, 0))
    return _report("nc", cfg, checks, triple_attestations=attestations)


def cmd_export(cfg: RunConfig) -> dict:
    import numpy as np

    from . import sklyanin
    from .group_geom import (GroupPoint, ambient_from_local, group_element,
                             isometry_residual, metric_at, metric_pullback,
                             pseudosphere_residual)
    lam = -1.0 if cfg.formal else float(cfg.lam)
    kinv = cfg.kappa_inv
    rng = np.random.default_rng(cfg.seed)
    box = 0.8 / max(1.0, math.sqrt(abs(lam)))
    n = cfg.samples
    # every row at once: x is four arrays of n points
    x = tuple(rng.uniform(-box, box, (n, 4)).T)
    s = ambient_from_local(x, lam)
    m = group_element(GroupPoint(x=x, lam=lam))
    metr = metric_at(x, lam)
    table = sklyanin.closed_form_local(lam, kinv)

    def column(values) -> list:
        return np.broadcast_to(values, (n,)).tolist()

    columns = {
        "x": np.transpose(x).tolist(),
        "ambient": np.transpose(s).tolist(),
        "pseudosphere_residual": column(pseudosphere_residual(s, lam)),
        "isometry_residual": column(isometry_residual(m, lam)),
        "metric_diag": np.diagonal(metr, axis1=-2, axis2=-1).tolist(),
        "metric_pullback_dev": column(np.max(np.abs(metr - metric_pullback(x, lam)),
                                             axis=(-2, -1))),
    }
    brackets = {f"x{i}^x{j}": column(v) for (i, j), v in table.entries(x).items()}
    rows = [dict({name: col[k] for name, col in columns.items()},
                 brackets={pair: repr(complex(v[k])) for pair, v in brackets.items()})
            for k in range(n)]
    checks = [_check(name, functools.reduce(sklyanin.worst_of, map(abs, columns[name]), 0.0),
                     cfg.tolerance)
              for name in ("pseudosphere_residual", "isometry_residual", "metric_pullback_dev")]
    report = _report("export", cfg, checks, rows=rows)
    if cfg.fmt == "csv":
        base, _ = os.path.splitext(cfg.out)
        with open(base + "_geometry.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x0", "x1", "x2", "x3", "s4", "s0", "s1", "s2", "s3",
                        "pseudosphere_residual", "isometry_residual"])
            for row in rows:
                w.writerow([repr(v) for v in row["x"] + row["ambient"]]
                           + [repr(row["pseudosphere_residual"]),
                              repr(row["isometry_residual"])])
        with open(base + "_brackets.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            pairs = sorted(rows[0]["brackets"])
            w.writerow(["x0", "x1", "x2", "x3"] + pairs)
            for row in rows:
                w.writerow([repr(v) for v in row["x"]]
                           + [row["brackets"][p] for p in pairs])
    return report


COMMANDS = {
    "check-bialgebra": cmd_bialgebra,
    "classify": cmd_classify,
    "poisson": cmd_poisson,
    "nc": cmd_nc,
    "export": cmd_export,
}


def integer(text: str) -> int:
    """An integer literal in any base Python reads (``int(text, 0)``): the
    parser names this converter in its error for a bad ``--seed``."""
    return int(text, 0)


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError, and reads "-1e-08" as a value rather than an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process: parsing does not change its state."""
    parser = _Parser(prog="kads", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--lambda", dest="lam", default="formal",
                       help='cosmological constant: a float or "formal"')
        p.add_argument("--kappa-inv", dest="kappa_inv", type=float, default=0.31,
                       help="inverse deformation scale, used by every numeric suite")
        p.add_argument("--twist", type=float, default=0.17)
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--seed", type=integer, default=0x5EED)
        p.add_argument("--tol", dest="tolerance", type=float, default=1e-8)
        p.add_argument("--out", default=None)
        if name == "export":
            p.add_argument("--format", dest="fmt", choices=("json", "csv"),
                           default="json")
        if name == "check-bialgebra":
            p.add_argument("--inject-fault", action="store_true")
    return parser


def report_text(report) -> str:
    """``json.dumps(report, sort_keys=True, indent=1, default=repr)``, byte for
    byte: the walk of the stdlib's pure-Python encoder, which any indent
    selects, in fewer calls.  A report is a tree: no circularity check."""
    out = []
    _write_json(report, "\n", out)
    return "".join(out)


def _write_json(o, pad: str, out: list) -> None:
    """Append the text of ``o`` to ``out``, ``pad`` being its own line break
    and indentation."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    elif o is None or o is True or o is False:
        out.append("null" if o is None else "true" if o else "false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, dict):
        inner, sep = pad + " ", "{"
        for key, value in sorted(o.items()):
            out.append(f"{sep}{inner}{encode_basestring_ascii(_key_text(key))}: ")
            _write_json(value, inner, out)
            sep = ","
        out.append(pad + "}" if o else "{}")
    elif isinstance(o, (list, tuple)):
        inner, sep = pad + " ", "["
        for value in o:
            out.append(sep + inner)
            _write_json(value, inner, out)
            sep = ","
        out.append(pad + "]" if o else "[]")
    else:
        _write_json(repr(o), pad, out)


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key) -> str:
    """A dict key as the stdlib turns it into a string."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is None or key is True or key is False:
        return "null" if key is None else "true" if key else "false"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = RunConfig(lam=_parse_lambda(args.lam), kappa_inv=args.kappa_inv,
                        twist=args.twist, samples=args.samples, seed=args.seed,
                        tolerance=args.tolerance, out=args.out,
                        fmt=getattr(args, "fmt", "json"),
                        inject_fault=getattr(args, "inject_fault", False))
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    try:
        report = COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    text = report_text(report)
    if cfg.out and cfg.fmt == "json":
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report["pass"] else 2


if __name__ == "__main__":
    sys.exit(main())
