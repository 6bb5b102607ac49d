"""The seeded workloads of the kads benchmark.

A workload turns its seed into one fixed list of operations, a *pass*.
Every pass of a run repeats the same inputs, so every pass must produce
the same outputs.  An operation calls the program from outside, through a
public function of one layer, and returns the raw result; the result is
checked and digested after the pass, outside the timing.

Operations:

* ``nc_straighten``: seeded words on the five ``builtin_algebras()``
  (normal-ordered under both strategies on one shared instance per
  algebra), reversed-word ladders such as ``x2^a x1^b`` in
  ``quantum_sphere()`` up to length 7 (a fresh instance per word), and the
  ``kads nc`` certificates.
* ``sklyanin_sweep``: in-process ``kads poisson`` and ``kads export`` calls
  over a lambda sweep that crosses zero on both sides of ``SERIES_CUT``.
* ``rmatrix_classify``: in-process ``kads classify`` and
  ``kads check-bialgebra`` calls (formal, flat numeric, curved numeric).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

WORKLOADS = ("nc_straighten", "sklyanin_sweep", "rmatrix_classify")

# Exact evaluation point for the NC digests: a digest of the values of the
# coefficients does not depend on how the program represents a fraction.
NC_POINT = {"eta": Fraction(3, 7), "kinv": Fraction(5, 11), "vtheta": Fraction(2, 13)}

# Reversed-word ladders x_hi^a x_lo^b, one fresh algebra instance per word:
# (algebra, hi, a, lo, b).  Besides the long words, the three x2^2 x1^3
# words cost the same and sit just below the ten costliest operations of a
# pass, so the pass's p98 falls inside that cluster, not between two
# operations of different cost.
LADDERS = (
    [("quantum_sphere", "x2", n // 2, "x1", n - n // 2) for n in range(3, 8)]
    + [("local_first_order", "x2", n // 2, "x1", n - n // 2) for n in range(3, 7)]
    + [("ambient", "s2", n // 2, "s1", n - n // 2) for n in range(3, 7)]
    + [("ambient", "s4", n // 2, "s0", n - n // 2) for n in range(3, 5)]
    + [("quantum_sphere", "x2", 3, "x1", 2), ("local_first_order", "x2", 3, "x1", 2),
       ("ambient", "s2", 3, "s1", 2)])
TINY_LADDERS = (("quantum_sphere", "x2", 1, "x1", 2), ("quantum_sphere", "x2", 2, "x1", 2),
                ("ambient", "s4", 1, "s0", 2))

# sha256 of each ladder's evaluated normal form; leftmost and rightmost
# straightening agree on every one of them.
LADDER_DIGESTS = {
    "quantum_sphere.x2^1x1^2": "01aa03a45b185a83b325c5d1ec2828235e854730809c8566df8fb130c8f6defb",
    "quantum_sphere.x2^2x1^2": "460eef397c1ec1a688e4185c9a3f07bf6c22c25fa102a7c076ea29d7c7f9d5a8",
    "quantum_sphere.x2^2x1^3": "3a0700d82e25c575c2028c1f6b8521c81815226b2ebfb39234c0009886dc9013",
    "quantum_sphere.x2^3x1^3": "c7866f0b8f692b12641ea22e0b894e39998c5df299c3cf0d14eac18ec9c60bfc",
    "quantum_sphere.x2^3x1^4": "405ada64ecb819a353878a918e159e06012aa91ffe843dddf3f58f3ebc519fc6",
    "quantum_sphere.x2^3x1^2": "822246ea8c5501ca656faf57568b57edcd15a6dd596d6af9786605852c89c5ec",
    "local_first_order.x2^1x1^2": "a0f483944aebfa4d6247f0e9a79abf82a831b296f71b2a7f72dc18821e0c59cb",
    "local_first_order.x2^2x1^2": "c2d0c61eaa7a95223f3394546bd4527ae1ab79b669048df2996c23ce3a792a16",
    "local_first_order.x2^2x1^3": "7d7c0ffaf44051c7f998315f7729dbd85ab2dfcbcc989835886faf7418bf0d7e",
    "local_first_order.x2^3x1^3": "3f50a1e7398b0b2120b27bfd1293da15c9507c6cc0333426104a9787eddbb93d",
    "local_first_order.x2^3x1^2": "641774658877e0ae44df17c4ae0441e1390f67b418d98d222b3d887abd6d12e9",
    "ambient.s2^1s1^2": "a0f483944aebfa4d6247f0e9a79abf82a831b296f71b2a7f72dc18821e0c59cb",
    "ambient.s2^2s1^2": "c2d0c61eaa7a95223f3394546bd4527ae1ab79b669048df2996c23ce3a792a16",
    "ambient.s2^2s1^3": "7d7c0ffaf44051c7f998315f7729dbd85ab2dfcbcc989835886faf7418bf0d7e",
    "ambient.s2^3s1^3": "3f50a1e7398b0b2120b27bfd1293da15c9507c6cc0333426104a9787eddbb93d",
    "ambient.s2^3s1^2": "641774658877e0ae44df17c4ae0441e1390f67b418d98d222b3d887abd6d12e9",
    "ambient.s4^1s0^2": "221d80841040484a195a0140adfb0e4d4281bfc872b64a4dbbb324a28f59a478",
    "ambient.s4^2s0^2": "172b3afdf573799ec444d214459710d8e03202a37c922a4deaac6b6867fe957c",
}

LAMBDA_SWEEP = (-1.0, -0.3, -1e-8, 1e-8, 0.3, 1.0)

# Export rows are checked by the benchmark itself (the suite has no checks).
EXPORT_TOL = 1e-9


@dataclass
class Op:
    """One operation of a pass.

    ``run`` is timed and returns the raw result; ``check`` turns it into
    ``(ok, digest_bytes)`` after the pass.  ``work`` counts the work units
    done when the check passes; ``expect`` holds the per-layer counts the
    traced run must observe for this operation.
    """

    label: str
    run: Callable
    check: Callable
    work: int
    expect: dict = field(default_factory=dict)


class Workload:
    """Common set-up: the seeded generator and a working directory for reports."""

    name = ""
    why = ""
    work_unit = ""

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}/{seed}")

    def prepare(self):
        """Imports and builds what a user needs before the first operation."""
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def _cli_op(self, label: str, argv: list, idx: int, work: int,
                expect: dict, verify=None) -> Op:
        from kads import cli
        path = os.path.join(self.workdir, f"op{idx}.json")
        argv = list(argv) + [f"--out={path}"]

        def run():
            return cli.main(argv)

        def check(code):
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                return False, f"{label}: no report, exit {code}".encode()
            os.remove(path)
            report = json.loads(data)
            ok = code == 0 and report.get("pass") is True
            if ok and verify is not None:
                ok = verify(report)
            return ok, data

        return Op(label, run, check, work, dict(expect, **{"cli.main.calls": 1}))


# -- nc_straighten ---------------------------------------------------------------


def nc_value_digest(poly) -> bytes:
    """Exact value of every coefficient at NC_POINT, word by word."""
    from kads.scalars import Scalar
    point = {k: Scalar.rational(v) for k, v in NC_POINT.items()}
    parts = []
    for w in sorted(poly.terms):
        parts.append(f"{w}={poly.terms[w].substitute(point)}")
    return ";".join(parts).encode()


def _normal_words(poly) -> bool:
    return all(all(w[k] <= w[k + 1] for k in range(len(w) - 1)) for w in poly.terms)


class NCStraighten(Workload):
    name = "nc_straighten"
    why = ("NC engine and exact coefficients: reused short words (memo hits) "
           "and fresh long reversed words (denominator blow-up)")
    work_unit = "words"

    # seeded words: (shortest, longest) length per algebra.  Long words live
    # in the deterministic ladders: a fresh seeded word of length 4 to 6 on a
    # curved algebra costs from 1 ms to 15 s depending on its letters, which
    # would tie the pass time and its tail percentile to the seed.
    FULL = {"lengths": {"kappa_minkowski": (2, 6), "kappa_minkowski_twisted": (2, 6),
                        "quantum_sphere": (2, 3), "local_first_order": (2, 3),
                        "ambient": (2, 3)},
            "per_length": 40, "ladders": LADDERS}
    TINY = {"lengths": {name: (2, 3) for name in FULL["lengths"]},
            "per_length": 2, "ladders": TINY_LADDERS}

    def __init__(self, seed, size, workdir):
        super().__init__(seed, workdir)
        cfg = self.TINY if size == "tiny" else self.FULL
        from kads import ncalg
        gens = {name: len(b["algebra"].gens)
                for name, b in ncalg.builtin_algebras().items()}
        self.words = []
        for name, (lo, hi) in cfg["lengths"].items():
            for n in range(lo, hi + 1):
                for _ in range(cfg["per_length"]):
                    word = tuple(self.rng.randrange(gens[name]) for _ in range(n))
                    self.words.append((name, word))
        self.rng.shuffle(self.words)
        self.ladders = cfg["ladders"]

    def prepare(self):
        from kads import ncalg
        ncalg.builtin_algebras()

    def ops(self) -> list:
        from kads import ncalg
        shared = ncalg.builtin_algebras()
        ops = []
        for name, word in self.words:
            ops.append(self._word_op(name, shared[name]["algebra"], word))
        for name, hi, a, lo, b in self.ladders:
            ops.append(self._ladder_op(ncalg.builtin_algebras()[name]["algebra"], name, hi, a, lo, b))
        ops.extend(self._certificate_ops(ncalg.builtin_algebras()))
        return ops

    def _word_op(self, name, alg, word) -> Op:
        def run():
            return (alg.normal_form({word: 1}, "leftmost"),
                    alg.normal_form({word: 1}, "rightmost"))

        def check(res):
            left, right = res
            ok = (left - right).is_zero() and _normal_words(left)
            return ok, f"{name}{word}:".encode() + nc_value_digest(left)

        return Op(f"word.{name}", run, check, 1, {"ncalg.normal_form.top": 2})

    def _ladder_op(self, alg, name: str, hi: str, a: int, lo: str, b: int) -> Op:
        label = f"{name}.{hi}^{a}{lo}^{b}"
        word = (alg.pos[hi],) * a + (alg.pos[lo],) * b

        def run():
            return alg.normal_form({word: 1}, "leftmost")

        def check(res):
            data = nc_value_digest(res)
            ok = _normal_words(res) and hashlib.sha256(data).hexdigest() == LADDER_DIGESTS[label]
            return ok, data

        return Op(f"ladder.{label}", run, check, 1, {"ncalg.normal_form.top": 1})

    def _certificate_ops(self, bundles) -> list:
        from kads import ncalg
        ops = []
        # methods are looked up when the operation runs, so a traced run sees them
        for name, bundle in bundles.items():
            alg = bundle["algebra"]
            ops.append(Op(f"cert.jacobi.{name}", lambda alg=alg: alg.jacobi_certificate(),
                          lambda v: (v == 0, str(v).encode()), 0))
            ops.append(Op(f"cert.triples.{name}", lambda alg=alg: alg.certificates_json(),
                          lambda d: (all(v == "0" for v in d.values()),
                                     json.dumps(d, sort_keys=True).encode()), 0))
            for cname, (cas, subset) in bundle["casimirs"].items():
                ops.append(Op(f"cert.casimir.{name}.{cname}",
                              lambda alg=alg, cas=cas, subset=subset:
                              alg.casimir_check(cas, subset),
                              lambda v: (v == 0, str(v).encode()), 0))
        ops.append(Op("cert.flat_limits", lambda: ncalg.flat_limits_ok(),
                      lambda v: (v is True, str(v).encode()), 0))
        ops.append(Op("cert.displayed_brackets", lambda: ncalg.displayed_brackets_ok(),
                      lambda v: (v is True, str(v).encode()), 0))
        return ops


# -- sklyanin_sweep ----------------------------------------------------------------


def _export_ok(report) -> bool:
    rows = report["rows"]
    return bool(rows) and all(
        abs(r["pseudosphere_residual"]) <= EXPORT_TOL
        and r["isometry_residual"] <= EXPORT_TOL
        and r["metric_pullback_dev"] <= EXPORT_TOL for r in rows)


class SklyaninSweep(Workload):
    name = "sklyanin_sweep"
    why = ("numeric layer: group elements, coset derivatives and closed-form "
           "tables across AdS, dS and both sides of SERIES_CUT")
    work_unit = "points"

    FULL = {"blocks": 4, "poisson_samples": 4, "exports": 2, "export_samples": 16}
    TINY = {"blocks": 1, "poisson_samples": 1, "exports": 1, "export_samples": 2}

    def __init__(self, seed, size, workdir):
        super().__init__(seed, workdir)
        self.cfg = self.TINY if size == "tiny" else self.FULL
        self.calls = []
        for lam in LAMBDA_SWEEP:
            for _ in range(self.cfg["blocks"]):
                kinv = round(self.rng.uniform(0.1, 1.0), 6)
                twist = round(self.rng.uniform(-0.5, 0.5), 6)
                self.calls.append(("poisson", lam, kinv, twist,
                                   self.rng.getrandbits(31)))
                for _ in range(self.cfg["exports"]):
                    self.calls.append(("export", lam, kinv, twist,
                                       self.rng.getrandbits(31)))
        self.rng.shuffle(self.calls)

    def prepare(self):
        import scipy.integrate  # noqa: F401  (imported lazily by `kads poisson`)
        from kads import group_geom, sklyanin
        for lam in LAMBDA_SWEEP:
            sklyanin.closed_form_local(lam, 0.5)
            group_geom.group_element(group_geom.GroupPoint(x=(0.1, 0.1, 0.1, 0.1), lam=lam))

    def ops(self) -> list:
        ops = []
        for idx, (suite, lam, kinv, twist, seed) in enumerate(self.calls):
            # `--lambda=VALUE`: a separate `--lambda -1e-08` is read as an option
            argv = [suite, f"--lambda={lam!r}", f"--kappa-inv={kinv!r}",
                    f"--twist={twist!r}", f"--seed={seed}"]
            if suite == "poisson":
                n = self.cfg["poisson_samples"]
                ops.append(self._cli_op(
                    f"poisson.{lam!r}", argv + [f"--samples={n}"], idx, 3 * n,
                    {"sklyanin.verify_table.points": 3 * n},
                    verify=lambda rep, n=n: all(t["samples"] == n
                                                for t in rep["tables"].values())))
            else:
                n = self.cfg["export_samples"]
                ops.append(self._cli_op(
                    f"export.{lam!r}", argv + [f"--samples={n}"], idx, n, {},
                    verify=lambda rep, n=n: len(rep["rows"]) == n and _export_ok(rep)))
        return ops


# -- rmatrix_classify ----------------------------------------------------------------


class RMatrixClassify(Workload):
    name = "rmatrix_classify"
    why = ("Lie bialgebra and r-matrix layers: float mCYBE sampling in classify "
           "next to the exact formal and numeric bialgebra certificates")
    work_unit = "r-matrix samples"

    FULL = {"blocks": 8, "classify_samples": 6, "curved": 4}
    TINY = {"blocks": 1, "classify_samples": 1, "curved": 1}

    def __init__(self, seed, size, workdir, inject_fault=False):
        super().__init__(seed, workdir)
        cfg = self.TINY if size == "tiny" else self.FULL
        n = cfg["classify_samples"]
        self.calls = []
        for _ in range(cfg["blocks"]):
            self.calls.append(("classify", ["classify", f"--samples={n}",
                                            f"--seed={self.rng.getrandbits(31)}"],
                               2 * n + min(n, 100),
                               {"rclass.numeric_family_residual.calls": 2 * n + min(n, 100)}))
            self.calls.append(("check-bialgebra.formal",
                               ["check-bialgebra", "--lambda=formal"], 5, {}))
            self.calls.append(("check-bialgebra.flat",
                               ["check-bialgebra", "--lambda=0"] + self._kinv_twist(), 5, {}))
            for _ in range(cfg["curved"]):
                lam = round(self.rng.choice((-1, 1)) * self.rng.uniform(0.2, 2.0), 6)
                self.calls.append(("check-bialgebra.curved",
                                   ["check-bialgebra", f"--lambda={lam!r}"] + self._kinv_twist(),
                                   5, {}))
        if inject_fault:
            self.calls.append(("check-bialgebra.fault", ["check-bialgebra", "--lambda=formal",
                                                         "--inject-fault"], 5, {}))
        self.rng.shuffle(self.calls)

    def _kinv_twist(self) -> list:
        return [f"--kappa-inv={round(self.rng.uniform(0.1, 1.0), 6)!r}",
                f"--twist={round(self.rng.uniform(-0.5, 0.5), 6)!r}"]

    def prepare(self):
        from kads import liealg
        from kads.scalars import sym
        liealg.ads_algebra(sym("Lambda"))
        liealg.ads_algebra(-1.0)

    def ops(self) -> list:
        ops = []
        for idx, (label, argv, work, expect) in enumerate(self.calls):
            ops.append(self._cli_op(label, argv, idx, work, expect))
        return ops


def make(name: str, seed: int, size: str, workdir: str, inject_fault: bool = False):
    if name == "nc_straighten":
        return NCStraighten(seed, size, workdir)
    if name == "sklyanin_sweep":
        return SklyaninSweep(seed, size, workdir)
    if name == "rmatrix_classify":
        return RMatrixClassify(seed, size, workdir, inject_fault=inject_fault)
    raise ValueError(f"unknown workload {name!r}")
