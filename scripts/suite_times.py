#!/usr/bin/env python3
"""In-process times of the CLI suites, of the exact r-matrix kernels and of
the report encoding.

Runs each named item k times in this process and prints one JSON line:
``{"k": k, "python": version, "ms": {name: fastest of the k runs in ms}}``.
The CLI suites write their reports to a temporary directory, so the time
includes the JSON encoding.  The kernels are timed without the CLI: the
formal ``check-bialgebra`` suite function, the symbolic constraint ideal,
the primitivity reduction of the 45-parameter ansatz on the formal
algebra, which is built once outside the timing, ``cli.report_text``
on the report of ``export --lambda=-0.3 --samples=16``, also built once,
and the NC engine's memo hits: every word of length 2-4 under both
strategies on one instance per built-in algebra, warmed by one untimed
sweep, so every word is read from the memo.

Usage:  PYTHONPATH=src python scripts/suite_times.py [-k K] [NAME ...]
With no NAME every item is timed; the names are the keys of ITEMS.
"""

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from itertools import product

from kads import cli, ncalg, rclass
from kads.liealg import IDX, ads_algebra
from kads.scalars import sym

CLI_SUITES = {
    "classify --samples 200": ["classify", "--samples", "200"],
    "nc": ["nc"],
    "export --lambda=-1": ["export", "--lambda=-1"],
    "poisson --lambda=1": ["poisson", "--lambda=1"],
    "poisson --lambda=-1": ["poisson", "--lambda=-1"],
    "check-bialgebra --lambda formal": ["check-bialgebra", "--lambda", "formal"],
    # the sizes of one sklyanin_sweep operation in perfbench/
    "poisson --lambda=-0.3 --samples=4": ["poisson", "--lambda=-0.3", "--samples=4"],
    "export --lambda=-0.3 --samples=16": ["export", "--lambda=-0.3", "--samples=16"],
    # the sizes of one rmatrix_classify operation in perfbench/
    "classify --samples=6": ["classify", "--samples=6"],
    "check-bialgebra --lambda=-0.7": ["check-bialgebra", "--lambda=-0.7"],
    # the dS side, checked as the real form at lambda = -0.7
    "check-bialgebra --lambda=0.7": ["check-bialgebra", "--lambda=0.7"],
}


def _memo_sweep():
    """Every word of length 2-4 under both strategies on one warm instance
    per built-in algebra; the first call fills the memos, outside the timing."""
    calls = []
    for bundle in ncalg.builtin_algebras().values():
        alg = bundle["algebra"]
        words = [w for n in (2, 3, 4) for w in product(range(len(alg.gens)), repeat=n)]
        calls += [(alg.normal_form, {w: 1}, s) for s in ("leftmost", "rightmost")
                  for w in words]

    def sweep():
        for normal_form, word, strategy in calls:
            normal_form(word, strategy)

    sweep()
    return sweep


def _kernels() -> dict:
    """Zero-argument calls of the kernels, their inputs built here."""
    ansatz, algebra = rclass.generic_ansatz(), ads_algebra(sym("Lambda"))
    export = cli.cmd_export(cli.RunConfig(lam=-0.3, samples=16))
    memo_hits = _memo_sweep()
    return {
        "kernel: formal cmd_bialgebra": lambda: cli.cmd_bialgebra(cli.RunConfig()),
        "kernel: constraint_residuals": rclass.constraint_residuals,
        "kernel: impose_primitivity": lambda: rclass.impose_primitivity(
            ansatz, algebra, IDX["P0"]),
        "kernel: report encoding": lambda: cli.report_text(export),
        "nc memo hits": memo_hits,
    }


ITEMS = tuple(CLI_SUITES) + ("kernel: formal cmd_bialgebra", "kernel: constraint_residuals",
                             "kernel: impose_primitivity", "kernel: report encoding",
                             "nc memo hits")


def fastest_ms(call, k: int) -> float:
    best = float("inf")
    for _ in range(k):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def suite_times(names, k: int) -> dict:
    """{name: fastest of k runs in ms}; a suite that does not exit 0 raises."""
    kernels = _kernels() if set(names) - set(CLI_SUITES) else {}
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")

        def run_suite(argv):
            code = cli.main(argv + ["--out", report])
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")

        for name in names:
            if name in CLI_SUITES:
                argv = CLI_SUITES[name]
                out[name] = fastest_ms(lambda: run_suite(argv), k)
            else:
                out[name] = fastest_ms(kernels[name], k)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("-k", type=int, default=3, help="runs per item (default 3)")
    p.add_argument("names", nargs="*", metavar="NAME",
                   help="items to time (default: all): " + ", ".join(ITEMS))
    args = p.parse_args(argv)
    if args.k < 1:
        p.error("k must be >= 1")
    unknown = [n for n in args.names if n not in ITEMS]
    if unknown:
        p.error(f"unknown items {unknown}; choose from {list(ITEMS)}")
    times = suite_times(args.names or ITEMS, args.k)
    print(json.dumps({"k": args.k, "python": platform.python_version(),
                      "ms": {name: round(ms, 3) for name, ms in times.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
