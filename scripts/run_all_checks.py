#!/usr/bin/env python3
"""Run every verification suite and drop the JSON reports next to each other.

Usage:  python scripts/run_all_checks.py [outdir]
Exit code is the worst exit code of the individual suites.  Each line
ends with the report's sha256, so two runs compare with one ``diff``.
"""

import hashlib
import pathlib
import sys

from kads.cli import main

SUITES = [
    ("bialgebra_formal", ["check-bialgebra", "--lambda", "formal"]),
    ("bialgebra_flat", ["check-bialgebra", "--lambda", "0", "--kappa-inv", "0.31"]),
    ("bialgebra_curved", ["check-bialgebra", "--lambda", "-0.7", "--kappa-inv", "0.31"]),
    ("bialgebra_ds", ["check-bialgebra", "--lambda", "0.5", "--kappa-inv", "0.31"]),
    ("bialgebra_near_flat", ["check-bialgebra", "--lambda", "-1e-08", "--kappa-inv", "0.31"]),
    ("classify", ["classify", "--samples", "200"]),
    ("poisson_ads", ["poisson", "--lambda", "-1.0", "--kappa-inv", "0.31",
                     "--samples", "200"]),
    ("poisson_ds", ["poisson", "--lambda", "1.0", "--kappa-inv", "0.31",
                    "--samples", "200"]),
    ("poisson_near_flat", ["poisson", "--lambda", "-1e-08", "--kappa-inv", "0.31",
                           "--samples", "200"]),
    ("poisson_ds_near_flat", ["poisson", "--lambda", "1e-08", "--kappa-inv", "0.31",
                              "--samples", "200"]),
    ("nc", ["nc"]),
    ("export", ["export", "--lambda", "-1.0", "--kappa-inv", "0.31",
                "--samples", "50"]),
    ("export_ds", ["export", "--lambda", "1.0", "--kappa-inv", "0.31",
                   "--samples", "50"]),
    ("export_near_flat", ["export", "--lambda", "-1e-08", "--kappa-inv", "0.31",
                          "--samples", "50"]),
    ("export_ds_near_flat", ["export", "--lambda", "1e-08", "--kappa-inv", "0.31",
                             "--samples", "50"]),
]


def run(outdir: pathlib.Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for name, args in SUITES:
        out = outdir / f"{name}.json"
        code = main(args + ["--out", str(out)])
        # a configuration error (exit 3) writes no report
        digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
        print(f"{name}: exit {code} -> {out} sha256={digest}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    target = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("reports")
    sys.exit(run(target))
