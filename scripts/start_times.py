#!/usr/bin/env python3
"""Start-up times: fresh interpreters that run one CLI suite or import one
layer of this checkout.

Each item is a command line run in a new Python process with this
checkout's ``src/`` first on ``PYTHONPATH``; its time is the wall time from
starting the process to its exit, so it includes the interpreter's own
start and every import the item makes.  The items run round-robin, k
rounds, and each keeps the fastest of its k runs.  The CLI suites write
their reports to a temporary directory.  Prints one JSON line:
``{"k": k, "python": version, "bytecode_cache": bool, "ms": {name: fastest
of the k runs in ms}}``.  ``bytecode_cache`` is false when this interpreter
writes no ``.pyc`` files (``PYTHONDONTWRITEBYTECODE`` or ``-B``), which the
items inherit: every run then compiles ``kads`` from source, so cold starts
compare only between runs with the same setting.

Usage:  python scripts/start_times.py [-k K] [NAME ...]
With no NAME every item is timed; the names are the keys of ITEMS.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CLI_SUITES = {
    "kads nc": ["nc"],
    "kads check-bialgebra --lambda formal": ["check-bialgebra", "--lambda", "formal"],
    "kads check-bialgebra --lambda=-0.7": ["check-bialgebra", "--lambda=-0.7"],
    "kads poisson --lambda=-0.3 --samples=4": ["poisson", "--lambda=-0.3", "--samples=4"],
    "kads export --lambda=-0.3 --samples=16": ["export", "--lambda=-0.3", "--samples=16"],
    "kads classify --samples=6": ["classify", "--samples=6"],
}
LAYERS = ("scalars", "ncalg", "liealg", "bialgebra", "rclass", "curvtrig", "group_geom",
          "sklyanin", "cli")
# the empty interpreter, then each layer's import: {name: code for -c}
SNIPPETS = {"python -c pass": "pass",
            **{f"from kads import {layer}": f"from kads import {layer}" for layer in LAYERS}}
ITEMS = ("python -c pass",) + tuple(CLI_SUITES) + tuple(SNIPPETS)[1:]


def command(name: str, report: str) -> list:
    """The argv of one item; a CLI suite writes its report to ``report``."""
    if name in CLI_SUITES:
        return [sys.executable, "-m", "kads.cli", *CLI_SUITES[name], "--out", report]
    return [sys.executable, "-c", SNIPPETS[name]]


def start_times(names, k: int) -> dict:
    """{name: fastest of k process runs in ms}; an item that does not exit 0
    raises."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    best = dict.fromkeys(names, float("inf"))
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        for _ in range(k):
            for name in names:
                argv = command(name, report)
                start = time.perf_counter()
                proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True)
                elapsed = time.perf_counter() - start
                if proc.returncode != 0:
                    raise RuntimeError(f"{name!r} exited {proc.returncode}: {proc.stderr}")
                best[name] = min(best[name], elapsed)
    return {name: 1e3 * t for name, t in best.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("-k", type=int, default=5, help="runs per item (default 5)")
    p.add_argument("names", nargs="*", metavar="NAME",
                   help="items to time (default: all): " + ", ".join(ITEMS))
    args = p.parse_args(argv)
    if args.k < 1:
        p.error("k must be >= 1")
    unknown = [n for n in args.names if n not in ITEMS]
    if unknown:
        p.error(f"unknown items {unknown}; choose from {list(ITEMS)}")
    times = start_times(args.names or ITEMS, args.k)
    print(json.dumps({"k": args.k, "python": platform.python_version(),
                      "bytecode_cache": not sys.dont_write_bytecode,
                      "ms": {name: round(ms, 1) for name, ms in times.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
