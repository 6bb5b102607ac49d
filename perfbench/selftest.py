"""Self-tests of the kads benchmark.

    python3 perfbench/selftest.py

Runs the tiny size of every workload, untraced and traced, and checks that

* every run succeeds with no failed operation;
* two runs with the same seed give the same digest, and the traced run
  gives the digest of the untraced one (its layer-count self-checks pass);
* a `check-bialgebra --inject-fault` call is counted as a failed operation
  and makes the run incorrect without ending it;
* in a directory holding only BENCHMARK.json and the benchmark's files the
  benchmark exits with an error and prints no result.

Exits with 1 when any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT = 180


def bench(*extra, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, "--seconds", "1", "--size", "tiny", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    digest = next((ln.split()[1] for ln in lines if ln.startswith("digest ")), None)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, digest, proc.stderr


def main() -> int:
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for wl in WORKLOADS:
        runs = [bench("--workload", wl, "--seed", "5", "--trace", t) for t in ("0", "0", "1")]
        for (code, res, digest, err), kind in zip(runs, ("untraced", "repeat", "traced")):
            expect(code == 0 and res is not None and res["correct"] and res["failed"] == 0,
                   f"{wl} {kind} run is correct" + ("" if code == 0 else f": {err[-300:]}"))
        expect(runs[0][2] is not None and runs[0][2] == runs[1][2],
               f"{wl}: same seed, same digest")
        expect(runs[0][2] == runs[2][2], f"{wl}: traced digest equals untraced digest")
        metrics = runs[0][1]["metrics"] if runs[0][1] else {}
        expect(all(metrics.get(k, {}).get("value", 0) > 0 for k in
                   ("setup_s", "wall_s", "work_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")),
               f"{wl}: every end-to-end metric is positive")
        other = bench("--workload", wl, "--seed", "6", "--trace", "0")
        expect(other[2] is not None and other[2] != runs[0][2],
               f"{wl}: another seed, another digest")

    code, res, _, _ = bench("--workload", "rmatrix_classify", "--seed", "5", "--trace", "0",
                            "--inject-fault")
    expect(code == 0 and res is not None and res["failed"] >= 1 and not res["correct"]
           and res["attempted"] > res["failed"],
           "injected fault is counted in ops_failed_frac and the run continues")

    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        if os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, res, _, err = bench("--workload", "nc_straighten", "--seed", "5", "--trace", "0",
                                  cwd=bare, script=os.path.join(bare, os.path.basename(HERE), "run.py"))
        expect(code != 0 and res is None, "without the program's sources it fails with no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
