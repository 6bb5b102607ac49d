"""kads benchmark: one seeded, single-threaded workload per invocation.

    python3 perfbench/run.py --workload nc_straighten --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, never from an installed copy.  A run

1. measures set-up (interpreter start to ready: imports and building the
   algebras and tables) in fresh interpreters and reports the median;
2. repeats passes of the workload's operations, a closed loop with one
   client, while the next pass is expected to end within ``--seconds``
   (at least three passes);
3. checks every output and digests all of them; every pass must give the
   same digest;
4. prints one line per metric and, as the last line, one JSON object.

With ``--trace 1`` the run alternates untraced and traced passes and
reports the per-layer metrics of the traced passes and the tracing
overhead.  It also checks that traced and untraced passes give the same
digest and that the layer counts match the generated work.  The spans are
written to ``.perfbench/trace-<workload>-<seed>.jsonl`` at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_RUNS = 5
MIN_PASSES = 3
TAIL_BEYOND = 10
PROBE_TIMEOUT = 60

UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "op_p50_ms": "ms",
         "op_tail_ms": "ms", "peak_rss_mb": "MB"}
UNITS.update({name: unit for name, unit, _ in tracing.METRICS})


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few operations per pass, for the self-tests")
    p.add_argument("--inject-fault", action="store_true",
                   help="rmatrix_classify only: add a `check-bialgebra --inject-fault` call")
    p.add_argument("--probe", action="store_true",
                   help="set up the workload, print 'ready' and exit (set-up timing)")
    return p.parse_args(argv)


def import_program():
    """Import kads from this checkout's src/; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "kads", "__init__.py")):
        raise SystemExit(f"perfbench: no kads sources in {SRC}")
    sys.path.insert(0, SRC)
    import kads
    where = os.path.realpath(os.path.dirname(kads.__file__))
    if where != os.path.realpath(os.path.join(SRC, "kads")):
        raise SystemExit(f"perfbench: kads imported from {where}, not from {SRC}")


def measure_setup(args) -> float:
    """Seconds from starting a fresh interpreter to its 'ready' line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"perfbench: set-up probe failed (exit {code})")
    return t1 - t0


def run_pass(wl, tr=None, op_base=0) -> dict:
    """One pass: time each operation, then check and digest the results."""
    ops = wl.ops()
    timings, results = [], []
    if tr is not None:
        tr.reset()
        tr.install()
    try:
        for k, op in enumerate(ops):
            if tr is not None:
                tr.op = op_base + k
            t0 = time.perf_counter()
            try:
                res = (True, op.run())
            except Exception as exc:  # a failing operation must not end the run
                res = (False, f"{type(exc).__name__}: {exc}")
            timings.append(time.perf_counter() - t0)
            results.append(res)
    finally:
        if tr is not None:
            tr.uninstall()
    digest = hashlib.sha256()
    failed, work, expect = 0, 0, {}
    for op, (ran, res) in zip(ops, results):
        ok, data = op.check(res) if ran else (False, res.encode())
        digest.update(op.label.encode() + b"\0" + data + b"\0")
        if ok:
            work += op.work
        else:
            failed += 1
            print(f"FAILED {op.label}: {data[:200]!r}", file=sys.stderr)
        for key, val in op.expect.items():
            expect[key] = expect.get(key, 0) + val
    return {"timings": timings, "failed": failed, "work": work,
            "digest": digest.hexdigest(), "expect": expect}


def repeat(seconds: float, step, min_steps: int) -> None:
    """Call step(k) while the next call is expected to end within ``seconds``."""
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_steps and elapsed + statistics.median(durations) > seconds:
            return


def op_times(passes) -> list:
    """Each operation's fastest time across passes (passes repeat the same ops)."""
    return [min(times) for times in zip(*(p["timings"] for p in passes))]


def end_to_end(wl, passes, setup) -> tuple:
    """The end-to-end metrics of untraced passes, with how each was taken.

    An operation's time is its fastest of the run's passes: on a shared
    machine a pass can run 25% slower than the next one with the same
    inputs, and the minimum over repeats is the least disturbed sample.
    """
    ops = sorted(op_times(passes))
    n_ops = len(ops)
    # the highest order statistic with TAIL_BEYOND operations beyond it
    tail_at = max(n_ops - TAIL_BEYOND - 1, 0)
    wall = sum(ops)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "work_per_s": passes[0]["work"] / wall,
        "op_p50_ms": 1e3 * statistics.median(ops),
        "op_tail_ms": 1e3 * ops[tail_at],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per = f"of {n_ops} ops, each timed as its fastest of {len(passes)} passes"
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "wall_s": f"one pass: the sum {per}",
        "work_per_s": f"{passes[0]['work']} {wl.work_unit} per pass / wall_s",
        "op_p50_ms": f"median {per}",
        "op_tail_ms": f"p{100.0 * (tail_at + 1) / n_ops:.1f}, {n_ops - 1 - tail_at} beyond it, {per}",
        "peak_rss_mb": "peak resident memory of the benchmark process",
    }
    return metrics, notes


def report(wl, args, passes, metrics, notes=None, problems=()) -> int:
    """Print one line per metric, then the result object as the last line."""
    digests = {p["digest"] for p in passes}
    attempted = sum(len(p["timings"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    if len(digests) != 1:
        problems = list(problems) + ["passes give different digests"]
    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(f"workload {wl.name} seed {args.seed} size {args.size}: "
          f"{len(passes)} passes of {len(passes[0]['timings'])} ops")
    print(f"digest {passes[0]['digest']}")
    for name, val in metrics.items():
        note = f"  [{notes[name]}]" if notes and name in notes else ""
        print(f"{name} {val:.6g} {UNITS[name]}{note}")
    print(f"ops_failed_frac {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


def run_plain(wl, args) -> int:
    setup = [measure_setup(args) for _ in range(SETUP_RUNS)]
    passes = []
    repeat(args.seconds, lambda k: passes.append(run_pass(wl)), MIN_PASSES)
    metrics, notes = end_to_end(wl, passes, setup)
    return report(wl, args, passes, metrics, notes)


def run_traced(wl, args) -> int:
    tr = tracing.Tracer()
    plain, traced, spans = [], [], []
    n_ops = len(wl.ops())

    def step(k):
        # alternate which side goes first, so drift favours neither
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            p = run_pass(wl, tr if on else None, op_base=(2 * k + on) * n_ops)
            if on:
                p["layers"], p["counts"] = tr.layer_metrics()
                spans.append(tr.spans)
                traced.append(p)
            else:
                plain.append(p)

    repeat(args.seconds, step, 2)

    problems = [f"traced function not found: {name}" for name in tr.missing]
    if {p["digest"] for p in plain} != {p["digest"] for p in traced}:
        problems.append("traced and untraced passes give different digests")
    counted = [name for name, unit, _ in tracing.METRICS if unit == "count"]
    for p in traced:
        for key, want in p["expect"].items():
            if p["counts"].get(key, 0) != want:
                problems.append(f"{key}: traced {p['counts'].get(key, 0)}, generated {want}")
        if any(p["layers"][k] != traced[0]["layers"][k] for k in counted):
            problems.append("layer counts differ between traced passes")
    # counts repeat exactly (checked above); times are the median pass
    metrics = {name: traced[0]["layers"][name] if unit == "count"
               else statistics.median(p["layers"][name] for p in traced)
               for name, unit, _ in tracing.METRICS}
    wall_plain = sum(op_times(plain))
    wall_traced = sum(op_times(traced))
    metrics["trace.overhead_pct"] = 100.0 * (wall_traced / wall_plain - 1.0)

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{wl.name}-{args.seed}.jsonl")
    with open(path, "w") as fh:
        for k, pass_spans in enumerate(spans):
            tr.dump(fh, k, pass_spans)
    print(f"tracing overhead: untraced pass {wall_plain:.4f} s, traced pass "
          f"{wall_traced:.4f} s; spans in {os.path.relpath(path, ROOT)}")
    return report(wl, args, plain + traced, metrics, problems=sorted(set(problems)))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    wl = workloads.make(args.workload, args.seed, args.size, workdir,
                        inject_fault=args.inject_fault)
    if args.probe:
        wl.prepare()
        print("ready", flush=True)
        return 0
    wl.prepare()
    os.makedirs(workdir, exist_ok=True)
    try:
        return run_traced(wl, args) if args.trace else run_plain(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
