"""fibrestab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``
directory.  Each workload runs in a fresh worker process that imports
fibrestab, writes the workload's inputs and then calls
``fibrestab.cli.main`` pass after pass for ``--seconds`` (at least two
passes).  Set-up is timed in that worker and in a few extra processes that
only set up; the median is ``setup_s``.  Every output is checked against
``reference`` and against properties the method must have.  The last line
of stdout is one JSON object: correct, attempted, failed and the metrics
(end-to-end ones with ``--trace 0``, per-layer ones with ``--trace 1``).
See README.md.
"""

import argparse
import filecmp
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 4  # set-up-only processes per untraced run, besides the worker
RUN_TIMEOUT_S = 170.0

UNITS = {"setup_s": "s", "first_pass_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def child_env():
    """The environment of a worker: fibrestab from this checkout, and the
    obstruct pool at its default size."""
    env = {k: v for k, v in os.environ.items() if k != "FIBRESTAB_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def worker_cmd(args, workdir, setup_only):
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    return cmd + ["--setup-only"] if setup_only else cmd


def start_worker(cmd, env, deadline):
    """Start a worker; return (process, seconds from start to READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, deadline)
        sys.exit(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def finish(proc, deadline):
    """Wait for a worker and return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("worker ran out of time")
    return out


def check_outputs(workload, plan, passes, workdir):
    """(failed operations, problems) over every pass.

    An operation fails when its exit code is not the one a correct run
    gives.  Only an operation that fails on every pass may stand as a
    failure; the outputs of the others are checked on the first pass and
    must be byte-identical on every later one.
    """
    ops, failed, problems = plan["ops"], 0, []
    first = {op["label"] for op, rc in zip(ops, passes[0]["rcs"]) if rc != op["ok_rc"]}
    base = workdir / "pass0"
    names = sorted(f.name for f in base.iterdir())
    for index, p in enumerate(passes):
        bad = {op["label"] for op, rc in zip(ops, p["rcs"]) if rc != op["ok_rc"]}
        failed += sum(op["weight"] for op in ops if op["label"] in bad)
        if bad != first:
            problems.append(f"pass {index}: failed operations {sorted(bad)}, first pass {sorted(first)}")
        if index:
            _same, differ, missing = filecmp.cmpfiles(base, workdir / f"pass{index}", names, shallow=False)
            if differ or missing:
                problems.append(f"pass {index}: outputs differ from the first pass: {differ + missing}")
    return failed, problems + workload.check(ROOT, plan, base, first)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "fibrestab" / "cli.py").is_file():
        sys.exit(f"no fibrestab sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = child_env()
    (HERE / "_work").mkdir(exist_ok=True)
    top = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    try:
        setup = []
        for k in range(0 if args.trace else SETUP_PROBES):
            proc, ready = start_worker(worker_cmd(args, top / f"probe{k}", True), env, deadline)
            finish(proc, deadline)
            setup.append(ready)
        proc, ready = start_worker(worker_cmd(args, top / "run", False), env, deadline)
        setup.append(ready)
        out = finish(proc, deadline)
        if proc.returncode != 0:
            sys.exit(f"worker failed with exit code {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        plan = json.loads((top / "run" / "plan.json").read_text(encoding="utf-8"))
        workload = workloads.WORKLOADS[args.workload]
        failed, problems = check_outputs(workload, plan, result["passes"], top / "run")
    finally:
        shutil.rmtree(top, ignore_errors=True)
    for line in problems:
        print("check failed:", line, file=sys.stderr)

    passes = result["passes"]
    if args.trace:
        import tracing

        metrics, units = result["layers"], tracing.UNITS
    else:
        units = UNITS
        later = [p["wall_s"] for p in passes[1:]]
        metrics = {
            "setup_s": statistics.median(setup),
            "first_pass_s": passes[0]["wall_s"],
            "pass_s": statistics.median(later),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
    summary = {
        "correct": not problems,
        "attempted": len(passes) * sum(op["weight"] for op in plan["ops"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
