"""One workload in a fresh process: set up, say READY, run timed passes.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src``.
Protocol on stdout: a line ``READY`` once set-up is done (the parent times
process start to this line), then, unless ``--setup-only``, one JSON line
with every pass's wall time, exit codes and, in a traced run, the
per-layer metrics.  The program's own stdout goes to stderr meanwhile.
"""

import argparse
import contextlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

import workloads

MIN_LATER_PASSES = 1  # pass_s needs a pass after the first in every run
PASS_BUDGET_S = 120.0  # no pass starts after this, so a run ends in time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    root, workdir = Path(args.root), Path(args.workdir)

    # The whole worker runs on one vCPU, and the threads it starts inherit
    # that.  The obstruct pool's threads hand the interpreter lock to each
    # other thousands of times a pass; across two vCPUs each hand-over
    # waits for the host to wake the other vCPU, and the batch's time then
    # follows the host's load.  os.cpu_count() is unchanged, so the pool
    # keeps its default size.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import fibrestab
    from fibrestab import cli
    from fibrestab.complexes import catalog_names

    src = (root / "src").resolve()
    if src not in Path(fibrestab.__file__).resolve().parents:
        sys.exit(f"fibrestab imported from {fibrestab.__file__}, not from {src}")
    catalog_names()
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload]
    plan = workload.setup(root, inputs, args.seed)
    (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    print("READY", flush=True)
    if args.setup_only:
        return

    if args.trace:
        import tracing

    def one_pass(index, tracer=None):
        out = workdir / f"pass{index}"
        out.mkdir()
        main_fn, undo = cli.main, None
        if tracer:
            undo = tracing.install(tracer, fibrestab)
            main_fn = tracer.wrap("cli", cli.main)
        rcs = []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(sys.stderr):
            for op in plan["ops"]:
                rcs.append(main_fn([a.replace("{out}", str(out)) for a in op["argv"]]))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if undo:
            undo()
        return {"wall_s": wall, "cpu_s": cpu, "traced": tracer is not None, "rcs": rcs}

    passes, layers = [], []
    t0 = time.perf_counter()
    passes.append(one_pass(0))
    while True:
        n_traced = sum(p["traced"] for p in passes[1:])
        n_plain = len(passes) - 1 - n_traced
        elapsed = time.perf_counter() - t0
        done = elapsed >= args.seconds or elapsed >= PASS_BUDGET_S
        if done and n_plain >= MIN_LATER_PASSES and (n_traced or not args.trace):
            break
        # a traced run alternates traced and untraced passes, traced first
        if args.trace and n_traced <= n_plain:
            tracer = tracing.Tracer()
            passes.append(one_pass(len(passes), tracer))
            layers.append(tracing.layer_metrics(tracer))
        else:
            passes.append(one_pass(len(passes)))

    result = {"passes": passes}
    if args.trace:
        traced_wall = [p["wall_s"] for p in passes[1:] if p["traced"]]
        plain_wall = [p["wall_s"] for p in passes[1:] if not p["traced"]]
        merged = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        merged["trace.pass_s"] = statistics.median(traced_wall)
        merged["trace.pass_cpu_s"] = statistics.median(p["cpu_s"] for p in passes[1:] if p["traced"])
        merged["trace.overhead_s"] = merged["trace.pass_s"] - statistics.median(plain_wall)
        result["layers"] = merged
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
