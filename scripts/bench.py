#!/usr/bin/env python3
"""Benchmark two source trees against each other with ``perfbench/run.py``
and write the result to ``BENCH_<label>.json``.

    python scripts/bench.py OLD_TREE [NEW_TREE] --label LABEL

A tree is a checkout root (the directory holding ``perfbench/run.py`` and
``src/fibrestab``); NEW_TREE defaults to this checkout.  For every workload
that ``BENCHMARK.json`` measures, 10 pairs of untraced runs of its
``run_seconds`` are made, one run per tree and pair, with seed = pair index;
the order inside a pair alternates (old first in even pairs, new first in
odd ones) so that drift of the host's speed does not favour either tree.
The runs go one at a time.

The JSON records the host (nproc, Python, numpy, platform), every run's
metrics, ``correct`` and failed share, the per-tree medians and quartiles
of each metric, and for each metric the number of pairs in which the new
tree was better.  It is written to the root of NEW_TREE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent.parent
TREES = ("old", "new")
PAIRS = 10


def _run(tree, workload, seed, seconds):
    """One untraced ``perfbench/run.py`` run; its summary JSON."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"{tree}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: m["value"] for k, m in summary["metrics"].items()},
    }


def _stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _summary(runs, better):
    metrics = runs["old"][0]["metrics"]
    out = {}
    for name in metrics:
        old = [r["metrics"][name] for r in runs["old"]]
        new = [r["metrics"][name] for r in runs["new"]]
        sign = -1 if better.get(name, "lower") == "lower" else 1
        out[name] = {
            "old": _stats(old),
            "new": _stats(new),
            "new_better_pairs": sum(1 for a, b in zip(old, new) if sign * (b - a) > 0),
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="root of the reference tree")
    parser.add_argument("new", nargs="?", default=str(HERE), help="root of the tree under test")
    parser.add_argument("--label", required=True, help="the output is BENCH_<label>.json")
    args = parser.parse_args()

    spec = json.loads((HERE / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    trees = {"old": str(Path(args.old).resolve()), "new": str(Path(args.new).resolve())}

    result = {
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "loadavg_at_start": os.getloadavg(),
        },
        "pairs": PAIRS,
        "seconds": seconds,
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        runs = {"old": [], "new": []}
        for seed in range(PAIRS):
            for side in TREES if seed % 2 == 0 else reversed(TREES):
                run = _run(trees[side], name, seed, seconds)
                runs[side].append(run)
                print(f"{name} pair {seed} {side}: {run['metrics']}", file=sys.stderr, flush=True)
        result["workloads"][name] = {"runs": runs, "summary": _summary(runs, better)}

    path = Path(args.new) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(path)


if __name__ == "__main__":
    main()
