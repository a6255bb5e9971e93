"""Show that no output check of the benchmark passes vacuously.

    python3 perfbench/selftest.py [WORKLOAD ...]

Runs each workload once (a first pass and one more), confirms that its
outputs pass every check, then corrupts copies of them -- a flipped
verdict, an off-by-one Betti number, a stuck cell moved, a defect over its
tolerance, and so on -- and confirms that the checks reject each one.
Exits 1 if an intact output is rejected or a corrupted one is accepted.
"""

import csv
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads


def _load(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _dump(path, value):
    path.write_text(json.dumps(value, indent=1), encoding="utf-8")


def _edit(name, fn):
    """Corruption that rewrites JSON file ``name`` with ``fn``."""

    def apply(out, plan):
        value = _load(out / name)
        fn(value, plan)
        _dump(out / name, value)

    return apply


# -- obstruction_table --------------------------------------------------------


def _first_product(verdicts, plan):
    for v, case in zip(verdicts, plan["cases"]):
        if case["one_point"] and case["E"] is None:
            return v
    raise LookupError("no product verdict")


def _flip_verdict(verdicts, plan):
    _first_product(verdicts, plan)["status"] = "NOT_OBSTRUCTED_BY_THESE_TESTS"


def _shift_degree(verdicts, plan):
    _first_product(verdicts, plan)["evidence"][0]["degree"] += 1


def _bump_group(verdicts, plan):
    _first_product(verdicts, plan)["evidence"][0]["group_E"]["rank"] += 1


# -- field_homology -----------------------------------------------------------


def _betti_plus_one(report, _plan):
    report["degrees"][2]["product_group"]["rank"] += 1


def _betti_moved(report, _plan):
    # keeps the Euler characteristic: only the Kunneth comparison can see it
    report["degrees"][1]["product_group"]["rank"] += 1
    report["degrees"][2]["product_group"]["rank"] += 1


def _relative_top_lost(report, _plan):
    report["dimensions"][report["labels"].index("H3(X,A)")] = 0


def _sequence_not_exact(report, _plan):
    report["verdict"] = False


# -- basin_census -------------------------------------------------------------


def _set_status(out, j, i, status):
    """Give cell (j, i) another status in both the JSON and the CSV,
    keeping every count consistent."""
    report = _load(out / "census.json")
    with open(out / "census.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    row = next(r for r in rows[1:] if (int(r[0]), int(r[1])) == (j, i))
    old = row[4]
    counts = report["status_counts"]
    counts[old] -= 1
    counts[status] = counts.get(status, 0) + 1
    points = [p for p in report["nonconvergent_points"] if (p["j"], p["i"]) != (j, i)]
    if status != "CONVERGED_FIBRE":
        points.append({"j": j, "i": i, "angle": float(row[2]), "fibre": float(row[3]), "status": status})
    report["nonconvergent_points"] = sorted(points, key=lambda p: (p["j"], p["i"]))
    report["converged_cells"] = report["total_cells"] - len(points)
    report["converged_fraction"] = report["converged_cells"] / report["total_cells"]
    row[4] = status
    _dump(out / "census.json", report)
    with open(out / "census.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _status_of(out, j, i):
    for p in _load(out / "census.json")["nonconvergent_points"]:
        if (p["j"], p["i"]) == (j, i):
            return p["status"]
    return "CONVERGED_FIBRE"


def _free_stuck_cell(out, plan):
    j, i = plan["lanes"][-1]
    _set_status(out, j, i, "CONVERGED_FIBRE")


def _flip_sampled_lane(out, plan):
    j, i = plan["lanes"][0]
    old = _status_of(out, j, i)
    _set_status(out, j, i, "TIMEOUT" if old == "CONVERGED_FIBRE" else "CONVERGED_FIBRE")


def _shift_csv_start(out, _plan):
    path = out / "census.csv"
    text = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = text[2].split(",")
    cells[3] = repr(float(cells[3]) + 1e-6)
    text[2] = ",".join(cells)
    path.write_text("".join(text), encoding="utf-8")


# -- retraction ---------------------------------------------------------------


def _defect(key, value):
    def fn(report, _plan):
        report["max_defects"][key] = value

    return fn


CORRUPTIONS = {
    "obstruction_table": {
        "flipped verdict": _edit("batch.json", _flip_verdict),
        "witness degree off by one": _edit("batch.json", _shift_degree),
        "group_E off by one": _edit("batch.json", _bump_group),
    },
    "field_homology": {
        "Betti number off by one": _edit("kunneth_rp2_klein_Z2.json", _betti_plus_one),
        "Betti numbers moved, Euler kept": _edit("kunneth_rp2_rp2_Z3.json", _betti_moved),
        "relative top class lost": _edit("pairles_klein_s1_Q.json", _relative_top_lost),
        "sequence not exact": _edit("pairles_torus_s1_Z2.json", _sequence_not_exact),
    },
    "basin_census": {
        "antipodal cell reported converged": _free_stuck_cell,
        "sampled lane flipped": _flip_sampled_lane,
        "CSV start point shifted": _shift_csv_start,
    },
    "retraction": {
        "identity defect not zero": _edit("retraction.json", _defect("identity", 5e-324)),
        "fixed-on-target defect over 1e-9": _edit("retraction.json", _defect("fixed_on_target", 2e-9)),
        "endpoint defect over eps": _edit("retraction.json", _defect("endpoint", 1.5e-3)),
    },
}


def _problems(name, plan, result, workdir):
    _failed, problems = run.check_outputs(workloads.WORKLOADS[name], plan, result["passes"], workdir)
    return problems


def selftest(name, seed=7):
    env = run.child_env()
    (run.HERE / "_work").mkdir(exist_ok=True)
    top = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=run.HERE / "_work"))
    args = type("Args", (), {"workload": name, "seed": seed, "seconds": 0, "trace": 0})
    deadline = time.monotonic() + run.RUN_TIMEOUT_S
    ok = True
    try:
        proc, _ready = run.start_worker(run.worker_cmd(args, top / "run", False), env, deadline)
        result = json.loads(run.finish(proc, deadline).strip().splitlines()[-1])
        plan = _load(top / "run" / "plan.json")
        intact = _problems(name, plan, result, top / "run")
        print(f"{name}: intact outputs -> {'accepted' if not intact else intact}")
        ok = not intact
        cases = dict(CORRUPTIONS[name])
        cases["later pass differs"] = None
        for label, corrupt in cases.items():
            copy = top / "corrupt"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(top / "run", copy)
            if corrupt is None:
                first = sorted((copy / "pass1").iterdir())[0]
                first.write_bytes(first.read_bytes() + b" ")
            else:
                for index in range(len(result["passes"])):
                    corrupt(copy / f"pass{index}", plan)
            problems = _problems(name, plan, result, copy)
            print(f"{name}: {label} -> {'rejected: ' + problems[0] if problems else 'ACCEPTED'}")
            ok = ok and bool(problems)
    finally:
        shutil.rmtree(top, ignore_errors=True)
    return ok


def main():
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    results = [selftest(name) for name in names]
    print("selftest", "passed" if all(results) else "FAILED")
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
