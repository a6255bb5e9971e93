"""The four workloads: how their inputs are made and how outputs are checked.

``setup`` runs in the measured worker process (it is part of ``setup_s``)
and returns a JSON-able plan: the ``fibrestab`` command lines of one pass,
each with the exit code a correct run gives and the number of operations
it stands for.  ``check`` runs in the parent process on the files a pass
wrote, against ``reference`` and against properties the method must have;
it returns a list of problems, empty when every output is right.  Neither
imports fibrestab.
"""

import csv
import json
import random
import re
from pathlib import Path

import reference as ref

CENSUS_DURATION = 4.0  # simulated seconds; the grid and the 1e-3 step stay
CENSUS_LANES = 6  # lanes re-integrated by the scalar reference, plus one stuck
STUCK_COLUMN = 75  # the antipode of x* = pi/2 on the 100-column grid
KUNNETH_PRODUCTS = (("rp2", "rp2"), ("rp2", "klein"))
KUNNETH_RINGS = ("Q", "Z/2", "Z/3")
PAIR_PRODUCTS = (("torus", "s1"), ("klein", "s1"))
PAIR_FIELDS = ("Q", "Z/2")
EXIT_BAD_COMPLEX = 3


def data_dir(root):
    return Path(root) / "src" / "fibrestab" / "data"


def _read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _write_json(path, value):
    Path(path).write_text(json.dumps(value, indent=1) + "\n", encoding="utf-8")


def _op(label, argv, weight=1, ok_rc=0):
    return {"label": label, "argv": argv, "weight": weight, "ok_rc": ok_rc}


def catalog_complex(root, name):
    data = _read_json(data_dir(root) / "catalog" / f"{name}.json")
    return data["vertex_count"], [tuple(f) for f in data["facets"]]


# ---------------------------------------------------------------------------
# basin_census
# ---------------------------------------------------------------------------


class BasinCensus:
    """The pendulum basin census, cut short: 5000 lanes per field call."""

    def setup(self, root, inputs, seed):
        spec = _read_json(data_dir(root) / "experiments" / "pendulum_basin.json")
        spec["duration"] = CENSUS_DURATION
        _write_json(inputs / "census.json", spec)
        grid = spec["grid"]
        rng = random.Random(seed)
        cells = grid["theta_cells"] * grid["u_cells"]
        lanes = [divmod(k, grid["u_cells"]) for k in rng.sample(range(cells), CENSUS_LANES)]
        lanes.append((STUCK_COLUMN, rng.randrange(grid["u_cells"])))
        argv = ["simulate", str(inputs / "census.json"), "--output", "{out}/census.json",
                "--csv-out", "{out}/census.csv"]
        return {"spec": spec, "lanes": lanes, "ops": [_op("census", argv)]}

    def check(self, root, plan, out, failed):
        if failed:
            return []
        spec, grid = plan["spec"], plan["spec"]["grid"]
        report = _read_json(out / "census.json")
        problems = []
        n_theta, n_u = grid["theta_cells"], grid["u_cells"]
        if report["total_cells"] != n_theta * n_u:
            problems.append(f"census: {report['total_cells']} cells, want {n_theta * n_u}")
        stuck = {(r["j"], r["i"]): r["status"] for r in report["nonconvergent_points"]}
        if report["converged_cells"] + len(stuck) != report["total_cells"]:
            problems.append("census: converged and nonconvergent cells do not add up")
        if sum(report["status_counts"].values()) != report["total_cells"]:
            problems.append("census: status counts do not add up")
        moving = [i for i in range(n_u) if (STUCK_COLUMN, i) not in stuck]
        if moving:
            problems.append(f"census: antipodal column cells {moving[:5]} reported converged")
        if spec["duration"] >= 50.0 and report["converged_fraction"] < 0.95:
            problems.append(f"census: converged fraction {report['converged_fraction']}")

        with open(out / "census.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows[:1] != [["j", "i", "angle", "fibre", "status"]] or len(rows) != n_theta * n_u + 1:
            problems.append("census: CSV header or row count wrong")
            return problems
        lo, hi = grid["u_range"]
        step_u = (hi - lo) / (n_u - 1)
        for row in rows[1:]:
            j, i = int(row[0]), int(row[1])
            want = stuck.get((j, i), "CONVERGED_FIBRE")
            if row[4] != want:
                problems.append(f"census: CSV cell ({j},{i}) says {row[4]}, JSON says {want}")
                break
            if float(row[2]) != j * (ref.TWO_PI / n_theta) or abs(float(row[3]) - (lo + i * step_u)) > 1e-12:
                problems.append(f"census: CSV cell ({j},{i}) has the wrong start point")
                break

        fields, x_star = ref.pendulum_fields(spec["system"]["params"])
        for j, i in plan["lanes"]:
            theta0, u0 = j * (ref.TWO_PI / n_theta), lo + i * step_u
            status, theta, _u, margin = ref.weak_census_status(
                fields, x_star, theta0, u0, spec["duration"], spec["step"], spec["eps"]
            )
            if margin < 1e-9:
                continue  # a tail sample sits on the threshold; either answer is right
            got = stuck.get((j, i), "CONVERGED_FIBRE")
            if got != status:
                problems.append(f"census: lane ({j},{i}) is {got}, scalar RK4 gives {status}")
            if j == STUCK_COLUMN and theta != theta0:
                problems.append(f"census: scalar RK4 moved the antipodal lane ({j},{i})")
        return problems


# ---------------------------------------------------------------------------
# retraction
# ---------------------------------------------------------------------------


class Retraction:
    """Flow retraction of 200 pendulum samples with the run's seed."""

    def setup(self, root, inputs, seed):
        spec = _read_json(data_dir(root) / "experiments" / "retraction_pendulum.json")
        _write_json(inputs / "retraction.json", spec)
        argv = ["simulate", str(inputs / "retraction.json"), "--seed", str(seed % 2**32),
                "--output", "{out}/retraction.json"]
        return {"spec": spec, "ops": [_op("retraction", argv)]}

    def check(self, root, plan, out, failed):
        if failed:
            return []
        spec = plan["spec"]
        report = _read_json(out / "retraction.json")
        d = report["max_defects"]
        problems = []
        if report["sample_count"] != spec["n_samples"]:
            problems.append(f"retraction: {report['sample_count']} samples, want {spec['n_samples']}")
        if d["identity"] != 0.0 or report["identity_at_zero"] is not True:
            problems.append(f"retraction: identity defect {d['identity']} is not exactly 0")
        if not d["fixed_on_target"] < 1e-9 or report["fixed_on_target"] is not True:
            problems.append(f"retraction: fixed-on-target defect {d['fixed_on_target']}")
        if not d["endpoint"] < spec["eps"] or report["endpoint_in_target"] is not True:
            problems.append(f"retraction: endpoint defect {d['endpoint']}")
        return problems


# ---------------------------------------------------------------------------
# obstruction_table
# ---------------------------------------------------------------------------


def suspension_of_two_octagons():
    """A closed pseudomanifold that is not a manifold: the suspension of
    two disjoint 8-cycles (apexes 16 and 17), H = [Z, Z, Z^2]."""
    facets = []
    for base in (0, 8):
        for k in range(8):
            edge = [base + k, base + (k + 1) % 8]
            facets += [edge + [16], edge + [17]]
    return {"name": "suspension_two_octagons", "vertex_count": 18, "facets": facets}


class ObstructionTable:
    """The 77 fixture queries as one obstruct batch, then the non-manifold."""

    def setup(self, root, inputs, seed):
        cases = _read_json(data_dir(root) / "fixtures" / "obstruction_table.json")["cases"]
        random.Random(seed).shuffle(cases)
        qdir = inputs / "queries"
        qdir.mkdir()
        paths = []
        for case in cases:
            query = {k: case[k] for k in ("M", "U", "E", "mode", "one_point")}
            path = qdir / f"{case['name']}.json"
            _write_json(path, query)
            paths.append(str(path))
        _write_json(inputs / "suspension.json", suspension_of_two_octagons())
        _write_json(inputs / "nonmanifold.json", {"E": "suspension.json", "mode": "strong", "one_point": True})
        return {
            "cases": cases,
            "ops": [
                _op("batch", ["obstruct", *paths, "--output", "{out}/batch.json"], weight=len(cases)),
                # a verdict here lies outside the theory: the right answer is
                # a rejection as a bad complex
                _op("nonmanifold", ["obstruct", str(inputs / "nonmanifold.json"),
                                    "--output", "{out}/nonmanifold.json"], ok_rc=EXIT_BAD_COMPLEX),
            ],
        }

    def check(self, root, plan, out, failed):
        if "batch" in failed:
            return []
        problems = []
        verdicts = _read_json(out / "batch.json")
        if len(verdicts) != len(plan["cases"]):
            return [f"obstruct: {len(verdicts)} verdicts for {len(plan['cases'])} queries"]
        for case, v in zip(plan["cases"], verdicts):
            name = case["name"]
            if v["status"] != case["expected_status"]:
                problems.append(f"obstruct {name}: {v['status']}, want {case['expected_status']}")
                continue
            degrees = [ev["degree"] for ev in v["evidence"]]
            k = case["expected_degree"]
            if k is not None and k not in degrees:
                problems.append(f"obstruct {name}: witness degrees {degrees}, want {k}")
                continue
            if v["status"] != "OBSTRUCTED" or case["E"] is not None:
                continue
            if case["one_point"]:
                want = ref.canonical(ref.product_homology_z(case["M"], case["U"])[k])
            else:
                want = ref.canonical(ref.TEXTBOOK[case["M"]][k])
            g = v["evidence"][0]["group_E"]
            if (g["rank"], tuple(g["torsion"])) != want:
                problems.append(f"obstruct {name}: group_E {g['pretty']} in degree {k}, want {want}")
        return problems


# ---------------------------------------------------------------------------
# field_homology
# ---------------------------------------------------------------------------


def _tag(*parts):
    return "_".join(parts).replace("/", "")


class FieldHomology:
    """Kunneth over Q, Z/2, Z/3 and pair sequences of punctured products."""

    def setup(self, root, inputs, seed):
        rng = random.Random(seed)
        ops, pairs = [], []
        for x, y in KUNNETH_PRODUCTS:
            for ring in KUNNETH_RINGS:
                ops.append(_op(_tag("kunneth", x, y, ring), ["check", "kunneth", x, y, "--ring", ring,
                               "--output", f"{{out}}/{_tag('kunneth', x, y, ring)}.json"]))
        for x, y in PAIR_PRODUCTS:
            n, facets = ref.staircase_product(catalog_complex(root, x), catalog_complex(root, y))
            v = rng.randrange(n)
            total, sub = inputs / f"{x}_x_{y}.json", inputs / f"{x}_x_{y}_minus_star.json"
            _write_json(total, {"vertex_count": n, "facets": [list(f) for f in facets]})
            _write_json(sub, {"vertex_count": n, "facets": [list(f) for f in ref.open_star_deletion(facets, v)]})
            pairs.append({"x": x, "y": y, "vertex": v})
            for field in PAIR_FIELDS:
                label = _tag("pairles", x, y, field)
                ops.append(_op(label, ["check", "pair-les", str(total), str(sub), "--field", field,
                                      "--output", f"{{out}}/{label}.json"]))
        return {"pairs": pairs, "ops": ops}

    def check(self, root, plan, out, failed):
        problems = []
        for x, y in KUNNETH_PRODUCTS:
            product = ref.staircase_product(catalog_complex(root, x), catalog_complex(root, y))
            want_chi = ref.euler(ref.simplex_counts(product[1]))
            for ring in KUNNETH_RINGS:
                name = _tag("kunneth", x, y, ring)
                if name in failed:
                    continue
                report = _read_json(out / f"{name}.json")
                p = ref.field_char(ring)
                want = ref.kunneth_field(ref.betti(ref.TEXTBOOK[x], p), ref.betti(ref.TEXTBOOK[y], p))
                got = [d["product_group"]["rank"] for d in report["degrees"]]
                torsion = [d["product_group"]["torsion"] for d in report["degrees"]]
                if got != want or any(torsion):
                    problems.append(f"{name}: product Betti numbers {got}, Kunneth over {ring} gives {want}")
                if ref.euler(got) != want_chi:
                    problems.append(f"{name}: alternating Betti sum {ref.euler(got)}, simplex counts give {want_chi}")
                if report["consistent"] is not True or report["ring"] != ring:
                    problems.append(f"{name}: report not consistent over {report['ring']}")
        for pair in plan["pairs"]:
            x, y = pair["x"], pair["y"]
            for field in PAIR_FIELDS:
                name = _tag("pairles", x, y, field)
                if name in failed:
                    continue
                problems += _check_pair_les(name, _read_json(out / f"{name}.json"), x, y, field)
        return problems


def _check_pair_les(name, report, x, y, field):
    """(P, P - star v) for a closed 3-manifold P: the relative groups are the
    field in degree 3 only, and P - star v has P's Betti numbers except that
    the top class is traded for a degree-2 class exactly when P is not
    orientable over the field."""
    p = ref.field_char(field)
    b_p = ref.betti(ref.product_homology_z(x, y), p)
    top = len(b_p) - 1
    b_a = b_p[:top - 1] + [b_p[top - 1] + 1 - b_p[top], 0]
    want = {"X,A": lambda k: 1 if k == top else 0,
            "X": lambda k: b_p[k] if k <= top else 0,
            "A": lambda k: b_a[k] if k <= top else 0}
    problems = []
    for label, dim in zip(report["labels"], report["dimensions"]):
        m = re.fullmatch(r"H(\d+)\((X,A|X|A)\)", label)
        if m and dim != want[m.group(2)](int(m.group(1))):
            problems.append(f"{name}: dim {label} = {dim}, want {want[m.group(2)](int(m.group(1)))}")
    if report["verdict"] is not True:
        problems.append(f"{name}: sequence reported not exact")
    return problems


WORKLOADS = {
    "basin_census": BasinCensus(),
    "retraction": Retraction(),
    "obstruction_table": ObstructionTable(),
    "field_homology": FieldHomology(),
}
