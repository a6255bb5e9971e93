#!/usr/bin/env python3
"""Run one fixed list of ``fibrestab`` commands under two source trees and
print every difference in stdout, stderr, exit code or output files.

    python scripts/compare_outputs.py OLD_TREE [NEW_TREE] [--skip-slow]

A tree is a checkout root (the directory holding ``src/fibrestab``);
NEW_TREE defaults to this checkout.  Each command runs as
``python -m fibrestab.cli ...`` with the tree's ``src`` first on
PYTHONPATH, from a working directory of its own, so ``--output`` and
``--csv-out`` files land at the same relative path for both trees.

The list covers ``homology`` on every catalog entry over Z, Q, Z/2 and
Z/3; ``check kunneth``, ``check pair-les`` and ``check mv``, exit-2 and
exit-4 inputs included; the 77 obstruction fixture rows as one batch, the
non-manifold query and single queries (a product, a derived product,
two products whose fibre has a boundary, a point base, a total space
with boundary, a cone punctured at its apex, weak queries with and
without a fibre, a weak disk over the circle, two total spaces whose
dimension no bundle over the given base with the given fibre has); every shipped experiment; small retraction specs that
converge, that fail the precheck and that are malformed; malformed
``basin`` and ``integrate`` specs; and ``integrate`` and ``basin`` specs
the compatibility gate refuses.  All
inputs are built from this checkout's data files into one temporary
directory, which is removed at the end; nothing else is written.
``--skip-slow`` leaves out the shipped basin census (about 40 s per
tree).  Exit status: 0 when the trees agree on every command, 1 when
any command differs.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
DATA = HERE / "src" / "fibrestab" / "data"
RINGS = ("Z", "Q", "Z/2", "Z/3")
FIELDS = ("Q", "Z/2", "Z/3")


def _write(path, value):
    path.write_text(json.dumps(value, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _catalog(name):
    return json.loads((DATA / "catalog" / f"{name}.json").read_text(encoding="utf-8"))


def _complex(vertex_count, facets):
    return {"vertex_count": vertex_count, "facets": [list(f) for f in facets]}


def _puncture(data, v):
    """The complex minus the open star of vertex v."""
    return _complex(data["vertex_count"], [f for f in data["facets"] if v not in f])


def _commands(inputs, skip_slow):
    """(label, argv, output files) for every command, inputs written
    under ``inputs``."""
    names = sorted(p.stem for p in (DATA / "catalog").glob("*.json"))
    cmds = [("catalog", ["catalog"], [])]
    for name in names:
        for ring in RINGS:
            cmds.append((f"homology {name} {ring}", ["homology", name, "--ring", ring], []))
        cmds.append((f"homology {name} reduced", ["homology", name, "--reduced"], []))
    cmds.append(("homology to file", ["homology", "klein", "--output", "out.json"], ["out.json"]))
    cmds.append(("homology unknown name", ["homology", "no_such_space"], []))

    for a, b in (("rp2", "rp2"), ("rp2", "klein"), ("klein", "s1"), ("torus", "s1")):
        for ring in RINGS:
            cmds.append(
                (f"kunneth {a} {b} {ring}", ["check", "kunneth", a, b, "--ring", ring], [])
            )
    cmds.append(
        ("kunneth degrees", ["check", "kunneth", "s1", "s1", "--degrees", "0..2"], [])
    )

    for name in ("rp2", "klein", "torus", "t3", "mobius"):
        data = _catalog(name)
        first = min(v for f in data["facets"] for v in f)
        sub = _write(inputs / f"{name}_punctured.json", _puncture(data, first))
        for field in FIELDS:
            cmds.append(
                (f"pair-les {name} {field}", ["check", "pair-les", name, sub, "--field", field], [])
            )
        for degrees in ("1..2", "-1..1", "-2..1", "0..4", "x"):
            cmds.append(
                (
                    f"pair-les {name} --degrees={degrees}",
                    ["check", "pair-les", name, sub, f"--degrees={degrees}"],
                    [],
                )
            )

    for name in ("torus", "klein", "s2", "rp2", "t3", "cylinder"):
        data = _catalog(name)
        facets = data["facets"]
        n = data["vertex_count"]
        half = len(facets) // 2
        star = [f for f in facets if 0 in f]
        rest = [f for f in facets if 0 not in f]
        covers = {
            "halves": [_complex(n, facets[:half]), _complex(n, facets[half:])],
            "star": [_complex(n, star), _complex(n, rest)],
        }
        for kind, pieces in covers.items():
            path = _write(inputs / f"{name}_{kind}_cover.json", {"total": name, "pieces": pieces})
            for field in FIELDS:
                cmds.append(
                    (f"mv {name} {kind} {field}", ["check", "mv", path, "--field", field], [])
                )
    klein = _catalog("klein")
    n, facets = klein["vertex_count"], klein["facets"]
    gap = _write(
        inputs / "klein_gap_cover.json",
        {"total": "klein", "pieces": [_complex(n, facets[:3]), _complex(n, facets[4:])]},
    )
    cmds.append(("mv cover missing a facet", ["check", "mv", gap], []))
    foreign = _write(
        inputs / "klein_foreign_cover.json",
        {"total": "klein", "pieces": [_complex(n, facets), _complex(n + 1, [[0, n]])]},
    )
    cmds.append(("mv piece outside the total", ["check", "mv", foreign], []))

    cases = json.loads((DATA / "fixtures" / "obstruction_table.json").read_text(encoding="utf-8"))
    queries = inputs / "queries"
    queries.mkdir()
    paths = [
        _write(queries / f"{case['name']}.json", {k: case[k] for k in ("M", "U", "E", "mode", "one_point")})
        for case in cases["cases"]
    ]
    cmds.append(("obstruct fixture batch", ["obstruct", *paths, "--output", "out.json"], ["out.json"]))
    facets = []
    for base in (0, 8):
        for k in range(8):
            edge = [base + k, base + (k + 1) % 8]
            facets += [edge + [16], edge + [17]]
    _write(inputs / "suspension.json", _complex(18, facets))
    nonmanifold = _write(
        inputs / "nonmanifold.json", {"E": "suspension.json", "mode": "strong", "one_point": True}
    )
    cmds.append(("obstruct non-manifold", ["obstruct", nonmanifold], []))
    torus = _catalog("torus")
    _write(
        inputs / "cone_torus.json",
        _complex(torus["vertex_count"] + 1, [f + [torus["vertex_count"]] for f in torus["facets"]]),
    )
    single = {
        "product": {"M": "torus", "U": "s1", "mode": "strong"},
        "derived": {"M": "t3", "U": "rp2", "mode": "weak"},
        "fibre with boundary": {"M": "torus", "U": "cylinder"},
        "fibre with boundary weak": {"M": "rp2", "U": "mobius", "mode": "weak"},
        "point base": {"M": "point", "U": "s1"},
        "explicit boundary": {"E": "cylinder", "mode": "strong"},
        "explicit cone": {"E": "cone_torus.json", "U": "disk", "mode": "weak"},
        "explicit cone apex": {"E": "cone_torus.json", "U": "torus", "mode": "weak"},
        "explicit weak": {"E": "torus", "U": "s1", "mode": "weak"},
        "explicit weak without U": {"E": "torus", "mode": "weak"},
        "explicit disk weak": {"E": "disk", "U": "s1", "mode": "weak"},
        "bundle dimension mismatch": {"M": "s2", "U": "interval", "E": "mobius"},
        "bundle dimension mismatch weak": {"M": "torus", "U": "s1", "E": "klein", "mode": "weak"},
    }
    for name, query in single.items():
        path = _write(inputs / f"query_{name.replace(' ', '_')}.json", query)
        cmds.append((f"obstruct {name}", ["obstruct", path], []))

    for spec in sorted((DATA / "experiments").glob("*.json")):
        if skip_slow and spec.stem == "pendulum_basin":
            continue
        argv = ["simulate", str(spec), "--output", "out.json"]
        files = ["out.json"]
        if json.loads(spec.read_text(encoding="utf-8"))["kind"] in ("basin", "integrate"):
            argv += ["--csv-out", "out.csv"]
            files.append("out.csv")
        cmds.append((f"simulate {spec.name}", argv, files))

    retractions = {
        "pendulum": {"system": "damped_pendulum", "n_samples": 20, "t_max": 200.0, "step": 0.01},
        "pendulum_seed_7": {"system": "damped_pendulum", "n_samples": 8, "seed": 7, "t_max": 60.0},
        "pendulum_short": {"system": "damped_pendulum", "n_samples": 8, "t_max": 20.0, "step": 0.01},
        "linear_patch_fails": {"system": "linear_patch", "n_samples": 6, "t_max": 100.0, "step": 0.01},
        "fibre_drift": {
            "system": "fibre_drift", "n_samples": 10, "t_max": 100.0, "step": 0.01,
            "target_kind": "fibre",
        },
        "mobius_point_fails": {"system": "mobius_damped", "n_samples": 30, "t_max": 20.0, "step": 0.05},
        "mobius_fibre_fails": {
            "system": "mobius_damped", "n_samples": 30, "t_max": 20.0, "step": 0.05,
            "target_kind": "fibre",
        },
        "pendulum_seam_target": {
            "system": {"name": "damped_pendulum", "params": {"x_star": 0.0}}, "n_samples": 2,
        },
        "s_grid_collides": {"system": "damped_pendulum", "t_max": 5.0},
        "zero_step": {"system": "damped_pendulum", "step": 0},
        "no_samples": {"system": "damped_pendulum", "n_samples": 0},
        "s_grid_number": {"system": "damped_pendulum", "s_grid": 5},
    }
    for name, spec in retractions.items():
        path = _write(inputs / f"retraction_{name}.json", {"kind": "retraction", **spec})
        cmds.append((f"retraction {name}", ["simulate", path], []))
    cmds.append(
        ("retraction --seed", ["simulate", str(inputs / "retraction_pendulum_short.json"), "--seed", "3"], [])
    )
    for name, spec in {
        "basin zero step": {"kind": "basin", "step": 0},
        "basin no cells": {"kind": "basin", "grid": {"theta_cells": 0}},
        "integrate zero stride": {"kind": "integrate", "record_stride": 0},
        "basin grid list": {"kind": "basin", "grid": [1]},
        "integrate start number": {"kind": "integrate", "start": 5},
        "integrate start one item": {"kind": "integrate", "start": [1]},
    }.items():
        path = _write(inputs / f"{name.replace(' ', '_')}.json", {"system": "linear_patch", **spec})
        cmds.append((name, ["simulate", path], []))
    for kind, extra in {
        "integrate": {"start": ["A", 3.0, 0.1], "duration": 0.1},
        "basin": {"grid": {"theta_cells": 4, "u_cells": 2}, "duration": 0.1},
    }.items():
        path = _write(
            inputs / f"{kind}_incompatible.json",
            {"kind": kind, "system": "mobius_incompatible", **extra},
        )
        cmds.append((f"{kind} gate refusal", ["simulate", path, "--csv-out", "out.csv"], ["out.csv"]))
    return cmds


def _run(tree, argv, files, workdir):
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(tree).resolve() / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "fibrestab.cli", *argv],
        cwd=workdir, env=env, capture_output=True, check=False,
    )
    outputs = {
        name: (workdir / name).read_bytes() if (workdir / name).exists() else None
        for name in files
    }
    return proc.returncode, proc.stdout, proc.stderr, outputs


def _show(what, old, new):
    print(f"  {what} differs")
    old_lines = (old or b"").decode("utf-8", "replace").splitlines()
    new_lines = (new or b"").decode("utf-8", "replace").splitlines()
    diff = list(difflib.unified_diff(old_lines, new_lines, "old", "new", lineterm="", n=1))
    for line in diff[:20]:
        print(f"    {line}")
    if len(diff) > 20:
        print(f"    ... {len(diff) - 20} more diff lines")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="root of the reference tree")
    parser.add_argument("new", nargs="?", default=str(HERE), help="root of the tree under test")
    parser.add_argument("--skip-slow", action="store_true", help="leave out the basin census")
    args = parser.parse_args()
    differing = 0
    with tempfile.TemporaryDirectory(prefix="fibrestab-compare-") as tmp:
        tmp = Path(tmp)
        inputs = tmp / "inputs"
        inputs.mkdir()
        cmds = _commands(inputs, args.skip_slow)
        for i, (label, argv, files) in enumerate(cmds):
            old = _run(args.old, argv, files, tmp / "old" / str(i))
            new = _run(args.new, argv, files, tmp / "new" / str(i))
            if old == new:
                continue
            differing += 1
            print(f"DIFF {label}: fibrestab {' '.join(argv)}")
            if old[0] != new[0]:
                print(f"  exit code {old[0]} -> {new[0]}")
            for what, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
                if a != b:
                    _show(what, a, b)
            for name in files:
                if old[3][name] != new[3][name]:
                    _show(name, old[3][name], new[3][name])
        print(f"{len(cmds)} commands, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
