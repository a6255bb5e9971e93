"""End-to-end CLI tests: subcommands, exit codes, determinism, CSV output."""

import csv
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import fibrestab
from fibrestab import bundlesim
from fibrestab.bundlesim import CONVERGED_FIBRE, DIVERGED, TIMEOUT, load_experiment
from fibrestab.cli import main, render_json
from fibrestab.complexes import catalog


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


def test_homology_torus(capsys):
    code, out, _ = run_cli(capsys, "homology", "torus")
    assert code == 0
    blob = json.loads(out)
    assert blob["ring"] == "Z"
    assert [g["rank"] for g in blob["groups"]] == [1, 2, 1]
    assert all(g["torsion"] == [] for g in blob["groups"])


def test_homology_point_reduced(capsys):
    code, out, _ = run_cli(capsys, "homology", "point", "--reduced")
    assert code == 0
    assert json.loads(out)["groups"] == [{"rank": 0, "torsion": []}]


def test_homology_mod_2(capsys):
    code, out, _ = run_cli(capsys, "homology", "klein", "--ring", "Z/2")
    assert code == 0
    blob = json.loads(out)
    assert blob["ring"] == "Z/2"
    assert [g["rank"] for g in blob["groups"]] == [1, 2, 1]


@pytest.mark.parametrize("ring", ["Z/4", "Z/1", "Z/0"])
def test_homology_rejects_non_prime_modulus(capsys, ring):
    code, out, err = run_cli(capsys, "homology", "s1", "--ring", ring)
    assert code == 2
    assert out == ""
    assert "modulus" in err


def test_homology_from_file_matches_catalog(capsys, tmp_path):
    path = write_json(
        tmp_path / "torus.json", catalog("torus").to_json_dict("torus")
    )
    code, from_file, _ = run_cli(capsys, "homology", path)
    assert code == 0
    _, from_name, _ = run_cli(capsys, "homology", "torus")
    assert from_file == from_name


def test_homology_malformed_json_is_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "homology", str(path))
    assert code == 2
    assert "malformed JSON" in err


def test_homology_bad_facet_is_exit_3(capsys, tmp_path):
    path = write_json(
        tmp_path / "bad.json",
        {"name": "bad", "vertex_count": 3, "facets": [[0, 1, 9]]},
    )
    code, _, err = run_cli(capsys, "homology", path)
    assert code == 3
    assert "out of range" in err


def test_homology_unknown_name_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "homology", "dodecahedron")
    assert code == 2
    assert "catalog" in err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_kunneth_circle_pair(capsys):
    code, out, _ = run_cli(
        capsys, "check", "kunneth", "s1", "s1", "--degrees", "0..2"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["consistent"] is True
    by_degree = {d["degree"]: d for d in blob["degrees"]}
    assert by_degree[1]["product_group"] == {"rank": 2, "torsion": []}


def test_check_mv_split_cover(capsys, tmp_path):
    t = catalog("torus")
    half = len(t.facets) // 2
    pieces = [
        {"vertex_count": t.vertex_count, "facets": [list(f) for f in t.facets[:half]]},
        {"vertex_count": t.vertex_count, "facets": [list(f) for f in t.facets[half:]]},
    ]
    path = write_json(
        tmp_path / "cover.json", {"total": "torus", "pieces": pieces}
    )
    code, out, _ = run_cli(capsys, "check", "mv", path, "--field", "Q")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_check_mv_rejects_non_cover(capsys, tmp_path):
    path = write_json(
        tmp_path / "cover.json",
        {
            "total": "torus",
            "pieces": [
                {"vertex_count": 4, "facets": [[0, 1, 3]]},
                {"vertex_count": 4, "facets": [[0, 2, 3]]},
            ],
        },
    )
    code, _, err = run_cli(capsys, "check", "mv", path)
    assert code == 4
    assert "subcomplex" in err


def test_check_pair_les(capsys):
    code, out, _ = run_cli(capsys, "check", "pair-les", "torus", "s1")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_check_pair_les_rejects_non_subcomplex(capsys):
    code, _, _ = run_cli(capsys, "check", "pair-les", "s1", "torus")
    assert code == 4


def test_check_arity_is_validated(capsys):
    code, _, err = run_cli(capsys, "check", "kunneth", "s1")
    assert code == 2
    assert "two complexes" in err


def test_check_unknown_kind_is_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "euler", "s1", "s1"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# obstruct
# ---------------------------------------------------------------------------


def test_obstruct_global_sphere(capsys, tmp_path):
    path = write_json(
        tmp_path / "q.json", {"M": "s2", "mode": "strong", "one_point": False}
    )
    code, out, _ = run_cli(capsys, "obstruct", path)
    assert code == 0
    blob = json.loads(out)
    assert blob["status"] == "OBSTRUCTED"
    assert blob["evidence"][0]["degree"] == 2


def test_obstruct_contractible_base_is_still_exit_0(capsys, tmp_path):
    path = write_json(
        tmp_path / "q.json", {"M": "disk", "mode": "strong", "one_point": False}
    )
    code, out, _ = run_cli(capsys, "obstruct", path)
    assert code == 0
    assert json.loads(out)["status"] == "NOT_OBSTRUCTED_BY_THESE_TESTS"


def test_obstruct_twisted_total_space(capsys, tmp_path):
    path = write_json(
        tmp_path / "q.json",
        {"M": "s1", "U": "interval", "E": "mobius", "mode": "strong",
         "one_point": True},
    )
    code, out, _ = run_cli(capsys, "obstruct", path)
    assert code == 0
    blob = json.loads(out)
    assert blob["status"] == "OBSTRUCTED"
    lemmas = [e["lemma"] for e in blob["evidence"]]
    assert "top_homology_vs_fibre" in lemmas


def test_obstruct_trivial_product_one_point(capsys, tmp_path):
    path = write_json(
        tmp_path / "q.json",
        {"M": "s1", "U": "s1", "E": "trivial", "mode": "strong",
         "one_point": True},
    )
    code, out, _ = run_cli(capsys, "obstruct", path)
    assert code == 0
    blob = json.loads(out)
    assert blob["status"] == "OBSTRUCTED"
    assert blob["route"] in ("direct", "derived")


def test_obstruct_batch_keeps_input_order(capsys, tmp_path):
    q1 = write_json(
        tmp_path / "q1.json", {"M": "s2", "mode": "strong", "one_point": False}
    )
    q2 = write_json(
        tmp_path / "q2.json", {"M": "disk", "mode": "strong", "one_point": False}
    )
    code, out, _ = run_cli(capsys, "obstruct", q1, q2, q1)
    assert code == 0
    statuses = [v["status"] for v in json.loads(out)]
    assert statuses == [
        "OBSTRUCTED", "NOT_OBSTRUCTED_BY_THESE_TESTS", "OBSTRUCTED",
    ]


def test_obstruct_inline_complex(capsys, tmp_path):
    square = {
        "vertex_count": 4,
        "facets": [[0, 1], [1, 2], [2, 3], [0, 3]],
    }
    path = write_json(
        tmp_path / "q.json", {"M": square, "mode": "weak", "one_point": False}
    )
    code, out, _ = run_cli(capsys, "obstruct", path)
    assert code == 0
    assert json.loads(out)["status"] == "OBSTRUCTED"


def test_obstruct_resolves_paths_relative_to_query_file(capsys, tmp_path):
    write_json(tmp_path / "base.json", catalog("s2").to_json_dict("s2"))
    path = write_json(
        tmp_path / "q.json",
        {"M": "base.json", "mode": "strong", "one_point": False},
    )
    code, out, _ = run_cli(capsys, "obstruct", path)
    assert code == 0
    assert json.loads(out)["evidence"][0]["degree"] == 2


def test_obstruct_strong_total_space_without_a_puncture_witness(capsys, tmp_path):
    path = write_json(tmp_path / "q.json", {"E": "disk", "mode": "strong"})
    code, out, err = run_cli(capsys, "obstruct", path)
    assert code == 0 and err == ""
    blob = json.loads(out)
    assert blob["status"] == "NOT_OBSTRUCTED_BY_THESE_TESTS"
    punc = blob["evidence"][1]
    assert punc["lemma"] == "puncture_direct_endgame"
    assert punc["degree"] is None


def test_obstruct_rejects_a_non_manifold_total_space(capsys, tmp_path):
    # the suspension of two disjoint 8-gons: each apex link is two circles
    facets = []
    for base in (0, 8):
        for k in range(8):
            edge = [base + k, base + (k + 1) % 8]
            facets += [edge + [16], edge + [17]]
    write_json(tmp_path / "suspension.json", {"vertex_count": 18, "facets": facets})
    path = write_json(
        tmp_path / "q.json", {"E": "suspension.json", "mode": "strong", "one_point": True}
    )
    code, out, err = run_cli(capsys, "obstruct", path)
    assert code == 3 and out == ""
    assert "not a homology manifold" in err and "vertex 16" in err


@pytest.mark.parametrize(
    "query",
    [
        {"M": "s2", "U": "interval", "E": "mobius"},
        {"M": "torus", "U": "s1", "E": "klein", "mode": "weak"},
    ],
    ids=["mobius-over-s2", "klein-over-torus-weak"],
)
def test_obstruct_rejects_a_total_space_no_bundle_has(capsys, tmp_path, query):
    path = write_json(tmp_path / "q.json", query)
    code, out, err = run_cli(capsys, "obstruct", path)
    assert code == 3 and out == ""
    assert "cannot be a bundle over M with fibre U" in err


def test_obstruct_rejects_a_point_base(capsys, tmp_path):
    # a point is closed, but of dimension 0, like a rejected point fibre
    path = write_json(tmp_path / "q.json", {"M": "point", "U": "s1"})
    code, out, err = run_cli(capsys, "obstruct", path)
    assert code == 2 and out == ""
    assert err.startswith("error: base must be at least one-dimensional")
    assert "dimension 0" in err and err.count("\n") == 1


def test_obstruct_requires_needed_fields(capsys, tmp_path):
    path = write_json(tmp_path / "q.json", {"mode": "strong", "one_point": True})
    code, _, err = run_cli(capsys, "obstruct", path)
    assert code == 2
    assert "need" in err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_compatibility_report(capsys, tmp_path):
    path = write_json(
        tmp_path / "e.json",
        {"kind": "compatibility", "system": "mobius_damped",
         "samples_per_component": 400},
    )
    code, out, _ = run_cli(capsys, "simulate", path)
    assert code == 0
    blob = json.loads(out)
    assert blob["pass"] is True
    assert blob["max_residual_g"] < 1e-9


def test_simulate_incompatible_compat_report_is_exit_5(capsys, tmp_path):
    path = write_json(
        tmp_path / "e.json",
        {"kind": "compatibility", "system": "mobius_incompatible",
         "samples_per_component": 100},
    )
    code, out, _ = run_cli(capsys, "simulate", path)
    assert code == 5
    assert json.loads(out)["pass"] is False


def test_simulate_gate_refuses_incompatible_system(capsys, tmp_path):
    path = write_json(
        tmp_path / "e.json",
        {"kind": "integrate", "system": "mobius_incompatible",
         "start": ["A", 3.0, 0.1], "duration": 0.1},
    )
    code, out, err = run_cli(capsys, "simulate", path)
    assert code == 5
    assert out == ""
    assert "residual" in err


@pytest.mark.parametrize(
    "error, expected",
    [("NonConvergentSample", 1), ("NonFiniteState", 1), ("CompatibilityNotVerified", 5)],
)
def test_simulate_maps_simulator_errors_to_exit_codes(
    capsys, tmp_path, monkeypatch, error, expected
):
    def fail(_config):
        raise getattr(bundlesim, error)("simulated failure")

    monkeypatch.setattr(bundlesim, "run_experiment", fail)
    path = write_json(tmp_path / "e.json", {"kind": "integrate", "system": "linear_patch"})
    code, out, err = run_cli(capsys, "simulate", path)
    assert code == expected
    assert out == ""
    assert err == "error: simulated failure\n"


def test_simulate_trajectory_csv(capsys, tmp_path):
    path = write_json(
        tmp_path / "e.json",
        {"kind": "integrate", "system": "linear_patch",
         "start": ["A", 1.0, 0.5], "duration": 0.2, "record_stride": 10},
    )
    csv_path = tmp_path / "traj.csv"
    code, out, _ = run_cli(capsys, "simulate", path, "--csv-out", str(csv_path))
    assert code == 0
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "chart", "angle", "fibre"]
    assert rows[1] == ["0", "A", "1", "0.5"]
    assert len(rows) == len(json.loads(out)["samples"]) + 1


def test_simulate_basin_csv_covers_the_whole_grid(capsys, tmp_path):
    path = write_json(
        tmp_path / "e.json",
        {"kind": "basin", "system": "linear_patch",
         "grid": {"theta_cells": 4, "u_cells": 3, "u_range": [-1, 1]},
         "duration": 2.0, "step": 0.005},
    )
    csv_path = tmp_path / "basin.csv"
    code, out, _ = run_cli(capsys, "simulate", path, "--csv-out", str(csv_path))
    assert code == 0
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["j", "i", "angle", "fibre", "status"]
    assert len(rows) == 1 + json.loads(out)["total_cells"]
    statuses = {r[4] for r in rows[1:]}
    assert statuses <= {CONVERGED_FIBRE, TIMEOUT, DIVERGED}


def test_simulate_csv_needs_a_pointwise_report(capsys, tmp_path):
    path = write_json(
        tmp_path / "e.json",
        {"kind": "compatibility", "system": "mobius_damped",
         "samples_per_component": 64},
    )
    code, _, err = run_cli(
        capsys, "simulate", path, "--csv-out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert "csv" in err.lower()


def test_simulate_unknown_kind_is_exit_2(capsys, tmp_path):
    path = write_json(
        tmp_path / "e.json", {"kind": "teleport", "system": "linear_patch"}
    )
    code, _, err = run_cli(capsys, "simulate", path)
    assert code == 2
    assert "kind" in err


def test_simulate_zero_step_is_exit_2(capsys, tmp_path):
    path = write_json(
        tmp_path / "e.json", {"kind": "basin", "system": "linear_patch", "step": 0}
    )
    code, out, err = run_cli(capsys, "simulate", path)
    assert code == 2
    assert out == ""
    assert err == "error: step must be positive\n"


@pytest.mark.parametrize(
    "spec, problem",
    [
        ({"kind": "basin", "grid": [1]}, "'grid' must be an object, got [1]"),
        ({"kind": "integrate", "start": 5}, "'start' must be a list of 2 or 3 items, got 5"),
        ({"kind": "integrate", "start": [1]}, "'start' must be a list of 2 or 3 items"),
        ({"kind": "integrate", "start": ["A", 1.0, 0.5, 2.0]}, "'start' must be a list"),
        ({"kind": "retraction", "s_grid": 5}, "'s_grid' must be a list, got 5"),
        ({"kind": "basin", "grid": {"u_range": [1.0]}}, "'u_range' must be a list of 2"),
    ],
    ids=["grid-list", "start-number", "start-short", "start-long", "s_grid-number", "u_range-short"],
)
def test_simulate_malformed_spec_is_exit_2(capsys, tmp_path, spec, problem):
    path = write_json(tmp_path / "e.json", {"system": "damped_pendulum", **spec})
    code, out, err = run_cli(capsys, "simulate", path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {problem}") and err.count("\n") == 1


def test_shipped_experiment_specs_parse():
    root = resources.files("fibrestab").joinpath("data/experiments")
    names = sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))
    assert len(names) >= 5
    for name in names:
        data = json.loads(root.joinpath(name).read_text(encoding="utf-8"))
        load_experiment(data)  # must not raise


# ---------------------------------------------------------------------------
# catalog / output plumbing
# ---------------------------------------------------------------------------


def test_catalog_lists_shipped_complexes(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    entries = json.loads(out)
    names = [e["name"] for e in entries]
    assert names == sorted(names)
    assert {"torus", "klein", "mobius", "s1", "s2", "t3"} <= set(names)
    for e in entries:
        assert set(e) == {
            "name", "dimension", "vertex_count", "facet_count",
            "closed", "orientable", "description",
        }


def test_output_file_runs_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code, out, _ = run_cli(
            capsys, "homology", "klein", "--output", str(target)
        )
        assert code == 0 and out == ""
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["ring"] == "Z"


def test_render_json_floats_use_17_digits():
    assert render_json(0.1) == "0.10000000000000001"
    assert render_json(50.0) == "50"
    blob = render_json({"a": [1e-9, True, None], "b": "x"})
    parsed = json.loads(blob)
    assert parsed["a"][0] == 1e-9 and parsed["a"][1] is True
    with pytest.raises(TypeError):
        render_json({"bad": object()})


_FOOTPRINT = """
import contextlib, io, json, sys
import fibrestab
from fibrestab import cli

def loaded():
    return sorted(m for m in ("numpy", "fibrestab.bundlesim") if m in sys.modules)

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)

codes = [run(argv) for argv in json.loads(sys.argv[1])]
before = loaded()
fibrestab.bundlesim
after = loaded()
codes.append(run(json.loads(sys.argv[2])))
print(json.dumps({"codes": codes, "before": before, "after": after}))
"""


def test_homology_commands_do_not_load_the_simulator(tmp_path):
    """Only ``simulate`` imports bundlesim, and numpy with it."""
    query = write_json(tmp_path / "q.json", {"M": "torus", "U": "s1"})
    spec = write_json(
        tmp_path / "e.json",
        {"kind": "integrate", "system": "linear_patch",
         "start": ["A", 1.0, 0.5], "duration": 0.2},
    )
    commands = [
        ["homology", "torus"],
        ["check", "kunneth", "s1", "s1"],
        ["check", "pair-les", "disk", "s1"],
        ["obstruct", query],
        ["catalog"],
    ]
    src = str(Path(fibrestab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, json.dumps(commands),
         json.dumps(["simulate", spec])],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * (len(commands) + 1)
    assert result["before"] == []
    assert result["after"] == ["fibrestab.bundlesim", "numpy"]
