"""Command-line front end for the homology engines and the bundle simulator.

Subcommands
-----------
homology   print the homology profile of a complex (catalog name or file)
check      run a Kunneth / Mayer-Vietoris / pair-sequence consistency check
obstruct   evaluate stabilization-obstruction queries (batch capable)
simulate   run an experiment spec: compatibility, basin, retraction, integrate
catalog    list the shipped triangulations

Exit codes: 0 success; 1 a mathematical check failed; 2 malformed input;
3 bad complex, e.g. a non-manifold obstruct input or an E that no bundle
over M with fibre U has; 4 bad cover or subcomplex; 5 chart
incompatibility.  Reruns give the same bytes; floats at 17 significant
digits.
"""

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from .complexes import (
    NotASubcomplex,
    SimplicialComplex,
    SimplicialPair,
    UnknownName,
    UnknownVertex,
    catalog,
    catalog_entry,
    catalog_names,
)
from .homology import NotConnected, homology, reduced_profile
from .obstruction import (
    NotABundle,
    NotAManifold,
    NotAManifoldDim,
    NotClosed,
    StabilizationQuery,
    evaluate,
)
from .sequences import NotACover, kunneth_check, mayer_vietoris, pair_les_check

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BAD_COMPLEX = 3
EXIT_BAD_COVER = 4
EXIT_INCOMPATIBLE = 5


class InputProblem(Exception):
    """User-facing input error (maps to exit code 2)."""


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def render_json(value, indent=0):
    """JSON text with floats at 17 significant digits (round-trip exact)."""
    pad = "  " * indent
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return json.dumps(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = ",\n".join(
            f"{pad}  {render_json(v, indent + 1)}" for v in value
        )
        return "[\n" + body + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit(payload, output):
    text = render_json(payload) + "\n"
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _fmt(x):
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# input resolution
# ---------------------------------------------------------------------------


def _load_json_file(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputProblem(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputProblem(f"malformed JSON in {path}: {exc}") from exc


def resolve_complex(token):
    """A complex given as a catalog name, a JSON file path, or inline dict."""
    if isinstance(token, dict):
        return SimplicialComplex.from_json_dict(token)
    if isinstance(token, str):
        if token in catalog_names():
            return catalog(token)
        if Path(token).exists():
            return SimplicialComplex.from_json_dict(_load_json_file(token))
        raise InputProblem(
            f"{token!r} is neither a catalog name nor an existing file; "
            f"catalog: {', '.join(catalog_names())}"
        )
    raise InputProblem(f"cannot interpret {token!r} as a complex")


def _parse_degrees(text):
    if text is None:
        return None
    sep = ".." if ".." in text else ":"
    parts = text.split(sep)
    if len(parts) != 2:
        raise InputProblem(f"degrees must look like LO..HI, got {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise InputProblem(f"bad degree range {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed argparse namespace
# ---------------------------------------------------------------------------


def cmd_homology(args):
    cx = resolve_complex(args.complex)
    profile = homology(cx, args.ring)
    if args.reduced:
        profile = reduced_profile(profile)
    _emit(profile.to_json_dict(), args.output)
    return EXIT_OK


def cmd_check(args):
    kind, rest = args.what, args.inputs
    degrees = _parse_degrees(args.degrees)
    if kind == "kunneth":
        if len(rest) != 2:
            raise InputProblem("check kunneth takes two complexes")
        report = kunneth_check(
            resolve_complex(rest[0]),
            resolve_complex(rest[1]),
            args.ring,
            degrees,
        )
        ok = report.consistent
    elif kind == "mv":
        if len(rest) != 1:
            raise InputProblem("check mv takes one cover file")
        data = _load_json_file(rest[0])
        if not isinstance(data, dict) or "total" not in data or "pieces" not in data:
            raise InputProblem("cover file needs 'total' and 'pieces' fields")
        pieces = data["pieces"]
        if not isinstance(pieces, list) or len(pieces) != 2:
            raise InputProblem("'pieces' must list exactly two subcomplexes")
        report = mayer_vietoris(
            resolve_complex(data["total"]),
            resolve_complex(pieces[0]),
            resolve_complex(pieces[1]),
            args.field,
            degrees,
        )
        ok = report.verdict
    elif kind == "pair-les":
        if len(rest) != 2:
            raise InputProblem("check pair-les takes total and sub complexes")
        pair = SimplicialPair(resolve_complex(rest[0]), resolve_complex(rest[1]))
        report = pair_les_check(pair, args.field, degrees)
        ok = report.verdict
    else:
        raise InputProblem(f"unknown check {kind!r} (kunneth, mv, pair-les)")
    _emit(report.to_json_dict(), args.output)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _parse_query(data, base):
    if not isinstance(data, dict):
        raise InputProblem("a query must be a JSON object")

    def resolve(token):
        if isinstance(token, str) and token not in catalog_names():
            candidate = base / token
            if candidate.exists():
                return resolve_complex(str(candidate))
        return resolve_complex(token)

    e_spec = data.get("E")
    return StabilizationQuery(
        M=resolve(data["M"]) if data.get("M") is not None else None,
        U=resolve(data["U"]) if data.get("U") is not None else None,
        E=None if e_spec in (None, "trivial") else resolve(e_spec),
        mode=data.get("mode", "strong"),
        one_point=bool(data.get("one_point", True)),
        ring=data.get("ring", "Z"),
    )


def cmd_obstruct(args):
    queries = [
        _parse_query(_load_json_file(path), Path(path).parent)
        for path in args.queries
    ]
    if len(queries) == 1:
        payload = evaluate(queries[0]).to_json_dict()
    else:
        payload = [evaluate(q).to_json_dict() for q in queries]
    _emit(payload, args.output)
    return EXIT_OK


def _basin_csv_rows(report):
    from .bundlesim import CONVERGED_FIBRE, CONVERGED_POINT

    yield ("j", "i", "angle", "fibre", "status")
    stuck = {(j, i): status for j, i, _a, _v, status in report.nonconvergent}
    settled = (
        CONVERGED_FIBRE if report.target_mode == "weak" else CONVERGED_POINT
    )
    angles = report.grid.angle_values()
    fibres = report.grid.fibre_values()
    for j, angle in enumerate(angles):
        for i, fibre in enumerate(fibres):
            status = stuck.get((j, i), settled)
            yield (j, i, _fmt(angle), _fmt(fibre), status)


def cmd_simulate(args):
    # the simulator, and numpy with it, is loaded only for this subcommand
    from .bundlesim import (
        BasinReport,
        CompatibilityNotVerified,
        CompatibilityReport,
        NonConvergentSample,
        NonFiniteState,
        RetractionExperiment,
        TrajectoryRecord,
        load_experiment,
        run_experiment,
    )

    try:
        config = load_experiment(_load_json_file(args.experiment))
    except ValueError as exc:
        raise InputProblem(str(exc)) from exc
    if args.seed is not None and isinstance(config, RetractionExperiment):
        config = replace(config, seed=args.seed)
    try:
        report = run_experiment(config)
    except CompatibilityNotVerified as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except (NonConvergentSample, NonFiniteState) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    _emit(report.to_json_dict(), args.output)
    if args.csv_out:
        if isinstance(report, TrajectoryRecord):
            rows = report.to_csv_rows()
        elif isinstance(report, BasinReport):
            rows = _basin_csv_rows(report)
        else:
            raise InputProblem(
                "--csv-out applies to integrate and basin experiments"
            )
        with open(args.csv_out, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    if isinstance(report, CompatibilityReport) and not report.passed:
        # the residual report was emitted above; flag the failure
        return EXIT_INCOMPATIBLE
    return EXIT_OK


def cmd_catalog(args):
    payload = []
    for name in catalog_names():
        entry = catalog_entry(name)
        payload.append(
            {
                "name": entry.name,
                "dimension": entry.dimension,
                "vertex_count": entry.complex.vertex_count,
                "facet_count": len(entry.complex.facets),
                "closed": entry.closed,
                "orientable": entry.orientable,
                "description": entry.description,
            }
        )
    _emit(payload, args.output)
    return EXIT_OK


_DISPATCH = {
    "homology": cmd_homology,
    "check": cmd_check,
    "obstruct": cmd_obstruct,
    "simulate": cmd_simulate,
    "catalog": cmd_catalog,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fibrestab",
        description="Homology-based stabilization obstructions and "
        "chart-based feedback simulation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("homology", help="homology profile of one complex")
    p.add_argument("complex", help="catalog name or complex JSON file")
    p.add_argument("--ring", default="Z", help="Z, Q, or Z/p (default Z)")
    p.add_argument("--reduced", action="store_true", help="reduced homology")
    p.add_argument("--output", help="write JSON here instead of stdout")

    p = sub.add_parser("check", help="kunneth / mv / pair-les consistency")
    p.add_argument("what", choices=("kunneth", "mv", "pair-les"))
    p.add_argument("inputs", nargs="+", help="complexes or a cover file")
    p.add_argument("--ring", default="Z", help="ring for kunneth (default Z)")
    p.add_argument("--field", default="Q", help="field for mv/pair-les")
    p.add_argument("--degrees", help="degree range LO..HI")
    p.add_argument("--output", help="write JSON here instead of stdout")

    p = sub.add_parser("obstruct", help="evaluate stabilization queries")
    p.add_argument("queries", nargs="+", help="query JSON files")
    p.add_argument("--output", help="write JSON here instead of stdout")

    p = sub.add_parser("simulate", help="run an experiment spec")
    p.add_argument("experiment", help="experiment JSON file")
    p.add_argument("--csv-out", help="also write trajectory/basin CSV here")
    p.add_argument("--seed", type=int, help="override a retraction seed")
    p.add_argument("--output", help="write JSON here instead of stdout")

    p = sub.add_parser("catalog", help="list the shipped triangulations")
    p.add_argument("--output", help="write JSON here instead of stdout")

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.subcommand](args)
    except InputProblem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except UnknownName as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except UnknownVertex as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_COMPLEX
    except (NotClosed, NotAManifold, NotAManifoldDim, NotABundle, NotConnected) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_COMPLEX
    except (NotACover, NotASubcomplex) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_COVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
