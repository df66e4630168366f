"""Command-line interface: generate, analyze, spectrum, verify, curve.

Exit codes: 0 success, 1 usage error (RcgParams rejects q < 2 or g < 0),
2 resource limit exceeded, 3 verification failure (a failed check, or two
routes of an internal cross-check that disagree), 4 numerical error.  The
environment variable CORONA_VERTEX_BUDGET overrides the default vertex
budget of 10^6; for `spectrum` the budget caps the distinct eigenvalues
instead.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import formulas, oracle, spectra
from .errors import InternalInconsistencyError, NumericalError, RcgError, ResourceLimitError
from .graphs import (
    DEFAULT_VERTEX_BUDGET,
    RcgParams,
    build_rcg,
    matrix_of,
    write_dot,
    write_edgelist,
    write_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_VERIFY = 3
EXIT_NUMERICAL = 4

SPECTRUM_COMPARE_TOL = 1e-8
RESISTANCE_REL_TOL = 1e-6


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def vertex_budget() -> int:
    raw = os.environ.get("CORONA_VERTEX_BUDGET")
    if raw is None:
        return DEFAULT_VERTEX_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"CORONA_VERTEX_BUDGET must be an integer, got {raw!r}")


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_generate(args) -> int:
    cg = build_rcg(RcgParams(args.q, args.g), vertex_budget())
    # built per call, so a rebinding of these names (a monkeypatch, a tracer) holds
    writers = {"edgelist": write_edgelist, "dot": write_dot, "json": write_json}
    writer = writers[args.format]
    if args.output:
        with open(args.output, "w") as fh:
            writer(cg, fh)
    else:
        writer(cg, sys.stdout)
    return EXIT_OK


def _trees_cell(trees: dict) -> str:
    """Decimal digits where they fit, else the exact factored form q^a*(q+1)^b."""
    if "digits" in trees:
        return trees["digits"]
    return "*".join(f"{base}^{exponent}" for base, exponent in trees["factors"])


def _check_str_limit(params: RcgParams, quantity: str) -> None:
    """Refuse, before any work, output that may pass the int->str digit limit."""
    limit = formulas.str_digit_limit()
    if limit and not formulas.fits_digits(params, quantity, limit):
        raise ResourceLimitError(
            f"{quantity} of (q={params.q}, g={params.g}) may hold integers of more "
            f"than {limit} digits, the interpreter's int->str limit"
        )


def cmd_analyze(args) -> int:
    params = RcgParams(args.q, args.g)
    _check_str_limit(params, "structural_report")
    report = formulas.structural_report(params)
    if args.csv:
        rows = ["key,value"]
        payload = report.to_json_dict()
        flat = {
            "q": payload["q"],
            "g": payload["g"],
            "order": payload["order"],
            "size": payload["size"],
            "average_degree": _fmt(report.average_degree),
            "total_distance": payload["total_distance"],
            "average_distance": _fmt(report.average_distance),
            "global_clustering": _fmt(report.global_clustering),
            "asymptotic_clustering": _fmt(report.asymptotic_clustering),
            "spanning_trees": _trees_cell(payload["spanning_trees"]),
            "kirchhoff": _fmt(report.kirchhoff),
        }
        rows.extend(f"{key},{value}" for key, value in flat.items())
        text = "\n".join(rows) + "\n"
    else:
        text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    params = RcgParams(args.q, args.g)
    if args.matrix == "adjacency":
        spectrum = spectra.adjacency_spectrum(params, vertex_budget())
    else:
        spectrum = spectra.laplacian_spectrum(params, vertex_budget())
    # the bytes of json.dumps(spectrum.to_json_list(), indent=2), from one row
    # template: the values are finite, and json writes a float as its repr
    rows = ",\n".join(
        f'  {{\n    "value": {value!r},\n    "multiplicity": {mult}\n  }}'
        for value, mult in spectrum.entries
    )
    _emit(f"[\n{rows}\n]\n", args.output)
    return EXIT_OK


def _expand(spectrum: spectra.SpectrumMultiset) -> list[float]:
    values = []
    for value, mult in spectrum.entries:
        values.extend([value] * mult)
    return values


def verification_checks(params: RcgParams, budget: int) -> list[tuple[str, bool]]:
    """Every oracle-vs-formula comparison for one (q, g).

    The size limits of the oracles are checked before any work starts.
    """
    for oracle_name, limit in (
        ("matrix-tree", oracle.MATRIX_TREE_SIZE_LIMIT),
        ("eigenvalue", oracle.EIGENVALUE_SIZE_LIMIT),
        ("resistance", oracle.RESISTANCE_SIZE_LIMIT),
    ):
        if params.vertex_count > limit:
            raise ResourceLimitError(
                f"(q={params.q}, g={params.g}) has {params.vertex_count} vertices, "
                f"the {oracle_name} oracle takes at most {limit}"
            )
    cg = build_rcg(params, budget)
    graph = cg.graph
    checks: list[tuple[str, bool]] = []

    checks.append(("order", graph.vertex_count == params.vertex_count))
    checks.append(("size", graph.edge_count == params.edge_count))

    expected_hist = {
        c.degree: c.count for c in formulas.degree_multiset(params)
    }
    checks.append(("degree histogram", oracle.degree_histogram(graph) == expected_hist))

    checks.append(
        (
            "total distance",
            oracle.bfs_total_distance(graph) == formulas.total_distance(params),
        )
    )

    measured_knn = oracle.mean_neighbor_degree_by_class(cg)
    checks.append(
        (
            "mean neighbor degree",
            all(
                measured_knn[b] == formulas.knn_exact(params, b)
                for b in range(params.g + 1)
            ),
        )
    )

    local = oracle.local_clustering(graph)
    checks.append(
        (
            "local clustering",
            all(
                local[v] == formulas.vertex_clustering(params, cg.birth[v])
                for v in range(graph.vertex_count)
            ),
        )
    )
    mean_local = sum(local, Fraction(0)) / graph.vertex_count
    checks.append(("global clustering", mean_local == formulas.global_clustering(params)))

    for kind, build in (
        ("adjacency", spectra.adjacency_spectrum),
        ("laplacian", spectra.laplacian_spectrum),
    ):
        predicted = _expand(build(params, budget))
        measured = oracle.symmetric_eigenvalues(matrix_of(graph, kind))
        ok = len(predicted) == len(measured) and all(
            abs(p - m) <= SPECTRUM_COMPARE_TOL for p, m in zip(predicted, measured)
        )
        checks.append((f"{kind} spectrum", ok))

    trees_closed = formulas.spanning_trees_closed(params)
    trees_spectral = spectra.spanning_trees_spectral(params)
    trees_oracle = oracle.matrix_tree_count(graph)
    checks.append(
        (
            "spanning trees",
            trees_closed == trees_spectral and trees_closed.value == trees_oracle,
        )
    )

    kirchhoff = formulas.kirchhoff_closed(params)
    checks.append(("kirchhoff closed=spectral", kirchhoff == spectra.kirchhoff_spectral(params)))
    measured_r = oracle.resistance_sum(graph)
    checks.append(
        (
            "kirchhoff vs resistance",
            abs(measured_r - float(kirchhoff)) <= RESISTANCE_REL_TOL * float(kirchhoff),
        )
    )
    return checks


def cmd_verify(args) -> int:
    checks = verification_checks(RcgParams(args.q, args.g), vertex_budget())
    width = max(len(name) for name, _ in checks)
    failed = 0
    for name, ok in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}")
        if not ok:
            failed += 1
    if failed:
        print(f"{failed} of {len(checks)} checks failed")
        return EXIT_VERIFY
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


CURVE_QUANTITIES = {
    "clustering": formulas.global_clustering,
    "avg-distance": formulas.average_distance,
    "kirchhoff": formulas.kirchhoff_closed,
    "avg-degree": formulas.average_degree,
}


def cmd_curve(args) -> int:
    try:
        q_values = [int(part) for part in args.q_list.split(",") if part]
    except ValueError:
        print(f"error: bad --q-list {args.q_list!r}", file=sys.stderr)
        return EXIT_USAGE
    if not q_values:
        print("error: --q-list needs at least one q", file=sys.stderr)
        return EXIT_USAGE
    quantity = CURVE_QUANTITIES[args.quantity]
    # RcgParams validates each q and g_max; the digit bounds grow with g
    for q in q_values:
        _check_str_limit(RcgParams(q, args.g_max), quantity.__name__)
    rows = ["q,g,value"]
    for q in q_values:
        for g in range(args.g_max + 1):
            rows.append(f"{q},{g},{_fmt(quantity(RcgParams(q, g)))}")
    _emit("\n".join(rows) + "\n", args.output)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="rcg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--q", type=int, required=True, help="complete graph size, >= 2")
        p.add_argument("--g", type=int, required=True, help="generation, >= 0")
        p.add_argument("--output", help="write to file instead of stdout")

    p = sub.add_parser("generate", help="emit the explicit graph")
    common(p)
    p.add_argument("--format", choices=("edgelist", "dot", "json"), default="edgelist")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="emit all closed-form quantities")
    common(p)
    p.add_argument("--csv", action="store_true", help="key,value CSV instead of JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("spectrum", help="emit the recursive eigenvalue multiset")
    common(p)
    p.add_argument("--matrix", choices=("adjacency", "laplacian"), required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run every oracle-vs-formula check")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("curve", help="emit (q, g, value) growth-curve CSV")
    p.add_argument("--quantity", choices=sorted(CURVE_QUANTITIES), required=True)
    p.add_argument("--q-list", required=True, help="comma-separated q values")
    p.add_argument("--g-max", type=int, required=True)
    p.add_argument("--output", help="write to file instead of stdout")
    p.set_defaults(func=cmd_curve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, RcgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
