"""Command-line interface: generate, analyze, spectrum, verify, curve.

Each command writes its output to --output FILE, or to stdout without one.
FILE is opened before any work, so a path that cannot be opened fails at
once; a command that fails later leaves FILE empty or partial, as `> FILE`
does.  Exit codes: 0 success, 1 usage error (q < 2, g < 0,
CORONA_VERTEX_BUDGET not a nonnegative integer, or an --output FILE that
cannot be opened or written), 2 resource limit exceeded (a budget, a limit
or the interpreter out of memory), 3 verification failure (a failed check,
or two routes of an internal cross-check that disagree), 4 numerical error.
`graphs.vertex_budget` caps the vertices of `generate` and `verify` and the
distinct eigenvalues of `spectrum`; `generate` also caps edges at 2*10^7.
Each command imports the layers it runs when it runs, so `--help` loads
none of them and `generate` no closed form, spectrum or oracle.
"""
from __future__ import annotations

import argparse
import contextlib
import sys

from .errors import InternalInconsistencyError, NumericalError, RcgError, ResourceLimitError

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


def cmd_generate(args, out) -> int:
    from . import graphs

    params = graphs.RcgParams(args.q, args.g)
    graphs.check_limits(params)
    getattr(graphs, f"write_{args.format}")(params, out)
    return EXIT_OK


def _check_str_limit(params, quantity: str) -> None:
    """Refuse, before any work, output that may pass the int->str digit limit."""
    from . import formulas

    limit = formulas.str_digit_limit()
    if limit and not formulas.fits_digits(params, quantity, limit):
        raise ResourceLimitError(
            f"{quantity} of (q={params.q}, g={params.g}) may hold integers of more "
            f"than {limit} digits, the interpreter's int->str limit"
        )


def cmd_analyze(args, out) -> int:
    import json

    from . import formulas
    from .graphs import RcgParams

    params = RcgParams(args.q, args.g)
    _check_str_limit(params, "structural_report")
    payload = formulas.structural_report(params).to_json_dict()
    if args.csv:
        del payload["degree_classes"]
        text = "key,value\n" + "".join(f"{key},{_cell(value)}\n" for key, value in payload.items())
    else:
        text = json.dumps(payload, indent=2) + "\n"
    out.write(text)
    return EXIT_OK


def _cell(value) -> str:
    """A JSON payload value as a CSV cell; {num, den} as num/den, {factors} as q^a*(q+1)^b."""
    if isinstance(value, float):
        return f"{value:.12g}"
    if not isinstance(value, dict):
        return str(value)
    if "num" in value:
        return f"{value['num']}/{value['den']}"
    if "digits" in value:
        return value["digits"]
    return "*".join(f"{base}^{exponent}" for base, exponent in value["factors"])


def cmd_spectrum(args, out) -> int:
    from . import spectra
    from .graphs import RcgParams

    build = getattr(spectra, f"{args.matrix}_spectrum")
    spectrum = build(RcgParams(args.q, args.g))
    # the bytes of json.dumps of the [{"value", "multiplicity"}] list with
    # indent=2, from one row template: the values are finite, and json
    # writes a float as its repr
    rows = ",\n".join(
        f'  {{\n    "value": {value!r},\n    "multiplicity": {mult}\n  }}'
        for value, mult in spectrum.entries
    )
    out.write(f"[\n{rows}\n]\n")
    return EXIT_OK


def _spectra_agree(spectrum, measured: list[float]) -> bool:
    predicted = [value for value, mult in spectrum.entries for _ in range(mult)]
    return len(predicted) == len(measured) and all(
        abs(p - m) <= SPECTRUM_COMPARE_TOL for p, m in zip(predicted, measured)
    )


def _resistance_agrees(kirchhoff, measured: float) -> bool:
    closed = float(kirchhoff)
    return abs(measured - closed) <= RESISTANCE_REL_TOL * closed


def verification_checks(params) -> list[tuple[str, bool]]:
    """Every oracle-vs-formula comparison for one (q, g).

    Each row is (name, formula route, oracle route, agreement); the exact
    rows compare by ==, the spectra per eigenvalue within SPECTRUM_COMPARE_TOL
    and the resistance sum within RESISTANCE_REL_TOL of the closed form.
    A malformed vertex budget is refused first, then a (q, g) past the size
    limit of an oracle, before any work and before the closed forms, the
    spectra or numpy are loaded; `build_rcg` then checks the budget itself.
    """
    import operator
    from fractions import Fraction

    from . import oracle
    from .graphs import build_rcg, matrix_of, vertex_budget

    vertex_budget()
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
    from . import formulas, spectra

    cg = build_rcg(params)
    graph = cg.graph
    local = oracle.local_clustering(graph)
    trees = formulas.spanning_trees_closed(params)
    kirchhoff = formulas.kirchhoff_closed(params)
    eq = operator.eq
    rows = (
        ("order", params.vertex_count, graph.vertex_count, eq),
        ("size", params.edge_count, graph.edge_count, eq),
        (
            "degree histogram",
            {c.degree: c.count for c in formulas.degree_multiset(params)},
            oracle.degree_histogram(graph),
            eq,
        ),
        ("total distance", formulas.total_distance(params), oracle.bfs_total_distance(graph), eq),
        (
            "mean neighbor degree",
            {b: formulas.knn_exact(params, b) for b in range(params.g + 1)},
            oracle.mean_neighbor_degree_by_class(cg),
            eq,
        ),
        ("local clustering", [formulas.vertex_clustering(params, b) for b in cg.birth], local, eq),
        (
            "global clustering",
            formulas.global_clustering(params),
            sum(local, Fraction(0)) / graph.vertex_count,
            eq,
        ),
        (
            "adjacency spectrum",
            spectra.adjacency_spectrum(params),
            oracle.symmetric_eigenvalues(matrix_of(graph, "adjacency")),
            _spectra_agree,
        ),
        (
            "laplacian spectrum",
            spectra.laplacian_spectrum(params),
            oracle.symmetric_eigenvalues(matrix_of(graph, "laplacian")),
            _spectra_agree,
        ),
        (
            "spanning trees",
            (trees, trees.value),
            (spectra.spanning_trees_spectral(params), oracle.matrix_tree_count(graph)),
            eq,
        ),
        ("kirchhoff closed=spectral", kirchhoff, spectra.kirchhoff_spectral(params), eq),
        ("kirchhoff vs resistance", kirchhoff, oracle.resistance_sum(graph), _resistance_agrees),
    )
    return [(name, agree(formula, measured)) for name, formula, measured, agree in rows]


def cmd_verify(args, out) -> int:
    from .graphs import RcgParams

    checks = verification_checks(RcgParams(args.q, args.g))
    width = max(len(name) for name, _ in checks)
    rows = [f"{name:<{width}}  {'PASS' if ok else 'FAIL'}\n" for name, ok in checks]
    failed = sum(not ok for _, ok in checks)
    n = len(checks)
    rows.append(f"{failed} of {n} checks failed\n" if failed else f"all {n} checks passed\n")
    out.write("".join(rows))
    return EXIT_VERIFY if failed else EXIT_OK


# each quantity by one name: its digit-bound key and its value at a row of the walk
CURVE_QUANTITIES = {
    "clustering": "global_clustering",
    "avg-distance": "average_distance",
    "kirchhoff": "kirchhoff_closed",
    "avg-degree": "average_degree",
}


def _q_list(text: str) -> list[int]:
    """--q-list: comma-separated integers, at least one."""
    try:
        q_values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")
    if not q_values:
        raise argparse.ArgumentTypeError("needs at least one q")
    return q_values


def cmd_curve(args, out) -> int:
    from . import formulas
    from .graphs import RcgParams

    quantity = CURVE_QUANTITIES[args.quantity]
    # RcgParams validates each q and g_max; the digit bounds grow with g
    for q in args.q_list:
        _check_str_limit(RcgParams(q, args.g_max), quantity)
    rows = ["q,g,value"]
    for q in args.q_list:  # one walk per q, read at every row
        for g, row in zip(range(args.g_max + 1), formulas._generations(q)):
            value = getattr(row, quantity)()
            rows.append(f"{q},{g},{value.numerator}/{value.denominator}")
    out.write("\n".join(rows) + "\n")
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
    p.add_argument("--q-list", type=_q_list, required=True, help="comma-separated q values")
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
        with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as out:
            return args.func(args, out)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:
        # numpy names the allocation it refused; a bare MemoryError has no text
        print(f"resource limit: out of memory {exc}".rstrip(), file=sys.stderr)
        return EXIT_RESOURCE
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, RcgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
