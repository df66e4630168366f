"""Command-line interface: generate, analyze, spectrum, verify, curve.

Each command writes its output to --output FILE, or to stdout without one.
FILE is opened before any work, so a path that cannot be opened fails at
once; a command that fails later leaves FILE empty or partial, as `> FILE`
does.  Exit codes: 0 success, 1 usage error (q < 2, g < 0, or an --output
FILE that cannot be opened or written), 2 resource limit exceeded (a
budget, a limit or the interpreter out of memory), 3 a failed `verify`
check, 4 numerical error.
`graphs.VERTEX_BUDGET` (10^6) caps the vertices of `generate` and the
distinct eigenvalues of `spectrum`; `generate` also caps edges at 2*10^7,
and `verify` takes at most `oracle.WORK_VERTICES` (500) vertices.
Each command imports the layers it runs when it runs, so `--help` loads
none of them and `generate` no closed form, spectrum or oracle.  A process
started as `rcg` or `python -m rcg.cli` freezes its heap before exiting,
so shutdown spends no time collecting what the exit frees anyway.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import sys

from .errors import NumericalError, RcgError, ResourceLimitError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_VERIFY = 3
EXIT_NUMERICAL = 4

SPECTRUM_COMPARE_TOL = 1e-8


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def cmd_generate(args, out) -> int:
    from . import graphs

    getattr(graphs, f"write_{args.format}")(graphs.RcgParams(args.q, args.g), out)
    return EXIT_OK


def cmd_analyze(args, out) -> int:
    import json
    from itertools import chain, islice

    from . import formulas
    from .graphs import RcgParams

    params = RcgParams(args.q, args.g)
    formulas.check_digits(params, "structural_report")
    payload = formulas.structural_report(params).to_json_dict()
    if args.csv:
        del payload["degree_classes"]
        tokens = chain(["key,value\n"], (f"{k},{_cell(v)}\n" for k, v in payload.items()))
    else:
        tokens = chain(json.JSONEncoder(indent=2).iterencode(payload), "\n")
    # streamed, 256 tokens a write: json.dump's write per token cost a child 10 ms at (2, 3000)
    while text := "".join(islice(tokens, 256)):
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
    from .graphs import CHUNK_ROWS, RcgParams

    build = getattr(spectra, f"{args.matrix}_spectrum")
    entries = build(RcgParams(args.q, args.g)).entries
    # the bytes of json.dumps of the [{"value", "multiplicity"}] list with
    # indent=2, from one row template: the values are finite, and json
    # writes a float as its repr; written CHUNK_ROWS rows at a time
    out.write("[\n")
    for start in range(0, len(entries), CHUNK_ROWS):
        rows = ",\n".join(
            f'  {{\n    "value": {value!r},\n    "multiplicity": {mult}\n  }}'
            for value, mult in entries[start : start + CHUNK_ROWS]
        )
        out.write(f",\n{rows}" if start else rows)
    out.write("\n]\n")
    return EXIT_OK


def _spectra_agree(spectrum, measured: list[float]) -> bool:
    predicted = [value for value, mult in spectrum.entries for _ in range(mult)]
    return len(predicted) == len(measured) and all(
        abs(p - m) <= SPECTRUM_COMPARE_TOL for p, m in zip(predicted, measured)
    )


def verification_checks(params) -> list[tuple[str, bool]]:
    """The 10 checks of `verify` at one (q, g), each (name, formula route,
    oracle route or a second formula route, agreement); none compares the
    order or the size, which `build_rcg` reads from `params`.  The spectra
    compare per eigenvalue within SPECTRUM_COMPARE_TOL; every other row
    compares by ==, the Kirchhoff index against the exact resistance sum
    that the oracle reads off its sparse elimination.
    A (q, g) past `oracle.WORK_VERTICES` vertices, whose complete graph sets
    the oracles' work limits, is refused before any work and before the
    closed forms, the spectra or numpy are loaded.
    """
    import operator
    from fractions import Fraction

    from . import oracle
    from .graphs import MATRIX_KINDS, build_rcg, matrix_of, over_limit

    message = "(q={q}, g={g}) has {n} vertices, verify takes at most {limit}"
    over_limit(oracle.WORK_VERTICES, params, "vertices", message)
    from . import formulas, spectra

    cg = build_rcg(params)
    graph = cg.graph
    # the dense eigensolves first, before the other oracles grow the heap,
    # so their N x N arrays and LAPACK's work space do not stack on it
    spectrum_rows = [
        (
            f"{kind} spectrum",
            getattr(spectra, f"{kind}_spectrum")(params),
            oracle.symmetric_eigenvalues(matrix_of(graph, kind)),
            _spectra_agree,
        )
        for kind in MATRIX_KINDS
    ]
    local = oracle.local_clustering(graph)
    trees = formulas.spanning_trees_closed(params)
    kirchhoff = formulas.kirchhoff_closed(params)
    eq = operator.eq
    rows = (
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
        *spectrum_rows,
        (
            "spanning trees",
            (trees, trees.value),
            (spectra.spanning_trees_spectral(params), oracle.matrix_tree_count(graph)),
            eq,
        ),
        ("kirchhoff closed=spectral", kirchhoff, spectra.kirchhoff_spectral(params), eq),
        ("kirchhoff vs resistance", kirchhoff, oracle.resistance_sum(graph), eq),
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


# each curve quantity by its CLI name: its key in `formulas._WALK`, the table of curve readers
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
    """CSV `q,g,value` at g = 0..g_max, one `formulas.curve` per q, once every digit bound holds
    at g_max; each row is written as the curve yields it, so the text is never held whole."""
    from . import formulas
    from .graphs import RcgParams

    quantity = CURVE_QUANTITIES[args.quantity]
    for q in args.q_list:
        formulas.check_digits(RcgParams(q, args.g_max), quantity)
    out.write("q,g,value\n")
    for q in args.q_list:
        # zip stops at the range first, so no row past g_max is read
        rows = zip(range(args.g_max + 1), formulas.curve(q, quantity))
        out.writelines(f"{q},{g},{num}/{den}\n" for g, (num, den) in rows)
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
    except (ValueError, RcgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    """Run `main()` as the process of `python -m rcg.cli` or the `rcg` script.

    Freezes the heap once `main` returns, then exits with its code: shutdown
    makes no collection over objects the exit frees anyway, while atexit
    handlers and the flush of stdout and stderr still run.  `main` itself
    never freezes, so in-process callers keep their heap.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
