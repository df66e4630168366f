import argparse
import contextlib
import gc
import hashlib
import inspect
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import rcg
from rcg import (
    Graph,
    RcgParams,
    adjacency_spectrum,
    asymptotic_clustering,
    build_rcg,
    laplacian_spectrum,
    write_edgelist,
)
from rcg import cli, graphs, oracle
from rcg.cli import CURVE_QUANTITIES, build_parser, main, verification_checks
from rcg.errors import ResourceLimitError
from rcg.formulas import check_digits
from rcg.graphs import check_limits

from reference import reference_text

# a q or g past the largest float, 1.8e308
HUGE = 10**400


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def failed_rows(table):
    """Names of the FAIL rows of a `verify` table."""
    return {line[: -len("FAIL")].rstrip() for line in table.splitlines() if line.endswith("FAIL")}


def count_walks(monkeypatch):
    """The argument tuples of every clustering walk started from here on."""
    from rcg import formulas

    walk, calls = formulas._clustering_walk, []

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(formulas, "_clustering_walk", counted)
    return calls


def loaded_by(argv):
    """The exit code of `rcg argv` in a child, and the rcg.* modules, numpy and scipy it loaded."""
    code = (
        "import sys, rcg.cli; code = rcg.cli.main(sys.argv[1:]); "
        "print(code, *(m for m in sys.modules "
        "if m.startswith('rcg.') or m in ('numpy', 'scipy')), file=sys.stderr)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=20
    )
    exit_code, *loaded = result.stderr.splitlines()[-1].split()
    return int(exit_code), set(loaded)


class TestGenerate:
    def test_edgelist_k2(self, capsys):
        code, out, _ = run(capsys, "generate", "--q", "2", "--g", "0")
        assert code == 0
        assert out.splitlines()[:5] == ["# q 2", "# g 0", "# N 2", "# M 1", "0 1"]

    @pytest.mark.parametrize("q,g", [(2, 2), (3, 1)])
    def test_round_trip(self, capsys, q, g):
        code, out, _ = run(capsys, "generate", "--q", str(q), "--g", str(g))
        assert code == 0
        assert out == reference_text(write_edgelist, build_rcg(RcgParams(q, g)))

    def test_dot_labels_births(self, capsys):
        code, out, _ = run(capsys, "generate", "--q", "2", "--g", "1", "--format", "dot")
        assert code == 0
        assert '2 [label="1"];' in out
        assert "0 -- 1;" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "generate", "--q", "2", "--g", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["N"] == 6 and payload["M"] == 7
        assert payload["birth"] == [0, 0, 1, 1, 1, 1]

    @pytest.mark.parametrize(
        "fmt,q,g,digest",
        [
            ("json", 2, 2, "45a5cee513751f039ec78734706e9b2a1f302765f7c8376ee6b18d1d648a5722"),
            ("dot", 3, 2, "a4e8c43da48f892ff55bd81b8f20fe6a09037b0795889280ab4c831ea3f29122"),
            ("json", 2, 0, "a9bf61080ecf81c74790eb69935261420959ce6d4e0fae3963d59c1f2d6588b9"),
            ("dot", 2, 0, "b0ca8d2406661625427cb556b2f77bf34f1e827a48e96af7162cf4a1cd0559b2"),
        ],
    )
    def test_hash_is_pinned(self, capsys, fmt, q, g, digest):
        # sha256 of the output of the per-line f-string and json.dumps writers
        argv = ["generate", "--q", str(q), "--g", str(g), "--format", fmt]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["edgelist", "dot", "json"])
    def test_stdout_equals_output_file(self, capsys, tmp_path, fmt):
        argv = ["generate", "--q", "3", "--g", "2", "--format", fmt]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        target = tmp_path / "graph.out"
        assert run(capsys, *argv, "--output", str(target))[:2] == (0, "")
        assert target.read_bytes() == out.encode()
        # a plain StringIO has no .buffer; the writers must write str to it
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(argv) == 0
        assert buffer.getvalue() == out

    def test_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "generate", "--q", "9", "--g", "9")
        assert code == 2
        assert "resource" in err

    @pytest.mark.parametrize("q,g,edges", [(999, 1, 499_499_001), (10**6, 0, 499_999_500_000)])
    def test_edge_limit_exit_code(self, capsys, q, g, edges):
        start = time.perf_counter()
        code, out, err = run(capsys, "generate", "--q", str(q), "--g", str(g))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"resource limit: (q={q}, g={g}) has {edges} edges, the limit is 20000000\n"

    @pytest.mark.parametrize(
        "message,line",
        [
            ("Unable to allocate 3.72 GiB", "resource limit: out of memory Unable to allocate 3.72 GiB"),
            ("", "resource limit: out of memory"),
        ],
        ids=["numpy", "bare"],
    )
    def test_memory_error_exit_code(self, capsys, monkeypatch, message, line):
        from rcg import graphs

        def out_of_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(graphs, "write_edgelist", out_of_memory)
        code, out, err = run(capsys, "generate", "--q", "2", "--g", "1")
        assert (code, out, err) == (2, "", line + "\n")

    def test_budget_override(self, capsys, monkeypatch):
        monkeypatch.setattr(graphs, "VERTEX_BUDGET", 5)
        code, _, _ = run(capsys, "generate", "--q", "2", "--g", "1")
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "graph.txt"
        code, out, _ = run(
            capsys, "generate", "--q", "2", "--g", "1", "--output", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text() == reference_text(write_edgelist, build_rcg(RcgParams(2, 1)))


class TestAnalyze:
    def test_json_values(self, capsys):
        code, out, _ = run(capsys, "analyze", "--q", "2", "--g", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == "6"
        assert payload["size"] == "7"
        assert payload["kirchhoff"] == {"num": "21", "den": "1"}
        assert payload["spanning_trees"] == {"digits": "9"}

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "analyze", "--q", "2", "--g", "1", "--csv")
        assert code == 0
        rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
        assert rows["kirchhoff"] == "21/1"
        assert rows["average_distance"] == "9/5"
        assert rows["spanning_trees"] == "9"

    def test_spanning_trees_beyond_str_limit(self, capsys):
        # 9391 digits: past the interpreter's int->str limit, emitted factored
        code, out, _ = run(capsys, "analyze", "--q", "2", "--g", "9")
        assert code == 0
        trees = json.loads(out)["spanning_trees"]
        exponent = 3**9 - 1
        assert trees["factors"] == [[2, 0], [3, exponent]]
        assert trees["log10"] == pytest.approx(exponent * math.log10(3), rel=1e-12)

    def test_csv_bytes_are_pinned(self, capsys):
        code, out, _ = run(capsys, "analyze", "--q", "2", "--g", "1", "--csv")
        assert code == 0
        assert out == (
            "key,value\nq,2\ng,1\norder,6\nsize,7\naverage_degree,7/3\n"
            "total_distance,27\naverage_distance,9/5\nglobal_clustering,7/9\n"
            "asymptotic_clustering,0.760345996301\nspanning_trees,9\nkirchhoff,21/1\n"
        )

    @pytest.mark.parametrize(
        "q,g,digest",
        [
            (2, 9, "8010a587472f954216bd83d2ae22a9c05f538f96704e05d4d97e84bf3cd6e9d9"),
            (5, 4, "cc52a68e800d2dda8fa5ca57361a32cfb88e7226ae9f15e0e54a078cfbd861fa"),
            (2, 647, "40d51e9cc6292c2241911623609aa0367561e9e27bea70c3764d3e5542fa31a9"),
        ],
    )
    def test_csv_hash_is_pinned(self, capsys, q, g, digest):
        code, out, _ = run(capsys, "analyze", "--q", str(q), "--g", str(g), "--csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_csv_rows_are_json_keys(self, capsys):
        _, out, _ = run(capsys, "analyze", "--q", "3", "--g", "2")
        keys = [key for key in json.loads(out) if key != "degree_classes"]
        _, out, _ = run(capsys, "analyze", "--q", "3", "--g", "2", "--csv")
        assert [line.split(",", 1)[0] for line in out.splitlines()] == ["key", *keys]

    def test_csv_beyond_str_limit(self, capsys):
        code, out, _ = run(capsys, "analyze", "--q", "2", "--g", "9", "--csv")
        assert code == 0
        rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
        factors = [term.split("^") for term in rows["spanning_trees"].split("*")]
        assert [(int(base), int(exponent)) for base, exponent in factors] == [
            (2, 0),
            (3, 3**9 - 1),
        ]

    def test_large_generation(self, capsys):
        assert run(capsys, "analyze", "--q", "2", "--g", "50")[0] == 0

    def test_exponent_past_largest_float(self, capsys):
        # the spanning-tree exponent 3^647 - 1 has no float; log10 is left out
        code, out, _ = run(capsys, "analyze", "--q", "2", "--g", "647")
        assert code == 0
        assert "Infinity" not in out
        trees = json.loads(out)["spanning_trees"]
        assert trees == {"factors": [[2, 0], [3, 3**647 - 1]]}
        code, out, _ = run(capsys, "analyze", "--q", "2", "--g", "647", "--csv")
        assert code == 0
        rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
        assert rows["spanning_trees"] == f"2^0*3^{3**647 - 1}"

    @pytest.mark.parametrize("g", ["5000", "100000", str(10**400)])
    @pytest.mark.parametrize("csv", [[], ["--csv"]])
    def test_past_str_limit_exits_resource_at_once(self, capsys, g, csv):
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", "--q", "2", "--g", g, *csv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "int->str limit" in err

    @pytest.mark.parametrize("g", [8, 12, 13, 647])
    def test_bytes_without_str_limit(self, g):
        # with no int->str limit the tree count is still written in decimal
        # up to 4300 digits only: (2, 8) has 3130, (2, 12) about 253 562;
        # `curve` rows to the same g are the same bytes too
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        for command in (
            ["analyze", "--q", "2", "--g", str(g)],
            ["curve", "--quantity", "clustering", "--q-list", "2,3", "--g-max", str(g)],
            ["curve", "--quantity", "kirchhoff", "--q-list", "2,3", "--g-max", str(g)],
        ):
            argv = [sys.executable, "-m", "rcg.cli", *command]
            limited = subprocess.run(argv, capture_output=True, timeout=20, env=env)
            unlimited = subprocess.run(
                argv, capture_output=True, timeout=20, env={**env, "PYTHONINTMAXSTRDIGITS": "0"}
            )
            assert limited.returncode == unlimited.returncode == 0
            assert unlimited.stdout == limited.stdout
            if command[0] == "analyze":
                assert (b'"digits"' in limited.stdout) == (g == 8)
            else:
                assert len(limited.stdout.splitlines()) == 1 + 2 * (g + 1)

    def test_one_reader_of_str_limit(self, capsys, str_limit):
        # the report's digits cell and the pre-check both follow the
        # interpreter's limit, here at 640 digits
        code, out, _ = run(capsys, "analyze", "--q", "2", "--g", "7")
        assert code == 0
        assert json.loads(out)["spanning_trees"]["factors"] == [[2, 0], [3, 3**7 - 1]]
        code, out, err = run(capsys, "analyze", "--q", "2", "--g", "1000")
        assert code == 2
        assert f"more than {str_limit} digits" in err
        sys.set_int_max_str_digits(4300)
        _, out, _ = run(capsys, "analyze", "--q", "2", "--g", "7")
        assert len(json.loads(out)["spanning_trees"]["digits"]) == 1043

    def test_wide_str_limit_keeps_the_value_cap(self, capsys, str_limit):
        # (2, 14) has about 2.3 million digits, past MAX_VALUE_DIGITS: still
        # factors where the interpreter would print them
        sys.set_int_max_str_digits(10**7)
        code, out, _ = run(capsys, "analyze", "--q", "2", "--g", "14")
        assert code == 0
        trees = json.loads(out)["spanning_trees"]
        assert "digits" not in trees
        assert trees["factors"] == [[2, 0], [3, 3**14 - 1]]


class TestSpectrum:
    def test_laplacian_q2_g1(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--q", "2", "--g", "1", "--matrix", "laplacian"
        )
        assert code == 0
        payload = json.loads(out)
        assert [e["multiplicity"] for e in payload] == [1, 3, 1, 1]
        values = [e["value"] for e in payload]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("matrix", ["adjacency", "laplacian"])
    def test_budget_is_on_distinct_eigenvalues(self, capsys, matrix):
        # N = 2 * 3^16 is far past the budget of 10^6, but the spectrum holds
        # at most 3 * 2^16 - 1 distinct eigenvalues
        code, out, _ = run(capsys, "spectrum", "--q", "2", "--g", "16", "--matrix", matrix)
        assert code == 0
        payload = json.loads(out)
        assert sum(e["multiplicity"] for e in payload) == 2 * 3**16
        # every child is distinct; only the Laplacian's structural q+1 joins
        # a child, that of the zero eigenvalue, each generation
        if matrix == "laplacian":
            assert len(payload) == 2**17
            assert payload[-1] == {"value": 0.0, "multiplicity": 1}
        else:
            assert len(payload) == 3 * 2**16 - 1

    @pytest.mark.parametrize("build", [adjacency_spectrum, laplacian_spectrum])
    @pytest.mark.parametrize("q,g", [(2, 0), (3, 2), (2, 8)])
    def test_bytes_equal_json_dumps(self, capsys, build, q, g):
        matrix = build.__name__.split("_")[0]
        code, out, _ = run(capsys, "spectrum", "--q", str(q), "--g", str(g), "--matrix", matrix)
        assert code == 0
        entries = build(RcgParams(q, g)).entries
        payload = [{"value": value, "multiplicity": mult} for value, mult in entries]
        assert out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("chunk_rows", [1, 4, 11])
    def test_bytes_are_the_same_in_chunks(self, capsys, monkeypatch, chunk_rows):
        from rcg import graphs

        params = RcgParams(3, 2)  # 11 distinct adjacency eigenvalues
        monkeypatch.setattr(graphs, "CHUNK_ROWS", chunk_rows)
        code, out, _ = run(capsys, "spectrum", "--q", "3", "--g", "2", "--matrix", "adjacency")
        assert code == 0
        payload = [{"value": v, "multiplicity": m} for v, m in adjacency_spectrum(params).entries]
        assert len(payload) == 11
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_over_entry_budget_exits_resource(self, capsys):
        code, _, err = run(capsys, "spectrum", "--q", "2", "--g", "19", "--matrix", "laplacian")
        assert code == 2
        assert "distinct eigenvalues" in err


# the rows of `verify`, in order, pinned once by `test_check_names_are_pinned`
VERIFY_ROWS = [
    "degree histogram",
    "total distance",
    "mean neighbor degree",
    "local clustering",
    "global clustering",
    "adjacency spectrum",
    "laplacian spectrum",
    "spanning trees",
    "kirchhoff closed=spectral",
    "kirchhoff vs resistance",
]

# each formula route, perturbed, fails exactly these rows at (2, 2);
# global_clustering reads c(0) as (q-1)/delta, not through vertex_clustering
ROW_MUTATIONS = [
    ("formulas", "degree_multiset", {"degree histogram"}),
    ("formulas", "total_distance", {"total distance"}),
    ("formulas", "knn_exact", {"mean neighbor degree"}),
    ("formulas", "vertex_clustering", {"local clustering"}),
    ("formulas", "global_clustering", {"global clustering"}),
    ("spectra", "adjacency_spectrum", {"adjacency spectrum"}),
    ("spectra", "laplacian_spectrum", {"laplacian spectrum"}),
    ("formulas", "spanning_trees_closed", {"spanning trees"}),
    ("spectra", "spanning_trees_spectral", {"spanning trees"}),
    ("spectra", "kirchhoff_spectral", {"kirchhoff closed=spectral"}),
    ("formulas", "kirchhoff_closed", {"kirchhoff closed=spectral", "kirchhoff vs resistance"}),
]


class TestVerify:
    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_grid_passes(self, capsys, q, g):
        code, out, _ = run(capsys, "verify", "--q", str(q), "--g", str(g))
        assert code == 0
        assert "FAIL" not in out

    def test_perturbed_formula_fails(self, capsys, monkeypatch):
        from rcg import formulas

        def wrong_total_distance(params):
            return total_distance_true(params) + 1

        total_distance_true = formulas.total_distance
        monkeypatch.setattr(formulas, "total_distance", wrong_total_distance)
        code, out, _ = run(capsys, "verify", "--q", "2", "--g", "1")
        assert code == 3
        assert failed_rows(out) == {"total distance"}
        assert out.splitlines()[-1] == f"1 of {len(VERIFY_ROWS)} checks failed"

    @pytest.mark.parametrize("module,name,failed", ROW_MUTATIONS)
    def test_every_row_bites(self, capsys, monkeypatch, module, name, failed):
        import dataclasses

        from rcg import formulas, spectra

        def perturb(value):
            if isinstance(value, list):
                return value[1:]
            if isinstance(value, spectra.SpectrumMultiset):
                shifted = tuple((v + 1, m) for v, m in value.entries)
                return dataclasses.replace(value, entries=shifted)
            if isinstance(value, formulas.FactoredCount):
                return dataclasses.replace(value, b=value.b + 1)
            return value + 1

        target = {"formulas": formulas, "spectra": spectra}[module]
        true_route = getattr(target, name)
        monkeypatch.setattr(target, name, lambda *args: perturb(true_route(*args)))
        code, out, _ = run(capsys, "verify", "--q", "2", "--g", "2")
        assert code == 3
        assert failed_rows(out) == failed
        assert out.splitlines()[-1] == f"{len(failed)} of {len(VERIFY_ROWS)} checks failed"

    @pytest.mark.parametrize("kind", ["adjacency", "laplacian"])
    def test_spectrum_rows_compare_each_eigenvalue(self, capsys, monkeypatch, kind):
        # the largest predicted eigenvalue alone, moved past the tolerance,
        # fails its spectrum's row and no other
        import dataclasses

        from rcg import spectra

        assert 1e-7 > cli.SPECTRUM_COMPARE_TOL
        name = f"{kind}_spectrum"
        true_route = getattr(spectra, name)

        def moved(params):
            spectrum = true_route(params)
            (top, mult), *rest = spectrum.entries
            return dataclasses.replace(spectrum, entries=((top + 1e-7, mult), *rest))

        monkeypatch.setattr(spectra, name, moved)
        code, out, _ = run(capsys, "verify", "--q", "2", "--g", "2")
        assert code == 3
        assert failed_rows(out) == {f"{kind} spectrum"}
        assert out.splitlines()[-1] == f"1 of {len(VERIFY_ROWS)} checks failed"

    def test_every_row_has_a_mutation(self):
        # a row that no entry of ROW_MUTATIONS fails, such as one comparing a count
        # with itself, can never print FAIL
        rows = {name for name, _ in verification_checks(RcgParams(2, 2))}
        assert rows - set().union(*(failed for _, _, failed in ROW_MUTATIONS)) == set()

    def test_kirchhoff_is_compared_exactly(self, capsys, monkeypatch):
        # a relative error of 1e-7 was within the float tolerance of 1e-6 the
        # resistance row once had; against the exact resistance sum it fails
        from rcg import formulas

        true_route = formulas.kirchhoff_closed
        scale = Fraction(10**7 + 1, 10**7)
        monkeypatch.setattr(formulas, "kirchhoff_closed", lambda params: true_route(params) * scale)
        code, out, _ = run(capsys, "verify", "--q", "5", "--g", "2")
        assert code == 3
        assert failed_rows(out) == {"kirchhoff closed=spectral", "kirchhoff vs resistance"}

    def test_table_bytes_are_pinned(self, capsys):
        code, out, _ = run(capsys, "verify", "--q", "2", "--g", "1")
        assert code == 0
        assert out == (
            "degree histogram           PASS\n"
            "total distance             PASS\n"
            "mean neighbor degree       PASS\n"
            "local clustering           PASS\n"
            "global clustering          PASS\n"
            "adjacency spectrum         PASS\n"
            "laplacian spectrum         PASS\n"
            "spanning trees             PASS\n"
            "kirchhoff closed=spectral  PASS\n"
            "kirchhoff vs resistance    PASS\n"
            "all 10 checks passed\n"
        )

    def test_output_file(self, capsys, monkeypatch, tmp_path):
        from rcg import formulas

        target = tmp_path / "verify.txt"
        argv = ["verify", "--q", "2", "--g", "1"]
        _, table, _ = run(capsys, *argv)
        assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
        assert target.read_text() == table
        true_distance = formulas.total_distance
        monkeypatch.setattr(formulas, "total_distance", lambda params: true_distance(params) + 1)
        assert run(capsys, *argv, "--output", str(target)) == (3, "", "")
        assert failed_rows(target.read_text()) == {"total distance"}
        assert target.read_text().splitlines()[-1] == f"1 of {len(VERIFY_ROWS)} checks failed"

    def test_solver_failure_exits_numerical(self, capsys, monkeypatch):
        import numpy as np

        def failing_eigvalsh(*args, **kwargs):
            raise np.linalg.LinAlgError("forced failure")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
        code, _, err = run(capsys, "verify", "--q", "2", "--g", "1")
        assert code == 4
        assert "numerical error" in err

    def test_check_names_are_pinned(self):
        # the benchmark's verify gate reads these rows, in this order
        checks = verification_checks(RcgParams(2, 1))
        assert [name for name, _ in checks] == VERIFY_ROWS
        assert all(ok for _, ok in checks)

    def test_over_oracle_budget_exits_before_work(self):
        # N = 1458 exceeds verify's vertex limit; the refusal must
        # come before construction, BFS or any eigensolver pass
        result = subprocess.run(
            [sys.executable, "-m", "rcg.cli", "verify", "--q", "2", "--g", "6"],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert result.returncode == 2
        assert "resource" in result.stderr

    def test_over_budget_names_the_verify_limit(self, capsys):
        # verify's own limit, below the oracles' vertex limit
        assert oracle.WORK_VERTICES < graphs.MATRIX_VERTEX_LIMIT
        assert run(capsys, "verify", "--q", "2", "--g", "6") == (
            2,
            "",
            "resource limit: (q=2, g=6) has 1458 vertices, verify takes at most 500\n",
        )

    def test_complete_graph_limit_is_decided_from_q(self, capsys, monkeypatch):
        # K_500 is admitted up to its build; K_501 is refused before it, so
        # no complete graph reaches the clustering or elimination work limits
        def no_build(params):
            raise ResourceLimitError(f"built q={params.q}")

        monkeypatch.setattr(graphs, "build_rcg", no_build)
        assert run(capsys, "verify", "--q", "500", "--g", "0") == (
            2, "", "resource limit: built q=500\n"
        )
        assert run(capsys, "verify", "--q", "501", "--g", "0") == (
            2, "", "resource limit: (q=501, g=0) has 501 vertices, verify takes at most 500\n"
        )


class TestRefusalsAtLargeG:
    """Each size refusal is decided from (q, g), before its count is built."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--q", "2", "--g", "9100"],
            ["verify", "--q", "2", "--g", "9100"],
            ["spectrum", "--q", "2", "--g", "14300", "--matrix", "adjacency"],
            ["generate", "--q", "2", "--g", "10000000"],
            ["generate", "--q", "2", "--g", "100000000"],
            ["verify", "--q", "2", "--g", "100000000"],
            ["spectrum", "--q", "2", "--g", "100000000", "--matrix", "laplacian"],
        ],
        ids=lambda argv: f"{argv[0]}-g{argv[4]}",
    )
    def test_child_exits_resource_at_once(self, argv):
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "rcg.cli", *argv], capture_output=True, text=True, timeout=20
        )
        assert time.perf_counter() - start < 1.0
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("resource limit:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--q", "2", "--g", "10000"],
            ["curve", "--quantity", "clustering", "--q-list", "2", "--g-max", "5000"],
        ],
        ids=["analyze", "curve"],
    )
    def test_without_str_limit_child_exits_resource_at_once(self, argv):
        # with no interpreter limit, decimal output keeps to 4300 digits all the same
        env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "0"}
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "rcg.cli", *argv],
            capture_output=True,
            text=True,
            timeout=20,
            env=env,
        )
        assert time.perf_counter() - start < 1.0
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("resource limit:")
        assert "more than 4300 digits" in result.stderr
        assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["generate", "--q", "2", "--g", "9100"],
                "(q=2, g=9100) requires 2*3^9100 vertices, budget is 1000000",
            ),
            (
                ["verify", "--q", "2", "--g", "9100"],
                "(q=2, g=9100) has 2*3^9100 vertices, verify takes at most 500",
            ),
            (
                ["spectrum", "--q", "2", "--g", "14300", "--matrix", "adjacency"],
                "spectrum of (q=2, g=14300) has up to 3*2^14300-1 distinct eigenvalues, "
                "budget is 1000000",
            ),
            (
                # g = 20, the bit length of the budget, is the last g whose count is built
                ["spectrum", "--q", "2", "--g", "20", "--matrix", "laplacian"],
                f"spectrum of (q=2, g=20) has up to {3 * 2**20 - 1} distinct "
                "eigenvalues, budget is 1000000",
            ),
            (
                ["spectrum", "--q", "2", "--g", "14000", "--matrix", "laplacian"],
                "spectrum of (q=2, g=14000) has up to 3*2^14000-1 distinct "
                "eigenvalues, budget is 1000000",
            ),
            (
                ["generate", "--q", "2", "--g", str(HUGE)],
                f"(q=2, g={HUGE}) requires 2*3^{HUGE} vertices, budget is 1000000",
            ),
            (
                ["verify", "--q", "2", "--g", str(HUGE)],
                f"(q=2, g={HUGE}) has 2*3^{HUGE} vertices, verify takes at most 500",
            ),
            (
                ["spectrum", "--q", "2", "--g", str(HUGE), "--matrix", "adjacency"],
                f"spectrum of (q=2, g={HUGE}) has up to 3*2^{HUGE}-1 distinct eigenvalues, "
                "budget is 1000000",
            ),
        ],
        ids=[
            "generate", "verify", "spectrum-formula", "spectrum-decimal", "spectrum-14000",
            "generate-10^400", "verify-10^400", "spectrum-10^400",
        ],
    )
    def test_names_the_count(self, capsys, argv, message):
        # g = 10^400 passes the largest float: no float product of g is formed
        assert run(capsys, *argv) == (2, "", f"resource limit: {message}\n")

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            (["analyze", "--q", "2", "--g", "477"], 0, ""),
            (
                ["analyze", "--q", "2", "--g", "478"],
                2,
                "structural_report of (q=2, g=478) may hold integers of more than 640 digits",
            ),
            (["curve", "--quantity", "clustering", "--q-list", "2", "--g-max", "477"], 0, ""),
            (
                ["curve", "--quantity", "clustering", "--q-list", "2", "--g-max", "478"],
                2,
                "global_clustering of (q=2, g=478) may hold integers of more than 640 digits",
            ),
            (["generate", "--q", "2", "--g", "1400"], 2, "requires 2*3^1400 vertices"),
            (
                ["generate", "--q", str(10**639), "--g", "1"],
                2,
                "g=1) requires <4246-bit integer> vertices",
            ),
        ],
        ids=[
            "analyze-477", "analyze-478", "curve-477", "curve-478", "generate-1400",
            "generate-q10^639",
        ],
    )
    def test_child_keeps_to_the_interpreter_limit(self, argv, code, message):
        # one setting moves every reader of the limit: the analyze and curve
        # refusals, and over_limit, which builds N = 10^639 (10^639 + 1) at
        # g = 1 and names it in decimal at 4300; 2*3^1400 is past the bit
        # length of the budget, so it is named by its formula at any limit
        env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640"}
        result = subprocess.run(
            [sys.executable, "-m", "rcg.cli", *argv],
            capture_output=True,
            text=True,
            timeout=20,
            env=env,
        )
        assert result.returncode == code
        assert bool(result.stdout) == (code == 0)
        assert message in result.stderr
        assert bool(result.stderr) == (code != 0)


def long_name(x):
    """How a refusal names an int past the int->str limit: by its bit length."""
    return f"<{x.bit_length()}-bit integer>"


# the twelve library calls at a q, g or vertex count x past the int->str
# limit, as (call, expected); each raised the int->str ValueError before
# refusals named such an integer by its bit length
LONG_INTEGER_CALLS = {
    # 2G+3 over 2, less t/delta with t = -1/2 and delta = 2G+1
    "knn_exact": (
        lambda x: rcg.knn_exact(RcgParams(2, x), 0),
        lambda x: Fraction(2 * x + 3, 2) - Fraction(1, 2 * (2 * x + 1)),
    ),
    # 2G neighbor links of 2G+1 neighbors
    "vertex_clustering": (
        lambda x: rcg.vertex_clustering(RcgParams(2, x), 0),
        lambda x: Fraction(1, 2 * x + 1),
    ),
    "check_digits": (
        lambda x: check_digits(RcgParams(x, 1), "average_degree"),
        "average_degree of (q={x}, g=1) may hold integers of more than {limit} digits, "
        "the int->str limit",
    ),
    "check_limits-q": (
        lambda x: check_limits(RcgParams(x, 0)),
        "(q={x}, g=0) requires {x} vertices, budget is 1000000",
    ),
    "check_limits-g": (
        lambda x: check_limits(RcgParams(2, x)),
        "(q=2, g={x}) requires 2*3^{x} vertices, budget is 1000000",
    ),
    "build_rcg": (
        lambda x: build_rcg(RcgParams(x, 0)),
        "(q={x}, g=0) requires {x} vertices, budget is 1000000",
    ),
    "laplacian_spectrum-q": (
        lambda x: laplacian_spectrum(RcgParams(x, 0)),
        "q={x} is past the largest float, 1.7976931348623157e+308",
    ),
    "laplacian_spectrum-g": (
        lambda x: laplacian_spectrum(RcgParams(2, x)),
        "spectrum of (q=2, g={x}) has up to 3*2^{x}-1 distinct eigenvalues, budget is 1000000",
    ),
    "verification_checks": (
        lambda x: verification_checks(RcgParams(x, 0)),
        "(q={x}, g=0) has {x} vertices, verify takes at most 500",
    ),
    "matrix_tree_count": (
        lambda x: oracle.matrix_tree_count(Graph(x, [], [])),
        "graph size {x} exceeds 2000",
    ),
    "resistance_sum": (
        lambda x: oracle.resistance_sum(Graph(x, [], [])),
        "graph size {x} exceeds 2000",
    ),
    "bfs_total_distance": (
        lambda x: oracle.bfs_total_distance(Graph(x, [], [])),
        "graph size {x} exceeds 2000",
    ),
    "matrix_of": (
        lambda x: rcg.matrix_of(Graph(x, [], []), "adjacency"),
        "graph size {x} exceeds 2000",
    ),
}


class TestLongIntegers:
    """No call raises the int->str ValueError for an integer past the limit."""

    @pytest.fixture(params=[4300, 640], ids=["limit-4300", "limit-640"])
    def limit(self, request):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(request.param)
        yield request.param
        sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("name", LONG_INTEGER_CALLS)
    def test_named_by_bit_length(self, limit, name):
        # 10^limit has one digit more than the limit allows
        call, expected = LONG_INTEGER_CALLS[name]
        x = 10**limit
        if callable(expected):
            assert call(x) == expected(x)
            return
        message = expected.format(x=long_name(x), limit=limit)
        with pytest.raises(ResourceLimitError) as refused:
            call(x)
        assert str(refused.value) == message

    @pytest.mark.parametrize("sign", [1, -1])
    def test_birth_keeps_its_sign(self, limit, sign):
        x = sign * 10**limit
        name = long_name(x) if sign > 0 else f"-{long_name(x)}"
        assert graphs._name(x) == name
        with pytest.raises(ValueError, match=f"^birth {re.escape(name)} out of range 0..3$"):
            rcg.knn_exact(RcgParams(2, 3), x)

    def test_decimal_up_to_the_limit(self, limit):
        x = 10**limit - 1  # as many digits as the limit allows
        assert graphs._name(x) == str(x) and graphs._name(-x) == str(-x)


EXTREME_COMMANDS = {
    "generate": ["generate"],
    "verify": ["verify"],
    "spectrum-adjacency": ["spectrum", "--matrix", "adjacency"],
    "spectrum-laplacian": ["spectrum", "--matrix", "laplacian"],
    "analyze": ["analyze"],
    "analyze-csv": ["analyze", "--csv"],
}


def extreme_argvs():
    """Every command with q or g at 2^1023, 2^1024 or 10^400, as params (argv, exit code)."""
    cases = []
    for label, value in (("2^1023", 2**1023), ("2^1024", 2**1024), ("10^400", HUGE)):
        for name, (command, *rest) in EXTREME_COMMANDS.items():
            # the q of a spectrum must be a float; a huge q leaves every count
            # of analyze at g = 0 within the digit limit
            q_ok = name.startswith("analyze") or (name.startswith("spectrum") and value < 2**1024)
            for axis, q, g, code in (("q", value, 0, 0 if q_ok else 2), ("g", 2, value, 2)):
                argv = [command, "--q", str(q), "--g", str(g), *rest]
                cases.append(pytest.param(argv, code, id=f"{name}-{axis}{label}"))
        curve = ["curve", "--quantity", "clustering"]
        cases.append(pytest.param([*curve, "--q-list", str(value), "--g-max", "0"], 0, id=f"curve-q{label}"))
        cases.append(pytest.param([*curve, "--q-list", "2", "--g-max", str(value)], 2, id=f"curve-g{label}"))
    # at g = 1 a child passes the largest float from these q on, except the
    # adjacency spectrum at 2^511, which is still finite
    for label, q in (("2^511", 2**511), ("2^512", 2**512), ("2^600", 2**600), ("10^308", 10**308)):
        for name in ("spectrum-adjacency", "spectrum-laplacian"):
            command, *rest = EXTREME_COMMANDS[name]
            code = 0 if (label, name) == ("2^511", "spectrum-adjacency") else 2
            argv = [command, "--q", str(q), "--g", "1", *rest]
            cases.append(pytest.param(argv, code, id=f"{name}-q{label}-g1"))
    return cases


def strict_json(text):
    """`text` parsed as JSON, with Infinity, -Infinity and NaN refused."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestExtremeInputs:
    """Every command, in process, at a q or g near or past the largest float."""

    @pytest.mark.parametrize("argv,code", extreme_argvs())
    def test_exits_with_a_documented_code(self, capsys, argv, code):
        result, out, err = run(capsys, *argv)
        assert result == code
        if code:
            assert (out, len(err.splitlines())) == ("", 1)
            assert err.startswith("resource limit: ")
        else:
            assert out and not err
            if argv[0] == "spectrum":
                assert all(math.isfinite(row["value"]) for row in strict_json(out))

    @pytest.mark.parametrize("q", [2**1024, HUGE], ids=["2^1024", "10^400"])
    def test_analyze_at_huge_q(self, capsys, q):
        code, out, _ = run(capsys, "analyze", "--q", str(q), "--g", "0")
        payload = json.loads(out)
        assert (code, payload["asymptotic_clustering"]) == (0, 1.0)
        assert payload["spanning_trees"] == {"factors": [[q, q - 2], [q + 1, 0]]}


class TestVertexBudget:
    # the first points past the budget of 10^6: N = 2 * 3^12 and 3 * 2^19 - 1
    # distinct eigenvalues; verify's 500-vertex limit comes first, so no verify
    # reaches the budget
    PAST = [
        (
            ["generate", "--q", "2", "--g", "12"],
            "(q=2, g=12) requires 1062882 vertices, budget is 1000000",
        ),
        (
            ["spectrum", "--q", "2", "--g", "19", "--matrix", "laplacian"],
            "spectrum of (q=2, g=19) has up to 1572863 distinct eigenvalues, budget is 1000000",
        ),
    ]

    @pytest.mark.parametrize("argv,message", PAST, ids=["generate", "spectrum"])
    def test_past_the_budget_exits_resource_at_once(self, argv, message):
        start = time.perf_counter()
        result = child(argv)
        assert time.perf_counter() - start < 1.0
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr.decode() == f"resource limit: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [argv for argv, _ in PAST] + [["verify", "--q", "2", "--g", "1"]],
        ids=["generate", "spectrum", "verify"],
    )
    def test_variable_is_ignored(self, monkeypatch, argv):
        # a CORONA_VERTEX_BUDGET in the child's environment changes no byte
        monkeypatch.delenv("CORONA_VERTEX_BUDGET", raising=False)
        expected = child(argv)
        assert expected.returncode in (0, 2)
        for raw in ("4", "abc"):
            monkeypatch.setenv("CORONA_VERTEX_BUDGET", raw)
            result = child(argv)
            assert (result.returncode, result.stdout, result.stderr) == (
                expected.returncode,
                expected.stdout,
                expected.stderr,
            ), raw

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--q", "2", "--g", "1", "--matrix", "laplacian"],
            ["verify", "--q", "2", "--g", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_small_budget_exits_resource(self, capsys, monkeypatch, argv):
        # (2, 1) has N = 6 and at most 5 distinct eigenvalues; 4 admits neither
        monkeypatch.setattr(graphs, "VERTEX_BUDGET", 4)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("resource limit:")
        assert err.endswith("budget is 4\n")

    @pytest.mark.parametrize("raw", ["abc", "", "-1"], ids=["abc", "empty", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--q", "2", "--g", "1"],
            ["curve", "--quantity", "clustering", "--q-list", "2", "--g-max", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_malformed_budget_is_ignored(self, capsys, monkeypatch, argv, raw):
        monkeypatch.delenv("CORONA_VERTEX_BUDGET", raising=False)
        expected = run(capsys, *argv)
        assert expected[0] == 0
        monkeypatch.setenv("CORONA_VERTEX_BUDGET", raw)
        assert run(capsys, *argv) == expected


class TestCurve:
    def test_clustering_plateau(self, capsys):
        code, out, _ = run(
            capsys, "curve", "--quantity", "clustering", "--q-list", "2,3", "--g-max", "6"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "q,g,value"
        values = {}
        for line in lines[1:]:
            q, g, value = line.split(",")
            values.setdefault(int(q), []).append(Fraction(value))
        for q, series in values.items():
            tail = series[1:]  # monotone beyond g = 1
            assert tail == sorted(tail, reverse=True)
            limit = asymptotic_clustering(q)
            gaps = [abs(float(v) - limit) for v in tail]
            assert gaps == sorted(gaps, reverse=True)

    def test_avg_degree_rational_format(self, capsys):
        code, out, _ = run(
            capsys, "curve", "--quantity", "avg-degree", "--q-list", "2", "--g-max", "1"
        )
        assert code == 0
        assert out.splitlines()[1:] == ["2,0,1/1", "2,1,7/3"]

    @pytest.mark.parametrize(
        "quantity,digest",
        [
            ("clustering", "91ff42fd0b178bd112f7315c7dc86190637c75464be424b58dbdbd59c7102f12"),
            ("avg-distance", "ec1e69438ba166078b7985c63d7d4cbfa626cfd304f5783d93121bfaf287cc53"),
            ("kirchhoff", "178c42e54d901ae73ea5667c295a20fb8bf26dfd4cd2b0844c089eece26e5009"),
            ("avg-degree", "1ca22a0d93835d359401cd21a1b00b8ba2f0d16f28234eae064a919f15478d6a"),
        ],
    )
    def test_bytes_are_pinned(self, capsys, quantity, digest):
        # sha256 of every row to g = 200, taken from the per-g closed forms
        argv = ["curve", "--quantity", quantity, "--q-list", "2,3,5", "--g-max", "200"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert len(out.splitlines()) == 1 + 3 * 201
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_avg_degree_bytes_are_pinned_past_200(self, capsys):
        # sha256 of every row to g = 1500, taken from the per-g closed form
        argv = ["curve", "--quantity", "avg-degree", "--q-list", "2,3", "--g-max", "1500"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert len(out.splitlines()) == 1 + 2 * 1501
        digest = "2cf6a562f13a193c597550f83ea9b0d16258a648075cd5567f8d8d49168b11a5"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "quantity,g_max",
        [
            ("clustering", 5000),
            ("kirchhoff", 5000),
            ("avg-distance", 10000),
            ("avg-degree", 20000),
        ],
    )
    def test_past_str_limit_exits_resource_at_once(self, capsys, quantity, g_max):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "curve", "--quantity", quantity, "--q-list", "2", "--g-max", str(g_max)
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "int->str limit" in err

    @pytest.mark.parametrize("quantity", sorted(CURVE_QUANTITIES))
    @pytest.mark.parametrize("q", [2, 3])
    def test_last_fitting_generation(self, capsys, str_limit, quantity, q):
        # both sides of the digit bound: the last admitted --g-max prints
        # integers within the interpreter's limit, one generation more exits
        # at once
        from rcg import formulas
        from rcg.errors import ResourceLimitError

        g = 0
        with pytest.raises(ResourceLimitError):
            while True:
                formulas.check_digits(RcgParams(q, g + 1), CURVE_QUANTITIES[quantity])
                g += 1
        argv = ["curve", "--quantity", quantity, "--q-list", str(q), "--g-max"]
        code, out, _ = run(capsys, *argv, str(g))
        assert code == 0
        assert len(out.splitlines()) == g + 2
        values = [line.split(",")[2] for line in out.splitlines()[1:]]
        assert max(len(part) for value in values for part in value.split("/")) <= str_limit
        code, out, err = run(capsys, *argv, str(g + 1))
        assert code == 2
        assert out == ""
        assert f"more than {str_limit} digits" in err

    def test_a_refusal_of_a_later_q_writes_no_row(self, capsys, str_limit):
        # at 640 digits the clustering curve of q = 2 fits to g = 477 and that
        # of q = 10 to g = 230: every q is checked before the header, so the
        # refusal of q = 10 leaves no row of q = 2 behind
        argv = ["curve", "--quantity", "clustering", "--g-max", "300", "--q-list"]
        assert run(capsys, *argv, "2")[0] == 0
        code, out, err = run(capsys, *argv, "2,10")
        assert code == 2
        assert out == ""
        assert "(q=10, g=300)" in err

    @pytest.mark.parametrize("quantity", sorted(CURVE_QUANTITIES))
    def test_one_walk_per_q(self, capsys, monkeypatch, quantity):
        # the clustering walks once per q; a closed form reads one power per row
        walks = count_walks(monkeypatch)
        argv = ["curve", "--quantity", quantity, "--q-list", "2,3", "--g-max", "50"]
        assert run(capsys, *argv)[0] == 0
        assert walks == ([(2,), (3,)] if quantity == "clustering" else [])

    def test_bad_q_list(self, capsys):
        code, out, err = run(
            capsys, "curve", "--quantity", "clustering", "--q-list", "1,x", "--g-max", "2"
        )
        assert code == 1
        assert out == ""
        assert "argument --q-list" in err

    def test_empty_q_list(self, capsys):
        code, out, err = run(
            capsys, "curve", "--quantity", "clustering", "--q-list", ",", "--g-max", "2"
        )
        assert code == 1
        assert out == ""
        assert "--q-list" in err


class TestOneWalk:
    @pytest.mark.parametrize(
        "function",
        [
            "structural_report",
            "average_degree",
            "total_distance",
            "average_distance",
            "global_clustering",
            "spanning_trees_closed",
            "kirchhoff_closed",
        ],
    )
    def test_each_call_walks_once(self, monkeypatch, function):
        # once to g where the clustering sum is read, and not at all for a closed form
        from rcg import formulas

        walks = count_walks(monkeypatch)
        getattr(formulas, function)(RcgParams(3, 7))
        assert walks == ([(3,)] if function in ("structural_report", "global_clustering") else [])


class TestImports:
    def test_public_names_are_pinned(self):
        # the library surface is what the CLI and the checks use; a name
        # added to or deleted from `rcg` or `Graph` shows up here
        names = [n for n in dir(rcg) if not n.startswith("_")]
        assert names == [
            "ConnectivityError", "CoronaGraph", "DegreeClass", "FactoredCount", "Graph",
            "NumericalError", "RcgError", "RcgParams", "ResourceLimitError",
            "SpectrumMultiset", "StructuralReport",
            "adjacency_spectrum", "asymptotic_clustering", "average_degree",
            "average_distance", "build_rcg", "child_pair", "cumulative_degree",
            "degree_multiset", "global_clustering", "kirchhoff_closed",
            "kirchhoff_spectral", "knn_approx", "knn_exact", "laplacian_spectrum",
            "lerch_phi", "matrix_of", "nonzero_product", "spanning_trees_closed",
            "spanning_trees_spectral", "structural_report", "total_distance",
            "vertex_clustering", "write_dot", "write_edgelist", "write_json",
        ]
        assert sorted(n for n in dir(Graph) if not n.startswith("_")) == [
            "adjacency_lists", "degrees", "edge_count", "u", "v", "vertex_count",
        ]
        # one way in: Graph(n, u, v)
        assert list(inspect.signature(Graph).parameters) == ["vertex_count", "u", "v"]

    def test_no_environment_read(self):
        # src/rcg reads no environment variable, none of the budget names
        # of its old reader comes back, and no function of the modules that
        # apply the vertex budget takes it as a parameter
        from rcg import cli, graphs, spectra

        needles = (
            "environ", "getenv", "CORONA_VERTEX_BUDGET", "vertex_budget",
            "DEFAULT_VERTEX_BUDGET", "FILL_LIMIT",
        )
        for path in sorted(Path(rcg.__file__).parent.glob("*.py")):
            text = path.read_text()
            for needle in needles:
                assert needle not in text, (path.name, needle)
        for module in (graphs, spectra, cli):
            for name, function in inspect.getmembers(module, inspect.isfunction):
                parameters = inspect.signature(function).parameters
                assert not {"budget", "vertex_budget"} & set(parameters), name

    @pytest.mark.parametrize(
        "code",
        [
            "import sys, rcg.cli",
            "import sys, rcg.formulas, rcg.spectra",
            "import sys, rcg.cli; rcg.cli.main(['analyze', '--q', '2', '--g', '3'])",
            "import sys, rcg.cli; rcg.cli.main(['--help'])",
            # every call of an in-process sweep of closed forms and spectra
            "import sys, rcg.formulas, rcg.spectra; from rcg.graphs import RcgParams; "
            "p = RcgParams(3, 5); rcg.formulas.structural_report(p).to_json_dict(); "
            "rcg.spectra.spanning_trees_spectral(p); rcg.spectra.kirchhoff_spectral(p); "
            "rcg.spectra.laplacian_spectrum(p); rcg.spectra.adjacency_spectrum(p)",
            "import sys, rcg.cli; rcg.cli.main("
            "['spectrum', '--q', '3', '--g', '4', '--matrix', 'laplacian'])",
            "import sys, rcg.cli; rcg.cli.main("
            "['curve', '--quantity', 'kirchhoff', '--q-list', '2,3', '--g-max', '6'])",
            # a build refused by the vertex budget stops before numpy
            pytest.param(
                "import sys, rcg\n"
                "try: rcg.build_rcg(rcg.RcgParams(9, 9))\n"
                "except rcg.ResourceLimitError: refused = True\n"
                "assert refused",
                id="build_rcg-refused",
            ),
        ],
    )
    def test_numpy_not_imported(self, code):
        # only construction and the oracles need numpy; they import it on call
        result = subprocess.run(
            [sys.executable, "-c", f"{code}; assert 'numpy' not in sys.modules"],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert result.returncode == 0, result.stderr

    def test_help_loads_no_layer(self):
        code, loaded = loaded_by(["--help"])
        assert code == 0
        assert {name for name in loaded if name.startswith("rcg.")} == {"rcg.cli", "rcg.errors"}

    @pytest.mark.parametrize(
        "argv,exit_code,unloaded",
        [
            (
                ["generate", "--q", "2", "--g", "3"],
                0,
                {"rcg.formulas", "rcg.spectra", "rcg.oracle", "scipy"},
            ),
            # each writer refuses (q, g) before it loads numpy
            *(
                (
                    ["generate", "--q", "9", "--g", "9", "--format", fmt],
                    2,
                    {"rcg.formulas", "rcg.spectra", "rcg.oracle", "numpy", "scipy"},
                )
                for fmt in ("edgelist", "dot", "json")
            ),
            (["analyze", "--q", "2", "--g", "3"], 0, {"rcg.spectra", "rcg.oracle", "numpy", "scipy"}),
            (
                ["curve", "--quantity", "avg-degree", "--q-list", "2", "--g-max", "3"],
                0,
                {"rcg.spectra", "rcg.oracle", "numpy", "scipy"},
            ),
            (
                ["spectrum", "--q", "2", "--g", "3", "--matrix", "adjacency"],
                0,
                {"rcg.oracle", "numpy", "scipy"},
            ),
            # the largest graph that verify admits, with every oracle run; import
            # scipy.linalg alone costs more than a whole verify child
            (["verify", "--q", "4", "--g", "3"], 0, {"scipy"}),
            # the oracles' size limits are checked before the other layers load
            (["verify", "--q", "2", "--g", "6"], 2, {"rcg.formulas", "rcg.spectra", "numpy", "scipy"}),
            (["verify", "--q", "2", "--g", "9100"], 2, {"rcg.formulas", "rcg.spectra", "numpy", "scipy"}),
        ],
        ids=[
            "generate",
            "generate-refused-edgelist",
            "generate-refused-dot",
            "generate-refused-json",
            "analyze",
            "curve",
            "spectrum",
            "verify-at-its-limit",
            "verify-past-oracle-limits",
            "verify-past-str-limit",
        ],
    )
    def test_command_loads_only_its_layers(self, argv, exit_code, unloaded):
        code, loaded = loaded_by(argv)
        assert code == exit_code
        assert not unloaded & loaded

    def test_verify_loads_its_layers_before_numpy(self):
        # the layers and the stdlib they import are loaded before numpy's
        # heap grows; a verify child that loads them after numpy peaks about
        # 1 MiB higher
        argv = ["-X", "importtime", "-m", "rcg.cli", "verify", "--q", "2", "--g", "1"]
        result = subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, timeout=20
        )
        assert result.returncode == 0, result.stderr
        # -X importtime writes one line per module as its import ends
        order = [
            line.rsplit("|", 1)[-1].strip()
            for line in result.stderr.splitlines()
            if line.startswith("import time:")
        ]
        numpy = next(i for i, name in enumerate(order) if name.split(".")[0] == "numpy")
        for layer in ("rcg.formulas", "rcg.spectra", "rcg.oracle"):
            assert order.index(layer) < numpy, layer

    def test_every_public_name_is_its_layers_object(self):
        for name in dir(rcg):
            obj = getattr(rcg, name)
            assert obj.__module__.startswith("rcg."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name
        namespace = {}
        exec("from rcg import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == dir(rcg)

    @pytest.mark.parametrize(
        "name", ["no_such_name", "_generations", "_clustering_walk", "vertex_budget"]
    )
    def test_unknown_name_raises_attribute_error(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(rcg, name)

    def test_reading_a_name_caches_nothing(self):
        # so `rcg.X is rcg.<layer>.X` holds after a rebinding in the layer too
        from rcg import graphs

        assert rcg.Graph is graphs.Graph and rcg.structural_report
        assert [n for n, x in vars(rcg).items() if not n.startswith("_") and not inspect.ismodule(x)] == []


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--q", "0", "--g", "1"],
            ["spectrum", "--q", "2", "--g", "-3", "--matrix", "laplacian"],
            ["verify", "--q", "2", "--g", "-1"],
            ["curve", "--quantity", "clustering", "--q-list", "2,1", "--g-max", "2"],
            ["curve", "--quantity", "clustering", "--q-list", "2", "--g-max", "-1"],
        ],
    )
    def test_params_rejected_by_rcg_params(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_option_strings_are_pinned(self):
        # a new option, or the return of a deleted one, shows up here
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            name: [opt for action in p._actions for opt in action.option_strings]
            for name, p in sub.choices.items()
        }
        common = ["-h", "--help", "--q", "--g", "--output"]
        assert options == {
            "generate": [*common, "--format"],
            "analyze": [*common, "--csv"],
            "spectrum": [*common, "--matrix"],
            "verify": common,
            "curve": ["-h", "--help", "--quantity", "--q-list", "--g-max", "--output"],
        }

    def test_matrix_choices_are_the_kinds(self):
        # cli keeps its own tuple, so that --help loads no layer
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        spectrum = sub.choices["spectrum"]
        (matrix,) = (action for action in spectrum._actions if "--matrix" in action.option_strings)
        assert matrix.choices == tuple(graphs.MATRIX_KINDS)

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--q", "2", "--g", "1"],
            ["analyze", "--q", "2", "--g", "1"],
            ["spectrum", "--q", "2", "--g", "1", "--matrix", "laplacian"],
            ["verify", "--q", "2", "--g", "1"],
            ["curve", "--quantity", "clustering", "--q-list", "2", "--g-max", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("target", ["missing/out.txt", "."], ids=["missing-dir", "dir"])
    def test_unwritable_output_exits_before_work(self, capsys, monkeypatch, tmp_path, argv, target):
        from rcg import graphs

        def no_work(*args):
            raise AssertionError("work started before --output was opened")

        monkeypatch.setattr(graphs, "build_rcg", no_work)
        monkeypatch.setattr(graphs, "_edge_chunks", no_work)
        code, out, err = run(capsys, *argv, "--output", str(tmp_path / target))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err
        assert not (tmp_path / "missing").exists()

    def test_q_too_small(self, capsys):
        code, _, err = run(capsys, "analyze", "--q", "1", "--g", "0")
        assert code == 1

    def test_negative_g(self, capsys):
        assert run(capsys, "analyze", "--q", "2", "--g", "-1")[0] == 1

    def test_missing_required(self, capsys):
        assert run(capsys, "analyze", "--q", "2")[0] == 1


def child(argv, prelude=""):
    """`python -m rcg.cli argv` in a child; with a prelude, run by runpy after it.

    stdout is block-buffered, as it is by default, so output the exit path
    fails to flush is lost.
    """
    command = ["-m", "rcg.cli"]
    if prelude:
        command = ["-c", f"{prelude}; import runpy; runpy.run_module('rcg.cli', run_name='__main__')"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, *command, *argv], capture_output=True, env=env, timeout=20)


class TestProcessEntry:
    def test_script_is_the_main_block_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["rcg"]
        module, name = target.split(":")
        assert module == "rcg.cli"
        assert getattr(cli, name) is cli.entry
        assert inspect.getsource(cli).endswith(f'\nif __name__ == "__main__":\n    {name}()\n')

    def test_child_exits_with_a_frozen_heap(self):
        # atexit hooks run before shutdown collects, and after the entry's freeze
        hook = "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))"
        result = child(["generate", "--q", "2", "--g", "1"], f"import atexit, gc, sys; {hook}")
        assert result.returncode == 0
        assert result.stderr.decode().splitlines()[-1] == "frozen True"

    def test_main_block_in_process(self, capsys, monkeypatch):
        # `python -m rcg.cli` run in this process, so that a line trace of the
        # test run sees `entry` and the `__main__` guard run
        argv = ["generate", "--q", "2", "--g", "1"]
        code, out, _ = run(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["rcg", *argv])
        # runpy warns where the module it runs as __main__ is already loaded
        monkeypatch.delitem(sys.modules, "rcg.cli")
        try:
            with pytest.raises(SystemExit) as exited:
                runpy.run_module("rcg.cli", run_name="__main__")
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert (exited.value.code, capsys.readouterr().out) == (code, out)

    def test_main_in_process_leaves_the_heap_unfrozen(self, capsys):
        frozen = gc.get_freeze_count()
        assert run(capsys, "generate", "--q", "2", "--g", "1")[0] == 0
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize(
        "argv,exit_code",
        [
            (["generate", "--q", "3", "--g", "4"], 0),
            (["analyze", "--q", "2", "--g", "5"], 0),
            (["generate", "--q", "1", "--g", "0"], 1),
            (["verify", "--q", "2", "--g", "6"], 2),
        ],
        ids=["generate", "analyze", "usage", "over-oracle-limit"],
    )
    def test_child_keeps_exit_code_and_bytes(self, capsys, argv, exit_code):
        code, out, _ = run(capsys, *argv)
        assert code == exit_code
        result = child(argv)
        assert (result.returncode, result.stdout) == (exit_code, out.encode())

    def test_child_output_file_keeps_bytes(self, capsys, tmp_path):
        argv = ["generate", "--q", "3", "--g", "4", "--format", "dot", "--output"]
        assert run(capsys, *argv, str(tmp_path / "main.dot")) == (0, "", "")
        result = child([*argv, str(tmp_path / "child.dot")])
        assert (result.returncode, result.stdout) == (0, b"")
        assert (tmp_path / "child.dot").read_bytes() == (tmp_path / "main.dot").read_bytes()

    def test_child_verification_failure_exits_verify(self, capsys, monkeypatch):
        from rcg import formulas

        argv = ["verify", "--q", "2", "--g", "1"]
        true_distance = formulas.total_distance
        monkeypatch.setattr(formulas, "total_distance", lambda params: true_distance(params) + 1)
        code, out, _ = run(capsys, *argv)
        assert code == 3
        prelude = (
            "import rcg.formulas as f; true = f.total_distance; "
            "f.total_distance = lambda params: true(params) + 1"
        )
        result = child(argv, prelude)
        assert (result.returncode, result.stdout) == (3, out.encode())
