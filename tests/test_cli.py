import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
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
from rcg.cli import CURVE_QUANTITIES, build_parser, main, verification_checks

from reference import reference_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def failed_rows(table):
    """Names of the FAIL rows of a `verify` table."""
    return {line[: -len("FAIL")].rstrip() for line in table.splitlines() if line.endswith("FAIL")}


def perturb_walk(monkeypatch, field, first=100):
    """Put `field` of every walk row from g = `first` on off by one."""
    from rcg import formulas

    walk = formulas._generations

    def perturbed(*args):
        for row in walk(*args):
            yield row._replace(**{field: getattr(row, field) + 1}) if row.g >= first else row

    monkeypatch.setattr(formulas, "_generations", perturbed)


def count_walks(monkeypatch):
    """The argument tuples of every walk started from here on."""
    from rcg import formulas

    walk, calls = formulas._generations, []

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(formulas, "_generations", counted)
    return calls


def loaded_by(argv):
    """The exit code of `rcg argv` in a child, and the rcg.* modules and numpy it loaded."""
    code = (
        "import sys, rcg.cli; code = rcg.cli.main(sys.argv[1:]); "
        "print(code, *(m for m in sys.modules if m.startswith('rcg.') or m == 'numpy'), "
        "file=sys.stderr)"
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

    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CORONA_VERTEX_BUDGET", "5")
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

    def test_one_reader_of_str_limit(self, capsys, monkeypatch):
        # the report's digits cell and the pre-check both read this helper
        from rcg import formulas

        _, out, _ = run(capsys, "analyze", "--q", "2", "--g", "7")
        assert "digits" in json.loads(out)["spanning_trees"]  # 1043 digits
        monkeypatch.setattr(formulas, "str_digit_limit", lambda: 640)
        code, out, _ = run(capsys, "analyze", "--q", "2", "--g", "7")
        assert code == 0
        assert json.loads(out)["spanning_trees"]["factors"] == [[2, 0], [3, 3**7 - 1]]
        code, out, err = run(capsys, "analyze", "--q", "2", "--g", "1000")
        assert code == 2
        assert "more than 640 digits" in err


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

    def test_over_entry_budget_exits_resource(self, capsys):
        code, _, err = run(capsys, "spectrum", "--q", "2", "--g", "19", "--matrix", "laplacian")
        assert code == 2
        assert "distinct eigenvalues" in err


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
        assert out.splitlines()[-1] == "1 of 12 checks failed"

    # each formula route, perturbed, fails exactly these rows at (2, 2);
    # global_clustering reads vertex_clustering(params, 0)
    @pytest.mark.parametrize(
        "module,name,failed",
        [
            ("formulas", "degree_multiset", {"degree histogram"}),
            ("formulas", "total_distance", {"total distance"}),
            ("formulas", "knn_exact", {"mean neighbor degree"}),
            ("formulas", "vertex_clustering", {"local clustering", "global clustering"}),
            ("formulas", "global_clustering", {"global clustering"}),
            ("spectra", "adjacency_spectrum", {"adjacency spectrum"}),
            ("spectra", "laplacian_spectrum", {"laplacian spectrum"}),
            ("formulas", "spanning_trees_closed", {"spanning trees"}),
            ("spectra", "spanning_trees_spectral", {"spanning trees"}),
            ("spectra", "kirchhoff_spectral", {"kirchhoff closed=spectral"}),
            (
                "formulas",
                "kirchhoff_closed",
                {"kirchhoff closed=spectral", "kirchhoff vs resistance"},
            ),
        ],
    )
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
        assert out.splitlines()[-1] == f"{len(failed)} of 12 checks failed"

    def test_table_bytes_are_pinned(self, capsys):
        code, out, _ = run(capsys, "verify", "--q", "2", "--g", "1")
        assert code == 0
        assert out == (
            "order                      PASS\n"
            "size                       PASS\n"
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
            "all 12 checks passed\n"
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
        assert target.read_text().splitlines()[-1] == "1 of 12 checks failed"

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
        assert [name for name, _ in checks] == [
            "order",
            "size",
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
        assert all(ok for _, ok in checks)

    def test_over_oracle_budget_exits_before_work(self):
        # N = 1458 exceeds the matrix-tree oracle's limit; the refusal must
        # come before construction, BFS or any eigensolver pass
        result = subprocess.run(
            [sys.executable, "-m", "rcg.cli", "verify", "--q", "2", "--g", "6"],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert result.returncode == 2
        assert "resource" in result.stderr


class TestVertexBudget:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--q", "2", "--g", "1", "--matrix", "laplacian"],
            ["verify", "--q", "2", "--g", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_small_budget_exits_resource(self, monkeypatch, argv):
        # (2, 1) has N = 6 and at most 5 distinct eigenvalues; 4 admits neither
        monkeypatch.setenv("CORONA_VERTEX_BUDGET", "4")
        result = subprocess.run(
            [sys.executable, "-m", "rcg.cli", *argv], capture_output=True, text=True, timeout=20
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("resource limit:")
        assert result.stderr.endswith("budget is 4\n")

    @pytest.mark.parametrize("raw", ["abc", "", "-1"], ids=["abc", "empty", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--q", "2", "--g", "1"],
            ["spectrum", "--q", "2", "--g", "0", "--matrix", "laplacian"],
            ["verify", "--q", "2", "--g", "1"],
            # past the oracles' size limits: the budget is read before them
            pytest.param(["verify", "--q", "2", "--g", "6"], id="verify-past-oracle-limits"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_malformed_budget_exits_usage(self, capsys, monkeypatch, argv, raw):
        monkeypatch.setenv("CORONA_VERTEX_BUDGET", raw)
        assert run(capsys, *argv) == (
            1,
            "",
            f"error: CORONA_VERTEX_BUDGET must be a nonnegative integer, got {raw!r}\n",
        )

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

    def test_every_quantity_has_a_digit_bound(self):
        # an unbounded name would surface as a ValueError, exit 1
        from rcg import formulas

        for quantity in CURVE_QUANTITIES.values():
            assert formulas.fits_digits(RcgParams(2, 3), quantity, 4300)

    @pytest.mark.parametrize("quantity", sorted(CURVE_QUANTITIES))
    @pytest.mark.parametrize("q", [2, 3])
    def test_last_fitting_generation(self, capsys, monkeypatch, quantity, q):
        # both sides of the digit bound: the last admitted --g-max prints
        # integers within the limit, one generation more exits at once
        from rcg import formulas

        limit, name = 640, CURVE_QUANTITIES[quantity]
        monkeypatch.setattr(formulas, "str_digit_limit", lambda: limit)
        g = 0
        while formulas.fits_digits(RcgParams(q, g + 1), name, limit):
            g += 1
        argv = ["curve", "--quantity", quantity, "--q-list", str(q), "--g-max"]
        code, out, _ = run(capsys, *argv, str(g))
        assert code == 0
        assert len(out.splitlines()) == g + 2
        values = [line.split(",")[2] for line in out.splitlines()[1:]]
        assert max(len(part) for value in values for part in value.split("/")) <= limit
        code, out, err = run(capsys, *argv, str(g + 1))
        assert code == 2
        assert out == ""
        assert f"more than {limit} digits" in err

    @pytest.mark.parametrize("quantity", ["avg-distance", "kirchhoff", "avg-degree"])
    def test_perturbed_middle_row_exits_verify(self, capsys, monkeypatch, quantity):
        fields = {"avg-distance": "distance", "kirchhoff": "kirchhoff", "avg-degree": "power"}
        perturb_walk(monkeypatch, fields[quantity])
        argv = ["curve", "--quantity", quantity, "--q-list", "2", "--g-max"]
        assert run(capsys, *argv, "99")[0] == 0
        code, out, err = run(capsys, *argv, "200")
        assert code == 3
        assert out == ""
        assert "internal inconsistency" in err

    @pytest.mark.parametrize("quantity", sorted(CURVE_QUANTITIES))
    def test_one_walk_per_q(self, capsys, monkeypatch, quantity):
        walks = count_walks(monkeypatch)
        argv = ["curve", "--quantity", quantity, "--q-list", "2,3", "--g-max", "50"]
        assert run(capsys, *argv)[0] == 0
        assert walks == [(2,), (3,)]

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
        "function,field",
        [
            ("total_distance", "distance"),
            ("kirchhoff_closed", "kirchhoff"),
            ("spanning_trees_closed", "trees"),
            ("average_degree", "power"),
        ],
    )
    def test_perturbed_middle_row_raises(self, monkeypatch, function, field):
        from rcg import InternalInconsistencyError, formulas

        perturb_walk(monkeypatch, field)
        getattr(formulas, function)(RcgParams(2, 99))
        with pytest.raises(InternalInconsistencyError):
            getattr(formulas, function)(RcgParams(2, 150))

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
        from rcg import formulas

        walks = count_walks(monkeypatch)
        getattr(formulas, function)(RcgParams(3, 7))
        assert len(walks) == 1


class TestImports:
    def test_public_names_are_pinned(self):
        # the library surface is what the CLI and the checks use; a name
        # added to or deleted from `rcg` or `Graph` shows up here
        names = [n for n in dir(rcg) if not n.startswith("_")]
        assert names == [
            "ConnectivityError", "CoronaGraph", "DegreeClass", "FactoredCount", "Graph",
            "InternalInconsistencyError", "NumericalError", "RcgError", "RcgParams",
            "ResourceLimitError", "SpectrumMultiset", "StructuralReport",
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

    def test_one_reader_of_the_budget(self):
        # graphs.vertex_budget alone reads the variable, and no function of
        # the modules that apply the budget takes it as a parameter
        from rcg import cli, graphs, spectra

        sources = sorted(Path(rcg.__file__).parent.glob("*.py"))
        reader = inspect.getsource(graphs.vertex_budget)
        for needle in ("os.environ", '"CORONA_VERTEX_BUDGET"'):
            assert [path.name for path in sources if needle in path.read_text()] == ["graphs.py"]
            assert needle in reader
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
            (["generate", "--q", "2", "--g", "3"], 0, {"rcg.formulas", "rcg.spectra", "rcg.oracle"}),
            (["analyze", "--q", "2", "--g", "3"], 0, {"rcg.spectra", "rcg.oracle", "numpy"}),
            (
                ["curve", "--quantity", "avg-degree", "--q-list", "2", "--g-max", "3"],
                0,
                {"rcg.spectra", "rcg.oracle", "numpy"},
            ),
            (
                ["spectrum", "--q", "2", "--g", "3", "--matrix", "adjacency"],
                0,
                {"rcg.oracle", "numpy"},
            ),
            # the oracles' size limits are checked before the other layers load
            (["verify", "--q", "2", "--g", "6"], 2, {"rcg.formulas", "rcg.spectra", "numpy"}),
        ],
        ids=["generate", "analyze", "curve", "spectrum", "verify-past-oracle-limits"],
    )
    def test_command_loads_only_its_layers(self, argv, exit_code, unloaded):
        code, loaded = loaded_by(argv)
        assert code == exit_code
        assert not unloaded & loaded

    def test_every_public_name_is_its_layers_object(self):
        for name in dir(rcg):
            obj = getattr(rcg, name)
            assert obj.__module__.startswith("rcg."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name
        namespace = {}
        exec("from rcg import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == dir(rcg)

    @pytest.mark.parametrize("name", ["no_such_name", "_generations", "vertex_budget"])
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

    def test_internal_inconsistency_exits_verify(self, capsys, monkeypatch):
        from rcg import formulas

        def drop_one_class(params):
            return degree_multiset_true(params)[1:]

        degree_multiset_true = formulas.degree_multiset
        monkeypatch.setattr(formulas, "degree_multiset", drop_one_class)
        code, out, err = run(capsys, "analyze", "--q", "2", "--g", "2")
        assert code == 3
        assert out == ""
        assert err.startswith("internal inconsistency:")
        assert "degree sum != 2M" in err

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
