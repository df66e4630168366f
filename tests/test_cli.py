import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from rcg import RcgParams, asymptotic_clustering, build_rcg, parse_edgelist
from rcg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_edgelist_k2(self, capsys):
        code, out, _ = run(capsys, "generate", "--q", "2", "--g", "0")
        assert code == 0
        assert out.splitlines()[:5] == ["# q 2", "# g 0", "# N 2", "# M 1", "0 1"]

    @pytest.mark.parametrize("q,g", [(2, 2), (3, 1)])
    def test_round_trip(self, capsys, q, g):
        code, out, _ = run(capsys, "generate", "--q", str(q), "--g", str(g))
        assert code == 0
        assert parse_edgelist(out) == build_rcg(RcgParams(q, g))

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

    def test_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "generate", "--q", "9", "--g", "9")
        assert code == 2
        assert "resource" in err

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
        assert parse_edgelist(target.read_text()) == build_rcg(RcgParams(2, 1))


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


class TestVerify:
    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_grid_passes(self, capsys, q, g):
        code, out, _ = run(capsys, "verify", "--q", str(q), "--g", str(g))
        assert code == 0
        assert "FAIL" not in out

    def test_perturbed_formula_fails(self, capsys, monkeypatch):
        from rcg import cli, formulas

        def wrong_total_distance(params):
            return total_distance_true(params) + 1

        total_distance_true = formulas.total_distance
        monkeypatch.setattr(cli.formulas, "total_distance", wrong_total_distance)
        code, out, _ = run(capsys, "verify", "--q", "2", "--g", "1")
        assert code == 3
        assert "total distance        FAIL" in out or "FAIL" in out

    def test_solver_failure_exits_numerical(self, capsys, monkeypatch):
        import numpy as np

        def failing_eigvalsh(*args, **kwargs):
            raise np.linalg.LinAlgError("forced failure")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
        code, _, err = run(capsys, "verify", "--q", "2", "--g", "1")
        assert code == 4
        assert "numerical error" in err

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

    def test_bad_q_list(self, capsys):
        code, _, err = run(
            capsys, "curve", "--quantity", "clustering", "--q-list", "1,x", "--g-max", "2"
        )
        assert code == 1


class TestImports:
    @pytest.mark.parametrize(
        "code",
        [
            "import sys, rcg.cli",
            "import sys, rcg.cli; rcg.cli.main(['analyze', '--q', '2', '--g', '3'])",
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


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_q_too_small(self, capsys):
        code, _, err = run(capsys, "analyze", "--q", "1", "--g", "0")
        assert code == 1

    def test_negative_g(self, capsys):
        assert run(capsys, "analyze", "--q", "2", "--g", "-1")[0] == 1

    def test_missing_required(self, capsys):
        assert run(capsys, "analyze", "--q", "2")[0] == 1
