import json

import numpy as np
import pytest

from cprank.cli import main
from cprank.fixtures import example_matrix
from cprank.pipeline import matrix_to_text


def write_fixture(tmp_path, fid, fmt="dense"):
    path = tmp_path / f"{fid}.txt"
    path.write_text(matrix_to_text(example_matrix(fid), fmt))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_fixture_roundtrip(self, capsys):
        code, out, _ = run(capsys, ["gen", "--fixture", "EX2_7"])
        assert code == 0
        tokens = out.split()
        assert tokens[0] == "4"
        values = np.array([float(t) for t in tokens[1:]]).reshape(4, 4)
        assert np.array_equal(values, example_matrix("EX2_7").a)

    def test_random(self, capsys):
        code, out, _ = run(capsys, ["gen", "--random", "GRAM_NONNEG", "--n", "5",
                                    "--rank", "2", "--seed", "7"])
        assert code == 0
        assert out.split()[0] == "5"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, ["gen", "--fixture", "EX1_2", "--format", "csv"])
        assert code == 0
        assert len(out.strip().splitlines()) == 4


class TestAnalyze:
    def test_definitive_exit_zero(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "EX2_7")
        code, out, _ = run(capsys, ["analyze", "--input", path, "--report", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "CP_RANK_EQ_RANK"
        assert doc["seed"] == 0

    def test_negative_verdict_exit_zero(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "EX1_2")
        code, out, _ = run(capsys, ["analyze", "--input", path, "--report", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "NOT_IN_CP_N_R"
        assert doc["cp_rank_lower"] == 4 and doc["cp_rank_upper"] == 4

    def test_undecided_exit_two(self, tmp_path, capsys):
        A = example_matrix("EX3_3").a.copy()
        A.flags.writeable = True
        A[2, 3] = A[3, 2] = 0.01
        path = tmp_path / "und.txt"
        rows = "\n".join(" ".join(format(v, ".17g") for v in row) for row in A)
        path.write_text(f"5\n{rows}\n")
        code, out, _ = run(capsys, ["analyze", "--input", str(path), "--report", "json"])
        assert code == 2
        assert json.loads(out)["verdict"] == "UNDECIDED"

    def test_missing_file_exit_one(self, capsys):
        code, _, err = run(capsys, ["analyze", "--input", "/nonexistent/m.txt"])
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("flag", ["--seed", "--restarts"])
    def test_negative_seed_or_restarts_exit_one(self, tmp_path, capsys, flag):
        path = write_fixture(tmp_path, "EX2_7")
        code, out, err = run(capsys, ["analyze", "--input", path, "--heuristic", flag, "-1"])
        assert code == 1 and out == ""
        assert err == f"error: {flag[2:]} must be nonnegative, got -1\n"

    def test_text_report_default(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "EX2_7")
        code, out, _ = run(capsys, ["analyze", "--input", path])
        assert code == 0
        assert "verdict: CP_RANK_EQ_RANK" in out

    def test_tolerance_flags(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "EX3_9")
        code, out, _ = run(capsys, ["analyze", "--input", path, "--report", "json",
                                    "--tol-psd", "1e-3"])
        # PSD passes at the loose slack but the rank keeps its default
        # threshold, so the rounding noise counts toward the rank and the
        # run ends inconclusive (exit code 2)
        assert code == 2
        doc = json.loads(out)
        assert doc["dn"] == "DN" and doc["rank"] == 5
        assert doc["verdict"] == "UNDECIDED"

    def test_rank_tolerance_flag(self, tmp_path, capsys):
        # the README's loosened tolerances, all four from the command line:
        # the rounding noise no longer counts toward the rank
        path = write_fixture(tmp_path, "EX3_9")
        code, out, _ = run(capsys, ["analyze", "--input", path, "--report", "json",
                                    "--tol-psd", "1e-4", "--tol-rank", "1e-4",
                                    "--tol-nonneg", "1e-6", "--tol-residual", "1e-4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["dn"] == "DN" and doc["rank"] == 3
        assert doc["verdict"] == "CP_RANK_EQ_RANK"
        assert doc["certificate"]["rows"] == 3


class TestOtherCommands:
    def test_factor(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "EX2_8")
        code, out, _ = run(capsys, ["factor", "--input", path, "--report", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"]["rows"] == 3
        assert doc["certificate"]["method"] == "rowsum"

    def test_factor_without_certificate_exits_two(self, tmp_path, capsys):
        A = example_matrix("EX3_3").a.copy()
        A.flags.writeable = True
        A[2, 3] = A[3, 2] = 0.01
        path = tmp_path / "und.txt"
        rows = "\n".join(" ".join(format(v, ".17g") for v in row) for row in A)
        path.write_text(f"5\n{rows}\n")
        code, _, _ = run(capsys, ["factor", "--input", str(path)])
        assert code == 2

    def test_nnq_none(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "EX3_7")
        code, out, _ = run(capsys, ["nnq", "--input", path, "--report", "json"])
        assert code == 0
        assert json.loads(out)["status"] == "NONE"

    def test_nnq_found(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "EX2_7")
        code, out, _ = run(capsys, ["nnq", "--input", path])
        assert code == 0

    def test_rays(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "EX1_2")
        code, out, _ = run(capsys, ["rays", "--input", path, "--report", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["m"] == 4 and doc["extreme_indices"] == [1, 2, 3, 4]

    GRAPH_DOCS = {
        "EX1_2": {
            "n": 4, "edge_count": 4, "edges": [[1, 2], [1, 4], [2, 3], [3, 4]],
            "is_cycle": True, "is_triangle_free": True, "is_tree": False,
            "is_connected": True, "dn": "DN",
            "cycle_check": {"status": "PASSES", "cprk_lower_bound": 4,
                            "off_diag_sum": 8, "diag_sum": 8},
            "triangle_free_criterion": {"status": "CP", "cp_rank": 4},
            "kaykobad_rows": 4,
        },
        "EX3_3": {
            "n": 5, "edge_count": 6,
            "edges": [[1, 3], [1, 4], [1, 5], [2, 3], [2, 4], [2, 5]],
            "is_cycle": False, "is_triangle_free": True, "is_tree": False,
            "is_connected": True, "dn": "DN",
            "cycle_check": {"status": "NOT_APPLICABLE", "cprk_lower_bound": None,
                            "off_diag_sum": 14, "diag_sum": 15},
            "triangle_free_criterion": {"status": "CP", "cp_rank": 6},
            "kaykobad_rows": None,
        },
    }

    def test_graph(self, tmp_path, capsys):
        # the whole document, in key order and with edges in row-major order
        for fid, expected in self.GRAPH_DOCS.items():
            path = write_fixture(tmp_path, fid)
            code, out, _ = run(capsys, ["graph", "--input", path, "--report", "json"])
            assert code == 0
            doc = json.loads(out)
            assert doc == expected and list(doc) == list(expected)

    def test_csv_input(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(matrix_to_text(example_matrix("EX2_7"), "csv"))
        code, out, _ = run(capsys, ["analyze", "--input", str(path), "--format", "csv",
                                    "--report", "json"])
        assert code == 0
        assert json.loads(out)["verdict"] == "CP_RANK_EQ_RANK"
