import hashlib
import json

import numpy as np
import pytest

from cprank import as_symmetric
from cprank.cli import main
from cprank.fixtures import GRAM_NONNEG, example_matrix, random_dn
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

    def test_negative_seed_is_an_error_line(self, capsys):
        # numpy's ValueError escaped as a traceback
        code, out, err = run(capsys, ["gen", "--random", "GRAM_NONNEG", "--seed", "-1"])
        assert code == 1
        assert out == ""
        assert err == "error: seed must be nonnegative, got -1\n"

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

    def test_entries_below_the_lower_limit_exit_one(self, tmp_path, capsys):
        # the residual's squares underflowed: the report read an infinite
        # residual and a NaN minimum entry, which is not JSON
        path = tmp_path / "tiny.txt"
        path.write_text("3\n" + " ".join(["1e-200"] * 9) + "\n")
        code, out, err = run(capsys, ["analyze", "--input", str(path), "--report", "json"])
        assert code == 1 and out == ""
        assert "must be at least" in err

    @pytest.mark.parametrize("flag", ["--seed", "--restarts"])
    def test_negative_seed_or_restarts_exit_one(self, tmp_path, capsys, flag):
        path = write_fixture(tmp_path, "EX2_7")
        code, out, err = run(capsys, ["analyze", "--input", path, "--heuristic", flag, "-1"])
        assert code == 1 and out == ""
        assert err == f"error: {flag[2:]} must be nonnegative, got -1\n"

    @pytest.mark.parametrize("command", ["analyze", "factor"])
    def test_search_flags_set_the_rotation_searches(self, tmp_path, capsys, command):
        path = write_fixture(tmp_path, "EX2_7")
        argv = [command, "--input", path, "--seed", "3", "--restarts", "5", "--heuristic"]
        code, out, err = run(capsys, argv)
        assert code == 0 and out and err == ""

    @pytest.mark.parametrize("command", ["nnq", "rays", "graph"])
    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--restarts", "1"], ["--heuristic"]])
    def test_search_flags_are_usage_errors_elsewhere(self, tmp_path, capsys, command, flag):
        # these subcommands run no rotation search, so the flags would be ignored
        path = write_fixture(tmp_path, "EX2_7")
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", path, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

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
        # EX3_9's rounded entries need the loose tolerances; its first
        # three columns are the basis
        path = write_fixture(tmp_path, "EX3_9")
        loose = ["--tol-psd", "1e-4", "--tol-rank", "1e-4", "--tol-nonneg", "1e-6",
                 "--tol-residual", "1e-4"]
        code, out, _ = run(capsys, ["nnq", "--input", path, "--report", "json", *loose])
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "FOUND" and doc["indices"] == [1, 2, 3]
        assert doc["det"] == pytest.approx(2.593e-4, rel=1e-3)
        assert np.allclose(np.array(doc["P"])[:, :3], np.eye(3), atol=1e-12)
        code, out, _ = run(capsys, ["nnq", "--input", path, *loose])
        assert code == 0
        assert out == "FOUND basis columns (1,2,3), det 0.000259309\n"

    def test_rays(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "EX1_2")
        code, out, _ = run(capsys, ["rays", "--input", path, "--report", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["m"] == 4 and doc["extreme_indices"] == [1, 2, 3, 4]

    def test_rays_text(self, tmp_path, capsys):
        for fid, expected in [
            ("EX1_2", "4 extreme rays at columns (1,2,3,4); reconstruction residual 0.000e+00\n"),
            ("EX3_3", "5 extreme rays at columns (1,2,3,4,5); reconstruction residual 0.000e+00\n"),
        ]:
            code, out, _ = run(capsys, ["rays", "--input", write_fixture(tmp_path, fid)])
            assert code == 0
            assert out == expected

    # SHA-256 of ``rays --report json``: the report fits W and its residual
    # whenever they are read, whatever the number of rays
    RAYS_DIGESTS = {
        "EX1_2": "6eda45efb9bfa3147c2b9fd51b845e9d5aa633cfdb151420d90462ce88dbb364",
        "EX2_7": "6eda45efb9bfa3147c2b9fd51b845e9d5aa633cfdb151420d90462ce88dbb364",
        "EX2_8": "4fe591dc313f3ce1133b94fb01d063e0ea216044f342b4944552f51330aec98d",
        "EX3_3": "4fe591dc313f3ce1133b94fb01d063e0ea216044f342b4944552f51330aec98d",
        "EX3_7": "6eda45efb9bfa3147c2b9fd51b845e9d5aa633cfdb151420d90462ce88dbb364",
        "EX3_9": "7c6cb59ea2eeb071061a304c7efd2417d09f51bd4d7c939baffe8448b42f3155",
        # six rays, six columns fitted off them
        "GRAM_NONNEG-n12-r3-s4": "6dceadae97af79d02435d107b82a93303057494fc6a29191b2628570e6d7bb21",
        # rays at columns 1-2, a duplicate at 3, a zero row at 4, columns 5-6 fitted
        "GRAM-dup-zero": "8274df58f0964b4ad304148a0264ca9882c97ae04907ee4788f49ca558b3c3fe",
    }

    @pytest.mark.parametrize("cid", sorted(RAYS_DIGESTS))
    def test_rays_json_bytes_unchanged(self, tmp_path, capsys, cid):
        if cid.startswith("EX"):
            path = write_fixture(tmp_path, cid)
        else:
            if cid == "GRAM-dup-zero":
                B = np.array([[1, 0, 2, 0, 1, 3], [0, 1, 0, 0, 1, 1]], dtype=float)
                A = as_symmetric(B.T @ B)
            else:
                A = random_dn(12, 3, seed=4, style=GRAM_NONNEG)
            path = tmp_path / "A.txt"
            path.write_text(matrix_to_text(A))
        loose = ["--tol-psd", "1e-4", "--tol-rank", "1e-4", "--tol-nonneg", "1e-6",
                 "--tol-residual", "1e-4"] if cid == "EX3_9" else []
        code, out, _ = run(capsys, ["rays", "--input", str(path), "--report", "json", *loose])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.RAYS_DIGESTS[cid]

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

    def test_graph_text(self, tmp_path, capsys):
        # one ``key: value`` line per document key, values as Python prints them
        code, out, _ = run(capsys, ["graph", "--input", write_fixture(tmp_path, "EX1_2")])
        assert code == 0
        assert out == (
            "n: 4\n"
            "edge_count: 4\n"
            "edges: [[1, 2], [1, 4], [2, 3], [3, 4]]\n"
            "is_cycle: True\n"
            "is_triangle_free: True\n"
            "is_tree: False\n"
            "is_connected: True\n"
            "dn: DN\n"
            "cycle_check: {'status': 'PASSES', 'cprk_lower_bound': 4, 'off_diag_sum': 8.0, "
            "'diag_sum': 8.0}\n"
            "triangle_free_criterion: {'status': 'CP', 'cp_rank': 4}\n"
            "kaykobad_rows: 4\n"
        )

    def test_csv_input(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(matrix_to_text(example_matrix("EX2_7"), "csv"))
        code, out, _ = run(capsys, ["analyze", "--input", str(path), "--format", "csv",
                                    "--report", "json"])
        assert code == 0
        assert json.loads(out)["verdict"] == "CP_RANK_EQ_RANK"
