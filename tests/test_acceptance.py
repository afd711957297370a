"""Acceptance suite: one test per criterion, each printing a PASS line.

Desk scale throughout; the whole module is expected to finish within the
overall suite budget of about a minute.
"""

import math
import time

import numpy as np

from cprank import (
    AnalysisConfig,
    ComputationFailureError,
    Tolerances,
    analyze,
    boundary_witness,
    classify_dn,
    classify_graph,
    cycle_necessary,
    e_cone_threshold,
    extreme_rays,
    few_rays_factor,
    householder_align,
    in_e_cone,
    is_nnq_gram,
    kaykobad_factor,
    make_certificate,
    random_orthogonal,
    sr_factor,
    verify_certificate,
)
from cprank.cli import main
from cprank.fixtures import (
    EXAMPLE_IDS,
    GRAM_NONNEG,
    ROTATED_NONNEG,
    example_factor,
    example_matrix,
    random_dn,
)
from cprank.pipeline import matrix_to_text
from conftest import (
    cone_columns,
    connecting_orthogonal,
    dn_rank2_instance,
    hull_extreme_indices,
    nnq_invariance_check,
)
from test_graphcond import random_diag_dominant

ROUNDED_TOL = Tolerances(eps_psd=1e-4, eps_rank=1e-4, eps_nonneg=1e-6, eps_residual=1e-4)
ROUNDED_CFG = AnalysisConfig(tol=ROUNDED_TOL)


def _stamp(label, t0):
    print(f"CRITERION {label}: PASS  [{time.perf_counter() - t0:.2f} s]")


def _step(report, name):
    return next(s for s in report.steps if s.name == name)


def test_c01_rowsum_certificate_on_4x4_example():
    t0 = time.perf_counter()
    A = example_matrix("EX2_7")
    report = analyze(A)
    assert report.verdict == "CP_RANK_EQ_RANK"
    cert = report.certificate
    assert cert.rows == 3 and cert.method_tag == "rowsum"
    assert verify_certificate(A, cert, Tolerances(eps_residual=1e-8)).passed
    assert cert.residual <= 1e-8
    assert _step(report, "rowsum").details["row_sums"].tolist() == [220, 156, 172, 201]
    _stamp("1 (4x4 row-sum certificate)", t0)


def test_c02_rowsum_certificate_on_5x5_example():
    t0 = time.perf_counter()
    A = example_matrix("EX2_8")
    report = analyze(A)
    assert report.verdict == "CP_RANK_EQ_RANK"
    assert report.order == 5
    assert report.certificate.rows == 3
    assert report.certificate.residual <= 1e-8
    _stamp("2 (5x5 row-sum certificate)", t0)


def test_c03_nnq_witness_on_rounded_example():
    t0 = time.perf_counter()
    A = example_matrix("EX3_9")
    B = sr_factor(A, ROUNDED_TOL)
    model = B.T @ B

    scan = is_nnq_gram(model, ROUNDED_TOL)
    assert scan.found and scan.witness.indices == (0, 1, 2)  # columns (1,2,3)

    # the coordinate matrix is factor-invariant: the factor route and the
    # Gram route agree tightly on mutually consistent data
    factor_route = np.linalg.solve(B[:, [0, 1, 2]], B)
    assert np.abs(scan.witness.P - factor_route).max() <= 1e-8

    # against the published values the match is loose: the source matrix is
    # printed to 4 decimals, and its two published coordinate matrices
    # already differ from each other by 0.167 in one entry
    assert np.abs(factor_route - example_factor("EX3_9_P_FACTOR")).max() <= 0.15
    gram_scan = is_nnq_gram(A, ROUNDED_TOL)
    assert gram_scan.found and gram_scan.witness.indices == (0, 1, 2)
    assert np.abs(gram_scan.witness.P - example_factor("EX3_9_P_GRAM")).max() <= 0.15

    cert = few_rays_factor(A, extreme_rays(A, ROUNDED_TOL), ROUNDED_TOL)
    assert cert.rows == 3
    # the certificate reproduces the rank-3 part of the input essentially
    # exactly; the 2.7e-5 gap to the printed entries is their rounding floor
    assert np.linalg.norm(cert.C.T @ cert.C - model) <= 1e-5 * np.linalg.norm(model)
    assert cert.residual <= 1e-4
    _stamp("3 (nnq witness and factorization, rounded 5x5)", t0)


def test_c04_cycle_matrix_bracket():
    t0 = time.perf_counter()
    A = example_matrix("EX1_2")
    verdict = classify_dn(A)
    assert verdict.is_dn and verdict.rank == 3 and A.n == 4
    check = cycle_necessary(A)
    assert check.status == "PASSES" and check.cprk_lower_bound == 4
    assert check.off_diag_sum == 8.0 and check.diag_sum == 8.0
    # the analysis reaches the same bracket through the triangle-free criterion
    report = analyze(A)
    assert (report.cp_rank_lower, report.cp_rank_upper) == (4, 4)
    assert report.verdict == "NOT_IN_CP_N_R"
    _stamp("4 (4-cycle bracket [4,4] and negative verdict)", t0)


def test_c05_triangle_free_exact_cp_rank():
    t0 = time.perf_counter()
    A = example_matrix("EX3_3")
    assert abs(np.linalg.det(A.a) - 4.0) <= 1e-9
    report = analyze(A)
    tri = _step(report, "triangle_free")
    assert tri.outcome == "CP" and tri.details["cp_rank"] == 6
    # no factor comes with the criterion's cp-rank, so it is a lower bound only
    assert (report.cp_rank_lower, report.cp_rank_upper) == (6, None)
    assert report.verdict == "NOT_IN_CP_N_R"  # cp-rank 6 exceeds the rank 5
    _stamp("5 (triangle-free exact cp-rank 6)", t0)


def test_c06_published_factor_and_non_nnq():
    t0 = time.perf_counter()
    A = example_matrix("EX3_7")
    cert = make_certificate(A, example_factor("EX3_7_C"), "published")
    report = verify_certificate(A, cert)
    assert report.passed and report.residual == 0.0 and report.rows == 3
    B = sr_factor(A)
    assert is_nnq_gram(B.T @ B).status == "NONE"
    assert nnq_invariance_check(A)
    _stamp("6 (published factor verifies; matrix is not nnq)", t0)


def test_c07_e_cone_membership_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for r in range(2, 9):
        count = 10_000
        axis = np.ones(r) / math.sqrt(r)
        cos = rng.uniform(e_cone_threshold(r), 1.0, size=count)
        Y = rng.standard_normal((count, r))
        Y -= np.outer(Y @ axis, axis)
        norms = np.linalg.norm(Y, axis=1)
        norms[norms == 0] = 1.0
        Y /= norms[:, None]
        Z = cos[:, None] * axis[None, :] + np.sqrt(1.0 - cos**2)[:, None] * Y
        assert Z.min() >= -1e-12
        for z in Z[:200]:
            assert in_e_cone(z)
        w = boundary_witness(r, 0.99 * e_cone_threshold(r))
        assert w.min() < 0
    _stamp("7 (cone membership, 1e4 samples per dimension)", t0)


def test_c08_householder_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    for r in range(2, 9):
        for _ in range(1000):
            x = rng.standard_normal(r)
            if np.linalg.norm(x) < 1e-9:
                continue
            plan = householder_align(x)
            assert np.abs(plan.Q.T @ plan.Q - np.eye(r)).max() <= 1e-12
            target = np.linalg.norm(x) / math.sqrt(r) * np.ones(r)
            assert np.linalg.norm(plan.Q @ x - target) <= 1e-10 * np.linalg.norm(x)
    _stamp("8 (Householder alignment, 1e3 per dimension)", t0)


def test_c09_connecting_orthogonal_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(1000):
        r = int(rng.integers(1, 6))
        n = int(rng.integers(r, 11))
        B = rng.standard_normal((r, n))
        Q0 = random_orthogonal(r, rng)
        C = Q0 @ B
        Q = connecting_orthogonal(B, C)
        assert np.abs(Q.T @ Q - np.eye(r)).max() <= 1e-10
        assert np.linalg.norm(B - Q @ C) <= 1e-10 * np.linalg.norm(B)
    _stamp("9 (factor-connecting orthogonal, 1e3 pairs)", t0)


def test_c10_rank2_totality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    tol = Tolerances(eps_residual=1e-9)
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        A = dn_rank2_instance(rng, n)
        cert = few_rays_factor(A, extreme_rays(A, tol), tol)
        assert cert.rows == 2
        assert cert.residual <= 1e-9
        assert verify_certificate(A, cert, tol).passed
    _stamp("10 (rank-2 few-rays factorization, 1e3 instances)", t0)


def test_c11_small_rotation_realizability():
    t0 = time.perf_counter()
    failures = 0
    for r in (3, 4):
        for style in (GRAM_NONNEG, ROTATED_NONNEG):
            for i in range(500):
                A = random_dn(r, r, seed=10_000 * r + i, style=style)
                report = extreme_rays(A)
                assert report.m == r  # full rank: every column is a ray
                try:
                    cert = few_rays_factor(A, report, seed=i)
                except ComputationFailureError:
                    failures += 1
                    continue
                assert cert.rows == r
                assert verify_certificate(A, cert).passed
    assert failures == 0
    _stamp("11 (full-rank rotation, 1e3 instances per rank, 0 failures)", t0)


def test_c12_extreme_ray_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    for _ in range(200):
        n = int(rng.integers(4, 9))
        G = rng.uniform(0.05, 1.0, size=(3, n))
        A = G.T @ G
        report = extreme_rays(A)
        B = sr_factor(A)
        assert list(report.extreme_indices) == hull_extreme_indices(B)
        assert cone_columns(B)[0] == report
    _stamp("12 (extreme rays match the cross-section hull oracle, 200 instances)", t0)


def test_c13_kaykobad_row_count_and_residual():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        A, slack = random_diag_dominant(rng, n)
        cert = kaykobad_factor(A)
        assert cert is not None
        expected = len(classify_graph(A).edges) + int(np.count_nonzero(slack > 0))
        assert cert.rows == expected
        assert cert.residual <= 1e-12
    _stamp("13 (diagonal dominance construction, 200 instances)", t0)


def test_c14_byte_identical_reports(tmp_path, capsys):
    t0 = time.perf_counter()
    for fid in EXAMPLE_IDS:
        path = tmp_path / f"{fid}.txt"
        path.write_text(matrix_to_text(example_matrix(fid)))
        argv = ["analyze", "--input", str(path), "--report", "json", "--seed", "42"]
        assert main(argv) == 0 or fid == "EX3_9"  # the rounded fixture is honest NOT_DN
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second and first.strip()
    _stamp("14 (byte-identical JSON reports)", t0)
