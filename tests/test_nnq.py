import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cprank import (
    AnalysisConfig,
    InvalidInputError,
    Tolerances,
    analyze,
    decide_rank3_three_rays,
    extreme_rays,
    few_rays_factor,
    is_nnq_gram,
    sr_factor,
    verify_certificate,
)
from cprank.fixtures import (
    EXAMPLE_IDS,
    GRAM_NONNEG,
    RANDOM_STYLES,
    example_factor,
    example_matrix,
    random_dn,
)
from cprank.cones import ConeReport
from cprank.nnq import IN_CP_N3, NONE, NOT_APPLICABLE, nnq_from_rays
from conftest import nnq_invariance_check, nnq_scan, nnq_scan_gram

# the printed source matrix carries 4-decimal rounding, so its smallest
# eigenvalues are only zero to about 1e-4 of the largest one
ROUNDED_TOL = Tolerances(eps_psd=1e-4, eps_rank=1e-4, eps_nonneg=1e-6, eps_residual=1e-4)


def rank3_model(A, tol):
    """Rank-3 spectral reconstruction of a numerically noisy input."""
    B = sr_factor(A, tol)
    return B.T @ B, B


class TestFactorRoute:
    """A factor ``B`` is nnq exactly when its Gram matrix is, and the
    Gram witness's indices give the factor's coordinate matrix."""

    def test_identity(self):
        res = is_nnq_gram(np.eye(3))
        assert res.found and res.witness.indices == (0, 1, 2)
        assert np.allclose(res.witness.P, np.eye(3))

    def test_published_factor_coordinates(self):
        B = example_factor("EX3_9_B")
        res = is_nnq_gram(B.T @ B, ROUNDED_TOL)
        assert res.found and res.witness.indices == (0, 1, 2)
        P = np.linalg.solve(B[:, list(res.witness.indices)], B)
        # the factor and its coordinate matrix are both printed to 4
        # decimals, and the basis solve amplifies that rounding
        assert np.abs(P - example_factor("EX3_9_P_FACTOR")).max() <= 0.01

    def test_non_nnq_example(self):
        B = sr_factor(example_matrix("EX3_7"))
        assert is_nnq_gram(B.T @ B).status == NONE

    def test_lexicographic_first_and_deterministic(self):
        B = np.hstack([np.eye(3), np.eye(3)])  # many qualifying bases
        r1 = is_nnq_gram(B.T @ B)
        r2 = is_nnq_gram(B.T @ B)
        assert r1.witness.indices == r2.witness.indices == (0, 1, 2)


class TestIsNnqGram:
    def test_rounded_example(self):
        res = is_nnq_gram(example_matrix("EX3_9"), ROUNDED_TOL)
        assert res.found and res.witness.indices == (0, 1, 2)
        printed = example_factor("EX3_9_P_GRAM")
        assert np.abs(res.witness.P - printed).max() <= 0.15

    def test_non_nnq_example(self):
        assert is_nnq_gram(example_matrix("EX3_7")).status == NONE

    def test_diagonal(self):
        res = is_nnq_gram(np.diag([3.0, 5.0]))
        assert res.found and res.witness.indices == (0, 1)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_near_zero_row_is_zero(self, seed):
        # row 2 is within eps_nonneg * scale of zero, with small negative
        # entries: its coordinates count as exactly 0, as its column in the
        # rank factor does, instead of failing the nonnegativity check
        A = random_dn(6, 2, seed=seed, style=GRAM_NONNEG).a
        s = np.abs(A).max()
        padded = np.insert(np.insert(A, 2, -5e-10 * s, axis=0), 2, -5e-10 * s, axis=1)
        padded[2, 2] = 1e-12 * s
        base, res = is_nnq_gram(A), is_nnq_gram(padded)
        assert base.found and res.found
        assert res.witness.indices == tuple(i + (i >= 2) for i in base.witness.indices)
        assert np.all(res.witness.P[:, 2] == 0.0)

    def test_agrees_with_factor_route(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            r = int(rng.integers(1, 5))
            n = int(rng.integers(r, 8))
            G = rng.uniform(0.0, 1.0, size=(r, n))
            A = G.T @ G
            gram_res = is_nnq_gram(A)
            B = sr_factor(A)
            factor_res = is_nnq_gram(B.T @ B)
            assert gram_res.status == factor_res.status
            if gram_res.found:
                assert gram_res.witness.indices == factor_res.witness.indices


class TestNnqFromRays:
    @pytest.mark.parametrize("scale", [1e-140, 1.0, 1e150])
    def test_determinant_outside_the_float_range(self, scale):
        # invertibility is read from the log-determinant, so a basis whose
        # determinant under- or overflows is still found, with detval None;
        # inside the range detval is numpy.linalg.det's
        A = np.diag([3.0, 5.0, 7.0]) * scale
        res = nnq_from_rays(A, ConeReport((0, 1, 2)), 3)
        assert res.found and res.witness.indices == (0, 1, 2)
        assert res.witness.detval == (np.linalg.det(A) if scale == 1.0 else None)
        assert np.abs(res.witness.P - np.eye(3)).max() <= 1e-15

    def test_singular_basis(self):
        assert nnq_from_rays(np.ones((2, 2)), ConeReport((0, 1)), 2).status == NONE

    def test_ray_count_other_than_the_rank(self):
        assert nnq_from_rays(np.eye(3), ConeReport((0, 1)), 3).status == NONE


def assert_same_as_oracle(result, oracle):
    assert result.status == oracle.status
    if oracle.found:
        assert result.witness.indices == oracle.witness.indices
        assert result.witness.detval == oracle.witness.detval


class TestRaysMatchScanOracle:
    """Reading nnq off the extreme rays gives exactly what the exhaustive
    C(n, r) subset scan gives: status, witness indices and determinant."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(RANDOM_STYLES),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_dn(self, style, r, extra, seed):
        A = random_dn(r + extra, r, seed=seed, style=style)
        assert_same_as_oracle(is_nnq_gram(A), nnq_scan_gram(A))
        B = sr_factor(A)
        factor_oracle, _ = nnq_scan(B, B.shape[0], gram=False)
        factor_route = is_nnq_gram(B.T @ B)
        assert factor_route.status == factor_oracle.status
        if factor_oracle.found:
            assert factor_route.witness.indices == factor_oracle.witness.indices

    @pytest.mark.parametrize("fid", EXAMPLE_IDS)
    def test_fixtures_and_cascade_step(self, fid):
        cfg = AnalysisConfig(tol=ROUNDED_TOL) if fid == "EX3_9" else AnalysisConfig()
        A = example_matrix(fid)
        oracle = nnq_scan_gram(A, cfg.tol)
        assert_same_as_oracle(is_nnq_gram(A, cfg.tol), oracle)
        # the analysis runs no nnq step; the check reads the rays it reports
        report = analyze(A, cfg)
        rays = next(s for s in report.steps if s.name == "extreme_rays")
        reported = ConeReport(tuple(i - 1 for i in rays.details["extreme_indices"]))
        assert_same_as_oracle(nnq_from_rays(A, reported, report.rank, cfg.tol), oracle)


class TestPInvarianceQuantified:
    def test_every_invertible_subset_agrees_across_factors(self):
        from cprank import random_orthogonal

        rng = np.random.default_rng(30)
        for _ in range(200):
            r = int(rng.integers(1, 5))
            n = int(rng.integers(r, 9))
            G = rng.standard_normal((r, n))
            A = G.T @ G
            B1 = sr_factor(A)
            B2 = random_orthogonal(r, rng) @ B1
            for sigma in itertools.combinations(range(n), r):
                sub = B1[:, list(sigma)]
                if abs(np.linalg.det(sub)) < 1e-6:
                    continue
                P1 = np.linalg.solve(sub, B1)
                P2 = np.linalg.solve(B2[:, list(sigma)], B2)
                scale = max(1.0, np.abs(P1).max())
                assert np.abs(P1 - P2).max() <= 1e-8 * scale


class TestNnqFactor:
    """An nnq instance of rank r has exactly r extreme rays, so the
    few-rays factorization of its extreme-ray report certifies it."""

    def test_rounded_example_certificate(self):
        A = example_matrix("EX3_9")
        assert is_nnq_gram(A, ROUNDED_TOL).found
        cert = few_rays_factor(A, extreme_rays(A, ROUNDED_TOL), ROUNDED_TOL)
        assert cert.rows == 3
        # against the rank-3 model the factorization is essentially exact;
        # against the rounded input it is limited by the truncation floor
        model, _ = rank3_model(A, ROUNDED_TOL)
        assert np.linalg.norm(cert.C.T @ cert.C - model) <= 1e-6 * np.linalg.norm(model)
        assert cert.residual <= 1e-4
        assert verify_certificate(A, cert, ROUNDED_TOL).passed

    def test_diagonal(self):
        A = np.diag([1.0, 4.0, 9.0])
        assert is_nnq_gram(A).found
        cert = few_rays_factor(A, extreme_rays(A))
        rows = sorted(cert.C.tolist())
        assert np.allclose(rows, sorted(np.diag([1.0, 2.0, 3.0]).tolist()), atol=1e-9)

    def test_constructed_nnq_instance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            N = rng.uniform(0.1, 1.0, size=(3, 3))
            P = np.hstack([np.eye(3), rng.uniform(0.0, 1.0, size=(3, 4))])
            A = P.T @ (N.T @ N) @ P
            assert is_nnq_gram(A).found
            cert = few_rays_factor(A, extreme_rays(A), seed=7)
            assert cert.rows == 3
            assert verify_certificate(A, cert).passed


class TestInvarianceCheck:
    def test_rounded_example(self):
        assert nnq_invariance_check(example_matrix("EX3_9"), ROUNDED_TOL)

    def test_non_nnq_example(self):
        assert nnq_invariance_check(example_matrix("EX3_7"))

    def test_identity(self):
        assert nnq_invariance_check(np.eye(4))

    def test_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            r = int(rng.integers(1, 5))
            n = int(rng.integers(r, 8))
            G = rng.uniform(0.0, 1.0, size=(r, n))
            assert nnq_invariance_check(G.T @ G, seed=int(rng.integers(1 << 31)))


class TestRank3RayDecision:
    def test_rounded_example_is_member(self):
        A, _ = rank3_model(example_matrix("EX3_9"), ROUNDED_TOL)
        decision = decide_rank3_three_rays(A)
        assert decision.status == IN_CP_N3
        assert decision.m == 3
        assert decision.certificate is not None
        assert verify_certificate(A, decision.certificate).passed

    def test_non_nnq_example_not_applicable(self):
        decision = decide_rank3_three_rays(example_matrix("EX3_7"))
        assert decision.status == NOT_APPLICABLE
        assert decision.m == 4  # four extreme rays break the hypothesis

    def test_rowsum_example_not_applicable(self):
        decision = decide_rank3_three_rays(example_matrix("EX2_7"))
        assert decision.status == NOT_APPLICABLE
        assert decision.m == 4
        if decision.certificate is not None:
            assert verify_certificate(example_matrix("EX2_7"), decision.certificate).passed

    def test_wrong_rank_not_applicable(self):
        assert decide_rank3_three_rays(np.eye(4)).status == NOT_APPLICABLE

    @pytest.mark.parametrize("restarts, seed", [(200, -1), (-1, 0)])
    def test_negative_seed_or_restarts_rejected(self, restarts, seed):
        # the early return on a matrix of the wrong rank took a bad budget
        # without a word
        with pytest.raises(InvalidInputError, match="must be nonnegative"):
            decide_rank3_three_rays(np.eye(4), seed=seed, restarts=restarts)
