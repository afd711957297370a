import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cprank import (
    DEFAULT_TOL,
    InvalidInputError,
    SymmetricMatrix,
    Tolerances,
    classify_dn,
    comparison_matrix,
    psd_rank,
    as_symmetric,
    sr_factor,
)
from cprank import matcore, srfactor
from cprank.fixtures import example_matrix
from conftest import random_symmetric


class TestSymmetricMatrix:
    def test_symmetrizes_small_asymmetry(self):
        S = SymmetricMatrix([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
        assert S.a[0, 1] == S.a[1, 0]

    def test_scale_is_largest_entry_magnitude(self):
        assert SymmetricMatrix([[1.0, -3.0], [-3.0, 2.0]]).scale == 3.0

    def test_rejects_large_asymmetry(self):
        with pytest.raises(InvalidInputError):
            SymmetricMatrix([[1.0, 2.0], [0.5, 3.0]])

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            SymmetricMatrix(np.ones((2, 3)))

    def test_entries_read_only(self):
        S = SymmetricMatrix(np.eye(2))
        with pytest.raises(ValueError):
            S.a[0, 0] = 5.0

    def test_tolerance_validation(self):
        with pytest.raises(InvalidInputError):
            Tolerances(eps_psd=0.0)
        with pytest.raises(InvalidInputError):
            Tolerances(eps_rank=1.5)

    def test_pattern_kept_per_threshold(self):
        S = SymmetricMatrix([[4.0, 1e-6, -2.0], [1e-6, 0.0, 0.0], [-2.0, 0.0, 1.0]])
        P = S.pattern(1e-9)
        assert P.tolist() == [[False, True, True], [True, False, False], [True, False, False]]
        assert S.pattern(1e-9) is P
        with pytest.raises(ValueError):
            P[0, 0] = True
        # threshold 1e-6 * scale 4 drops the 1e-6 entry
        assert S.pattern(1e-6).tolist() == [[False, False, True], [False, False, False],
                                            [True, False, False]]
        assert S.pattern(1e-9) is P


class TestEigen:
    def test_identity(self):
        eig = as_symmetric(np.eye(3)).eigen
        assert np.allclose(eig.eigenvalues, [1, 1, 1])

    def test_cycle_matrix_spectrum(self):
        # circulant 2I + P + P^3: eigenvalues 2 + 2cos(pi k / 2), k = 0..3
        expected = sorted((2.0 + 2.0 * np.cos(np.pi * k / 2.0) for k in range(4)), reverse=True)
        eig = as_symmetric(example_matrix("EX1_2")).eigen
        assert np.allclose(eig.eigenvalues, expected, atol=1e-12)

    def test_diagonal(self):
        eig = as_symmetric(np.diag([100.0, 1.0])).eigen
        assert np.allclose(eig.eigenvalues, [100.0, 1.0])

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        A = random_symmetric(rng, 7)
        e1, e2 = as_symmetric(A).eigen, as_symmetric(A).eigen
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)

    def test_decomposed_once(self, monkeypatch):
        S = SymmetricMatrix(example_matrix("EX2_7"))
        calls = []
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or original(a))
        eig = S.eigen
        psd_rank(S)
        classify_dn(S)
        sr_factor(S)
        assert S.eigen is eig
        assert len(calls) == 1

    def test_invariants_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            A = random_symmetric(rng, n)
            eig = as_symmetric(A).eigen
            V, w = eig.eigenvectors, eig.eigenvalues
            assert np.abs(V.T @ V - np.eye(n)).max() <= 1e-12
            recon = V @ np.diag(w) @ V.T
            assert np.linalg.norm(recon - A) <= 1e-10 * max(np.linalg.norm(A), 1e-300)
            assert np.all(np.diff(w) <= 1e-12)


class TestPsdRank:
    def test_cycle_matrix(self):
        assert psd_rank(example_matrix("EX1_2")) == (True, 3)

    def test_all_ones(self):
        assert psd_rank(np.ones((3, 3))) == (True, 1)

    def test_indefinite(self):
        assert psd_rank(np.array([[1.0, -2.0], [-2.0, 1.0]])) == (False, 2)

    def test_kept_per_tolerance_pair(self, monkeypatch):
        # a SymmetricMatrix reduces its spectrum once per (eps_psd, eps_rank)
        # pair and builds its rank factor once per (eps_psd, eps_rank,
        # eps_nonneg); an ndarray is never kept
        reductions, factors = [], []
        reduce, factor = matcore._psd_rank, srfactor._sr_factor
        monkeypatch.setattr(matcore, "_psd_rank", lambda *a: reductions.append(1) or reduce(*a))
        monkeypatch.setattr(srfactor, "_sr_factor", lambda *a: factors.append(1) or factor(*a))
        S = example_matrix("EX3_9")
        loose = Tolerances(eps_psd=1e-4, eps_rank=1e-4, eps_nonneg=1e-6)
        assert psd_rank(S) == (False, 5)
        assert psd_rank(S, loose) == (True, 3)
        assert classify_dn(S, Tolerances(eps_psd=1e-4, eps_rank=1e-4)).rank == 3
        B = sr_factor(S, loose)
        same = Tolerances(eps_psd=1e-4, eps_rank=1e-4, eps_nonneg=1e-6, eps_residual=1e-3)
        assert sr_factor(S, same) is B
        assert B.shape[0] == 3
        assert len(reductions) == 2 and len(factors) == 1
        assert psd_rank(S.a) == (False, 5) and psd_rank(S.a) == (False, 5)
        assert len(reductions) == 4


class TestClassifyDn:
    def test_rowsum_example_is_dn_rank3(self):
        v = classify_dn(example_matrix("EX2_7"))
        assert v.is_dn and v.rank == 3

    def test_negative_entry(self):
        assert classify_dn(np.array([[1.0, -1.0], [-1.0, 1.0]])).status == "NOT_NONNEGATIVE"

    def test_not_psd(self):
        assert classify_dn(np.array([[0.0, 1.0], [1.0, 0.0]])).status == "NOT_PSD"

    def test_principal_submatrices_stay_dn(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            r = int(rng.integers(1, n + 1))
            G = rng.uniform(0.0, 1.0, size=(r, n))
            A = G.T @ G
            v = classify_dn(A)
            assert v.is_dn
            keep = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            sub = classify_dn(A[np.ix_(keep, keep)])
            assert sub.is_dn and sub.rank <= v.rank


class TestComparisonMatrix:
    def test_diagonal_fixed_point(self):
        D = np.diag([3.0, 5.0])
        assert np.array_equal(comparison_matrix(D).a, D)

    def test_small_example(self):
        M = comparison_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.array_equal(M.a, np.array([[2.0, -1.0], [-1.0, 2.0]]))

    def test_k23_comparison_is_psd(self):
        M = comparison_matrix(example_matrix("EX3_3"))
        assert psd_rank(M).is_psd

    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidInputError):
            comparison_matrix(np.array([[1.0, -0.5], [-0.5, 1.0]]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0))
    def test_involution_on_offdiagonal_signs(self, n, seed):
        rng = np.random.default_rng(seed)
        A = np.abs(random_symmetric(rng, n))
        M = comparison_matrix(A)
        back = 2.0 * np.diag(np.diag(M.a)) - M.a
        assert np.allclose(back, A, atol=1e-14)


class TestZeroRows:
    def test_zero_rows(self):
        A = np.zeros((3, 3))
        A[0, 0] = 2.0
        assert list(as_symmetric(A).zero_rows(DEFAULT_TOL.eps_nonneg)) == [1, 2]

    def test_row_with_small_diagonal_and_larger_entries_is_kept(self):
        # PSD, with a_11 below eps_nonneg * scale but a_01 far above it
        g = np.array([1.0, 1e-5, 0.0])
        assert list(as_symmetric(np.outer(g, g)).zero_rows(DEFAULT_TOL.eps_nonneg)) == [2]
