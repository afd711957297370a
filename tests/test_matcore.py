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

    @pytest.mark.parametrize("entries, message", [
        (np.zeros((0, 0)), "matrix order must be at least 1"),
        ([[1.0, np.nan], [np.nan, 1.0]], "matrix entries must be finite"),
    ], ids=["empty", "nan"])
    def test_rejects_empty_and_nan(self, entries, message):
        with pytest.raises(InvalidInputError, match=message):
            SymmetricMatrix(entries)

    def test_entries_read_only(self):
        S = SymmetricMatrix(np.eye(2))
        with pytest.raises(ValueError):
            S.a[0, 0] = 5.0

    def test_tolerance_validation(self):
        with pytest.raises(InvalidInputError):
            Tolerances(eps_psd=0.0)
        with pytest.raises(InvalidInputError):
            Tolerances(eps_rank=1.5)

    def test_tolerances_keyword_only(self):
        # a positional value would land silently in whichever field is first;
        # the symmetry slack is the constant matcore.EPS_SYM
        with pytest.raises(TypeError):
            Tolerances(1e-9)
        with pytest.raises(TypeError):
            Tolerances(eps_sym=1e-6)

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


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestLapackHelpers:
    # each helper against the numpy.linalg function of the same name, on
    # the float64 shapes the package passes; a numpy that renames or
    # changes a gufunc fails here
    @pytest.mark.parametrize("p", range(1, 9))
    def test_solve_stacks(self, p):
        rng = np.random.default_rng(p)
        K = rng.standard_normal((5, p, p))
        c = rng.standard_normal((5, p, 1))
        assert same_bits(matcore.solve(K, c), np.linalg.solve(K, c))
        # strided views of a stack: every other block, transposed blocks
        Ks, cs = K[::2], c[::2]
        assert not Ks.flags.c_contiguous and not cs.flags.c_contiguous
        assert same_bits(matcore.solve(Ks, cs), np.linalg.solve(Ks, cs))
        Kt = K.transpose(0, 2, 1)
        assert same_bits(matcore.solve(Kt, c), np.linalg.solve(Kt, c))
        B, T = rng.standard_normal((p, p)), rng.standard_normal((p, 2 * p + 1))
        assert same_bits(matcore.solve(B, T), np.linalg.solve(B, T))
        assert same_bits(matcore.solve(B.T, T[:, ::2]), np.linalg.solve(B.T, T[:, ::2]))

    @pytest.mark.parametrize("d", range(1, 9))
    def test_svd(self, d):
        Y = np.random.default_rng(d).standard_normal((d, d))
        for got, want in zip(matcore.svd(Y), np.linalg.svd(Y), strict=True):
            assert same_bits(got, want)

    def test_singular_raises_without_warning(self, recwarn):
        K = np.ones((3, 2, 2))
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            matcore.solve(K, np.ones((3, 2, 1)))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_error_state_is_restored(self):
        before = np.geterr(), np.geterrcall()
        with pytest.raises(np.linalg.LinAlgError):
            matcore.solve(np.zeros((2, 2)), np.ones((2, 1)))
        matcore.svd(np.eye(3))
        assert (np.geterr(), np.geterrcall()) == before

    def test_missing_gufunc_binds_the_public_function(self, monkeypatch):
        monkeypatch.setattr(matcore, "PUBLIC_FALLBACKS", [])

        def svd(a):
            raise AssertionError("the gufunc path of a missing gufunc ran")

        assert matcore._lapack_helper("svd_renamed")(svd) is np.linalg.svd
        assert matcore.PUBLIC_FALLBACKS == ["svd"]

    @pytest.mark.skipif(
        np.lib.NumpyVersion(np.__version__) < "2.4.0",
        reason="gufunc names checked on numpy 2.4, the version measured",
    )
    def test_no_helper_falls_back_to_the_public_function(self):
        assert matcore.PUBLIC_FALLBACKS == []
