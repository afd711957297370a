import numpy as np
import pytest

from cprank import (
    CpCertificate,
    InvalidInputError,
    PreconditionError,
    SymmetricMatrix,
    Tolerances,
    make_certificate,
    psd_rank,
    random_orthogonal,
    sr_factor,
    verify_certificate,
)
from cprank.fixtures import example_factor, example_matrix
from conftest import connecting_orthogonal


class TestSrFactor:
    def test_identity(self):
        B = sr_factor(np.eye(2))
        assert B.shape == (2, 2)
        assert np.allclose(B.T @ B, np.eye(2), atol=1e-14)

    def test_all_ones_rank1(self):
        B = sr_factor(np.ones((3, 3)))
        assert B.shape == (1, 3)
        assert np.allclose(B, np.ones((1, 3)), atol=1e-12)  # sign convention

    def test_non_nnq_example(self):
        A = example_matrix("EX3_7")
        B = sr_factor(A)
        assert B.shape == (3, 4)
        assert np.linalg.norm(B.T @ B - A.a) <= 1e-12 * np.linalg.norm(A.a)

    def test_rejects_indefinite(self):
        with pytest.raises(PreconditionError):
            sr_factor(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_roundtrip_random_nonneg_grams(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            r = int(rng.integers(1, 5))
            n = int(rng.integers(r, 9))
            G = rng.uniform(0.0, 1.0, size=(r, n))
            A = G.T @ G
            B = sr_factor(A)
            assert B.shape == (np.linalg.matrix_rank(G, tol=1e-9), n)
            assert np.linalg.norm(B.T @ B - A) <= 1e-10 * np.linalg.norm(A)

    @pytest.mark.parametrize("fid", ["EX1_2", "EX2_7", "EX3_7", "EX3_3"])
    def test_read_only_c_ordered_array(self, fid):
        # the factor is kept per matrix and shared, so it must not be
        # writable; the extreme-ray screen sums over its C-ordered columns
        A = example_matrix(fid)
        B = sr_factor(A)
        assert type(B) is np.ndarray and B.dtype == float
        assert B.shape == (psd_rank(A).rank, A.n)
        assert B.flags.c_contiguous and not B.flags.writeable
        with pytest.raises(ValueError):
            B[0, 0] = 1.0
        assert np.linalg.norm(B.T @ B - A.a) <= 1e-12 * np.linalg.norm(A.a)
        assert sr_factor(A) is B

    @pytest.mark.parametrize("pos", [0, 2, 4])
    def test_zero_row_has_an_exact_zero_column(self, pos):
        A = example_matrix("EX2_7").a
        padded = np.insert(np.insert(A, pos, 0.0, axis=0), pos, 0.0, axis=1)
        B = sr_factor(padded)
        assert B.shape == (3, 5)
        assert np.all(B[:, pos] == 0.0)
        assert np.linalg.norm(B.T @ B - padded) <= 1e-12 * np.linalg.norm(A)

    def test_kept_per_zero_row_threshold(self):
        # row 2 is the Gram vector of row 0 times 1e-7, so its largest
        # entry sits between the zero-row thresholds of eps_nonneg 1e-9
        # and 1e-6: only the looser tolerance zeroes its column
        A = example_matrix("EX2_7").a
        t = 1e-7
        padded = np.insert(np.insert(A, 2, t * A[0], axis=0), 2, 0.0, axis=1)
        padded[:, 2] = padded[2]
        padded[2, 2] = t * t * A[0, 0]
        S = SymmetricMatrix(padded)
        strict = sr_factor(S)
        loose = sr_factor(S, Tolerances(eps_nonneg=1e-6))
        assert strict.shape == loose.shape == (3, 5)
        assert np.all(strict[:, 2] != 0.0)
        assert np.all(loose[:, 2] == 0.0)
        assert sr_factor(S) is strict

class TestConnectingOrthogonal:
    def test_same_factor_gives_identity(self):
        B = sr_factor(example_matrix("EX2_7"))
        Q = connecting_orthogonal(B, B)
        assert np.abs(Q - np.eye(B.shape[0])).max() <= 1e-10

    def test_recovers_planted_rotation(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            r = int(rng.integers(1, 5))
            n = int(rng.integers(r, 9))
            B = rng.standard_normal((r, n))
            Q0 = random_orthogonal(r, rng)
            C = Q0 @ B
            Q = connecting_orthogonal(B, C)
            assert np.linalg.norm(Q - Q0.T) <= 1e-10
            assert np.linalg.norm(B - Q @ C) <= 1e-10 * np.linalg.norm(B)

    def test_published_factor_pair(self):
        # both factors are printed to 4 decimals, so their Gram matrices
        # agree only to about 1e-4; the connecting matrix is orthogonal to
        # the same accuracy
        B = example_factor("EX3_7_B")
        C = example_factor("EX3_7_C")
        loose = Tolerances(eps_residual=1e-3)
        Q = connecting_orthogonal(B, C, loose)
        assert np.abs(Q.T @ Q - np.eye(3)).max() <= 4e-4
        assert np.linalg.norm(B - Q @ C) <= 4e-4 * np.linalg.norm(B)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            connecting_orthogonal(np.ones((2, 3)), np.ones((3, 3)))

    def test_gram_mismatch(self):
        with pytest.raises(InvalidInputError):
            connecting_orthogonal(np.eye(3), 2.0 * np.eye(3))


class TestCertificates:
    def test_all_ones_single_row(self):
        cert = make_certificate(np.ones((3, 3)), np.ones((1, 3)), "manual")
        report = verify_certificate(np.ones((3, 3)), cert)
        assert report.passed and report.residual == 0.0 and report.rows == 1

    def test_published_nonneg_factor_verifies_exactly(self):
        A = example_matrix("EX3_7")
        cert = make_certificate(A, example_factor("EX3_7_C"), "published")
        report = verify_certificate(A, cert)
        assert report.passed and report.residual == 0.0 and report.rows == 3

    def test_negative_entry_fails(self):
        cert = make_certificate(np.eye(2), np.array([[1.0, 0.0], [0.0, -1.0]]), "bad")
        report = verify_certificate(np.eye(2), cert)
        assert not report.passed
        assert report.min_entry == -1.0

    def test_clamping_records_preclamp_state(self):
        A = np.eye(2)
        C = np.array([[1.0, -5e-10], [0.0, 1.0]])
        cert = make_certificate(A, C, "clamp")
        assert cert.min_entry == -5e-10
        assert cert.C.min() == 0.0
        assert verify_certificate(A, cert).passed

    def test_too_few_rows_fails(self):
        cert = make_certificate(np.eye(3), np.zeros((1, 3)), "short")
        assert not verify_certificate(np.eye(3), cert).passed

    @pytest.mark.parametrize("C", [np.ones(3), np.ones((1, 1, 3))], ids=["1-D", "3-D"])
    def test_factor_that_is_not_2d_rejected(self, C):
        # a 1-D factor passed and then made verify_certificate raise
        # IndexError on its column count
        with pytest.raises(InvalidInputError, match="must be 2-D"):
            CpCertificate(C=C, residual=0.0, min_entry=1.0, method_tag="manual")


class TestPInvariance:
    def test_coordinate_matrix_is_factor_independent(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            r = int(rng.integers(1, 5))
            n = int(rng.integers(r, 8))
            G = rng.standard_normal((r, n))
            A = G.T @ G
            B = sr_factor(A)
            sigma = None
            import itertools

            for cand in itertools.combinations(range(n), r):
                sub = B[:, list(cand)]
                if abs(np.linalg.det(sub)) > 1e-6:
                    sigma = list(cand)
                    break
            if sigma is None:
                continue
            left = np.linalg.solve(B[:, sigma], B)
            right = np.linalg.solve(A[np.ix_(sigma, sigma)], A[sigma, :])
            scale = max(1.0, np.abs(right).max())
            assert np.abs(left - right).max() <= 1e-8 * scale
