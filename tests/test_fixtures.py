import math

import numpy as np
import pytest

from cprank import (
    InvalidInputError,
    classify_dn,
    extreme_rays,
    few_rays_factor,
    psd_rank,
    soules_basis,
    soules_cp,
    verify_certificate,
)
from cprank.fixtures import (
    EXAMPLE_IDS,
    GRAM_NONNEG,
    ROTATED_NONNEG,
    SOULES,
    example_factor,
    example_matrix,
    random_dn,
)
from cprank.pipeline import matrix_to_text, read_matrix

TINY = np.finfo(float).tiny


class TestExampleMatrices:
    def test_ids_present(self):
        assert EXAMPLE_IDS == ("EX1_2", "EX2_7", "EX2_8", "EX3_3", "EX3_7", "EX3_9")

    def test_cycle_matrix_trace(self):
        assert np.trace(example_matrix("EX1_2").a) == 8.0

    def test_k23_determinant(self):
        assert abs(np.linalg.det(example_matrix("EX3_3").a) - 4.0) <= 1e-9

    def test_rounded_matrix_corner(self):
        assert example_matrix("EX3_9").a[0, 0] == 1.2295

    def test_unknown_id(self):
        with pytest.raises(InvalidInputError):
            example_matrix("EX9_9")

    def test_published_factor_reconstructs(self):
        C = example_factor("EX3_7_C")
        assert np.array_equal(C.T @ C, example_matrix("EX3_7").a)

    def test_file_format_roundtrip(self, tmp_path):
        for fid in EXAMPLE_IDS:
            S = example_matrix(fid)
            for fmt in ("dense", "csv"):
                path = tmp_path / f"{fid}.{fmt}"
                path.write_text(matrix_to_text(S, fmt))
                back = read_matrix(str(path), fmt)
                assert np.array_equal(back.a, S.a)


def unguarded_soules_basis(w):
    """The Soules basis of positive weights built without any floating-point
    check, infinite and NaN entries included."""
    with np.errstate(all="ignore"):
        unit = w / np.linalg.norm(w)
        n = w.size
        S = np.zeros((n, n))
        S[:, 0] = unit
        for k in range(2, n + 1):
            p = n - k + 1
            head, full = np.linalg.norm(unit[:p]), np.linalg.norm(unit[: p + 1])
            S[:p, k - 1] = unit[:p] * unit[p] / (head * full)
            S[p, k - 1] = -head / full
    return S


class TestSoulesBasis:
    def test_two_dim_forced_form(self):
        S = soules_basis([1.0, 1.0]).S
        inv = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(S), inv)
        assert np.allclose(S[:, 0], [inv, inv])
        assert S[0, 1] * S[1, 1] < 0

    def test_orthogonal_with_positive_first_column(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            basis = soules_basis(rng.uniform(0.1, 3.0, size=n))
            assert np.abs(basis.S.T @ basis.S - np.eye(n)).max() <= 1e-12
            assert basis.S[:, 0].min() > 0

    def test_decreasing_diagonal_stays_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            basis = soules_basis(rng.uniform(0.1, 3.0, size=n))
            d = np.sort(rng.uniform(0.0, 5.0, size=n))[::-1]
            M = (basis.S * d[None, :]) @ basis.S.T
            assert M.min() >= -1e-12

    def test_identity_diagonal(self):
        basis = soules_basis([2.0, 1.0, 1.0])
        M = basis.S @ basis.S.T
        assert np.allclose(M, np.eye(3), atol=1e-12)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(InvalidInputError):
            soules_basis([1.0, 0.0])

    @pytest.mark.parametrize("w", [[], [np.inf, 1.0], [np.nan, 1.0]])
    def test_rejects_empty_or_non_finite_weights(self, w):
        # an IndexError, a RuntimeWarning and a NaN basis before
        with pytest.raises(InvalidInputError, match="finite nonzero norm"):
            soules_basis(w)

    @pytest.mark.parametrize("w", [[1e-200, 1.0], [1e200, 1e200, 1e-200], [1e-170, 1e-170, 1.0]])
    def test_norms_out_of_range_raise_without_warning(self, recwarn, w):
        # before: an infinite entry after a division by a prefix norm that
        # underflowed to 0, an overflow warning before the InvalidInputError,
        # and a ZeroDivisionError after two warnings
        with pytest.raises(InvalidInputError, match="too wide a range"):
            soules_basis(w)
        assert recwarn.list == []

    @pytest.mark.parametrize("w", [[1e-160, 1e-160, 1.0], [3e-158, 1.0]])
    def test_subnormal_prefix_square_raises(self, recwarn, w):
        # before: a finite basis with max|S^T S - I| of 1.3e-4 and 1.3e-10
        with pytest.raises(InvalidInputError, match="too wide a range"):
            soules_basis(w)
        assert recwarn.list == []

    def test_every_other_basis_is_built_as_without_the_guard(self):
        # the guard only turns an infinite or NaN basis, or one with a
        # prefix norm below sqrt(tiny), into an error: the bench pools draw
        # their SOULES weights from U(0.2, 2), and every other basis keeps
        # its bits
        rng = np.random.default_rng(4)
        built = 0
        for k in range(3000):
            n = int(rng.integers(1, 13))
            w = rng.uniform(0.2, 2.0, n) if k % 2 else 10.0 ** rng.uniform(-170.0, 150.0, n)
            expected = unguarded_soules_basis(w)
            with np.errstate(all="ignore"):
                unit = w / np.linalg.norm(w)
                heads = [np.linalg.norm(unit[:p]) for p in range(1, n)]
            if np.isfinite(expected).all() and min(heads, default=1.0) >= math.sqrt(TINY):
                built += 1
                assert np.array_equal(soules_basis(w).S, expected)
            else:
                with pytest.raises(InvalidInputError):
                    soules_basis(w)
        assert 1500 < built < 3000


class TestSoulesCp:
    def test_rank_one(self):
        A = soules_cp([1.0, 2.0, 3.0], [2.0, 0.0, 0.0])
        v = classify_dn(A)
        assert v.is_dn and v.rank == 1

    def test_rank3_order6(self):
        A = soules_cp(np.ones(6), [5.0, 2.0, 1.0, 0.0, 0.0, 0.0])
        v = classify_dn(A)
        assert v.is_dn and v.rank == 3

    def test_constant_diagonal_gives_identity_multiple(self):
        A = soules_cp([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
        assert np.allclose(A.a, 2.0 * np.eye(3), atol=1e-12)

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidInputError):
            soules_cp([1.0, 1.0], [1.0, 2.0])

    def test_random_draws_are_dn_with_declared_rank(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, n + 1))
            w = rng.uniform(0.1, 2.0, size=n)
            d = np.zeros(n)
            d[:r] = np.sort(rng.uniform(0.1, 4.0, size=r))[::-1]
            v = classify_dn(soules_cp(w, d))
            assert v.is_dn and v.rank == r


class TestRandomDn:
    def test_gram_style_rank2_certifiable(self):
        A = random_dn(6, 2, seed=0, style=GRAM_NONNEG)
        v = classify_dn(A)
        assert v.is_dn and v.rank == 2
        cert = few_rays_factor(A, extreme_rays(A))
        assert cert.rows == 2
        assert verify_certificate(A, cert).passed

    def test_rotated_style(self):
        A = random_dn(5, 3, seed=1, style=ROTATED_NONNEG)
        v = classify_dn(A)
        assert v.is_dn and v.rank == 3

    def test_soules_style(self):
        A = random_dn(6, 4, seed=2, style=SOULES)
        v = classify_dn(A)
        assert v.is_dn and v.rank == 4

    def test_order_one(self):
        A = random_dn(1, 1, seed=3)
        assert A.n == 1 and A.a[0, 0] >= 0

    def test_seeded_determinism(self):
        a = random_dn(5, 3, seed=9, style=ROTATED_NONNEG)
        b = random_dn(5, 3, seed=9, style=ROTATED_NONNEG)
        assert np.array_equal(a.a, b.a)

    def test_unknown_style(self):
        with pytest.raises(InvalidInputError):
            random_dn(4, 2, style="UNIFORM")

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # a negative seed ended in numpy's ValueError
        with pytest.raises(InvalidInputError, match="seed must be"):
            random_dn(5, 2, seed=seed)

    def test_invalid_rank(self):
        with pytest.raises(InvalidInputError):
            random_dn(3, 4)

    @pytest.mark.parametrize("n, r", [(5.0, 3), (5, 3.0), ("5", 3)])
    def test_order_and_rank_must_be_integers(self, n, r):
        # random_dn(5.0, 3) raised numpy's TypeError
        name = "n" if not isinstance(n, int) else "r"
        with pytest.raises(InvalidInputError, match=f"{name} must be an integer"):
            random_dn(n, r)

    def test_numpy_integer_order_and_rank_accepted(self):
        A = random_dn(np.int64(5), np.int32(3), seed=np.uint8(4))
        assert np.array_equal(A.a, random_dn(5, 3, seed=4).a)
