import itertools
import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cprank import (
    InvalidInputError,
    classify_dn,
    PreconditionError,
    SymmetricMatrix,
    Tolerances,
    extreme_rays,
    few_rays_factor,
    fit_rays,
    sr_factor,
    verify_certificate,
)
from cprank import cones, rotate
from cprank.cones import DUPLICATE_RAY_COS_GAP, EXTREME_RESIDUAL_FACTOR
from cprank.fixtures import (
    GRAM_NONNEG,
    RANDOM_STYLES,
    ROTATED_NONNEG,
    SOULES,
    example_matrix,
    random_dn,
    soules_cp,
)
from conftest import (
    active_set_nnls,
    batched_nnls_reference,
    cone_columns,
    cone_report_oracle,
    duplicate_rays_loop,
    extreme_indices_oracle,
    hull_extreme_indices,
    nnls,
    span_distance,
)

ROUNDED_TOL = Tolerances(eps_psd=1e-4, eps_rank=1e-4, eps_nonneg=1e-6, eps_residual=1e-4)


class TestNnls:
    def test_target_is_first_generator(self):
        coeffs, resid = nnls([1.0, 0.0], np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(coeffs, [1.0, 0.0]) and resid <= 1e-12

    def test_opposed_target(self):
        g = np.array([2.0, 0.0])
        coeffs, resid = nnls(-g, g.reshape(-1, 1))
        assert coeffs[0] == 0.0
        assert abs(resid - np.linalg.norm(g)) <= 1e-12

    def test_nonunique_combination_still_exact(self):
        gens = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        coeffs, resid = nnls([1.0, 1.0], gens)
        assert resid <= 1e-12
        assert coeffs.min() >= 0.0
        assert np.allclose(gens @ coeffs, [1.0, 1.0])

    def test_requires_generators(self):
        with pytest.raises(InvalidInputError):
            nnls([1.0], np.zeros((1, 0)))

    def test_global_minimum_against_face_enumeration(self):
        # the optimum of the convex problem sits on a face, so enumerating
        # support sets gives an exact, independent oracle at small sizes
        import itertools

        def brute(G, b):
            best = np.linalg.norm(b)
            for size in range(1, G.shape[1] + 1):
                for S in itertools.combinations(range(G.shape[1]), size):
                    xs, *_ = np.linalg.lstsq(G[:, S], b, rcond=None)
                    if xs.min(initial=1.0) >= -1e-12:
                        r = np.linalg.norm(G[:, list(S)] @ np.maximum(xs, 0) - b)
                        best = min(best, r)
            return best

        rng = np.random.default_rng(77)
        for _ in range(150):
            m = int(rng.integers(2, 7))
            k = int(rng.integers(1, 7))
            rk = int(rng.integers(1, min(m, 4) + 1))
            G = rng.standard_normal((m, rk)) @ rng.standard_normal((rk, k))
            b = rng.standard_normal(m)
            if rng.random() < 0.3:
                b = G @ np.abs(rng.standard_normal(k))
            coeffs, resid = nnls(b, G)
            assert coeffs.min() >= 0.0
            assert resid <= brute(G, b) + 1e-8

    def test_singular_passive_blocks_fall_back_to_pseudo_inverse(self):
        # passive sets holding two copies of one column make every block
        # of the batch exactly singular; the solve must still return the
        # least-squares coefficients instead of raising
        G = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        K = G.T @ G
        C = np.array([[2.0, 2.0, 0.0], [4.0, 4.0, 0.0]])
        P = np.array([[True, True, False], [True, True, False]])
        S = cones._passive_solve(K, C, P)
        assert np.all(np.isfinite(S))
        assert np.allclose(S, [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])

    def test_batched_problems_match_the_per_problem_oracle(self):
        # one kernel call over many targets, some with columns masked out,
        # reaches for each problem the optimum the per-problem oracle finds
        rng = np.random.default_rng(78)
        for _ in range(60):
            m, k, q = (int(v) for v in rng.integers(2, 8, size=3))
            rk = int(rng.integers(1, m + 1))
            G = rng.standard_normal((m, rk)) @ rng.standard_normal((rk, k))
            b = rng.standard_normal((q, m))
            allowed = rng.random((q, k)) < 0.7
            oracle = np.zeros((q, k))
            for i in range(q):
                cols = np.flatnonzero(allowed[i])
                if cols.size:
                    oracle[i, cols] = active_set_nnls(G[:, cols], b[i])
            best = np.linalg.norm(oracle @ G.T - b, axis=1)
            X = cones._batched_nnls(G.T @ G, b @ G, allowed)
            assert X.min() >= 0.0 and not X[~allowed].any()
            assert np.all(np.linalg.norm(X @ G.T - b, axis=1) <= best + 1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=30),
        st.sampled_from(["least_squares", "extremality"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_the_reference_kernel_bit_for_bit(self, q, k, kind, seed):
        # the kernel's numpy calls were cut without touching one
        # floating-point operation: on the same inputs it returns the
        # reference kernel's output in every bit.  Generators of rank
        # below k and duplicated columns make singular passive blocks,
        # columns 1e-8 to 1e-6 apart make nearly singular ones and
        # entering columns that come out nonpositive, the masks have
        # holes, and targets in and out of the cone finish on different
        # rounds, with passive sets of mixed sizes
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, k + 1))
        G = rng.standard_normal((rank + int(rng.integers(0, 3)), rank)) @ rng.uniform(
            -0.2, 1.0, size=(rank, k)
        )
        twins = rng.integers(3)  # none, exact copies, near copies
        gap = (twins - 1) * 10.0 ** -rng.uniform(6.0, 8.0)
        for c in range(1, k, 2) if twins else ():
            G[:, c] = G[:, c - 1] + gap * rng.standard_normal(G.shape[0])
        if kind == "extremality":
            # the library's extremality batch: unit columns, each tested
            # against all the others
            U = G / np.where(np.linalg.norm(G, axis=0) > 0.0, np.linalg.norm(G, axis=0), 1.0)
            K = U.T @ U
            rest = rng.permutation(k)[: min(q, k)]
            C = K[rest]
            allowed = ~np.eye(k, dtype=bool)[rest]
            q = rest.size
        else:
            K = G.T @ G
            inside = rng.random(q) < 0.5
            b = rng.standard_normal((q, G.shape[0]))
            b[inside] = rng.uniform(0.0, 1.0, size=(int(inside.sum()), k)) @ G.T
            C = b @ G
            allowed = rng.random((q, k)) < rng.uniform(0.5, 1.0)
        args = (K, C, allowed)
        X = cones._batched_nnls(*(a.copy() for a in args))
        R = batched_nnls_reference(*(a.copy() for a in args))
        assert X.dtype == R.dtype
        assert np.array_equal(X.view(np.int64), R.view(np.int64))

    def test_empty_batches(self):
        K = np.eye(2)
        for q, k in ((0, 2), (2, 0)):
            none = np.zeros((q, k), dtype=bool)
            X = cones._batched_nnls(K[:k, :k], np.ones((q, k)), ~none)
            assert X.shape == (q, k) and not X.any()


def assert_w_fit_matches_oracle(A):
    """``W >= 0``, and every column fitted off the extreme rays comes, on
    the unit factor columns, within 1e-9 of the per-problem oracle's
    residual against the unit extreme columns."""
    report, W, _ = fit_rays(A)
    assert W.min() >= 0.0
    B = sr_factor(A)
    rep_of = cones._extreme_set(B, Tolerances())[1]
    ext = list(report.extreme_indices)
    norms = np.linalg.norm(B, axis=0)
    E = B[:, ext] / norms[ext]
    for j in np.flatnonzero(rep_of >= 0):
        if rep_of[j] in ext:
            continue
        u = B[:, j] / norms[j]
        fitted = E @ (W[:, j] * norms[ext] / norms[j]) - u
        best = E @ active_set_nnls(E, u) - u
        assert abs(np.linalg.norm(fitted) - np.linalg.norm(best)) <= 1e-9


class TestExtremeRays:
    def test_identity(self):
        report = extreme_rays(np.eye(3))
        assert report.m == 3 and report.extreme_indices == (0, 1, 2)

    def test_rounded_example_has_three_rays(self):
        report, _, residual = fit_rays(example_matrix("EX3_9"), ROUNDED_TOL)
        assert report.m == 3
        assert report.extreme_indices == (0, 1, 2)
        assert residual <= 1e-8

    def test_soules_instance_rank3(self):
        A = soules_cp(np.ones(6), [5.0, 2.0, 1.0, 0.0, 0.0, 0.0])
        report = extreme_rays(A)
        assert report.m == 3

    def test_soules_ray_count_equals_rank(self):
        # Soules-structured instances realize the minimal ray count: their
        # Gram vectors collapse onto exactly rank many rays
        from cprank.fixtures import SOULES, random_dn

        for seed in range(12):
            r = 2 + seed % 3  # ranks 2, 3, 4
            n = 5 + seed % 3
            A = random_dn(n, r, seed=seed, style=SOULES)
            assert extreme_rays(A).m == r

    def test_ray_count_can_exceed_rank_even_for_certified_instances(self):
        # cp-rank equal to rank does NOT force the ray count down to the
        # rank: this 4x4 matrix has a verified 3-row factorization, yet all
        # four of its columns are extreme by a wide margin
        from cprank import rowsum_factor, verify_certificate

        A = example_matrix("EX2_7")
        cert = rowsum_factor(A)
        assert cert.rows == 3 and verify_certificate(A, cert).passed
        report = extreme_rays(A)
        assert report.m == 4
        B = sr_factor(A)
        for j in range(4):
            others = [k for k in range(4) if k != j]
            _, resid = nnls(B[:, j], B[:, others])
            assert resid >= 0.1 * np.linalg.norm(B[:, j])

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(RANDOM_STYLES),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_ray_count_at_least_rank(self, style, r, extra, seed):
        A = random_dn(r + extra, r, seed=seed, style=style)
        assert extreme_rays(A).m >= classify_dn(A).rank

    @pytest.mark.parametrize("style, n, seed", [
        (ROTATED_NONNEG, 3, 1339038659),
        (GRAM_NONNEG, 4, 2093711691),
        (ROTATED_NONNEG, 4, 1770749157),
    ])
    def test_ill_conditioned_full_rank_keeps_every_ray(self, style, n, seed):
        # Gram-column residuals scale with the eigenvalues, so deciding
        # extremality there dropped a ray of each of these
        A = random_dn(n, n, seed=seed, style=style)
        assert classify_dn(A).rank == n
        assert extreme_rays(A).m == n

    def test_duplicate_columns_collapse(self):
        V = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]])  # third = 2x first
        report, W, _ = cone_columns(V.T @ V)
        assert report.m == 2
        assert report.extreme_indices == (0, 1)
        assert W[0, 2] > 0  # duplicate reconstructed from its ray

    def test_zero_matrix(self):
        report = extreme_rays(np.zeros((3, 3)))
        assert report.m == 0

    def test_requires_dn(self):
        with pytest.raises(PreconditionError):
            extreme_rays(np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_reconstruction_invariants(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            n = int(rng.integers(3, 8))
            G = rng.uniform(0.0, 1.0, size=(3, n))
            A = G.T @ G
            report, W, residual = fit_rays(A)
            assert report.m >= 3  # extreme rays span the rank-3 column space
            assert residual <= 1e-7
            assert W.min() >= -1e-9

    def test_ray_count_matches_factor_columns(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            r = int(rng.integers(1, 5))
            G = rng.uniform(0.0, 1.0, size=(r, n))
            A = G.T @ G
            B = sr_factor(A)
            from_gram = cone_columns(B.T @ B)[0]
            from_factor = cone_columns(B)[0]
            assert from_gram.extreme_indices == from_factor.extreme_indices

    def test_matches_cross_section_hull_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            n = int(rng.integers(4, 61))
            G = rng.uniform(0.05, 1.0, size=(3, n))
            A = G.T @ G
            report = extreme_rays(A)
            oracle = hull_extreme_indices(sr_factor(A))
            assert list(report.extreme_indices) == oracle

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(RANDOM_STYLES),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=34),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_per_column_oracle(self, style, r, extra, seed):
        A = random_dn(r + extra, r, seed=seed, style=style)
        assert list(extreme_rays(A).extreme_indices) == extreme_indices_oracle(A)

    @pytest.mark.parametrize("n", [12, 40, 100])
    def test_one_batched_solve_per_question(self, monkeypatch, n):
        # extremality of every column is one kernel call, and fitting the
        # columns off the extreme rays is one more, whatever n is (at
        # rank 4: the planar certificates spare rank 3 the first call)
        calls = []

        def count(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return counted

        kernel = getattr(cones, "_batched_nnls", None)
        monkeypatch.setattr(cones, "_batched_nnls", count("kernel", kernel), raising=False)
        report = fit_rays(random_dn(n, 4, seed=n, style=GRAM_NONNEG))[0]
        assert report.m < n  # some columns are fitted, not extreme
        assert calls == ["kernel", "kernel"]

    def test_one_debug_line_per_kernel_call(self, caplog):
        A = random_dn(12, 5, seed=6, style=GRAM_NONNEG)
        with caplog.at_level(logging.DEBUG, logger="cprank"):
            report = fit_rays(A)[0]
        lines = [r.getMessage() for r in caplog.records if r.name == "cprank.cones"]
        names = [line.split(":")[0] for line in lines]
        assert names == ["_extreme_set", "_batched_nnls", "_batched_nnls"]
        screen, ext, fit = (
            {key: int(value) for key, value in (f.split("=") for f in line.split()[1:])}
            for line in lines
        )
        # the separation bound settles some representatives; the extremality
        # batch starts cold on the others, against every representative
        assert screen["representatives"] == 12 and screen["separated"] > 0
        assert screen["basis"] == 0
        assert ext["problems"] == screen["representatives"] - screen["separated"] > 0
        assert ext["columns"] == 12
        # the W fit of the columns off the extreme rays, against the rays
        assert (fit["problems"], fit["columns"]) == (12 - report.m, report.m)
        assert ext.keys() == fit.keys() == {"problems", "columns", "solves"}
        assert ext["solves"] > 0 and fit["solves"] > 0

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(RANDOM_STYLES),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=34),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_w_fit_matches_per_column_oracle(self, style, r, extra, seed):
        assert_w_fit_matches_oracle(random_dn(r + extra, r, seed=seed, style=style).a)

    def test_w_fit_matches_oracle_on_constructed_nnq_instances(self):
        # the ill-conditioned family of the nnq factor test (cond(E^T E)
        # reaches 3e10 on the Gram columns)
        rng = np.random.default_rng(2)
        for _ in range(20):
            N = rng.uniform(0.1, 1.0, size=(3, 3))
            P = np.hstack([np.eye(3), rng.uniform(0.0, 1.0, size=(3, 4))])
            assert_w_fit_matches_oracle(P.T @ (N.T @ N) @ P)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([GRAM_NONNEG, ROTATED_NONNEG]),
        st.integers(min_value=4, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_rank3_four_rays_fit_is_optimal_and_certifies(self, style, n, seed):
        # four rays in rank 3 leave a column's fit without one optimum,
        # so which optimal W the cold-started fit reports is not pinned:
        # each column's residual on the rank factor is still the least
        # one, and the few-rays certificate C = N W verifies
        A = random_dn(n, 3, seed=seed, style=style)
        report, W, _ = fit_rays(A)
        assume(classify_dn(A).rank == 3 and report.m == 4)
        assert verify_certificate(A, few_rays_factor(A, report)).passed
        B = sr_factor(A)
        E = B[:, list(report.extreme_indices)]
        for j, b in enumerate(B.T):
            fitted = np.linalg.norm(E @ W[:, j] - b)
            best = np.linalg.norm(E @ active_set_nnls(E, b) - b)
            assert abs(fitted - best) <= 1e-9 * np.linalg.norm(b)


def planted_duplicates(data):
    """Columns of a few random base rays plus planted copies: exact
    duplicates, positive multiples, zero columns, and near-duplicate
    chains whose steps sit on either side of the cosine gap, all in a
    random column order."""
    r = data.draw(st.integers(min_value=2, max_value=5))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((r, data.draw(st.integers(min_value=1, max_value=5))))
    cols = list(base.T)
    for _ in range(data.draw(st.integers(min_value=0, max_value=8))):
        kind = data.draw(st.sampled_from(["exact", "multiple", "zero", "chain"]))
        u = base[:, int(rng.integers(base.shape[1]))]
        if kind == "exact":
            cols.append(u.copy())
        elif kind == "multiple":
            cols.append(float(rng.uniform(0.1, 10.0)) * u)
        elif kind == "zero":
            cols.append(np.zeros(r))
        else:
            # each step turns by an angle with 1 - cos = gap, so two steps
            # turn by about 4 * gap
            gap = data.draw(st.sampled_from([0.2, 0.5, 0.8, 1.25, 2.0, 5.0])) * DUPLICATE_RAY_COS_GAP
            w = rng.standard_normal(r)
            w -= (w @ u) / (u @ u) * u
            u_hat, w_hat = u / np.linalg.norm(u), w / np.linalg.norm(w)
            theta = math.acos(1.0 - gap)
            for k in range(1, data.draw(st.integers(min_value=1, max_value=4)) + 1):
                cols.append(math.cos(k * theta) * u_hat + math.sin(k * theta) * w_hat)
    order = rng.permutation(len(cols))
    return np.column_stack([cols[k] for k in order])


class TestDuplicateRays:
    """The whole-array duplicate collapse against the column-by-column loop."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_sequential_loop(self, data):
        M = planted_duplicates(data)
        extreme, rep_of = cones._extreme_set(M, Tolerances())
        reps, expected = duplicate_rays_loop(M)
        assert [j for j, rep in enumerate(rep_of) if rep == j] == reps
        assert {j: int(rep) for j, rep in enumerate(rep_of) if rep >= 0} == expected
        assert set(extreme) <= set(reps)
        # a column on an extreme ray is its representative's multiple,
        # measured on the Gram columns; the sums now run in another order,
        # so they agree to a few roundoffs
        W = cone_columns(M)[1]
        G = M.T @ M
        for j, rep in expected.items():
            if rep in extreme:
                ratio = 1.0 if j == rep else float(G[:, rep] @ G[:, j]) / float(G[:, rep] @ G[:, rep])
                assert W[extreme.index(rep), j] == pytest.approx(ratio, rel=4 * M.shape[1] * 2.0**-52)

    def test_chain_across_the_gap(self):
        # 1 joins 0; 2 is close to 1 only, which is not a representative
        u, w = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        theta = math.acos(1.0 - 0.8 * DUPLICATE_RAY_COS_GAP)
        M = np.column_stack([math.cos(k * theta) * u + math.sin(k * theta) * w for k in range(3)])
        rep_of = cones._extreme_set(M, Tolerances())[1]
        assert rep_of.tolist() == [0, 0, 2]
        assert duplicate_rays_loop(M) == ([0, 2], {0: 0, 1: 0, 2: 2})


def assert_matches_cone_oracle(found, F):
    report, W, residual = found
    expected, W_expected, residual_expected = cone_report_oracle(F)
    assert report == expected
    assert np.array_equal(W, W_expected)
    assert residual == residual_expected


class TestConeReportOracle:
    """``fit_rays`` and the cone report of general columns
    (``cone_columns``) against the cone report built with the duplicate
    pass always run and an n-by-n mask of the columns each fit used: the
    same rays, ``W`` and residual, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(RANDOM_STYLES),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_dn(self, style, r, extra, seed):
        A = random_dn(min(r + extra, 12), r, seed=seed, style=style)
        B = sr_factor(A)
        assert_matches_cone_oracle(fit_rays(A), B)
        assert_matches_cone_oracle(cone_columns(B), B)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_planted_duplicates(self, data):
        M = planted_duplicates(data)
        assert_matches_cone_oracle(cone_columns(M), M)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(RANDOM_STYLES),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=4),
    )
    def test_zero_columns(self, style, r, extra, seed, at):
        # zero columns in a factor, and the zero rows and columns they
        # leave in its Gram matrix, whose rank factor has near-zero columns
        B = sr_factor(random_dn(min(r + extra, 12), r, seed=seed, style=style))
        for j in at:
            B = np.insert(B, min(j, B.shape[1]), 0.0, axis=1)
        assert_matches_cone_oracle(cone_columns(B), B)
        A = B.T @ B
        assert_matches_cone_oracle(fit_rays(A), sr_factor(A))


def nnls_distances(U):
    """Distance of each unit column of ``U`` from the cone of the others,
    one NNLS per column."""
    dist = np.ones(U.shape[1])
    for j in range(U.shape[1]):
        others = np.delete(U, j, axis=1)
        if others.shape[1]:
            dist[j] = np.linalg.norm(others @ active_set_nnls(others, U[:, j]) - U[:, j])
    return dist


def screen_against_oracle(M):
    """Representatives of ``M`` (as the column loop collapses them) that
    the separation bound settles as extreme, along each column itself or
    along its isotropic direction, and those a per-column NNLS against
    the other unit representatives finds extreme; every bound, along
    either direction, is checked against that NNLS distance on the way."""
    M = np.asarray(M, dtype=float)
    reps, _ = duplicate_rays_loop(M)
    U = M[:, reps] / np.linalg.norm(M[:, reps], axis=0)
    K = U.T @ U
    bound = cones._separation_bound(U, K, V=U)
    dist = nnls_distances(U)
    assert np.all(bound <= dist + 1e-12)
    V = cones._isotropic_directions(U)
    if V is not None:
        isotropic = cones._separation_bound(U, K, V)
        assert np.all(isotropic <= dist + 1e-12)
        bound = np.maximum(bound, isotropic)
    reps = np.array(reps, dtype=int)
    return reps[bound > EXTREME_RESIDUAL_FACTOR].tolist(), reps[dist > EXTREME_RESIDUAL_FACTOR].tolist()


class TestSeparationBound:
    """The one-matmul screen that settles extreme representatives before
    the NNLS kernel runs."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(RANDOM_STYLES),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=34),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_never_exceeds_the_distance_on_dn_factors(self, style, r, extra, seed):
        A = random_dn(r + extra, r, seed=seed, style=style)
        separated, _ = screen_against_oracle(sr_factor(A))
        assert set(separated) <= set(extreme_indices_oracle(A))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_never_exceeds_the_distance_on_planted_duplicates(self, data):
        M = planted_duplicates(data)
        separated, extreme = screen_against_oracle(M)
        assert set(separated) <= set(extreme)
        assert set(separated) <= set(cones._extreme_set(M, Tolerances())[0])

    def test_lone_representative_is_separated_by_one(self):
        # one column is its own fan: alpha = 0, y = -u, and only the
        # rounding charge keeps the bound below 1
        U = np.array([[0.6], [0.8]])
        assert cones._separation_bound(U, U.T @ U, V=U)[0] == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("theta", [2e-6, 3e-6, 5e-6, 1e-5])
    @pytest.mark.parametrize("seed", range(4))
    def test_interior_column_of_a_near_parallel_fan_is_not_separated(self, theta, seed):
        # the middle of three coplanar unit columns theta apart (distinct
        # rays: 1 - cos(theta) exceeds the duplicate gap) lies in the cone
        # of the other two, and its functional y is pure rounding there
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0] if seed else np.eye(3)
        U = Q @ np.array([[math.cos(k * theta) for k in (0, 1, 2)],
                          [math.sin(k * theta) for k in (0, 1, 2)],
                          [0.0, 0.0, 0.0]])
        bound = cones._separation_bound(U, U.T @ U, V=U)
        assert bound[1] <= 1e-12
        assert bound[0] > EXTREME_RESIDUAL_FACTOR and bound[2] > EXTREME_RESIDUAL_FACTOR

    @pytest.mark.parametrize("A, tol", [
        (np.eye(3), Tolerances()),
        (example_matrix("EX3_7").a, Tolerances()),
    ], ids=["identity", "EX3_7"])
    def test_fully_separated_cone_skips_the_kernel(self, monkeypatch, A, tol):
        # the screen, not the planar certificates, settles EX3_7's four rays
        monkeypatch.setattr(cones, "_planar_certificates", lambda U, K: None)
        calls = []
        kernel = cones._batched_nnls
        monkeypatch.setattr(cones, "_batched_nnls", lambda *args: calls.append(1) or kernel(*args))
        report, W, residual = fit_rays(A, tol)
        assert calls == [] and report.m == A.shape[0]
        # the same report with the screen off: every representative goes
        # to the kernel, in one call
        monkeypatch.setattr(cones, "_separation_bound", lambda U, K, V: np.zeros(V.shape[1]))
        kernel_report, kernel_W, kernel_residual = fit_rays(A, tol)
        assert len(calls) == 1
        assert list(kernel_report.extreme_indices) == extreme_indices_oracle(A, tol)
        assert report.extreme_indices == kernel_report.extreme_indices
        assert np.array_equal(W, kernel_W)
        assert residual == kernel_residual

    @pytest.mark.parametrize("seed", range(6))
    def test_negative_cosine_sum_skips_the_bound(self, caplog, seed):
        # a general factor whose cosine sums are not all positive: the bound
        # is skipped and every representative goes to the kernel
        rng = np.random.default_rng(seed)
        M = np.column_stack([np.eye(3), -np.ones(3), rng.standard_normal((3, 4))])
        U = M / np.linalg.norm(M, axis=0)
        assert (U.T @ U).sum(axis=1).min() <= 0.0
        with caplog.at_level(logging.DEBUG, logger="cprank.cones"):
            report = cone_columns(M)[0]
        screen, ext = (
            {key: int(value) for key, value in (f.split("=") for f in r.getMessage().split()[1:])}
            for r in caplog.records[:2]
        )
        assert screen == {"representatives": 8, "separated": 0, "basis": 0}
        assert ext["problems"] == 8
        assert list(report.extreme_indices) == screen_against_oracle(M)[1]


def debug_fields(caplog):
    """``(name, {key: value})`` of each ``cprank.cones`` DEBUG line."""
    return [
        (msg.split(":")[0], {key: int(value) for key, value in (f.split("=") for f in msg.split()[1:])})
        for msg in (r.getMessage() for r in caplog.records if r.name == "cprank.cones")
    ]


class TestBasisCertificates:
    """Cones settled without the extremality kernel by a basis: the
    representatives form one, which the screen along the isotropic
    directions separates (its bounds are their distances from each
    other's span), or the separated representatives do (solving on them
    rebuilds every open one)."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(RANDOM_STYLES),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_per_column_oracle(self, style, r, extra, seed):
        n = min(r + extra, 12)
        A = random_dn(n, r, seed=seed, style=style)
        assert list(extreme_rays(A).extreme_indices) == extreme_indices_oracle(A)
        assert_w_fit_matches_oracle(A.a)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(RANDOM_STYLES),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_full_rank_order_at_most_four_skips_the_kernel(self, style, n, seed):
        A = random_dn(n, n, seed=seed, style=style)
        assume(classify_dn(A).rank == n)
        with mock.patch.object(cones, "_batched_nnls", wraps=cones._batched_nnls) as kernel:
            report = extreme_rays(A)
        assert report.m == n and kernel.call_count == 0

    def test_separated_rays_of_a_rank2_cone_settle_the_others(self, caplog):
        # two separated rays span the plane; the other six columns are
        # rebuilt from them, and only the W fit calls the kernel
        A = random_dn(8, 2, seed=208, style=GRAM_NONNEG)
        with caplog.at_level(logging.DEBUG, logger="cprank.cones"):
            report = fit_rays(A)[0]
        (_, screen), (name, fit) = debug_fields(caplog)
        assert screen == {"representatives": 8, "separated": 2, "basis": 6}
        assert name == "_batched_nnls" and (fit["problems"], fit["columns"]) == (6, 2)
        assert list(report.extreme_indices) == extreme_indices_oracle(A)
        assert_w_fit_matches_oracle(A.a)

    def test_near_singular_basis_goes_to_the_kernel(self, caplog):
        # the third column lies 1e-8 off the plane of the first two, inside
        # their cone.  On a basis the screen's bound is each column's
        # distance from the span of the others, and every column here lies
        # within about 1.4e-8 of the others' span, below the extremality
        # factor: nothing is separated, and the kernel decides all three,
        # in one call, and finds the third inside
        M = np.column_stack([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1e-8 * math.sqrt(2.0)]])
        assert (span_distance(M / np.linalg.norm(M, axis=0)) <= EXTREME_RESIDUAL_FACTOR).all()
        with caplog.at_level(logging.DEBUG, logger="cprank.cones"):
            report = cone_columns(M)[0]
        (_, screen), (name, ext) = debug_fields(caplog)[:2]
        assert screen == {"representatives": 3, "separated": 0, "basis": 0}
        assert name == "_batched_nnls" and ext["problems"] == 3
        assert list(report.extreme_indices) == screen_against_oracle(M)[1] == [0, 1]

    def test_five_separated_rays_in_rank_four_skip_the_kernel(self, caplog):
        # the isotropic directions separate all five rays of this cone
        A = random_dn(5, 4, seed=0, style=GRAM_NONNEG)
        with mock.patch.object(cones, "_batched_nnls", wraps=cones._batched_nnls) as kernel:
            with caplog.at_level(logging.DEBUG, logger="cprank.cones"):
                report = extreme_rays(A)
        assert kernel.call_count == 0
        assert debug_fields(caplog) == [
            ("_extreme_set", {"representatives": 5, "separated": 5, "basis": 0})
        ]
        assert list(report.extreme_indices) == extreme_indices_oracle(A) == [0, 1, 2, 3, 4]

    def test_separated_basis_missing_an_open_ray_goes_to_the_kernel(self, caplog):
        # five rays in rank 4, four of them separated: the fifth is not in
        # their cone, so solving on them leaves it unbuilt and the kernel
        # decides every open representative
        A = random_dn(5, 4, seed=15, style=GRAM_NONNEG)
        with caplog.at_level(logging.DEBUG, logger="cprank.cones"):
            report = extreme_rays(A)
        (_, screen), (name, ext) = debug_fields(caplog)
        assert screen == {"representatives": 5, "separated": 4, "basis": 0}
        assert name == "_batched_nnls" and ext["problems"] == 1
        assert report.m == 5
        assert list(report.extreme_indices) == extreme_indices_oracle(A)


def planted_general_cone(data):
    """``random_dn`` of rank 4-8 in any style, of order rank + 1 to five
    times the rank, with columns planted on its rank factor ``B``:
    near-duplicates ``(1 + s) b_j - s b_i`` (just outside the cone, next
    to ``b_j``) or ``b_j + s b_i`` (inside it), and near-midpoints ``(b_i
    + b_j) / 2`` moved by ``s`` away from or toward a third column, with
    ``s`` from 1e-13 to 1e-6; then scaled by 1e-12 to 1e12 and permuted.
    The Gram matrix of the planted factor, or ``None`` when it is not DN."""
    style = data.draw(st.sampled_from(RANDOM_STYLES))
    r = data.draw(st.integers(min_value=4, max_value=8))
    n = data.draw(st.integers(min_value=r + 1, max_value=5 * r))
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    B = sr_factor(random_dn(n, r, seed=seed, style=style))
    rng = np.random.default_rng(seed)
    cols = list(B.T)
    for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
        kind = data.draw(st.sampled_from(["duplicate", "midpoint"]))
        sign = data.draw(st.sampled_from([1.0, -1.0]))
        s = 10.0 ** data.draw(st.floats(min_value=-13.0, max_value=-6.0))
        i, j, k = rng.choice(n, 3, replace=False)
        if kind == "duplicate":
            cols.append(B[:, j] + s * B[:, i] if sign > 0 else (1.0 + s) * B[:, j] - s * B[:, i])
        else:
            cols.append((1.0 + s) * (B[:, i] + B[:, j]) / 2.0 + sign * s * B[:, k])
    F = np.column_stack(cols)
    A = 10.0 ** data.draw(st.floats(min_value=-12.0, max_value=12.0)) * (F.T @ F)
    perm = rng.permutation(A.shape[0])
    A = A[np.ix_(perm, perm)]
    return A if classify_dn(A).is_dn else None


def least_squares_distances(U):
    """Distance of each column of the square ``U`` from the span of the
    others."""
    dist = np.ones(U.shape[1])
    for j in range(U.shape[1]):
        others = np.delete(U, j, axis=1)
        if others.shape[1]:
            x = np.linalg.lstsq(others, U[:, j], rcond=None)[0]
            dist[j] = np.linalg.norm(U[:, j] - others @ x)
    return dist


class TestIsotropicScreen:
    """The screen of ``_extreme_set`` outside the planar stage: the
    separation bound along each column's isotropic direction ``(U
    U^T)^-1 u_j``."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=-9.0, max_value=0.0),
        st.floats(min_value=-12.0, max_value=12.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    # a column 2.1e-7 from the others' span, which directions solved
    # through U U^T (cond(U)^2 = 4e16) left below the factor
    @example(6, -8.0, 0.0, 1)
    def test_square_unit_bases(self, d, log_offset, log_scale, seed):
        # from an orthonormal basis (offset 1) to one whose column j0 lies
        # 1e-9 off the span of the others, which are orthonormal; columns
        # scaled and permuted.  On a basis the bound is the span distance
        # wherever the directions come out accurate.  Where cond(U)^2
        # nears 1 / eps they do not, and the bound, still a Farkas bound,
        # may exceed the span distance of a column far from the others'
        # cone (their span passes near it, their cone does not)
        rng = np.random.default_rng(seed)
        Q = rotate.random_orthogonal(d, rng)
        M = Q.copy()
        if d > 1:
            j0 = int(rng.integers(d))
            w = rng.uniform(0.0, 1.0, d - 1)
            offset = 10.0**log_offset
            M[:, j0] = (math.sqrt(1.0 - offset**2) * (np.delete(Q, j0, axis=1) @ w) / np.linalg.norm(w)
                        + offset * Q[:, j0])
        M = 10.0**log_scale * M[:, rng.permutation(d)] * rng.uniform(0.5, 2.0, d)
        U = M / np.linalg.norm(M, axis=0)
        V = cones._isotropic_directions(U)
        bound = np.zeros(d) if V is None else cones._separation_bound(U, U.T @ U, V)
        certified = bound > EXTREME_RESIDUAL_FACTOR
        assert certified[span_distance(U) > 2.0 * EXTREME_RESIDUAL_FACTOR].all()
        assert np.all(bound <= nnls_distances(U) + 1e-12)
        if np.linalg.cond(U) ** 2 * np.finfo(float).eps < 1e-8:
            span = least_squares_distances(U)
            assert np.allclose(bound, span, rtol=1e-6, atol=1e-12)
            assert not certified[span < EXTREME_RESIDUAL_FACTOR].any()

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_certified_columns_are_extreme_on_general_cones(self, data):
        A = planted_general_cone(data)
        assume(A is not None)
        B = sr_factor(A)
        reps = np.array(duplicate_rays_loop(B)[0], dtype=int)
        U = B[:, reps] / np.linalg.norm(B[:, reps], axis=0)
        V = cones._isotropic_directions(U)
        assume(V is not None)
        bound = cones._separation_bound(U, U.T @ U, V)
        assert np.all(bound <= nnls_distances(U) + 1e-12)
        certified = reps[bound > EXTREME_RESIDUAL_FACTOR].tolist()
        assert set(certified) <= set(extreme_indices_oracle(A))

    @pytest.mark.parametrize("tiny", [1e-155, 1e-160])
    @pytest.mark.parametrize("M", [
        np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 2.0, 5.0]]),
        np.array([[1.0, 0.0, 0.0, 1.0, 0.5], [0.0, 1.0, 0.0, 1.0, 0.3],
                  [0.0, 0.0, 1.0, 1.0, 0.2], [1.0, 2.0, 3.0, 5.0, 1.0]]),
    ], ids=["basis", "general"])
    def test_directions_that_overflow_leave_the_cone_to_the_kernel(self, caplog, M, tiny):
        # a last row of about 1e-155 leaves U U^T nonsingular to LAPACK,
        # but the directions overflow (or come out NaN): no representative
        # is separated, no RuntimeWarning is raised, and the kernel decides
        M = M.copy()
        M[-1] *= tiny
        U = M / np.linalg.norm(M, axis=0)
        assert cones._isotropic_directions(U) is None
        with caplog.at_level(logging.DEBUG, logger="cprank.cones"):
            extreme = cones._extreme_set(M, Tolerances())[0]
        assert debug_fields(caplog)[0][1]["separated"] == 0
        assert extreme == screen_against_oracle(M)[1]


class TestSpanDistance:
    """The reference ``span_distance`` bounds each unit column's distance
    from the span of the others from below."""

    @pytest.mark.parametrize("d", range(1, 7))
    def test_orthonormal_columns_are_a_unit_apart(self, d):
        dist = span_distance(rotate.random_orthogonal(d, np.random.default_rng(d)))
        assert (dist <= 1.0).all() and (dist >= 1.0 - 1e-12).all()

    @pytest.mark.parametrize("d", range(2, 7))
    def test_bounds_the_least_squares_distance(self, d):
        U = np.random.default_rng(d).uniform(0.0, 1.0, (d, d)) + np.eye(d)
        U /= np.linalg.norm(U, axis=0)
        dist = span_distance(U)
        for j in range(d):
            others = np.delete(U, j, axis=1)
            x = np.linalg.lstsq(others, U[:, j], rcond=None)[0]
            exact = np.linalg.norm(U[:, j] - others @ x)
            assert 0.5 * exact <= dist[j] <= exact * (1.0 + 1e-12)

    def test_singular_basis_has_no_distance(self, recwarn):
        # a zero row makes the inverse fail outright: every bound is 0
        U = np.column_stack([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(span_distance(U), np.zeros(3))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def plane_columns(points, rng, rotate_cone=True):
    """Columns ``(x, y, 1)`` of plane points, each scaled by a positive
    factor and, with ``rotate_cone``, all turned by one random rotation:
    a pointed rank-3 cone whose cross-section is the points' hull."""
    P = np.vstack([np.asarray(points, dtype=float).T, np.ones(len(points))])
    P = P * rng.uniform(0.5, 2.0, len(points))
    return rotate.random_orthogonal(3, rng) @ P if rotate_cone else P


def polygon(rng, h, radius=0.5):
    """``h`` points on a circle, in counterclockwise order."""
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, h))
    return radius * np.column_stack([np.cos(angles), np.sin(angles)])


def support_distances(U):
    """Distance of each unit column of the 3-row ``U`` from the cone of
    the others, by enumeration: the least residual of the nonnegative
    fits on every support of one to three other columns (in R^3 some
    optimal fit has such a support).  Unlike a Lawson-Hanson solve this
    does not stop short where the gradients of a near-optimal fit fall
    below its dual tolerance, as on near-parallel columns."""
    dist = np.ones(U.shape[1])
    for j in range(U.shape[1]):
        others = np.delete(np.arange(U.shape[1]), j)
        for size in (1, 2, 3):
            S = np.array(list(itertools.combinations(others, size)), dtype=int).reshape(-1, size)
            G = U[:, S].transpose(1, 0, 2)
            X = np.maximum(np.linalg.pinv(G) @ U[:, j], 0.0)
            fits = np.einsum("nij,nj->ni", G, X) - U[:, j]
            dist[j] = min(dist[j], float(np.linalg.norm(fits, axis=1).min(initial=1.0)))
    return dist


def extreme_by_supports(M):
    """Extreme representatives of a cone of 3-row columns by
    :func:`support_distances`."""
    reps, _ = duplicate_rays_loop(M)
    dist = support_distances(M[:, reps] / np.linalg.norm(M[:, reps], axis=0))
    return np.array(reps, dtype=int)[dist > EXTREME_RESIDUAL_FACTOR].tolist()


def assert_planar_certificates_hold(M):
    """Each representative of ``M`` that the planar stage settles lies
    on the side of the extremality factor its certificate says, by
    :func:`support_distances`, and ``_extreme_set`` decides it so; the
    open ones are the kernel's to decide.  Returns the share settled."""
    reps, _ = duplicate_rays_loop(M)
    U = M[:, reps] / np.linalg.norm(M[:, reps], axis=0)
    planar = cones._planar_certificates(U, U.T @ U)
    if planar is None:
        return 0.0
    is_ext, is_open = planar
    far = support_distances(U) > EXTREME_RESIDUAL_FACTOR
    settled = ~is_open
    assert np.array_equal(is_ext[settled], far[settled])
    extreme = set(cones._extreme_set(M, Tolerances())[0])
    assert [rep in extreme for rep in np.array(reps)[settled]] == far[settled].tolist()
    return float(settled.mean())


class TestPlanarCertificates:
    """Rank-3 cones settled from their cross-section polygon: a hull vertex
    by the separation bound along the hull's outward normal, any other
    point by its fan triangle, and what neither settles by the kernel."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(RANDOM_STYLES),
        st.integers(min_value=4, max_value=120),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_per_column_oracle(self, style, n, seed):
        A = random_dn(n, 3, seed=seed, style=style)
        assert list(extreme_rays(A).extreme_indices) == extreme_indices_oracle(A)

    @pytest.mark.parametrize("style", RANDOM_STYLES)
    @pytest.mark.parametrize("n", [12, 40, 120])
    def test_generic_rank3_cone_skips_the_kernel(self, caplog, style, n):
        for seed in range(3):
            A = random_dn(n, 3, seed=seed, style=style)
            caplog.clear()
            with mock.patch.object(cones, "_batched_nnls", wraps=cones._batched_nnls) as kernel:
                with caplog.at_level(logging.DEBUG, logger="cprank.cones"):
                    report = extreme_rays(A)
            assert kernel.call_count == 0
            ((_, fields),) = debug_fields(caplog)
            reps = fields["representatives"]
            if reps > 3:  # a Soules cone has three rays, which the screen settles
                assert fields == {"representatives": reps, "separated": 0, "basis": 0, "planar": reps}
            assert list(report.extreme_indices) == extreme_indices_oracle(A)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.sampled_from(["exact", "outward", "inward"]),
        st.floats(min_value=-9.0, max_value=-6.0),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_points_on_and_near_hull_edges(self, h, count, kind, log_offset, rotate_cone, seed):
        # a point on an edge is a nonnegative combination of its ends, and
        # one 1e-9 to 1e-6 outside is extreme only beyond the factor.  A
        # Lawson-Hanson solve can stop short on a flat chain of such
        # points, so the certificates are held to enumerated distances
        rng = np.random.default_rng(seed)
        V = polygon(rng, h)
        points = list(V) + list(rng.uniform(-0.2, 0.2, (2, 2)))
        for _ in range(count):
            i = int(rng.integers(h))
            a, b = V[i], V[(i + 1) % h]
            outward = np.array([b[1] - a[1], a[0] - b[0]]) / np.linalg.norm(b - a)
            offset = {"exact": 0.0, "outward": 1.0, "inward": -1.0}[kind] * 10.0**log_offset
            points.append(a + rng.uniform(0.05, 0.95) * (b - a) + offset * outward)
        M = plane_columns(np.array(points)[rng.permutation(len(points))], rng, rotate_cone)
        assert assert_planar_certificates_hold(M) > 0.0

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=-13.0, max_value=-6.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_near_duplicate_rays(self, copies, log_gap, seed):
        # a copy of a column turned by the angle whose cosine is 1 - gap:
        # below the duplicate gap it joins its column's ray, above it the
        # pair are two rays that may sit closer than the factor.  A point
        # between near copies is rebuilt by its fan triangle where the
        # kernel can stop short, so the certificates are held to
        # enumerated distances
        rng = np.random.default_rng(seed)
        M = plane_columns(np.vstack([polygon(rng, 6), rng.uniform(-0.2, 0.2, (6, 2))]), rng)
        M /= np.linalg.norm(M, axis=0)
        theta = math.acos(1.0 - 10.0**log_gap)
        cols = list(M.T)
        for _ in range(copies):
            u = M[:, int(rng.integers(M.shape[1]))]
            w = rng.standard_normal(3)
            w -= (w @ u) * u
            cols.append(math.cos(theta) * u + math.sin(theta) * w / np.linalg.norm(w))
        M = np.column_stack([cols[k] for k in rng.permutation(len(cols))])
        assert assert_planar_certificates_hold(M) > 0.0

    @pytest.mark.parametrize("turn", np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False))
    def test_fan_around_the_branch_cut(self, turn):
        # 24 vertices on an arc of 300 degrees and a point inside each
        # triangle of their fan from the first, turned by every twelfth of
        # a turn: for some turns the fan's absolute angles straddle the
        # atan2 branch cut, which angles from the first hull edge avoid
        rng = np.random.default_rng(0)
        arc = turn + np.linspace(0.0, math.radians(300.0), 24)
        V = 0.5 * np.column_stack([np.cos(arc), np.sin(arc)])
        inner = [(V[0] + V[i] + V[i + 1]) / 3.0 for i in range(1, 23)]
        points = np.vstack([V, inner])
        order = rng.permutation(len(points))
        M = plane_columns(points[order], rng, rotate_cone=False)
        with mock.patch.object(cones, "_batched_nnls", wraps=cones._batched_nnls) as kernel:
            extreme = cones._extreme_set(M, Tolerances())[0]
        assert kernel.call_count == 0
        assert extreme == sorted(np.flatnonzero(order < 24).tolist())
        assert extreme == screen_against_oracle(M)[1]

    @pytest.mark.parametrize("offset", [2e-7, 1e-6, 1e-5, 1e-3])
    def test_vertex_missed_by_the_hull_stays_open(self, monkeypatch, offset):
        # a hull that drops a vertex just outside the chord of its
        # neighbours sends it to a fan triangle, which leaves it farther
        # than the factor: only the certificate's residual keeps it open,
        # and the kernel finds it extreme
        rng = np.random.default_rng(5)
        V = polygon(rng, 7)
        a, b = V[2], V[4]
        outward = np.array([b[1] - a[1], a[0] - b[0]]) / np.linalg.norm(b - a)
        V[3] = (a + b) / 2.0 + offset * outward
        M = plane_columns(np.vstack([V, rng.uniform(-0.2, 0.2, (4, 2))]), rng, rotate_cone=False)
        hull = cones._strict_hull

        def missing(x, y):
            vertices = hull(x, y)
            return vertices[vertices != 3]

        monkeypatch.setattr(cones, "_strict_hull", missing)
        U = M / np.linalg.norm(M, axis=0)
        assert cones._planar_certificates(U, U.T @ U)[1][3]
        assert 3 in cones._extreme_set(M, Tolerances())[0]
        assert_planar_certificates_hold(M)

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    @pytest.mark.parametrize("style", RANDOM_STYLES)
    def test_scaled_and_permuted(self, scale, style):
        for seed in range(3):
            A = random_dn(30, 3, seed=seed, style=style).a
            perm = np.random.default_rng(seed).permutation(30)
            expected = extreme_indices_oracle(A)
            assert list(extreme_rays(scale * A).extreme_indices) == expected
            # a permuted column keeps its ray, but a ray's representative
            # is its first column, which may move
            rep_of = cones._extreme_set(sr_factor(A), Tolerances())[1]
            moved = extreme_rays(A[np.ix_(perm, perm)]).extreme_indices
            assert sorted(rep_of[perm[list(moved)]].tolist()) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(RANDOM_STYLES),
        st.integers(min_value=4, max_value=40),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_direction_bound_never_exceeds_the_distance(self, style, n, seed):
        # every bound the planar stage reads, along the hull normals it
        # picks, lies below the vertex's distance from the others' cone
        seen = []
        bound = cones._separation_bound

        def recorded(U, K, V=None, cols=None):
            out = bound(U, K, V, cols)
            seen.append((U, cols, out))
            return out

        with mock.patch.object(cones, "_separation_bound", recorded):
            extreme_rays(random_dn(n, 3, seed=seed, style=style))
        for U, cols, out in seen:
            for j, b in zip(range(U.shape[1]) if cols is None else cols, out):
                others = np.delete(U, j, axis=1)
                dist = np.linalg.norm(others @ active_set_nnls(others, U[:, j]) - U[:, j])
                assert b <= dist + 1e-12

    @pytest.mark.parametrize("M", [
        # every column in the plane of the first two axes: the points of
        # the cross-section lie on one line, and two of them span it
        np.array([[1.0, 0.0, 1.0, 2.0], [0.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]]),
        # a column against the others leaves some cosine sum negative
        np.array([[1.0, 0.0, 0.0, -1.0], [0.0, 1.0, 0.0, -1.0], [0.0, 0.0, 1.0, -1.0]]),
    ], ids=["one-line", "negative-sum"])
    def test_degenerate_cross_section_goes_to_the_screen(self, caplog, M):
        U = M / np.linalg.norm(M, axis=0)
        assert cones._planar_certificates(U, U.T @ U) is None
        with caplog.at_level(logging.DEBUG, logger="cprank.cones"):
            extreme = cones._extreme_set(M, Tolerances())[0]
        assert set(debug_fields(caplog)[0][1]) == {"representatives", "separated", "basis"}
        assert extreme == screen_against_oracle(M)[1] == extreme_by_supports(M)

    @pytest.mark.parametrize("seed", range(6))
    def test_coplanar_columns_certify_no_vertex(self, seed):
        # columns in a plane through the origin that no axis spans: their
        # points lie on a line up to rounding, so the hull may have three
        # vertices or more, but no bound certifies one of them
        rng = np.random.default_rng(seed)
        M = np.linalg.qr(rng.standard_normal((3, 2)))[0] @ rng.uniform(0.1, 1.0, (2, 7))
        U = M / np.linalg.norm(M, axis=0)
        planar = cones._planar_certificates(U, U.T @ U)
        if planar is not None:
            assert not planar[0].any()
        assert cones._extreme_set(M, Tolerances())[0] == extreme_by_supports(M)


def near_parallel_cone(style, r, n, seed, angle, scale=1.0):
    """``random_dn`` of order ``n`` and rank ``r``, with two copies of one
    column ``b_j`` of its rank factor turned by ``+-angle`` about it in a
    seeded plane appended: the Gram matrix of the widened factor, scaled,
    and ``j``.  ``b_j`` is the midpoint of the copies, so it is no
    extreme ray; above 1.5e-6 rad the copies are no duplicates of it."""
    B = sr_factor(random_dn(n, r, seed=seed, style=style))
    rng = np.random.default_rng(seed)
    j = int(rng.integers(n))
    b = B[:, j]
    w = rng.standard_normal(r)
    w -= (w @ b) / (b @ b) * b
    w *= np.linalg.norm(b) / np.linalg.norm(w)
    turned = [math.cos(angle) * b + sign * math.sin(angle) * w for sign in (1.0, -1.0)]
    F = np.column_stack([B, *turned])
    return scale * (F.T @ F), j


class TestNearParallelColumns:
    """The extremality kernel fits a column between two near-parallel
    copies of itself to roundoff: a dual tolerance above roundoff stopped
    it while the fit's residual still exceeded the extremality factor."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(RANDOM_STYLES),
        st.integers(min_value=4, max_value=6),
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=math.log10(1.5e-6), max_value=-4.0),
        st.floats(min_value=-6.0, max_value=6.0),
    )
    # a midpoint that the stop at 1e-11 max|G^T b| listed as extreme
    @example(GRAM_NONNEG, 4, 1, 0, math.log10(1.5e-6), 0.0)
    def test_the_midpoint_is_never_extreme(self, style, r, extra, seed, log_angle, log_scale):
        A, j = near_parallel_cone(style, r, r + extra, seed, 10.0**log_angle, 10.0**log_scale)
        assume(classify_dn(A).is_dn)
        assert j not in extreme_rays(A).extreme_indices


class TestLoneRay:
    @pytest.mark.parametrize("v", [[0.0, 0.5, 2.0, 1.0], [3.0, 1e-3, 0.0, 7.0, 2.0]])
    def test_a_single_representative_skips_the_screen(self, monkeypatch, v):
        # every nonzero column of a rank-1 matrix spans the one ray, which
        # is extreme without a separation bound or a solve
        def refuse(*args, **kwargs):
            raise AssertionError("a lone ray needs no screen")

        for name in ("_separation_bound", "_isotropic_directions", "_batched_nnls"):
            monkeypatch.setattr(cones, name, refuse)
        v = np.array(v)
        assert extreme_rays(np.outer(v, v)).extreme_indices == (int(np.flatnonzero(v)[0]),)


class TestFewRaysFactor:
    @pytest.mark.parametrize("restarts, seed", [(200, -1), (-1, 0)])
    def test_negative_seed_or_restarts_rejected(self, restarts, seed):
        # the identity rotation certifies the diagonal before any restart,
        # so a bad budget went through without a word
        A = np.diag([1.0, 2.0, 3.0])
        with pytest.raises(InvalidInputError, match="must be nonnegative"):
            few_rays_factor(A, extreme_rays(A), seed=seed, restarts=restarts)

    def test_diagonal(self):
        A = np.diag([1.0, 2.0, 3.0])
        report = extreme_rays(A)
        cert = few_rays_factor(A, report)
        assert cert.rows == 3
        assert verify_certificate(A, cert).passed

    def test_rounded_example(self):
        A = example_matrix("EX3_9")
        B = sr_factor(A, ROUNDED_TOL)
        model = B.T @ B
        report = extreme_rays(model)
        cert = few_rays_factor(model, report)
        assert cert.rows == 3
        assert cert.residual <= 1e-6
        assert verify_certificate(model, cert).passed

    def test_rank2_fan_with_two_rays(self):
        angles = np.linspace(0.1, 0.1 + math.pi / 2 - 0.2, 5)
        V = np.vstack([np.cos(angles), np.sin(angles)])
        A = V.T @ V
        report = extreme_rays(A)
        assert report.m == 2
        assert report.extreme_indices == (0, 4)  # the fan edges
        cert = few_rays_factor(A, report)
        assert cert.rows == 2
        assert verify_certificate(A, cert).passed

    def test_too_many_rays_rejected(self):
        A = np.eye(5)
        report = extreme_rays(A)
        with pytest.raises(PreconditionError, match=f"m <= {rotate.FEW_RAYS_MAX}, got 5"):
            few_rays_factor(A, report)

    @pytest.mark.parametrize("A", [
        random_dn(4, 4, seed=5, style=GRAM_NONNEG),  # full rank at order 4
        example_matrix("EX2_7"),  # rank 3, four rays
    ], ids=["full-rank-block", "rank-deficient-block"])
    def test_no_block_matrix_is_built(self, monkeypatch, A):
        # the certificate floor and the cycle bound read the block as an
        # array: factoring the input builds no second matrix
        report = extreme_rays(A)
        assert report.m == 4
        built = []
        original = SymmetricMatrix.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(SymmetricMatrix, "__init__", counted)
        cert = few_rays_factor(A, report)
        assert built == []
        assert verify_certificate(A, cert).passed

    @pytest.fixture
    def graph_calls(self, monkeypatch):
        """Calls of the pattern checks, the cycle check on an array
        included; only the cycle check raises the first row count."""
        from cprank import graphcond

        calls = []
        for name in ("triangle_free_criterion", "cycle_necessary", "_cycle_check"):
            def counted(*args, _fn=getattr(graphcond, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(graphcond, name, counted)
        return calls

    def test_full_rank_block_skips_pattern_checks(self, graph_calls):
        A = random_dn(4, 4, seed=5, style=GRAM_NONNEG)
        report = extreme_rays(A)
        assert report.m == 4
        cert = few_rays_factor(A, report)
        assert cert.rows == 4 and verify_certificate(A, cert).passed
        assert graph_calls == []

    def test_rank_deficient_block_reads_the_cycle(self, graph_calls):
        # the 4-cycle has rank 3 and four rays; its pattern pins the count to 4
        A = example_matrix("EX1_2")
        cert = few_rays_factor(A, extreme_rays(A))
        assert cert.rows == 4 and verify_certificate(A, cert).passed
        assert graph_calls == ["_cycle_check"]
