import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cprank import (
    IN_CP_N3,
    InvalidInputError,
    PreconditionError,
    boundary_witness,
    decide_rank3_three_rays,
    e_cone_threshold,
    extreme_rays,
    few_rays_factor,
    householder_align,
    in_e_cone,
    orthant_rotation_search,
    random_orthogonal,
    rowsum_condition,
    rowsum_factor,
    sr_factor,
    verify_certificate,
)
from cprank import rotate
from cprank.fixtures import RANDOM_STYLES, example_matrix, random_dn
from cprank.rotate import FEW_RAYS_MAX, POLAR_ITERATIONS, _least_distance
from conftest import (
    active_set_nnls,
    assert_rotates_the_rank_factor,
    cone_sampled_vectors,
    dn_rank2_instance,
)


# the textbook doubly nonnegative 5-cycle matrix that is not completely
# positive
FIVE_CYCLE = np.array(
    [
        [1.0, 1.0, 0.0, 0.0, 1.0],
        [1.0, 2.0, 1.0, 0.0, 0.0],
        [0.0, 1.0, 2.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 2.0, 1.0],
        [1.0, 0.0, 0.0, 1.0, 6.0],
    ]
)


def sample_in_cone(rng, r, count):
    """Vectors whose cosine with the all-ones axis is drawn at or above the
    nonnegativity threshold."""
    axis = np.ones(r) / math.sqrt(r)
    cos = rng.uniform(e_cone_threshold(r), 1.0, size=count)
    out = np.empty((count, r))
    for i in range(count):
        y = rng.standard_normal(r)
        y -= (y @ axis) * axis
        norm = np.linalg.norm(y)
        y = y / norm if norm > 0 else np.zeros(r)
        s = math.sqrt(max(0.0, 1.0 - cos[i] ** 2))
        out[i] = cos[i] * axis + s * y
    return out


class TestECone:
    def test_boundary_equality_r2(self):
        z = np.array([1.0, 0.0])
        assert in_e_cone(z)
        assert z.min() >= 0

    def test_below_threshold_witness_r3(self):
        z = np.array([-0.1 * math.sqrt(2.0), math.sqrt(0.99), math.sqrt(0.99)])
        cos = z.sum() / (np.linalg.norm(z) * math.sqrt(3))
        assert abs(cos - 0.7547) < 5e-4  # below sqrt(2/3) ~ 0.8165
        assert not in_e_cone(z)

    def test_axis_itself(self):
        for r in range(1, 7):
            assert in_e_cone(np.ones(r))

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidInputError):
            in_e_cone(np.zeros(3))

    @pytest.mark.parametrize("z", [[], [np.nan, 1.0], [np.inf, 1.0]])
    def test_empty_or_non_finite_vector_rejected(self, z):
        # [nan, 1] answered False before
        with pytest.raises(InvalidInputError):
            in_e_cone(z)

    def test_membership_implies_nonnegative(self):
        rng = np.random.default_rng(0)
        for r in range(2, 9):
            Z = sample_in_cone(rng, r, 500)
            for z in Z:
                assert in_e_cone(z)
            assert Z.min() >= -1e-12


class TestBoundaryWitness:
    @pytest.mark.parametrize("r,c", [(2, 0.5), (3, 0.8), (5, 0.0)])
    def test_witness_properties(self, r, c):
        z = boundary_witness(r, c)
        assert z.min() < 0
        assert z.sum() > c * np.linalg.norm(z) * math.sqrt(r)

    def test_threshold_is_sharp(self):
        # just below the threshold a negative-entry witness always exists
        for r in range(2, 7):
            c = 0.99 * e_cone_threshold(r)
            z = boundary_witness(r, c)
            assert z.min() < 0
            assert z.sum() > c * np.linalg.norm(z) * math.sqrt(r)

    def test_at_threshold_rejected(self):
        with pytest.raises(InvalidInputError):
            boundary_witness(3, e_cone_threshold(3))

    @pytest.mark.parametrize("r", [2.5, 3.0, "3", None, float("nan")])
    def test_dimension_must_be_an_integer(self, r):
        # boundary_witness(2.5, 0.1) raised numpy's TypeError, and
        # e_cone_threshold(2.5) answered sqrt(1.5 / 2.5)
        with pytest.raises(InvalidInputError, match="dimension must be an integer"):
            boundary_witness(r, 0.1)
        with pytest.raises(InvalidInputError, match="dimension must be an integer"):
            e_cone_threshold(r)

    @pytest.mark.parametrize("r", [np.int32(3), np.int64(3), np.uint8(3)])
    def test_numpy_integer_dimension_accepted(self, r):
        assert e_cone_threshold(r) == e_cone_threshold(3)
        assert np.array_equal(boundary_witness(r, 0.5), boundary_witness(3, 0.5))


class TestHouseholderAlign:
    def test_already_aligned(self):
        plan = householder_align(np.ones(3))
        assert np.array_equal(plan.Q, np.eye(3))
        assert plan.v.size == 0

    def test_r2_unit_vector(self):
        plan = householder_align(np.array([1.0, 0.0]))
        assert np.allclose(plan.Q @ np.array([1.0, 0.0]), [1 / math.sqrt(2)] * 2)

    def test_axis_vector_r3(self):
        x = np.array([0.0, 0.0, 5.0])
        plan = householder_align(x)
        assert np.allclose(plan.Q @ x, 5.0 / math.sqrt(3) * np.ones(3), atol=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            householder_align(np.zeros(4))

    @pytest.mark.parametrize("x", [[], [np.nan, 1.0], [np.inf, 1.0]])
    def test_empty_or_non_finite_rejected(self, x):
        # [nan, 1] returned a NaN Q before
        with pytest.raises(InvalidInputError, match="finite nonzero norm"):
            householder_align(x)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0))
    def test_reflection_involution_and_cosines(self, r, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(r)
        if np.linalg.norm(x) < 1e-6:
            x = np.ones(r)
        plan = householder_align(x)
        if plan.v.size:
            assert np.abs(plan.Q @ plan.Q - np.eye(r)).max() <= 1e-12
        beta = rng.standard_normal(r)
        lhs = float((plan.Q @ beta) @ (plan.Q @ x))
        rhs = float(beta @ x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestRowsum:
    def test_condition_on_rank3_examples(self):
        ok, data = rowsum_condition(example_matrix("EX2_7"))
        assert ok
        assert np.array_equal(data.row_sums, [220, 156, 172, 201])
        assert data.total == 749
        ok, _ = rowsum_condition(example_matrix("EX2_8"))
        assert ok

    def test_condition_fails_on_spread_diagonal(self):
        ok, _ = rowsum_condition(np.diag([100.0, 1.0]), r=2)
        assert not ok

    @pytest.mark.parametrize("r", [-2, 2.5, 3.0, "3"])
    def test_rank_must_be_a_nonnegative_integer(self, r):
        # EX1_2 is not in CP_{4,3}; a bad r must not answer for it
        with pytest.raises(InvalidInputError, match="nonnegative integer"):
            rowsum_condition(example_matrix("EX1_2"), r)

    def test_zero_rank_holds(self):
        ok, data = rowsum_condition(np.zeros((3, 3)), 0)
        assert ok and data.total == 0.0

    @pytest.mark.parametrize("entry", [0.0, 1e-12])
    def test_zero_rows_hold_and_add_nothing(self, entry):
        # a row at most eps_nonneg * scale counts as exactly 0, as in the
        # rank factor: tiny sums would fail r R_i^2 >= (r - 1) a_ii total
        A = example_matrix("EX2_7").a
        scale = np.abs(A).max()
        padded = np.insert(np.insert(A, 2, 0.0, axis=0), 2, 0.0, axis=1)
        padded[2, 2] = padded[2, 0] = padded[0, 2] = entry * scale
        ok, data = rowsum_condition(padded, 3)
        assert ok
        assert np.array_equal(data.row_sums, [220, 156, 0, 172, 201])
        assert data.total == 749
        cert = rowsum_factor(padded)
        assert cert.rows == 3 and np.all(cert.C[:, 2] == 0.0)
        assert verify_certificate(padded, cert).passed

    def test_factor_rank3_examples(self):
        for fid in ("EX2_7", "EX2_8"):
            A = example_matrix(fid)
            cert = rowsum_factor(A)
            assert cert.rows == 3
            assert cert.residual <= 1e-10
            assert verify_certificate(A, cert).passed

    def test_factor_all_ones(self):
        cert = rowsum_factor(np.ones((3, 3)))
        assert cert.rows == 1
        assert np.allclose(cert.C, np.ones((1, 3)), atol=1e-12)

    def test_factor_requires_condition(self):
        with pytest.raises(PreconditionError):
            rowsum_factor(np.diag([100.0, 1.0]))

    def test_soundness_on_random_dn(self):
        rng = np.random.default_rng(21)
        tried = 0
        for _ in range(200):
            r = int(rng.integers(1, 5))
            n = int(rng.integers(r, 9))
            G = rng.uniform(0.0, 1.0, size=(r, n))
            A = G.T @ G
            ok, _ = rowsum_condition(A)
            if not ok:
                continue
            tried += 1
            cert = rowsum_factor(A)
            report = verify_certificate(A, cert)
            assert report.passed and cert.rows == r
        assert tried > 20  # the generator hits the condition often enough


class TestRank2Factor:
    """A DN matrix of rank 2 has at most two extreme rays, so the few-rays
    factorization certifies it with two rows."""

    def test_three_vector_fan(self):
        V = np.array([[1.0, 0.0, 1.0 / math.sqrt(2)], [0.0, 1.0, 1.0 / math.sqrt(2)]])
        A = V.T @ V
        cert = few_rays_factor(A, extreme_rays(A))
        assert cert.rows == 2
        assert verify_certificate(A, cert).passed

    def test_diagonal(self):
        A = np.diag([100.0, 1.0])
        cert = few_rays_factor(A, extreme_rays(A))
        rows = sorted(cert.C.tolist())
        assert np.allclose(rows, [[0.0, 1.0], [10.0, 0.0]], atol=1e-12)

    def test_fifty_vector_fan(self):
        rng = np.random.default_rng(3)
        A = dn_rank2_instance(rng, 50)
        cert = few_rays_factor(A, extreme_rays(A))
        assert cert.rows == 2
        assert verify_certificate(A, cert).passed

    def test_totality_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            A = dn_rank2_instance(rng, n)
            cert = few_rays_factor(A, extreme_rays(A))
            assert verify_certificate(A, cert).passed


class TestFewRaysCertificate:
    """The few-rays certificate is the rotation of the padded extreme
    block applied to the whole padded rank factor."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(RANDOM_STYLES),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_random_dn(self, style, r, extra, seed):
        A = random_dn(min(r + extra, 10), r, seed=seed, style=style)
        report = extreme_rays(A)
        assume(report.m <= FEW_RAYS_MAX)
        assert_rotates_the_rank_factor(A, few_rays_factor(A, report), report.m)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=2**16))
    def test_rank3_three_rays(self, k, seed):
        # three well-conditioned nonnegative rays and k columns strictly
        # inside their cone, rotated and shuffled
        rng = np.random.default_rng(seed)
        X = np.eye(3) + rng.uniform(0.0, 0.5, size=(3, 3))
        G = np.hstack([X, X @ rng.uniform(0.05, 1.0, size=(3, k))])
        G = random_orthogonal(3, rng) @ G[:, rng.permutation(3 + k)]
        A = G.T @ G
        decision = decide_rank3_three_rays(A)
        assert decision.status == IN_CP_N3 and decision.m == 3
        assert decision.certificate.rows == 3
        assert_rotates_the_rank_factor(A, decision.certificate, 3)


class TestSmallOrthantRotation:
    """k vectors in dimension k <= 4 with pairwise nonnegative inner
    products: a rotation into the orthant always exists."""

    def test_standard_basis(self):
        Q = orthant_rotation_search(np.eye(3))
        assert Q is not None
        assert (Q @ np.eye(3)).min() >= -1e-9

    def test_cholesky_with_negative_entry(self):
        A = np.array([[1.0, 0.1, 0.1], [0.1, 1.0, 0.0], [0.1, 0.0, 1.0]])
        L = np.linalg.cholesky(A)
        B = L.T  # upper-triangular factor of A: columns are Gram vectors
        assert B.min() < 0  # the raw factor does carry a negative entry
        Q = orthant_rotation_search(B)
        assert Q is not None
        assert (Q @ B).min() >= -1e-9
        assert np.abs(Q.T @ Q - np.eye(3)).max() <= 1e-10

    def test_planted_rotation_k4(self):
        rng = np.random.default_rng(8)
        N = rng.uniform(0.0, 1.0, size=(4, 4))
        Q0 = random_orthogonal(4, rng)
        B = Q0 @ N
        Q = orthant_rotation_search(B, seed=1)
        assert Q is not None
        assert (Q @ B).min() >= -1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        B = cone_sampled_vectors(rng, 3, 3)
        Q1 = orthant_rotation_search(B, seed=5)
        Q2 = orthant_rotation_search(B, seed=5)
        assert np.array_equal(Q1, Q2)

    def test_one_dimensional_family_reflects_or_refuses(self, caplog):
        # in dimension 1 the only rotations are +-1: an all-negative row
        # is reflected, a row of both signs has no rotation, and neither
        # runs a restart
        with caplog.at_level(logging.DEBUG, logger="cprank.rotate"):
            Q = orthant_rotation_search(np.array([[-1.0, -2.0, -0.5]]))
            assert "outcome=reflection restarts=0 steps=0" in caplog.records[-1].getMessage()
            assert orthant_rotation_search(np.array([[-1.0, 2.0, -0.5]])) is None
            assert "outcome=none restarts=0 steps=0" in caplog.records[-1].getMessage()
        assert np.array_equal(Q, [[-1.0]])

    def test_empty_input_returns_the_empty_rotation(self):
        Q = orthant_rotation_search(np.zeros((0, 0)))
        assert Q is not None
        assert Q.shape == (0, 0)


class TestOrthantRotationSearch:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_planted_families(self, data):
        # B = Q0^T N with N >= 0, so Q0 itself rotates B into the orthant
        d = data.draw(st.integers(min_value=2, max_value=8), label="d")
        m = data.draw(st.integers(min_value=d, max_value=3 * d), label="m")
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        N = rng.uniform(0.0, 1.0, size=(d, m))
        B = random_orthogonal(d, rng).T @ N
        eps = 1e-11
        Q = orthant_rotation_search(B, seed=seed % 997, eps=eps)
        assert Q is not None
        assert np.linalg.norm(Q.T @ Q - np.eye(d)) <= 1e-12
        assert (Q @ B).min() >= -eps
        assert np.array_equal(Q, orthant_rotation_search(B, seed=seed % 997, eps=eps))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_planted_cubed_uniform_families(self, data):
        # N = U^3 entrywise piles mass near the orthant's faces, where
        # alternating projections stall on infeasible fixed points within
        # 20 restarts and Douglas-Rachford does not
        d = data.draw(st.integers(min_value=5, max_value=8), label="d")
        m = data.draw(st.integers(min_value=d, max_value=3 * d), label="m")
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        N = rng.uniform(0.0, 1.0, size=(d, m)) ** 3
        B = random_orthogonal(d, rng).T @ N
        eps = 1e-11
        Q = orthant_rotation_search(B, restarts=20, seed=seed % 997, eps=eps)
        assert Q is not None
        assert np.linalg.norm(Q.T @ Q - np.eye(d)) <= 1e-12
        assert (Q @ B).min() >= -eps

    @pytest.mark.parametrize("d, m, seed", [(5, 14, 142882), (6, 15, 54348)])
    def test_polish_passes_where_every_restart_hovers(self, caplog, d, m, seed):
        # two draws of the cubed-uniform family above on which all 20
        # Douglas-Rachford restarts end 1e-5 to 1e-3 outside the orthant;
        # the Newton polish of their nearest rotations passes
        rng = np.random.default_rng(seed)
        N = rng.uniform(0.0, 1.0, size=(d, m)) ** 3
        B = random_orthogonal(d, rng).T @ N
        eps = 1e-11
        with caplog.at_level(logging.DEBUG, logger="cprank.rotate"):
            Q = orthant_rotation_search(B, restarts=20, seed=seed % 997, eps=eps)
        assert "outcome=polish restarts=20" in caplog.records[-1].getMessage()
        assert np.linalg.norm(Q.T @ Q - np.eye(d)) <= 1e-12
        assert (Q @ B).min() >= -eps

    def test_least_distance_solves_or_refuses(self):
        # s >= 1 and s <= -1 in one coordinate have no common point; with
        # the second row relaxed to s >= -1 the least-norm point is (1, 0)
        G = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert _least_distance(G, np.array([1.0, 1.0])) is None
        s = _least_distance(G, np.array([1.0, -1.0]))
        assert np.allclose(s, [1.0, 0.0], rtol=0.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_least_distance_matches_an_independent_nnls(self, data):
        # the same reduction to E u ~ f, solved by the per-problem oracle;
        # a feasible h lies below G s0, an infeasible one asks g s >= a and
        # -g s >= b with a + b = 1 for one row pair
        feasible = data.draw(st.booleans(), label="feasible")
        rows = data.draw(st.integers(min_value=0 if feasible else 2, max_value=40), label="rows")
        n = data.draw(st.integers(min_value=1, max_value=8), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        G = rng.standard_normal((rows, n))
        if feasible:
            slack = np.where(rng.random(rows) < 0.5, 0.0, rng.random(rows))
            h = G @ rng.standard_normal(n) - slack
        else:
            h = rng.standard_normal(rows)
            G[1] = -G[0]
            h[1] = 1.0 - h[0]
        s = _least_distance(G, h)
        if rows == 0:
            assert np.array_equal(s, np.zeros(n))
            return
        E = np.vstack([G.T, h[None, :]])
        f = np.zeros(n + 1)
        f[-1] = 1.0
        r = E @ active_set_nnls(E, f) - f
        if r[-1] > -1e-12:
            assert s is None
            return
        want = -r[:-1] / r[-1]
        assert s is not None
        assert (G @ s >= h - 1e-9).all()
        norm, target = np.linalg.norm(s), np.linalg.norm(want)
        assert abs(norm - target) <= 1e-9 * max(norm, target)

    @pytest.mark.parametrize("seed", range(5))
    def test_noise_column_is_left_out(self, seed):
        # a column of rounding noise stays above -eps under every rotation;
        # scaled up to a unit vector it would be one more random direction
        # the rotation has to fit into the orthant
        A = random_dn(10, 5, seed=seed).a
        B = sr_factor(A)
        eps = 1e-9 * math.sqrt(np.abs(A).max())
        noise = 1e-16 * np.random.default_rng(seed).standard_normal((B.shape[0], 1))
        padded = np.hstack([B[:, :4], noise, B[:, 4:]])
        Q = orthant_rotation_search(padded, restarts=20, eps=eps)
        assert Q is not None
        assert (Q @ padded).min() >= -eps

    def test_more_than_a_quarter_turn_has_no_rotation(self):
        # two plane vectors 100 degrees apart: their inner product is
        # negative, so no orthogonal map puts both in the quadrant
        t = math.radians(100.0)
        B = np.array([[1.0, math.cos(t)], [0.0, math.sin(t)]])
        assert orthant_rotation_search(B, restarts=3) is None

    @pytest.mark.parametrize("name", ["quarter_turn_exceeded", "EX1_2"])
    def test_stalled_restarts_end_early(self, monkeypatch, name):
        # neither input has a rotation into the orthant: the plane pair is
        # 100 degrees apart, and EX1_2 has cp-rank 4 above its rank 3, so
        # every restart settles on an infeasible fixed point of the polar
        # step and must end there instead of running all its steps
        if name == "EX1_2":
            B = sr_factor(example_matrix("EX1_2"))
        else:
            t = math.radians(100.0)
            B = np.array([[1.0, math.cos(t)], [0.0, math.sin(t)]])
        calls = []
        svd = rotate.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        # one SVD per Douglas-Rachford step
        monkeypatch.setattr(rotate, "svd", counting_svd)
        restarts = 4
        assert orthant_rotation_search(B, restarts=restarts) is None
        assert 0 < len(calls) < restarts * POLAR_ITERATIONS // 2

    @pytest.mark.parametrize("name", ["EX1_2", "five_cycle_plus_1e-3_J"])
    def test_failing_path_cost(self, monkeypatch, name):
        # neither matrix is in CP_{n,r}: EX1_2 has cp-rank 4 above its
        # rank 3, and the DN 5-cycle matrix A0 + 1e-3 J is not CP at all,
        # so every restart fails and must stop well before its step cap
        if name == "EX1_2":
            A = example_matrix("EX1_2")
        else:
            A = FIVE_CYCLE + 1e-3 * np.ones((5, 5))
        B = sr_factor(A)
        calls = []
        svd = rotate.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(rotate, "svd", counting_svd)
        restarts = 12
        assert orthant_rotation_search(B, restarts=restarts) is None
        assert 0 < len(calls) < restarts * POLAR_ITERATIONS // 8

    @pytest.mark.parametrize("restarts, seed", [(3, -1), (-2, 0)])
    def test_negative_seed_or_restarts_rejected(self, restarts, seed):
        # a negative seed raised numpy's ValueError at the second restart,
        # and a negative restart count returned None without a word
        B = sr_factor(FIVE_CYCLE + 1e-3 * np.ones((5, 5)))
        name = "seed" if seed < 0 else "restarts"
        with pytest.raises(InvalidInputError, match=f"{name} must be nonnegative"):
            orthant_rotation_search(B, restarts=restarts, seed=seed)

    @pytest.mark.parametrize("restarts, seed", [(2.5, 0), (3, 1.0), (3, "1"), (None, 0)])
    def test_non_integer_seed_or_restarts_rejected(self, restarts, seed):
        # a float restart count raised a bare TypeError from range
        B = sr_factor(FIVE_CYCLE + 1e-3 * np.ones((5, 5)))
        name = "restarts" if isinstance(seed, int) else "seed"
        with pytest.raises(InvalidInputError, match=f"{name} must be an integer"):
            orthant_rotation_search(B, restarts=restarts, seed=seed)

    def test_numpy_integer_seed_and_restarts_accepted(self):
        B = sr_factor(FIVE_CYCLE + 1e-3 * np.ones((5, 5)))
        assert orthant_rotation_search(B, restarts=np.int64(2), seed=np.int32(1)) is None

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1e-11])
    def test_non_finite_or_negative_eps_rejected(self, eps):
        # with eps NaN no column counted as live and the identity came back
        # as if it passed; a negative eps searched every restart for nothing
        with pytest.raises(InvalidInputError, match="eps must be finite and nonnegative"):
            orthant_rotation_search(np.array([[1.0, -1.0], [0.5, 0.5]]), eps=eps)

    @pytest.mark.parametrize("B", [[[math.nan, 1.0], [1.0, 1.0]], [[math.inf, -1.0], [1.0, 1.0]]])
    def test_non_finite_columns_rejected(self, B):
        # a NaN made the QR attempt's SVD fail to converge, and an infinity
        # warned and then failed the same way
        with pytest.raises(InvalidInputError, match="finite"):
            orthant_rotation_search(np.array(B))

    def test_one_debug_line_per_call(self, caplog):
        t = math.radians(100.0)
        plane_pair = np.array([[1.0, math.cos(t)], [0.0, math.sin(t)]])
        with caplog.at_level(logging.DEBUG, logger="cprank"):
            assert orthant_rotation_search(np.eye(3)) is not None
            assert orthant_rotation_search(plane_pair, restarts=2) is None
        # the plane pair's polish solves through cones._batched_nnls, which
        # logs its own lines to cprank.cones
        lines = [r.getMessage() for r in caplog.records if r.name == "cprank.rotate"]
        assert len(lines) == 2
        assert "outcome=identity restarts=0 steps=0" in lines[0]
        assert "outcome=none restarts=2 steps=" in lines[1]
        assert int(lines[1].rsplit("=", 1)[1]) > 0

    def test_library_logger_has_a_null_handler(self):
        handlers = logging.getLogger("cprank").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)


class TestRandomOrthogonal:
    def test_orthogonality(self):
        rng = np.random.default_rng(0)
        for k in range(1, 6):
            Q = random_orthogonal(k, rng)
            assert np.abs(Q.T @ Q - np.eye(k)).max() <= 1e-12

    @pytest.mark.parametrize("k", range(1, 9))
    def test_rotates_its_draw_to_a_nonnegative_triangle(self, k):
        # Q is the QR factor of a standard normal draw with each column
        # signed so that R has a nonnegative diagonal: Q^T G = R
        Q = random_orthogonal(k, np.random.default_rng(k))
        G = np.random.default_rng(k).standard_normal((k, k))
        assert np.abs(Q.T @ Q - np.eye(k)).max() <= 1e-12
        R = Q.T @ G
        assert np.abs(np.tril(R, -1)).max(initial=0.0) <= 1e-12 * np.abs(G).max()
        assert (np.diag(R) >= 0.0).all()

    def test_order_zero(self):
        assert random_orthogonal(0, np.random.default_rng(0)).shape == (0, 0)


class TestQrRotation:
    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("extra", [-1, 0, 3])
    def test_orthogonal_to_an_upper_triangle_with_nonnegative_diagonal(self, d, extra):
        B = np.random.default_rng(10 * d + extra).standard_normal((d, d + extra))
        Q = rotate._qr_rotation(B)
        assert Q.shape == (d, d)
        assert np.abs(Q @ Q.T - np.eye(d)).max() <= 1e-12
        R = Q @ B
        assert np.abs(np.tril(R, -1)).max(initial=0.0) <= 1e-12 * np.abs(B).max(initial=1.0)
        assert (np.diag(R) >= 0.0).all()

    @pytest.mark.parametrize("d", range(2, 6))
    def test_rank_deficient_input(self, d):
        # repeated columns leave zeros on R's diagonal, whose sign is taken
        # as +1, so Q is still a rotation to a nonnegative triangle
        B = np.repeat(np.random.default_rng(d).standard_normal((d, 1)), d, axis=1)
        B[:, -1] = 0.0
        Q = rotate._qr_rotation(B)
        assert np.abs(Q @ Q.T - np.eye(d)).max() <= 1e-12
        R = Q @ B
        assert np.abs(np.tril(R, -1)).max() <= 1e-12 * np.abs(B).max()
        assert (np.diag(R) >= -1e-12 * np.abs(B).max()).all()
        assert R[0, 0] > 0.0
