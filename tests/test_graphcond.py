import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cprank import (
    as_symmetric,
    classify_dn,
    classify_graph,
    cycle_necessary,
    kaykobad_factor,
    triangle_free_criterion,
    verify_certificate,
)
from cprank.fixtures import RANDOM_STYLES, example_matrix, random_dn
from cprank.graphcond import CP, FAILS, NOT_APPLICABLE, PASSES
from conftest import classify_graph_loops, graph_of_loops, kaykobad_rows_loops


def random_diag_dominant(rng, n):
    """Nonnegative symmetric matrix with every row diagonally dominant;
    roughly half the rows are strictly dominant."""
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                A[i, j] = A[j, i] = rng.uniform(0.1, 2.0)
    off = A.sum(axis=1)
    slack = np.where(rng.random(n) < 0.5, rng.uniform(0.5, 2.0, n), 0.0)
    A[np.diag_indices(n)] = off + slack
    return A, slack


class TestGraphOf:
    def test_cycle_pattern(self):
        shape = classify_graph(example_matrix("EX1_2"))
        assert shape.edges == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_k23_pattern(self):
        shape = classify_graph(example_matrix("EX3_3"))
        assert shape.edges == ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))

    def test_diagonal_has_no_edges(self):
        assert classify_graph(np.diag([1.0, 2.0, 3.0])).edges == ()


def pattern_edges(kind, n, rng):
    """Edge set of a hand-made pattern on ``n`` vertices."""
    if kind == "cycle":
        return {tuple(sorted((i, (i + 1) % n))) for i in range(n)} if n >= 3 else set()
    if kind == "tree":
        return {(int(rng.integers(0, j)), j) for j in range(1, n)}
    if kind == "bipartite":  # triangle-free
        side = rng.random(n) < 0.5
        return {(i, j) for i in range(n) for j in range(i + 1, n)
                if side[i] != side[j] and rng.random() < 0.6}
    if kind == "disconnected":  # two random blocks, no edge between them
        cut = int(rng.integers(1, n)) if n >= 2 else n
        return {(i, j) for i in range(n) for j in range(i + 1, n)
                if (i < cut) == (j < cut) and rng.random() < 0.5}
    return {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}


def pattern_matrix(n, edges, rng):
    A = np.diag(rng.uniform(n, 2.0 * n, size=n))
    for i, j in edges:
        A[i, j] = A[j, i] = rng.uniform(0.1, 1.0)
    return A


class TestVectorisedGraphMatchesLoops:
    """``classify_graph`` and the two pattern checks, which read the
    cached zero pattern, against the loop oracles."""

    @staticmethod
    def check(A):
        S = as_symmetric(A)
        shape = classify_graph(A)
        assert shape == classify_graph_loops(S.n, graph_of_loops(A))
        assert all(type(i) is int and type(j) is int for i, j in shape.edges)
        cycle = cycle_necessary(S)
        assert (cycle.status != NOT_APPLICABLE) == (shape.is_cycle and S.n >= 4)
        verdict = classify_dn(S)
        tri = triangle_free_criterion(S)
        assert (tri.status != NOT_APPLICABLE) == (verdict.is_dn and shape.is_triangle_free)
        if tri.status == CP:
            assert tri.cp_rank == max(verdict.rank, len(shape.edges))
        return cycle, tri

    def test_hundred_cycle(self):
        n = 100
        A = pattern_matrix(n, pattern_edges("cycle", n, None), np.random.default_rng(n))
        cycle, tri = self.check(A)
        assert cycle.status == PASSES and cycle.cprk_lower_bound == n
        assert tri.status == CP and tri.cp_rank == n

    @pytest.mark.parametrize("n", [2, 4, 6, 10, 30, 60, 100])
    def test_complete_bipartite(self, n):
        # K_{n/2,n/2}: the triangle-free pattern with the most edges
        half = n // 2
        edges = {(i, j) for i in range(half) for j in range(half, n)}
        cycle, tri = self.check(pattern_matrix(n, edges, np.random.default_rng(n)))
        assert tri.status == CP and tri.cp_rank == max(n, half * half)
        assert (cycle.status == PASSES) == (n == 4)  # K_{2,2} is the 4-cycle

    def test_k33_plus_one_edge(self):
        edges = {(i, j) for i in range(3) for j in range(3, 6)} | {(0, 1)}
        cycle, tri = self.check(pattern_matrix(6, edges, np.random.default_rng(6)))
        assert cycle.status == NOT_APPLICABLE and tri.status == NOT_APPLICABLE

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(RANDOM_STYLES), st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_dn(self, style, n, r, seed):
        self.check(random_dn(n, min(r, n), seed=seed, style=style))

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(["cycle", "tree", "bipartite", "disconnected", "random"]),
           st.integers(min_value=1, max_value=14), st.integers(min_value=0, max_value=2**32 - 1))
    def test_hand_made_patterns(self, kind, n, seed):
        rng = np.random.default_rng(seed)
        edges = pattern_edges(kind, n, rng)
        A = pattern_matrix(n, edges, rng)
        self.check(A)
        shape = classify_graph(A)
        assert shape == classify_graph_loops(n, edges)
        if kind == "cycle" and n >= 3:
            assert shape.is_cycle
        if kind == "tree":
            assert shape.is_tree
        if kind == "bipartite":
            assert shape.is_triangle_free
        if kind == "disconnected" and n >= 2:
            assert not shape.is_connected

    @pytest.mark.parametrize("fid", ["EX1_2", "EX2_7", "EX2_8", "EX3_3", "EX3_7", "EX3_9"])
    def test_fixtures(self, fid):
        self.check(example_matrix(fid))


class TestClassifyGraph:
    def test_cycle(self):
        shape = classify_graph(example_matrix("EX1_2"))
        assert shape.is_cycle and shape.is_triangle_free and not shape.is_tree

    def test_k23(self):
        shape = classify_graph(example_matrix("EX3_3"))
        assert not shape.is_cycle and shape.is_triangle_free and not shape.is_tree
        assert shape.is_connected

    def test_path(self):
        A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        shape = classify_graph(A)
        assert shape.is_tree and shape.is_triangle_free and not shape.is_cycle

    def test_triangle(self):
        A = np.ones((3, 3))
        shape = classify_graph(A)
        assert not shape.is_triangle_free


class TestCycleNecessary:
    def test_equality_case_passes(self):
        check = cycle_necessary(example_matrix("EX1_2"))
        assert check.status == PASSES
        assert check.off_diag_sum == 8.0 and check.diag_sum == 8.0
        assert check.cprk_lower_bound == 4

    def test_heavy_offdiagonal_fails(self):
        A = np.array(
            [[1.0, 1, 0, 1], [1, 1, 1, 0], [0, 1, 1, 1], [1, 0, 1, 1]]
        )
        check = cycle_necessary(A)
        assert check.status == FAILS  # off-diagonal 8 beats trace 4

    def test_triangle_not_applicable(self):
        assert cycle_necessary(np.ones((3, 3))).status == NOT_APPLICABLE

    def test_positive_scaling_never_flips(self):
        rng = np.random.default_rng(5)
        base = example_matrix("EX1_2").a
        heavy = np.array([[1.0, 1, 0, 1], [1, 1, 1, 0], [0, 1, 1, 1], [1, 0, 1, 1]])
        for A in (base, heavy):
            ref = cycle_necessary(A).status
            for _ in range(20):
                lam = float(rng.uniform(1e-3, 1e3))
                assert cycle_necessary(lam * A).status == ref


class TestTriangleFreeCriterion:
    def test_k23_exact_cp_rank(self):
        result = triangle_free_criterion(example_matrix("EX3_3"))
        assert result.status == CP
        assert result.cp_rank == 6  # max(rank 5, 6 edges)

    def test_cycle_matrix_exact_cp_rank(self):
        result = triangle_free_criterion(example_matrix("EX1_2"))
        assert result.status == CP
        assert result.cp_rank == 4  # max(rank 3, 4 edges)

    def test_triangle_not_applicable(self):
        assert triangle_free_criterion(np.ones((3, 3))).status == NOT_APPLICABLE

    def test_not_cp_when_comparison_indefinite(self):
        # 5-cycle: triangle-free but not bipartite, so the comparison matrix
        # can go indefinite while the matrix itself stays PSD
        adj = np.zeros((5, 5))
        for i in range(5):
            adj[i, (i + 1) % 5] = adj[(i + 1) % 5, i] = 0.9
        A = 1.5 * np.eye(5) + adj
        from cprank import classify_dn, comparison_matrix, psd_rank

        assert classify_dn(A).is_dn
        assert not psd_rank(comparison_matrix(A)).is_psd
        assert triangle_free_criterion(A).status == "NOT_CP"


class TestKaykobad:
    def test_two_by_two(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        cert = kaykobad_factor(A)
        assert cert.rows == 3  # one edge row plus two strict rows
        assert sorted(cert.C.tolist()) == [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        assert np.array_equal(cert.C.T @ cert.C, A)

    def test_cycle_matrix(self):
        A = example_matrix("EX1_2")
        cert = kaykobad_factor(A)
        assert cert.rows == 4  # four edges, no strictly dominant row
        assert cert.residual == 0.0

    def test_not_dominant(self):
        assert kaykobad_factor(np.array([[1.0, 2.0], [2.0, 1.0]])) is None

    def test_row_count_formula_random(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            A, slack = random_diag_dominant(rng, n)
            cert = kaykobad_factor(A)
            assert cert is not None
            edges = len(classify_graph(A).edges)
            strict = int(np.count_nonzero(slack > 0))
            assert cert.rows == edges + strict
            assert cert.residual <= 1e-12
            assert verify_certificate(A, cert).passed

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34, 60])
    def test_rows_match_the_loop_oracle(self, n):
        rng = np.random.default_rng(n)
        A, _ = random_diag_dominant(rng, n)
        cases = [A, np.diag(np.diag(A)) + np.eye(n)]  # the second has no edge
        for A in cases:
            cert = kaykobad_factor(A)
            expected = kaykobad_rows_loops(A)
            assert cert.C.shape == expected.shape
            assert cert.C.tobytes() == expected.tobytes()


class TestConsistencyTriangle:
    def test_cycle_matrix_all_three_agree(self):
        A = example_matrix("EX1_2")
        bound = cycle_necessary(A).cprk_lower_bound
        exact = triangle_free_criterion(A).cp_rank
        rows = kaykobad_factor(A).rows
        assert bound == exact == rows == 4
