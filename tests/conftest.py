"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math

import numpy as np

from cprank import DEFAULT_TOL, as_symmetric, psd_rank, random_orthogonal, sr_factor
from cprank.graphcond import GraphShape, MatrixGraph
from cprank.nnq import EPS_DET_FACTOR, FOUND, NONE, NnqSearchResult, NnqWitness


def random_symmetric(rng: np.random.Generator, n: int, scale: float = 2.0) -> np.ndarray:
    M = rng.standard_normal((n, n)) * scale
    return (M + M.T) / 2.0


def dn_rank2_instance(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gram matrix of n plane vectors confined to one quarter turn, so all
    pairwise inner products are nonnegative and the rank is 2."""
    base = rng.uniform(0.0, 2.0 * math.pi)
    angles = base + rng.uniform(0.0, math.pi / 2.0, size=n)
    radii = rng.uniform(0.3, 3.0, size=n)
    V = np.vstack([radii * np.cos(angles), radii * np.sin(angles)])
    return V.T @ V


def cone_sampled_vectors(rng: np.random.Generator, r: int, n: int,
                         radii=None) -> np.ndarray:
    """n vectors inside the nonnegativity cone around the all-ones axis of
    R^r, then randomly rotated; their Gram matrix is DN by construction and
    a rotation into the orthant is guaranteed to exist."""
    threshold = math.sqrt((r - 1) / r)
    axis = np.ones(r) / math.sqrt(r)
    if radii is None:
        radii = rng.uniform(0.5, 2.0, size=n)
    Z = np.empty((r, n))
    for i in range(n):
        cos = rng.uniform(threshold, 1.0)
        y = rng.standard_normal(r)
        y -= (y @ axis) * axis
        norm = np.linalg.norm(y)
        y = y / norm if norm > 0 else np.zeros(r)
        Z[:, i] = radii[i] * (cos * axis + math.sqrt(1.0 - cos * cos) * y)
    M = rng.standard_normal((r, r))
    q, rr = np.linalg.qr(M)
    q = q * np.sign(np.diag(rr))
    return q @ Z


def hull_extreme_indices(B: np.ndarray) -> list[int]:
    """Independent extreme-ray oracle for a pointed rank-3 cone.

    Projects the generators onto the cross-section plane orthogonal to
    their sum direction and runs a Graham scan with strict turns, so
    points interior to hull edges (nonnegative combinations of the
    endpoints) do not count as vertices.
    """
    B = np.asarray(B, dtype=float)
    n = B.shape[1]
    c = B.sum(axis=1)
    c = c / np.linalg.norm(c)
    dots = c @ B
    assert np.all(dots > 0), "cross-section direction must see every generator"
    P = B / dots  # points on the plane <c, p> = 1
    u = np.array([1.0, 0.0, 0.0]) - c[0] * c
    if np.linalg.norm(u) < 1e-8:
        u = np.array([0.0, 1.0, 0.0]) - c[1] * c
    u = u / np.linalg.norm(u)
    v = np.cross(c, u)
    pts = np.vstack([u @ P, v @ P]).T  # (n, 2)

    order = sorted(range(n), key=lambda i: (pts[i, 0], pts[i, 1]))
    span = max(1.0, float(np.abs(pts).max()))
    eps = 1e-9 * span * span

    def cross(o, a, b):
        return (pts[a, 0] - pts[o, 0]) * (pts[b, 1] - pts[o, 1]) - (
            pts[a, 1] - pts[o, 1]
        ) * (pts[b, 0] - pts[o, 0])

    def half(indices):
        chain: list[int] = []
        for i in indices:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], i) <= eps:
                chain.pop()
            chain.append(i)
        return chain[:-1]

    lower = half(order)
    upper = half(order[::-1])
    return sorted(set(lower + upper))


def nnq_scan(M, r, gram, tol=DEFAULT_TOL, collect_all=False):
    """Exhaustive nnq oracle: every ``r``-subset of columns in
    lexicographic order.

    ``M`` is Gram data (basis ``M[s,s]``) or a factor (basis ``M[:, s]``).
    Returns the result for the lexicographically first qualifying basis
    and the list of qualifying index tuples (all of them with
    ``collect_all``, else only the first).
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[1]
    hits = []
    first = None
    for sigma in itertools.combinations(range(n), r):
        idx = list(sigma)
        basis = M[np.ix_(idx, idx)] if gram else M[:, idx]
        det = float(np.linalg.det(basis))
        if abs(det) <= EPS_DET_FACTOR * float(np.prod(np.linalg.norm(basis, axis=0))):
            continue
        P = np.linalg.solve(basis, M[idx, :] if gram else M)
        if float(P.min(initial=0.0)) >= -tol.eps_nonneg:
            if first is None:
                first = NnqWitness(indices=sigma, detval=det, P=P, B1=basis)
            hits.append(sigma)
            if not collect_all:
                break
    if first is None:
        return NnqSearchResult(status=NONE), hits
    return NnqSearchResult(status=FOUND, witness=first), hits


def nnq_scan_gram(A, tol=DEFAULT_TOL):
    """The exhaustive oracle on Gram data, at the numerical rank of ``A``."""
    S = as_symmetric(A, tol)
    return nnq_scan(S.a, psd_rank(S, tol).rank, gram=True, tol=tol)[0]


def nnq_invariance_check(A, tol=DEFAULT_TOL, seed=0):
    """Confirm that nnq detection does not depend on the factor chosen.

    Runs the exhaustive scan on the spectral rank factor and on a randomly
    rotated copy of it and compares both the status and the full family
    of qualifying index tuples.
    """
    B = sr_factor(as_symmetric(A, tol), tol)
    mixed = random_orthogonal(B.r, np.random.default_rng(seed)) @ B.B
    res1, fam1 = nnq_scan(B.B, B.r, gram=False, tol=tol, collect_all=True)
    res2, fam2 = nnq_scan(mixed, B.r, gram=False, tol=tol, collect_all=True)
    return res1.status == res2.status and fam1 == fam2


def graph_of_loops(A, tol=DEFAULT_TOL):
    """Zero-pattern graph oracle: one comparison per pair of indices."""
    S = as_symmetric(A, tol)
    a = S.a
    scale = float(np.abs(a).max())
    edges = set()
    if scale > 0.0:
        for i in range(S.n):
            for j in range(i + 1, S.n):
                if abs(a[i, j]) > tol.eps_nonneg * scale:
                    edges.add((i, j))
    return MatrixGraph(n=S.n, edges=frozenset(edges))


def classify_graph_loops(G):
    """Graph-shape oracle: a set-based breadth-first search, degrees
    counted edge by edge, and a triangle search over vertex triples."""
    neighbours = {i: set() for i in range(G.n)}
    for i, j in G.edges:
        neighbours[i].add(j)
        neighbours[j].add(i)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in sorted(neighbours[i]):
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    connected = len(seen) == G.n
    is_cycle = connected and G.n >= 3 and all(len(neighbours[i]) == 2 for i in range(G.n))
    triangle_free = not any(
        j in neighbours[i] and k in neighbours[i] and k in neighbours[j]
        for i, j, k in itertools.combinations(range(G.n), 3)
    )
    is_tree = connected and len(G.edges) == G.n - 1
    return GraphShape(
        is_cycle=is_cycle,
        is_triangle_free=triangle_free,
        is_tree=is_tree,
        is_connected=connected,
    )
