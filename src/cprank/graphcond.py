"""Zero-pattern conditions: cycle bound, triangle-free test, diagonal dominance.

The nonzero pattern of a symmetric matrix defines a graph; three classical
results turn its shape into cp-rank information.  On a cycle of length at
least 4, complete positivity forces the off-diagonal sum below the
diagonal sum and the cp-rank up to the order.  On a triangle-free
pattern, a DN matrix is completely positive exactly when its comparison
matrix is PSD, with cp-rank ``max(rank, edge count)``.  And a diagonally
dominant nonnegative symmetric matrix always factors explicitly, one row
per off-diagonal entry plus one per strictly dominant row.  The analysis
runs the last two: a cycle of length at least 4 is triangle-free, so the
triangle-free test decides it exactly and keeps the cycle bound's sum
test, which also serves ``cprank graph`` and the few-rays step's pruning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    MatrixLike,
    Tolerances,
    as_symmetric,
    classify_dn,
    comparison_matrix,
    psd_rank,
)
from .srfactor import CpCertificate, make_certificate

__all__ = [
    "GraphShape",
    "classify_graph",
    "CycleCheck",
    "cycle_necessary",
    "TriangleFreeResult",
    "triangle_free_criterion",
    "kaykobad_factor",
    "PASSES",
    "FAILS",
    "NOT_APPLICABLE",
    "CP",
    "NOT_CP",
]

PASSES = "PASSES"
FAILS = "FAILS"
NOT_APPLICABLE = "NOT_APPLICABLE"
CP = "CP"
NOT_CP = "NOT_CP"


@dataclass(frozen=True)
class GraphShape:
    """Shape of the zero-pattern graph: an edge ``(i, j)``, ``i < j``,
    wherever the off-diagonal entry is numerically nonzero; ``edges`` in
    row-major order."""

    edges: tuple[tuple[int, int], ...]
    is_cycle: bool
    is_triangle_free: bool
    is_tree: bool
    is_connected: bool


def _connected(adj: np.ndarray) -> bool:
    """Breadth-first search from vertex 0 over a boolean adjacency."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def _is_cycle(adj: np.ndarray) -> bool:
    """Connected with every degree 2; the degrees are checked first."""
    return adj.shape[0] >= 3 and bool((adj.sum(axis=1) == 2).all()) and _connected(adj)


def _triangle_free(adj: np.ndarray) -> bool:
    """``trace(adj^3) == 0``: the sum of ``(adj^2)_ij`` over the edges ij."""
    f = adj.astype(float)
    return float(((f @ f) * f).sum()) == 0.0


def classify_graph(A: MatrixLike, tol: Tolerances = DEFAULT_TOL) -> GraphShape:
    """Standard predicates on the zero pattern with threshold ``eps_nonneg``
    relative to the largest entry magnitude: one breadth-first search for
    connectivity, degrees for the cycle test, ``trace(adj^3)`` for
    triangles, edge count for trees."""
    S = as_symmetric(A, tol)
    adj = S.pattern(tol.eps_nonneg)
    i, j = np.nonzero(np.triu(adj))
    # Python ints, so that reports print plain numbers
    edges = tuple(zip(i.tolist(), j.tolist()))
    connected = _connected(adj)
    return GraphShape(
        edges=edges,
        is_cycle=_is_cycle(adj),
        is_triangle_free=_triangle_free(adj),
        is_tree=connected and len(edges) == S.n - 1,
        is_connected=connected,
    )


@dataclass(frozen=True)
class CycleCheck:
    """Necessary condition on cycle patterns.

    ``status`` is ``NOT_APPLICABLE`` unless the graph is a cycle on at
    least 4 vertices.  ``FAILS`` means the matrix cannot be completely
    positive; ``PASSES`` additionally pins cp-rank >= n for any completely
    positive matrix with this pattern.
    """

    status: str
    cprk_lower_bound: int | None
    off_diag_sum: float
    diag_sum: float


def cycle_necessary(A: MatrixLike, tol: Tolerances = DEFAULT_TOL) -> CycleCheck:
    """Cycle test: total off-diagonal sum against the trace.

    The comparison carries a small relative slack so that exact-equality
    instances are stable, and scaling the matrix by any positive factor
    never changes the outcome.
    """
    S = as_symmetric(A, tol)
    return _cycle_check(S.a, S.pattern(tol.eps_nonneg))


def _cycle_check(a: np.ndarray, adj: np.ndarray) -> CycleCheck:
    """:func:`cycle_necessary` of the symmetric array ``a`` with the
    off-diagonal pattern ``adj``."""
    n = a.shape[0]
    trace = a.trace()
    off = float(a.sum() - trace)
    diag = float(trace)
    if n < 4 or not _is_cycle(adj):
        return CycleCheck(
            status=NOT_APPLICABLE, cprk_lower_bound=None, off_diag_sum=off, diag_sum=diag
        )
    slack = 1e-12 * max(abs(off), abs(diag))
    if off > diag + slack:
        return CycleCheck(status=FAILS, cprk_lower_bound=None, off_diag_sum=off, diag_sum=diag)
    return CycleCheck(status=PASSES, cprk_lower_bound=n, off_diag_sum=off, diag_sum=diag)


@dataclass(frozen=True)
class TriangleFreeResult:
    """Complete decision on triangle-free patterns.

    Applicable to DN matrices whose graph has no triangle: ``CP`` comes
    with the exact cp-rank ``max(rank, edge count)``, ``NOT_CP`` is
    definitive.
    """

    status: str
    cp_rank: int | None = None


def triangle_free_criterion(
    A: MatrixLike, tol: Tolerances = DEFAULT_TOL
) -> TriangleFreeResult:
    """Comparison-matrix test on triangle-free DN matrices.

    On a cycle pattern the exact sum test ``1^T M 1 >= 0`` of
    :func:`cycle_necessary` also runs, since a tolerant PSD test on ``M``
    can miss a negative sum that is well above rounding.
    """
    S = as_symmetric(A, tol)
    verdict = classify_dn(S, tol)
    if not verdict.is_dn:
        return TriangleFreeResult(status=NOT_APPLICABLE)
    adj = S.pattern(tol.eps_nonneg)
    if not _triangle_free(adj):
        return TriangleFreeResult(status=NOT_APPLICABLE)
    if _cycle_check(S.a, adj).status == FAILS:
        return TriangleFreeResult(status=NOT_CP)
    if not psd_rank(comparison_matrix(S, tol), tol).is_psd:
        return TriangleFreeResult(status=NOT_CP)
    return TriangleFreeResult(status=CP, cp_rank=max(verdict.rank, int(adj.sum()) // 2))


def kaykobad_factor(
    A: MatrixLike, tol: Tolerances = DEFAULT_TOL
) -> CpCertificate | None:
    """Explicit factorization of a diagonally dominant nonnegative matrix.

    Returns ``None`` when some row is not diagonally dominant.  Otherwise
    the certificate has one row ``sqrt(a_ij) (e_i + e_j)`` per nonzero
    above-diagonal entry and one row ``sqrt(a_ii - sum_j a_ij) e_i`` per
    strictly dominant row, reconstructing the matrix exactly in exact
    arithmetic.  Dominance within slack counts as equality, so borderline
    rows never produce a slack row.
    """
    S = as_symmetric(A, tol)
    a = S.a
    if float(a.min()) < -tol.eps_nonneg * S.scale:
        return None
    n = S.n
    diag = a.diagonal()
    off_sums = a.sum(axis=1) - diag
    slack = tol.eps_nonneg * np.maximum(diag, off_sums)
    margins = diag - off_sums
    if (margins < -slack).any():
        return None
    # one row per edge of the zero pattern, in row-major order, then one
    # per strictly dominant row; no negative entry is left past the check
    i, j = np.nonzero(np.triu(S.pattern(tol.eps_nonneg)))
    strict = np.flatnonzero(margins > slack)
    C = np.zeros((i.size + strict.size, n))
    edge_rows = np.arange(i.size)
    C[edge_rows, i] = C[edge_rows, j] = np.sqrt(a[i, j])
    C[i.size + np.arange(strict.size), strict] = np.sqrt(margins[strict])
    return make_certificate(S, C, "kaykobad", tol)
