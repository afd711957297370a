"""Extreme-ray analysis of the column cone of a DN matrix.

For a doubly nonnegative matrix the cone generated by its columns is
pointed (once zero columns are dropped), so every column is a nonnegative
combination of the extreme columns.  When there are at most four extreme
rays this yields a completely positive factorization.  When there are
exactly rank many, the cone is simplicial and the matrix is
nonnegative-equivalent, so a rank-3 matrix with three extreme rays lies
in CP_{n,3}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import graphcond
from .errors import ComputationFailureError, InvalidInputError, PreconditionError
from .matcore import DEFAULT_TOL, MatrixLike, Tolerances, as_symmetric, classify_dn, psd_rank
from .nnq import NnqWitness, nnq_factor, nnq_from_rays
from .rotate import orthant_rotation_search
from .srfactor import CpCertificate, make_certificate, sr_factor

__all__ = [
    "nnls",
    "ConeReport",
    "extreme_rays",
    "extreme_columns",
    "few_rays_factor",
    "Rank3RayDecision",
    "decide_rank3_three_rays",
    "IN_CP_N3",
    "NOT_APPLICABLE",
]

IN_CP_N3 = "IN_CP_N3"
NOT_APPLICABLE = "NOT_APPLICABLE"

# a deduplicated column is extreme when reconstructing it from the others
# leaves at least this fraction of its norm
EXTREME_RESIDUAL_FACTOR = 1e-7
# normalized columns at cosine >= 1 - this are treated as the same ray
DUPLICATE_RAY_COS_GAP = 1e-12


def nnls(
    target: Sequence[float] | np.ndarray,
    generators: np.ndarray | Sequence[Sequence[float]],
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[np.ndarray, float]:
    """Nonnegative least squares: the ``c >= 0`` with least ``||target - G c||``.

    ``generators`` holds the generator vectors as columns (a sequence of
    vectors is stacked).  Solved with the classic active-set iteration;
    the problem is convex, so the first-order point it stops at is the
    global optimum.  The least-squares subproblems go through a
    minimum-norm solver, which keeps heavily rank-deficient generator
    sets (the normal case for cone columns) stable.
    """
    b = np.asarray(target, dtype=float).reshape(-1)
    G = np.asarray(generators, dtype=float)
    if G.ndim == 1:
        G = G.reshape(-1, 1)
    if G.size and G.shape[0] != b.shape[0] and G.shape[1] == b.shape[0]:
        # sequence of row vectors: stack them as columns
        G = G.T
    if G.ndim != 2 or G.shape[1] == 0:
        raise InvalidInputError("need at least one generator")
    if G.shape[0] != b.shape[0]:
        raise InvalidInputError(f"generator length {G.shape[0]} does not match target {b.shape[0]}")
    coeffs = _active_set_nnls(G, b)
    return coeffs, float(np.linalg.norm(G @ coeffs - b))


def _active_set_nnls(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Active-set iteration robust to dependent generator columns.

    The textbook step (least squares on the passive set, then a feasible
    step toward it) is preceded by an exact single-coordinate move on the
    most violating variable, which always decreases the objective by a
    positive amount; convergence to the global optimum then follows from
    convexity even when the passive-set subproblems are rank-deficient.
    The loop runs until the KKT conditions hold within tolerance.
    """
    m, n = G.shape
    col2 = np.einsum("ij,ij->j", G, G)
    usable = col2 > 0.0
    x = np.zeros(n)
    dual_tol = 1e-11 * max(1.0, float(np.abs(G.T @ b).max(initial=0.0)))
    best_x = x.copy()
    best_resid = float(np.linalg.norm(b))

    for _ in range(40 * n + 200):
        w = G.T @ (b - G @ x)
        violation = np.where(usable & (x > 0.0), np.abs(w), np.maximum(w, 0.0))
        violation[~usable] = 0.0
        j = int(np.argmax(violation))
        if violation[j] <= dual_tol:
            break
        # exact minimization along coordinate j: feasible and strictly
        # decreasing, regardless of any degeneracy in the passive set
        x[j] = max(0.0, x[j] + w[j] / col2[j])

        # polish: least squares on the support, stepping back to the
        # feasible segment whenever a coordinate would cross zero
        for _ in range(3 * n + 30):
            idx = np.flatnonzero(x > 0.0)
            if idx.size == 0:
                break
            z = np.zeros(n)
            z[idx], *_ = np.linalg.lstsq(G[:, idx], b, rcond=None)
            if z[idx].min() > 0.0:
                x = z
                break
            blocking = idx[z[idx] <= 0.0]
            denom = x[blocking] - z[blocking]
            keep = denom > 1e-300
            if not keep.any():
                break
            alpha = float((x[blocking][keep] / denom[keep]).min())
            x = np.maximum(x + alpha * (z - x), 0.0)
            x[blocking[x[blocking] <= 1e-14]] = 0.0
        resid = float(np.linalg.norm(G @ x - b))
        if resid < best_resid:
            best_resid = resid
            best_x = x.copy()
    if float(np.linalg.norm(G @ x - b)) > best_resid:
        x = best_x
    return np.maximum(x, 0.0)


@dataclass(frozen=True)
class ConeReport:
    """Extreme rays of a column cone.

    ``extreme_indices`` holds one representative column index per extreme
    ray (0-based, the smallest index when several columns span the same
    ray); ``W`` is the nonnegative coefficient matrix reconstructing every
    column from the extreme ones, and ``residual`` the relative Frobenius
    error of that reconstruction.
    """

    m: int
    extreme_indices: tuple[int, ...]
    W: np.ndarray
    residual: float


def _extreme_set(M: np.ndarray, tol: Tolerances) -> tuple[list[int], dict[int, int]]:
    """Sorted extreme columns of ``M`` and the representative of each
    nonzero column.

    Zero columns are dropped, positive multiples of one ray are collapsed
    onto their smallest-index representative, and a representative is
    extreme when nonnegative least squares cannot reconstruct it from the
    others.
    """
    n = M.shape[1]
    norms = np.linalg.norm(M, axis=0)
    scale = max(1.0, float(norms.max()) if n else 1.0)
    nonzero = [j for j in range(n) if norms[j] > tol.eps_nonneg * scale]

    reps: list[int] = []
    rep_of: dict[int, int] = {}
    for j in nonzero:
        for rep in reps:
            cos = float(M[:, j] @ M[:, rep]) / (norms[j] * norms[rep])
            if cos >= 1.0 - DUPLICATE_RAY_COS_GAP:
                rep_of[j] = rep
                break
        else:
            reps.append(j)
            rep_of[j] = j

    extreme: list[int] = []
    for rep in reps:
        others = [k for k in reps if k != rep]
        if not others:
            extreme.append(rep)
            continue
        _, resid = nnls(M[:, rep], M[:, others], tol)
        if resid > EXTREME_RESIDUAL_FACTOR * norms[rep]:
            extreme.append(rep)
    return sorted(extreme), rep_of


def _cone_report(
    M: np.ndarray, extreme: list[int], rep_of: dict[int, int], tol: Tolerances
) -> ConeReport:
    """Reconstruct every column of ``M`` from its ``extreme`` columns."""
    n = M.shape[1]
    m = len(extreme)
    W = np.zeros((m, n))
    pos = {rep: k for k, rep in enumerate(extreme)}
    for j in range(n):
        if j not in rep_of:
            continue  # zero column reconstructs as zero
        rep = rep_of[j]
        if rep in pos:
            if j == rep:
                W[pos[rep], j] = 1.0
            else:
                W[pos[rep], j] = float(M[:, rep] @ M[:, j]) / float(M[:, rep] @ M[:, rep])
        elif m:
            coeffs, _ = nnls(M[:, j], M[:, extreme], tol)
            W[:, j] = coeffs

    if m:
        recon = M[:, extreme] @ W
        denom = float(np.linalg.norm(M))
        residual = float(np.linalg.norm(M - recon)) / denom if denom else 0.0
    else:
        residual = 0.0
    return ConeReport(m=m, extreme_indices=tuple(extreme), W=W, residual=residual)


def extreme_columns(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> ConeReport:
    """Extreme-ray report for the cone generated by the columns of ``M``.

    Zero columns are dropped, positive multiples of one ray are collapsed
    onto their smallest-index representative, and a column is extreme when
    nonnegative least squares cannot reconstruct it from the remaining
    representatives.
    """
    M = np.asarray(M, dtype=float)
    return _cone_report(M, *_extreme_set(M, tol), tol)


def extreme_rays(A: MatrixLike, tol: Tolerances = DEFAULT_TOL) -> ConeReport:
    """Extreme rays of the column cone of a DN matrix.

    The analysis runs on the rank-truncated spectral reconstruction of the
    input, which is the matrix the working tolerances say the input is;
    for a matrix of exact numerical rank this changes nothing.  Which
    columns are extreme is decided on the columns of the rank factor
    ``B``: a reconstruction residual there scales with the square roots of
    the eigenvalues, where on the Gram columns it scales with the
    eigenvalues themselves and an ill-conditioned cone loses rays.  ``W``
    and ``residual`` describe the Gram columns.
    """
    S = as_symmetric(A, tol)
    verdict = classify_dn(S, tol)
    if not verdict.is_dn:
        raise PreconditionError(f"cone analysis requires a DN matrix, got {verdict.status}")
    if verdict.rank == 0:
        return ConeReport(m=0, extreme_indices=(), W=np.zeros((0, S.n)), residual=0.0)
    B = sr_factor(S, tol)
    return _cone_report(B.gram(), *_extreme_set(B.B, tol), tol)


def few_rays_factor(
    A: MatrixLike,
    report: ConeReport,
    tol: Tolerances = DEFAULT_TOL,
    seed: int = 0,
    restarts: int = 200,
) -> CpCertificate:
    """Completely positive factorization from at most four extreme rays.

    The extreme block ``A1`` (Gram matrix of the extreme columns) is
    factored with a nonnegative ``N``, trying row counts from its rank up
    to ``m``; the full certificate is then ``C = N W``.  Row counts below
    ``m`` are heuristic attempts at the block's cp-rank, while the count
    ``m`` itself is always reachable.
    """
    S = as_symmetric(A, tol)
    m = report.m
    if m > 4:
        raise PreconditionError(f"factorization from extreme rays needs m <= 4, got {m}")
    if m == 0:
        return make_certificate(S, np.zeros((0, S.n)), "few_rays", tol)
    B = sr_factor(S, tol)
    gram = B.gram()
    ext = list(report.extreme_indices)
    block = gram[np.ix_(ext, ext)]
    block_rank = psd_rank(block, tol).rank
    Bs = sr_factor(block, tol).B
    d_lo = max(block_rank, 1)
    # exact pattern-based cp-rank information on the block prunes row
    # counts that cannot work, e.g. a 4-cycle block pins the count to 4
    tri = graphcond.triangle_free_criterion(block, tol)
    if tri.status == graphcond.CP:
        d_lo = max(d_lo, min(tri.cp_rank, m))
    cyc = graphcond.cycle_necessary(block, tol)
    if cyc.status == graphcond.PASSES:
        d_lo = max(d_lo, min(cyc.cprk_lower_bound, m))
    for d in range(d_lo, m + 1):
        padded = np.vstack([Bs, np.zeros((d - Bs.shape[0], m))]) if d > Bs.shape[0] else Bs
        # row counts below m are opportunistic: cp-rank of the block may
        # exceed d, so cap the effort and fall through to the sure case
        budget = restarts if d == m else min(restarts, 12)
        Q = orthant_rotation_search(padded, restarts=budget, seed=seed, eps=tol.eps_nonneg)
        if Q is not None:
            C = (Q @ padded) @ report.W
            return make_certificate(S, C, "few_rays", tol)
    raise ComputationFailureError(
        "rotation search exhausted its budget on the extreme block; "
        "a solution exists for m <= 4, raise the restart budget"
    )


@dataclass(frozen=True)
class Rank3RayDecision:
    """Outcome of the rank-3 ray decision.

    ``status`` is ``IN_CP_N3`` (with witness and certificate), or
    ``NOT_APPLICABLE`` when the hypotheses (DN, rank 3, exactly three
    extreme rays with a verified nnq witness) do not hold.
    """

    status: str
    m: int | None = None
    witness: NnqWitness | None = None
    certificate: CpCertificate | None = None


def decide_rank3_three_rays(
    A: MatrixLike,
    tol: Tolerances = DEFAULT_TOL,
    seed: int = 0,
    restarts: int = 200,
) -> Rank3RayDecision:
    """Membership in CP_{n,3} for DN matrices of rank 3 whose column cone
    has exactly three extreme rays.

    Three rays spanning ``R^3`` make the cone simplicial, so the matrix is
    nonnegative-equivalent and cp-rank equals rank; outside those
    hypotheses the decision is not applicable.
    """
    S = as_symmetric(A, tol)
    verdict = classify_dn(S, tol)
    if not verdict.is_dn or verdict.rank != 3:
        return Rank3RayDecision(status=NOT_APPLICABLE)
    report = extreme_rays(S, tol)
    result = nnq_from_rays(S, report, 3, tol)
    if not result.found:
        return Rank3RayDecision(status=NOT_APPLICABLE, m=report.m)
    cert = nnq_factor(S, result.witness, tol, seed=seed, restarts=restarts)
    return Rank3RayDecision(
        status=IN_CP_N3, m=report.m, witness=result.witness, certificate=cert
    )
