"""Extreme-ray analysis of the column cone of a DN matrix.

For a doubly nonnegative matrix the cone generated by its columns is
pointed (once zero columns are dropped), so every column is a nonnegative
combination of the extreme columns.  When there are at most four extreme
rays this yields a completely positive factorization, and that one
rotation search certifies every case the paper proves with at most four
rays: rank at most 2 (``m = rank``, a pointed cone in the plane has at
most two rays), full rank at order at most 4 (``m = n``) and a basis of
nonnegative equivalence at rank at most 4 (``m = rank``).  When there are
exactly rank many rays, the cone is simplicial and the matrix is
nonnegative-equivalent, so a rank-3 matrix with three extreme rays lies
in CP_{n,3} (:func:`cprank.nnq.decide_rank3_three_rays`).

Which columns are extreme is settled in three stages: a separating
functional read off the cosine matrix proves most extreme columns
extreme with one matrix product; a basis then settles the cone whenever
it decides every column left open (the representatives form one, or the
separated ones do); and one batched nonnegative least-squares solve
tests the columns still open.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import graphcond
from .errors import ComputationFailureError, PreconditionError
from .matcore import (
    DEFAULT_TOL,
    MatrixLike,
    Tolerances,
    as_symmetric,
    classify_dn,
    frobenius_norm,
    vector_norms,
)
from .rotate import check_seed_restarts, orthant_rotation_search
from .srfactor import CpCertificate, make_certificate, sr_factor

_log = logging.getLogger(__name__)

__all__ = [
    "ConeReport",
    "extreme_rays",
    "few_rays_factor",
]

# a deduplicated column is extreme when reconstructing it from the others
# leaves at least this fraction of its norm
EXTREME_RESIDUAL_FACTOR = 1e-7
# normalized columns at cosine >= 1 - this are treated as the same ray
DUPLICATE_RAY_COS_GAP = 1e-12

_EPS = np.finfo(float).eps


def _batched_nnls(
    K: np.ndarray, C: np.ndarray, allowed: np.ndarray, passive: np.ndarray
) -> np.ndarray:
    """Lawson-Hanson active-set solve of ``q`` problems sharing ``K = G^T G``.

    Row ``i`` of the result is the ``x >= 0`` with least ``||G x - b_i||``
    given ``C[i] = G^T b_i``, with ``x_j = 0`` wherever ``allowed[i, j]``
    is false.  ``passive[i]`` is the passive set problem ``i`` starts
    from (all false for a cold start).  A seed whose block of ``K`` is
    numerically singular is cleared, so that problem starts cold; the
    other seeds are solved on their normal equations and the columns
    whose coefficients come out nonpositive are dropped, together, until
    the solution is feasible (Van Benthem and Keenan, J. Chemometrics 18,
    2004).  Then all live problems take each step together (Bro and De
    Jong, J. Chemometrics 11, 1997): add the open column of largest
    positive gradient to the passive set, solve the normal equations on
    it, and step back toward the feasible point while a passive
    coefficient is not positive, until no gradient exceeds
    ``1e-11 * max|G^T b_i|``.  A column whose own coefficient comes out
    nonpositive when it enters is rejected, and stays closed until that
    problem's ``x`` moves.  The state of the loop (targets, iterates,
    passive and open columns) is kept compacted to the live problems,
    and a problem's row of the result is written when it leaves.
    Problems do not interact (apart from sharing the pseudo-inverse
    fallback of :func:`_passive_solve`), so the extremality batch holds
    only the columns the separation bound and the basis certificates
    left open.  Each call logs one DEBUG line: problems, columns, seeded
    columns and passive solves.

    On booleans ``a > b`` is ``a & ~b``, which the loop uses for the open
    columns (``allowed > passive``) and the passive columns that are not
    positive (``passive > positive``).
    """
    q, k = C.shape
    allowed = allowed & (K.diagonal() > 0.0)
    dual_tol = 1e-11 * np.maximum.reduce(np.abs(np.where(allowed, C, 0.0)), axis=1, initial=0.0)
    X = np.zeros((q, k))
    P = passive & allowed
    seeded = solves = 0
    if P.any():
        live = P.any(axis=1).nonzero()[0]
        Pl, Cl = P[live], C[live]
        singular = np.zeros(live.size, dtype=bool)
        S = _passive_solve(K, Cl, Pl, singular)
        solves = 1
        # a numerically singular seed block gives no start: its problem
        # starts cold
        Pl[singular], S[singular] = False, 0.0
        seeded = int(Pl.sum())
        while True:
            bad = Pl > (S > 0.0)
            if not bad.any():
                X[live], P[live] = S, Pl
                break
            done = ~bad.any(axis=1)
            X[live[done]] = S[done]
            Pl &= ~bad
            P[live] = Pl
            keep = ~done & Pl.any(axis=1)
            if not keep.any():
                break
            live, Pl, Cl = live[keep], Pl[keep], Cl[keep]
            S = _passive_solve(K, Cl, Pl)
            solves += 1

    live = rows = np.arange(q)
    Cl, Xl, Pl, Al, tol = C, X, P, allowed, dual_tol
    opened = allowed > P
    for _ in range(3 * k + 30 if q and k else 0):
        grad = np.where(opened, Cl - Xl @ K, -np.inf)
        j = grad.argmax(axis=1)
        has = grad[rows, j] > tol
        if not has.all():
            X[live] = Xl
            live = live[has]
            if not live.size:
                break
            Cl, Xl, Pl, Al, tol, opened, j = (
                Cl[has], Xl[has], Pl[has], Al[has], tol[has], opened[has], j[has]
            )
            rows = np.arange(live.size)
        Pl[rows, j] = True
        S = _passive_solve(K, Cl, Pl)
        solves += 1
        positive = S > 0.0
        if not (Pl > positive).any():
            # every column entered and x moved: the columns that left are open
            Xl, opened = S, Al > Pl
            continue
        blocked = Pl & (S <= 0.0)
        # a column whose own coefficient comes out nonpositive gained only
        # roundoff; it leaves again and stays closed until x moves
        enters = positive[rows, j]
        every = enters.all()
        if not every:
            out = rows[~enters], j[~enters]
            Pl[out] = False
            opened[out] = False
        stuck = blocked.any(axis=1) & enters
        if stuck.any():
            # step back toward x until every passive coefficient is positive;
            # each row's final solution is written into S
            act = stuck.nonzero()[0]
            Sa, Pa, Xa, Ca, Ba = S[act], Pl[act], Xl[act], Cl[act], blocked[act]
            at = np.arange(act.size)
            while True:
                ratio = np.divide(Xa, Xa - Sa, out=np.full(Xa.shape, np.inf), where=Ba)
                first = ratio.argmin(axis=1)
                Xa += ratio[at, first][:, None] * (Sa - Xa)
                Xa[at, first] = 0.0
                Pa &= Xa > 0.0
                Xa = np.where(Pa, Xa, 0.0)
                Sa = _passive_solve(K, Ca, Pa)
                solves += 1
                Ba = Pa & (Sa <= 0.0)
                going = Ba.any(axis=1)
                if not going.any():
                    S[act], Pl[act] = Sa, Pa
                    break
                done = ~going
                S[act[done]], Pl[act[done]] = Sa[done], Pa[done]
                act, Sa, Pa, Xa, Ca, Ba = (
                    act[going], Sa[going], Pa[going], Xa[going], Ca[going], Ba[going]
                )
                at = np.arange(act.size)
        # x moved: rejected columns reopen, and columns that left are open
        if every:
            Xl, opened = S, Al > Pl
        else:
            Xl[enters] = S[enters]
            opened[enters] = Al[enters] > Pl[enters]
    else:
        X[live] = Xl
    _log.debug("_batched_nnls: problems=%d columns=%d seeded=%d solves=%d", q, k, seeded, solves)
    return X


def _passive_solve(
    K: np.ndarray, C: np.ndarray, P: np.ndarray, singular: np.ndarray | None = None
) -> np.ndarray:
    """Normal-equation solutions on the passive sets ``P``, zero elsewhere.

    Row ``i`` solves ``K[P_i, P_i] s = C[i, P_i]``; ``P`` has at least one
    row.  The systems of one size are gathered into one stack of compact
    blocks, with one ``take`` on the flat indices of ``K``, and solved
    together, and a stack with a singular block is solved by
    pseudo-inverse instead.  A stack's targets are gathered,
    and its solutions scattered back, through the mask of its passive
    sets, in the row-major order ``nonzero`` lists their columns in.
    When ``singular`` is given, entry ``i`` is set to whether block ``i``
    is numerically singular: its least eigenvalue is at most ``p * eps``
    times its largest, the rank rule of ``np.linalg.matrix_rank``.
    """
    S = np.zeros(P.shape)
    counts = np.add.reduce(P, axis=1)
    sizes = counts.tolist()
    if min(sizes) == max(sizes):
        groups = [(slice(None), P, sizes[0])] if sizes[0] else []
    else:
        groups = []
        for p in sorted(set(sizes) - {0}):
            sel = counts == p
            groups.append((sel, P & sel[:, None], p))
    for sel, mask, p in groups:
        cols = mask.nonzero()[1].reshape(-1, p)
        Kp = K.take(cols[:, :, None] * K.shape[1] + cols[:, None, :])
        cp = C[mask].reshape(-1, p, 1)
        if singular is not None:
            w = np.linalg.eigvalsh(Kp)
            singular[sel] = w[:, 0] <= p * _EPS * w[:, -1]
        try:
            s = np.linalg.solve(Kp, cp)
        except np.linalg.LinAlgError:
            s = np.linalg.pinv(Kp, hermitian=True) @ cp
        S[mask] = s.ravel()
    return S


def _separation_bound(U: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Lower bounds on the distance of each unit column of ``U`` from the
    cone of the others, read off their cosine matrix ``K = U^T U``.

    With ``c`` the sum of the columns and ``t = K 1`` (so ``t_k = c.u_k``),
    ``y_j = alpha_j c - u_j`` with ``alpha_j = max(0, max_{k != j}
    K_jk / t_k)`` has ``y_j.u_k >= 0`` for every ``k != j``, so it
    separates ``u_j`` from the others' cone by at least
    ``-y_j.u_j / ||y_j||`` (a Farkas functional, as in the frame screen of
    Dula and Helgason, EJOR 92, 1996).  ``Y`` is built explicitly so that
    its norms lose nothing to cancellation.

    In floating point ``y_j.u_k`` may fall short of 0 by the rounding
    ``eta_j`` of ``alpha_j t_k - K_jk``, and the nearest point of the
    others' cone has coefficients summing to at most ``||c|| / min t``;
    both shortfalls, and the rounding of ``Y``, are charged against the
    bound.  Without that charge a column inside a fan of near-parallel
    columns, where ``y_j`` is pure rounding, can read as separated.  A
    lone column gets ``alpha = 0`` and a bound of 1 up to that charge;
    when some ``t_k <= 0`` the sum sees no common side and every bound
    is 0.
    """
    d, k = U.shape
    t = np.add.reduce(K, axis=1)
    if not (t > 0.0).all():
        return np.zeros(k)
    ratio = K / t
    ratio.flat[:: k + 1] = 0.0
    alpha = np.maximum.reduce(ratio, axis=1)
    c = np.add.reduce(U, axis=1)
    Y = c[:, None] * alpha - U
    # a cosine or a row sum of K carries about d + k roundings
    eta = (d + k + 4) * _EPS * (1.0 + alpha * k)
    gap = -np.einsum("ij,ij->j", Y, U) - eta * (1.0 + frobenius_norm(c) / t.min())
    return gap / (vector_norms(Y) + eta)


def _span_distance(U: np.ndarray) -> np.ndarray:
    """Lower bounds on the distance of each unit column of the square
    ``U`` from the span of the others (0 when ``U`` is singular).

    Row ``j`` of ``U^-1`` has inner product 1 with ``u_j`` and 0 with
    every other column, so that distance is ``1 / ||row j||``, and it
    bounds the distance from the others' cone, and so the least-squares
    residual, from below.  The computed inverse is off by about
    ``d eps cond(U) ||U^-1||`` with ``cond(U) = ||U||_F ||U^-1||_F =
    sqrt(d) ||U^-1||_F`` for unit columns; that error is charged against
    every row norm, so an ill-conditioned basis gets no bound above the
    extremality factor.
    """
    d = U.shape[0]
    try:
        V = np.linalg.inv(U)
    except np.linalg.LinAlgError:
        return np.zeros(d)
    row = vector_norms(V, axis=1)
    return 1.0 / (row + (d + 4) * _EPS * np.sqrt(d) * (row @ row))


def _basis_fit(B: np.ndarray, T: np.ndarray) -> np.ndarray | None:
    """Nonnegative coefficients on the columns of the square ``B`` that
    rebuild every column of ``T`` within ``EXTREME_RESIDUAL_FACTOR``, or
    None when some column is not rebuilt (or ``B`` is singular).

    The coefficients are the solution of ``B x = T`` clipped at 0, a
    feasible point of each column's nonnegative least-squares problem,
    so a small explicit residual bounds that problem's optimum.
    """
    try:
        x = np.maximum(np.linalg.solve(B, T), 0.0)
    except np.linalg.LinAlgError:
        return None
    resid = vector_norms(B @ x - T)
    return x if (resid <= EXTREME_RESIDUAL_FACTOR).all() else None


@dataclass(frozen=True)
class ConeReport:
    """Extreme rays of a column cone.

    ``extreme_indices`` holds one representative column index per extreme
    ray (0-based, the smallest index when several columns span the same
    ray); ``W`` is the nonnegative coefficient matrix reconstructing every
    column from the extreme ones, and ``residual`` the relative Frobenius
    error of that reconstruction.  For :func:`extreme_rays` both describe
    the Gram columns, although ``W`` is fitted on the rank factor's unit
    columns and rescaled.
    """

    m: int
    extreme_indices: tuple[int, ...]
    W: np.ndarray
    residual: float


def _extreme_set(
    M: np.ndarray, tol: Tolerances
) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sorted extreme columns of ``M``, the representative of each column
    (``-1`` for a zero column), the sorted representatives, their
    extremality fits and the column norms of ``M``.

    Zero columns are dropped, positive multiples of one ray are collapsed
    onto their smallest-index representative, and a representative is
    extreme when nonnegative least squares cannot reconstruct it from the
    others.  The collapse runs only when some pair of columns lies within
    ``DUPLICATE_RAY_COS_GAP``; otherwise every nonzero column represents
    its own ray.  A representative whose separation bound (see
    :func:`_separation_bound`) exceeds ``EXTREME_RESIDUAL_FACTOR`` is
    extreme by that rule without a solve, since the least-squares
    residual is at least the distance the bound bounds.  The open
    representatives are then settled together by a basis when one
    decides them all:

    * when the ``d`` representatives of a ``d``-row ``M`` form a basis
      and each open one lies farther than the factor from the span of
      the others (:func:`_span_distance`), all are extreme;
    * when exactly ``d`` are separated and solving on them rebuilds each
      open one within the factor with nonnegative coefficients
      (:func:`_basis_fit`), all are not extreme, and those coefficients
      are their fits.  The separated columns are then the extreme set, a
      basis, so every W fit has one optimum, whichever fit seeds it.

    Otherwise one batched solve on the unit columns tests every open
    representative against all the others, so the first column to enter
    a fit is its most aligned ray and the residual is already relative.
    Row ``i`` of the fits (representatives by representatives) holds the
    coefficients of representative ``i``'s fit on the others; it stays
    zero for a representative settled as extreme without a fit, so no W
    fit reads it.  Each call logs one DEBUG line: representatives, how
    many were separated and how many the basis settled.
    """
    n = M.shape[1]
    norms = vector_norms(M)
    nonzero = (norms > tol.eps_nonneg * norms.max(initial=0.0)).nonzero()[0]
    rep_of = np.full(n, -1)
    if not nonzero.size:
        return [], rep_of, nonzero, np.zeros((0, 0)), norms
    Mz, nz = M[:, nonzero], norms[nonzero]  # column-major: the screen's sums depend on it
    cos = (Mz.T @ Mz) / (nz[:, None] * nz)
    reps, Kr, U = nonzero, cos, Mz / nz
    rep_of[nonzero] = nonzero
    # close[a, b]: columns a and b span the same ray
    close = cos >= 1.0 - DUPLICATE_RAY_COS_GAP
    close.flat[:: nonzero.size + 1] = False
    if close.any():
        close = np.tril(close)  # only an earlier column b can represent a
        # a column represents its ray when no earlier representative is
        # close; each column depends only on earlier ones, so iterating
        # from "every column represents" reaches the one fixed point, at
        # most one step per column
        is_rep = np.ones(nonzero.size, dtype=bool)
        while True:
            hits = close & is_rep
            nxt = ~hits.any(axis=1)
            if np.array_equal(nxt, is_rep):
                break
            is_rep = nxt
        rep_of[nonzero] = nonzero[np.where(is_rep, np.arange(nonzero.size), hits.argmax(axis=1))]
        own = is_rep.nonzero()[0]
        reps, Kr, U = nonzero[own], cos[own[:, None], own], U[:, own]

    is_ext = _separation_bound(U, Kr) > EXTREME_RESIDUAL_FACTOR
    separated = int(is_ext.sum())
    rest = (~is_ext).nonzero()[0]
    X = np.zeros(Kr.shape)
    d = U.shape[0]
    if rest.size and reps.size == d:
        if (_span_distance(U)[rest] > EXTREME_RESIDUAL_FACTOR).all():
            is_ext[rest], rest = True, rest[:0]
    elif rest.size and separated == d:
        sep = is_ext.nonzero()[0]
        x = _basis_fit(U[:, sep], U[:, rest])
        if x is not None:
            X[rest[:, None], sep] = x.T
            rest = rest[:0]
    _log.debug(
        "_extreme_set: representatives=%d separated=%d basis=%d",
        reps.size, separated, reps.size - separated - rest.size,
    )
    if rest.size:
        allowed = ~np.eye(reps.size, dtype=bool)[rest]
        fits = _batched_nnls(Kr, Kr[rest], allowed, np.zeros(allowed.shape, dtype=bool))
        X[rest] = fits
        is_ext[rest] = vector_norms(U @ fits.T - U[:, rest]) > EXTREME_RESIDUAL_FACTOR
    return reps[is_ext].tolist(), rep_of, reps, X, norms


def _cone_report(
    G: np.ndarray, F: np.ndarray, extreme: list[int], rep_of: np.ndarray,
    reps: np.ndarray, X: np.ndarray, norms: np.ndarray,
) -> ConeReport:
    """Reconstruct every column of ``G`` from its ``extreme`` columns,
    given what :func:`_extreme_set` returned for ``F``.

    ``G`` is a linear image of the columns of ``F`` (``F`` itself, or the
    Gram columns ``F^T F``), so coefficients that rebuild a column of
    ``F`` rebuild the same column of ``G``.  An extreme column is its own
    coefficient 1, and a duplicate of one a multiple of it measured on
    ``G``.  The other columns are fitted in one batched solve on the unit
    columns of ``F``, where the extremality test ran: each fit starts from
    the extreme columns its representative's row of the fits ``X`` uses,
    and its coefficients are rescaled to the columns of ``G``.
    ``residual`` is measured on ``G``.
    """
    n = G.shape[1]
    m = len(extreme)
    ext = np.array(extreme, dtype=np.intp)
    W = np.zeros((m, n))
    pos = np.full(n, -1)
    pos[ext] = at = np.arange(m)
    W[at, ext] = 1.0
    kept = (rep_of >= 0).nonzero()[0]  # zero columns reconstruct as zero
    owner = rep_of[kept]
    k = pos[owner]
    dup = (k >= 0) & (kept != owner)
    if dup.any():
        cols, R = kept[dup], G[:, owner[dup]]
        W[k[dup], cols] = np.einsum("ij,ij->j", R, G[:, cols]) / np.einsum("ij,ij->j", R, R)
    fit = kept[k < 0]
    if m and fit.size:
        ne, nf = norms[ext], norms[fit]
        E = F[:, ext] / ne
        T = F[:, fit] / nf
        seeds = X[reps.searchsorted(rep_of[fit])[:, None], reps.searchsorted(ext)] > 0.0
        coeffs = _batched_nnls(E.T @ E, T.T @ E, np.ones(seeds.shape, dtype=bool), seeds)
        W[:, fit] = coeffs.T * ((1.0 / ne)[:, None] * nf)

    if m:
        recon = G[:, ext] @ W
        denom = frobenius_norm(G)
        residual = frobenius_norm(G - recon) / denom if denom else 0.0
    else:
        residual = 0.0
    return ConeReport(m=m, extreme_indices=tuple(extreme), W=W, residual=residual)


def extreme_rays(A: MatrixLike, tol: Tolerances = DEFAULT_TOL) -> ConeReport:
    """Extreme rays of the column cone of a DN matrix.

    The analysis runs on the rank-truncated spectral reconstruction of the
    input, which is the matrix the working tolerances say the input is;
    for a matrix of exact numerical rank this changes nothing.  Which
    columns are extreme is decided on the unit columns of the rank factor
    ``B``, and the columns off the extreme rays are fitted there too, each
    fit started from the one its extremality test made: a reconstruction
    residual on ``B`` scales with the square roots of the eigenvalues,
    where on the Gram columns it scales with the eigenvalues themselves,
    so an ill-conditioned cone loses rays and its fits stall early.  ``B``
    maps onto the Gram columns linearly, so ``W`` carries over; ``W`` and
    ``residual`` describe the Gram columns.
    """
    S = as_symmetric(A, tol)
    verdict = classify_dn(S, tol)
    if not verdict.is_dn:
        raise PreconditionError(f"cone analysis requires a DN matrix, got {verdict.status}")
    B = sr_factor(S, tol)
    return _cone_report(B.T @ B, B, *_extreme_set(B, tol))


def few_rays_factor(
    A: MatrixLike,
    report: ConeReport,
    tol: Tolerances = DEFAULT_TOL,
    seed: int = 0,
    restarts: int = 200,
) -> CpCertificate:
    """Completely positive factorization from at most four extreme rays.

    The extreme block ``A1``, the Gram matrix of the extreme columns
    ``B[:, ext]`` of the input's rank factor, is factored with a
    nonnegative ``N``, a rotation of ``B[:, ext]`` padded to row counts
    from the rank up to ``m``; the full certificate is then ``C = N W``.
    Row counts below ``m`` are heuristic attempts at the block's cp-rank,
    while the count ``m`` itself is always reachable.  A negative
    ``seed`` or ``restarts`` raises :class:`InvalidInputError`.
    """
    check_seed_restarts(seed, restarts)
    S = as_symmetric(A, tol)
    m = report.m
    if m > 4:
        raise PreconditionError(f"factorization from extreme rays needs m <= 4, got {m}")
    if m == 0:
        return make_certificate(S, np.zeros((0, S.n)), "few_rays", tol)
    Bs = sr_factor(S, tol)[:, list(report.extreme_indices)]
    # the block's entries may lie far below the input's, under the lower
    # entry limit: the block of a small input is taken 4**half times
    # larger, which is exact and changes no decision on it
    half = max(0, -(math.frexp(S.scale)[1] // 2))
    block = as_symmetric(np.ldexp(Bs.T @ Bs, 2 * half), tol)
    d_lo = Bs.shape[0]
    if d_lo < m:
        # a rank-deficient block has rank 3 and four rays; the one pattern
        # on four vertices that pins its cp-rank above 3 is the 4-cycle,
        # and the cycle bound prunes its count to 4; a full-rank block
        # starts at m already
        cyc = graphcond.cycle_necessary(block, tol)
        if cyc.status == graphcond.PASSES:
            d_lo = max(d_lo, min(cyc.cprk_lower_bound, m))
    # the block's certificate floor
    eps = math.ldexp(tol.eps_nonneg * math.sqrt(block.scale), -half)
    for d in range(d_lo, m + 1):
        padded = np.vstack([Bs, np.zeros((d - Bs.shape[0], m))])
        # row counts below m are opportunistic: cp-rank of the block may
        # exceed d, so cap the effort and fall through to the sure case
        budget = restarts if d == m else min(restarts, 12)
        Q = orthant_rotation_search(padded, restarts=budget, seed=seed, eps=eps)
        if Q is not None:
            C = (Q @ padded) @ report.W
            return make_certificate(S, C, "few_rays", tol)
    raise ComputationFailureError(
        "rotation search exhausted its budget on the extreme block; "
        "a solution exists for m <= 4, raise the restart budget"
    )
