"""Extreme-ray analysis of the column cone of a DN matrix.

For a doubly nonnegative matrix the cone generated by its columns is
pointed (once zero columns are dropped), so every column is a nonnegative
combination of the extreme columns, and a rotation taking them into the
orthant takes every column there (:func:`cprank.rotate.few_rays_factor`).
With exactly rank many rays the cone is simplicial and the matrix is
nonnegative-equivalent, so a rank-3 matrix with three extreme rays lies
in CP_{n,3} (:func:`cprank.nnq.decide_rank3_three_rays`).

Which columns are extreme is settled by certificates first, and by
least squares only where they leave a column open.  A rank factor with
three rows and more than three distinct rays is read off the
cross-section of its cone, a plane polygon whose vertices are the
extreme rays: each vertex is proved extreme by a separating functional
along the polygon's outward normal, and each other point is rebuilt
from a triangle of a fan of vertices.  Otherwise a separating
functional along each column's direction in isotropic position, ``(U
U^T)^-1 u_j`` for the unit columns ``U``, proves most extreme columns
extreme with one small solve and one matrix product; on a basis it
bounds each column's distance from the span of the others.  The
separated columns then settle the cone when they form a basis that
rebuilds every column left open.  One batched nonnegative least-squares
solve tests the columns still open.  :func:`extreme_rays` reports the
rays alone, which is all the analysis reads: its few-rays and heuristic
steps rotate the extreme block, and the nnq check
(:func:`cprank.nnq.nnq_from_rays`) reads the same report outside the
analysis.  :func:`fit_rays` also fits the coefficients that rebuild
every column from them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .matcore import (
    DEFAULT_TOL,
    LinAlgError,
    MatrixLike,
    Tolerances,
    as_symmetric,
    classify_dn,
    frobenius_norm,
    solve,
    vector_norms,
)
from .srfactor import sr_factor

_log = logging.getLogger(__name__)

__all__ = [
    "ConeReport",
    "extreme_rays",
    "fit_rays",
]

# a deduplicated column is extreme when reconstructing it from the others
# leaves at least this fraction of its norm
EXTREME_RESIDUAL_FACTOR = 1e-7
# normalized columns at cosine >= 1 - this are treated as the same ray
DUPLICATE_RAY_COS_GAP = 1e-12

_EPS = np.finfo(float).eps


def _batched_nnls(K: np.ndarray, C: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Lawson-Hanson active-set solve of ``q`` problems sharing ``K = G^T G``.

    Row ``i`` of the result is the ``x >= 0`` with least ``||G x - b_i||``
    given ``C[i] = G^T b_i``, with ``x_j = 0`` wherever ``allowed[i, j]``
    is false.  Every problem starts cold, from ``x = 0``, and all live
    problems take each step together (Bro and De Jong, J. Chemometrics
    11, 1997): add the open column of largest positive gradient to the
    passive set, solve the normal equations on it, and step back toward
    the feasible point while a passive coefficient is not positive, until
    no gradient exceeds the roundoff ``64 eps max|G^T b_i|`` (a larger stop
    misfits near-parallel columns) or ``3k + 30`` rounds.  A column whose own
    coefficient comes out nonpositive when it enters is rejected, and
    stays closed until that problem's ``x`` moves.  The state of the loop
    (targets, iterates, passive and open columns) is kept compacted to
    the live problems, and a problem's row of the result is written when
    it leaves.  Problems do not interact (apart from sharing the
    pseudo-inverse fallback of :func:`_passive_solve`), so the
    extremality batch holds only the columns the separation bound and the
    basis certificates left open.  Each call logs one DEBUG line:
    problems, columns and passive solves.

    On booleans ``a > b`` is ``a & ~b``, which the loop uses for the open
    columns (``Al > Pl``) and the passive columns that are not positive
    (``Pl > positive``).
    """
    q, k = C.shape
    allowed = allowed & (K.diagonal() > 0.0)
    dual_tol = 64.0 * _EPS * np.maximum.reduce(
        np.abs(np.where(allowed, C, 0.0)), axis=1, initial=0.0)
    X = np.zeros((q, k))
    solves = 0
    live = rows = np.arange(q)
    Cl, Xl, Pl, Al, tol = C, X, np.zeros((q, k), dtype=bool), allowed, dual_tol
    opened = allowed.copy()
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
    _log.debug("_batched_nnls: problems=%d columns=%d solves=%d", q, k, solves)
    return X


def _passive_solve(K: np.ndarray, C: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Normal-equation solutions on the passive sets ``P``, zero elsewhere.

    Row ``i`` solves ``K[P_i, P_i] s = C[i, P_i]``; ``P`` has at least one
    row.  The systems of one size are gathered into one stack of compact
    blocks, with one ``take`` on the flat indices of ``K``, and solved
    together, and a stack with a singular block is solved by
    pseudo-inverse instead.  A stack's targets are gathered,
    and its solutions scattered back, through the mask of its passive
    sets, in the row-major order ``nonzero`` lists their columns in.
    """
    S = np.zeros(P.shape)
    counts = np.add.reduce(P, axis=1)
    sizes = counts.tolist()
    if min(sizes) == max(sizes):
        groups = [(P, sizes[0])] if sizes[0] else []
    else:
        groups = [(P & (counts == p)[:, None], p) for p in sorted(set(sizes) - {0})]
    for mask, p in groups:
        cols = mask.nonzero()[1].reshape(-1, p)
        Kp = K.take(cols[:, :, None] * K.shape[1] + cols[:, None, :])
        cp = C[mask].reshape(-1, p, 1)
        try:
            s = solve(Kp, cp)
        except LinAlgError:
            s = np.linalg.pinv(Kp, hermitian=True) @ cp
        S[mask] = s.ravel()
    return S


def _separation_bound(
    U: np.ndarray, K: np.ndarray, V: np.ndarray, cols: np.ndarray | None = None
) -> np.ndarray:
    """Lower bounds on the distance of unit columns of ``U`` from the cone
    of the others, read off their cosine matrix ``K = U^T U`` and one unit
    direction ``v_i = V[:, i]`` for each column ``j = cols[i]`` bounded
    (by default every column, in order).

    With ``c`` the sum of the columns and ``t = K 1`` (so ``t_k = c.u_k``),
    ``y_i = alpha_i c - v_i`` with ``alpha_i = max(0, max_{k != j}
    v_i.u_k / t_k)`` has ``y_i.u_k >= 0`` for every ``k != j``, so it
    separates ``u_j`` from the others' cone by at least ``-y_i.u_j /
    ||y_i||`` (a Farkas functional; along ``v = u_j`` it is the frame
    screen of Dula and Helgason, EJOR 92, 1996).  :func:`_extreme_set`
    reads each column along its isotropic direction, where on a basis the
    bound is the distance from the span of the others
    (:func:`_isotropic_directions`), and the planar stage reads a hull
    vertex along the hull's outward normal.  A multiple of ``c``
    added to ``v_i`` only shifts ``alpha_i``, so the direction counts
    off ``c`` alone.  ``Y`` is built explicitly so that its norms lose
    nothing to cancellation.

    In floating point ``y_i.u_k`` may fall short of 0 by the rounding
    ``eta_i`` of ``alpha_i t_k - v_i.u_k``, and the nearest point of the
    others' cone has coefficients summing to at most ``||c|| / min t``;
    both shortfalls, and the rounding of ``Y``, are charged against the
    bound.  The charge reads the direction only through ``||v_i|| = 1``
    and ``|v_i.u_k| <= 1``: that product carries about ``d`` roundings,
    as a cosine of ``K`` does, a row sum ``t_k`` about ``d + k`` on a sum
    of at most ``k``, which ``alpha_i`` multiplies, and ``Y`` one on
    entries up to ``alpha_i k + 1``, so the bound holds along any unit
    direction however it was computed.  Without that charge a column
    inside a fan of near-parallel columns, where ``y`` is pure rounding,
    can read as separated.  When some ``t_k <= 0`` the sum sees no
    common side and every bound is 0.
    """
    d, k = U.shape
    t = np.add.reduce(K, axis=1)
    t_min = t.min()
    if not t_min > 0.0:
        return np.zeros(V.shape[1])
    ratio = (V.T @ U) / t
    if cols is None:
        own = U
        ratio.flat[:: k + 1] = 0.0
    else:
        own = U[:, cols]
        ratio[np.arange(cols.size), cols] = 0.0
    alpha = np.maximum.reduce(ratio, axis=1)
    c = np.add.reduce(U, axis=1)
    Y = c[:, None] * alpha - V
    eta = (d + k + 4) * _EPS * (1.0 + alpha * k)
    gap = -np.einsum("ij,ij->j", Y, own) - eta * (1.0 + frobenius_norm(c) / t_min)
    return gap / (vector_norms(Y) + eta)


def _isotropic_directions(U: np.ndarray) -> np.ndarray | None:
    """Unit columns of ``(U U^T)^-1 U`` for unit columns ``U`` (``None``
    when ``U U^T`` is singular or they overflow): the own direction of
    ``u_j`` in isotropic position, where ``U U^T`` is the identity, read
    back in these coordinates.  On a basis ``v_j`` is row ``j`` of
    ``U^-1``, orthogonal to the other columns, so the bound along it is
    the distance of ``u_j`` from their span.  A basis is solved as ``U^T
    V = I``: ``U U^T`` would square ``cond(U)`` and tilt ``v_j`` off it.
    """
    d, k = U.shape
    try:
        V = solve(U.T, np.eye(d)) if k == d else solve(U @ U.T, U)
    except LinAlgError:
        return None
    with np.errstate(over="ignore"):
        norms = vector_norms(V)
    return V / norms if np.add.reduce(norms) < np.inf else None


def _rebuilt(B: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Whether the solution of ``B x = T`` clipped at 0, a feasible point
    of each column's nonnegative least-squares problem on the columns of
    ``B``, rebuilds it within ``EXTREME_RESIDUAL_FACTOR``; ``B`` is a
    square matrix or a stack of them, all False when one is singular.
    On ``d`` unit columns the product rounds by about ``d eps sum x``;
    ``(d + 5) eps (1 + sum x)`` is charged to the residual.
    """
    d = B.shape[-1]
    try:
        X = np.maximum(solve(B, T), 0.0)
    except LinAlgError:
        return np.zeros(T.shape[:-2] + T.shape[-1:], dtype=bool)
    charge = (d + 5) * _EPS * (1.0 + np.add.reduce(X, axis=-2))
    return vector_norms(B @ X - T, axis=-2) + charge <= EXTREME_RESIDUAL_FACTOR


def _strict_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the vertices of the convex hull of the points ``(x_i,
    y_i)``, counterclockwise from the lowest of the leftmost.

    Andrew's monotone chain (Inf. Process. Lett. 9, 1979) with strict
    turns: a point on an edge, or on top of another, is no vertex, and
    points on one line give two vertices or fewer.  Within rounding of a
    line one point can turn strictly on both chains; then no vertex is
    returned.
    """
    order = np.lexsort((y, x)).tolist()
    x, y = x.tolist(), y.tolist()

    def chain(seq):
        out: list[int] = []
        for i in seq:
            xi, yi = x[i], y[i]
            while len(out) > 1:
                o, a = out[-2], out[-1]
                if (x[a] - x[o]) * (yi - y[o]) > (y[a] - y[o]) * (xi - x[o]):
                    break
                out.pop()
            out.append(i)
        return out[:-1]

    lower, upper = chain(order), chain(order[::-1])
    if not set(lower).isdisjoint(upper):
        return np.zeros(0, dtype=np.intp)
    return np.array(lower + upper, dtype=np.intp)


def _planar_certificates(U: np.ndarray, K: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Extreme and open representatives of a cone of unit columns in
    ``R^3``, read off its cross-section, given their cosine matrix
    ``K``: ``None`` when some ray misses the plane of the cross-section
    or it has fewer than three vertices.

    The plane ``c.x = 1`` orthogonal to the sum ``c`` of the columns
    meets every ray, at ``p_j = u_j / c.u_j``; its points are read in the
    two coordinates ``a, b`` other than the largest of ``c``, which map
    the plane onto theirs without folding it.  A ray is extreme exactly
    when its point is a vertex of the polygon the points span
    (:func:`_strict_hull`).  Neither the hull nor the projection is
    trusted: a representative is settled only by a certificate that the
    extremality rule accepts, and the others stay open.

    * A vertex is extreme when its :func:`_separation_bound` exceeds
      ``EXTREME_RESIDUAL_FACTOR`` along the hull's outward normal there,
      the normal ``(dy, -dx)`` of the chord from its predecessor to its
      successor, lifted to ``R^3`` as ``dy e_a - dx e_b``: on a column
      that functional is ``c.u`` times the normal's value at its point.
    * Any other point lies in a triangle of the fan from the first
      vertex, found by its angle from the first hull edge (seen from a
      vertex the polygon spans less than a half turn, so no branch cut
      falls inside it).  It is not extreme when solving on the
      triangle's three columns, clipped at 0, rebuilds it within the
      factor (:func:`_rebuilt`); a singular triangle leaves every such
      point open.

    Returns the extreme mask and the open mask.
    """
    c = np.add.reduce(U, axis=1)
    m = int(np.abs(c).argmax())
    a, b = (m + 1) % 3, (m + 2) % 3
    s = c @ U
    if not (s > 0.0).all():
        return None
    x, y = U[a] / s, U[b] / s
    hull = _strict_hull(x, y)
    h = hull.size
    if h < 3:
        return None
    k = U.shape[1]
    is_ext = np.zeros(k, dtype=bool)
    prev, nxt = hull[np.arange(-1, h - 1)], hull[np.arange(1 - h, 1)]
    dx, dy = x[nxt] - x[prev], y[nxt] - y[prev]
    V = np.zeros((3, h))
    V[a], V[b] = dy, -dx
    V /= np.sqrt(dx * dx + dy * dy)
    is_ext[hull] = _separation_bound(U, K, V, hull) > EXTREME_RESIDUAL_FACTOR
    is_open = ~is_ext
    inner = np.ones(k, dtype=bool)
    inner[hull] = False
    inner = inner.nonzero()[0]
    if inner.size:
        v0 = hull[0]
        ex, ey = x[hull[1]] - x[v0], y[hull[1]] - y[v0]

        def angle(j):
            px, py = x[j] - x[v0], y[j] - y[v0]
            return np.arctan2(ex * py - ey * px, ex * px + ey * py)

        fan = (np.searchsorted(angle(hull[1:]), angle(inner), side="right") - 1).clip(0, h - 3)
        cols = np.array([np.full(inner.size, v0), hull[fan + 1], hull[fan + 2]])
        B = U.T[cols.T].transpose(0, 2, 1)
        is_open[inner] = ~_rebuilt(B, U.T[inner][:, :, None])[:, 0]
    return is_ext, is_open


@dataclass(frozen=True)
class ConeReport:
    """Extreme rays of a column cone: one representative column index per
    ray (0-based, the smallest index when several columns span the same
    ray), in increasing order."""

    extreme_indices: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.extreme_indices)


def _extreme_set(M: np.ndarray, tol: Tolerances) -> tuple[list[int], np.ndarray]:
    """Sorted extreme columns of ``M`` and the representative of each
    column (``-1`` for a zero column).

    Zero columns are dropped, positive multiples of one ray are collapsed
    onto their smallest-index representative, and a representative is
    extreme when nonnegative least squares cannot reconstruct it from the
    others.  The collapse runs only when some pair of columns lies within
    ``DUPLICATE_RAY_COS_GAP``; otherwise every nonzero column represents
    its own ray.  A lone representative is extreme without a screen.

    When ``M`` has three rows and more than three representatives, the
    cross-section of their cone settles them (:func:`_planar_certificates`):
    each hull vertex whose separation bound along the hull's outward
    normal exceeds ``EXTREME_RESIDUAL_FACTOR`` is extreme, and each other
    point that its fan triangle rebuilds within the factor is not.  A
    cross-section with fewer than three vertices, or a sum that misses a
    ray, leaves the representatives to the stages below.

    Otherwise a representative whose separation bound (see
    :func:`_separation_bound`) along its isotropic direction ``(U
    U^T)^-1 u_j`` (:func:`_isotropic_directions`) exceeds the factor is
    extreme by that rule without a solve, since the least-squares
    residual is at least the distance the bound bounds.  On a basis that
    bound is the column's distance from the span of the others.  Without
    directions every representative stays open.  When exactly
    ``d`` are separated and solving on them rebuilds each open one within
    the factor with nonnegative coefficients (:func:`_rebuilt`), all the
    open ones are not extreme.

    Whatever is still open goes to one batched solve on the unit
    columns, which tests every open representative against all the
    others, so the first column to enter a fit is its most aligned ray
    and the residual is already relative.  Each call logs one DEBUG
    line: representatives, how many were separated, how many the
    separated basis rebuilt and, when the cross-section settled them,
    ``planar``: how many its certificates settled.
    """
    n = M.shape[1]
    norms = vector_norms(M)
    nonzero = (norms > tol.eps_nonneg * norms.max(initial=0.0)).nonzero()[0]
    rep_of = np.full(n, -1)
    if not nonzero.size:
        return [], rep_of
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
    if reps.size == 1:  # a lone ray is extreme without a bound
        return reps.tolist(), rep_of

    d = U.shape[0]
    planar = _planar_certificates(U, Kr) if d == 3 < reps.size else None
    if planar is not None:
        is_ext, is_open = planar
        rest = is_open.nonzero()[0]
        _log.debug(
            "_extreme_set: representatives=%d separated=0 basis=0 planar=%d",
            reps.size, reps.size - rest.size,
        )
    else:
        V = _isotropic_directions(U)
        if V is None:
            is_ext = np.zeros(reps.size, dtype=bool)
        else:
            is_ext = _separation_bound(U, Kr, V) > EXTREME_RESIDUAL_FACTOR
        separated = int(is_ext.sum())
        rest = (~is_ext).nonzero()[0]
        if rest.size and separated == d and _rebuilt(U[:, is_ext], U[:, rest]).all():
            rest = rest[:0]
        _log.debug(
            "_extreme_set: representatives=%d separated=%d basis=%d",
            reps.size, separated, reps.size - separated - rest.size,
        )
    if rest.size:
        fits = _batched_nnls(Kr, Kr[rest], ~np.eye(reps.size, dtype=bool)[rest])
        is_ext[rest] = vector_norms(U @ fits.T - U[:, rest]) > EXTREME_RESIDUAL_FACTOR
    return reps[is_ext].tolist(), rep_of


def _cone_fit(F: np.ndarray, extreme: list[int], rep_of: np.ndarray) -> tuple[np.ndarray, float]:
    """Reconstruct every Gram column ``G = F^T F`` from its ``extreme``
    columns, given what :func:`_extreme_set` returned for ``F``: the
    coefficients ``W`` and the relative residual.

    ``G`` is a linear image of the columns of ``F``, so coefficients that
    rebuild a column of ``F`` rebuild the same column of ``G``.  An
    extreme column is its own coefficient 1, and a duplicate of one a
    multiple of it measured on ``G``.  The other columns are fitted in
    one batched solve on the unit columns of ``F``, where the extremality
    test ran, and their coefficients are rescaled to the columns of
    ``G``.  ``residual`` is measured on ``G``.
    """
    G = F.T @ F
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
        norms = vector_norms(F)
        ne, nf = norms[ext], norms[fit]
        E = F[:, ext] / ne
        T = F[:, fit] / nf
        coeffs = _batched_nnls(E.T @ E, T.T @ E, np.ones((fit.size, m), dtype=bool))
        W[:, fit] = coeffs.T * ((1.0 / ne)[:, None] * nf)
    residual = 0.0
    if m:
        denom = frobenius_norm(G)
        residual = frobenius_norm(G - G[:, ext] @ W) / denom if denom else 0.0
    return W, residual


def _rank_factor(A: MatrixLike, tol: Tolerances) -> np.ndarray:
    """The rank factor of a DN matrix, which the cone analysis runs on."""
    S = as_symmetric(A, tol)
    verdict = classify_dn(S, tol)
    if not verdict.is_dn:
        raise PreconditionError(f"cone analysis requires a DN matrix, got {verdict.status}")
    return sr_factor(S, tol)


def extreme_rays(A: MatrixLike, tol: Tolerances = DEFAULT_TOL) -> ConeReport:
    """Extreme rays of the column cone of a DN matrix.

    The analysis runs on the rank-truncated spectral reconstruction of the
    input, which is the matrix the working tolerances say the input is;
    for a matrix of exact numerical rank this changes nothing.  Which
    columns are extreme is decided on the unit columns of the rank factor
    ``B``: a reconstruction residual on ``B`` scales with the square roots
    of the eigenvalues, where on the Gram columns it scales with the
    eigenvalues themselves, so an ill-conditioned cone would lose rays.
    """
    return ConeReport(tuple(_extreme_set(_rank_factor(A, tol), tol)[0]))


def fit_rays(A: MatrixLike, tol: Tolerances = DEFAULT_TOL) -> tuple[ConeReport, np.ndarray, float]:
    """The rays of :func:`extreme_rays`, the nonnegative coefficients
    ``W`` that rebuild every column from the extreme ones, and the
    relative Frobenius residual of that reconstruction.

    ``W`` is fitted on the unit columns of the rank factor ``B``, from a
    cold start, and rescaled: ``B`` maps onto the Gram columns linearly,
    so ``W`` and the residual describe the columns of the input's
    rank-truncated reconstruction.  No step of the analysis reads them.
    """
    B = _rank_factor(A, tol)
    extreme, rep_of = _extreme_set(B, tol)
    return ConeReport(tuple(extreme)), *_cone_fit(B, extreme, rep_of)
