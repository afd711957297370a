"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from cprank import (
    DEFAULT_TOL,
    InvalidInputError,
    as_symmetric,
    make_certificate,
    orthant_rotation_search,
    psd_rank,
    random_orthogonal,
    sr_factor,
    verify_certificate,
)
from cprank import cones
from cprank.cones import DUPLICATE_RAY_COS_GAP, EXTREME_RESIDUAL_FACTOR
from cprank.graphcond import GraphShape
from cprank.matcore import frobenius_norm
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
                first = NnqWitness(indices=sigma, detval=det, P=P)
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
    r = B.shape[0]
    mixed = random_orthogonal(r, np.random.default_rng(seed)) @ B
    res1, fam1 = nnq_scan(B, r, gram=False, tol=tol, collect_all=True)
    res2, fam2 = nnq_scan(mixed, r, gram=False, tol=tol, collect_all=True)
    return res1.status == res2.status and fam1 == fam2


def graph_of_loops(A, tol=DEFAULT_TOL):
    """Zero-pattern edge oracle: one comparison per pair of indices."""
    S = as_symmetric(A, tol)
    a = S.a
    scale = float(np.abs(a).max())
    edges = set()
    if scale > 0.0:
        for i in range(S.n):
            for j in range(i + 1, S.n):
                if abs(a[i, j]) > tol.eps_nonneg * scale:
                    edges.add((i, j))
    return edges


def classify_graph_loops(n, edges):
    """Graph-shape oracle on ``n`` vertices: a set-based breadth-first
    search, degrees counted edge by edge, and a triangle search over
    vertex triples."""
    neighbours = {i: set() for i in range(n)}
    for i, j in edges:
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
    connected = len(seen) == n
    is_cycle = connected and n >= 3 and all(len(neighbours[i]) == 2 for i in range(n))
    triangle_free = not any(
        j in neighbours[i] and k in neighbours[i] and k in neighbours[j]
        for i, j, k in itertools.combinations(range(n), 3)
    )
    is_tree = connected and len(edges) == n - 1
    return GraphShape(
        edges=tuple(sorted(edges)),
        is_cycle=is_cycle,
        is_triangle_free=triangle_free,
        is_tree=is_tree,
        is_connected=connected,
    )


def kaykobad_rows_loops(A, tol=DEFAULT_TOL):
    """Kaykobad factor oracle for a nonnegative diagonally dominant matrix:
    one row per above-diagonal entry above ``eps_nonneg * scale``, found
    pair by pair in row-major order, then one per strictly dominant row."""
    S = as_symmetric(A, tol)
    a, n = S.a, S.n
    off_sums = a.sum(axis=1) - np.diag(a)
    diag = np.diag(a)
    slack = tol.eps_nonneg * np.maximum(diag, off_sums)
    margins = diag - off_sums
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            if a[i, j] > tol.eps_nonneg * S.scale:
                row = np.zeros(n)
                row[i] = row[j] = np.sqrt(a[i, j])
                rows.append(row)
    for i in range(n):
        if margins[i] > slack[i]:
            row = np.zeros(n)
            row[i] = np.sqrt(margins[i])
            rows.append(row)
    return np.vstack(rows) if rows else np.zeros((0, n))


def duplicate_rays_loop(M, tol=DEFAULT_TOL):
    """Duplicate-ray oracle: the columns of ``M`` taken one at a time.

    A nonzero column joins the first earlier representative at cosine
    ``>= 1 - DUPLICATE_RAY_COS_GAP`` and becomes a representative itself
    when there is none.  Returns the representatives and the
    representative of every nonzero column.
    """
    M = np.asarray(M, dtype=float)
    norms = np.linalg.norm(M, axis=0)
    nonzero = np.flatnonzero(norms > tol.eps_nonneg * norms.max(initial=0.0))
    Mz = M[:, nonzero]
    cos = (Mz.T @ Mz) / np.outer(norms[nonzero], norms[nonzero])
    close = np.tril(cos >= 1.0 - DUPLICATE_RAY_COS_GAP, -1)
    rep_pos = np.arange(nonzero.size)
    is_rep = np.ones(nonzero.size, dtype=bool)
    for a in np.flatnonzero(close.any(axis=1)):
        hits = np.flatnonzero(close[a] & is_rep)
        if hits.size:
            rep_pos[a], is_rep[a] = hits[0], False
    rep_of = {int(j): int(nonzero[p]) for j, p in zip(nonzero, rep_pos)}
    return nonzero[is_rep].tolist(), rep_of


def json_value_recursive(value) -> str:
    """Report-rendering oracle: one recursive call per value, numbers at
    17 significant digits."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{json_value_recursive(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = value.tolist() if isinstance(value, np.ndarray) else list(value)
        return "[" + ",".join(json_value_recursive(v) for v in seq) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def nnls(target, generators, tol=DEFAULT_TOL):
    """Nonnegative least squares: the ``c >= 0`` with least ``||target - G c||``.

    ``generators`` holds the generator vectors as columns (a sequence of
    vectors is stacked).  This is a one-problem call of the batched
    Lawson-Hanson kernel that the cone analysis uses; the problem is
    convex, so the point where its optimality conditions hold is the
    global optimum.  The residual is measured on ``G`` itself.
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
    k = G.shape[1]
    coeffs = cones._batched_nnls(G.T @ G, (G.T @ b)[None, :], np.ones((1, k), dtype=bool))[0]
    return coeffs, float(np.linalg.norm(G @ coeffs - b))


def batched_nnls_reference(K: np.ndarray, C: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """The library's Lawson-Hanson kernel ``cones._batched_nnls`` as it
    stood before its numpy calls were cut: the code is copied unchanged
    apart from the names, the DEBUG line with its solve count, the
    seeded start the kernel no longer has, and the roundoff stop the
    kernel took later, so that a property test can hold the library's
    kernel to it bit for bit."""
    q, k = C.shape
    allowed = allowed & (np.diag(K) > 0.0)
    dual_tol = 64.0 * np.finfo(float).eps * np.abs(np.where(allowed, C, 0.0)).max(axis=1, initial=0.0)
    X = np.zeros((q, k))
    P = np.zeros((q, k), dtype=bool)
    live = np.arange(q)
    rows, Cl, Xl, Pl, Al, tol = live, C, X, P, allowed, dual_tol
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
            Cl, Xl, Pl, Al, tol, opened, j = (v[has] for v in (Cl, Xl, Pl, Al, tol, opened, j))
            rows = np.arange(live.size)
        Pl[rows, j] = True
        opened[rows, j] = False
        S = passive_solve_reference(K, Cl, Pl)
        blocked = Pl & (S <= 0.0)
        # a column whose own coefficient comes out nonpositive gained only
        # roundoff; it leaves again and stays closed until x moves
        enters = S[rows, j] > 0.0
        if not enters.all():
            Pl[rows[~enters], j[~enters]] = False
            blocked[~enters] = False
        stuck = blocked.any(axis=1)
        if stuck.any():
            # step back toward x until every passive coefficient is positive;
            # each row's final solution is written into S
            act = np.flatnonzero(stuck)
            Sa, Pa, Xa, Ca, Ba = S[act], Pl[act], Xl[act], Cl[act], blocked[act]
            while act.size:
                ratio = np.full(Xa.shape, np.inf)
                ratio[Ba] = Xa[Ba] / (Xa[Ba] - Sa[Ba])
                first = ratio.argmin(axis=1)
                at = np.arange(act.size)
                Xa += ratio[at, first][:, None] * (Sa - Xa)
                Xa[at, first] = 0.0
                Pa &= Xa > 0.0
                Xa = np.where(Pa, Xa, 0.0)
                Sa = passive_solve_reference(K, Ca, Pa)
                Ba = Pa & (Sa <= 0.0)
                done = ~Ba.any(axis=1)
                S[act[done]] = Sa[done]
                Pl[act[done]] = Pa[done]
                act, Sa, Pa, Xa, Ca, Ba = (v[~done] for v in (act, Sa, Pa, Xa, Ca, Ba))
        # x moved: rejected columns reopen, and columns that left are open
        if enters.all():
            Xl, opened = S, Al & ~Pl
        else:
            Xl[enters] = S[enters]
            opened[enters] = Al[enters] & ~Pl[enters]
    else:
        X[live] = Xl
    return X


def passive_solve_reference(K: np.ndarray, C: np.ndarray, P: np.ndarray) -> np.ndarray:
    """``cones._passive_solve`` as it stood beside
    :func:`batched_nnls_reference`, copied unchanged apart from its name
    and the singularity screen of the seeded start."""
    S = np.zeros(P.shape)
    sizes = P.sum(axis=1)
    if (sizes == sizes[0]).all():
        p = sizes[0]
        groups = [tuple(a.reshape(-1, p) for a in np.nonzero(P))] if p else []
    else:
        groups = []
        for p in np.flatnonzero(np.bincount(sizes)[1:]) + 1:
            sel = np.flatnonzero(sizes == p)
            groups.append((sel[:, None], np.nonzero(P[sel])[1].reshape(sel.size, p)))
    for rows, cols in groups:
        Kp = K[cols[:, :, None], cols[:, None, :]]
        cp = C[rows, cols][:, :, None]
        try:
            s = np.linalg.solve(Kp, cp)
        except np.linalg.LinAlgError:
            s = np.linalg.pinv(Kp, hermitian=True) @ cp
        S[rows, cols] = s[:, :, 0]
    return S


def active_set_nnls(G, b):
    """Per-problem NNLS oracle: an active-set iteration robust to dependent
    generator columns.

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
    dual_tol = 64.0 * np.finfo(float).eps * max(1.0, float(np.abs(G.T @ b).max(initial=0.0)))
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


def extreme_indices_oracle(A, tol=DEFAULT_TOL):
    """Extreme columns of the rank factor of ``A``, one NNLS per column.

    Zero columns are dropped and duplicate rays collapsed onto their first
    column, as in the library; each representative is then tested on its
    own with :func:`active_set_nnls` against all the others.
    """
    B = sr_factor(as_symmetric(A, tol), tol)
    n = B.shape[1]
    norms = np.linalg.norm(B, axis=0)
    scale = float(norms.max(initial=0.0))
    reps = []
    for j in range(n):
        if norms[j] <= tol.eps_nonneg * scale:
            continue
        if all(
            float(B[:, j] @ B[:, rep]) / (norms[j] * norms[rep]) < 1.0 - DUPLICATE_RAY_COS_GAP
            for rep in reps
        ):
            reps.append(j)
    extreme = []
    for rep in reps:
        others = [k for k in reps if k != rep]
        if others:
            x = active_set_nnls(B[:, others], B[:, rep])
            if np.linalg.norm(B[:, others] @ x - B[:, rep]) <= EXTREME_RESIDUAL_FACTOR * norms[rep]:
                continue
        extreme.append(rep)
    return extreme


def cone_columns(M, tol=DEFAULT_TOL):
    """The library's ``(report, W, residual)`` for the cone of the columns
    of any matrix ``M``, decided and fitted on ``M`` itself, with ``W`` and
    the residual describing the Gram columns ``M^T M``."""
    M = np.asarray(M, dtype=float)
    extreme, rep_of = cones._extreme_set(M, tol)
    return cones.ConeReport(tuple(extreme)), *cones._cone_fit(M, extreme, rep_of)


def cone_report_oracle(F, tol=DEFAULT_TOL):
    """``(report, W, residual)`` of the columns of ``G = F^T F`` decided and
    fitted on ``F``, computed the long way.

    The same stages run on the same kernel, screen (along the same
    isotropic directions), basis and planar certificates as in the
    library, but the duplicate collapse runs every time, the W fit starts
    cold like every kernel call, and every column on an extreme ray gets
    the ratio of its inner product with its representative (1 for the
    representative itself).  The report must
    match the library's bit for bit.
    """
    M, G = F, F.T @ F
    n = M.shape[1]
    norms = np.linalg.norm(M, axis=0)
    nonzero = np.flatnonzero(norms > tol.eps_nonneg * norms.max(initial=0.0))
    rep_of = np.full(n, -1)
    extreme = []
    if nonzero.size:
        Mz = M[:, nonzero]
        cos = (Mz.T @ Mz) / np.outer(norms[nonzero], norms[nonzero])
        close = np.tril(cos >= 1.0 - DUPLICATE_RAY_COS_GAP, -1)
        is_rep = np.ones(nonzero.size, dtype=bool)
        while True:
            hits = close & is_rep
            nxt = ~hits.any(axis=1)
            if np.array_equal(nxt, is_rep):
                break
            is_rep = nxt
        rep_pos = np.where(is_rep, np.arange(nonzero.size), hits.argmax(axis=1))
        rep_of[nonzero] = nonzero[rep_pos]
        reps = np.flatnonzero(is_rep)
        Kr = cos[np.ix_(reps, reps)]
        U = Mz[:, reps] / norms[nonzero[reps]]
        d = U.shape[0]
        planar = cones._planar_certificates(U, Kr) if d == 3 < reps.size else None
        if planar is not None:
            is_ext, is_open = planar
            rest = np.flatnonzero(is_open)
        else:
            V = cones._isotropic_directions(U)
            if V is None:
                is_ext = np.zeros(reps.size, dtype=bool)
            else:
                is_ext = cones._separation_bound(U, Kr, V) > EXTREME_RESIDUAL_FACTOR
            rest = np.flatnonzero(~is_ext)
            if rest.size and is_ext.sum() == d and cones._rebuilt(U[:, is_ext], U[:, rest]).all():
                rest = rest[:0]
        if rest.size:
            X = cones._batched_nnls(Kr, Kr[rest], ~np.eye(reps.size, dtype=bool)[rest])
            resid = np.linalg.norm(U @ X.T - U[:, rest], axis=0)
            is_ext[rest] = resid > EXTREME_RESIDUAL_FACTOR
        extreme = nonzero[reps[is_ext]].tolist()

    m = len(extreme)
    W = np.zeros((m, n))
    pos = np.full(n, -1)
    pos[extreme] = np.arange(m)
    kept = np.flatnonzero(rep_of >= 0)
    k = pos[rep_of[kept]]
    on = k >= 0
    cols, owners = kept[on], rep_of[kept[on]]
    R = G[:, owners]
    ratio = np.einsum("ij,ij->j", R, G[:, cols]) / np.einsum("ij,ij->j", R, R)
    W[k[on], cols] = np.where(cols == owners, 1.0, ratio)
    fit = kept[~on]
    if m and fit.size:
        E = F[:, extreme] / norms[extreme]
        T = F[:, fit] / norms[fit]
        X = cones._batched_nnls(E.T @ E, T.T @ E, np.ones((fit.size, m), dtype=bool))
        W[:, fit] = X.T * np.outer(1.0 / norms[extreme], norms[fit])
    residual = 0.0
    if m:
        denom = float(np.linalg.norm(G))
        residual = float(np.linalg.norm(G - G[:, extreme] @ W)) / denom if denom else 0.0
    return cones.ConeReport(tuple(extreme)), W, residual


def span_distance(U):
    """Lower bounds on the distance of each unit column of the square
    ``U`` from the span of the others (0 when ``U`` is singular).

    Row ``j`` of ``U^-1`` has inner product 1 with ``u_j`` and 0 with
    every other column, so that distance is ``1 / ||row j||``, and it
    bounds the distance from the others' cone, and so the least-squares
    residual, from below.  The computed inverse is off by about
    ``d eps cond(U) ||U^-1||`` with ``cond(U) = ||U||_F ||U^-1||_F =
    sqrt(d) ||U^-1||_F`` for unit columns; that error is charged against
    every row norm, so an ill-conditioned basis gets no bound above the
    extremality factor.  The library's separation bound along the
    isotropic directions of a basis bounds the same distances.
    """
    d = U.shape[0]
    try:
        V = np.linalg.inv(U)
    except np.linalg.LinAlgError:
        return np.zeros(d)
    row = np.linalg.norm(V, axis=1)
    return 1.0 / (row + (d + 4) * np.finfo(float).eps * np.sqrt(d) * (row @ row))


def connecting_orthogonal(B, C, tol=DEFAULT_TOL):
    """Orthogonal ``Q`` linking two rank factorizations of one matrix.

    For full-row-rank factors with equal Gram matrices the construction
    ``Q = (B B^T)^{-1} B C^T`` returns the orthogonal matrix satisfying
    ``B = Q C``.  Note the orientation: ``Q`` maps the second factor onto
    the first.  Raises ``InvalidInputError`` if the shapes differ or the
    Gram matrices disagree beyond ``eps_residual`` relative to their scale.
    """
    Bm = np.asarray(B, dtype=float)
    Cm = np.asarray(C, dtype=float)
    if Bm.shape != Cm.shape:
        raise InvalidInputError(f"factor shapes differ: {Bm.shape} vs {Cm.shape}")
    gram_b = Bm.T @ Bm
    gram_c = Cm.T @ Cm
    scale = max(float(np.linalg.norm(gram_b)), float(np.linalg.norm(gram_c)), 1e-300)
    mismatch = float(np.linalg.norm(gram_b - gram_c))
    if mismatch > tol.eps_residual * scale:
        raise InvalidInputError(
            f"factors have different Gram matrices: relative mismatch {mismatch / scale:.3e}"
        )
    BBt = Bm @ Bm.T
    return np.linalg.solve(BBt, Bm @ Cm.T)


def assert_rotates_the_rank_factor(A, cert, m, tol=DEFAULT_TOL):
    """``cert`` verifies, has from rank to ``m`` rows, and its residual
    exceeds the rank factor's own by at most what the clamp of
    ``make_certificate`` and rounding can add.

    ``C = Q [B; 0]`` has ``C^T C = B^T B`` and ``||C|| = ||B||``.  The
    clamp raises entries in ``[-eps, 0)``, ``eps = eps_nonneg *
    sqrt(scale)``, to 0, so it moves ``C`` by some ``D`` with ``||D|| <=
    eps sqrt(size)``, and ``C^T C`` by at most ``2 ||B|| ||D|| +
    ||D||^2``.  Rounding in ``Q`` and in the product adds a few units of
    ``eps_machine ||B||^2`` per row.
    """
    S = as_symmetric(A, tol)
    B = sr_factor(S, tol)
    assert verify_certificate(S, cert, tol).passed
    assert B.shape[0] <= cert.rows <= m
    norm_a, norm_b = frobenius_norm(S.a), frobenius_norm(B)
    own = frobenius_norm(B.T @ B - S.a) / norm_a
    shift = tol.eps_nonneg * math.sqrt(S.scale) * math.sqrt(cert.C.size)
    clamp = (2.0 * norm_b * shift + shift * shift) / norm_a
    rounding = 8 * (cert.rows + 1) * np.finfo(float).eps * norm_b**2 / norm_a
    assert cert.residual <= own + clamp + rounding


def full_factor_rotation(A, config):
    """The heuristic rotation as it ran on the whole rank factor ``B``
    before it searched only the extreme columns: one search over all ``n``
    columns with the floor ``eps_nonneg * sqrt(scale)`` of the input, and
    the certificate ``Q B``.  The certificate when it verifies, else
    ``None``."""
    tol = config.tol
    S = as_symmetric(A, tol)
    B = sr_factor(S, tol)
    eps = tol.eps_nonneg * math.sqrt(S.scale)
    Q = orthant_rotation_search(B, restarts=config.restarts, seed=config.seed, eps=eps)
    if Q is None:
        return None
    cert = make_certificate(S, Q @ B, "heuristic_rotation", tol)
    return cert if verify_certificate(S, cert, tol).passed else None
