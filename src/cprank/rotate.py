"""Rotating Gram vectors into the nonnegative orthant.

The geometric core of the package: membership in the circular cone around
the all-ones direction, Householder alignment onto that direction, the
row-sum sufficient condition with its constructive factorization, and a
seeded multi-start search for an orthogonal matrix that makes a vector
family nonnegative.

The search is Douglas-Rachford between the rotations of the family and
the nonnegative orthant (Borwein and Sims, 2011; Elser, Rankenburg and
Thibault, 2007): one SVD per step for the shadow ``polar(Y B^T)``, the
reflect-project update ``Y <- Y + max(2X - Y, 0) - X``, and a restart
ends once its best ``min(Q B)`` stops improving.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, PreconditionError
from .matcore import (
    DEFAULT_TOL,
    MatrixLike,
    SymmetricMatrix,
    Tolerances,
    as_symmetric,
    frobenius_norm,
    psd_rank,
    vector_norms,
)
from .srfactor import CpCertificate, make_certificate, sr_factor

_log = logging.getLogger(__name__)

__all__ = [
    "e_cone_threshold",
    "in_e_cone",
    "boundary_witness",
    "RotationPlan",
    "householder_align",
    "RowSumData",
    "rowsum_condition",
    "rowsum_factor",
    "orthant_rotation_search",
    "random_orthogonal",
]


def random_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix of order ``k``."""
    if k == 0:
        return np.zeros((0, 0))
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs[None, :]


def e_cone_threshold(r: int) -> float:
    """Cosine bound ``sqrt((r-1)/r)``: vectors at least this aligned with the
    all-ones direction are entrywise nonnegative."""
    if r < 1:
        raise InvalidInputError(f"dimension must be positive, got {r}")
    return math.sqrt((r - 1) / r)


def in_e_cone(z: Sequence[float] | np.ndarray) -> bool:
    """Whether ``<z, e> >= sqrt((r-1)/r) ||z|| ||e||`` holds (tiny slack).

    A ``True`` answer implies the vector is entrywise nonnegative.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    r = z.shape[0]
    threshold = e_cone_threshold(r)
    norm = frobenius_norm(z)
    if norm == 0.0:
        raise InvalidInputError("the zero vector has no direction")
    scale = norm * math.sqrt(r)
    return bool(float(z.sum()) >= threshold * scale - 1e-14 * scale)


def boundary_witness(r: int, c: float) -> np.ndarray:
    """A vector with one negative entry whose cosine with the all-ones
    direction still exceeds ``c``.

    Exists for every ``c`` strictly below the ``sqrt((r-1)/r)`` bound,
    showing that bound cannot be lowered.  The witness has the shape
    ``(-eps*sqrt(r-1), sqrt(1-eps^2), ..., sqrt(1-eps^2))`` with ``eps``
    located by bisection on the strict inequality.
    """
    if r < 2:
        raise InvalidInputError(f"need dimension at least 2, got {r}")
    threshold = e_cone_threshold(r)
    if not (0.0 <= c < threshold):
        raise InvalidInputError(f"cosine target must lie in [0, {threshold!r}), got {c!r}")

    def margin(eps: float) -> float:
        return -eps + math.sqrt(r - 1) * math.sqrt(1.0 - eps * eps) - c * math.sqrt(r)

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    eps = 0.5 * lo if lo > 0.0 else 0.25 * hi
    z = np.full(r, math.sqrt(1.0 - eps * eps))
    z[0] = -eps * math.sqrt(r - 1)
    return z


@dataclass(frozen=True)
class RotationPlan:
    """An orthogonal matrix aligning a pivot vector with the all-ones
    direction; ``v`` is the Householder vector (empty for the identity)."""

    Q: np.ndarray
    v: np.ndarray
    x: np.ndarray


def householder_align(x: Sequence[float] | np.ndarray) -> RotationPlan:
    """Reflection mapping ``x`` to ``(||x||/sqrt(r)) e``.

    Uses ``Q = I - (2/v^T v) v v^T`` with ``v = x - (||x||/sqrt(r)) e``;
    the identity is returned when ``x`` already points along ``e``.
    Cosines against the pivot are preserved, so vectors close to ``x``
    land close to ``e``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    r = x.shape[0]
    norm = frobenius_norm(x)
    if norm == 0.0:
        raise InvalidInputError("cannot align the zero vector")
    target = norm / math.sqrt(r) * np.ones(r)
    v = x - target
    if frobenius_norm(v) <= 1e-14 * norm:
        return RotationPlan(Q=np.eye(r), v=np.zeros(0), x=x)
    Q = np.eye(r) - (2.0 / float(v @ v)) * np.outer(v, v)
    return RotationPlan(Q=Q, v=v, x=x)


@dataclass(frozen=True)
class RowSumData:
    row_sums: np.ndarray
    total: float


def rowsum_condition(
    A: MatrixLike, r: int | None = None, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, RowSumData]:
    """Row-sum sufficient condition ``r R_i^2 >= (r-1) a_ii (R_1+...+R_n)``.

    When it holds for a PSD matrix of rank ``r``, the matrix is completely
    positive with cp-rank equal to ``r`` and :func:`rowsum_factor` builds
    the certificate.  ``r`` defaults to the numerical rank; the inequality
    is checked with a small relative slack so that exact-equality cases do
    not flip under roundoff, and zero rows and columns count as exactly 0.
    """
    S = as_symmetric(A, tol)
    if r is None:
        r = psd_rank(S, tol).rank
    a, zero = S.a, S.zero_rows(tol.eps_nonneg)
    if zero.size:
        a = a.copy()
        a[zero] = a[:, zero] = 0.0
    R = a.sum(axis=1)
    total = float(R.sum())
    data = RowSumData(row_sums=R, total=total)
    if r <= 0:
        return True, data
    lhs = r * R * R
    rhs = (r - 1) * a.diagonal() * total
    slack = 1e-12 * np.maximum(np.abs(lhs), np.abs(rhs))
    return bool((lhs >= rhs - slack).all()), data


def rowsum_factor(A: MatrixLike, tol: Tolerances = DEFAULT_TOL) -> CpCertificate:
    """Constructive factorization under the row-sum condition.

    Aligns the sum of the Gram vectors with the all-ones direction; the
    condition guarantees every Gram vector then lies in the nonnegative
    orthant, so ``Q B`` is the certificate with exactly ``rank`` rows.
    """
    S = as_symmetric(A, tol)
    ok, _ = rowsum_condition(S, psd_rank(S, tol).rank, tol)
    if not ok:
        raise PreconditionError("row-sum condition does not hold for this matrix")
    return _rowsum_certificate(S, tol)


def _rowsum_certificate(S: SymmetricMatrix, tol: Tolerances) -> CpCertificate:
    """:func:`rowsum_factor` for a matrix whose row-sum condition holds."""
    B = sr_factor(S, tol)
    if B.shape[0] == 0:
        return make_certificate(S, B, "rowsum", tol)
    x = B @ np.ones(S.n)
    if frobenius_norm(x) == 0.0:
        raise PreconditionError("degenerate row sums: Gram vector sum vanished")
    return make_certificate(S, householder_align(x).Q @ B, "rowsum", tol)


# ---------------------------------------------------------------------------
# orthant rotation search

# step cap of one Douglas-Rachford restart
POLAR_ITERATIONS = 2000
# a restart ends once STALL_STEPS consecutive steps have not raised
# min(Q B) above its best value so far by STALL_GAIN times that value's
# magnitude: Douglas-Rachford never settles on an infeasible point, so
# the stop watches the best infeasibility, not the step length
STALL_GAIN = 1e-3
STALL_STEPS = 100


def _qr_rotation(B: np.ndarray) -> np.ndarray:
    """Orthogonal ``Q`` mapping ``B`` to an upper-triangular matrix with a
    sign-normalized diagonal."""
    q, rmat = np.linalg.qr(B, mode="complete")
    d = min(B.shape)
    signs = np.ones(B.shape[0])
    lead = np.sign(np.diag(rmat[:d, :d]))
    signs[:d] = np.where(lead == 0, 1.0, lead)
    return signs[:, None] * q.T


def check_seed_restarts(seed: int, restarts: int) -> None:
    """Reject a negative seed or restart count of a rotation search with
    :class:`InvalidInputError`, before any restart draws from the seed."""
    for name, value in (("seed", seed), ("restarts", restarts)):
        if value < 0:
            raise InvalidInputError(f"{name} must be nonnegative, got {value!r}")


def orthant_rotation_search(
    B: np.ndarray,
    restarts: int = 200,
    seed: int = 0,
    eps: float = 1e-11,
) -> np.ndarray | None:
    """Search for an orthogonal ``Q`` with ``Q B >= -eps`` entrywise.

    The search runs on the unit columns ``Bn`` of ``B`` with threshold
    ``eps / max column norm``, so ``eps`` is in the units of ``B``;
    callers pass the certificate floor ``eps_nonneg * sqrt(scale)``.  A
    column of norm at most ``eps``, which every ``Q`` keeps above ``-eps``,
    is left out.
    Deterministic given the seed.  Three cheap attempts run first: the
    identity, the QR rotation of ``B``, and the Householder alignment of
    the column centroid.  After that, each restart runs Douglas-Rachford
    on ``Y = Q Bn`` between the orbit ``{Q Bn : Q orthogonal}`` and the
    nonnegative orthant (Borwein and Sims, 2011; the iterated maps of
    Elser, Rankenburg and Thibault, 2007), starting from ``Q`` the
    identity on the first restart and a seeded Haar-random rotation on
    the others, drawn from a generator made when the second restart
    begins.  A step takes the shadow ``Q = polar(Y Bn^T)`` with one SVD,
    returns ``Q`` once ``X = Q Bn`` passes, and otherwise updates
    ``Y <- Y + max(2X - Y, 0) - X``.  A restart ends after
    ``POLAR_ITERATIONS`` steps, or once ``STALL_STEPS`` consecutive steps
    have not raised ``min X`` above its best value so far (the start's
    ``min Y`` included) by ``STALL_GAIN`` times that value's magnitude.  ``None`` means every restart ended
    without a passing ``Q``.  Douglas-Rachford is used rather than the
    alternating projections ``Q <- polar(max(Q Bn, 0) Bn^T)`` of Groetzner
    and Dür (2020) because those settle on infeasible fixed points.  Each
    call logs one DEBUG line (outcome, restarts used, steps) to the
    ``cprank.rotate`` logger.

    No existence claim is made here; callers restrict the input so that a
    solution is known to exist, or treat ``None`` as inconclusive.
    A negative ``restarts`` or ``seed`` raises :class:`InvalidInputError`.
    """
    check_seed_restarts(seed, restarts)
    B = np.asarray(B, dtype=float)
    if B.ndim != 2:
        raise InvalidInputError(f"expected a 2-d array of column vectors, got shape {B.shape}")
    d = B.shape[0]
    norms = vector_norms(B)
    live = norms > eps
    if d == 0 or not live.any():
        return _searched(np.eye(d), "identity", 0, 0)
    Bn = B[:, live] / norms[live]
    threshold = eps / float(norms.max())

    if float(Bn.min()) >= -threshold:
        return _searched(np.eye(d), "identity", 0, 0)
    if d == 1:
        if float(Bn.max()) <= threshold:
            return _searched(-np.eye(1), "reflection", 0, 0)
        return _searched(None, "none", 0, 0)
    Q = _qr_rotation(Bn)
    if float((Q @ Bn).min()) >= -threshold:
        return _searched(Q, "qr", 0, 0)
    centroid = Bn.sum(axis=1)
    if frobenius_norm(centroid) > 0.0:
        Q = householder_align(centroid).Q
        if float((Q @ Bn).min()) >= -threshold:
            return _searched(Q, "householder", 0, 0)

    steps = 0
    for restart in range(restarts):
        if restart == 1:  # restart 0 draws nothing
            rng = np.random.default_rng(seed)
        Y = Bn if restart == 0 else random_orthogonal(d, rng) @ Bn
        best, stalled = float(Y.min()), 0
        for _ in range(POLAR_ITERATIONS):
            steps += 1
            U, _, Vt = np.linalg.svd(Y @ Bn.T)
            Q = U @ Vt
            X = Q @ Bn
            low = float(X.min())
            if low >= -threshold:
                return _searched(Q, "douglas_rachford", restart + 1, steps)
            if low > best + STALL_GAIN * abs(best):
                best, stalled = low, 0
            else:
                stalled += 1
                if stalled >= STALL_STEPS:
                    break
            Y = Y + np.maximum(2.0 * X - Y, 0.0) - X
    return _searched(None, "none", restarts, steps)


def _searched(Q: np.ndarray | None, outcome: str, restarts: int, steps: int) -> np.ndarray | None:
    _log.debug(
        "orthant_rotation_search: outcome=%s restarts=%d steps=%d", outcome, restarts, steps
    )
    return Q
