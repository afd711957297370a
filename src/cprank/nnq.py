"""Nonnegative-equivalence detection.

A full-row-rank factor ``B`` is nonnegative-equivalent (nnq) when some
invertible column submatrix ``B1`` satisfies ``B1^{-1} B >= 0``.  The
property belongs to the factored matrix, not the factor: any two rank
factorizations agree on it, and the coordinate matrix ``P = B1^{-1} B``
can equally be computed from Gram data as ``A[s,s]^{-1} A[s,:]``.  The
only possible basis is one column per extreme ray of the column cone, so
detection reads the witness off an extreme-ray report.  A witness
leaves exactly rank many extreme rays, so for rank at most 4 the
few-rays factorization of :mod:`cprank.cones` certifies cp-rank equal to
the rank from that same report; at rank 3 that decides membership in
CP_{n,3} (:func:`decide_rank3_three_rays`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import ConeReport, extreme_rays, few_rays_factor
from .matcore import (
    DEFAULT_TOL,
    MatrixLike,
    Tolerances,
    as_symmetric,
    classify_dn,
    psd_rank,
    vector_norms,
)
from .rotate import check_seed_restarts
from .srfactor import CpCertificate

__all__ = [
    "FOUND",
    "NONE",
    "NnqWitness",
    "NnqSearchResult",
    "is_nnq_gram",
    "nnq_from_rays",
    "Rank3RayDecision",
    "decide_rank3_three_rays",
    "IN_CP_N3",
    "NOT_APPLICABLE",
]

FOUND = "FOUND"
NONE = "NONE"
IN_CP_N3 = "IN_CP_N3"
NOT_APPLICABLE = "NOT_APPLICABLE"

# a basis candidate counts as invertible when |det| exceeds this factor
# times the product of its column norms (Hadamard scale)
EPS_DET_FACTOR = 1e-10
LOG_EPS_DET_FACTOR = math.log(EPS_DET_FACTOR)
# the logarithms of the normal float range
LOG_TINY = math.log(np.finfo(float).tiny)
LOG_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class NnqWitness:
    """Evidence that a matrix is nonnegative-equivalent.

    ``indices`` is the sorted tuple of basis column indices (0-based here;
    reports render them 1-based), ``B1`` the basis block ``A[s,s]``,
    ``detval`` its determinant (None when that lies outside the normal
    float range, as an order-``r`` determinant of a matrix at either end
    of the accepted entry range can), and ``P`` the nonnegative
    coordinate matrix with ``P[:, indices]`` equal to the identity.
    """

    indices: tuple[int, ...]
    detval: float | None
    P: np.ndarray
    B1: np.ndarray


@dataclass(frozen=True)
class NnqSearchResult:
    """Outcome of nnq detection: ``FOUND`` with a witness, or ``NONE``."""

    status: str
    witness: NnqWitness | None = None

    @property
    def found(self) -> bool:
        return self.status == FOUND


def nnq_from_rays(
    A: MatrixLike, rays: ConeReport, rank: int, tol: Tolerances = DEFAULT_TOL
) -> NnqSearchResult:
    """Nonnegative equivalence of a PSD matrix of rank ``rank``, read off
    ``rays``, the extreme-ray report of its column cone (or of the column
    cone of any rank factor of it).

    A rank-``r`` column cone spans ``R^r``, so a basis with
    ``B1^{-1} B >= 0`` exists exactly when the cone is simplicial: it then
    has exactly ``r`` extreme rays, and their representative columns are
    the basis.  ``B1`` in the witness is ``A[s,s]``; invertibility and the
    nonnegativity of ``P`` (0 on the columns of zero rows) are re-checked.
    Invertibility is decided on the logarithms of the determinant and of
    the column norms, which neither under- nor overflow at any scale.
    """
    if rays.m != rank:
        return NnqSearchResult(status=NONE)
    S = as_symmetric(A, tol)
    idx = list(rays.extreme_indices)
    rows = S.a[idx]
    basis = rows[:, idx]
    sign, logdet = np.linalg.slogdet(basis)
    if not sign or logdet <= LOG_EPS_DET_FACTOR + float(np.log(vector_norms(basis)).sum()):
        return NnqSearchResult(status=NONE)
    # np.linalg.det(basis), bit for bit, where it is a normal float
    det = float(sign) * math.exp(logdet) if LOG_TINY <= logdet <= LOG_MAX else None
    P = np.linalg.solve(basis, rows)
    P[:, S.zero_rows(tol.eps_nonneg)] = 0.0
    # initial=0.0 lets the empty basis of a rank-0 matrix through
    if float(P.min(initial=0.0)) < -tol.eps_nonneg:
        return NnqSearchResult(status=NONE)
    witness = NnqWitness(indices=rays.extreme_indices, detval=det, P=P, B1=basis)
    return NnqSearchResult(status=FOUND, witness=witness)


def is_nnq_gram(A: MatrixLike, tol: Tolerances = DEFAULT_TOL) -> NnqSearchResult:
    """Detect nonnegative equivalence of a DN matrix straight from Gram data.

    The answer is the same for every rank factorization ``B`` of ``A``;
    ``B1`` in the witness is the principal submatrix ``A[s,s]``, and
    ``B[:, s]^{-1} B`` is the factor's coordinate matrix.
    """
    S = as_symmetric(A, tol)
    return nnq_from_rays(S, extreme_rays(S, tol), psd_rank(S, tol).rank, tol)


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
    A: MatrixLike, tol: Tolerances = DEFAULT_TOL, seed: int = 0, restarts: int = 200
) -> Rank3RayDecision:
    """Membership in CP_{n,3} for DN matrices of rank 3 whose column cone
    has exactly three extreme rays.

    Three rays spanning ``R^3`` make the cone simplicial, so the matrix is
    nonnegative-equivalent and cp-rank equals rank; the certificate is the
    few-rays factorization of those three rays.  Outside those hypotheses
    the decision is not applicable.  A negative ``seed`` or ``restarts``
    raises :class:`InvalidInputError`.
    """
    check_seed_restarts(seed, restarts)
    S = as_symmetric(A, tol)
    verdict = classify_dn(S, tol)
    if not verdict.is_dn or verdict.rank != 3:
        return Rank3RayDecision(status=NOT_APPLICABLE)
    report = extreme_rays(S, tol)
    result = nnq_from_rays(S, report, 3, tol)
    if not result.found:
        return Rank3RayDecision(status=NOT_APPLICABLE, m=report.m)
    cert = few_rays_factor(S, report, tol, seed=seed, restarts=restarts)
    return Rank3RayDecision(status=IN_CP_N3, m=report.m, witness=result.witness, certificate=cert)
