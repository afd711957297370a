"""Nonnegative-equivalence detection and the resulting factorization.

A full-row-rank factor ``B`` is nonnegative-equivalent (nnq) when some
invertible column submatrix ``B1`` satisfies ``B1^{-1} B >= 0``.  The
property belongs to the factored matrix, not the factor: any two rank
factorizations agree on it, and the coordinate matrix ``P = B1^{-1} B``
can equally be computed from Gram data as ``A[s,s]^{-1} A[s,:]``.  The
only possible basis is one column per extreme ray of the column cone, so
detection reads the witness off an extreme-ray report.  For rank at most
4 a witness yields a completely positive factorization with cp-rank equal
to the rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ComputationFailureError, UnsupportedRankError
from .matcore import DEFAULT_TOL, MatrixLike, Tolerances, as_symmetric, psd_rank
from .rotate import small_orthant_rotation
from .srfactor import CpCertificate, SrFactor, make_certificate, sr_factor

if TYPE_CHECKING:
    from .cones import ConeReport

__all__ = [
    "FOUND",
    "NONE",
    "NnqWitness",
    "NnqSearchResult",
    "find_nnq_witness",
    "is_nnq_gram",
    "nnq_from_rays",
    "nnq_factor",
]

FOUND = "FOUND"
NONE = "NONE"

# a basis candidate counts as invertible when |det| exceeds this factor
# times the product of its column norms (Hadamard scale)
EPS_DET_FACTOR = 1e-10


@dataclass(frozen=True)
class NnqWitness:
    """Evidence that a factor is nonnegative-equivalent.

    ``indices`` is the sorted tuple of basis column indices (0-based here;
    reports render them 1-based), ``B1`` the basis submatrix, ``detval``
    its determinant, and ``P`` the nonnegative coordinate matrix with
    ``P[:, indices]`` equal to the identity.
    """

    indices: tuple[int, ...]
    detval: float
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


def _witness(
    M: np.ndarray, rays: ConeReport, rank: int, gram: bool, tol: Tolerances
) -> NnqSearchResult:
    """The nnq witness read off the extreme rays of the columns of ``M``.

    A rank-``r`` column cone spans ``R^r``, so a basis with
    ``B1^{-1} B >= 0`` exists exactly when the cone is simplicial: it then
    has exactly ``r`` extreme rays, and their representative columns are
    the basis.  ``B1`` is ``M[s,s]`` on Gram data and ``M[:, s]`` on a
    factor; invertibility and the nonnegativity of ``P`` are re-checked.
    """
    if rays.m != rank:
        return NnqSearchResult(status=NONE)
    idx = list(rays.extreme_indices)
    basis = M[np.ix_(idx, idx)] if gram else M[:, idx]
    det = float(np.linalg.det(basis))
    col_scale = float(np.prod(np.linalg.norm(basis, axis=0)))
    if abs(det) <= EPS_DET_FACTOR * col_scale:
        return NnqSearchResult(status=NONE)
    P = np.linalg.solve(basis, M[idx, :] if gram else M)
    # initial=0.0 lets the empty basis of a rank-0 matrix through
    if float(P.min(initial=0.0)) < -tol.eps_nonneg:
        return NnqSearchResult(status=NONE)
    witness = NnqWitness(indices=rays.extreme_indices, detval=det, P=P, B1=basis)
    return NnqSearchResult(status=FOUND, witness=witness)


def nnq_from_rays(
    A: MatrixLike,
    rays: ConeReport,
    rank: int,
    tol: Tolerances = DEFAULT_TOL,
) -> NnqSearchResult:
    """Nonnegative equivalence of a PSD matrix of rank ``rank``, read off
    ``rays``, the extreme-ray report of its column cone (or of the column
    cone of any rank factor of it); ``B1`` in the witness is ``A[s,s]``."""
    return _witness(as_symmetric(A, tol).a, rays, rank, gram=True, tol=tol)


def find_nnq_witness(B: SrFactor | np.ndarray, tol: Tolerances = DEFAULT_TOL) -> NnqSearchResult:
    """Look for an nnq basis among the columns of a full-row-rank factor.

    The only candidate is one column per extreme ray (the smallest index),
    so the witness is deterministic.
    """
    from .cones import extreme_columns

    Bm = B.B if isinstance(B, SrFactor) else np.asarray(B, dtype=float)
    return _witness(Bm, extreme_columns(Bm, tol), Bm.shape[0], gram=False, tol=tol)


def is_nnq_gram(A: MatrixLike, tol: Tolerances = DEFAULT_TOL) -> NnqSearchResult:
    """Detect nonnegative equivalence of a DN matrix straight from Gram data.

    Agrees with :func:`find_nnq_witness` applied to any rank factorization
    of ``A``; here ``B1`` in the witness is the principal submatrix
    ``A[s,s]``.
    """
    from .cones import extreme_rays

    S = as_symmetric(A, tol)
    return nnq_from_rays(S, extreme_rays(S, tol), psd_rank(S, tol).rank, tol)


def nnq_factor(
    A: MatrixLike,
    witness: NnqWitness,
    tol: Tolerances = DEFAULT_TOL,
    seed: int = 0,
    restarts: int = 200,
) -> CpCertificate:
    """Build a cp-rank-equals-rank certificate from an nnq witness.

    The basis block ``A[s,s]`` is factored as ``N^T N`` with ``N``
    nonnegative (guaranteed to exist for rank at most 4) and the
    certificate is ``C = N P``.  A QR fast path inside the rotation search
    handles the common case where the triangular factor is already
    nonnegative.
    """
    S = as_symmetric(A, tol)
    sigma = list(witness.indices)
    r = len(sigma)
    if r > 4:
        raise UnsupportedRankError(
            f"nnq factorization is guaranteed only up to rank 4, got rank {r}"
        )
    if r == 0:
        return make_certificate(S, np.zeros((0, S.n)), "nnq", tol)
    # rebuild the coordinate matrix from the SR factor so that basis block,
    # P and certificate are mutually consistent even when the input carries
    # rank noise at the working tolerances
    B = sr_factor(S, tol).B
    B1 = B[:, sigma]
    col_scale = float(np.prod(np.linalg.norm(B1, axis=0)))
    if B.shape[0] != r or abs(float(np.linalg.det(B1))) <= EPS_DET_FACTOR * col_scale:
        raise ComputationFailureError(
            "witness basis is numerically singular in the rank-r factor"
        )
    P = np.linalg.solve(B1, B)
    Q = small_orthant_rotation(B1, budget=restarts, seed=seed, tol=tol)
    if Q is None:
        raise ComputationFailureError(
            "rotation search exhausted its budget on the basis block; "
            "a solution exists, raise the restart budget"
        )
    C = (Q @ B1) @ P
    return make_certificate(S, C, "nnq", tol)
