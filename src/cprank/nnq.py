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
the rank from that same report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .matcore import DEFAULT_TOL, MatrixLike, Tolerances, as_symmetric, psd_rank
from .srfactor import SrFactor

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
