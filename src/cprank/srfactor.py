"""Symmetric rank factorization ``A = B^T B`` and certificate handling.

An SR factor has exactly ``rank(A)`` rows; any two SR factors of the same
matrix are connected by an orthogonal matrix, which is what makes every
rotation-based construction in this package basis-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

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
)

__all__ = [
    "sr_factor",
    "CpCertificate",
    "make_certificate",
    "VerificationReport",
    "verify_certificate",
]


def sr_factor(A: MatrixLike, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Symmetric rank factorization ``A = B^T B`` from the spectral
    decomposition.

    Returns the read-only, C-ordered ``(r, n)`` array
    ``B = diag(sqrt(lambda_k)) V_r^T`` built from the leading ``r``
    eigenpairs, where ``r`` is the numerical rank; column ``i`` is the
    Gram vector of row/column ``i``, exactly 0 for a zero row
    (:meth:`~cprank.matcore.SymmetricMatrix.zero_rows`).  Plain Cholesky would
    fail on singular input, and since all SR factors are orthogonally
    equivalent the eigenvector construction loses nothing.  The
    eigenvector sign convention makes the result deterministic.  A
    :class:`~cprank.matcore.SymmetricMatrix` is factored once per
    ``(eps_psd, eps_rank, eps_nonneg)``, on first use.
    """
    S = as_symmetric(A, tol)
    key = ("sr_factor", tol.eps_psd, tol.eps_rank, tol.eps_nonneg)
    return S.derived(key, lambda: _sr_factor(S, tol))


def _sr_factor(S: SymmetricMatrix, tol: Tolerances) -> np.ndarray:
    is_psd, r = psd_rank(S, tol)
    if not is_psd:
        raise PreconditionError("SR factorization requires a positive semidefinite matrix")
    w = np.maximum(S.eigen.eigenvalues[:r], 0.0)
    # C order: the sums of the separation screen, and so the reports,
    # depend on the layout
    B = (np.sqrt(w)[:, None] * S.eigen.eigenvectors[:, :r].T).copy()
    B[:, S.zero_rows(tol.eps_nonneg)] = 0.0
    B.flags.writeable = False
    return B


@dataclass(frozen=True)
class CpCertificate:
    """An entrywise-nonnegative factor ``C`` with ``C^T C = A``.

    ``min_entry`` is the smallest entry before :func:`make_certificate`
    clamps, and ``residual`` the relative residual of ``C^T C - A`` after
    the clamp.
    """

    C: np.ndarray
    residual: float
    min_entry: float
    method_tag: str

    def __post_init__(self) -> None:
        C = np.asarray(self.C, dtype=float).copy()
        C.flags.writeable = False
        object.__setattr__(self, "C", C)

    @property
    def rows(self) -> int:
        return self.C.shape[0]

    @property
    def n(self) -> int:
        return self.C.shape[1]


def _relative_residual(A: np.ndarray, C: np.ndarray) -> float:
    denom = frobenius_norm(A)
    num = frobenius_norm(C.T @ C - A)
    if denom == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / denom


def make_certificate(
    A: MatrixLike,
    C: np.ndarray,
    method_tag: str,
    tol: Tolerances = DEFAULT_TOL,
) -> CpCertificate:
    """Package a raw factor as a certificate: record the minimum entry,
    clamp entries in ``[-eps_nonneg * sqrt(scale), 0)`` to zero (factor
    entries scale as square roots of matrix entries) and measure the
    residual of the clamped factor."""
    S = as_symmetric(A, tol)
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[1] != S.n:
        raise InvalidInputError(f"factor shape {C.shape} does not match order {S.n}")
    min_entry = float(C.min()) if C.size else 0.0
    clamped = np.where((C < 0.0) & (C >= -tol.eps_nonneg * np.sqrt(S.scale)), 0.0, C)
    return CpCertificate(
        C=clamped,
        residual=_relative_residual(S.a, clamped),
        min_entry=min_entry,
        method_tag=method_tag,
    )


@dataclass(frozen=True)
class VerificationReport:
    residual: float
    min_entry: float
    rows: int
    passed: bool


def verify_certificate(
    A: MatrixLike, cert: CpCertificate, tol: Tolerances = DEFAULT_TOL
) -> VerificationReport:
    """Check a certificate against its matrix.

    Passes iff no entry is below ``-eps_nonneg * sqrt(scale)`` (the clamp
    of :func:`make_certificate`), the relative residual of ``C^T C - A``
    is within ``eps_residual``, and the row count is at least the rank.
    """
    S = as_symmetric(A, tol)
    C = cert.C
    if C.shape[1] != S.n:
        raise InvalidInputError(f"certificate has {C.shape[1]} columns for order {S.n}")
    residual = _relative_residual(S.a, C)
    min_entry = float(C.min()) if C.size else 0.0
    rank = psd_rank(S, tol).rank
    passed = (
        min_entry >= -tol.eps_nonneg * np.sqrt(S.scale)
        and residual <= tol.eps_residual
        and C.shape[0] >= rank
    )
    return VerificationReport(
        residual=residual, min_entry=min_entry, rows=C.shape[0], passed=bool(passed)
    )
