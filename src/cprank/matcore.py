"""Dense symmetric-matrix kernel.

Everything downstream works on symmetric matrices with a tolerance-driven
notion of nonnegativity, positive semidefiniteness and rank.  This module
owns those decisions: eigendecomposition, PSD/rank classification, the
doubly-nonnegative (DN) verdict, zero rows, and the comparison
matrix ``2 diag(A) - A``.  It also holds the norm helpers the other
modules call in place of ``numpy.linalg.norm``, and ``solve`` and ``svd``,
which the solver rounds call in place of numpy.linalg's functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, NamedTuple, Sequence, TypeVar, Union

import numpy as np
from numpy.linalg import LinAlgError

from .errors import InvalidInputError

try:
    from numpy.linalg import _umath_linalg as _lapack
except ImportError:  # every helper below falls back to numpy.linalg
    _lapack = None

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "SymmetricMatrix",
    "as_symmetric",
    "EigenDecomposition",
    "PsdRank",
    "psd_rank",
    "DnVerdict",
    "classify_dn",
    "comparison_matrix",
    "NOT_NONNEGATIVE",
    "NOT_PSD",
    "DN",
]

NOT_NONNEGATIVE = "NOT_NONNEGATIVE"
NOT_PSD = "NOT_PSD"
DN = "DN"


# asymmetry allowed on input matrices, relative to their largest entry
# magnitude, before they are rejected instead of symmetrized
EPS_SYM = 1e-8


@dataclass(frozen=True, kw_only=True)
class Tolerances:
    """Numerical slack used by every decision in the package.

    Every slack is relative to the scale of what it compares, so no
    decision changes when the matrix is multiplied by a positive factor.
    Fields are keyword-only.

    Attributes
    ----------
    eps_psd : float
        Eigenvalue slack relative to ``|lambda|_max`` when deciding
        positive semidefiniteness.
    eps_rank : float
        Eigenvalue threshold on the same scale used to count the rank.
    eps_nonneg : float
        Slack for entrywise nonnegativity: matrix entries compare against
        ``eps_nonneg * scale`` (``scale`` the largest entry magnitude),
        factor and certificate entries against ``eps_nonneg * sqrt(scale)``.
    eps_residual : float
        Relative Frobenius residual allowed for factorization certificates.
    """

    eps_psd: float = 1e-9
    eps_rank: float = 1e-9
    eps_nonneg: float = 1e-9
    eps_residual: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("eps_psd", "eps_rank", "eps_nonneg", "eps_residual"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise InvalidInputError(f"{name} must lie strictly between 0 and 1, got {value!r}")


DEFAULT_TOL = Tolerances()

_FLOAT_MAX = float(np.finfo(float).max)
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)

MatrixLike = Union["SymmetricMatrix", np.ndarray, Sequence[Sequence[float]]]

T = TypeVar("T")


class SymmetricMatrix:
    """An immutable dense symmetric matrix.

    Construction symmetrizes the input as ``(A + A^T) / 2`` provided the
    relative asymmetry does not exceed ``EPS_SYM``; larger asymmetry is
    rejected, and so are entries above ``sqrt(max float / n^3)``, where the
    row-sum condition would overflow, and a nonzero matrix whose largest
    entry is below ``sqrt(tiny float) / eps_residual``, where the squares
    a certificate residual sums would underflow.  The stored array is
    read-only so values can be shared freely.  Every per-matrix fact is
    computed once, on first use, and kept in one table (:meth:`derived`):
    the eigendecomposition, the off-diagonal zero pattern and the zero
    rows of each threshold, and the DN verdict, rank decision and rank
    factor of each tolerance key.
    """

    __slots__ = ("_a", "_scale", "_derived")

    def __init__(self, entries: MatrixLike, tol: Tolerances = DEFAULT_TOL):
        # not copied: the kept array is the new (a + a^T) / 2
        a = np.asarray(getattr(entries, "a", entries), dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise InvalidInputError("matrix order must be at least 1")
        if not np.isfinite(a).all():
            raise InvalidInputError("matrix entries must be finite")
        defect = float(np.abs(a - a.T).max())
        a = (a + a.T) / 2.0
        scale = float(np.abs(a).max())
        # r R_i^2 and (r - 1) a_ii sum(R) of the row-sum condition stay below n^3 scale^2
        limit = math.sqrt(_FLOAT_MAX / a.shape[0] ** 3)
        if scale > limit:
            raise InvalidInputError(f"matrix entries must not exceed {limit:.3e} in magnitude")
        # a residual at the eps_residual bound still has squares above the tiny float
        floor = _SQRT_TINY / tol.eps_residual
        if 0.0 < scale < floor:
            raise InvalidInputError(
                f"the largest entry of a nonzero matrix must be at least {floor:.3e} in magnitude"
            )
        if defect > EPS_SYM * scale:
            raise InvalidInputError(
                f"matrix is not symmetric: asymmetry {defect:.3e} exceeds "
                f"{EPS_SYM:.1e} * {scale:.3e}"
            )
        a.flags.writeable = False
        self._a = a
        self._scale = scale
        self._derived = {}

    @property
    def a(self) -> np.ndarray:
        """Read-only ndarray view of the entries."""
        return self._a

    @property
    def scale(self) -> float:
        """Largest entry magnitude, the unit every entry tolerance is relative to."""
        return self._scale

    @property
    def eigen(self) -> EigenDecomposition:
        """The eigendecomposition, computed on first use: eigenvalues in
        non-increasing order, each eigenvector column flipped so that its
        largest-magnitude entry is positive (deterministic for one input)."""
        return self.derived("eigen", lambda: _eigen(self._a))

    def pattern(self, eps: float) -> np.ndarray:
        """Read-only boolean off-diagonal pattern ``|a_ij| > eps * scale``
        (``i != j``), computed once per ``eps`` on first use."""
        return self.derived(("pattern", eps), lambda: _pattern(self._a, eps * self._scale))

    def zero_rows(self, eps: float) -> np.ndarray:
        """Read-only indices of the rows whose entries are all at most
        ``eps * scale`` in magnitude, computed once per ``eps`` on first use.

        The rank factor, the row-sum condition and the nnq check read
        ``zero_rows(eps_nonneg)`` and treat such a row as exactly zero.  A
        small diagonal alone is not enough: in a PSD matrix
        ``|a_ij| <= sqrt(a_ii a_jj)``, so a diagonal entry at the threshold
        allows off-diagonal entries far above it.
        """
        return self.derived(("zero_rows", eps), lambda: _zero_rows(self._a, eps * self._scale))

    def derived(self, key: Hashable, compute: Callable[[], T]) -> T:
        """``compute()``, computed once per ``key`` on first use and kept.

        Values kept here must be immutable: :attr:`eigen` keeps its
        result under ``"eigen"``, and :meth:`pattern`, :meth:`zero_rows`,
        :func:`classify_dn`, :func:`psd_rank` and
        :func:`~cprank.srfactor.sr_factor` keep theirs under their name and
        the threshold or tolerances they depend on.
        """
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]

    @property
    def n(self) -> int:
        return self._a.shape[0]

    def __repr__(self) -> str:
        return f"SymmetricMatrix(n={self.n})"


def frobenius_norm(M: np.ndarray) -> float:
    """``numpy.linalg.norm(M)`` (the Frobenius norm) of a float array, bit
    for bit: one dot product over its elements in memory order, without
    that function's argument handling."""
    v = M.ravel(order="K")
    return math.sqrt(v.dot(v))


def vector_norms(M: np.ndarray, axis: int = 0) -> np.ndarray:
    """``numpy.linalg.norm(M, axis=axis)`` of a float matrix, bit for bit:
    the column norms by default, the row norms for ``axis=1``."""
    return np.sqrt(np.add.reduce(M * M, axis=axis))


# ``solve`` and ``svd``, the solver rounds' per-step LAPACK calls, return
# the float64 result of the numpy.linalg function of the same name bit for
# bit, without its argument handling: each calls that function's gufunc in
# its error state, so a singular system still raises LinAlgError.  A helper
# whose gufunc numpy lacks is bound to the public function and listed here.
PUBLIC_FALLBACKS: list[str] = []
_LAPACK_ERRSTATE = dict(invalid="call", over="ignore", divide="ignore", under="ignore")


def _lapack_helper(gufunc: str) -> Callable:
    def bind(helper: Callable) -> Callable:
        if hasattr(_lapack, gufunc):
            return helper
        PUBLIC_FALLBACKS.append(helper.__name__)
        return getattr(np.linalg, helper.__name__)

    return bind


def _singular(err: str, flag: int) -> None:
    raise LinAlgError("Singular matrix")


def _svd_failed(err: str, flag: int) -> None:
    raise LinAlgError("SVD did not converge")


@_lapack_helper("solve")
def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``numpy.linalg.solve(a, b)`` for a stack ``b`` of matrices
    (``b.ndim >= 2``)."""
    with np.errstate(call=_singular, **_LAPACK_ERRSTATE):
        return _lapack.solve(a, b, signature="dd->d")


@_lapack_helper("svd_f")
def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``numpy.linalg.svd(a)`` (full matrices) as a plain ``(U, s, Vh)``."""
    with np.errstate(call=_svd_failed, **_LAPACK_ERRSTATE):
        return _lapack.svd_f(a, signature="d->ddd")


def as_symmetric(A: MatrixLike, tol: Tolerances = DEFAULT_TOL) -> SymmetricMatrix:
    """Coerce an array-like to :class:`SymmetricMatrix` (no copy semantics implied)."""
    if isinstance(A, SymmetricMatrix):
        return A
    return SymmetricMatrix(A, tol)


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition ``A = V diag(w) V^T`` with eigenvalues sorted
    in non-increasing order and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class PsdRank(NamedTuple):
    is_psd: bool
    rank: int


def psd_rank(A: MatrixLike, tol: Tolerances = DEFAULT_TOL) -> PsdRank:
    """Decide positive semidefiniteness and count the numerical rank.

    ``is_psd`` holds iff the smallest eigenvalue is at least
    ``-eps_psd * |lambda|_max``; the rank is the number of eigenvalues
    whose magnitude exceeds ``eps_rank`` on the same scale, so a nonzero
    matrix has rank at least 1.  A :class:`SymmetricMatrix` is reduced
    once per tolerance pair, on first use.
    """
    S = as_symmetric(A, tol)
    return S.derived(
        ("psd_rank", tol.eps_psd, tol.eps_rank), lambda: _psd_rank(S.eigen.eigenvalues, tol)
    )


def _psd_rank(w: np.ndarray, tol: Tolerances) -> PsdRank:
    scale = float(np.abs(w).max())
    is_psd = bool(w[-1] >= -tol.eps_psd * scale)
    rank = int(np.count_nonzero(np.abs(w) > tol.eps_rank * scale))
    return PsdRank(is_psd=is_psd, rank=rank)


@dataclass(frozen=True)
class DnVerdict:
    """Outcome of the doubly-nonnegative test.

    ``status`` is one of ``NOT_NONNEGATIVE``, ``NOT_PSD`` or ``DN``; the
    rank is present only for DN matrices.
    """

    status: str
    rank: int | None = None

    @property
    def is_dn(self) -> bool:
        return self.status == DN


def classify_dn(A: MatrixLike, tol: Tolerances = DEFAULT_TOL) -> DnVerdict:
    """Classify a symmetric matrix as DN (with rank) or tell why it is not.

    Nonnegativity is checked first with slack ``eps_nonneg * scale``, then
    positive semidefiniteness via :func:`psd_rank`.  A
    :class:`SymmetricMatrix` is classified once per
    ``(eps_nonneg, eps_psd, eps_rank)``, on first use.
    """
    S = as_symmetric(A, tol)
    key = ("classify_dn", tol.eps_nonneg, tol.eps_psd, tol.eps_rank)
    return S.derived(key, lambda: _classify_dn(S, tol))


def _classify_dn(S: SymmetricMatrix, tol: Tolerances) -> DnVerdict:
    if float(S.a.min()) < -tol.eps_nonneg * S.scale:
        return DnVerdict(status=NOT_NONNEGATIVE)
    is_psd, rank = psd_rank(S, tol)
    if not is_psd:
        return DnVerdict(status=NOT_PSD)
    return DnVerdict(status=DN, rank=rank)


def comparison_matrix(A: MatrixLike, tol: Tolerances = DEFAULT_TOL) -> SymmetricMatrix:
    """Return ``2 diag(A) - A``: the diagonal is kept, off-diagonals are negated.

    The input must be entrywise nonnegative up to ``eps_nonneg * scale``.
    """
    S = as_symmetric(A, tol)
    if float(S.a.min()) < -tol.eps_nonneg * S.scale:
        raise InvalidInputError(
            f"comparison matrix requires a nonnegative input, min entry {S.a.min():.3e}"
        )
    M = 2.0 * np.diag(np.diag(S.a)) - S.a
    return SymmetricMatrix(M, tol)


def _eigen(a: np.ndarray) -> EigenDecomposition:
    # the public function, not a gufunc helper: the bench tracer wraps it
    # to time and count the decompositions
    w, V = np.linalg.eigh(a)
    # flip each column so that its largest-magnitude entry is positive
    V = np.where(V[np.abs(V).argmax(axis=0), np.arange(V.shape[1])] < 0.0, -V, V)
    # LAPACK returns the eigenvalues in ascending order
    w, V = w[::-1], V[:, ::-1]
    w.flags.writeable = False
    V.flags.writeable = False
    return EigenDecomposition(eigenvalues=w, eigenvectors=V)


def _pattern(a: np.ndarray, threshold: float) -> np.ndarray:
    P = np.abs(a) > threshold
    np.fill_diagonal(P, False)
    P.flags.writeable = False
    return P


def _zero_rows(a: np.ndarray, threshold: float) -> np.ndarray:
    rows = np.flatnonzero(np.abs(a).max(axis=1) <= threshold)
    rows.flags.writeable = False
    return rows
