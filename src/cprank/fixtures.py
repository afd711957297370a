"""Bundled reference matrices and seeded instance generators.

The ``EX*`` matrices are the worked examples used throughout the test
suite and the demos, keyed by opaque ids that are also part of the CLI
``gen`` surface.  The generators produce doubly nonnegative instances
with a known rank, and the Soules construction produces matrices that are
known to be completely positive with cp-rank equal to their rank.  Every
matrix is built at the default tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComputationFailureError, InvalidInputError
from .matcore import _SQRT_TINY, SymmetricMatrix, frobenius_norm, psd_rank
from .rotate import check_counts, e_cone_threshold, random_orthogonal

__all__ = [
    "EXAMPLE_IDS",
    "example_matrix",
    "example_factor",
    "SoulesBasis",
    "soules_basis",
    "soules_cp",
    "random_dn",
    "GRAM_NONNEG",
    "ROTATED_NONNEG",
    "SOULES",
    "RANDOM_STYLES",
]

_MATRICES: dict[str, list[list[float]]] = {
    # 4-cycle pattern, DN of rank 3, not completely positive at rank 3
    "EX1_2": [
        [2, 1, 0, 1],
        [1, 2, 1, 0],
        [0, 1, 2, 1],
        [1, 0, 1, 2],
    ],
    # rank 3, certified by the row-sum condition
    "EX2_7": [
        [93, 27, 55, 45],
        [27, 45, 33, 51],
        [55, 33, 41, 43],
        [45, 51, 43, 62],
    ],
    # 5x5 rank 3, row-sum condition again
    "EX2_8": [
        [41, 43, 80, 56, 50],
        [43, 62, 89, 78, 51],
        [80, 89, 162, 120, 93],
        [56, 78, 120, 104, 62],
        [50, 51, 93, 62, 65],
    ],
    # full-rank with a K_{2,3} pattern; cp-rank 6 exceeds the rank
    "EX3_3": [
        [3, 0, 1, 1, 1],
        [0, 6, 1, 1, 2],
        [1, 1, 2, 0, 0],
        [1, 1, 0, 2, 0],
        [1, 2, 0, 0, 2],
    ],
    # completely positive at rank 3 yet not nonnegative-equivalent
    "EX3_7": [
        [1, 1, 1, 1],
        [1, 2, 1, 2],
        [1, 1, 2, 2],
        [1, 2, 2, 3],
    ],
    # printed to 4 decimals; nonnegative-equivalent with basis (1,2,3)
    "EX3_9": [
        [1.2295, 0.4315, 0.0699, 0.7037, 1.3685],
        [0.4315, 0.3006, 0.0435, 0.4241, 0.7177],
        [0.0699, 0.0435, 0.0078, 0.0743, 0.1098],
        [0.7037, 0.4241, 0.0743, 0.7128, 1.0795],
        [1.3685, 0.7177, 0.1098, 1.0795, 1.9030],
    ],
}

_FACTORS: dict[str, list[list[float]]] = {
    # rank factor and nonnegative factor of EX3_7, both printed to 4 decimals
    "EX3_7_B": [
        [0.6426, 0.1008, 0.1008, -0.4409],
        [0.0, 0.7071, -0.7071, 0.0],
        [0.7662, 1.2206, 1.2206, 1.6750],
    ],
    "EX3_7_C": [
        [1, 1, 1, 1],
        [0, 0, 1, 1],
        [0, 1, 0, 1],
    ],
    # rank factor, nonnegative factor and both published coordinate
    # matrices of EX3_9 (factor route and Gram route differ in their
    # 4th decimal because the source matrix itself is rounded)
    "EX3_9_B": [
        [1.0272, 0.5025, 0.0795, 0.7824, 1.3729],
        [-0.4151, 0.1924, 0.0309, 0.2604, 0.0900],
        [-0.0450, 0.1053, -0.0224, -0.1814, 0.0998],
    ],
    "EX3_9_C": [
        [0.1278, 0.4274, 0.0587, 0.5505, 0.7545],
        [0.6399, 0.1758, 0.0602, 0.5631, 0.6711],
        [0.8965, 0.2949, 0.0267, 0.3046, 0.9398],
    ],
    "EX3_9_P_FACTOR": [
        [1, 0, 0, 0.0526, 0.5396],
        [0, 1, 0, 0.1055, 1.4368],
        [0, 0, 1, 8.4895, 1.2159],
    ],
    "EX3_9_P_GRAM": [
        [1, 0, 0, 0.0538, 0.5388],
        [0, 1, 0, 0.1291, 1.4292],
        [0, 0, 1, 8.3229, 1.2776],
    ],
}

EXAMPLE_IDS = tuple(sorted(_MATRICES))
FACTOR_IDS = tuple(sorted(_FACTORS))

GRAM_NONNEG = "GRAM_NONNEG"
ROTATED_NONNEG = "ROTATED_NONNEG"
SOULES = "SOULES"
RANDOM_STYLES = (GRAM_NONNEG, ROTATED_NONNEG, SOULES)


def example_matrix(fixture_id: str) -> SymmetricMatrix:
    """Bundled reference matrix by id (see ``EXAMPLE_IDS``)."""
    try:
        entries = _MATRICES[fixture_id]
    except KeyError:
        raise InvalidInputError(
            f"unknown fixture id {fixture_id!r}; valid ids: {', '.join(EXAMPLE_IDS)}"
        ) from None
    return SymmetricMatrix(np.array(entries, dtype=float))


def example_factor(factor_id: str) -> np.ndarray:
    """Published companion factor by id (see ``FACTOR_IDS``)."""
    try:
        entries = _FACTORS[factor_id]
    except KeyError:
        raise InvalidInputError(
            f"unknown factor id {factor_id!r}; valid ids: {', '.join(FACTOR_IDS)}"
        ) from None
    return np.array(entries, dtype=float)


@dataclass(frozen=True)
class SoulesBasis:
    """Orthogonal basis with a positive first column such that
    ``S diag(d) S^T`` is entrywise nonnegative for every nonnegative
    non-increasing ``d``."""

    S: np.ndarray
    w: np.ndarray


def soules_basis(w: np.ndarray | list[float]) -> SoulesBasis:
    """Build the basis from a strictly positive weight vector.

    Column 1 is ``w`` normalized; column ``k`` is supported on the first
    ``n - k + 2`` coordinates, proportional to ``w`` on its prefix with a
    single negative entry closing the block.  The partial sums of the
    column projectors are then block-diagonal with nonnegative blocks,
    which is exactly what the defining property needs.  Weights that are
    not positive, or whose norms over- or underflow (a prefix norm below
    ``sqrt(tiny float)`` has a subnormal square), raise
    :class:`InvalidInputError`.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    n = w.shape[0]
    S = np.zeros((n, n))
    try:
        # a norm that over- or underflows raises here, not as an infinite entry
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            norm = frobenius_norm(w)
            if np.any(w <= 0.0) or not 0.0 < norm < np.inf:
                raise InvalidInputError(
                    "weights must be strictly positive with a finite nonzero norm"
                )
            unit = w / norm
            S[:, 0] = unit
            for k in range(2, n + 1):
                p = n - k + 1  # positive prefix length
                head = frobenius_norm(unit[:p])
                if head < _SQRT_TINY:  # its square is subnormal: not orthogonal
                    raise FloatingPointError
                full = frobenius_norm(unit[: p + 1])
                S[:p, k - 1] = unit[:p] * unit[p] / (head * full)
                S[p, k - 1] = -head / full
    except ArithmeticError:
        raise InvalidInputError("weights span too wide a range for an orthogonal basis") from None
    S.flags.writeable = False
    return SoulesBasis(S=S, w=unit)


def soules_cp(w: np.ndarray | list[float], d: np.ndarray | list[float]) -> SymmetricMatrix:
    """Known completely positive matrix ``S diag(d) S^T`` with cp-rank
    equal to its rank ``#{d_i > 0}``; requires ``d`` nonnegative and
    non-increasing."""
    d = np.asarray(d, dtype=float).reshape(-1)
    if np.any(d < 0.0):
        raise InvalidInputError("diagonal weights must be nonnegative")
    if np.any(np.diff(d) > 0.0):
        raise InvalidInputError("diagonal weights must be non-increasing")
    basis = soules_basis(w)
    if d.shape[0] != basis.S.shape[0]:
        raise InvalidInputError(
            f"length mismatch: {d.shape[0]} weights for order {basis.S.shape[0]}"
        )
    return SymmetricMatrix((basis.S * d[None, :]) @ basis.S.T)


def random_dn(n: int, r: int, seed: int = 0, style: str = GRAM_NONNEG) -> SymmetricMatrix:
    """Seeded random DN instance of order ``n`` and rank ``r``.

    ``GRAM_NONNEG`` returns the Gram matrix of a random nonnegative
    factor, so the instance is completely positive with cp-rank at most
    ``r``.  ``ROTATED_NONNEG`` samples Gram vectors inside the cone
    around the all-ones direction and applies a random rotation, planting
    a rotation back into the orthant.  ``SOULES`` delegates to
    :func:`soules_cp` with random weights.  Rank deficiency has
    probability zero; the draw retries if it happens anyway.  An ``n``, ``r``
    or seed that is not a nonnegative integer raises :class:`InvalidInputError`.
    """
    check_counts(n=n, r=r, seed=seed)
    if not (1 <= r <= n):
        raise InvalidInputError(f"need 1 <= r <= n, got r={r}, n={n}")
    if style not in RANDOM_STYLES:
        raise InvalidInputError(f"unknown style {style!r}; valid: {', '.join(RANDOM_STYLES)}")
    rng = np.random.default_rng(seed)
    for _ in range(50):
        if style == GRAM_NONNEG:
            G = rng.uniform(0.0, 1.0, size=(r, n))
            A = SymmetricMatrix(G.T @ G)
        elif style == ROTATED_NONNEG:
            cos = rng.uniform(e_cone_threshold(r), 1.0, size=n)
            radius = rng.uniform(0.5, 2.0, size=n)
            axis = np.ones(r) / np.sqrt(r)
            Z = np.empty((r, n))
            for i in range(n):
                y = rng.standard_normal(r)
                y -= (y @ axis) * axis
                norm = frobenius_norm(y)
                y = y / norm if norm > 0.0 else np.zeros(r)
                Z[:, i] = radius[i] * (cos[i] * axis + np.sqrt(1.0 - cos[i] ** 2) * y)
            V = random_orthogonal(r, rng) @ Z
            A = SymmetricMatrix(V.T @ V)
        else:
            w = rng.uniform(0.2, 2.0, size=n)
            d = np.zeros(n)
            d[:r] = np.sort(rng.uniform(0.2, 3.0, size=r))[::-1]
            A = soules_cp(w, d)
        if psd_rank(A).rank == r:
            return A
    raise ComputationFailureError(f"failed to draw a rank-{r} instance after 50 attempts")
