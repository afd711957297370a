"""Nonnegative equivalence: a basis change that exposes complete positivity.

A rank factor B is nonnegative-equivalent (nnq) when some invertible
column subset B1 gives B1^{-1} B >= 0.  The property belongs to the
matrix, not the factor, and can be read off Gram data directly.  It holds
exactly when the column cone has exactly rank many extreme rays, which
then form the basis, so detection reads the extreme-ray report instead of
trying column subsets.  For rank at most 4 the few-rays factorization
of those same rays turns a witness into a certificate with rank many
rows.
The 4x4 example shows the condition is not necessary: it is completely
positive at rank 3 yet no basis works.
"""

import numpy as np

from cprank import (
    Tolerances,
    extreme_rays,
    few_rays_factor,
    is_nnq_gram,
)
from cprank.fixtures import example_factor, example_matrix

# the 5x5 fixture is printed to 4 decimals, so its tiny eigenvalues are
# rounding noise; matching tolerances treat it as the rank-3 matrix it is
tol = Tolerances(eps_psd=1e-4, eps_rank=1e-4, eps_nonneg=1e-6, eps_residual=1e-4)
A = example_matrix("EX3_9")

gram_route = is_nnq_gram(A, tol)
print(f"Gram route: {gram_route.status}, basis columns "
      f"{tuple(i + 1 for i in gram_route.witness.indices)}")
print("coordinate matrix P = A[s,s]^{-1} A[s,:]:")
print(np.round(gram_route.witness.P, 4))

# the factor route: the same columns of any rank factor B form the basis
B = example_factor("EX3_9_B")  # the published factor, printed to 4 decimals
P = np.linalg.solve(B[:, list(gram_route.witness.indices)], B)
print("\npublished factor's coordinate matrix P = B[:,s]^{-1} B at the same columns:")
print(np.round(P, 4) + 0.0)  # + 0.0 prints -0 as 0

cert = few_rays_factor(A, extreme_rays(A, tol), tol)
print(f"\ncertificate: {cert.rows} rows, residual {cert.residual:.2e}")
print(np.round(cert.C, 4))

M = example_matrix("EX3_7")
print(f"\n4x4 counterexample: nnq detection says {is_nnq_gram(M).status}, "
      f"yet this published nonnegative factor reconstructs it exactly:")
C = example_factor("EX3_7_C")
print(C.astype(int), "   residual:", np.linalg.norm(C.T @ C - M.a))
