"""Low-rank and small-order cases are fully constructive.

Rank 2: the column cone of a DN matrix of rank 2 is a pointed cone in
the plane, so it has at most two extreme rays, and the few-rays
factorization certifies it with two rows.  Full rank up to 4: a seeded
rotation search (with QR and centroid fast paths) finds an orthogonal
matrix making the factor nonnegative; a solution always exists at these
sizes.  The analysis runs this search once per cone, on its at most 4
extreme rays, which at full rank are all the columns.
"""

import numpy as np

from cprank import (
    extreme_rays,
    few_rays_factor,
    orthant_rotation_search,
    sr_factor,
    verify_certificate,
)
from cprank.fixtures import GRAM_NONNEG, random_dn

A = random_dn(8, 2, seed=4, style=GRAM_NONNEG)
rays = extreme_rays(A)
cert = few_rays_factor(A, rays)
print(f"rank-2 instance (order 8): {rays.m} extreme rays, certificate rows = {cert.rows}, "
      f"residual {cert.residual:.2e}, verified = {verify_certificate(A, cert).passed}")

# a full-rank 3x3 whose raw triangular factor has a negative entry
M = np.array([[1.0, 0.1, 0.1], [0.1, 1.0, 0.0], [0.1, 0.0, 1.0]])
B = np.linalg.cholesky(M).T
print(f"\nraw Cholesky factor min entry: {B.min():.4f}  (negative)")
Q = orthant_rotation_search(B, seed=0)
rotated = Q @ B
print(f"after rotation: min entry {rotated.min():.2e}, "
      f"orthogonality defect {np.abs(Q.T @ Q - np.eye(3)).max():.1e}")
print(np.round(rotated, 4))

fails = 0
for seed in range(200):
    A = random_dn(4, 4, seed=seed, style=GRAM_NONNEG)
    B = sr_factor(A)
    if orthant_rotation_search(B, seed=seed) is None:
        fails += 1
print(f"\n200 random full-rank 4x4 instances: {fails} rotation failures")
