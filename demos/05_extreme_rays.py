"""Extreme rays of the column cone, and the rank-3 ray decision.

Every column of a DN matrix is a nonnegative combination of the extreme
columns.  With at most four extreme rays that yields a certificate with
at most that many rows; and a DN matrix of rank 3 whose cone has exactly
three extreme rays has a simplicial cone, so it is nonnegative-equivalent
and completely positive at rank 3.

Rank equal to cp-rank does not force the ray count down to the rank: the
second example is certified at 3 rows while all four of its columns are
extreme.
"""

import numpy as np

from cprank import (
    Tolerances,
    decide_rank3_three_rays,
    extreme_rays,
    few_rays_factor,
    sr_factor,
    verify_certificate,
)
from cprank.fixtures import example_matrix

tol = Tolerances(eps_psd=1e-4, eps_rank=1e-4, eps_nonneg=1e-6, eps_residual=1e-4)
B = sr_factor(example_matrix("EX3_9"), tol)
A = B.T @ B  # rank-3 model of the fixture

report = extreme_rays(A)
print(f"5x5 rank-3 instance: {report.m} extreme rays at columns "
      f"{tuple(i + 1 for i in report.extreme_indices)}")
decision = decide_rank3_three_rays(A)
print(f"rank-3 ray decision: {decision.status}")
print(f"certificate rows: {decision.certificate.rows}, "
      f"residual {decision.certificate.residual:.2e}")

B = example_matrix("EX2_7")
rep2 = extreme_rays(B)
print(f"\n4x4 row-sum example: {rep2.m} extreme rays (more than its rank 3)")
cert = few_rays_factor(B, rep2)
print(f"factorization from the rays still works: {cert.rows} rows, "
      f"verified = {verify_certificate(B, cert).passed}")

C = example_matrix("EX3_7")
rep3 = extreme_rays(C)
print(f"\n4x4 non-nnq example: {rep3.m} extreme rays -> ray decision "
      f"{decide_rank3_three_rays(C).status}")
