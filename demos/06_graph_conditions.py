"""Zero-pattern conditions: when the graph of the matrix decides.

On a cycle of length at least 4, complete positivity forces the total
off-diagonal sum below the trace and the cp-rank up to the order; on a
triangle-free pattern the comparison matrix 2 diag(A) - A decides
membership exactly and pins the cp-rank; and diagonal dominance always
yields an explicit factorization.  Together they bracket the 4-cycle
example at cp-rank exactly 4, above its rank 3.
"""

import numpy as np

from cprank import (
    analyze,
    classify_graph,
    cycle_necessary,
    kaykobad_factor,
    triangle_free_criterion,
)
from cprank.fixtures import example_matrix

A = example_matrix("EX1_2")
shape = classify_graph(A)
print(f"4-cycle matrix: {len(shape.edges)} edges, cycle={shape.is_cycle}, "
      f"triangle-free={shape.is_triangle_free}")

check = cycle_necessary(A)
print(f"cycle condition: {check.status} "
      f"(off-diagonal sum {check.off_diag_sum} vs trace {check.diag_sum}), "
      f"cp-rank lower bound {check.cprk_lower_bound}")

tri = triangle_free_criterion(A)
print(f"triangle-free criterion: {tri.status}, exact cp-rank {tri.cp_rank}")

cert = kaykobad_factor(A)
print(f"diagonal-dominance factorization: {cert.rows} rows, residual {cert.residual}")
print(cert.C)

report = analyze(A)
print(f"\nanalyze verdict: {report.verdict} with bracket "
      f"[{report.cp_rank_lower}, {report.cp_rank_upper}] "
      f"(rank {report.rank} is not attainable)")

B = example_matrix("EX3_3")
tri2 = triangle_free_criterion(B)
print(f"\nfull-rank 5x5 with a K_23 pattern: {tri2.status}, cp-rank exactly {tri2.cp_rank}")
print(f"analyze verdict: {analyze(B).verdict}")
