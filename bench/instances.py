"""Workload definitions: the seeded instance pools the benchmark analyses.

Each workload is a fixed grid of ``(style, n, r)`` cells with a number of
``random_dn`` instances per cell; the workload seed only picks the
generator seed of each instance.  A fixed grid keeps the mix of sizes,
and so the cost of a pass, the same from seed to seed, while the
instances themselves differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import environment  # noqa: F401  (pins BLAS and finds cprank first)
import cprank
from cprank.fixtures import GRAM_NONNEG, ROTATED_NONNEG, SOULES, example_matrix, random_dn

FIXTURE = "FIXTURE"

# tolerances for matrices printed to four decimals, as in the README
LOOSE_TOL = cprank.Tolerances(eps_psd=1e-4, eps_rank=1e-4, eps_nonneg=1e-6, eps_residual=1e-4)

# known verdicts of the bundled examples, with the tolerances they need
FIXTURE_VERDICTS = {
    "EX1_2": ("NOT_IN_CP_N_R", cprank.DEFAULT_TOL),
    "EX2_7": ("CP_RANK_EQ_RANK", cprank.DEFAULT_TOL),
    "EX2_8": ("CP_RANK_EQ_RANK", cprank.DEFAULT_TOL),
    "EX3_3": ("NOT_IN_CP_N_R", cprank.DEFAULT_TOL),
    "EX3_7": ("CP_RANK_EQ_RANK", cprank.DEFAULT_TOL),
    "EX3_9": ("CP_RANK_EQ_RANK", LOOSE_TOL),
}


@dataclass(frozen=True)
class Instance:
    """One matrix to analyse.  ``r`` is the planted rank of a generated
    instance (None for a fixture) and ``expected`` the known verdict of a
    fixture (None for a generated instance)."""

    id: str
    style: str
    n: int
    r: int | None
    seed: int | None
    matrix: np.ndarray
    config: cprank.AnalysisConfig
    expected: str | None = None


@dataclass(frozen=True)
class Workload:
    """``cells`` lists ``(style, n, r, count)``; BENCHMARK.json says what
    each workload is for.  A traced run analyses the first ``traced``
    instances of the pool (all of them when None)."""

    cells: tuple[tuple[str, int, int, int], ...]
    fixtures: bool = False
    heuristic: bool = False
    traced: int | None = None


# Pool sizes, on a 2-core 2.1 GHz Xeon VM at the commit that introduced
# the benchmark: one pass of small_mixed or rank34_scan took 14-24 s, so
# a 30 s run analyses every instance once and some twice; their costs
# vary little from seed to seed.  One pass of rank5plus_heuristic takes
# about 50 s, so a 30 s run analyses only distinct instances: there the
# cost of an analysis varies by about its mean from instance to
# instance, and only more distinct instances keep its metrics steady
# from seed to seed.
# A traced run goes over a fixed prefix of the pool in whole passes, so
# that its counts repeat exactly; the prefix takes about 20 s a pass,
# each instance being analysed twice.
WORKLOADS = {
    # per-call overhead dominates: eigendecompositions, small cones and
    # rotations, certificate checks and JSON; the nnq scan is negligible
    "small_mixed": Workload(
        fixtures=True,
        traced=1500,
        cells=tuple((style, n, r, 200) for style, n, r in (
            (GRAM_NONNEG, 5, 1), (GRAM_NONNEG, 8, 2), (GRAM_NONNEG, 3, 3), (GRAM_NONNEG, 4, 4),
            (GRAM_NONNEG, 6, 3), (GRAM_NONNEG, 8, 4), (GRAM_NONNEG, 10, 5), (GRAM_NONNEG, 12, 6),
            (ROTATED_NONNEG, 6, 2), (ROTATED_NONNEG, 3, 3), (ROTATED_NONNEG, 4, 4),
            (ROTATED_NONNEG, 8, 3), (ROTATED_NONNEG, 10, 4), (ROTATED_NONNEG, 10, 6),
            (ROTATED_NONNEG, 12, 6),
            (SOULES, 6, 1), (SOULES, 8, 2), (SOULES, 4, 4), (SOULES, 8, 3), (SOULES, 12, 6),
        )),
    ),
    # the nnq subset scan runs exhaustively (GRAM_NONNEG, ROTATED_NONNEG)
    # beside an early exit (SOULES); cones and graph conditions grow with
    # n.  A scan costs about C(n, r) determinants, so orders step finely
    # and the cost of an analysis spreads evenly from 10 to 250 ms: a
    # percentile that sat on a gap between two sizes would jump from seed
    # to seed.
    "rank34_scan": Workload(
        traced=150,
        cells=(
            *((GRAM_NONNEG, n, 3, k) for n, k in
              ((16, 10), (18, 8), (20, 8), (22, 8), (24, 6), (26, 6), (28, 4), (30, 4), (32, 3))),
            *((GRAM_NONNEG, n, 4, k) for n, k in ((16, 6), (17, 6), (18, 5), (19, 4), (20, 3))),
            *((ROTATED_NONNEG, n, 3, k) for n, k in
              ((16, 12), (18, 10), (20, 10), (22, 8), (24, 6), (26, 5), (28, 4))),
            *((ROTATED_NONNEG, n, 4, k) for n, k in ((16, 8), (17, 7), (18, 6), (19, 5), (20, 3))),
            *((SOULES, n, 3, k) for n, k in
              ((24, 10), (30, 10), (40, 10), (50, 8), (60, 8), (70, 6), (80, 6), (90, 4), (100, 4))),
            *((SOULES, n, 4, k) for n, k in ((16, 10), (20, 10), (24, 8), (28, 8), (32, 6))),
        ),
    ),
    # the nnq scan never runs; the heuristic rotation search either
    # succeeds on a cheap attempt or runs Nelder-Mead restarts.  The time
    # of a restart-bound analysis varies about 0.6 of its mean from
    # instance to instance, and a GRAM_NONNEG instance of rank 7-8 takes
    # 0.7-1.7 s, so ranks 7-8 come from ROTATED_NONNEG and many cheaper
    # rank-5 instances carry the restart path.
    "rank5plus_heuristic": Workload(
        heuristic=True,
        traced=100,
        cells=(
            (GRAM_NONNEG, 12, 5, 425), (GRAM_NONNEG, 8, 6, 10),
            (ROTATED_NONNEG, 30, 5, 15), (ROTATED_NONNEG, 12, 6, 25), (ROTATED_NONNEG, 16, 7, 15),
            (ROTATED_NONNEG, 20, 8, 25),
            (SOULES, 5, 5, 15),
        ),
    ),
}


def build(name: str, seed: int) -> list[Instance]:
    """The instance pool of a workload; the same seed gives the same pool."""
    workload = WORKLOADS[name]
    config = cprank.AnalysisConfig(heuristic=workload.heuristic)
    pool: list[Instance] = []
    if workload.fixtures:
        pool.extend(fixture_instances(config))
    rng = np.random.default_rng(seed)
    count = sum(cell[3] for cell in workload.cells)
    seeds = iter(rng.integers(0, 2**31, size=count).tolist())
    for style, n, r, reps in workload.cells:
        for k in range(reps):
            s = next(seeds)
            pool.append(Instance(
                id=f"{style}-n{n}-r{r}-{k}",
                style=style,
                n=n,
                r=r,
                seed=s,
                matrix=np.array(random_dn(n, r, seed=s, style=style).a),
                config=config,
            ))
    # a random order spreads any drift in machine speed during a pass
    # evenly over the sizes instead of over the last cells of the grid
    return [pool[i] for i in rng.permutation(len(pool))]


def fixture_instances(config: cprank.AnalysisConfig) -> list[Instance]:
    """The bundled examples, each with its known verdict and tolerances."""
    out = []
    for fid, (verdict, tol) in FIXTURE_VERDICTS.items():
        A = np.array(example_matrix(fid).a)
        out.append(Instance(
            id=fid,
            style=FIXTURE,
            n=A.shape[0],
            r=None,
            seed=None,
            matrix=A,
            config=cprank.AnalysisConfig(tol=tol, heuristic=config.heuristic),
            expected=verdict,
        ))
    return out
