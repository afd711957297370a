"""Scale, permutation and padding invariance, and self-consistency of
reports.

Every sufficient and necessary condition the cascade applies is
homogeneous in the matrix, so what a report decides must not depend on
the units of the matrix or on the order of its rows and columns, and a
zero row adds nothing to a factor.  The
extreme rays of the column cone do not depend on a positive diagonal
scaling of its rows and columns either.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cprank import (
    AnalysisConfig,
    InvalidInputError,
    SymmetricMatrix,
    Tolerances,
    analyze,
    extreme_rays,
    fit_rays,
    make_certificate,
    psd_rank,
    verify_certificate,
    write_report,
)
from cprank.fixtures import EXAMPLE_IDS, GRAM_NONNEG, RANDOM_STYLES, example_matrix, random_dn
from cprank.pipeline import CP_RANK_EQ_RANK, NOT_CP, NOT_DN, NOT_IN_CP_N_R

LOOSE_TOL = Tolerances(eps_psd=1e-4, eps_rank=1e-4, eps_nonneg=1e-6, eps_residual=1e-4)

fixture_cases = st.builds(
    lambda fid, tol: (np.array(example_matrix(fid).a), AnalysisConfig(tol=tol)),
    st.sampled_from(EXAMPLE_IDS),
    st.sampled_from([Tolerances(), LOOSE_TOL]),
)


@st.composite
def random_cases(draw):
    style = draw(st.sampled_from(RANDOM_STYLES))
    r = draw(st.integers(min_value=1, max_value=6))
    n = r + draw(st.integers(min_value=0, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    A = np.array(random_dn(n, r, seed=seed, style=style).a)
    return A, AnalysisConfig(heuristic=r >= 5)


# c = 10^k * u with k in [-12, 12] and u in [1, 10)
scales = st.builds(
    lambda k, u: 10.0**k * u,
    st.integers(min_value=-12, max_value=12),
    st.floats(min_value=1.0, max_value=10.0, exclude_max=True),
)


def decision(report):
    """What a report decides: verdict, DN status, rank, bounds, certificate rows."""
    rows = None if report.certificate is None else report.certificate.rows
    return (report.verdict, report.dn, report.rank,
            report.cp_rank_lower, report.cp_rank_upper, rows)


def assert_consistent(report):
    """The rules a report of a nonzero matrix keeps; a positive rank also
    means that no negative verdict rests on rank 0."""
    lower, upper = report.cp_rank_lower, report.cp_rank_upper
    if lower is not None and upper is not None:
        assert lower <= upper
    if report.verdict == CP_RANK_EQ_RANK:
        assert report.certificate.rows == report.rank
    if report.verdict == NOT_CP:
        assert lower is None and upper is None and report.certificate is None
    assert report.rank > 0 and upper != 0
    # ray indices name columns of the input, never a dropped zero row; an
    # nnq witness (nnq_from_rays) is these same rays
    details = {s.name: s.details for s in report.steps}
    dropped = set(details.get("deflate_zero_rows", {}).get("zero_rows", []))
    named = set(details.get("extreme_rays", {}).get("extreme_indices", []))
    assert not dropped & named


@settings(max_examples=60, deadline=None)
@given(st.one_of(fixture_cases, random_cases()), scales, st.integers(min_value=0, max_value=2**31 - 1))
def test_decision_invariant_under_scale_and_permutation(case, c, perm_seed):
    # zero rows and columns inserted at random positions change nothing
    # either, and get zero certificate columns
    A, config = case
    n = A.shape[0]
    rng = np.random.default_rng(perm_seed)
    perm = rng.permutation(n)
    k = int(rng.integers(1, 4))
    pos = np.sort(rng.choice(n + k, size=k, replace=False))
    padded = np.zeros((n + k, n + k))
    kept = np.setdiff1d(np.arange(n + k), pos)
    padded[np.ix_(kept, kept)] = A
    base = analyze(A, config)
    scaled = analyze(c * A, config)
    permuted = analyze(A[np.ix_(perm, perm)], config)
    inflated = analyze(padded, config)
    for report in (base, scaled, permuted, inflated):
        assert_consistent(report)
    assert decision(scaled) == decision(base)
    assert decision(permuted) == decision(base)
    assert decision(inflated) == decision(base)
    if inflated.certificate is not None:
        assert np.all(inflated.certificate.C[:, pos] == 0.0)


@pytest.mark.parametrize("fid, c, rank", [("EX1_2", 1e-12, 3), ("EX3_3", 1e-12, 5)])
def test_negative_fixture_keeps_its_rank_at_tiny_scale(fid, c, rank):
    report = analyze(c * example_matrix(fid).a)
    assert report.rank == rank
    assert report.verdict == NOT_IN_CP_N_R


def test_rounded_fixture_stays_not_dn_at_small_scale():
    # EX3_9 is stored to four decimals, which default tolerances see
    assert analyze(1e-6 * example_matrix("EX3_9").a).verdict == NOT_DN


@pytest.mark.parametrize("c", [1e-6, 1e-8])
def test_rays_residual_at_small_scale(c):
    A = random_dn(12, 3, seed=4, style=GRAM_NONNEG).a
    assert fit_rays(c * A)[2] <= 1e-12


def test_largest_accepted_scale_keeps_the_rowsum_certificate():
    # the largest entry, 9.3e152, is just below the order-4 limit of
    # sqrt(max float / 4^3), about 1.7e153
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = analyze(1e151 * example_matrix("EX2_7").a)
    assert report.verdict == CP_RANK_EQ_RANK
    rowsum = next(s for s in report.steps if s.name == "rowsum")
    assert rowsum.outcome == "CERTIFICATE(rows=3)"


@pytest.mark.parametrize("c", [1e152, 1e200])
def test_scale_that_overflows_the_rowsum_condition_is_rejected(c):
    # at 1e152 the row-sum products overflowed and the step read
    # CONDITION_FALSE; at 1e200 the few-rays certificate failed to verify
    with pytest.raises(InvalidInputError, match="must not exceed"):
        analyze(c * example_matrix("EX2_7").a)


def accepted_scales(n, tol):
    """The smallest and the largest accepted largest entry of an order-n
    matrix, each moved just inside its limit."""
    smallest = math.sqrt(np.finfo(float).tiny) / tol.eps_residual
    largest = math.sqrt(np.finfo(float).max / n**3)
    return smallest * (1.0 + 1e-6), largest * (1.0 - 1e-6)


def outcomes(report):
    """What a report decides, and what each of its steps came to."""
    return decision(report), [(s.name, s.outcome) for s in report.steps]


def strict_json(report):
    """The JSON report as a document; NaN and infinities are not JSON."""
    def reject(token):
        raise ValueError(f"{token} is not a JSON number")

    return json.loads(write_report(report, "json"), parse_constant=reject)


@pytest.mark.parametrize("fid", EXAMPLE_IDS)
@pytest.mark.parametrize("tol", [Tolerances(), LOOSE_TOL], ids=["default", "loose"])
def test_fixture_reports_are_strict_json(fid, tol):
    assert strict_json(analyze(example_matrix(fid), AnalysisConfig(tol=tol)))["order"] > 0


@pytest.mark.parametrize("A", [[[2.0, 1.0], [1.0, 2.0]], np.ones((3, 3))], ids=["2x2", "ones3"])
def test_scale_that_underflows_the_certificate_residual_is_rejected(A):
    # at 1e-200 the squares the residual sums underflowed: a wrong factor
    # verified with residual 0, and duplicate columns put NaN into the
    # extreme-ray coefficients and an infinite residual into the report
    with pytest.raises(InvalidInputError, match="must be at least"):
        analyze(1e-200 * np.asarray(A))


def test_wrong_factor_fails_verification_at_the_smallest_scale():
    c = accepted_scales(2, Tolerances())[0]
    A = SymmetricMatrix(c * np.array([[2.0, 1.0], [1.0, 2.0]]))
    wrong = math.sqrt(c) * np.array([[1.0, 1.0], [1.0, 0.0]])  # C^T C = c [[2, 1], [1, 1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check = verify_certificate(A, make_certificate(A, wrong, "wrong"))
    assert not check.passed
    assert check.residual == pytest.approx(1.0 / math.sqrt(10.0), rel=1e-12)


@pytest.mark.parametrize("end", [0, 1], ids=["smallest", "largest"])
@settings(max_examples=40, deadline=None)
@given(case=st.one_of(fixture_cases, random_cases()))
def test_outcomes_at_the_ends_of_the_accepted_scale(end, case):
    # every report is warning-free strict JSON and decides, step by step,
    # what the matrix at largest entry 1 does
    A, config = case
    A = A / np.abs(A).max()
    c = accepted_scales(A.shape[0], config.tol)[end]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base, scaled = analyze(A, config), analyze(c * A, config)
        for report in (base, scaled):
            strict_json(report)
    assert_consistent(scaled)
    assert outcomes(scaled) == outcomes(base)


def test_tiny_nonzero_matrix_has_positive_rank():
    report = analyze(np.diag([1e-20, 0.0]))
    assert_consistent(report)
    assert report.verdict == CP_RANK_EQ_RANK
    assert (report.rank, report.cp_rank_lower, report.cp_rank_upper) == (1, 1, 1)
    few_rays = next(s for s in report.steps if s.name == "few_rays_factor")
    assert few_rays.outcome == "CERTIFICATE(rows=1)"


# factor by which every eigenvalue ratio |lambda| / |lambda|_max must stay
# away from eps_rank for the numerical rank to be unambiguous
RANK_THRESHOLD_MARGIN = 1e3


def clear_of_rank_threshold(A):
    w = np.abs(np.linalg.eigvalsh(A))
    ratios = w / w.max()
    eps = Tolerances().eps_rank
    near = (ratios >= eps / RANK_THRESHOLD_MARGIN) & (ratios <= eps * RANK_THRESHOLD_MARGIN)
    return not near.any()


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(RANDOM_STYLES),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_extreme_rays_invariant_under_diagonal_scaling(style, r, extra, seed, d_seed):
    # D maps the columns of the rank factor B to those of B D, positive
    # multiples of the same columns, so D A D has the same extreme rays,
    # provided both matrices have the same numerical rank: D moves the
    # eigenvalues, so a ratio near the rank threshold can cross it
    A = np.array(random_dn(r + extra, r, seed=seed, style=style).a)
    d = 10.0 ** np.random.default_rng(d_seed).uniform(-1.5, 1.5, size=A.shape[0])
    DAD = d[:, None] * A * d
    assume(clear_of_rank_threshold(A) and clear_of_rank_threshold(DAD))
    base, scaled = extreme_rays(A), extreme_rays(DAD)
    assert (scaled.m, scaled.extreme_indices) == (base.m, base.extreme_indices)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(RANDOM_STYLES),
    st.integers(min_value=4, max_value=8),
    st.data(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_general_cone_rays_invariant_under_diagonal_scaling(style, r, data, seed, d_seed):
    # the same invariance on general cones of rank 4-8, whose rays the
    # isotropic screen and the kernel decide, with d_i log-uniform in
    # [1/10, 10]; wider scalings change the rank and, with it, the rays
    n = data.draw(st.integers(min_value=r + 1, max_value=5 * r))
    A = np.array(random_dn(n, r, seed=seed, style=style).a)
    d = 10.0 ** np.random.default_rng(d_seed).uniform(-1.0, 1.0, size=n)
    DAD = d[:, None] * A * d
    assume(psd_rank(A).rank == psd_rank(DAD).rank)
    assert extreme_rays(DAD).extreme_indices == extreme_rays(A).extreme_indices
