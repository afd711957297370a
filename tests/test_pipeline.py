import json
import logging
import re
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cprank import (
    DEFAULT_TOL,
    AnalysisConfig,
    InvalidInputError,
    SymmetricMatrix,
    Tolerances,
    analyze,
    cycle_necessary,
    extreme_rays,
    few_rays_factor,
    kaykobad_factor,
    nnq_from_rays,
    triangle_free_criterion,
    verify_certificate,
)
from cprank.fixtures import (
    EXAMPLE_IDS,
    GRAM_NONNEG,
    RANDOM_STYLES,
    ROTATED_NONNEG,
    SOULES,
    example_matrix,
    random_dn,
)
from cprank import cones, matcore, pipeline, rotate, srfactor
from cprank.pipeline import (
    CP_RANK_EQ_RANK,
    NOT_DN,
    NOT_IN_CP_N_R,
    UNDECIDED,
    matrix_to_text,
    read_matrix,
    report_to_json,
    write_report,
)
from conftest import (
    assert_rotates_the_rank_factor,
    cone_sampled_vectors,
    full_factor_rotation,
    json_value_recursive,
)

ROUNDED_CFG = AnalysisConfig(
    tol=Tolerances(eps_psd=1e-4, eps_rank=1e-4, eps_nonneg=1e-6, eps_residual=1e-4)
)


def step(report, name):
    return next(s for s in report.steps if s.name == name)


def nnq_of(A, report, tol=DEFAULT_TOL):
    """The nnq check on the extreme rays that ``report`` names."""
    indices = step(report, "extreme_rays").details["extreme_indices"]
    return nnq_from_rays(A, cones.ConeReport(tuple(i - 1 for i in indices)), report.rank, tol)


class TestAnalysisConfig:
    # the DN, non-CP 5-cycle matrix plus a small multiple of the all-ones
    # matrix: rank 5, so the heuristic rotation runs its restarts
    A0 = np.array([[1, 1, 0, 0, 1], [1, 2, 1, 0, 0], [0, 1, 2, 1, 0],
                   [0, 0, 1, 2, 1], [1, 0, 0, 1, 6]], dtype=float)

    @pytest.mark.parametrize("field", ["seed", "restarts"])
    def test_negative_count_rejected(self, field):
        with pytest.raises(InvalidInputError, match=f"{field} must be nonnegative"):
            AnalysisConfig(**{field: -1})

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("restarts", 2.5), ("restarts", "3")])
    def test_non_integer_count_rejected(self, field, value):
        # restarts=2.5 constructed, and the first rotation search then
        # raised a bare TypeError from range
        with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
            AnalysisConfig(**{field: value, "heuristic": True})

    @pytest.mark.parametrize("tol", [None, 1e-9, {"eps_psd": 1e-9}])
    def test_tol_must_be_tolerances(self, tol):
        # AnalysisConfig(tol=None) constructed, and analyze then raised
        # AttributeError
        with pytest.raises(InvalidInputError, match="tol must be a Tolerances"):
            AnalysisConfig(tol=tol)

    def test_negative_seed_rejected_before_the_rotation_restarts(self):
        # numpy's generator raised ValueError at the second restart
        with pytest.raises(InvalidInputError):
            analyze(self.A0 + 1e-3, AnalysisConfig(heuristic=True, seed=-1, restarts=3))

    def test_zero_seed_and_restarts_accepted(self):
        report = analyze(self.A0 + 1e-3, AnalysisConfig(heuristic=True, seed=0, restarts=0))
        assert report.seed == 0


class TestAnalyzeVerdicts:
    def test_rowsum_example(self):
        report = analyze(example_matrix("EX2_7"))
        assert report.verdict == CP_RANK_EQ_RANK
        assert report.certificate.rows == 3
        assert step(report, "rowsum").outcome == "CERTIFICATE(rows=3)"
        assert step(report, "rowsum").details["row_sums"].tolist() == [220, 156, 172, 201]

    def test_cycle_example(self):
        report = analyze(example_matrix("EX1_2"))
        assert report.verdict == NOT_IN_CP_N_R
        assert (report.cp_rank_lower, report.cp_rank_upper) == (4, 4)
        # the 4-cycle's bound is the triangle-free criterion's exact cp-rank
        assert cycle_necessary(example_matrix("EX1_2")).status == "PASSES"
        assert step(report, "triangle_free").outcome == "CP"
        assert step(report, "triangle_free").details["cp_rank"] == 4
        assert report.certificate is not None and report.certificate.rows == 4

    def test_k23_example(self):
        # the criterion's cp-rank 6 exceeds the rank 5; no factor comes
        # with it, so it bounds the cp-rank from below only
        report = analyze(example_matrix("EX3_3"))
        assert report.verdict == NOT_IN_CP_N_R
        assert (report.cp_rank_lower, report.cp_rank_upper) == (6, None)
        assert step(report, "triangle_free").details["cp_rank"] == 6

    def test_non_nnq_example_certified_without_nnq(self):
        A = example_matrix("EX3_7")
        report = analyze(A)
        assert report.verdict == CP_RANK_EQ_RANK
        assert nnq_of(A, report).status == "NONE"
        assert report.certificate.method_tag != "nnq"

    def test_rounded_example_with_matching_tolerances(self):
        A = example_matrix("EX3_9")
        report = analyze(A, ROUNDED_CFG)
        assert report.verdict == CP_RANK_EQ_RANK
        assert report.rank == 3
        assert nnq_of(A, report, ROUNDED_CFG.tol).witness.indices == (0, 1, 2)
        # the row-sum step settles the matrix first; the few-rays
        # construction certifies it as well
        cert = few_rays_factor(A, extreme_rays(A, ROUNDED_CFG.tol), ROUNDED_CFG.tol)
        assert cert.rows == 3 and verify_certificate(A, cert, ROUNDED_CFG.tol).passed

    def test_rounded_example_at_default_tolerances(self):
        report = analyze(example_matrix("EX3_9"))
        assert report.verdict == NOT_DN  # the printed entries are not exactly PSD

    def test_not_nonnegative(self):
        report = analyze(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert report.verdict == NOT_DN and report.dn == "NOT_NONNEGATIVE"

    def test_not_psd(self):
        report = analyze(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert report.verdict == NOT_DN and report.dn == "NOT_PSD"

    def test_not_cp_from_necessary_conditions(self):
        adj = np.zeros((5, 5))
        for i in range(5):
            adj[i, (i + 1) % 5] = adj[(i + 1) % 5, i] = 0.9
        A = 1.5 * np.eye(5) + adj
        report = analyze(A)
        assert report.verdict == "NOT_CP"
        assert cycle_necessary(A).status == "FAILS"
        assert step(report, "triangle_free").outcome == "NOT_CP"
        assert (report.cp_rank_lower, report.cp_rank_upper) == (None, None)

    def test_undecided_is_honest(self):
        A = example_matrix("EX3_3").a.copy()
        A.flags.writeable = True
        A[2, 3] = A[3, 2] = 0.01  # adds a triangle, disables every condition
        report = analyze(A)
        assert report.verdict == UNDECIDED
        assert report.certificate is None
        assert report.cp_rank_upper is None

    def test_heuristic_certifies_planted_rank5(self):
        rng = np.random.default_rng(3)
        V = cone_sampled_vectors(rng, 5, 6, radii=[40.0, 1, 1, 1, 1, 1])
        A = V.T @ V
        base = analyze(A)
        assert base.verdict == UNDECIDED
        report = analyze(A, AnalysisConfig(heuristic=True))
        assert report.verdict == CP_RANK_EQ_RANK
        assert report.certificate.rows == 5
        assert step(report, "heuristic_rotation").outcome == "CERTIFICATE(rows=5)"

    @pytest.mark.parametrize("name", ["EX3_3", "five_cycle"])
    def test_heuristic_skipped_after_negative_verdict(self, name):
        # EX3_3: cp-rank 6 > rank 5 (triangle-free); the 5-cycle: NOT_CP
        if name == "five_cycle":
            ring = np.roll(np.eye(5), 1, axis=1)
            A = 1.5 * np.eye(5) + 0.9 * (ring + ring.T)
        else:
            A = example_matrix(name)
        base = analyze(A)
        t0 = time.perf_counter()
        report = analyze(A, AnalysisConfig(heuristic=True))
        assert time.perf_counter() - t0 < 1.0
        rotation = step(report, "heuristic_rotation")
        assert rotation.outcome == "SKIPPED"
        assert rotation.details == {"reason": "negative verdict settled"}
        assert report.verdict == base.verdict in ("NOT_CP", NOT_IN_CP_N_R)
        bounds = (report.cp_rank_lower, report.cp_rank_upper)
        assert bounds == (base.cp_rank_lower, base.cp_rank_upper)

    def test_kaykobad_factor_that_fails_verification_is_reported(self):
        # at eps_nonneg = 1e-4 the row margins 3e-5 and 6e-5 count as
        # equality, so Kaykobad's construction applies, and its residual
        # exceeds eps_residual; the few-rays step certifies the matrix, so
        # the analysis skips Kaykobad's step
        tol = Tolerances(eps_nonneg=1e-4)
        A = np.array([[1.0, 0.5, 0.49997], [0.5, 1.0, 0.49997], [0.49997, 0.49997, 1.0]])
        report = analyze(A, AnalysisConfig(tol=tol))
        check = verify_certificate(A, kaykobad_factor(A, tol), tol)
        assert not check.passed and check.residual > DEFAULT_TOL.eps_residual
        assert step(report, "kaykobad").outcome == "SKIPPED"
        assert report.verdict == CP_RANK_EQ_RANK
        assert report.certificate.method_tag == "few_rays"
        # a 5-cycle with the same margin 5e-5 in every row: no earlier
        # step certifies it, and the failed factor is reported
        ring = np.roll(np.eye(5), 1, axis=1)
        report = analyze(np.eye(5) + (0.5 - 2.5e-5) * (ring + ring.T), AnalysisConfig(tol=tol))
        kaykobad = step(report, "kaykobad")
        assert kaykobad.outcome == "FAILED_VERIFICATION"
        assert kaykobad.details["residual"] > DEFAULT_TOL.eps_residual
        assert report.verdict == UNDECIDED and report.certificate is None

    def test_zero_diagonal_rows_deflated(self):
        A = np.zeros((4, 4))
        A[0, 0], A[2, 2], A[0, 2], A[2, 0] = 2.0, 2.0, 1.0, 1.0
        report = analyze(A)
        assert report.verdict == CP_RANK_EQ_RANK
        assert step(report, "deflate_zero_rows").details["zero_rows"] == [2, 4]
        assert step(report, "extreme_rays").details["extreme_indices"] == [1, 3]
        assert nnq_of(A, report).witness.indices == (0, 2)
        assert np.all(report.certificate.C[:, [1, 3]] == 0.0)
        assert verify_certificate(A, report.certificate).passed

    @pytest.mark.parametrize("pos", [0, 3, 6])
    def test_deflated_reports_name_input_columns(self, pos):
        A = random_dn(6, 3, seed=3, style=GRAM_NONNEG).a
        padded = np.insert(np.insert(A, pos, 0.0, axis=0), pos, 0.0, axis=1)
        report = analyze(padded)
        assert step(report, "deflate_zero_rows").details["zero_rows"] == [pos + 1]
        kept = np.delete(np.arange(7), pos)
        unpadded = step(analyze(A), "extreme_rays").details["extreme_indices"]
        expected = [int(kept[i - 1]) + 1 for i in unpadded]
        assert step(report, "extreme_rays").details["extreme_indices"] == expected

    @pytest.mark.parametrize("seed, r", [(1, 2), (3, 3), (4, 4)])
    def test_near_zero_row_changes_no_step(self, seed, r):
        # a row within eps_nonneg * scale of zero, small negative entries
        # included, is a zero row to every step: same outcomes, and the
        # indices shift past it
        A = random_dn(7, r, seed=seed, style=GRAM_NONNEG).a
        s = np.abs(A).max()
        padded = np.insert(np.insert(A, 3, -5e-10 * s, axis=0), 3, -5e-10 * s, axis=1)
        padded[3, 3] = 1e-12 * s
        base, report = analyze(A), analyze(padded)
        assert step(report, "deflate_zero_rows").details["zero_rows"] == [4]
        outcomes = [(x.name, x.outcome) for x in report.steps if x.name != "deflate_zero_rows"]
        assert outcomes == [(x.name, x.outcome) for x in base.steps]
        assert report.verdict == base.verdict
        expected = [i + (i > 3) for i in step(base, "extreme_rays").details["extreme_indices"]]
        assert step(report, "extreme_rays").details["extreme_indices"] == expected
        base_nnq, padded_nnq = nnq_of(A, base), nnq_of(padded, report)
        assert padded_nnq.status == base_nnq.status
        if base_nnq.found:
            assert padded_nnq.witness.indices == tuple(i + (i >= 3) for i in base_nnq.witness.indices)
        assert np.all(report.certificate.C[:, 3] == 0.0)

    def test_zero_matrix(self):
        A = np.zeros((3, 3))
        report = analyze(A)
        assert report.verdict == CP_RANK_EQ_RANK
        assert report.rank == 0 and report.certificate.rows == 0
        # the row-sum step settles it; the few-rays construction, called
        # directly, gives the empty factor as well
        cert = few_rays_factor(A, extreme_rays(A))
        assert cert.rows == 0 and verify_certificate(A, cert).passed

    def test_every_reported_certificate_verifies(self):
        for fid in EXAMPLE_IDS:
            cfg = ROUNDED_CFG if fid == "EX3_9" else AnalysisConfig()
            report = analyze(example_matrix(fid), cfg)
            if report.certificate is not None:
                assert verify_certificate(example_matrix(fid), report.certificate, cfg.tol).passed

    def test_no_negative_verdicts_on_planted_cp_instances(self):
        # generator styles plant a nonnegative factor with rank many rows,
        # so a sound analyzer must never refute these instances
        from cprank.fixtures import GRAM_NONNEG, ROTATED_NONNEG, SOULES, random_dn

        negatives = {"NOT_CP", "NOT_IN_CP_N_R", "NOT_DN"}
        for style in (GRAM_NONNEG, ROTATED_NONNEG, SOULES):
            for seed in range(40):
                n = 2 + seed % 8
                r = 1 + seed % min(n, 5)
                A = random_dn(n, r, seed=seed, style=style)
                report = analyze(A, AnalysisConfig(seed=seed))
                assert report.verdict not in negatives
                if report.certificate is not None:
                    assert verify_certificate(A, report.certificate).passed
                if report.verdict == CP_RANK_EQ_RANK:
                    assert report.certificate.rows == report.rank


class TestConeSteps:
    def test_extreme_rays_computed_once(self, monkeypatch):
        from cprank import cones

        calls = []
        original = cones.extreme_rays

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(cones, "extreme_rays", counted)
        for fid in EXAMPLE_IDS:
            cfg = ROUNDED_CFG if fid == "EX3_9" else AnalysisConfig()
            calls.clear()
            report = analyze(example_matrix(fid), cfg)
            assert len(calls) == (0 if report.verdict == NOT_DN else 1)

    @pytest.mark.parametrize("n, r, m", [
        (8, 4, 7),  # more rays than the few-rays step takes
        (9, 3, 4),  # four rays and five columns off them
    ])
    def test_analysis_never_fits_w(self, caplog, monkeypatch, n, r, m):
        # the few-rays certificate rotates the rank factor itself, so the
        # only kernel call is the extremality batch, which the planar
        # certificates spare at rank 3, and no step reads W
        def no_fit(*args):
            raise AssertionError("analyze fitted the columns off the rays")

        monkeypatch.setattr(cones, "_cone_fit", no_fit)
        A = random_dn(n, r, seed=100 * r + n, style=GRAM_NONNEG)
        with caplog.at_level(logging.DEBUG, logger="cprank.cones"):
            report = analyze(A)
        kernel = [rec for rec in caplog.records if rec.getMessage().startswith("_batched_nnls:")]
        assert len(kernel) == (0 if r == 3 else 1)
        rays = step(report, "extreme_rays")
        assert rays.details["m"] == m
        assert sorted(rays.details) == ["extreme_indices", "m"]
        if m > rotate.FEW_RAYS_MAX:
            assert step(report, "few_rays_factor").outcome == "NOT_APPLICABLE"
        else:
            # the row-sum step settles the input, so the analysis skips
            # the few-rays step; called directly, it fits no W either
            assert step(report, "few_rays_factor").outcome == "SKIPPED"
            cert = few_rays_factor(A, extreme_rays(A))
            assert cert.rows == r and verify_certificate(A, cert).passed

    def test_nnq_has_no_subset_budget(self):
        # C(80, 4) is about 1.58 million subsets; nnq is read off the rays
        from cprank.fixtures import GRAM_NONNEG, random_dn

        A = random_dn(80, 4, seed=2, style=GRAM_NONNEG)
        report = analyze(A)
        t0 = time.perf_counter()
        result = nnq_of(A, report)
        elapsed = time.perf_counter() - t0
        m = step(report, "extreme_rays").details["m"]
        assert result.status == ("FOUND" if m == 4 else "NONE")
        assert elapsed < 1.0

    @staticmethod
    def counted_everywhere(monkeypatch, original):
        """The shape of the first argument of each call of ``original``,
        through every cprank module that binds it."""
        calls = []

        def counted(first, *args, **kwargs):
            calls.append(np.shape(first))
            return original(first, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            bound = getattr(module, original.__name__, None)
            if name.split(".")[0] == "cprank" and bound is original:
                monkeypatch.setattr(module, original.__name__, counted)
        return calls

    @pytest.fixture
    def search_calls(self, monkeypatch):
        """The shape of the family that each call of
        ``orthant_rotation_search`` gets."""
        return self.counted_everywhere(monkeypatch, rotate.orthant_rotation_search)

    @pytest.fixture
    def kaykobad_calls(self, monkeypatch):
        return self.counted_everywhere(monkeypatch, kaykobad_factor)

    def test_no_search_once_rank_rows_are_certified(self, search_calls, kaykobad_calls):
        # the row-sum step certifies EX2_7 with rank many rows, and no
        # factor has fewer; the few-rays and Kaykobad steps are logged
        report = analyze(example_matrix("EX2_7"))
        assert step(report, "rowsum").outcome == "CERTIFICATE(rows=3)"
        assert step(report, "extreme_rays").details["m"] == 4
        assert (len(search_calls), len(kaykobad_calls)) == (0, 0)
        for name in ("few_rays_factor", "kaykobad"):
            assert step(report, name).outcome == "SKIPPED"
            assert step(report, name).details == {"reason": "already certified"}

    def test_one_search_while_the_verdict_is_open(self, search_calls, kaykobad_calls):
        # EX1_2 fails the row-sum condition and has four rays: one few-rays
        # search, and Kaykobad's step still runs on its NOT_IN_CP_N_R report
        report = analyze(example_matrix("EX1_2"))
        assert step(report, "rowsum").outcome == "CONDITION_FALSE"
        assert step(report, "extreme_rays").details["m"] == 4
        assert (len(search_calls), len(kaykobad_calls)) == (1, 1)
        assert report.verdict == NOT_IN_CP_N_R
        assert step(report, "kaykobad").outcome == "CERTIFICATE(rows=4)"

    def test_one_rotation_search_at_full_rank_order_4(self, search_calls):
        report = analyze(random_dn(4, 4, seed=5, style=GRAM_NONNEG))
        assert report.rank == 4 and step(report, "extreme_rays").details["m"] == 4
        assert report.verdict == CP_RANK_EQ_RANK and report.certificate.rows == 4
        assert len(search_calls) == 1

    def test_one_rotation_search_for_an_nnq_basis(self, search_calls):
        # near-orthogonal basis columns fail the row-sum condition, so
        # the few-rays step settles the input
        rng = np.random.default_rng(2)
        N = np.eye(3) + rng.uniform(0.0, 0.2, size=(3, 3))
        P = np.hstack([np.eye(3), rng.uniform(0.0, 1.0, size=(3, 4))])
        A = P.T @ (N.T @ N) @ P
        report = analyze(A)
        assert step(report, "rowsum").outcome == "CONDITION_FALSE"
        assert len(search_calls) == 1
        assert nnq_of(A, report).status == "FOUND"
        assert step(report, "extreme_rays").details["m"] == 3
        assert report.verdict == CP_RANK_EQ_RANK and report.certificate.rows == 3

    @pytest.mark.parametrize("style, seed", [(GRAM_NONNEG, 1), (SOULES, 0)])
    def test_heuristic_searches_the_extreme_columns(self, search_calls, style, seed):
        # rank 5 with m between 5 and 11: no few-rays search, and the
        # heuristic rotates the rank factor's m extreme columns, not all 12
        report = analyze(random_dn(12, 5, seed=seed, style=style), AnalysisConfig(heuristic=True))
        m = step(report, "extreme_rays").details["m"]
        assert rotate.FEW_RAYS_MAX < m < 12
        assert step(report, "heuristic_rotation").outcome == "CERTIFICATE(rows=5)"
        assert search_calls == [(5, m)]

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(RANDOM_STYLES),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    # a near-zero column: its diagonal is below the zero threshold, its
    # off-diagonal entries are not
    @example(GRAM_NONNEG, 1, 11, 1965642201)
    def test_few_rays_certifies_rank_at_most_2_and_three_rays_at_rank_3(
        self, style, r, extra, seed
    ):
        A = random_dn(r + extra, r, seed=seed, style=style)
        report = analyze(A)
        assert report.rank == r
        if r == 3 and step(report, "extreme_rays").details["m"] != 3:
            return
        assert report.verdict == CP_RANK_EQ_RANK and report.certificate.rows == r
        if step(report, "rowsum").outcome.startswith("CERTIFICATE"):
            # the analysis skips the few-rays step; called directly, it
            # certifies the input as well
            assert step(report, "few_rays_factor").outcome == "SKIPPED"
            cert = few_rays_factor(A, extreme_rays(A))
            assert cert.rows == r and verify_certificate(A, cert).passed
        else:
            assert step(report, "few_rays_factor").outcome == f"CERTIFICATE(rows={r})"


class TestHeuristicRotation:
    """The heuristic step rotates the extreme columns of the rank factor at
    d = rank, the search the few-rays step runs at d = m."""

    @pytest.mark.parametrize("style, seed", [(GRAM_NONNEG, 1), (ROTATED_NONNEG, 2), (SOULES, 0)])
    def test_certificate_rotates_the_rank_factor(self, style, seed):
        A = random_dn(12, 5, seed=seed, style=style)
        report = analyze(A, AnalysisConfig(heuristic=True))
        assert step(report, "heuristic_rotation").outcome == "CERTIFICATE(rows=5)"
        assert report.certificate.method_tag == "heuristic_rotation"
        assert_rotates_the_rank_factor(A, report.certificate, 5)

    @pytest.mark.parametrize("style, r, n, seed", [
        (GRAM_NONNEG, 3, 7, 0), (ROTATED_NONNEG, 3, 6, 5),
        (GRAM_NONNEG, 4, 7, 0), (ROTATED_NONNEG, 4, 7, 5),
    ])
    def test_certifies_rank_3_and_4_cones_with_more_than_four_rays(self, style, r, n, seed):
        # no guaranteed step covers these cones, and the heuristic step
        # searches them at every rank
        A = random_dn(n, r, seed=seed, style=style)
        base = analyze(A)
        assert base.verdict == UNDECIDED
        assert step(base, "extreme_rays").details["m"] > rotate.FEW_RAYS_MAX
        report = analyze(A, AnalysisConfig(heuristic=True))
        assert report.verdict == CP_RANK_EQ_RANK
        assert step(report, "heuristic_rotation").outcome == f"CERTIFICATE(rows={r})"
        assert report.certificate.rows == r
        assert_rotates_the_rank_factor(A, report.certificate, r)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(RANDOM_STYLES),
        st.integers(min_value=5, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_certifies_whenever_the_full_factor_search_does(self, style, r, extra, seed):
        # every column of B is a nonnegative combination of the extreme
        # ones, so Q B >= 0 exactly when Q B[:, ext] >= 0
        A = random_dn(r + extra, r, seed=seed, style=style)
        cfg = AnalysisConfig(heuristic=True)
        if full_factor_rotation(A, cfg) is None:
            return
        report = analyze(A, cfg)
        assert report.verdict == CP_RANK_EQ_RANK
        assert report.certificate.rows == r


class TestOneCertificateBuild:
    @pytest.fixture
    def residuals(self, monkeypatch):
        """Calls of ``srfactor._relative_residual``: one per certificate
        build and one per verification."""
        calls = []
        original = srfactor._relative_residual

        def counted(A, C):
            calls.append(C.shape)
            return original(A, C)

        monkeypatch.setattr(srfactor, "_relative_residual", counted)
        return calls

    @pytest.mark.parametrize("A, cfg, steps", [
        (example_matrix("EX2_7"), AnalysisConfig(), 1),  # rowsum; later searches skipped
        (example_matrix("EX1_2"), AnalysisConfig(), 2),  # few_rays_factor, kaykobad
        (random_dn(12, 5, seed=0, style=GRAM_NONNEG), AnalysisConfig(heuristic=True), 1),
    ], ids=["EX2_7", "EX1_2", "heuristic"])
    def test_built_once_and_verified_once(self, residuals, A, cfg, steps):
        report = analyze(A, cfg)
        certified = [s for s in report.steps if s.outcome.startswith("CERTIFICATE")]
        assert len(certified) == steps
        assert len(residuals) == 2 * steps

    def test_min_entry_is_taken_before_the_clamp(self):
        report = analyze(random_dn(6, 3, seed=8, style=GRAM_NONNEG))
        cert = report.certificate
        assert cert.min_entry < 0.0
        assert cert.C.min() == 0.0
        # the step reports the unclamped value, not the clamped factor's 0
        assert step(report, "few_rays_factor").details["min_entry"] == cert.min_entry


def cycle_matrix(weights, diag):
    """The symmetric matrix with diagonal ``diag`` and ``weights[k]`` on the
    cycle edge between vertices k and k + 1 (mod n)."""
    n = len(weights)
    A = np.diag(np.asarray(diag, dtype=float))
    k = np.arange(n)
    A[k, (k + 1) % n] = A[(k + 1) % n, k] = weights
    return A


def cycle_family(n, near_m_edge, balanced, above, slacks, log_scale, cfg, seed):
    """A DN matrix whose pattern is a permuted ``n``-cycle: diagonal
    ``t d0`` either ``above`` (a fraction) over the PSD edge of the
    matrix, or within ``slacks`` times ``eps_psd`` of the PSD edge of the
    comparison matrix ``M`` (``near_m_edge``), scaled by ``10**log_scale``.
    A balanced ``d0`` is the row sums of the weights: M's edge is then
    ``t = 1`` with null vector 1, where the sum test ``1^T M 1 >= 0`` is
    sharp."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.2, 2.0, n)
    d0 = weights + np.roll(weights, 1) if balanced else rng.uniform(0.2, 2.0, n)
    eigs = np.linalg.eigvalsh(cycle_matrix(weights, np.zeros(n)) / np.sqrt(np.outer(d0, d0)))
    t = eigs[-1] * (1.0 + slacks * cfg.tol.eps_psd) if near_m_edge else -eigs[0] * (1.0 + above)
    A = 10.0**log_scale * cycle_matrix(weights, t * d0)
    perm = rng.permutation(n)
    return A[np.ix_(perm, perm)]


class TestGraphStep:
    """``triangle_free`` is the one graph step: every cycle of order at
    least 4 is triangle-free, so the criterion decides it exactly."""

    # rank 4, and the comparison matrix has eigenvalue -0.0212
    PINNED = cycle_matrix([0.4, 0.6, 1.6, 1.2, 0.4],
                          2.5101703672983002 * np.array([1.0, 1.1, 0.5, 1.5, 0.4]))

    def test_pinned_five_cycle_is_not_cp(self):
        # the cycle bound settled NOT_IN_CP_N_R with lower bound 5 first
        report = analyze(self.PINNED)
        assert report.rank == 4
        assert np.linalg.eigvalsh(2 * np.diag(np.diag(self.PINNED)) - self.PINNED)[0] < -0.02
        assert report.verdict == "NOT_CP"
        assert (report.cp_rank_lower, report.cp_rank_upper) == (None, None)
        assert report.certificate is None
        assert step(report, "triangle_free").outcome == "NOT_CP"

    @pytest.mark.parametrize(
        "cfg, delta", [(AnalysisConfig(), 1.5e-9), (ROUNDED_CFG, 1e-5)], ids=["default", "loose"]
    )
    def test_sum_test_decides_within_the_psd_slack(self, cfg, delta):
        # the unit-weight 5-cycle with diagonal 2(1 - delta): its comparison
        # matrix has eigenvalue -2 delta, inside the eps_psd slack, but the
        # off-diagonal sum exceeds the trace by 10 delta, far above rounding
        A = cycle_matrix(np.ones(5), np.full(5, 2.0 * (1.0 - delta)))
        assert np.linalg.eigvalsh(2 * np.diag(np.diag(A)) - A)[0] > -cfg.tol.eps_psd * 3.62
        report = analyze(A, cfg)
        assert report.verdict == "NOT_CP"
        assert (report.cp_rank_lower, report.cp_rank_upper) == (None, None)
        assert report.certificate is None

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=4, max_value=9),
        st.booleans(),
        st.booleans(),
        st.floats(min_value=0.0, max_value=0.05),
        st.floats(min_value=-20.0, max_value=20.0),
        st.floats(min_value=-6.0, max_value=6.0),
        st.sampled_from([AnalysisConfig(), ROUNDED_CFG]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @example(5, False, False, 0.0, 0.0, 0.0, AnalysisConfig(), 1)  # odd cycle at the PSD edge
    @example(6, False, False, 0.05, 0.0, 0.0, AnalysisConfig(), 1)  # even cycle: cp-rank n
    @example(5, True, True, 0.0, -1.0, 0.0, AnalysisConfig(), 1)  # inside the PSD slack of M
    @example(7, True, True, 0.0, -1.0, 3.0, ROUNDED_CFG, 2)
    def test_not_cp_exactly_when_the_criterion_says_so(
        self, n, near_m_edge, balanced, above, slacks, log_scale, cfg, seed
    ):
        # diagonal at the PSD edge of A or up to 5 % above it, or within 20
        # eps_psd of the PSD edge of the comparison matrix M; odd cycles
        # then fall on both sides of M's edge
        A = cycle_family(n, near_m_edge, balanced, above, slacks, log_scale, cfg, seed)
        report = analyze(A, cfg)
        not_cp = triangle_free_criterion(A, cfg.tol).status == "NOT_CP"
        assert (report.verdict == "NOT_CP") == not_cp
        if not_cp:
            assert (report.cp_rank_lower, report.cp_rank_upper) == (None, None)
            assert report.certificate is None
        # an upper bound is the row count of the certificate reported with it
        if report.cp_rank_upper is not None:
            assert report.certificate is not None
            assert report.certificate.rows == report.cp_rank_upper
        # checks independent of the criterion: a cycle matrix is CP exactly
        # when M is PSD, so 1^T M 1 >= 0 is necessary; an even cycle below
        # the edge of M is not even PSD
        off, diag = float(A.sum() - A.trace()), float(A.trace())
        lam = np.linalg.eigvalsh(2 * np.diag(np.diag(A)) - A)
        if off > diag + 1e-12 * max(off, diag) or lam[0] < -2 * cfg.tol.eps_psd * abs(lam).max():
            assert report.verdict in ("NOT_CP", NOT_DN)
        if lam[0] > 1e-12 * abs(lam).max():
            assert report.verdict != "NOT_CP"

    def test_criterion_cp_rank_is_a_lower_bound_only(self):
        # the even 6-cycle 5 % above its PSD edge: the criterion gives
        # cp-rank 6 = rank, but no step builds a factor with 6 rows, so
        # the report may not claim 6 as an upper bound
        A = cycle_family(6, False, False, 0.05, 0.0, 0.0, AnalysisConfig(), 1)
        report = analyze(A)
        tri = step(report, "triangle_free")
        assert (tri.outcome, tri.details["cp_rank"], report.rank) == ("CP", 6, 6)
        assert report.verdict == UNDECIDED
        assert (report.cp_rank_lower, report.cp_rank_upper) == (6, None)
        assert report.certificate is None

    def test_analysis_never_calls_nnq_or_the_cycle_bound(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("analyze called a step that never decides")

        for name, module in list(sys.modules.items()):
            for fn in ("nnq_from_rays", "cycle_necessary"):
                if name.split(".")[0] == "cprank" and hasattr(module, fn):
                    monkeypatch.setattr(module, fn, refuse)
        cases = [(example_matrix(fid), ROUNDED_CFG if fid == "EX3_9" else AnalysisConfig())
                 for fid in EXAMPLE_IDS]
        cases += [(self.PINNED, AnalysisConfig()),
                  (random_dn(12, 5, seed=0, style=GRAM_NONNEG), AnalysisConfig(heuristic=True))]
        for A, cfg in cases:
            names = {s.name for s in analyze(A, cfg).steps}
            assert not names & {"nnq_search", "cycle_necessary"}


def analysis_cases():
    """The fixtures under both tolerance sets, and random DN matrices of
    every style, each with the heuristic on and padded by zero rows."""
    cases = [(example_matrix(fid), cfg) for fid in EXAMPLE_IDS
             for cfg in (AnalysisConfig(), ROUNDED_CFG)]
    for style in RANDOM_STYLES:
        for n, r in ((4, 2), (6, 3), (8, 4), (8, 5)):
            A = random_dn(n, r, seed=n, style=style).a
            padded = np.zeros((n + 2, n + 2))
            padded[1:-1, 1:-1] = A
            cases += [(A, AnalysisConfig(heuristic=True)), (padded, AnalysisConfig())]
    return cases


class TestOneDecompositionPerMatrix:
    @pytest.fixture
    def eigh_inputs(self, monkeypatch):
        """The arrays handed to ``np.linalg.eigh``, kept alive so that
        their ids stay distinct."""
        seen = []
        original = np.linalg.eigh

        def counted(a, *args, **kwargs):
            seen.append(a)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return seen

    def test_extreme_rays(self, eigh_inputs):
        A = random_dn(12, 3, seed=4, style=GRAM_NONNEG).a
        eigh_inputs.clear()
        extreme_rays(A)
        assert len(eigh_inputs) == 1

    @pytest.mark.parametrize("A", [
        example_matrix("EX2_7"),  # rank 3, four rays
        random_dn(8, 2, seed=1, style=GRAM_NONNEG),
        random_dn(7, 3, seed=3, style=GRAM_NONNEG),  # rank 3, four rays
    ], ids=["EX2_7", "rank2", "rank3"])
    def test_few_rays_factor_reuses_the_rank_factor(self, eigh_inputs, A):
        report = extreme_rays(A)
        assert report.m <= 4
        eigh_inputs.clear()
        cert = few_rays_factor(A, report)
        assert eigh_inputs == []
        assert verify_certificate(A, cert).passed

    def test_heuristic_analysis(self, eigh_inputs):
        A = random_dn(12, 5, seed=0, style=GRAM_NONNEG).a
        eigh_inputs.clear()
        analyze(A, AnalysisConfig(heuristic=True))
        assert len(eigh_inputs) == 1

    def test_at_most_once_per_derived_matrix(self, eigh_inputs):
        # the input, and the comparison matrix of the triangle-free test;
        # the few-rays step reuses the input's rank factor
        for A, cfg in analysis_cases():
            eigh_inputs.clear()
            analyze(A, cfg)
            assert len({id(a) for a in eigh_inputs}) == len(eigh_inputs)
            assert len(eigh_inputs) <= 2


class TestOneMatrixPerAnalysis:
    @pytest.mark.parametrize("A, cfg", [
        pytest.param(example_matrix("EX2_7").a, AnalysisConfig(), id="EX2_7"),  # four rays
        pytest.param(example_matrix("EX2_8").a, AnalysisConfig(), id="EX2_8"),
        pytest.param(example_matrix("EX3_7").a, AnalysisConfig(), id="EX3_7"),
        pytest.param(example_matrix("EX3_9").a, ROUNDED_CFG, id="EX3_9"),
    ] + [
        pytest.param(random_dn(n, r, seed=1, style=style).a, AnalysisConfig(heuristic=True),
                     id=f"{style}-n{n}-r{r}")
        for style in RANDOM_STYLES for n, r in ((4, 3), (6, 3), (8, 4), (8, 5))
    ])
    def test_positive_input(self, monkeypatch, A, cfg):
        # a positive matrix has triangles, so the triangle-free test builds
        # no comparison matrix: the input is the only matrix, and the
        # few-rays step reads its extreme block as an array
        assert np.all(A > 0.0)
        built = []
        original = SymmetricMatrix.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(SymmetricMatrix, "__init__", counted)
        analyze(A, cfg)
        assert len(built) == 1


class TestOneRankDecisionPerMatrix:
    def test_each_matrix_and_tolerance_pair_reduced_once(self, monkeypatch):
        # psd_rank and sr_factor run several times per analysis, on the
        # input and (psd_rank) the comparison matrix; each matrix reduces
        # its spectrum once per tolerance pair and builds its factor once
        # per key
        reduced, factored = [], []
        reduce, factor = matcore._psd_rank, srfactor._sr_factor

        def counted_reduce(w, tol):
            reduced.append((w, tol.eps_psd, tol.eps_rank))  # keeps w alive
            return reduce(w, tol)

        def counted_factor(S, tol):
            factored.append((S, tol.eps_psd, tol.eps_rank, tol.eps_nonneg))
            return factor(S, tol)

        monkeypatch.setattr(matcore, "_psd_rank", counted_reduce)
        monkeypatch.setattr(srfactor, "_sr_factor", counted_factor)
        for A, cfg in analysis_cases():
            reduced.clear()
            factored.clear()
            analyze(A, cfg)
            assert reduced
            keys = [(id(w), psd, rank) for w, psd, rank in reduced]
            assert len(set(keys)) == len(keys)
            keys = [(id(S), *eps) for S, *eps in factored]
            assert len(set(keys)) == len(keys)


class TestOneFactPerMatrix:
    """The rank factor, the row-sum condition, the nnq check and the report
    all read a matrix's zero rows, and the cascade, the extreme rays and
    the triangle-free test all read its DN verdict: each is computed once
    per matrix and tolerance."""

    def test_one_zero_row_scan_per_threshold(self, monkeypatch):
        scans = []
        original = matcore._zero_rows

        def counted(a, threshold):
            scans.append((a, threshold))  # keeps a alive, so its id stays unique
            return original(a, threshold)

        monkeypatch.setattr(matcore, "_zero_rows", counted)
        for A, cfg in analysis_cases():
            scans.clear()
            report = analyze(A, cfg)
            keys = [(id(a), threshold) for a, threshold in scans]
            assert len(set(keys)) == len(keys)
            assert len(keys) == (report.dn == "DN")

    def test_one_dn_classification_per_matrix(self, monkeypatch):
        verdicts = []
        original = matcore._classify_dn

        def counted(S, tol):
            verdicts.append((S, tol.eps_nonneg, tol.eps_psd, tol.eps_rank))
            return original(S, tol)

        monkeypatch.setattr(matcore, "_classify_dn", counted)
        for A, cfg in analysis_cases():
            verdicts.clear()
            analyze(A, cfg)
            keys = [(id(S), *eps) for S, *eps in verdicts]
            assert len(set(keys)) == len(keys) == 1


class TestOnePatternPerMatrix:
    @pytest.mark.parametrize("A", [
        random_dn(40, 4, seed=3, style=GRAM_NONNEG),
        SymmetricMatrix(np.ones((40, 40)) + 40.0 * np.eye(40)),  # Kaykobad certifies
    ], ids=["gram_nonneg", "dominant"])
    def test_dense_order_40(self, monkeypatch, A):
        assert np.all(A.a > 0.0)
        misses = []
        original = SymmetricMatrix.pattern

        def counted(self, eps):
            if self is A and ("pattern", eps) not in self._derived:
                misses.append(eps)
            return original(self, eps)

        monkeypatch.setattr(SymmetricMatrix, "pattern", counted)
        analyze(A)
        assert misses == [DEFAULT_TOL.eps_nonneg]


def report_document(report):
    """A report as a document in the JSON contract's key order, for the
    recursive oracle."""
    doc = {
        "order": report.order,
        "rank": report.rank,
        "dn": report.dn,
        "verdict": report.verdict,
        "steps": [{"name": s.name, "outcome": s.outcome, "details": s.details} for s in report.steps],
    }
    if report.certificate is not None:
        doc["certificate"] = {
            "rows": report.certificate.rows,
            "residual": report.certificate.residual,
            "entries": report.certificate.C,
        }
    doc["cp_rank_lower"] = report.cp_rank_lower
    doc["cp_rank_upper"] = report.cp_rank_upper
    doc["seed"] = report.seed
    return doc


def rounded_renderer(value):
    """A deliberately wrong renderer: the recursive oracle with floats at
    16 significant digits."""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".16g")
    if isinstance(value, np.ndarray) and value.dtype.kind == "f":
        return rounded_renderer(value.tolist())
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{rounded_renderer(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(rounded_renderer, value)) + "]"
    return json_value_recursive(value)


class TestJsonMatchesRecursiveRenderer:
    SPECIAL = [-0.0, 0.0, float("inf"), float("-inf"), float("nan"), 5e-324,
               2.2250738585072014e-308 / 3.0, 1.0 / 3.0, -1e300, 123456789.0]

    @pytest.mark.parametrize("value", [
        np.array(SPECIAL),
        np.array(SPECIAL).reshape(2, 5),
        np.array([0.1, -0.0, 1e-40, np.inf], dtype=np.float32),
        np.zeros((0, 3)),
        np.zeros(0),
        np.arange(4),
        np.array([True, False]),
        [np.float64(-0.0), np.int64(7), 5e-324, None, True, (1, 2.5), "q\"é"],
        {"a": np.array(SPECIAL), 3: [], "k": {"nested": -0.0}},
        np.float64(float("inf")),
    ], ids=lambda v: type(v).__name__)
    def test_values(self, value):
        assert pipeline._json_value(value) == json_value_recursive(value)

    @pytest.mark.parametrize("fid", EXAMPLE_IDS)
    def test_fixture_reports(self, fid):
        for cfg in (AnalysisConfig(), ROUNDED_CFG):
            report = analyze(example_matrix(fid), cfg)
            assert report_to_json(report) == json_value_recursive(report_document(report))

    @pytest.mark.parametrize("style", RANDOM_STYLES)
    def test_random_dn_reports(self, style):
        for n, r in ((3, 1), (5, 2), (8, 3), (12, 6), (40, 3), (60, 4)):
            report = analyze(random_dn(n, r, seed=n + r, style=style))
            assert report_to_json(report) == json_value_recursive(report_document(report))

    def test_numpy_bools_render_as_bools(self):
        # a detail stored as np.all(...) must not crash write_report
        details = {"a": np.True_, "b": [np.False_, True]}
        assert pipeline._json_value(details) == pipeline._json_value({"a": True, "b": [False, True]})
        assert pipeline._json_value(details) == '{"a":true,"b":[false,true]}'

    def test_every_report_value_goes_through_the_renderer(self, monkeypatch):
        # a wrong renderer in place of ``_json_value`` changes the report,
        # and the comparison with the oracle catches it
        report = analyze(example_matrix("EX2_7"))
        expected = json_value_recursive(report_document(report))
        assert rounded_renderer(report_document(report)) != expected
        monkeypatch.setattr(pipeline, "_json_value", rounded_renderer)
        assert report_to_json(report) == rounded_renderer(report_document(report))
        assert report_to_json(report) != expected


class TestReportRendering:
    def test_json_schema_key_order(self):
        report = analyze(example_matrix("EX2_7"))
        doc = json.loads(report_to_json(report))
        assert list(doc.keys()) == [
            "order", "rank", "dn", "verdict", "steps",
            "certificate", "cp_rank_lower", "cp_rank_upper", "seed",
        ]
        assert doc["order"] == 4 and doc["rank"] == 3 and doc["dn"] == "DN"
        assert doc["certificate"]["rows"] == 3
        assert len(doc["certificate"]["entries"]) == 3
        assert all(len(row) == 4 for row in doc["certificate"]["entries"])

    def test_json_omits_absent_certificate(self):
        report = analyze(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        doc = json.loads(report_to_json(report))
        assert "certificate" not in doc
        assert doc["cp_rank_lower"] is None and doc["cp_rank_upper"] is None

    def test_json_17_digit_numbers(self):
        report = analyze(example_matrix("EX2_7"))
        text = report_to_json(report)
        third = 1.0 / 3.0
        assert format(third, ".17g") == "0.33333333333333331"  # serializer contract
        assert json.loads(text)  # stays valid JSON

    def test_determinism_byte_identical(self):
        for fid in EXAMPLE_IDS:
            cfg = ROUNDED_CFG if fid == "EX3_9" else AnalysisConfig()
            a = write_report(analyze(example_matrix(fid), cfg), "json")
            b = write_report(analyze(example_matrix(fid), cfg), "json")
            assert a == b

    def test_text_report_mentions_verdict(self):
        report = analyze(example_matrix("EX2_7"))
        text = write_report(report, "text").decode()
        assert "CP_RANK_EQ_RANK" in text and "rowsum" in text

    def test_identity_report(self):
        report = analyze(np.eye(2))
        doc = json.loads(report_to_json(report))
        assert doc["verdict"] == "CP_RANK_EQ_RANK"
        assert doc["certificate"]["rows"] == 2


class TestStepTimes:
    @pytest.mark.parametrize("A, cfg", [
        (example_matrix("EX2_7"), AnalysisConfig()),
        (random_dn(12, 5, seed=0, style=GRAM_NONNEG), AnalysisConfig(heuristic=True)),
    ], ids=["default", "heuristic"])
    def test_step_times_add_up_to_the_analysis(self, A, cfg):
        # each record times the span since the previous one, so the step
        # times never overlap and together stay within the whole call
        t0 = time.perf_counter()
        report = analyze(A, cfg)
        wall = time.perf_counter() - t0
        assert all(s.elapsed >= 0.0 for s in report.steps)
        assert sum(s.elapsed for s in report.steps) <= wall
        assert "elapsed" not in report_to_json(report)


class TestReadMatrix:
    def test_dense(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2\n1 0\n0 1\n")
        assert np.array_equal(read_matrix(str(path)).a, np.eye(2))

    def test_csv_roundtrip_matches_fixture(self, tmp_path):
        S = example_matrix("EX2_7")
        path = tmp_path / "m.csv"
        path.write_text(matrix_to_text(S, "csv"))
        assert np.array_equal(read_matrix(str(path), "csv").a, S.a)

    def test_ragged_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(InvalidInputError, match="line 2"):
            read_matrix(str(path), "csv")

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 0 0\n")
        with pytest.raises(InvalidInputError, match="expected 4"):
            read_matrix(str(path))

    def test_non_numeric_token(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("1,x\n2,1\n")
        with pytest.raises(InvalidInputError, match="column 2"):
            read_matrix(str(path), "csv")

    @pytest.mark.parametrize("fmt, text, line, column, parsed", [
        ("csv", "1, 2\n 2 ,x \n", 2, 2, 4),
        ("csv", "1,2\n,1\n", 2, 1, 3),
        ("csv", "1,2,\n2,1\n", 1, 3, 3),
        ("csv", "1,2\n\n \n2,x\n", 4, 2, 4),
        ("dense", "2\n1 0\n0 x\n", 3, 2, 4),
        ("dense", "2 1\n\n0 0 x\n", 3, 3, 4),
        ("dense", "2\n1 y 0 1\n", 2, 2, 2),
        ("dense", "1\n\n\t\n x\n", 4, 1, 1),
    ])
    def test_each_cell_is_parsed_once(self, tmp_path, monkeypatch, fmt, text, line, column,
                                      parsed):
        # the bad cell ends the parse: every cell before it, whitespace
        # around a number included, and the bad one are read once each
        path = tmp_path / "bad.txt"
        path.write_text(text)
        cells = []

        def counted(cell):
            cells.append(cell)
            return float(cell)

        monkeypatch.setattr(pipeline, "float", counted, raising=False)
        with pytest.raises(InvalidInputError,
                           match=f"^{re.escape(f'{path}: line {line}, column {column}: not a number')}$"):
            read_matrix(str(path), fmt)
        assert len(cells) == parsed

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 6), fmt=st.sampled_from(["dense", "csv"]), data=st.data())
    def test_every_bad_cell_is_named_where_it_is(self, tmp_path_factory, n, fmt, data):
        entries = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n * n, max_size=n * n))
        A = np.array(entries).reshape(n, n)
        A = np.triu(A) + np.triu(A, 1).T
        assume(not 0.0 < np.abs(A).max() < 1e-100)
        text = matrix_to_text(SymmetricMatrix(A), fmt)
        if fmt == "dense":
            rows, sep, first = [text.split()], " ", 1
        else:
            rows, sep, first = [line.split(",") for line in text.splitlines()], ",", 0
        # lay the tokens out again: blank lines anywhere, and a dense file
        # broken over lines between any two tokens
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        blanks = st.lists(st.sampled_from(["", " ", "\t"]), max_size=2)
        lines, places = data.draw(blanks), []
        for row in rows:
            line = []
            for token in row:
                if line and fmt == "dense" and data.draw(st.booleans()):
                    lines += [sep.join(line), *data.draw(blanks)]
                    line = []
                line.append(token)
                places.append((len(lines) + 1, len(line)))
            lines += [sep.join(line), *data.draw(blanks)]
        path = tmp_path_factory.mktemp("cells") / f"m.{fmt}"
        path.write_bytes((newline.join(lines) + newline).encode())
        assert np.array_equal(read_matrix(str(path), fmt).a, A)

        line_no, column = places[first + data.draw(st.integers(0, n * n - 1))]
        cells = lines[line_no - 1].split(sep if fmt == "csv" else None)
        cells[column - 1] = data.draw(st.sampled_from(["x", "1e", "0x1", "--1", "1.2.3", "\u221e"]))
        lines[line_no - 1] = sep.join(cells)
        path.write_bytes((newline.join(lines) + newline).encode())
        message = f"{path}: line {line_no}, column {column}: not a number"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            read_matrix(str(path), fmt)

    def test_byte_order_mark(self, tmp_path):
        S = example_matrix("EX3_9")
        for fmt in ("dense", "csv"):
            path = tmp_path / f"bom.{fmt}"
            path.write_bytes(b"\xef\xbb\xbf" + matrix_to_text(S, fmt).encode())
            assert np.array_equal(read_matrix(str(path), fmt).a, S.a)

    def test_undecodable_byte(self, tmp_path):
        path = tmp_path / "bad.txt"
        for prefix in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(prefix + b"2\n1 0\n0 \xff\n")
            message = f"{path}: not UTF-8 text (invalid start byte at byte {len(prefix) + 8})"
            with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
                read_matrix(str(path))

    def test_asymmetric_rejected(self, tmp_path):
        path = tmp_path / "asym.txt"
        path.write_text("2\n1 5\n0 1\n")
        with pytest.raises(InvalidInputError, match="not symmetric"):
            read_matrix(str(path))

    @pytest.mark.parametrize("fmt, text, message", [
        ("dense", " \n", "empty file"),
        ("dense", "two\n1 0\n0 1\n", "first token must be the order, got 'two'"),
        ("dense", "0\n", "order must be positive, got 0"),
        ("dense", "2\n1 0\n0 x\n", "line 3, column 2: not a number"),
        ("csv", "\n \n", "empty file"),
    ])
    def test_rejected_file(self, tmp_path, fmt, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_matrix(str(path), fmt)

    def test_unknown_formats(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1\n1\n")
        with pytest.raises(InvalidInputError, match="unknown matrix format 'tsv'"):
            read_matrix(str(path), "tsv")
        with pytest.raises(InvalidInputError, match="unknown matrix format 'tsv'"):
            matrix_to_text(SymmetricMatrix(np.eye(2)), "tsv")
        with pytest.raises(InvalidInputError, match="unknown report format 'xml'"):
            write_report(analyze(np.eye(2)), "xml")
