import json
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cprank import (
    DEFAULT_TOL,
    AnalysisConfig,
    InvalidInputError,
    SymmetricMatrix,
    Tolerances,
    analyze,
    extreme_rays,
    few_rays_factor,
    verify_certificate,
)
from cprank.fixtures import EXAMPLE_IDS, GRAM_NONNEG, RANDOM_STYLES, example_matrix, random_dn
from cprank import matcore, pipeline, srfactor
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
from conftest import cone_sampled_vectors, json_value_recursive

ROUNDED_CFG = AnalysisConfig(
    tol=Tolerances(eps_psd=1e-4, eps_rank=1e-4, eps_nonneg=1e-6, eps_residual=1e-4)
)


def step(report, name):
    return next(s for s in report.steps if s.name == name)


class TestAnalysisConfig:
    # the DN, non-CP 5-cycle matrix plus a small multiple of the all-ones
    # matrix: rank 5, so the heuristic rotation runs its restarts
    A0 = np.array([[1, 1, 0, 0, 1], [1, 2, 1, 0, 0], [0, 1, 2, 1, 0],
                   [0, 0, 1, 2, 1], [1, 0, 0, 1, 6]], dtype=float)

    @pytest.mark.parametrize("field", ["seed", "restarts"])
    def test_negative_count_rejected(self, field):
        with pytest.raises(InvalidInputError, match=f"{field} must be nonnegative"):
            AnalysisConfig(**{field: -1})

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
        assert step(report, "cycle_necessary").outcome == "PASSES"
        assert step(report, "triangle_free").details["cp_rank"] == 4
        assert report.certificate is not None and report.certificate.rows == 4

    def test_k23_example(self):
        report = analyze(example_matrix("EX3_3"))
        assert report.verdict == NOT_IN_CP_N_R
        assert (report.cp_rank_lower, report.cp_rank_upper) == (6, 6)
        assert step(report, "triangle_free").details["cp_rank"] == 6

    def test_non_nnq_example_certified_without_nnq(self):
        report = analyze(example_matrix("EX3_7"))
        assert report.verdict == CP_RANK_EQ_RANK
        assert step(report, "nnq_search").outcome == "NONE"
        assert report.certificate.method_tag != "nnq"

    def test_rounded_example_with_matching_tolerances(self):
        report = analyze(example_matrix("EX3_9"), ROUNDED_CFG)
        assert report.verdict == CP_RANK_EQ_RANK
        assert report.rank == 3
        assert step(report, "nnq_search").details["indices"] == [1, 2, 3]
        assert step(report, "few_rays_factor").outcome == "CERTIFICATE(rows=3)"

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
        assert step(report, "cycle_necessary").outcome == "FAILS"

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

    def test_zero_diagonal_rows_deflated(self):
        A = np.zeros((4, 4))
        A[0, 0], A[2, 2], A[0, 2], A[2, 0] = 2.0, 2.0, 1.0, 1.0
        report = analyze(A)
        assert report.verdict == CP_RANK_EQ_RANK
        assert step(report, "deflate_zero_rows").details["zero_rows"] == [2, 4]
        assert step(report, "extreme_rays").details["extreme_indices"] == [1, 3]
        assert step(report, "nnq_search").details["indices"] == [1, 3]
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
        for name, key in (("extreme_rays", "extreme_indices"), ("nnq_search", "indices")):
            expected = [i + (i > 3) for i in step(base, name).details.get(key, [])]
            assert step(report, name).details.get(key, []) == expected
        assert np.all(report.certificate.C[:, 3] == 0.0)

    def test_zero_matrix(self):
        report = analyze(np.zeros((3, 3)))
        assert report.verdict == CP_RANK_EQ_RANK
        assert report.rank == 0 and report.certificate.rows == 0
        assert step(report, "few_rays_factor").outcome == "CERTIFICATE(rows=0)"

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

    def test_nnq_has_no_subset_budget(self):
        # C(80, 4) is about 1.58 million subsets; nnq is read off the rays
        from cprank.fixtures import GRAM_NONNEG, random_dn

        report = analyze(random_dn(80, 4, seed=2, style=GRAM_NONNEG))
        nnq_step = step(report, "nnq_search")
        m = step(report, "extreme_rays").details["m"]
        assert nnq_step.outcome == ("FOUND" if m == 4 else "NONE")
        assert nnq_step.elapsed < 1.0

    @pytest.fixture
    def search_calls(self, monkeypatch):
        """Calls of ``orthant_rotation_search`` through every cprank
        module that binds it."""
        from cprank import rotate

        calls = []
        original = rotate.orthant_rotation_search

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            bound = getattr(module, "orthant_rotation_search", None)
            if name.split(".")[0] == "cprank" and bound is original:
                monkeypatch.setattr(module, "orthant_rotation_search", counted)
        return calls

    def test_one_rotation_search_at_full_rank_order_4(self, search_calls):
        report = analyze(random_dn(4, 4, seed=5, style=GRAM_NONNEG))
        assert report.rank == 4 and step(report, "extreme_rays").details["m"] == 4
        assert report.verdict == CP_RANK_EQ_RANK and report.certificate.rows == 4
        assert len(search_calls) == 1

    def test_one_rotation_search_for_an_nnq_basis(self, search_calls):
        rng = np.random.default_rng(2)
        N = rng.uniform(0.1, 1.0, size=(3, 3))
        P = np.hstack([np.eye(3), rng.uniform(0.0, 1.0, size=(3, 4))])
        report = analyze(P.T @ (N.T @ N) @ P)
        assert len(search_calls) == 1
        assert step(report, "nnq_search").outcome == "FOUND"
        assert step(report, "extreme_rays").details["m"] == 3
        assert report.verdict == CP_RANK_EQ_RANK and report.certificate.rows == 3

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
        report = analyze(random_dn(r + extra, r, seed=seed, style=style))
        assert report.rank == r
        if r == 3 and step(report, "extreme_rays").details["m"] != 3:
            return
        assert report.verdict == CP_RANK_EQ_RANK and report.certificate.rows == r
        assert step(report, "few_rays_factor").outcome == f"CERTIFICATE(rows={r})"


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
        (example_matrix("EX2_7"), AnalysisConfig(), 2),  # rowsum, few_rays_factor
        (example_matrix("EX1_2"), AnalysisConfig(), 2),  # few_rays_factor, kaykobad
        (random_dn(12, 5, seed=0, style=GRAM_NONNEG), AnalysisConfig(heuristic=True), 1),
    ], ids=["EX2_7", "EX1_2", "heuristic"])
    def test_built_once_and_verified_once(self, residuals, A, cfg, steps):
        report = analyze(A, cfg)
        certified = [s for s in report.steps if s.outcome.startswith("CERTIFICATE")]
        assert len(certified) == steps
        assert len(residuals) == 2 * steps

    def test_min_entry_is_taken_before_the_clamp(self):
        cert = analyze(random_dn(6, 3, seed=8, style=GRAM_NONNEG)).certificate
        assert cert.min_entry < 0.0
        assert cert.C.min() == 0.0


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
        example_matrix("EX2_7"),  # full rank at order 4: four rays
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
            if self is A and eps not in self._patterns:
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

    def test_asymmetric_rejected(self, tmp_path):
        path = tmp_path / "asym.txt"
        path.write_text("2\n1 5\n0 1\n")
        with pytest.raises(InvalidInputError, match="not symmetric"):
            read_matrix(str(path))
