"""Output check that does not rely on the library's own verifier.

Every certificate is re-checked with plain numpy against the matrix the
benchmark generated, every report is checked for internal consistency,
and instances with a known answer are checked against it.  Each
violation is a string; an analysis fails when it has any.
"""

from __future__ import annotations

import json

import numpy as np

# verdicts that deny complete positivity at rank r; a planted random_dn
# instance is completely positive with cp-rank at most its rank
NEGATIVE_VERDICTS = frozenset({"NOT_DN", "NOT_CP", "NOT_IN_CP_N_R"})


def violations(instance, report, report_json: bytes) -> list[str]:
    """Everything wrong with one analysis of ``instance``."""
    tol = instance.config.tol
    found: list[str] = []
    lower, upper = report.cp_rank_lower, report.cp_rank_upper

    cert = report.certificate
    if cert is not None:
        A = instance.matrix
        C = np.asarray(cert.C, dtype=float)
        if C.ndim != 2 or C.shape[1] != A.shape[0]:
            found.append(f"certificate shape {C.shape} does not fit order {A.shape[0]}")
        else:
            rows = C.shape[0]
            if C.size and float(C.min()) < -tol.eps_nonneg:
                found.append(f"certificate entry {float(C.min()):.3e} below -eps_nonneg")
            denom = float(np.linalg.norm(A)) or 1.0
            residual = float(np.linalg.norm(C.T @ C - A)) / denom
            if not residual <= tol.eps_residual:
                found.append(f"certificate residual {residual:.3e} above eps_residual")
            if upper is None or upper > rows:
                found.append(f"upper bound {upper} above certificate rows {rows}")
            elif upper < rows and not _exact_from_pattern(report, upper):
                found.append(f"upper bound {upper} below certificate rows {rows} without a source")

    if lower is not None and upper is not None and lower > upper:
        found.append(f"lower bound {lower} above upper bound {upper}")
    if report.verdict == "CP_RANK_EQ_RANK" and (cert is None or cert.rows != report.rank):
        rows = None if cert is None else cert.rows
        found.append(f"CP_RANK_EQ_RANK with certificate rows {rows} and rank {report.rank}")
    if instance.expected is not None and report.verdict != instance.expected:
        found.append(f"verdict {report.verdict}, expected {instance.expected}")
    if instance.r is not None:
        if report.verdict in NEGATIVE_VERDICTS:
            found.append(f"planted instance got {report.verdict}")
        if report.rank != instance.r:
            found.append(f"rank {report.rank}, planted rank {instance.r}")

    found.extend(_json_mismatches(report, report_json))
    return found


def _exact_from_pattern(report, upper: int) -> bool:
    """The report names an exact cp-rank from the triangle-free criterion."""
    return any(
        s.name == "triangle_free" and s.outcome == "CP" and s.details.get("cp_rank") == upper
        for s in report.steps
    )


def _json_mismatches(report, report_json: bytes) -> list[str]:
    try:
        doc = json.loads(report_json)
    except ValueError as exc:
        return [f"JSON report does not parse: {exc}"]
    rows = None if report.certificate is None else report.certificate.rows
    expected = {
        "verdict": report.verdict,
        "rank": report.rank,
        "cp_rank_lower": report.cp_rank_lower,
        "cp_rank_upper": report.cp_rank_upper,
    }
    got = {key: doc.get(key) for key in expected}
    got_rows = doc["certificate"]["rows"] if "certificate" in doc else None
    if got != expected or got_rows != rows:
        return [f"JSON report {got}, rows {got_rows} differs from the report object"]
    return []
