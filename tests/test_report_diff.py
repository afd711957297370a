"""The step-outcome summary of ``tools/report_diff.py``."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"
spec = importlib.util.spec_from_file_location("report_diff", TOOL)
report_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_diff)


def report(*steps):
    return json.dumps({"steps": [{"name": n, "outcome": o, "details": {}} for n, o in steps]})


def test_outcome_changes_name_the_kind_of_change():
    old = report(("rowsum", "CERTIFICATE(rows=3)"), ("few_rays_factor", "CERTIFICATE(rows=3)"),
                 ("kaykobad", "NOT_APPLICABLE"), ("deflate_zero_rows", "DROPPED(1)"))
    new = report(("rowsum", "CERTIFICATE(rows=3)"), ("few_rays_factor", "SKIPPED"),
                 ("kaykobad", "CERTIFICATE(rows=4)"))
    assert report_diff.outcome_changes(old, new) == [
        "few_rays_factor: CERTIFICATE(rows=k) -> SKIPPED",
        "kaykobad: NOT_APPLICABLE -> CERTIFICATE(rows=k)",
        "deflate_zero_rows: DROPPED(1) -> absent",
    ]


def test_a_row_count_change_is_listed():
    old = report(("few_rays_factor", "CERTIFICATE(rows=4)"))
    new = report(("few_rays_factor", "CERTIFICATE(rows=3)"))
    assert report_diff.outcome_changes(old, new) == [
        "few_rays_factor: CERTIFICATE(rows=k) -> CERTIFICATE(rows=k)",
    ]
    assert report_diff.outcome_changes(old, old) == []
