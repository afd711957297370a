"""Self-test of the benchmark at tiny sizes.

Run with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import numpy as np
import pytest

import environment
import check
import instances
import run
import speed
import cprank
from cprank import nnq


def tiny_pool() -> list[instances.Instance]:
    pool = instances.fixture_instances(cprank.AnalysisConfig())
    config = cprank.AnalysisConfig(heuristic=True)
    for style, n, r in (("GRAM_NONNEG", 6, 3), ("SOULES", 8, 3), ("ROTATED_NONNEG", 8, 6)):
        A = np.array(cprank.random_dn(n, r, seed=3, style=style).a)
        pool.append(instances.Instance(f"{style}-{n}-{r}", style, n, r, 3, A, config))
    return pool


def benchmark_spec() -> dict:
    return json.loads((environment.ROOT / "BENCHMARK.json").read_text())


def analysed(fixture_id: str):
    inst = next(i for i in instances.fixture_instances(cprank.AnalysisConfig()) if i.id == fixture_id)
    report = cprank.analyze(inst.matrix, inst.config)
    return inst, report


def with_certificate(report, C: np.ndarray):
    cert = dataclasses.replace(report.certificate, C=C)
    return dataclasses.replace(report, certificate=cert)


def test_clean_reports_pass_the_check():
    loop = run.Loop("tiny", tiny_pool())
    loop.run_pass(0)
    assert [r["violations"] for r in loop.records] == [[] for _ in loop.pool]


def test_check_flags_a_negative_certificate_entry():
    inst, report = analysed("EX2_7")
    C = np.array(report.certificate.C)
    C[0, int(np.argmax(C[0]))] = -1e-3
    bad = with_certificate(report, C)
    found = check.violations(inst, bad, cprank.write_report(bad, "json"))
    assert any("below -eps_nonneg" in v for v in found)


def test_check_flags_a_certificate_that_misses_the_matrix():
    inst, report = analysed("EX2_8")
    C = np.array(report.certificate.C)
    C[0, int(np.argmax(C[0]))] *= 1.01
    bad = with_certificate(report, C)
    found = check.violations(inst, bad, cprank.write_report(bad, "json"))
    assert found == [next(v for v in found if "residual" in v)]


def test_check_flags_a_wrong_fixture_verdict():
    inst, report = analysed("EX1_2")
    bad = dataclasses.replace(report, verdict="UNDECIDED")
    found = check.violations(inst, bad, cprank.write_report(bad, "json"))
    assert any("expected NOT_IN_CP_N_R" in v for v in found)


def test_check_flags_a_negative_verdict_on_a_planted_instance():
    inst = tiny_pool()[-1]
    report = cprank.analyze(inst.matrix, inst.config)
    bad = dataclasses.replace(report, verdict="NOT_CP")
    assert any("planted" in v for v in check.violations(inst, bad, cprank.write_report(bad, "json")))


def test_check_flags_json_that_disagrees_with_the_report():
    inst, report = analysed("EX3_7")
    data = cprank.write_report(dataclasses.replace(report, cp_rank_upper=9), "json")
    assert any("JSON" in v for v in check.violations(inst, report, data))


def test_traced_counts_repeat_and_bindings_are_restored():
    bindings = [(cprank, "analyze"), (cprank.cones, "is_nnq_gram"), (cprank.rotate, "minimize"),
                (np.linalg, "eigh"), (np.linalg, "det")]
    originals = [getattr(owner, attr) for owner, attr in bindings]
    counts = []
    for _ in range(2):
        records, tracer = run.measure(run.Loop("tiny", tiny_pool()), 0.0, trace=True)
        metrics, absent = run.per_layer(records, tracer)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
        assert absent == []
    assert counts[0] == counts[1]
    assert counts[0]["matcore.eigh_calls"] > 0 and counts[0]["nnq.subsets_scanned"] > 0
    assert [getattr(owner, attr) for owner, attr in bindings] == originals


def test_subsets_scanned_counts_determinants_of_the_scan_only():
    inst = next(i for i in tiny_pool() if i.style == "SOULES")
    records, tracer = run.measure(run.Loop("tiny", [inst]), 0.0, trace=True)
    metrics, _ = run.per_layer(records, tracer)
    witness = nnq.is_nnq_gram(inst.matrix).witness.indices
    position = list(itertools.combinations(range(inst.n), inst.r)).index(witness) + 1
    assert metrics["nnq.subsets_scanned"] == (position, "count")


def test_a_deleted_function_reads_as_absent(monkeypatch):
    monkeypatch.setattr(nnq, "__all__", [n for n in nnq.__all__ if n != "is_nnq_gram"])
    records, tracer = run.measure(run.Loop("tiny", tiny_pool()), 0.0, trace=True)
    metrics, absent = run.per_layer(records, tracer)
    assert absent == ["nnq.is_nnq_gram"]
    assert metrics["nnq.scan_calls"][0] == 0.0


def test_setup_probe_times_a_fresh_process(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    [seconds] = run.setup_seconds("rank5plus_heuristic", 1)
    assert 0.0 < seconds < 60.0


def test_times_are_scaled_by_the_reference_around_them(monkeypatch):
    samples = iter([1.0, 3.0, 5.0])
    monkeypatch.setattr(speed, "sample_ms", lambda: next(samples))
    monkeypatch.setattr(speed, "SAMPLE_EVERY_S", 0.0)
    loop = run.Loop("tiny", tiny_pool()[:1])
    loop.run_pass(0)
    loop.finish()
    [record] = loop.records
    assert record["reference_ms"] == 4.0
    assert record["ms"] == pytest.approx(record["wall_ms"] * speed.REFERENCE_MS / 4.0)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_contract_line(trace, monkeypatch, capsys):
    tiny = instances.Workload(cells=(("GRAM_NONNEG", 6, 3, 40), ("SOULES", 8, 3, 40),
                                     ("ROTATED_NONNEG", 8, 6, 40)), fixtures=True)
    monkeypatch.setitem(instances.WORKLOADS, "tiny", tiny)
    monkeypatch.setattr(run, "setup_seconds", lambda workload, seed: [0.5, 0.6, 0.7])
    assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
