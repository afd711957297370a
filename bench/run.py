"""Benchmark of cprank's ``analyze``: one closed-loop caller, one process.

Usage::

    python3 bench/run.py --workload small_mixed --seed 1 --seconds 30 --trace 0

One analysis is ``analyze(A, config)`` followed by ``write_report(report,
"json")``.  The run builds the workload's instance pool from the seed,
warms up, then analyses the pool in its seeded order, one analysis
after another, starting over at the end, until ``--seconds`` seconds
have passed and at least ``MIN_ANALYSES`` instances are done (a traced
run: see below).  Every
output goes through the independent check in ``check.py`` between
analyses, outside the timed region.

Every analysis time the run reports is scaled to one fixed machine speed
with the reference of ``speed.py``, sampled between analyses: the host's
speed drifts too much for raw wall times to compare from one minute to
the next.  The raw wall times go to the summary and the records as well.

With ``--trace 0`` the run reports the end-to-end metrics, and measures
set-up time as the median of several fresh processes that each import
cprank, build the pool and warm up.  It is scaled by the median of the
run's reference samples: a sample taken in those short-lived processes
themselves varied more than their set-up time did.
With ``--trace 1`` it analyses each instance of a fixed prefix of the
pool twice in a row, once traced and once not, in whole passes (at least
one, and no more than fit in ``--seconds``), and reports the per-layer metrics of ``tracing.py`` (span
times scaled like the analysis they belong to) plus the tracing
overhead: traced against untraced analyses per second over the same
instances.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment,
the metrics and one record per analysis go to ``bench/out/``; a traced
run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import environment

import cprank
import check
import instances
import speed
import tracing

SETUP_PROBES = 5

# so that the 90th percentile has at least ten samples beyond it
MIN_ANALYSES = 100

# run in a fresh interpreter: time the imports, the pool and the warm-up
SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, {bench!r})
import run
run.set_up({workload!r}, {seed!r})
print(time.perf_counter() - t0)
"""


def set_up(workload: str, seed: int) -> list[instances.Instance]:
    """Build the pool and pay first-call costs on the bundled examples."""
    pool = instances.build(workload, seed)
    for inst in instances.fixture_instances(cprank.AnalysisConfig()):
        cprank.write_report(cprank.analyze(inst.matrix, inst.config), "json")
    return pool


def setup_seconds(workload: str, seed: int) -> list[float]:
    code = SETUP_PROBE.format(bench=str(environment.BENCH_DIR), workload=workload, seed=seed)
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Loop:
    """Closed loop over the pool; collects latencies, records and failures.
    A record's ``ms`` is its scaled time, filled in by :meth:`finish`."""

    def __init__(self, workload: str, pool: list[instances.Instance]):
        self.workload = workload
        self.pool = pool
        self.records: list[dict] = []
        self.reference = speed.Reference()

    def run_pass(self, index: int, tracer: tracing.Tracer | None = None, stop=None) -> bool:
        """One analysis of every instance or, with a tracer, two in a row:
        one traced and one not, in alternating order.  Ends early, and
        returns False, when ``stop()`` is true before an instance."""
        for k, inst in enumerate(self.pool):
            if stop is not None and stop():
                return False
            if tracer is None:
                self._analyse(inst, index, None)
            else:
                for traced in (False, True) if k % 2 == 0 else (True, False):
                    self._analyse(inst, index, tracer if traced else None)
        return True

    def _analyse(self, inst, index: int, tracer: tracing.Tracer | None) -> None:
        report, data, error = None, None, None
        sample = self.reference.before_analysis()
        if tracer is not None:
            tracer.analysis = len(self.records)
            tracer.install()
        t0 = time.perf_counter()
        try:
            report = cprank.analyze(inst.matrix, inst.config)
            data = cprank.write_report(report, "json")
        except Exception as exc:  # an analysis that raises is a failed analysis
            error = f"{type(exc).__name__}: {exc}"
        finally:
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        found = [error] if error else check.violations(inst, report, data)
        record = self._record(inst, index, tracer is not None, report, seconds, found)
        record["sample"] = sample
        self.records.append(record)

    def finish(self) -> None:
        """Close the last reference interval and scale every time."""
        self.reference.finish()
        for record in self.records:
            reference_ms = self.reference.reference_ms(record.pop("sample"))
            record["reference_ms"] = reference_ms
            record["ms"] = speed.scaled(record["wall_ms"], reference_ms)

    def _record(self, inst, index, traced, report, seconds, found) -> dict:
        cert = None if report is None else report.certificate
        return {
            "workload": self.workload,
            "instance": inst.id,
            "style": inst.style,
            "n": inst.n,
            "r": inst.r,
            "seed": inst.seed,
            "pass": index,
            "traced": traced,
            "verdict": None if report is None else report.verdict,
            "rank": None if report is None else report.rank,
            "lower": None if report is None else report.cp_rank_lower,
            "upper": None if report is None else report.cp_rank_upper,
            "rows": None if cert is None else cert.rows,
            "wall_ms": 1e3 * seconds,
            "violations": found,
        }


def measure(loop: Loop, seconds: float, trace: bool) -> tuple[list[dict], tracing.Tracer | None]:
    """Without tracing, passes over the pool until ``seconds`` have passed
    and at least ``MIN_ANALYSES`` instances, or the whole pool, are done.
    With tracing, whole passes, at least one, until the next would end
    after ``seconds``: the same seed then gives the same counts."""
    start = time.perf_counter()
    if trace:
        tracer = tracing.Tracer()
        index = 0
        while True:
            t0 = time.perf_counter()
            loop.run_pass(index, tracer)
            index += 1
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                break
    else:
        tracer = None
        least = min(MIN_ANALYSES, len(loop.pool))

        def stop() -> bool:
            return len(loop.records) >= least and time.perf_counter() - start >= seconds

        index = 0
        while loop.run_pass(index, None, stop):
            index += 1
    loop.finish()
    return loop.records, tracer


def rate(records: list[dict], key: str = "ms") -> float:
    """Analyses per second of time spent analysing."""
    return len(records) / (1e-3 * sum(r[key] for r in records))


def deciles(records: list[dict], key: str = "ms") -> list[float]:
    return statistics.quantiles([r[key] for r in records], n=10, method="inclusive")


def wall_times(records: list[dict], setup: list[float], reference_ms: float) -> dict[str, float]:
    """The time metrics unscaled, for the summary."""
    tenths = deciles(records, "wall_ms")
    return {
        "analyses_per_s": rate(records, "wall_ms"),
        "latency_p50_ms": tenths[4],
        "latency_p90_ms": tenths[8],
        "setup_s": statistics.median(setup) if setup else None,
        "reference_ms_median": reference_ms,
    }


def end_to_end(records: list[dict], setup: list[float],
               reference_ms: float) -> dict[str, tuple[float, str]]:
    """``reference_ms`` is the median reference sample of the run."""
    tenths = deciles(records)
    ok = sum(1 for r in records if not r["violations"])
    # over distinct instances: an analysis gives the same verdict every
    # time, so the ratio must not depend on where the run's time ran out
    verdicts = {r["instance"]: r["verdict"] for r in records}
    decided = sum(1 for v in verdicts.values() if v not in (None, "UNDECIDED"))
    return {
        "analyses_per_s": (rate(records), "1/s"),
        "latency_p50_ms": (tenths[4], "ms"),
        "latency_p90_ms": (tenths[8], "ms"),
        "decided_ratio": (decided / len(verdicts), "ratio"),
        "ok_ratio": (ok / len(records), "ratio"),
        "setup_s": (speed.scaled(statistics.median(setup), reference_ms), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(records: list[dict], tracer: tracing.Tracer) -> tuple[dict, list[str]]:
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    scale = [speed.scaled(1.0, r["reference_ms"]) for r in records]
    metrics, absent = tracing.layer_metrics(tracer, len(traced), scale)
    metrics["trace.analyses_per_s"] = (rate(traced), "1/s")
    metrics["trace.untraced_analyses_per_s"] = (rate(untraced), "1/s")
    metrics["trace.overhead"] = (rate(untraced) / rate(traced) - 1.0, "ratio")
    return metrics, absent


def write_outputs(stem: str, summary: dict, records: list[dict], tracer) -> None:
    environment.OUT_DIR.mkdir(exist_ok=True)
    (environment.OUT_DIR / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
    with open(environment.OUT_DIR / f"{stem}-records.jsonl", "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    if tracer is not None:
        with open(environment.OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for span in tracer.spans.rows():
                fh.write(json.dumps(span) + "\n")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    env = environment.describe(args.seed)
    trace = bool(args.trace)
    setup = [] if trace else setup_seconds(args.workload, args.seed)
    pool = set_up(args.workload, args.seed)
    if trace:
        pool = pool[:instances.WORKLOADS[args.workload].traced]
    loop = Loop(args.workload, pool)
    records, tracer = measure(loop, args.seconds, trace)
    reference_ms = statistics.median(loop.reference.samples)

    absent: list[str] = []
    if trace:
        metrics, absent = per_layer(records, tracer)
    else:
        metrics = end_to_end(records, setup, reference_ms)
    failed = [r for r in records if r["violations"]]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "pool_size": len(loop.pool),
        "analyses": len(records),
        "passes_begun": len({r["pass"] for r in records}),
        "setup_samples_s": setup,
        "reference_ms": speed.REFERENCE_MS,
        "wall_times": wall_times(records, setup, reference_ms),
        "absent_functions": absent,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed": [{"instance": r["instance"], "pass": r["pass"], "violations": r["violations"]}
                   for r in failed],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_outputs(stem, summary, records, tracer)

    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}: {len(records)} analyses of {len(loop.pool)} instances "
          f"in {summary['passes_begun']} passes begun (the latency percentiles use all "
          f"{len(records)})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  unscaled wall times: {json.dumps(summary['wall_times'])}")
    for name in absent:
        print(f"  metric function {name} does not exist; its metrics read 0", file=sys.stderr)
    for r in failed[:20]:
        print(f"  FAILED {r['instance']} pass {r['pass']}: {'; '.join(r['violations'])}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
