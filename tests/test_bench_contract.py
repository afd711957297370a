"""The benchmark's own output check, run on a sample of its pools.

The sample runs in a fresh interpreter, so that ``bench/environment.py``
pins BLAS to one thread before numpy loads, as in a benchmark run.  It
reads ``bench/`` and changes nothing there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# every 25th instance of each workload's seed-1 pool, and the bundled
# examples with that workload's config, each analysed as the bench does
SAMPLE = """\
import json
import sys
sys.path.insert(0, {bench!r})
import check
import instances
import cprank

found = {{}}
analyses = 0
for name, workload in instances.WORKLOADS.items():
    config = cprank.AnalysisConfig(heuristic=workload.heuristic)
    sample = instances.build(name, 1)[::25] + instances.fixture_instances(config)
    for inst in sample:
        report = cprank.analyze(inst.matrix, inst.config)
        violations = check.violations(inst, report, cprank.write_report(report, "json"))
        if violations:
            found[f"{{name}}/{{inst.id}}"] = violations
        analyses += 1
print(json.dumps({{"analyses": analyses, "violations": found}}))
"""


def test_sampled_bench_analyses_pass_the_bench_check():
    done = subprocess.run([sys.executable, "-c", SAMPLE.format(bench=str(BENCH))],
                          capture_output=True, text=True, timeout=600,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["analyses"] == 212
    assert result["violations"] == {}
