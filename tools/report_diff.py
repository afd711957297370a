"""Compare the JSON reports of two source trees over the benchmark pools.

Usage::

    python3 tools/report_diff.py [--seeds 1 2 3] OLD_TREE NEW_TREE

Each tree is a checkout of this repository (for example the parent
commit unpacked with ``git archive`` next to the working tree).  For each
tree a fresh interpreter imports that tree's ``bench/instances.py``,
which puts the tree's own ``src`` first on the path, builds the pool of
every workload for each seed in ``--seeds`` (default: seed 1 only), and
runs ``analyze`` and then ``write_report(..., "json")`` on each instance.
The two trees run side by side.

The trees also analyse one fixed family outside the pools, printed on a
line of its own as ``rank3_large_n``: ``random_dn`` of rank 3 in every
style at orders 100, 200 and 400, seeds 0-4, at the default config.  No
pool holds a ``GRAM_NONNEG`` or ``ROTATED_NONNEG`` matrix of rank 3 above
order 32, and the extreme-ray step costs the most at large orders.  A
second fixed family, printed as ``rank4_8_general``, is ``random_dn`` of
ranks 4-8 in every style at orders ``r + 1``, ``2r``, ``4r`` and 60,
seeds 0-2, with the heuristic on: general cones (more columns than the
rank) above the orders the pools hold at those ranks.  A third, printed
as ``rank3_4_heuristic``, is ``random_dn`` of ranks 3 and 4 in every
style at orders ``r + 2``, ``2r``, ``4r`` and 20, seeds 0-2, with the
heuristic on: the cones of more than four rays that no guaranteed step
covers.  A fourth, printed as ``near_parallel``, widens the rank factor
``B`` of ``random_dn`` of ranks 4-6 in every style at orders ``r + 1``,
``2r`` and ``4r``, seeds 0-2, by two copies of one column ``b_j`` turned
by ``+-angle`` about it (angles 1.5e-6 to 1e-4 rad), and analyses the
Gram matrix of the result at the default config: ``b_j`` is the
midpoint of the copies, so it is no extreme ray, and an NNLS stop short
of the optimum lists it as one.

Per workload and seed the tool prints the number of instances and how many
reports differ in meaning, split in two counts: in their decision (order,
rank, DN status, verdict, cp-rank bounds and certificate rows) and in
their steps (each step's name, outcome, ``m`` and ``extreme_indices``).
It also prints how many reports differ in their bytes at all; each
tree's largest ``certificate.residual`` over the reports that carry one,
with how many do (the value a change to a certificate's construction
moves); how many reports differ in each field, named by its path
(``few_rays_factor.min_entry`` for a step's detail,
``certificate.entries``, ``verdict``); how many steps moved from each
outcome to each other one, as ``step: old -> new`` with row counts read
as ``rows=k`` (``few_rays_factor: CERTIFICATE(rows=k) -> SKIPPED``), so a
change to the step records shows what kind of change it is; and the
first few instances that differ.  It exits with status 1 when any report differs in meaning.  It
reads ``bench/`` and writes nothing there.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

# differing instance ids listed per workload
SHOWN = 3

# the fixed large-order rank-3 family: orders and seeds of random_dn
LARGE_RANK3_ORDERS = (100, 200, 400)
LARGE_RANK3_SEEDS = (0, 1, 2, 3, 4)
# the fixed rank 4-8 family: ranks, seeds, and the largest order
GENERAL_RANKS = range(4, 9)
GENERAL_SEEDS = (0, 1, 2)
GENERAL_MAX_ORDER = 60
# the fixed rank 3-4 heuristic family: ranks, seeds, and the largest order
HEURISTIC_RANKS = (3, 4)
HEURISTIC_SEEDS = (0, 1, 2)
HEURISTIC_MAX_ORDER = 20
# the fixed near-parallel family: ranks, seeds, and turning angles (rad)
NEAR_PARALLEL_RANKS = (4, 5, 6)
NEAR_PARALLEL_SEEDS = (0, 1, 2)
NEAR_PARALLEL_ANGLES = (1.5e-6, 3e-6, 1e-5, 1e-4)

CHILD = """\
import json, math, sys
sys.path.insert(0, {bench!r})
import instances
import numpy as np
import cprank
from cprank.fixtures import RANDOM_STYLES, random_dn


def write(out, label, iid, matrix, config=cprank.AnalysisConfig()):
    report = cprank.write_report(cprank.analyze(matrix, config), "json")
    out.write(json.dumps([label, iid, report.decode()]) + "\\n")


with open({out!r}, "w") as out:
    for seed in {seeds!r}:
        for name in instances.WORKLOADS:
            for inst in instances.build(name, seed):
                write(out, f"{{name}} seed {{seed}}", inst.id, inst.matrix, inst.config)
    for style in RANDOM_STYLES:
        for n in {orders!r}:
            for seed in {large_seeds!r}:
                write(out, "rank3_large_n", f"{{style}}-n{{n}}-s{{seed}}", random_dn(n, 3, seed, style))
    for style in RANDOM_STYLES:
        for r in {ranks!r}:
            for n in (r + 1, 2 * r, 4 * r, {max_order!r}):
                for seed in {general_seeds!r}:
                    write(out, "rank4_8_general", f"{{style}}-n{{n}}-r{{r}}-s{{seed}}",
                          random_dn(n, r, seed, style), cprank.AnalysisConfig(heuristic=True))
    for style in RANDOM_STYLES:
        for r in {heuristic_ranks!r}:
            for n in (r + 2, 2 * r, 4 * r, {heuristic_max_order!r}):
                for seed in {heuristic_seeds!r}:
                    write(out, "rank3_4_heuristic", f"{{style}}-n{{n}}-r{{r}}-s{{seed}}",
                          random_dn(n, r, seed, style), cprank.AnalysisConfig(heuristic=True))
    for style in RANDOM_STYLES:
        for r in {near_ranks!r}:
            for n in (r + 1, 2 * r, 4 * r):
                for seed in {near_seeds!r}:
                    B = cprank.sr_factor(random_dn(n, r, seed, style))
                    rng = np.random.default_rng(seed)
                    b = B[:, int(rng.integers(n))]
                    w = rng.standard_normal(r)
                    w -= (w @ b) / (b @ b) * b
                    w *= np.linalg.norm(b) / np.linalg.norm(w)
                    for angle in {near_angles!r}:
                        F = np.column_stack([B, math.cos(angle) * b + math.sin(angle) * w,
                                             math.cos(angle) * b - math.sin(angle) * w])
                        write(out, "near_parallel", f"{{style}}-n{{n}}-r{{r}}-s{{seed}}-a{{angle:g}}", F.T @ F)
"""


def decision(report: str) -> tuple:
    """The parts of a report that state what was decided."""
    doc = json.loads(report)
    cert = doc.get("certificate")
    return (
        doc.get("order"), doc.get("rank"), doc.get("dn"), doc.get("verdict"),
        doc.get("cp_rank_lower"), doc.get("cp_rank_upper"),
        cert["rows"] if cert else None,
    )


def steps(report: str) -> tuple:
    """The parts of a report that say how each step ended."""
    return tuple(
        (s["name"], s["outcome"], s["details"].get("m"), tuple(s["details"].get("extreme_indices") or ()))
        for s in json.loads(report).get("steps", ())
    )


def fields(report: str) -> dict[str, object]:
    """Every field of a report by its path: a top-level key, a certificate
    key as ``certificate.<key>``, and a step's outcome and details as
    ``<step>.outcome`` and ``<step>.<key>``.  Numbers keep their text, so
    ``-0`` differs from ``0``."""
    out: dict[str, object] = {}
    for key, value in json.loads(report, parse_int=str, parse_float=str).items():
        if key == "steps":
            for step in value:
                out[f"{step['name']}.outcome"] = step["outcome"]
                out.update((f"{step['name']}.{k}", v) for k, v in step["details"].items())
        elif key == "certificate" and value is not None:
            out.update((f"certificate.{k}", v) for k, v in value.items())
        else:
            out[key] = value
    return out


def changed_fields(old: str, new: str) -> list[str]:
    """Paths of the fields that differ between two reports, or that only
    one of them has."""
    a, b = fields(old), fields(new)
    absent = object()
    return [path for path in dict.fromkeys([*a, *b]) if a.get(path, absent) != b.get(path, absent)]


def outcome_changes(old: str, new: str) -> list[str]:
    """``step: old outcome -> new outcome`` for each step whose outcome
    differs between two reports, row counts read as ``rows=k``; a step
    that only one report has reads ``absent`` in the other."""
    a, b = ({s["name"]: s["outcome"] for s in json.loads(r)["steps"]} for r in (old, new))

    def kind(outcomes: dict, name: str) -> str:
        return re.sub(r"rows=\d+", "rows=k", outcomes.get(name, "absent"))

    return [f"{name}: {kind(a, name)} -> {kind(b, name)}"
            for name in dict.fromkeys([*a, *b]) if a.get(name) != b.get(name)]


def certificate_residual(report: str) -> float | None:
    """The ``certificate.residual`` of a report, or None when it carries
    no certificate."""
    cert = json.loads(report).get("certificate")
    return None if cert is None else float(cert["residual"])


def residual_summary(reports: list[str]) -> str:
    """The largest certificate residual of the reports that carry a
    certificate, and how many of the reports do."""
    values = [v for v in map(certificate_residual, reports) if v is not None]
    top = f"{max(values):.2e}" if values else "none"
    return f"{top} ({len(values)} of {len(reports)} reports)"


def run_tree(tree: Path, out: Path, seeds: list[int]) -> subprocess.Popen:
    bench = tree / "bench"
    if not (bench / "instances.py").is_file():
        raise SystemExit(f"report_diff: no bench/instances.py under {tree}")
    code = CHILD.format(bench=str(bench), out=str(out), seeds=seeds, orders=LARGE_RANK3_ORDERS,
                        large_seeds=LARGE_RANK3_SEEDS, ranks=tuple(GENERAL_RANKS),
                        general_seeds=GENERAL_SEEDS, max_order=GENERAL_MAX_ORDER,
                        heuristic_ranks=HEURISTIC_RANKS, heuristic_seeds=HEURISTIC_SEEDS,
                        heuristic_max_order=HEURISTIC_MAX_ORDER, near_ranks=NEAR_PARALLEL_RANKS,
                        near_seeds=NEAR_PARALLEL_SEEDS, near_angles=NEAR_PARALLEL_ANGLES)
    return subprocess.Popen([sys.executable, "-c", code])


def load(path: Path) -> dict[tuple[str, str], str]:
    with open(path) as f:
        return {(name, iid): report for name, iid, report in map(json.loads, f)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1],
                        help="pool seeds to analyse (default: 1)")
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--seeds" in argv and "--" not in argv:
        # the trees may follow the seeds: end the list after its last integer
        k = argv.index("--seeds") + 1
        while k < len(argv) and argv[k].isdigit():
            k += 1
        if k < len(argv):
            argv.insert(k, "--")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "old.jsonl", Path(tmp) / "new.jsonl"]
        procs = [run_tree(tree.resolve(), out, args.seeds)
                 for tree, out in zip((args.old, args.new), outs)]
        if any([p.wait() for p in procs]):
            raise SystemExit("report_diff: a tree failed to analyse its pools")
        old, new = load(outs[0]), load(outs[1])

    if old.keys() != new.keys():
        raise SystemExit("report_diff: the trees built different pools")
    semantic_total = 0
    for name in dict.fromkeys(key[0] for key in old):
        keys = [key for key in old if key[0] == name]
        decided = [key[1] for key in keys if decision(old[key]) != decision(new[key])]
        stepped = [key[1] for key in keys if steps(old[key]) != steps(new[key])]
        byte = [key[1] for key in keys if old[key] != new[key]]
        trees = [[tree[key] for key in keys] for tree in (old, new)]
        residual = " -> ".join(residual_summary(t) for t in trees)
        semantic_total += len(decided) + len(stepped)
        print(
            f"{name}: {len(keys)} instances, {len(decided)} decision differences, "
            f"{len(stepped)} step differences, {len(byte)} byte differences, "
            f"max certificate residual {residual}"
        )
        per_field = Counter(path for key in keys for path in changed_fields(old[key], new[key]))
        if per_field:
            print("  fields:", ", ".join(f"{path} {count}" for path, count in per_field.most_common()))
        moved = Counter(change for key in keys for change in outcome_changes(old[key], new[key]))
        if moved:
            print("  outcomes:", ", ".join(f"{change} {count}" for change, count in moved.most_common()))
        for label, ids in (("decision", decided), ("steps", stepped), ("bytes", byte)):
            if ids:
                print(f"  {label}:", ", ".join(ids[:SHOWN]))
    return 1 if semantic_total else 0


if __name__ == "__main__":
    sys.exit(main())
