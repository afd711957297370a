"""Replay the Lawson-Hanson kernel calls of the benchmark pools on two
source trees and compare their outputs bit for bit.

Usage::

    python3 tools/nnls_replay.py [--seeds 1 2 3] OLD_TREE NEW_TREE

Each tree is a checkout of this repository (for example the parent
commit unpacked with ``git archive`` next to the working tree).  The tool
imports ``OLD_TREE``'s ``bench/instances.py``, which pins BLAS to one
thread and puts that tree's ``src`` first on the path, and records every
``cones._batched_nnls`` call that ``analyze`` makes on the pool of every
workload for each seed in ``--seeds`` (default: seed 1 only): the
extremality batches of the cone analysis, and the least-distance solves
of the rotation search's polish, since ``rotate`` calls the kernel
through that module attribute.  ``analyze`` makes no fit calls: only
``cones.fit_rays``, which the ``rays`` command calls, fits the
coefficients of the columns off the rays.  It then
loads ``NEW_TREE``'s ``cprank`` into the same interpreter under a second
package name and replays each recorded call on both kernels, ``PASSES``
times over, alternating which kernel goes first from call to call so that
drift in machine speed falls on both alike.  Each kernel gets its own
copy of the arguments, made outside the timed region.

Both trees must have the cold-start kernel ``_batched_nnls(K, C,
allowed)``.  A tree whose kernel still takes the seed argument
``passive`` (every tree before the seeded start was removed) cannot be
replayed against it, and the tool exits with a message saying so.

Per workload the tool prints the number of calls, how many calls return
an output that differs from the other tree's in any bit (shape, sign of
zero and every mantissa bit count), and the mean process CPU time per
call of each tree in microseconds.  It exits with status 1 when any call
differs.  It reads ``bench/`` and writes nothing there.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import sys
import time
from pathlib import Path

# replays of the whole recording per kernel: more passes, steadier means
PASSES = 3
SECOND = "cprank_replayed"


def load_package(tree: Path):
    """``tree``'s ``cprank`` imported as the package ``SECOND``."""
    init = tree / "src" / "cprank" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"nnls_replay: no cprank package under {tree / 'src'}")
    spec = importlib.util.spec_from_file_location(
        SECOND, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[SECOND] = module
    spec.loader.exec_module(module)
    return module


def check_kernel(kernel, tree: Path) -> None:
    """Exit unless ``kernel`` takes exactly ``(K, C, allowed)``."""
    params = list(inspect.signature(kernel).parameters)
    if params != ["K", "C", "allowed"]:
        raise SystemExit(
            f"nnls_replay: the kernel under {tree} takes ({', '.join(params)}), "
            "not the cold-start (K, C, allowed); it cannot be replayed"
        )


def record(cprank, instances, seeds: list[int]) -> dict[str, list[tuple]]:
    """Every kernel call ``analyze`` makes, by workload, as copies of its
    arguments."""
    cones = cprank.cones
    kernel = cones._batched_nnls
    calls: list[tuple] = []

    def recorded(K, C, allowed):
        calls.append((K.copy(), C.copy(), allowed.copy()))
        return kernel(K, C, allowed)

    out: dict[str, list[tuple]] = {}
    cones._batched_nnls = recorded
    try:
        for name in instances.WORKLOADS:
            for seed in seeds:
                for inst in instances.build(name, seed):
                    cprank.analyze(inst.matrix, inst.config)
            out[name], calls[:] = list(calls), []
    finally:
        cones._batched_nnls = kernel
    return out


def replay(kernels, calls: list[tuple]) -> tuple[int, list[float]]:
    """Calls whose outputs differ in any bit, and the mean process CPU
    microseconds per call of each kernel."""
    spent = [0] * len(kernels)
    differ = 0
    for rnd in range(PASSES):
        for i, args in enumerate(calls):
            order = range(len(kernels)) if (i + rnd) % 2 == 0 else range(len(kernels) - 1, -1, -1)
            outs = [None] * len(kernels)
            for t in order:
                copies = tuple(a.copy() for a in args)
                t0 = time.process_time_ns()
                outs[t] = kernels[t](*copies)
                spent[t] += time.process_time_ns() - t0
            if rnd == 0:
                first = outs[0]
                differ += any(
                    out.shape != first.shape or out.dtype != first.dtype
                    or out.tobytes() != first.tobytes()
                    for out in outs[1:]
                )
    count = max(len(calls) * PASSES, 1)
    return differ, [ns / count / 1e3 for ns in spent]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1],
                        help="pool seeds to record (default: 1)")
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--seeds" in argv and "--" not in argv:
        # the trees may follow the seeds: end the list after its last integer
        k = argv.index("--seeds") + 1
        while k < len(argv) and argv[k].isdigit():
            k += 1
        if k < len(argv):
            argv.insert(k, "--")
    args = parser.parse_args(argv)
    old, new = args.old.resolve(), args.new.resolve()

    bench = old / "bench"
    if not (bench / "instances.py").is_file():
        raise SystemExit(f"nnls_replay: no bench/instances.py under {old}")
    sys.path.insert(0, str(bench))
    import instances  # noqa: E402  (pins BLAS, then imports the old tree's cprank)

    import cprank  # noqa: E402

    kernels = (cprank.cones._batched_nnls, load_package(new).cones._batched_nnls)
    for kernel, tree in zip(kernels, (old, new)):
        check_kernel(kernel, tree)
    recorded = record(cprank, instances, args.seeds)

    total = 0
    for name, calls in recorded.items():
        differ, us = replay(kernels, calls)
        total += differ
        ratio = us[0] / us[1] if us[1] else float("nan")
        print(
            f"{name}: {len(calls)} calls, {differ} differ in some bit, "
            f"{us[0]:.1f} -> {us[1]:.1f} us per call (x{ratio:.3f})"
        )
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
