"""Process set-up shared by every benchmark entry point.

Importing this module pins BLAS to one thread and imports cprank from
the checkout's ``src`` directory, or exits when it is not there.  It must
be imported before anything imports numpy, because BLAS reads its thread
count once, when numpy loads it.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

if not (SRC / "cprank" / "__init__.py").is_file():
    raise SystemExit(f"bench: no cprank package under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import cprank  # noqa: E402  (after the BLAS pin)

if Path(cprank.__file__).resolve().parent != SRC / "cprank":
    raise SystemExit(f"bench: cprank was imported from {cprank.__file__}, not from {SRC}")


def describe(seed: int) -> dict:
    """Versions and settings that a result depends on."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
    }
