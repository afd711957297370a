import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cprank

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows
    # every module that importing the package pulls in
    code = (
        "import sys; import cprank; print(cprank.__file__); "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=SRC, capture_output=True, text=True, check=True,
    )
    location, loaded = out.stdout.splitlines()
    assert Path(location).resolve().parent == SRC / "cprank"
    assert loaded == "[]"


@pytest.mark.parametrize(
    "module", sorted(f"cprank.{m.name}" for m in pkgutil.iter_modules(cprank.__path__))
)
def test_every_listed_name_resolves(module):
    # a stale __all__ entry breaks ``from cprank.<module> import *``
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
