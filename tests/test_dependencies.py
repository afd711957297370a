import subprocess
import sys
from pathlib import Path

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
