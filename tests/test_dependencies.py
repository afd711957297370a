import ast
import importlib
import pkgutil
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
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


MODULES = {path.stem: ast.parse(path.read_text()) for path in (SRC / "cprank").glob("*.py")}
DEMOS = [ast.parse(path.read_text()) for path in (SRC.parent / "demos").glob("*.py")]


def referenced_names(tree, skip=None):
    """Names that ``tree`` reads, imports or calls, outside the node
    ``skip``."""
    inside = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_listed_function_has_a_library_caller():
    # a function in a module's __all__ is read by package code outside
    # its own body (the re-exports of __init__ aside), by a demo, or is
    # the console entry point; a helper that only tests call does not
    # belong in the library
    demo_names = set().union(*(referenced_names(tree) for tree in DEMOS))
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__":
            continue
        mod = importlib.import_module(f"cprank.{name}")
        defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        for fn in getattr(mod, "__all__", ()):
            # pyproject's ``cprank = "cprank.cli:main"`` calls the entry point
            if fn not in defs or (name, fn) == ("cli", "main") or fn in demo_names:
                continue
            if not any(
                fn in referenced_names(other, defs[fn] if other is tree else None)
                for key, other in MODULES.items() if key != "__init__"
            ):
                unused.append(f"{name}.{fn}")
    assert unused == []


def test_pipeline_has_one_rotation_path():
    # every rotation certificate of the cascade goes through rotate's one
    # routine over the extreme columns; a second search over the whole
    # factor, with its own floor and certificate, would read these names
    assert referenced_names(MODULES["pipeline"]) & {
        "orthant_rotation_search", "sr_factor", "make_certificate"
    } == set()


def package_imports(node):
    """Package modules that an ``import`` statement names."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("cprank.")]
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level == 0:  # the package is flat, so any level > 0 is relative to it
            if module != "cprank" and not module.startswith("cprank."):
                return []
            module = module.partition(".")[2]
        if module:
            return [module.split(".")[0]]
        # ``from . import name`` names a module or the package itself
        return [a.name if a.name in MODULES else "__init__" for a in node.names]
    return []


def function_bodies(tree):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_module_imports_are_acyclic():
    # every import outside a function body counts, a TYPE_CHECKING block
    # included: a cycle held together only by deferred imports is still a
    # cycle
    graph = {}
    for name, tree in MODULES.items():
        inside = {id(n) for f in function_bodies(tree) for n in ast.walk(f)}
        graph[name] = {
            target for node in ast.walk(tree) if id(node) not in inside
            for target in package_imports(node) if target != name
        }
    assert set().union(*graph.values()) <= set(MODULES)
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        pytest.fail(f"import cycle among cprank modules: {exc.args[1]}")
    # the kernel module stays below its callers: rotate reaches it, not the
    # other way round
    assert not {"nnq", "rotate", "graphcond"} & graph["cones"]


def test_rotate_reaches_the_kernel_through_the_module():
    # a patch of cones._batched_nnls then sees the polish's calls too
    tree = MODULES["rotate"]
    from_cones = [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "cones"
    ]
    assert from_cones == []
    reads = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "cones"
    }
    assert "_batched_nnls" in reads


def test_no_function_imports_a_package_module():
    found = [
        f"{name}.{fn.name}: {ast.unparse(node)}"
        for name, tree in MODULES.items()
        for fn in function_bodies(tree)
        for node in ast.walk(fn)
        if package_imports(node)
    ]
    assert found == []
