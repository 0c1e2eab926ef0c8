"""The package's import graph: acyclic, with every import at the top, and a
CLI import that loads no heavy standard-library module; and its public
surface, which README documents name by name."""

import ast
import subprocess
import sys
from pathlib import Path

import cyclorient

PACKAGE = Path(__file__).parent.parent / "src" / "cyclorient"
README = PACKAGE.parent.parent / "README.md"


def package_modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def intra_package_imports(tree):
    """The sibling modules a module imports anywhere in its body, by a
    relative or an absolute import."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # "from .a import x" names module a; "from . import a, b" names a and b.
            names += [node.module] if node.module else [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cyclorient."):
            names.append(node.module.removeprefix("cyclorient."))
        elif isinstance(node, ast.Import):
            names += [
                alias.name.removeprefix("cyclorient.")
                for alias in node.names
                if alias.name.startswith("cyclorient.")
            ]
    return {name.split(".")[0] for name in names}


def test_intra_package_imports_form_a_dag():
    modules = package_modules()
    # Kahn's algorithm: repeatedly drop modules whose imports are all dropped.
    remaining = {
        name: intra_package_imports(tree) & modules.keys() for name, tree in modules.items()
    }
    while True:
        ready = [name for name, deps in remaining.items() if not deps & remaining.keys()]
        if not ready:
            break
        for name in ready:
            del remaining[name]
    assert remaining == {}, f"import cycle among {sorted(remaining)}"


def test_no_import_below_the_first_definition():
    for name, tree in package_modules().items():
        seen_definition = False
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                seen_definition = True
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                where = f"{name}.py line {node.lineno}"
                assert not seen_definition, f"{where} imports below a definition"


def test_cli_import_loads_no_heavy_stdlib_module():
    # -S skips site, so no .pth file can preload a module and hide a new import.
    heavy = ("dataclasses", "inspect", "typing", "multiprocessing", "concurrent.futures")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cyclorient.cli;"
        f" print(','.join(name for name in {heavy!r} if name in sys.modules))"
    )
    src = str(PACKAGE.parent)
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "", f"import cyclorient.cli loads {result.stdout.strip()}"


def test_public_names_are_sorted_bound_by_star_import_and_documented():
    names = cyclorient.__all__
    assert names == sorted(set(names))
    namespace = {}
    exec("from cyclorient import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == names
    readme = README.read_text()
    assert [name for name in names if f"`{name}`" not in readme] == []
