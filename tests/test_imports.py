"""The package's import graph: acyclic, with every import at the top."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "cyclorient"


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
