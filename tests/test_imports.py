"""The package's import graph: acyclic and layered, with every import at
the top but the loads of the suites, and a CLI or per-map import that loads
neither a heavy standard-library module nor the suites; its public
surface, which README documents name by name; README's refusal messages
and code pointers, which must match the code; and CI's checks past
tier-1's sizes, which call tier-1's own check functions."""

import ast
import hashlib
import importlib
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import cyclorient
from cyclorient import cli, membership, verification

PACKAGE = Path(__file__).parent.parent / "src" / "cyclorient"
README = PACKAGE.parent.parent / "README.md"
CI = PACKAGE.parent.parent / ".github" / "workflows" / "ci.yml"


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


# The documented layer order: each module imports only modules before it.
LAYERS = (
    "sequences", "mappings", "membership", "chords", "witnesses", "claims", "patterns",
    "verification", "cli",
)


def test_imports_follow_the_documented_layer_order():
    modules = package_modules()
    assert set(LAYERS) == modules.keys() - {"__init__"}
    for position, name in enumerate(LAYERS):
        later = intra_package_imports(modules[name]) - set(LAYERS[:position])
        assert later == set(), f"{name} imports {sorted(later)}"
    readme = " ".join(README.read_text().split())
    assert "in the order " + ", ".join(f"`{name}`" for name in LAYERS) + "," in readme


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


def test_only_the_suites_are_imported_inside_a_function():
    # verification is the one module loaded on first use: by the package's
    # __getattr__ and by the verify and count verbs.  Every other sibling
    # import sits at its module's top.
    found = set()
    for module, tree in package_modules().items():
        owner = {}  # import node -> innermost enclosing function
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    owner[inner] = node.name
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body:
                found |= {(module, owner.get(node), name) for name in intra_package_imports(node)}
    assert found == {
        ("__init__", "__getattr__", "verification"),
        ("cli", "_cmd_verify", "verification"),
        ("cli", "_cmd_count", "verification"),
    }


def test_cli_and_per_map_calls_leave_the_suites_unloaded():
    code = textwrap.dedent("""
        import sys
        sys.path.insert(0, sys.argv[1])
        import cyclorient.cli
        assert "cyclorient.verification" not in sys.modules, "cli"
        assert "cyclorient.patterns" not in sys.modules, "cli"
        import cyclorient
        cyclorient.cross_check(cyclorient.Mapping(4, (0, 1, 3, 2)))
        assert "cyclorient.verification" not in sys.modules, "cross_check"
        assert "cyclorient.patterns" not in sys.modules, "cross_check"
        suite = cyclorient.equivalence_suite
        assert suite is sys.modules["cyclorient.verification"].equivalence_suite
        assert set(cyclorient.__all__) <= set(dir(cyclorient))
        assert not hasattr(cyclorient, "no_such_name")  # AttributeError, nothing else
    """)
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_only_the_machine_format_loads_hashlib():
    # Loading OpenSSL adds about 3.6 MB to a process's peak RSS, so the
    # suites never import hashlib; format_machine does, to digest each gaps
    # line's patterns.
    code = textwrap.dedent("""
        import sys
        sys.path.insert(0, sys.argv[1])
        import cyclorient
        reports = cyclorient.run_verify(4)
        assert reports[3].sanctioned_exceptions, "no gap row at n = 4"
        assert "hashlib" not in sys.modules, "suites"
        cyclorient.format_text(reports[3])
        assert "hashlib" not in sys.modules, "format_text"
        cyclorient.format_machine(reports)
        assert "hashlib" in sys.modules, "format_machine"
    """)
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_public_names_are_sorted_bound_by_star_import_and_documented():
    names = cyclorient.__all__
    assert names == sorted(set(names))
    namespace = {}
    exec("from cyclorient import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == names
    readme = README.read_text()
    assert [name for name in names if f"`{name}`" not in readme] == []


def test_readme_quotes_every_size_refusal(capsys):
    # Each bound is passed by one; README must quote its refusal word for
    # word, so a bound that moves fails here until README moves with it.
    refused = []
    for call in (
        lambda: verification.run_verify(verification.EQUIVALENCE_MAX_N + 1),
        lambda: verification.count_classes(verification.COUNT_MAX_N + 1),
        lambda: verification.lemma_suite(1, max_len=verification.LEMMA_MAX_LEN + 1),
        # The scans refuse the length before any side table is built.
        lambda: membership.quad_test(cyclorient.identity(membership.SIDES_MAX_N + 1)),
    ):
        try:
            call()
        except ValueError as exc:
            refused.append(str(exc))
    for argv in (
        ["classify", "--map", ",".join(["0"] * (cli.CLASSIFY_MAX_N + 1))],
        ["chords", "--n", str(cli.ASCII_MAX_N + 1), "--pair", "0-2:1-3", "--ascii"],
    ):
        assert cli.main(argv) == cli.EXIT_BAD_INPUT, argv
        refused.append(capsys.readouterr().err.removeprefix("error: "))
    assert len(refused) == 6
    readme = " ".join(README.read_text().split())
    assert [text for text in refused if " ".join(text.split()) not in readme] == []


def test_readme_code_pointers_resolve():
    # README points to the docstring that derives each mechanism, so a
    # rename must fail here rather than leave README pointing nowhere.
    readme = README.read_text()
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", readme, flags=re.S))
    modules = {name: f"cyclorient.{name}" for name in package_modules() if name != "__init__"}
    modules["oracles"] = "oracles"
    pointer = re.compile(rf"(?:cyclorient\.)?({'|'.join(modules)})\.(\w+)")
    found = {match.groups() for span in spans if (match := pointer.match(span))}
    assert found, "README names no module attribute"
    missing = [
        f"{module}.{name}"
        for module, name in sorted(found)
        if not hasattr(importlib.import_module(modules[module]), name)
    ]
    tests = set(re.findall(r"tests/(\w+)\.py::(\w+)", readme))
    assert tests, "README names no test or oracle"
    for module, name in sorted(tests):
        tree = ast.parse((Path(__file__).parent / f"{module}.py").read_text())
        defined = {node.name for node in tree.body if hasattr(node, "name")}
        if name not in defined:
            missing.append(f"tests/{module}.py::{name}")
    assert missing == []
    # The gaps line's digest is that of its patterns, one per line.
    printf = re.search(r"`printf '([^']*)' \| sha256sum` gives the digest above", readme)
    lines = printf.group(1).replace("\\n", "\n")
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert f"patterns=2 least=0,1,0,1 sha256={digest}" in readme


def test_one_orientation_kernel_and_one_membership_report_builder():
    # Circular steps are read only by sequences._tag, and the definitional
    # report is built only by membership.classify: every other module reads
    # tags and calls classify.
    offences = []
    for name, tree in package_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported = {alias.name for alias in node.names}
                if "_steps" in imported:
                    offences.append(f"{name} imports _steps")
                if "_TAGS" in imported and name != "sequences":
                    offences.append(f"{name} imports _TAGS")
            elif isinstance(node, ast.Call) and name != "membership":
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == "MembershipReport":
                    offences.append(f"{name} line {node.lineno} builds a MembershipReport")
    assert offences == []


def test_the_orientation_kernel_is_read_at_six_sites():
    # The witness constructions build from steps but call no kernel, so the
    # validator's check of every witness is not the construction's own.
    found = set()
    for module, tree in package_modules().items():
        owner = {}  # node -> innermost enclosing function
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    owner[inner] = node.name
        for node in ast.walk(tree):
            named = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if named == "_tag":
                found.add((module, owner.get(node)))
    assert found == {
        ("sequences", "orientation"),
        ("membership", "classify"),
        ("chords", "chords_intersect"),
        ("claims", "_claims"),
        ("witnesses", "_validate"),
        ("verification", "lemma_suite"),
    }


def test_ci_checks_past_tier1_sizes_are_tier1_check_functions():
    # CI reaches past tier-1's sizes only through check functions that a
    # tier-1 test calls too, so a rename that breaks one fails tier-1 first.
    ci = CI.read_text()
    assert "<<" not in ci, "ci.yml holds a heredoc"
    modules = "|".join(["cyclorient", *package_modules()])
    private = re.findall(rf"\b(?:{modules})\._\w+|\bimport\s+(?:\w+\s*,\s*)*_\w+", ci)
    assert private == [], f"ci.yml names private attributes {private}"
    imported = re.findall(r"from (test_\w+) import (check_\w+)", ci)
    assert imported, "ci.yml calls no check function"
    for module, check in imported:
        tree = ast.parse((Path(__file__).parent / f"{module}.py").read_text())
        defined = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert check in defined, f"{module} defines no {check}"
        callers = [
            name
            for name, node in defined.items()
            if name.startswith("test_")
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == check
        ]
        assert callers, f"no test in {module} calls {check}"
