"""The closed formula and the Hochster oracle are two independent routes to
the same numbers; their agreement means something only while neither
imports the other.  The package also declares no runtime dependency, so
it may import only the standard library.  These tests read the import
statements of the source, and check in a fresh interpreter which modules
an import loads.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import kneserhom

PACKAGE_DIR = Path(kneserhom.__file__).resolve().parent


def package_imports(module: str) -> set[str]:
    """Modules of the package that module imports directly; "__init__"
    stands for the package itself, which holds only __version__."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if not node.level:
                if parts[0] != "kneserhom":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                out.add(parts[0])
            else:
                # "from . import x": x may be a module or a package attribute
                for alias in node.names:
                    sibling = PACKAGE_DIR / f"{alias.name}.py"
                    out.add(alias.name if sibling.exists() else "__init__")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "kneserhom":
                    out.add(parts[1] if len(parts) > 1 else "__init__")
    return out


def absolute_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports of one source file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


def reachable_imports(module: str) -> set[str]:
    seen, todo = set(), [module]
    while todo:
        for dep in package_imports(todo.pop()) - seen:
            seen.add(dep)
            if dep != "__init__":
                todo.append(dep)
    return seen


def test_import_reader_sees_relative_and_absolute_imports() -> None:
    assert {"bounds", "closed_form", "hochster", "__init__"} <= package_imports("cli")
    assert package_imports("hochster") >= {"combinatorics", "graphs", "config",
                                           "symmetry"}


def test_closed_form_imports_only_combinatorics() -> None:
    assert package_imports("closed_form") == {"combinatorics"}


def test_symmetry_imports_only_combinatorics() -> None:
    assert package_imports("symmetry") == {"combinatorics"}


def test_hochster_never_reaches_the_formula_route() -> None:
    reached = reachable_imports("hochster")
    assert not reached & {"closed_form", "bounds", "__init__"}, reached


def loaded_modules(statement: str) -> set[str]:
    """The kneserhom modules a fresh interpreter holds after statement."""
    code = (f"{statement}\nimport sys\n"
            "print(*(n for n in sys.modules if n.split('.')[0] == 'kneserhom'))")
    env = dict(os.environ)
    package_root = str(PACKAGE_DIR.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=env, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_package_import_loads_no_module() -> None:
    assert loaded_modules("import kneserhom") == {"kneserhom"}


def test_closed_form_loads_only_combinatorics_and_config() -> None:
    assert loaded_modules("import kneserhom.closed_form") == {
        "kneserhom", "kneserhom.closed_form", "kneserhom.combinatorics",
        "kneserhom.config"}


def test_hochster_loads_nothing_of_the_formula_route() -> None:
    loaded = loaded_modules("import kneserhom.hochster")
    assert "kneserhom.hochster" in loaded
    formula = {f"kneserhom.{name}" for name in ("closed_form", "bounds", "cli",
                                                 "export")}
    assert not loaded & formula, loaded


def test_morse_imports_only_config() -> None:
    # The slice engine sees adjacency rows and a rank function, not graphs,
    # fields or the Hochster sum.
    assert package_imports("morse") == {"config"}


def test_source_imports_only_the_standard_library() -> None:
    # pyproject.toml declares no runtime dependency; networkx and sympy are
    # test-only cross-checks and must stay out of the package.
    allowed = sys.stdlib_module_names | {"kneserhom"}
    outside = {(path.name, name) for path in sorted(PACKAGE_DIR.glob("*.py"))
               for name in absolute_imports(path) if name not in allowed}
    assert not outside, sorted(outside)


def test_only_cli_imports_json() -> None:
    # cli writes every output form; the math modules return values and
    # leave their serialization to it.
    importers = {path.stem for path in PACKAGE_DIR.glob("*.py")
                 if "json" in absolute_imports(path)}
    assert importers == {"cli"}
