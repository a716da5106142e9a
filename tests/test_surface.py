"""Every library name outside ``accsens.__all__`` has a caller in the library.

A public module-level function or class that is not exported, and any public
method or property, is library surface only if ``src/accsens`` or
``perfbench`` uses it: a name that only tests call is an oracle or a
convenience, and belongs in the tests.  The check walks the syntax trees of
both directories and collects every name a ``Name`` node, an ``Attribute``
node or an import refers to.  A definition passes when its name occurs there
outside its own body.

Matching is by name alone, so it is coarse: a name counts as used when any
other name of the same spelling occurs, as the variable ``n`` would hide a
property ``n``.  The check can miss dead names; every name it reports is
dead.
"""

import ast
import sys
from pathlib import Path

import accsens

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "accsens"
SCANNED = (SRC, ROOT / "perfbench")

#: Names kept without a library caller, each with its reason.
ALLOWED = {
    "classifier.region_accuracy_boundary_gradient": "dA/dy, which the frontier's KKT certificate needs",
    "DensityModel.from_custom": "the documented constructor of a custom family, named in from_dict's refusal",
}


def _trees():
    for directory in SCANNED:
        for path in sorted(directory.glob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _references() -> list[tuple[Path, int, str]]:
    """(file, line, name) of every name the scanned code refers to."""
    refs = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    for part in alias.name.split("."):
                        refs.append((path, node.lineno, part))
    return refs


def _definitions() -> list[tuple[str, Path, ast.AST]]:
    """(qualified name, file, node) of every public module-level function or
    class not in ``accsens.__all__``, and of every public method or property."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") and node.name not in accsens.__all__:
                found.append((f"{module}.{node.name}", path, node))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found.append((f"{node.name}.{item.name}", path, item))
    return found


def _unused() -> list[str]:
    refs = _references()
    unused = []
    for qualified, path, node in _definitions():
        name = qualified.rsplit(".", 1)[1]
        if not any(
            ref == name and not (where == path and node.lineno <= line <= node.end_lineno)
            for where, line, ref in refs
        ):
            unused.append(qualified)
    return unused


def test_every_library_name_has_a_library_caller():
    unused = [name for name in _unused() if name not in ALLOWED]
    assert not unused, f"names only tests use, to delete or move into the tests: {unused}"


def test_every_allowed_name_is_still_defined_and_unused():
    # an allow-list entry whose name gained a caller, or lost its definition,
    # is stale
    assert sorted(ALLOWED) == sorted(name for name in _unused() if name in ALLOWED)


def _imported(module: str) -> set[str]:
    """The dotted paths that module ``module`` of ``src/accsens`` imports,
    a relative import read as one from ``accsens``; ``from p import a`` gives
    ``p.a``, which may name a module."""
    paths = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            paths.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = ".".join(filter(None, ["accsens" if node.level else "", node.module]))
            paths.update(f"{package}.{alias.name}" for alias in node.names)
    return paths


def test_the_shared_numerics_import_no_library_module_and_the_design_not_the_frontier():
    # _roots sits below every solver that uses it, and the design solver
    # needs nothing of the frontier's
    roots = {path.split(".")[0] for path in _imported("_roots")}
    assert roots <= {"numpy", *sys.stdlib_module_names}, f"_roots imports {sorted(roots)}"
    frontier = sorted(p for p in _imported("param_designer") if (p + ".").startswith("accsens.tradeoff."))
    assert not frontier, f"param_designer imports {frontier}"
