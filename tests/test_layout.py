"""``src/`` holds what the program runs.

Every module-level function and class, and every method other than a
dunder, defined in ``src/bnrefine`` must be referenced from ``src/``,
``scripts/`` or ``bench/`` outside its own definition.  A reference is a
name, an attribute or an imported name in the source, or a function named
in ``bench/tracing.py``'s ``WRAPPED``.  Code that only tests call belongs
beside the tests (``tests/helpers.py``).

No module under ``src/``, ``scripts/`` or ``tests/`` imports a name it
never uses, save the re-exports of ``__init__.py`` and ``__future__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "bnrefine"

# a module name allows all of the module; "module.name" one definition
ALLOWED = {
    "fileio.save_spec": "the writer of the spec format beside `load_spec`, "
    "for programs that build a spec in Python",
}


def definitions() -> list[str]:
    """``module.name`` and ``module.Class.method`` of every checked definition."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{path.stem}.{node.name}.{sub.name}"
                    for sub in node.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (sub.name.startswith("__") and sub.name.endswith("__"))
                ]
    return found


class _References(ast.NodeVisitor):
    """The names a tree refers to, leaving out those inside a definition of
    the same name (a recursive call, a method reading its own property)."""

    def __init__(self, names: set[str]):
        self.names = names
        self.enclosing: list[str] = []

    def _definition(self, node) -> None:
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _add(self, name: str) -> None:
        if name not in self.enclosing:
            self.names.add(name)

    def visit_Name(self, node: ast.Name) -> None:
        self._add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._add(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node: ast.alias) -> None:
        self._add(node.name.rpartition(".")[2])


def references() -> set[str]:
    names: set[str] = set()
    for top in ("src", "scripts", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            _References(names).visit(ast.parse(path.read_text()))
    tracing = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tracing.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            names.update(function for _, function in ast.literal_eval(node.value))
    return names


def allowed(qualified: str) -> bool:
    return qualified in ALLOWED or qualified.partition(".")[0] in ALLOWED


def test_every_definition_in_src_is_referenced_outside_the_tests():
    used = references()
    unused = [
        qualified
        for qualified in definitions()
        if qualified.rpartition(".")[2] not in used and not allowed(qualified)
    ]
    assert not unused, (
        "defined in src/bnrefine but referenced only by tests or not at all "
        f"(move it beside the tests, or delete it): {unused}"
    )


def test_every_allowlist_entry_names_a_definition():
    defined = definitions()
    for entry in ALLOWED:
        assert any(d == entry or d.startswith(entry + ".") for d in defined), entry


def test_no_module_in_src_imports_from_the_tests():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            modules = (
                [a.name for a in node.names] if isinstance(node, ast.Import)
                else [node.module or ""] if isinstance(node, ast.ImportFrom)
                else []
            )
            for module in modules:
                assert module.partition(".")[0] not in ("tests", "helpers"), (path.name, module)


def unused_imports(tree: ast.Module) -> list[str]:
    """The names a module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for top in ("src", "scripts", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                names = unused_imports(ast.parse(path.read_text()))
                if names:
                    unused[str(path.relative_to(ROOT))] = names
    assert not unused, f"imported and never used: {unused}"
