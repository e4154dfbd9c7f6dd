"""The package holds only code that something other than the tests runs.

Every module-level ``def`` and ``class`` of ``src/statwintgen``, public or
private, must be referred to from ``src/``, ``tools/`` or ``perfbench/``
outside its own definition.  Checks that only tests run belong under
``tests/``, as in ``paper_checks.py`` and ``frame_oracle.py``, and a private
helper that a refactor leaves without a caller is deleted.  The ``cli.cmd_*``
handlers are exempt: ``cli._handler`` looks them up by name.

Importing the package stays cheap: its value records are ``typing.NamedTuple``
classes, which unlike a dataclass generate no code at import, and no code that
runs at import reads ``np.random``, so only a command that draws imports
``numpy.random``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "statwintgen"
CALLER_DIRS = ("src", "tools", "perfbench")


def _referenced_names(node: ast.AST) -> Counter:
    """How often each name is read, as a bare name or an attribute, inside ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)
    )


def _definitions_without_a_caller(private: bool) -> list[str]:
    """``module.name`` of each public (or private) module-level definition nothing outside tests refers to."""
    everywhere = Counter()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            everywhere += _referenced_names(ast.parse(path.read_text()))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_") != private:
                continue
            if path.stem == "cli" and node.name.startswith("cmd_"):
                continue
            if everywhere[node.name] - _referenced_names(node)[node.name] <= 0:
                unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_public_definition_has_a_non_test_caller():
    unused = _definitions_without_a_caller(private=False)
    assert not unused, f"defined in src/ but referred to only from tests/: {unused}"


def test_every_private_helper_has_a_non_test_caller():
    unused = _definitions_without_a_caller(private=True)
    assert not unused, f"private helpers in src/ that nothing outside tests/ refers to: {unused}"


def _import_time_nodes(tree: ast.Module):
    """The nodes of a module whose code runs when it is imported: all but function bodies and annotations
    (which ``from __future__ import annotations`` leaves unevaluated)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack += getattr(node, "decorator_list", []) + node.args.defaults + [d for d in node.args.kw_defaults if d]
            continue
        yield node
        stack += [child for name, value in ast.iter_fields(node) if name not in ("annotation", "returns")
                  for child in (value if isinstance(value, list) else [value]) if isinstance(child, ast.AST)]


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass"


def test_the_only_dataclass_is_the_instance():
    found = [f"{path.stem}.{node.name}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef) and any(map(_is_dataclass_decorator, node.decorator_list))]
    assert found == ["legendrian.LegendrianPointInstance"]


def _reads_numpy_random(node: ast.AST) -> bool:
    """``np.random`` (or ``numpy.random``) read as an attribute, or imported."""
    if isinstance(node, ast.Attribute):
        return node.attr == "random" and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.random") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("numpy.random") or (module == "numpy" and "random" in {a.name for a in node.names})
    return False


def test_no_import_time_code_reads_numpy_random():
    found = [f"{path.stem}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in _import_time_nodes(ast.parse(path.read_text())) if _reads_numpy_random(node)]
    assert not found, f"import-time code reads numpy.random at {found}"
