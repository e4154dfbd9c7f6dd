"""The package holds only code that something other than the tests runs.

Every module-level ``def`` and ``class`` of ``src/statwintgen``, public or
private, must be referred to from ``src/``, ``tools/`` or ``perfbench/``
outside its own definition.  Checks that only tests run belong under
``tests/``, as in ``paper_checks.py`` and ``frame_oracle.py``, and a private
helper that a refactor leaves without a caller is deleted.  The ``cli.cmd_*``
handlers are exempt: ``cli._handler`` looks them up by name.
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
