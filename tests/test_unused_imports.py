"""No module imports a name it does not use.

An unused import is a dependency nobody needs: it costs start-up time,
hides which module really uses what, and survives every refactor that
removed its last use.  This test parses each file of ``src/timeguard``,
``scripts/`` and ``tests/`` and requires every name an ``import`` binds
to be read somewhere in that file, as an identifier or as a string
constant that is exactly that name or a dotted path starting with it
(a string annotation or an ``__all__`` entry).  ``__future__`` imports
are directives, not names, and are exempt.
"""

import ast
from pathlib import Path

from test_runtime_callers import _DOTTED, ROOT

CHECKED_FILES = sorted(
    [*(ROOT / "src" / "timeguard").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
     *(ROOT / "tests").glob("*.py")]
)


def _unused(path: Path) -> list:
    """`file:line name` for each imported name that `path` never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                read.add(node.value.split(".")[0])
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    unused = [entry for path in CHECKED_FILES for entry in _unused(path)]
    assert not unused, f"imported but never used: {unused}"
