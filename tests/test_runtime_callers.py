"""Every public name in timeguard has a caller outside the tests.

A function, class or method that only its own tests reach is dead weight:
it has to be read, kept in step and tested, and nothing the monitor does
depends on it.  This test parses ``src/timeguard/*.py`` and requires each
public top-level ``def`` and ``class``, and each public method or property
of those classes, to be named somewhere in the package, in ``scripts/`` or
in ``perfbench/`` outside its own definition.  A function or class counts
as named when it appears as an identifier, an attribute, an imported name,
or a string constant that is exactly that name or a dotted path ending in
it (the benchmark looks its spans up by string).  A method or property
counts only when it is accessed as an attribute (``obj.name``) or named in
such a string: a local variable or an import of the same name is not a
call.  Two blind spots remain.  The receiver's type is unknown to the
syntax tree, so a method shares its callers with every same-named method
of another class; and dunder methods, which the interpreter calls, are
not checked at all.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "timeguard"
CALLER_FILES = sorted(
    [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
)

# Public names that stay without a runtime caller, each for a reason.
KEEP = {
    # readers that pin the format of each runtime writer
    "bench_from_json",
    "report_from_json",
    "transition_from_json",
    # the event log: its JSON pair, for an events.jsonl replay artifact, and
    # replay(), which acceptance criterion 7 runs a recorded log through
    "event_to_json",
    "event_from_json",
    "replay",
    # the socket side of the in-process test servers, kept for a test of
    # the live path against loopback Roughtime and NTS servers
    "NtsTestServer.start_ke",
    "NtsTestServer.stop",
    "RoughtimeTestServer.start_udp",
    "RoughtimeTestServer.stop",
    # criterion 4 reads the matrix views
    "ClockKfState.x",
    "ClockKfState.P",
}

_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _names(node: ast.AST, skip: ast.AST = None) -> tuple:
    """(every name node mentions, those it names as an attribute or a string),
    leaving out the subtree `skip`."""
    bare, reached = set(), set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            bare.add(n.id)
        elif isinstance(n, ast.Attribute):
            reached.add(n.attr)
        elif isinstance(n, ast.alias):
            bare.add(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            if _DOTTED.fullmatch(n.value):
                reached.add(n.value.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(n))
    return bare | reached, reached


def _public(nodes):
    return [n for n in nodes
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")]


def _public_definitions():
    """(path, tree, node, qualified name) of each public def, class and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _public(tree.body):
            yield path, tree, node, node.name
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body):
                    yield path, tree, method, f"{node.name}.{method.name}"


def _uncalled() -> set:
    used = {path: _names(ast.parse(path.read_text(), filename=str(path))) for path in CALLER_FILES}
    missing = set()
    for path, tree, node, qualname in _public_definitions():
        kind = 0 if qualname == node.name else 1  # a method needs obj.name or a string
        if any(node.name in names[kind] for p, names in used.items() if p != path):
            continue
        if node.name not in _names(tree, skip=node)[kind]:
            missing.add(qualname)
    return missing


def test_every_public_name_has_a_runtime_caller():
    unexplained = sorted(_uncalled() - KEEP)
    assert not unexplained, f"public names only tests reach: {unexplained}"


def test_keep_set_lists_only_names_that_need_it():
    defined = {qualname for *_, qualname in _public_definitions()}
    assert KEEP <= defined, f"kept names that no longer exist: {sorted(KEEP - defined)}"
    called = KEEP - _uncalled()
    assert not called, f"kept names that now have a caller: {sorted(called)}"
