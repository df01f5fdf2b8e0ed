"""Every public name in timeguard has a caller outside the tests.

A function, class or method that only its own tests reach is dead weight:
it has to be read, kept in step and tested, and nothing the monitor does
depends on it.  This test parses ``src/timeguard/*.py`` and requires each
public top-level ``def`` and ``class``, each public name a module-level
assignment binds, tuple unpacking included, and each public method or
property of those classes, to be named somewhere in the package, in
``scripts/`` or in ``perfbench/`` outside its own definition.  A function,
class or module constant counts as named when it appears as an
identifier, an attribute, an imported name, or a string constant that is
exactly that name or a dotted path ending in it (the benchmark looks its
spans up by string).  A method or property counts only when it is
accessed as an attribute (``obj.name``) or named in such a string: a local
variable or an import of the same name is not a call.  Two blind spots
remain.  The receiver's type is unknown to the syntax tree, so a method
shares its callers with every same-named method of another class; and
dunder methods, which the interpreter calls, are not checked at all.

A second check applies the same idea to settings: every defaulted
parameter of a public function or method, every defaulted ``init``
field of a public dataclass, and every defaulted field of a public
NamedTuple, its own or a private fields base's that it subclasses, must
be set somewhere outside its definition, tests included, since a test
seam is a legitimate use.  A value counts as set by a keyword or a
position at a call of that name, by a string constant naming it, and for
a dataclass field by an assignment ``obj.name = ...`` or a
``replace(...)`` keyword, for a NamedTuple field by a ``_replace(...)``
keyword.  The dataclasses behind the INI and scenario-file keys are
exempt: every one of their fields is a key a file can set.  The same
blind spots apply, and a call through an alias, such as a bound method
stored in a local, is not seen at all.

A record whose constructor checks its fields is a public subclass of a
private NamedTuple with a ``__new__`` that checks before it builds the
tuple.  ``_make`` and ``_replace`` build the tuple without that
``__new__``, so the package calls neither, and ``tuple.__new__`` appears
only inside a class's own ``__new__``, building that class.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "timeguard"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
CALLER_FILES = sorted([*PACKAGE.glob("*.py"), *SCRIPTS, *(ROOT / "perfbench").glob("*.py")])

# Public names that stay without a runtime caller, each for a reason.
KEEP = {
    # replay(), which acceptance criterion 7 runs a recorded event log through
    "replay",
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


def _assigned(node: ast.AST) -> list:
    """The names a module-level statement assigns, tuple unpacking included."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    else:
        return []
    return [t.id for target in targets for t in ast.walk(target)
            if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]


def _public_definitions():
    """(path, tree, node, name, qualified name) of each public def, class,
    method and module-level assigned name; node is the statement that
    defines it."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            for name in _assigned(node):
                if not name.startswith("_"):
                    yield path, tree, node, name, name
        for node in _public(tree.body):
            yield path, tree, node, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body):
                    yield path, tree, method, method.name, f"{node.name}.{method.name}"


def _uncalled() -> set:
    used = {path: _names(ast.parse(path.read_text(), filename=str(path))) for path in CALLER_FILES}
    missing = set()
    for path, tree, node, name, qualname in _public_definitions():
        kind = 0 if qualname == name else 1  # a method needs obj.name or a string
        if any(name in names[kind] for p, names in used.items() if p != path):
            continue
        if name not in _names(tree, skip=node)[kind]:
            missing.add(qualname)
    return missing


def test_every_public_name_has_a_runtime_caller():
    unexplained = sorted(_uncalled() - KEEP)
    assert not unexplained, f"public names only tests reach: {unexplained}"


def test_keep_set_lists_only_names_that_need_it():
    defined = {qualname for *_, qualname in _public_definitions()}
    defined |= {label for _, _, _, label, _ in _defaulted_settings()}
    assert KEEP <= defined, f"kept names that no longer exist: {sorted(KEEP - defined)}"
    called = KEEP - _uncalled() - _unset()
    assert not called, f"kept names that now have a caller: {sorted(called)}"


def _functions(path: Path) -> list:
    """(line, name) of each top-level function the module at path defines."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.lineno, node.name) for node in tree.body if isinstance(node, ast.FunctionDef)]


def test_no_function_name_is_defined_in_two_modules():
    """One job, one definition: a top-level function whose name a second
    module also defines at top level is a copy that has to be kept in step."""
    where = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for _, name in _functions(path):
            where.setdefault(name, []).append(path.name)
    twice = {name: paths for name, paths in where.items() if len(paths) > 1}
    assert not twice, twice


def test_no_test_or_script_redefines_a_package_function():
    """A test helper or a script that defines a function the package has is
    a second copy of its job; a script's `main` is its entry point."""
    package = {name for path in PACKAGE.glob("*.py") for _, name in _functions(path)}
    copies = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in sorted([*(ROOT / "tests").glob("*.py"), *SCRIPTS])
              for line, name in _functions(path)
              if name in package and not (path.parent.name == "scripts" and name == "main")]
    assert not copies, copies


# -- defaulted parameters and fields ------------------------------------------

SETTER_FILES = sorted([*CALLER_FILES, *(ROOT / "tests").glob("*.py")])


def _ini_dataclasses() -> set:
    """Names of the config and scenario dataclasses whose fields are INI keys."""
    from timeguard.config import _SCENARIO_SECTIONS, AppConfig, _schema

    found = {cls.__name__ for cls in _SCENARIO_SECTIONS.values()}
    stack = [AppConfig]
    while stack:
        cls = stack.pop()
        found.add(cls.__name__)
        stack.extend(_schema(cls)[1].values())
    return found


def _callee(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _setters(node: ast.AST, skip: ast.AST = None) -> set:
    """What node sets, leaving out the subtree `skip`: (callee, keyword) and
    (callee, position) of each call, ("=", attr) of each attribute
    assignment, and ("str", text) of each identifier-like string constant."""
    found = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Call) and (name := _callee(n)) is not None:
            found.update((name, k.arg) for k in n.keywords if k.arg is not None)
            for i, arg in enumerate(n.args):
                if isinstance(arg, ast.Starred):
                    break
                found.add((name, i))
        elif isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in n.targets if isinstance(n, ast.Assign) else [n.target]:
                for t in ast.walk(target):
                    if isinstance(t, ast.Attribute):
                        found.add(("=", t.attr))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            if n.value.isidentifier():
                found.add(("str", n.value))
        stack.extend(ast.iter_child_nodes(n))
    return found


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _namedtuple_body(node: ast.ClassDef, classes: dict):
    """The class body that declares node's NamedTuple fields: node's own, or
    that of the module-level class it subclasses; None if node is no NamedTuple."""
    for base in node.bases:
        name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
        if name == "NamedTuple":
            return node
        if name in classes and classes[name] is not node:
            found = _namedtuple_body(classes[name], classes)
            if found is not None:
                return found
    return None


def _init_fields(node: ast.ClassDef):
    """(position, name, has default) of each init field of a dataclass or
    NamedTuple body."""
    position = 0
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if (isinstance(value, ast.Call) and _callee(value) == "field"
                and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in value.keywords)):
            continue
        yield position, stmt.target.id, value is not None
        position += 1


def _defaulted_params(func: ast.FunctionDef, method: bool):
    """(name, how it is set) of each parameter of func that has a default: by
    keyword, or by position unless keyword-only.  A method's positions leave
    out self or cls."""
    args = func.args
    positional = [*args.posonlyargs, *args.args]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in func.decorator_list)
    first = 1 if method and not static else 0
    for i, arg in enumerate(positional):
        if i >= len(positional) - len(args.defaults):
            yield arg.arg, [(func.name, arg.arg), (func.name, i - first)]
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, [(func.name, arg.arg)]


def _defaulted_settings():
    """(path, tree, owner node, label, how it is set) of each defaulted
    parameter and field; `how` lists the setters any one of which counts."""
    exempt = _ini_dataclasses()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
        for node in _public(tree.body):
            if isinstance(node, ast.FunctionDef):
                for name, how in _defaulted_params(node, method=False):
                    yield path, tree, node, f"{node.name}({name})", how
                continue
            for method in _public(node.body):
                if isinstance(method, ast.FunctionDef):
                    for name, how in _defaulted_params(method, method=True):
                        yield path, tree, method, f"{node.name}.{method.name}({name})", how
            if _is_dataclass(node) and node.name not in exempt:
                body, setters = node, ("replace", "=")
            elif (body := _namedtuple_body(node, classes)) is not None:
                setters = ("_replace",)
            else:
                continue
            for pos, name, has_default in _init_fields(body):
                if has_default:
                    how = [(node.name, name), (node.name, pos), ("str", name),
                           *((setter, name) for setter in setters)]
                    yield path, tree, node, f"{node.name}.{name}", how


def _unset() -> set:
    used = {path: _setters(ast.parse(path.read_text(), filename=str(path))) for path in SETTER_FILES}
    missing = set()
    for path, tree, node, label, how in _defaulted_settings():
        if any(h in setters for p, setters in used.items() if p != path for h in how):
            continue
        own = _setters(tree, skip=node)
        if not any(h in own for h in how):
            missing.add(label)
    return missing


def test_every_defaulted_setting_is_set_somewhere():
    unexplained = sorted(_unset() - KEEP)
    assert not unexplained, f"defaulted parameters and fields nothing sets: {unexplained}"


# -- the package serves nothing ------------------------------------------------

_SERVER_CALLS = {"bind", "listen", "accept"}


def _imported(n: ast.AST) -> list:
    """The top-level packages node imports: by an import statement, or by a
    call of __import__ or import_module on a string; [] for any other node."""
    if isinstance(n, ast.Import):
        return [a.name.split(".")[0] for a in n.names]
    if isinstance(n, ast.ImportFrom) and n.level == 0:
        return [n.module.split(".")[0]]
    if (isinstance(n, ast.Call) and _callee(n) in ("__import__", "import_module") and n.args
            and isinstance(n.args[0], ast.Constant) and isinstance(n.args[0].value, str)):
        return [n.args[0].value.split(".")[0]]
    return []


def test_the_package_serves_no_sockets():
    """The monitor and its clients only connect out: no module starts a
    thread or listens on a socket.  The loopback servers that tests need
    live in tests/loopback.py."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if "threading" in _imported(n):
                found.append(f"{path.name}:{n.lineno} imports threading")
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and _callee(n) in _SERVER_CALLS):
                found.append(f"{path.name}:{n.lineno} calls .{_callee(n)}")
    assert not found, found


def test_the_filter_imports_no_numpy():
    """ensemble is scalar arithmetic on five floats: it imports numpy
    nowhere, not inside a function nor for type checking."""
    path = PACKAGE / "ensemble.py"
    found = [f"{path.name}:{n.lineno} imports numpy"
             for n in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if "numpy" in _imported(n)]
    assert not found, found


_BLAS_NAMES = {"dot", "matmul", "einsum", "linalg"}


def test_the_package_calls_no_blas():
    """numpy hands a matrix product to the machine's BLAS kernel, whose fused
    multiply-adds decide the last bit of the result, so a generated run
    would read differently from one machine to the next.  No module uses
    `@`, np.dot, np.matmul, np.einsum or np.linalg, by attribute or by
    import."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult):
                found.append(f"{path.name}:{n.lineno} takes a matrix product with @")
            elif isinstance(n, ast.Attribute) and n.attr in _BLAS_NAMES:
                found.append(f"{path.name}:{n.lineno} reads .{n.attr}")
            elif isinstance(n, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in n.names]
                if isinstance(n, ast.ImportFrom):
                    names.append(n.module or "")
                found += [f"{path.name}:{n.lineno} imports {name}" for name in names
                          if set(name.split(".")) & _BLAS_NAMES]
    assert not found, found


_STDLIB_CRYPTO = {"hashlib", "_hashlib", "secrets", "hmac"}


def test_the_provider_clients_import_no_stdlib_crypto():
    """The provider clients hash with cryptography and draw random bytes
    from os.urandom.  hashlib, and secrets through hmac, would map the
    interpreter's libcrypto beside the OpenSSL linked into cryptography, so
    neither client imports them anywhere, not inside a function either."""
    found = []
    for path in (PACKAGE / "provider_roughtime.py", PACKAGE / "provider_nts.py"):
        for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            found += [f"{path.name}:{n.lineno} imports {name}"
                      for name in _imported(n) if name in _STDLIB_CRYPTO]
    assert not found, found


# -- checked records are built through their check -----------------------------

_UNCHECKED_BUILDERS = {"_make", "_replace"}


def _own_tuple_news(tree: ast.AST) -> set:
    """The tuple.__new__(cls, ...) calls inside a class's own __new__ whose
    first parameter is that cls."""
    own = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if (isinstance(method, ast.FunctionDef) and method.name == "__new__"
                    and method.args.args):
                first = method.args.args[0].arg
                own.update(id(n) for n in ast.walk(method)
                           if isinstance(n, ast.Call) and n.args
                           and isinstance(n.args[0], ast.Name) and n.args[0].id == first)
    return own


def _is_tuple_new(n: ast.AST) -> bool:
    return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "__new__" and isinstance(n.func.value, ast.Name)
            and n.func.value.id == "tuple")


def test_the_package_builds_no_record_around_its_check():
    """_make and _replace go straight to tuple.__new__, past the __new__ of a
    record that checks its fields, so no module calls either; and a
    tuple.__new__ outside a record's own __new__ builds that record, or
    another, without its check."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = _own_tuple_news(tree)
        for n in ast.walk(tree):
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and _callee(n) in _UNCHECKED_BUILDERS):
                found.append(f"{path.name}:{n.lineno} calls .{_callee(n)}")
            if _is_tuple_new(n) and id(n) not in own:
                found.append(f"{path.name}:{n.lineno} calls tuple.__new__ outside its "
                             f"record's own __new__")
    assert not found, found


# -- the feed has one reader ---------------------------------------------------

_JSON_READERS = {"load", "loads"}


def test_only_the_feed_module_reads_json():
    """receiver_feed.feed_input is the one decoder of a feed line, so no
    other module calls json.load or json.loads, nor imports either."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "receiver_feed.py":
            continue
        for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and isinstance(n.func.value, ast.Name) and n.func.value.id == "json"
                    and n.func.attr in _JSON_READERS):
                found.append(f"{path.name}:{n.lineno} calls json.{n.func.attr}")
            if (isinstance(n, ast.ImportFrom) and n.module == "json"
                    and _JSON_READERS & {a.name for a in n.names}):
                found.append(f"{path.name}:{n.lineno} imports a json reader")
    assert not found, found


# -- one engine tracks the clock -----------------------------------------------

_TRACKING = {"kf_update", "local_bias_s"}


def test_only_the_monitor_tracks_the_clock():
    """pipeline.Monitor is the one per-epoch engine, which simulate, live
    and calibrate share: nothing else in the package names kf_update or
    local_bias_s, the two steps of tracking the clock, so no second loop
    tracks it, not even through an alias."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if (path.name == "pipeline.py" and isinstance(top, ast.ClassDef)
                    and top.name == "Monitor"):
                continue
            for n in ast.walk(top):
                name = (n.id if isinstance(n, ast.Name)
                        else n.attr if isinstance(n, ast.Attribute) else None)
                if name in _TRACKING:
                    found.append(f"{path.name}:{n.lineno} names {name}")
    assert not found, found


# -- the per-epoch code reads each enum member once bound ----------------------


def test_no_function_reads_an_enum_member_through_its_class():
    """On Python 3.11 EnumType defines __getattr__, so Phase.ALARM read inside
    a function takes the slow attribute path, several times the cost of a
    module global.  Each module binds its enums' members as module
    constants once, and no function body reads a member of Phase, EventKind
    or Hypothesis through its class."""
    from timeguard.detector import Hypothesis
    from timeguard.orchestrator import EventKind, Phase

    members = {cls.__name__: set(cls.__members__) for cls in (Phase, EventKind, Hypothesis)}
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for n in ast.walk(fn):
                if not isinstance(n, ast.Attribute):
                    continue
                owner = (n.value.id if isinstance(n.value, ast.Name)
                         else n.value.attr if isinstance(n.value, ast.Attribute) else None)
                if n.attr in members.get(owner, ()):
                    found.add(f"{path.name}:{n.lineno} reads {owner}.{n.attr}")
    assert not found, sorted(found)
