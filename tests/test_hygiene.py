"""Static checks on the package source: every imported name is used, every
class and function it defines is named somewhere else, every module-level
constant it assigns is read somewhere, every parameter is read by its
function's body, every defaulted parameter is passed by some call and
omitted by another, every dataclass field is read, and no broad except
clause swallows what it catches."""

import ast
import collections
import math
import pathlib
import re

import pytest

import qpgaps

MODULES = sorted(pathlib.Path(qpgaps.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parents[1]


def _outside_sources():
    """Source of every Python file under tests/ and bench/."""
    return [path.read_text() for top in ("tests", "bench")
            for path in sorted((ROOT / top).rglob("*.py"))]


def unused_imports(source):
    """Names an import binds (anywhere in the module) that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_unused_imports_are_found():
    src = "import json\nimport os\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(src) == ["json", "pi"]


@pytest.mark.parametrize("path", MODULES + [ROOT / "tests" / "oracles.py"],
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def _references(tree):
    """Counter of identifiers a tree names: Name ids, Attribute attrs, and
    the identifier-like words of string constants."""
    refs = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return refs


def unreferenced_definitions(package_sources, other_sources):
    """(module, name) of every class or function defined in the package that
    no code names outside its own definition; dunders are exempt."""
    trees = {name: ast.parse(src) for name, src in package_sources.items()}
    refs = collections.Counter()
    for tree in list(trees.values()) + [ast.parse(src) for src in other_sources]:
        refs += _references(tree)
    missing = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if refs[node.name] - _references(node)[node.name] <= 0:
                missing.append((module, node.name))
    return sorted(missing)


def test_unreferenced_definitions_are_found():
    src = ("def used():\n    return 1\n\ndef lonely():\n    return lonely()\n\n"
           "def named():\n    pass\n\nclass C:\n    def __init__(self):\n        used()\n")
    assert unreferenced_definitions({"m": src}, ["HOOK = 'mod.named'\n"]) == [
        ("m", "C"), ("m", "lonely")]


def test_every_definition_is_referenced():
    package = {path.name: path.read_text() for path in MODULES}
    assert unreferenced_definitions(package, _outside_sources()) == []


def _reads(tree):
    """Counter of the names a tree reads, bare or as an attribute."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load))


def unread_constants(package_sources, other_sources):
    """(module, name) of every module-level UPPER_CASE name (leading
    underscore allowed) that the package assigns and no code reads."""
    trees = {name: ast.parse(src) for name, src in package_sources.items()}
    reads = collections.Counter()
    for tree in list(trees.values()) + [ast.parse(src) for src in other_sources]:
        reads += _reads(tree)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                for name in {n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name)}:
                    if re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name) and not reads[name]:
                        unread.append((module, name))
    return sorted(unread)


def test_unread_constants_are_found():
    src = ("LIMIT = 4\n_STALE = (1, 2)\nA, B = 1, 2\nlower = 5\n"
           "def f():\n    return LIMIT + A\n")
    assert unread_constants({"m": src}, ["import m\nprint(m.B)\n"]) == [("m", "_STALE")]


def test_every_constant_is_read():
    package = {path.name: path.read_text() for path in MODULES}
    assert unread_constants(package, _outside_sources()) == []


def unread_parameters(source):
    """(function, parameter) of every parameter of a function or lambda that
    its body never reads, nested bodies included; self, cls and names with a
    leading underscore (a fixed callback signature) are exempt."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(getattr(node, "name", "<lambda>"), p.arg) for p in params
                   if p.arg not in read and p.arg not in ("self", "cls")
                   and not p.arg.startswith("_")]
    return sorted(unread)


def test_unread_parameters_are_found():
    src = ("def f(a, b, _c, *args, **kw):\n    return a + kw['x']\n\n"
           "def outer(x):\n    return lambda: x\n\n"
           "class C:\n    def m(self, d):\n        return lambda e, _g: self\n")
    assert unread_parameters(src) == [("<lambda>", "e"), ("f", "args"), ("f", "b"),
                                      ("m", "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def _calls(trees):
    """Callee name -> the calls of a function, method or class by that name."""
    calls = collections.defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls[name].append(node)
    return calls


def _splat(call):
    """Whether a call has a *args or **kwargs splat, which may pass anything."""
    return None in {kw.arg for kw in call.keywords} or any(
        isinstance(arg, ast.Starred) for arg in call.args)


def _default_slots(tree):
    """(callee name, slot, parameter) of every defaulted parameter of a
    function or method in tree.  The slot is the parameter's index among the
    positional arguments a call writes (past self for a bound method), or
    math.inf for a keyword-only one; a class's __init__ goes by the class name."""
    owner = {id(fn): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for fn in cls.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a, cls = node.args, owner.get(id(node))
        bound = cls is not None and not any(
            getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        name = cls.name if cls is not None and node.name == "__init__" else node.name
        positional = (a.posonlyargs + a.args)[int(bound):]
        for i, p in enumerate(positional):
            if i >= len(positional) - len(a.defaults):
                yield name, i, p.arg
        for p, d in zip(a.kwonlyargs, a.kw_defaults):
            if d is not None:
                yield name, math.inf, p.arg


def unpassed_defaults(package_sources, other_sources):
    """(function, parameter) of every defaulted parameter of a package
    function that no call in any of the sources passes.  A call passes p by
    keyword when it names p= (whatever it calls), and by position when it
    calls a function of the same name (a class, for __init__) with a
    positional argument in p's slot; a call with a *args or **kwargs splat
    passes every parameter of the functions of that name."""
    trees = [ast.parse(src) for src in package_sources.values()]
    calls = _calls(trees + [ast.parse(src) for src in other_sources])
    keywords = {kw.arg for named in calls.values() for call in named for kw in call.keywords}
    reach = {name: max(math.inf if _splat(call) else len(call.args) for call in named)
             for name, named in calls.items()}          # most positional arguments
    return sorted((name, p) for tree in trees for name, i, p in _default_slots(tree)
                  if p not in keywords and reach.get(name, 0) <= i)


def test_unpassed_defaults_are_found():
    src = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
           "def g(k=1):\n    pass\n\n"
           "class C:\n    def __init__(self, x=0):\n        pass\n\n"
           "    def m(self, y=1, z=2):\n        pass\n\n"
           "    @staticmethod\n    def s(w=0):\n        pass\n\n"
           "f(0, 1, e=5)\nC().m(9)\nC.s(1)\n")
    assert unpassed_defaults({"m": src}, ["g(*ks)\nC()\n"]) == [
        ("C", "x"), ("f", "c"), ("f", "d"), ("m", "z")]


def test_every_default_is_passed():
    package = {path.name: path.read_text() for path in MODULES}
    assert unpassed_defaults(package, _outside_sources()) == []


def untaken_defaults(package_sources, other_sources):
    """(function, parameter) of every defaulted parameter of a package
    function that no call in any of the sources omits: every call of a
    function of that name (a class, for __init__) passes it, by keyword, by
    a positional argument in its slot or by a *args or **kwargs splat.  A
    function no call names takes none of its defaults."""
    trees = [ast.parse(src) for src in package_sources.values()]
    calls = _calls(trees + [ast.parse(src) for src in other_sources])
    return sorted((name, p) for tree in trees for name, i, p in _default_slots(tree)
                  if all(_splat(call) or len(call.args) > i
                         or p in {kw.arg for kw in call.keywords} for call in calls[name]))


def test_untaken_defaults_are_found():
    src = ("def f(a, b=1, c=2, *, d=3):\n    pass\n\n"
           "def g(k=1):\n    pass\n\n"
           "def lone(v=0):\n    pass\n\n"
           "class C:\n    def __init__(self, x=0):\n        pass\n\n"
           "    def m(self, y=1, z=2):\n        pass\n\n"
           "    @staticmethod\n    def s(w=0):\n        pass\n\n"
           "f(0, 1, d=5)\nf(0, b=1, c=2, d=4)\nC(1).m(9, z=3)\nC(2).m(8)\nC.s()\n")
    assert untaken_defaults({"m": src}, ["g(*ks)\n"]) == [
        ("C", "x"), ("f", "b"), ("f", "d"), ("g", "k"), ("lone", "v"), ("m", "y")]


def test_every_default_is_taken():
    package = {path.name: path.read_text() for path in MODULES}
    assert untaken_defaults(package, _outside_sources()) == []


def unread_fields(package_sources, other_sources):
    """(module, class, field) of every field of a package dataclass that no
    code reads as an attribute, unless the class serializes itself whole
    through asdict."""
    trees = {name: ast.parse(src) for name, src in package_sources.items()}
    reads = collections.Counter()
    for tree in list(trees.values()) + [ast.parse(src) for src in other_sources]:
        reads.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    unread = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or not any(
                    getattr(getattr(d, "func", d), "id", None) == "dataclass"
                    for d in cls.decorator_list):
                continue
            if any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "asdict"
                   for n in ast.walk(cls)):
                continue
            unread += [(module, cls.name, node.target.id) for node in cls.body
                       if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                       and not reads[node.target.id]]
    return sorted(unread)


def test_unread_fields_are_found():
    src = ("from dataclasses import asdict, dataclass\n\n"
           "@dataclass(frozen=True)\nclass A:\n    used: int\n    stale: float = 0.0\n\n"
           "@dataclass\nclass B:\n    whole: int\n\n"
           "    def to_dict(self):\n        return asdict(self)\n\n"
           "class Plain:\n    note: str\n\n"
           "def f(a):\n    a.stale = 1\n    return a.used\n")
    assert unread_fields({"m": src}, ["print(x.other)\n"]) == [("m", "A", "stale")]


def test_every_field_is_read():
    package = {path.name: path.read_text() for path in MODULES}
    assert unread_fields(package, _outside_sources()) == []


DEFAULTS_CEILING = 30         # defaulted parameters in the package at the last count


def defaulted_parameters(source):
    """Defaulted parameters of every function, method and lambda: the
    positional defaults plus the keyword-only parameters with a default."""
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def test_defaulted_parameters_are_counted():
    src = ("def f(a, b=1, *, c=2, d):\n    return lambda x=0: x\n\n"
           "class C:\n    def m(self, y=None):\n        pass\n")
    assert defaulted_parameters(src) == 4


def test_defaulted_parameters_do_not_grow():
    """A ratchet: lower the ceiling when the count falls, never raise it."""
    count = sum(defaulted_parameters(path.read_text()) for path in MODULES)
    print(f"defaulted parameters in src/qpgaps: {count}")
    assert count <= DEFAULTS_CEILING, f"{count} defaulted parameters, ceiling {DEFAULTS_CEILING}"


BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def swallowing_handlers(source):
    """Lines of the except clauses that catch everything, Exception or
    BaseException (alone or in a tuple) and do not end in a bare raise: such
    a handler would hide a programming error along with the failure it means."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = ([] if node.type is None
                  else node.type.elts if isinstance(node.type, ast.Tuple) else [node.type])
        broad = node.type is None or any(
            (getattr(t, "id", None) or getattr(t, "attr", None)) in BROAD_EXCEPTIONS
            for t in caught)
        last = node.body[-1]
        if broad and not (isinstance(last, ast.Raise) and last.exc is None):
            lines.append(node.lineno)
    return sorted(lines)


def test_swallowing_handlers_are_found():
    src = ("try:\n    f()\nexcept Exception:\n    pass\n"
           "try:\n    f()\nexcept:\n    log()\n    raise\n"
           "try:\n    f()\nexcept (ValueError, BaseException) as e:\n    g(e)\n"
           "try:\n    f()\nexcept ValueError:\n    pass\n"
           "try:\n    f()\nexcept:\n    raise RuntimeError()\n"
           "try:\n    f()\nexcept builtins.Exception:\n    return None\n")
    assert swallowing_handlers(src) == [3, 12, 20, 24]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_broad_handler_swallows(path):
    assert swallowing_handlers(path.read_text()) == []
