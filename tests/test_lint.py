"""Source checks that need no linter: every module-level import in the
library, its tests and its demos is used, every library function reads each
of its parameters, and every error class is raised somewhere in the library.

A name counts as used when it occurs as a name anywhere in its module
(calls, attribute bases, annotations).  ``__init__.py`` re-exports by
importing, so it is left out, and so is ``from __future__ import ...``.
A parameter counts as read when its body, nested functions included, loads
the name.  Dunder methods keep the signature their protocol fixes, so they
are left out.  Every module-level name a library module assigns is read by
library code.  No module-level library function only returns a method
call, attribute or item of its first parameter.  Outside ``packs.py``
only the listed functions compare a ``.kind`` against a generator tag.  No
library function outside the verify sweeps coerces ids one at a time with
``int``.  Every function the benchmark's tracer wraps exists.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "c0cover"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import json\nfrom typing import Mapping, Sequence\nx: Sequence = json.loads('[]')\n") == [
        "Mapping"
    ]


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name if p.parent == SRC else str(p.relative_to(ROOT)))
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def unread_parameters(source: str) -> list[str]:
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(fn, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = fn.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{name}({p.arg})" for p in params if p.arg not in read]
    return sorted(out)


def test_the_guard_sees_an_unread_parameter():
    source = (
        "def f(a, b, *, tol=0.1):\n    b = 2  # a store is no read\n    return a\n"
        "class C:\n    def __setattr__(self, name, value):\n        raise AttributeError\n"
        "g = lambda x, y: x\n"
    )
    assert unread_parameters(source) == ["<lambda>(y)", "f(b)", "f(tol)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def private_definitions(source: str) -> list[str]:
    """Module-level functions and classes whose names start with one underscore."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def referenced_names(source: str) -> set[str]:
    """Names loaded or stored anywhere, and attributes read off any object."""
    tree = ast.parse(source)
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
    }


def test_the_guard_sees_an_unreferenced_private_function():
    source = "def _used():\n    pass\ndef _kept_for_tests():\n    pass\nclass _Gone:\n    pass\nx = _used()\n"
    assert [d for d in private_definitions(source) if d not in referenced_names(source)] == [
        "_kept_for_tests",
        "_Gone",
    ]


def test_private_definitions_are_referenced_by_library_code():
    """A private helper that only tests call is dead code kept alive by its tests."""
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    referenced = set().union(*map(referenced_names, sources))
    defined = [name for source in sources for name in private_definitions(source)]
    assert sorted(name for name in defined if name not in referenced) == []


def assigned_names(source: str) -> list[str]:
    """Names a module binds by a plain or annotated assignment at its top level, dunders aside."""
    out = []
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        for t in targets:
            out += [n.id for n in ast.walk(t) if isinstance(n, ast.Name) and not n.id.startswith("__")]
    return out


def read_names(source: str) -> set[str]:
    """Names loaded anywhere, and attributes read off any object; an import or a store reads nothing."""
    tree = ast.parse(source)
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


def unread_module_names(sources: list[str]) -> list[str]:
    read = set().union(*map(read_names, sources))
    return sorted(name for source in sources for name in assigned_names(source) if name not in read)


def test_the_guard_sees_an_unread_module_name():
    library = (
        "LIMIT = 3\nTABLE: dict = {}\n_USED, _SPARE = 1, 2\nGONE = {'a'}\n__version__ = '1'\n"
        "def f(x):\n    GONE = 0  # a local store reads nothing\n    return x < LIMIT + _USED\n"
    )
    other = "from .mod import TABLE  # an import reads nothing\nTABLE = None\nprint(mod.TABLE)\n"
    assert unread_module_names([library, other]) == ["GONE", "_SPARE"]


def test_every_module_level_name_is_read_by_library_code():
    """A constant no library code reads is a dead knob, whoever else imports it."""
    assert unread_module_names([p.read_text() for p in sorted(SRC.glob("*.py"))]) == []


def kind_comparisons(source: str, module: str, tags) -> list[str]:
    """The functions, as ``module.function``, holding a comparison of a ``.kind``
    attribute with a string of ``tags`` or a literal collection of them."""

    def is_tag(node) -> bool:
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return any(isinstance(i, ast.Constant) and i.value in tags for i in items)

    out = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(isinstance(s, ast.Attribute) and s.attr == "kind" for s in sides) and any(map(is_tag, sides)):
                out.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), module)
    return sorted(set(out))


def test_the_guard_sees_a_kind_comparison():
    source = (
        "def f(pack):\n    return pack.kind == 'circle'\n"
        "def g(cfg):\n    if cfg.kind in ('disk', 'other'):\n        return 1\n"
        "def h(pack):\n    return pack.kind == 'other' or pack.tag == 'circle'  # not a tag, not a kind\n"
        "class C:\n    def m(self, kind):\n        return kind == 'circle'  # a name, not an attribute\n"
    )
    assert kind_comparisons(source, "mod", {"circle", "disk"}) == ["mod.f", "mod.g"]


def test_only_the_listed_functions_branch_on_a_generator_tag():
    """Structure is read from the metric, not from a generator's name; these
    two still branch on it and are the ones left to retire."""
    tags = importlib.import_module("c0cover.packs").KNOWN_DIMS.keys()
    found = [
        where
        for path in MODULES
        if path.name != "packs.py"
        for where in kind_comparisons(path.read_text(), path.stem, tags)
    ]
    assert found == ["canonical._build_dim1", "cylinder.random_uniform_candidates"]


def rewrapped_parameters(source: str, module: str) -> list[str]:
    """The module-level functions, as ``module.function``, whose body (a
    docstring aside) is one ``return`` of a method call on the first
    parameter, or of an attribute or item of it, optionally through
    ``float``, ``int`` or ``bool``: a second spelling of what the caller
    can read off the argument itself."""

    def on(node, name) -> bool:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return isinstance(node, ast.Name) and node.id == name

    out = []
    for fn in ast.parse(source).body:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or not fn.args.args:
            continue
        body = fn.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]  # the docstring
        if len(body) != 1 or not isinstance(body[0], ast.Return) or body[0].value is None:
            continue
        value = body[0].value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("float", "int", "bool") and len(value.args) == 1:
            value = value.args[0]
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
            value = value.func  # a method called on the parameter
        if isinstance(value, (ast.Attribute, ast.Subscript)) and on(value, fn.args.args[0].arg):
            out.append(f"{module}.{fn.name}")
    return out


def test_the_guard_sees_a_rewrapped_parameter():
    source = (
        "def size(pack):\n    return pack.n\n"
        "def dist(pack, p):\n    \"\"\"A docstring.\"\"\"\n    return float(pack.bd[p])\n"
        "def ball(e, x):\n    return e.ball(x)\n"
        "def first(xs):\n    return xs[0]\n"
        "def other(e, f):\n    return f.ball(e)  # not the first parameter\n"
        "def compose(e, f):\n    return e.mask @ f.mask  # more than a read of e\n"
        "def kept(e):\n    e.check()\n    return e.mask\n"
        "def plain(e):\n    return len(e)\n"
        "class C:\n    def ball(self, x):\n        return self.balls[x]  # a method, not a module-level function\n"
    )
    assert rewrapped_parameters(source, "mod") == ["mod.size", "mod.dist", "mod.ball", "mod.first"]


def test_no_function_rewraps_its_first_parameter():
    """Balls, images, inverses and boundary distances are read off the
    relation or the pack; a function that only re-spells such a read is a
    second name for one fact."""
    assert [where for path in MODULES for where in rewrapped_parameters(path.read_text(), path.stem)] == []


def id_coercions(source: str, module: str) -> list[str]:
    """The functions, as ``module.function`` (a method as ``module.Class.method``),
    that coerce ids one at a time: by ``map(int, ...)``, or by an ``int(x)``
    whose argument is a target of an enclosing comprehension."""
    out = []

    def visit(node, where, targets):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            targets = targets | {n.id for g in node.generators for n in ast.walk(g.target) if isinstance(n, ast.Name)}
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.args:
            first = node.args[0]
            if isinstance(first, ast.Name) and (
                node.func.id == "map" and first.id == "int" or node.func.id == "int" and first.id in targets
            ):
                out.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where, targets)

    visit(ast.parse(source), module, frozenset())
    return sorted(set(out))


def test_the_guard_sees_an_id_coercion():
    source = (
        "def f(xs):\n    return frozenset(map(int, xs))\n"
        "def g(pairs):\n    return {(int(p), int(q)) for p, q in pairs}\n"
        "class C:\n    def m(self, xs):\n        return [int(x) for x in xs]\n"
        "def h(xs, y):\n    return [float(x) for x in xs] + [int(y)]  # no comprehension target\n"
        "def k(xs):\n    return [int(x[0]) for x in xs]  # an item of the target, not the target\n"
        "def l(xs):\n    return list(map(float, xs))\n"
    )
    assert id_coercions(source, "mod") == ["mod.C.m", "mod.f", "mod.g"]


def test_only_the_reader_coerces_ids():
    """Point ids are read by ``packs._point_ids``, which checks their types
    once per call; the two verify sweeps convert only the RNG's own draws."""
    found = [where for path in MODULES for where in id_coercions(path.read_text(), path.stem)]
    assert found == ["verify.check_identities", "verify.check_transfer_lemmas"]


def raised_names(source: str) -> set[str]:
    """Names of the exceptions that ``raise`` statements raise, called or not."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                out.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return out


def unraised_classes(errors_source: str, sources: list[str]) -> list[str]:
    raised = set().union(*map(raised_names, sources))
    return [
        node.name
        for node in ast.parse(errors_source).body
        if isinstance(node, ast.ClassDef) and node.name not in raised
    ]


def test_the_guard_sees_an_error_that_is_never_raised():
    errors = (
        "class Base(Exception):\n    pass\n"
        "class Used(Base):\n    pass\n"
        "class Named(Base):\n    pass\n"
        "class Gone(Base):\n    pass\n"
    )
    library = (
        "from . import errors\n"
        "def f(x):\n    if x:\n        raise Used(Named)  # an argument raises nothing\n"
        "    raise errors.Base\n"
        "def g():\n    return Gone()\n"
    )
    assert unraised_classes(errors, [library]) == ["Named", "Gone"]


def test_every_error_class_is_raised_by_library_code():
    """An error class no library code raises is a contract nothing can break."""
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unraised_classes((SRC / "errors.py").read_text(), sources) == []


def tracer_names() -> dict:
    """``WRAPPED`` and ``WRAPPED_METHODS`` of ``perfbench/tracer.py``, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("WRAPPED", "WRAPPED_METHODS")
    }


def test_every_name_the_tracer_wraps_exists():
    # Tracer.install reads each name with no fallback, so a renamed function breaks every traced run
    names = tracer_names()
    assert names.keys() == {"WRAPPED", "WRAPPED_METHODS"}
    for mod, fns in names["WRAPPED"].items():
        module = importlib.import_module(f"c0cover.{mod}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"{mod}.{fn}"
    for mod, classes in names["WRAPPED_METHODS"].items():
        for cls, methods in classes.items():
            owner = getattr(importlib.import_module(f"c0cover.{mod}"), cls)
            for m in methods:
                assert callable(vars(owner).get(m)), f"{mod}.{cls}.{m}"
