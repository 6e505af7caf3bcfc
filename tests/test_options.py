"""Every defaulted parameter of the package is set by some call in the
package or the benchmark, or is on ``ALLOWED`` with the reason it stays."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "stokesbiot").rglob("*.py"))
CALLERS = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))

# "function.parameter" (``Class.method.parameter`` for a method): reason
ALLOWED = {
    "cli.argv": "the tests drive the command line in-process; a console run reads sys.argv",
    "synthetic_spe_standin.nx": "the tests write small rasters; the command line the full 60 x 220 one",
    "synthetic_spe_standin.ny": "the tests write small rasters; the command line the full 60 x 220 one",
}


def defaulted(sources) -> list[tuple[str, set, str, int | None]]:
    """``(qualified name, names it is called by, parameter, position)`` of
    every parameter with a default in ``sources``; the position counts from
    the first argument of a call (after ``self`` of a method) and is None
    for a keyword-only parameter.  ``__init__`` is called by its class's
    name and by those of its subclasses that have no ``__init__``."""
    found, inits, bases = [], {}, {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                bases[child.name] = [b.id for b in child.bases if isinstance(b, ast.Name)]
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                method = owner is not None and not any(
                    getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                positional = (args.posonlyargs + args.args)[1 if method else 0:]
                first = len(positional) - len(args.defaults)
                params = [(a, i) for i, a in enumerate(positional) if i >= first]
                params += [(a, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                name = f"{owner}.{child.name}" if method else child.name
                for arg, pos in params:
                    found.append((name, {child.name}, arg.arg, pos))
                if method and child.name == "__init__":
                    inits[owner] = len(found) - len(params), len(found)
                visit(child, None)
            else:
                visit(child, owner)

    for source in sources:
        visit(ast.parse(source), None)
    for cls, (lo, hi) in inits.items():
        callers = {c for c in bases if _inherits(c, cls, bases, inits)}
        for entry in found[lo:hi]:
            entry[1].update(callers)
    return found


def _inherits(cls, base, bases, inits) -> bool:
    """Whether ``cls`` gets its ``__init__`` from ``base``."""
    while cls != base:
        if cls in inits or not bases.get(cls):
            return False
        cls = bases[cls][0]
    return True


def unset_defaults(package_sources, caller_sources) -> list[str]:
    """``function.parameter`` of each defaulted parameter that no call sets,
    by keyword or by position; a call with ``*args`` or ``**kwargs`` sets
    every parameter of its kind."""
    calls = []
    for source in caller_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.append((name, float("inf") if starred else len(node.args), keywords))
    unset = []
    for qualified, names, param, pos in defaulted(package_sources):
        if not any(name in names and (param in keys or None in keys
                                      or (pos is not None and n > pos))
                   for name, n, keys in calls):
            unset.append(f"{qualified}.{param}")
    return unset


def test_every_default_is_set_by_a_caller():
    unset = unset_defaults([p.read_text() for p in PACKAGE], [p.read_text() for p in CALLERS])
    assert sorted(set(unset) - set(ALLOWED)) == []


def test_allowed_defaults_are_still_unset():
    unset = unset_defaults([p.read_text() for p in PACKAGE], [p.read_text() for p in CALLERS])
    assert sorted(set(ALLOWED) - set(unset)) == []


def test_unset_defaults_are_found():
    package = ("class E(ValueError):\n    def __init__(self, m, line=None):\n        pass\n"
               "class F(E):\n    pass\n"
               "class C:\n    def run(self, a, b=1, *, c=2):\n        pass\n"
               "def f(x, y=0, z=0):\n    pass\n")
    callers = "F('m', 3)\nC().run(1, 2)\nf(1, z=3)\n"
    assert unset_defaults([package], [callers]) == ["C.run.c", "f.y"]
