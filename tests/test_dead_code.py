"""Guards against dead code in the package, by its syntax tree: a
module-level private name that no package code reads, and a function
parameter that its body never reads.  Both leave a reader to wonder
what the name is for, and neither shows in any value test."""

import ast
from pathlib import Path

import hardyzeta

PACKAGE = Path(hardyzeta.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _bound_at_module_level(tree: ast.Module):
    """(name, line) of each name a module binds at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        else:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def _reads(modules: dict[str, ast.Module]) -> dict[str, set[str]]:
    """For each module, the names of it that the modules read: its own
    loads, and what other modules import from it or read as its
    attributes."""
    reads = {module: set() for module in modules}
    for module, tree in modules.items():
        # The modules this tree imports whole, by the names it binds.
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads[module].add(node.id)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module in reads:
                        reads[node.module].add(alias.name)
                    elif node.module is None and alias.name in reads:
                        aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                reads[aliases[node.value.id]].add(node.attr)
    return reads


def _unread_private_names(modules: dict[str, ast.Module]) -> list[str]:
    reads = _reads(modules)
    return [f"{module}.py:{line} {name}"
            for module, tree in modules.items()
            for name, line in _bound_at_module_level(tree)
            if _private(name) and name not in reads[module]]


def _unused_parameters(modules: dict[str, ast.Module]) -> list[str]:
    unused = []
    for module, tree in modules.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args
                      + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            loads = {node.id for stmt in fn.body for node in ast.walk(stmt)
                     if isinstance(node, ast.Name)
                     and isinstance(node.ctx, ast.Load)}
            unused += [f"{module}.py:{fn.lineno} {fn.name}({name})"
                       for name in params
                       if name not in loads and name not in ("self", "cls")]
    return unused


def test_every_private_name_is_read():
    assert {"zetaeval", "hilbert", "cli", "__init__"} <= set(MODULES)
    assert _unread_private_names(MODULES) == []


def test_every_parameter_is_read():
    assert _unused_parameters(MODULES) == []


def test_guards_flag_what_they_look_for():
    # A private name read only by another module through an import or
    # an attribute counts as read; the rest are flagged.
    modules = {
        "a": ast.parse("import math as _math\n_UNREAD = 1\n_SHARED = 2\n"
                       "_ATTR = 3\n\n\ndef _f(x, widest, *args):\n"
                       "    return x + len(args)\n"),
        "b": ast.parse("from . import a\nfrom .a import _SHARED\n"
                       "print(a._ATTR, a._f, _SHARED)\n"),
    }
    assert _unread_private_names(modules) == ["a.py:1 _math",
                                              "a.py:2 _UNREAD"]
    assert _unused_parameters(modules) == ["a.py:7 _f(widest)"]
