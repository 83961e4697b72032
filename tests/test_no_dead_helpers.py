"""Every function and method in ``src/starweight`` is reached from ``src/``.

A static check over the package's syntax trees.  A module-level or nested
function counts as used when its bare name occurs in its own module outside
its own body, or when another module of the package imports it by name; a
method counts when its attribute name occurs anywhere in the package outside
its own body.  Test-only helpers belong under ``tests/``.  Dunders and the
entry point ``cli.main`` are exempt; every other exception is listed in
``ALLOWED`` with its reason.
"""

import ast
import functools
from collections import defaultdict
from pathlib import Path

import starweight

PACKAGE = Path(starweight.__file__).parent

ALLOWED: dict[str, str] = {}


@functools.cache
def dead_helpers() -> tuple[str, ...]:
    """Qualified names of the package's unreached functions and methods."""
    attrs = defaultdict(list)  # attribute name -> [(module, line)]
    names = defaultdict(list)  # (module, bare name) -> [line]
    imported = set()  # (module, name) that a sibling module imports
    defs = []  # (module, qualified name, node, is method)
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # nested def or class -> (qualified prefix, in a class body)
        for node in ast.walk(tree):
            kind = type(node)
            if kind is ast.Name:
                names[mod, node.id].append(node.lineno)
            elif kind is ast.Attribute:
                attrs[node.attr].append((mod, node.lineno))
            elif kind is ast.ImportFrom and node.level == 1:
                imported.update((node.module, a.name) for a in node.names)
            elif kind in (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef):
                prefix, in_class = owner.get(node, ("", False))
                if kind is not ast.ClassDef:
                    defs.append((mod, prefix + node.name, node, in_class))
                for stmt in node.body:
                    owner[stmt] = (prefix + node.name + ".", kind is ast.ClassDef)
    dead = []
    for mod, qual, node, is_method in defs:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        body = range(node.lineno, node.end_lineno + 1)
        if is_method:
            used = any(m != mod or line not in body for m, line in attrs[name])
        else:
            used = (mod, name) in imported or any(line not in body for line in names[mod, name])
        if not used:
            dead.append(f"{mod}.{qual}")
    return tuple(dead)


def test_every_src_function_is_reached_from_src():
    unexplained = [d for d in dead_helpers() if d != "cli.main" and d not in ALLOWED]
    assert unexplained == []


def test_allowlist_names_only_unreached_functions():
    assert set(ALLOWED) <= set(dead_helpers())
