"""The package holds no code that no command reaches.

An AST walk from `cli.main` follows every name that a reached definition
loads: the top-level names of its own module, names imported from a sibling
module (at module level or inside a function), and attributes of an
imported sibling module.  A class counts as reached as a whole.  A
top-level definition of the package that the walk misses fails the test
unless UNREACHED lists it with its reason; a function that only tests call
belongs in `tests/oracles.py`.
"""

import ast
import sys
from pathlib import Path

import specrelax as sr

SRC = Path(sr.__file__).resolve().parent

# (module, name) -> why the definition stays in the package although no
# command reaches it
UNREACHED: dict[tuple[str, str], str] = {}


def _top_level(tree: ast.Module) -> dict:
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defs[target.id] = node
    return defs


def _imports(node: ast.AST) -> dict:
    """Local name -> ("module", m) or ("name", m, name), from the relative
    imports anywhere under `node`."""
    bound = {}
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom) and sub.level == 1:
            for alias in sub.names:
                bound[alias.asname or alias.name] = (
                    ("module", alias.name) if sub.module is None
                    else ("name", sub.module, alias.name))
    return bound


def _unreached(src: Path = SRC) -> list[tuple[str, str]]:
    modules = {}
    for path in sorted(src.glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            tree = ast.parse(path.read_text())
            modules[path.stem] = (_top_level(tree), _imports(tree))
    reached, todo = set(), [("cli", "main")]
    while todo:
        module, name = todo.pop()
        if (module, name) in reached or module not in modules:
            continue
        defs, module_imports = modules[module]
        if name not in defs:            # a re-export: follow it to its definition
            target = module_imports.get(name)
            if target and target[0] == "name":
                todo.append(target[1:])
            continue
        reached.add((module, name))
        node = defs[name]
        bound = {**module_imports, **_imports(node)}
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in defs:
                    todo.append((module, sub.id))
                target = bound.get(sub.id)
                if target and target[0] == "name":
                    todo.append(target[1:])
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                target = bound.get(sub.value.id)
                if target and target[0] == "module":
                    todo.append((target[1], sub.attr))
    return sorted((module, name) for module, (defs, _) in modules.items()
                  for name in defs if (module, name) not in reached)


def test_every_definition_is_reached_from_the_cli():
    unreached = _unreached()
    assert [d for d in unreached if d not in UNREACHED] == []
    assert [d for d in UNREACHED if d not in unreached] == []   # no stale entry


def test_walk_finds_a_planted_orphan(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "thermo.py", "a") as fh:
        fh.write("\n\ndef orphan():\n    return entropy_rows\n")
    assert _unreached(tmp_path) == [("thermo", "orphan")]


def test_every_export_resolves():
    assert sorted(sr.__all__) == sr.__all__ and set(sr.__all__) <= set(dir(sr))
    for name in sr.__all__:
        value = getattr(sr, name)
        # the object its defining module holds, not a copy
        assert getattr(sys.modules[value.__module__], name) is value, name
