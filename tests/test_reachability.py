"""The package holds no code that no command reaches.

An AST walk from `cli.main` follows every name that a reached definition
loads: the top-level names of its own module, names imported from a sibling
module (at module level or inside a function), and attributes of an
imported sibling module.  A reached class brings its body along except its
methods and properties: a dunder (`__post_init__` among them) counts as
reached with the class, any other member once some reached code loads an
attribute of its name, on whatever object.  A definition of the package
that the walk misses, top-level or a member ("Class.name"), fails the test
unless UNREACHED lists it with its reason; code that only tests call
belongs in `tests/oracles.py`.

Nor does a module import a name that its own code never loads: an import
at module level must be loaded somewhere in the module, one inside a
function somewhere in that function.

Nor does the package keep a setting or a field that nothing uses: every
annotated field of a package dataclass is loaded, by name, somewhere in the
package, and every parameter or init field with a default is passed, by
keyword or by position, at some package call of that name (a call through a
`partial` counts, with the arguments the partial binds).  A setting that
only tests pass is a constant; a field that only tests read belongs in
`tests/oracles.py`.
"""

import ast
import sys
from pathlib import Path

import pytest

import specrelax as sr

SRC = Path(sr.__file__).resolve().parent

# (module, name) -> why the definition stays in the package although no
# command reaches it
UNREACHED: dict[tuple[str, str], str] = {}

# (module, "Class.field") -> why a field that no package code loads stays
UNREAD: dict[tuple[str, str], str] = {
    ("rigidity", "RigidityReport.diagnostic"):
        "tests tell the search's exits apart by it; no command prints it yet",
}

# (module, "function.parameter" or "Class.field") -> why a default that no
# package call overrides stays a setting
UNPASSED: dict[tuple[str, str], str] = {
    ("cli", "main.argv"): "the tests and `python -m specrelax` call the entry point",
    **{("chains", f"Tolerances.{name}"): "`--tol` sets it through `replace`"
       for name in ("row_sum", "detailed_balance", "pi_floor", "eigen_residual",
                    "orthonormality")},
}


def _modules(src: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


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


def _members(defs: dict) -> dict:
    """"Class.name" -> the node of each method and property of each class."""
    return {f"{cls}.{node.name}": node for cls, class_node in defs.items()
            if isinstance(class_node, ast.ClassDef) for node in class_node.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _walk(node: ast.AST, skip=()):
    """ast.walk that does not descend into the nodes of `skip`."""
    todo = [node]
    while todo:
        sub = todo.pop()
        yield sub
        todo.extend(c for c in ast.iter_child_nodes(sub) if c not in skip)


def _unreached(src: Path = SRC) -> list[tuple[str, str]]:
    modules = {}
    for stem, tree in _modules(src).items():
        if stem not in ("__init__", "__main__"):
            defs = _top_level(tree)
            modules[stem] = (defs, _imports(tree), _members(defs))
    reached, todo = set(), [("cli", "main")]
    loaded = set()          # attribute names that reached code loads
    waiting = {}            # member name -> its not yet reached (module, "Class.name")
    while todo:
        module, name = todo.pop()
        if (module, name) in reached or module not in modules:
            continue
        defs, module_imports, members = modules[module]
        node = defs.get(name) or members.get(name)
        if node is None:                # a re-export: follow it to its definition
            target = module_imports.get(name)
            if target and target[0] == "name":
                todo.append(target[1:])
            continue
        reached.add((module, name))
        own = [key for key in members if key.startswith(f"{name}.")]
        for key in own:
            attr = key.split(".", 1)[1]
            if (attr.startswith("__") and attr.endswith("__")) or attr in loaded:
                todo.append((module, key))
            else:
                waiting.setdefault(attr, []).append((module, key))
        bound = {**module_imports, **_imports(node)}
        for sub in _walk(node, skip={members[key] for key in own}):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in defs:
                    todo.append((module, sub.id))
                target = bound.get(sub.id)
                if target and target[0] == "name":
                    todo.append(target[1:])
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                loaded.add(sub.attr)
                todo.extend(waiting.pop(sub.attr, []))
                target = (bound.get(sub.value.id)
                          if isinstance(sub.value, ast.Name) else None)
                if target and target[0] == "module":
                    todo.append((target[1], sub.attr))
    # the members of an unreached class go unlisted: the class stands for them
    return sorted((module, name) for module, (defs, _, members) in modules.items()
                  for name in [*defs, *members] if (module, name) not in reached
                  and (name in defs or (module, name.split(".")[0]) in reached))


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


@pytest.mark.parametrize("decorator", ["", "    @property\n"])
def test_walk_finds_a_planted_orphan_member(tmp_path, decorator):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    # a method, or a property, of a reached class under a name nothing loads
    lines = (SRC / "chains.py").read_text().splitlines(keepends=True)
    cls = next(node for node in ast.parse("".join(lines)).body
               if isinstance(node, ast.ClassDef) and node.name == "SpectralDecomposition")
    lines.insert(cls.end_lineno, f"\n{decorator}    def orphan_member(self):\n"
                                 "        return self.eigenvalues\n")
    (tmp_path / "chains.py").write_text("".join(lines))
    assert _unreached(tmp_path) == [("chains", "SpectralDecomposition.orphan_member")]


def _dead_imports(src: Path = SRC) -> list[tuple[str, str]]:
    """(module, name) of each imported name that its scope never loads."""
    dead = []
    for stem, tree in _modules(src).items():
        scopes = [tree, *(n for n in ast.walk(tree)
                          if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))]
        for scope in scopes:
            nested = {n for n in ast.iter_child_nodes(scope)
                      if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
            imported = [(alias.asname or alias.name).split(".")[0]
                        for node in _walk(scope, skip=nested)
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                        and getattr(node, "module", None) != "__future__"
                        for alias in node.names]
            loaded = {n.id for n in ast.walk(scope)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            dead += [(stem, name) for name in imported if name not in loaded]
    return dead


def test_every_import_is_used():
    assert _dead_imports() == []


def test_finds_a_planted_dead_import(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "thermo.py", "a") as fh:
        fh.write("\n\ndef planted():\n    from .chains import pi_inner\n    return 0\n")
    with open(tmp_path / "io.py", "a") as fh:
        fh.write("\nfrom .chains import ReversibleChain\n")
    assert _dead_imports(tmp_path) == [("io", "ReversibleChain"), ("thermo", "pi_inner")]


def _call_name(func: ast.expr) -> str | None:
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _dataclass_fields(tree: ast.Module):
    """(class name, field node) of each annotated field of each dataclass."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(
                _call_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                for d in cls.decorator_list):
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    yield cls.name, node


def _unread_fields(src: Path = SRC) -> list[tuple[str, str]]:
    """(module, "Class.field") of each dataclass field that no package code loads."""
    modules = _modules(src)
    loaded = {n.attr for tree in modules.values() for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted((module, f"{cls}.{node.target.id}") for module, tree in modules.items()
                  for cls, node in _dataclass_fields(tree) if node.target.id not in loaded)


def _settings(tree: ast.Module):
    """(call name, qualified name, position or None, parameter) of each
    parameter and init field with a default; position None is keyword-only."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            if positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            for i in range(len(positional) - len(args.defaults), len(positional)):
                yield node.name, f"{node.name}.{positional[i]}", i, positional[i]
            for a, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, f"{node.name}.{a.arg}", None, a.arg
    position: dict[str, int] = {}       # class -> index of its last init field
    for cls, node in _dataclass_fields(tree):
        value = node.value
        is_field = isinstance(value, ast.Call) and _call_name(value.func) == "field"
        keywords = {k.arg: k.value for k in value.keywords} if is_field else {}
        if getattr(keywords.get("init"), "value", True) is False:
            continue
        i = position[cls] = position.get(cls, -1) + 1
        if ({"default", "default_factory"} & keywords.keys() if is_field
                else value is not None):
            yield cls, f"{cls}.{node.target.id}", i, node.target.id


def _passed(modules: dict[str, ast.Module]) -> set[tuple[str, int | str]]:
    """(call name, position or keyword) of every argument that a package call
    passes; a partial binds its arguments, and a name bound to it passes the
    rest after them.  A starred argument passes nothing by name."""
    calls = []
    aliases = {}                        # name bound to a partial -> (callee, offset)
    for tree in modules.values():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and _call_name(node.value.func) == "partial"):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases[target.id] = (_call_name(node.value.args[0]),
                                              len(node.value.args) - 1)
            if isinstance(node, ast.Call):
                calls.append(node)
    passed = set()
    for call in calls:
        name, offset, args = _call_name(call.func), 0, call.args
        if name == "partial":
            name, args = _call_name(args[0]), args[1:]
        elif name in aliases:
            name, offset = aliases[name]
        for i, arg in enumerate(args):
            if isinstance(arg, ast.Starred):
                break
            passed.add((name, offset + i))
        passed |= {(name, k.arg) for k in call.keywords if k.arg is not None}
    return passed


def _unpassed_settings(src: Path = SRC) -> list[tuple[str, str]]:
    """(module, qualified name) of each default that no package call overrides."""
    modules = _modules(src)
    passed = _passed(modules)
    return sorted({(module, qualified) for module, tree in modules.items()
                   for name, qualified, position, param in _settings(tree)
                   if (name, param) not in passed and (name, position) not in passed})


def test_every_field_is_read():
    unread = _unread_fields()
    assert [f for f in unread if f not in UNREAD] == []
    assert [f for f in UNREAD if f not in unread] == []    # no stale entry


def test_every_setting_is_set():
    unpassed = _unpassed_settings()
    assert [s for s in unpassed if s not in UNPASSED] == []
    assert [s for s in UNPASSED if s not in unpassed] == []    # no stale entry


def test_finds_a_planted_unread_field(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "thermo.py", "a") as fh:
        fh.write("\n\n@dataclass(frozen=True)\nclass Planted:\n    planted_read: int\n"
                 "    orphan_field: int = 0\n\n\ndef planted(p):\n    return p.planted_read\n")
    assert _unread_fields(tmp_path) == sorted([*UNREAD, ("thermo", "Planted.orphan_field")])


def test_finds_a_planted_unpassed_setting(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "thermo.py", "a") as fh:
        # defaults passed by position, through a partial, and by no call at all
        fh.write("\n\ndef planted(x, by_position=1, by_partial=2, orphan_setting=3):\n"
                 "    bound = partial(planted, x, 0)\n"
                 "    return planted(x, 4) + bound(5)\n")
    assert _unpassed_settings(tmp_path) == sorted(
        [*UNPASSED, ("thermo", "planted.orphan_setting")])


def test_every_export_resolves():
    assert sorted(sr.__all__) == sr.__all__ and set(sr.__all__) <= set(dir(sr))
    for name in sr.__all__:
        value = getattr(sr, name)
        # the object its defining module holds, not a copy
        assert getattr(sys.modules[value.__module__], name) is value, name
