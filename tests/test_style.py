"""Source layout rules that no installed formatter enforces."""

import ast
from pathlib import Path

import selfconj

SOURCES = sorted(Path(selfconj.__file__).parent.glob("*.py"))


def test_no_source_line_exceeds_100_columns():
    assert SOURCES
    long = [
        f"{path.name}:{n}"
        for path in SOURCES
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 100
    ]
    assert not long


def _unused_imports(source: str) -> list[str]:
    """Names the module imports and neither uses nor lists in __all__."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_the_unused_import_rule_sees_a_stale_import():
    source = "from types import SimpleNamespace\nimport numpy as np\n\nx = np.zeros(2)\n"
    assert _unused_imports(source) == ["SimpleNamespace (line 1)"]
    assert _unused_imports("import os\n__all__ = ['os']\n") == []


def test_every_import_is_used():
    unused = {path.name: _unused_imports(path.read_text()) for path in SOURCES}
    assert not {name: names for name, names in unused.items() if names}


def _unloaded_private_names(sources: dict) -> list[str]:
    """Module-level private names (a def, a class or an assignment) that no
    module of `sources` loads; a decorated def is a registration, exempt."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.decorator_list:
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name, node.lineno) for name in names]
    return [
        f"{module}:{name} (line {line})"
        for module, name, line in defined
        if name.startswith("_") and not name.startswith("__") and name not in loaded
    ]


def test_the_dead_code_rule_sees_a_stale_private_name():
    stale = (
        "def _orphan():\n    return 1\n\n"
        "_TABLE, _SPARE = {}, []\n\n"
        "@register\ndef _entry():\n    pass\n\n"
        "def public():\n    return _TABLE\n"
    )
    other = "import stale\n\nx = stale._helper()\n"
    helper = "def _helper():\n    return 2\n"
    found = _unloaded_private_names({"stale.py": stale + helper, "other.py": other})
    assert found == ["stale.py:_orphan (line 1)", "stale.py:_SPARE (line 4)"]


def test_every_private_name_is_loaded_somewhere_in_the_package():
    assert not _unloaded_private_names({path.name: path.read_text() for path in SOURCES})


_CACHES = {"cache", "lru_cache"}


def _process_caches(source: str) -> list[str]:
    """Module-level functions decorated with functools.cache or lru_cache:
    a cache that outlives a run, so that a process's first run does work its
    later runs skip.  Nested defs (a per-run cache) and methods are exempt."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name in _CACHES:
                found.append(f"{node.name} (line {node.lineno})")
    return found


def test_the_cache_rule_sees_a_stale_process_cache():
    stale = (
        "import functools\nfrom functools import cache, lru_cache\n\n"
        "@functools.cache\ndef _samples(seed):\n    return seed\n\n"
        "@lru_cache(maxsize=None)\ndef table():\n    return {}\n\n"
        "@cache\ndef basis():\n    return []\n\n"
        "def run(cfg):\n    @functools.cache\n    def grid(conv):\n        return conv\n"
        "    return grid(cfg)\n\n"
        "class Config:\n    @functools.cached_property\n    def convention(self):\n"
        "        return 0\n"
    )
    assert _process_caches(stale) == ["_samples (line 5)", "table (line 9)", "basis (line 13)"]


def test_no_module_level_function_caches_across_runs():
    caches = {path.name: _process_caches(path.read_text()) for path in SOURCES}
    assert not {name: found for name, found in caches.items() if found}


# the package modules each module may import: the layers build upward, and
# only the CLI sits above the checks
_LAYERS = {
    "linalg": set(),
    "halfspin": {"linalg"},
    "fock": {"linalg"},
    "spin1": {"linalg", "halfspin"},
    "fieldops": {"linalg", "halfspin"},
    "checks": {"linalg", "halfspin", "fock", "spin1", "fieldops"},
}


def _package_imports(source: str) -> list[tuple[str, int]]:
    """(module, line) for every import of a package module, function-level
    imports included; relative and absolute (`selfconj.x`) forms alike."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [a.name.split(".") for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = (["selfconj"] if node.level else []) + (node.module or "").split(".")
            paths = [[p for p in module if p] + [a.name] for a in node.names]
        else:
            continue
        found += [(path[1], node.lineno) for path in paths if path[:1] == ["selfconj"]]
    return found


def _layer_violations(sources: dict) -> list[str]:
    out = []
    for name, source in sources.items():
        module = name.removesuffix(".py")
        if module in _LAYERS:
            out += [
                f"{name}: {imported} (line {line})"
                for imported, line in _package_imports(source)
                if imported not in _LAYERS[module]
            ]
    return out


def test_the_layer_rule_sees_an_import_from_above():
    stale = (
        "from .linalg import apply\n\n\n"
        "class SpinorGrid:\n"
        "    def six(self):\n"
        "        from .spin1 import weinberg_u\n\n"
        "        return weinberg_u(self)\n"
    )
    checks = "from . import halfspin, cli\nimport selfconj.cli\nfrom selfconj.spin1 import J1\n"
    found = _layer_violations({"halfspin.py": stale, "checks.py": checks, "cli.py": checks})
    assert found == [
        "halfspin.py: spin1 (line 6)",
        "checks.py: cli (line 1)",
        "checks.py: cli (line 2)",
    ]


def test_package_imports_follow_the_layers():
    assert not _layer_violations({path.name: path.read_text() for path in SOURCES})


# the one function that may set `_make`: the base factory of the records
# that validate in __new__; the one class that may set equality: the base of
# the records of arrays; the one class that may define `__setattr__`: the
# config, whose instance dict holds its grid arrays and convention
_RECORD_FACTORY = ("linalg.py", "record")
_IDENTITY_BASE = ("linalg.py", "ByIdentity")
_GUARDED = ("checks.py", "SuiteConfig")
_EQUALITY = {"__eq__", "__ne__", "__hash__"}


def _called(node) -> str:
    """The name a base, decorator or target ends in: `x`, `a.x`, `x(...)`."""
    if isinstance(node, ast.Call):
        return _called(node.func)
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _assigned(node) -> list[str]:
    """The names an assignment binds, through tuple targets."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [_called(n) for t in targets for n in (t.elts if isinstance(t, ast.Tuple) else [t])]


def _stray_records(sources: dict) -> list[str]:
    """Records declared otherwise than with collections.namedtuple: a class
    based on typing.NamedTuple, a dataclass, a `_make` assigned outside the
    one base factory, a hand-built class (an `__init__`, a `__setattr__`
    guard or a write through object.__setattr__) or an equality declared
    outside the one identity base."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            factory = isinstance(top, ast.FunctionDef) and (module, top.name) == _RECORD_FACTORY
            for node in ast.walk(top):
                if isinstance(node, ast.ClassDef):
                    if "NamedTuple" in map(_called, node.bases):
                        found.append(f"{module}:{node.name} is a NamedTuple")
                    if "dataclass" in map(_called, node.decorator_list):
                        found.append(f"{module}:{node.name} is a dataclass")
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            names = [item.name]
                        elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                            names = _assigned(item)
                        else:
                            continue
                        if "__init__" in names:
                            found.append(f"{module}:{node.name} defines __init__")
                        if "__setattr__" in names and (module, node.name) != _GUARDED:
                            found.append(f"{module}:{node.name} defines __setattr__")
                        if _EQUALITY & set(names) and (module, node.name) != _IDENTITY_BASE:
                            found.append(f"{module}:{node.name} declares its equality")
                elif isinstance(node, (ast.Assign, ast.AnnAssign)) and not factory:
                    if "_make" in _assigned(node):
                        found.append(f"{module}: _make assigned (line {node.lineno})")
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if (_called(node.func.value), node.func.attr) == ("object", "__setattr__"):
                        found.append(f"{module}: object.__setattr__ (line {node.lineno})")
    return found


def test_the_record_rule_sees_stale_records():
    stale = (
        "import dataclasses, typing\nfrom typing import NamedTuple\n\n"
        "class Report(NamedTuple):\n    x: float\n\n"
        "class Pair(typing.NamedTuple):\n    a: int\n\n"
        "@dataclasses.dataclass(frozen=True)\nclass Label:\n    tag: int\n\n"
        "class Momentum(namedtuple('Momentum', 'm p')):\n"
        "    _make = classmethod(lambda cls, it: cls(*it))\n"
    )
    linalg = (
        "def record(name, fields):\n    base = namedtuple(name, fields)\n"
        "    base._make = classmethod(lambda cls, it: cls(*it))\n    return base\n\n"
        "def other(base):\n    base._make = None\n"
    )
    assert _stray_records({"stale.py": stale, "linalg.py": linalg}) == [
        "stale.py:Report is a NamedTuple",
        "stale.py:Pair is a NamedTuple",
        "stale.py:Label is a dataclass",
        "stale.py: _make assigned (line 15)",
        "linalg.py: _make assigned (line 7)",
    ]
    # the factory is exempt only in linalg
    assert _stray_records({"halfspin.py": linalg}) == [
        "halfspin.py: _make assigned (line 3)",
        "halfspin.py: _make assigned (line 7)",
    ]
    # a hand-built record, a restated identity and a second guard
    built = (
        "class FockVector:\n    __slots__ = ('amps',)\n\n"
        "    def __init__(self, amps):\n        object.__setattr__(self, 'amps', amps)\n\n"
        "    def __setattr__(self, name, value):\n        raise AttributeError(name)\n\n"
        "class Grid(namedtuple('Grid', 'family')):\n"
        "    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__\n\n"
        "class Op(namedtuple('Op', 'matrix')):\n    __hash__ = object.__hash__\n\n"
        "class SuiteConfig(record('SuiteConfig', 'masses')):\n"
        "    def __setattr__(self, name, value):\n        raise AttributeError(name)\n\n"
        "class ByIdentity:\n"
        "    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__\n"
    )
    assert _stray_records({"fock.py": built}) == [
        "fock.py:FockVector defines __init__",
        "fock.py:FockVector defines __setattr__",
        "fock.py: object.__setattr__ (line 5)",
        "fock.py:Grid declares its equality",
        "fock.py:Op declares its equality",
        "fock.py:SuiteConfig defines __setattr__",
        "fock.py:ByIdentity declares its equality",
    ]
    # the config's guard and the identity base are exempt only where declared
    guarded = built[built.index("class SuiteConfig"):]
    assert _stray_records({"checks.py": guarded}) == ["checks.py:ByIdentity declares its equality"]
    assert _stray_records({"linalg.py": guarded}) == ["linalg.py:SuiteConfig defines __setattr__"]


def test_records_are_declared_one_way():
    assert not _stray_records({path.name: path.read_text() for path in SOURCES})
