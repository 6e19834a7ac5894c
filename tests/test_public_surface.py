"""Every public module-level function and class in `src/hsrl/` has a reader
outside the unit tests, and every private module-level function has a
caller inside `src/hsrl/`. The same holds for the methods of those classes,
dunders aside, counting only readers outside the method's own definition.

A name counts as used when `src/hsrl/` refers to it outside its own
definition, or when `tests/test_acceptance.py` or a `benchmarks/*.py` file
does. A reference is an identifier, an attribute, or a string constant equal
to the name (`benchmarks/tracer.py` wraps functions by their string names).
The scan matches names, not bindings, so a public name that is also an
attribute used elsewhere is hidden from it: an `autodiff.log` would pass
through `math.log`, and a `tokenizer.decode` through `bytes.decode`.

No public name relies on `tests/test_acceptance.py` alone for its reader
beyond the pinned `GATE_ONLY_NAMES`: a formula that only the gate reads is
a copy the program never runs, so the gate would test dead code.

No module of `src/hsrl/` imports or reads another `hsrl` module's
underscore name: what another module needs is public.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hsrl"
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))
OUTSIDE = [ROOT / "tests" / "test_acceptance.py", *BENCHMARKS]
# Public names whose only reader outside the unit tests is the acceptance
# gate: criterion 7 drives the ground-truth simulator, which no `src/` path
# builds yet.
GATE_ONLY_NAMES = frozenset({"GroundTruthResponse"})


def _referenced(nodes) -> Counter[str]:
    """Name -> number of references to it under `nodes`."""
    found = Counter()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found[node.id] += 1
            elif isinstance(node, ast.Attribute):
                found[node.attr] += 1
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                found[node.value] += 1
    return found


def _modules() -> dict[str, list[ast.stmt]]:
    return {p.name: ast.parse(p.read_text()).body for p in sorted(SRC.glob("*.py"))}


def _unread_public_names(readers=OUTSIDE) -> dict[str, str]:
    """Public name -> defining module, for every name that neither another
    module nor any of the `readers` files refers to."""
    outside = _referenced(ast.parse(p.read_text()) for p in readers)
    modules = _modules()
    unread = {}
    for module, body in modules.items():
        elsewhere = outside | _referenced(
            stmt for other, stmts in modules.items() if other != module
            for stmt in stmts)
        for node in body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in elsewhere
                    and node.name not in _referenced(s for s in body if s is not node)):
                unread[node.name] = module
    return unread


def test_every_public_name_has_a_reader_outside_unit_tests():
    unread = _unread_public_names()
    assert not unread, f"public names that only unit tests call: {unread}"


def test_only_the_pinned_public_names_rely_on_the_gate_alone():
    # a loss term the gate checks but the update does not call fails here
    gate_only = _unread_public_names(BENCHMARKS).keys() - _unread_public_names().keys()
    assert gate_only == GATE_ONLY_NAMES


def _orphaned_private_functions() -> dict[str, str]:
    """Private module-level function -> defining module, for every one that
    no other statement in `src/hsrl/` refers to."""
    stmts = [(module, stmt) for module, body in _modules().items() for stmt in body]
    refs = [_referenced([stmt]) for _, stmt in stmts]
    return {stmt.name: module for (module, stmt) in stmts
            if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_")
            and not any(stmt.name in found for (_, other), found in zip(stmts, refs)
                        if other is not stmt)}


def test_every_private_function_has_a_caller_in_src():
    # a helper whose last caller was deleted goes with it
    assert _orphaned_private_functions() == {}


def _unread_methods() -> dict[str, str]:
    """`Class.method` -> defining module, for every non-dunder method that
    nothing outside its own definition refers to: for a public method, no
    statement of `src/hsrl/` and no file outside the unit tests; for a
    private one, no statement of `src/hsrl/`."""
    modules = _modules()
    in_src = _referenced(stmt for body in modules.values() for stmt in body)
    outside = _referenced(ast.parse(p.read_text()) for p in OUTSIDE)
    unread = {}
    for module, body in modules.items():
        for cls in (node for node in body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if (not isinstance(node, ast.FunctionDef)
                        or node.name.startswith("__") and node.name.endswith("__")):
                    continue
                if in_src[node.name] > _referenced([node])[node.name]:
                    continue
                if node.name.startswith("_") or node.name not in outside:
                    unread[f"{cls.name}.{node.name}"] = module
    return unread


def test_every_method_has_a_reader_outside_its_definition():
    # a method whose last reader was deleted goes with it
    assert _unread_methods() == {}


def _foreign_private_reads() -> list[str]:
    """`module: line: name` for every underscore name (dunders aside) that a
    module of `src/hsrl/` imports from, or reads off, another `hsrl` module."""
    found = []
    for module, body in _modules().items():
        aliases = set()  # names this module binds to hsrl modules
        for node in (n for stmt in body for n in ast.walk(stmt)):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "hsrl"):
                for name in node.names:
                    if node.module in (None, "hsrl"):  # `from . import env as env_mod`
                        aliases.add(name.asname or name.name)
                    elif name.name.startswith("_") and not name.name.startswith("__"):
                        found.append(f"{module}: {node.lineno}: {name.name}")
            elif isinstance(node, ast.Import):
                aliases.update(name.asname for name in node.names
                               if name.asname and name.name.startswith("hsrl."))
        for node in (n for stmt in body for n in ast.walk(stmt)):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and node.attr.startswith("_")
                    and not node.attr.startswith("__")):
                found.append(f"{module}: {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    # a name another module needs is public; its underscore says it is not
    assert _foreign_private_reads() == []
