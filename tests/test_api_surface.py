"""Every public name of the package is reached by the package itself, and
every name the benchmark tracer reads is defined.

A public module-level function or class of src/ghrv counts as reached when
its name occurs as a name or an attribute somewhere in src/ghrv (the
re-exports in __init__.py left out) or in perfbench/; a public method of
such a class counts only when it occurs as an attribute (`.name`), since a
local variable of the same name does not call it.  A name nothing reaches
is dead code unless it is an oracle the tests run against the fast path, or
a fixture the tests share; those are listed below with their reason.

perfbench/tracer.py wraps the functions and methods of ghrv and reads its
metrics by span name, module.function or module.Class.method; a metric whose
span is never wrapped stops the traced run with a ValueError.

The package declares no dependencies, so every import in src/ghrv is of the
package itself or of the standard library; the tests may use more (sympy is
their oracle for emptiness), the package may not.
"""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ghrv"

ALLOWED = {
    "matrix.rank_by_minors": "oracle: exhaustive minor search for rank_over_domain",
    "variety.rank_over_R_by_minors": "oracle: exhaustive minor search for rank_over_R",
    "complexes.trivial_pair": "shared fixture: the contractible pair (1, w)",
    "fields.ExtensionField.generator": "shared fixture: a named element outside the prime subfield",
    "complexes.koszul_differential": "oracle: the fold at one degree, for criterion 8 and the Shamash window",
    "complexes.xi_wedge": "oracle: the fold at one degree, for criterion 8 and the Shamash window",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions() -> list[str]:
    """Qualified names module.name and module.Class.method of every public
    definition in src/ghrv."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                out.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef) and _public(node.name):
                out.extend(
                    f"{module}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and _public(item.name)
                )
    return out


def reached_names() -> tuple[set[str], set[str]]:
    """The names and the attributes that occur in src/ghrv and perfbench/."""
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def test_every_public_name_is_reached_or_allowed():
    names, attributes = reached_names()
    defined = public_definitions()

    def unreached(qualified):
        *owner, name = qualified.split(".")
        return name not in (attributes if len(owner) == 2 else names | attributes)

    dead = [q for q in defined if unreached(q) and q not in ALLOWED]
    assert dead == [], "public names nothing in src/ghrv or perfbench/ reaches: " + ", ".join(dead)
    stale = [q for q in ALLOWED if q not in defined or not unreached(q)]
    assert stale == [], "allowed names that are gone or now reached: " + ", ".join(stale)


def traced_names() -> set[str]:
    """Span names perfbench/tracer.py reads: the first argument of every
    _busy, _calls and _self call, and the names in KEYED, HOOKS, METHODS
    and the members of GROUPS.  GROUPS keys name sums of spans, not spans."""
    names, groups = set(), {}
    for node in ast.walk(ast.parse((ROOT / "perfbench" / "tracer.py").read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("_busy", "_calls", "_self")):
            names.add(ast.literal_eval(node.args[0]))
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            target = node.targets[0].id
            if target == "KEYED":
                names.update(ast.literal_eval(node.value))
            elif target == "HOOKS":
                names.update(ast.literal_eval(key) for key in node.value.keys)
            elif target == "METHODS":
                names.update(".".join(m) for m in ast.literal_eval(node.value))
            elif target == "GROUPS":
                groups = ast.literal_eval(node.value)
    names.update(member for members in groups.values() for member in members)
    return names - set(groups)


def _wrapped(name: str) -> bool:
    """Whether the tracer finds `name`: a public function of ghrv.<module>,
    or a method of a class there, defined in that module."""
    module, *path = name.split(".")
    obj = importlib.import_module(f"ghrv.{module}")
    for attr in path:
        obj = vars(obj).get(attr) if obj is not None else None
    return (callable(obj) and not isinstance(obj, type) and not path[0].startswith("_")
            and getattr(obj, "__module__", None) == f"ghrv.{module}")


def test_every_traced_name_is_defined():
    names = traced_names()
    assert names
    missing = sorted(name for name in names if not _wrapped(name))
    assert missing == [], "names perfbench/tracer.py reads that src/ghrv lacks: " + ", ".join(missing)


def foreign_imports(paths) -> list[str]:
    """Each import in the files, nested ones included, of a module that is
    neither relative, __future__ nor in the standard library, as
    file:line: module."""
    out = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            out += [f"{path.name}:{node.lineno}: {module}" for module in modules
                    if module != "__future__" and module.split(".")[0] not in sys.stdlib_module_names]
    return out


def test_the_package_imports_only_itself_and_the_standard_library(tmp_path):
    paths = sorted(SRC.glob("*.py"))
    assert foreign_imports(paths) == []
    # a nested import is seen too
    nested = tmp_path / "nested.py"
    nested.write_text("def f():\n    from sympy import groebner\n    import numpy.linalg, json\n")
    assert foreign_imports([nested]) == ["nested.py:2: sympy", "nested.py:3: numpy.linalg"]
