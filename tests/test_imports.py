"""No module of the package imports a name it never uses or a module
outside the standard library, defines a name nothing reads, and the
package's public names and its settings are exactly the pinned lists.
README's Python examples import only public names.

`__init__.py` is left out of the unused-import check: its imports are
the package's public re-exports.
"""

import ast
import dataclasses
import inspect
import re
import sys
import types
from pathlib import Path

import pytest

import chromsched

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chromsched"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _used_names(tree: ast.AST) -> set[str]:
    """Every bare name read in the module, including names inside quoted
    annotations; `a.b.c` counts as a use of `a`."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = _used_names(tree)
    return sorted(name for name in imported if name not in used)


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from bisect import bisect_right as br, insort\n"
              "def f(x: 'Sequence') -> int:\n"
              "    return math.floor(br([], x))\n")
    assert unused_imports(source) == ["insort", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []


def foreign_imports(source: str) -> list[str]:
    """Top-level names of the modules `source` imports, anywhere in it,
    that are neither in the standard library nor relative imports of the
    package itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        roots = [m.split(".")[0] for m in modules]
        found += [r for r in roots
                  if r not in sys.stdlib_module_names and r != "chromsched"]
    return sorted(found)


def test_checker_flags_a_foreign_import():
    source = ("import math, numpy.linalg\n"
              "from . import model\n"
              "from chromsched.model import Instance\n"
              "def f():\n"
              "    from scipy.stats import f\n"
              "    return f\n")
    assert foreign_imports(source) == ["numpy", "scipy"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_imports_only_the_standard_library(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert foreign_imports(source) == []


def _defined(stmt: ast.stmt) -> list[str]:
    """Names a module-level statement defines: a function, a class or
    constants."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """`module.name` of every module-level function, class and constant in
    `sources` (module name -> source, `__init__` included) that no other
    statement of its module reads, that no module reads through a relative
    import, and that `__init__` neither defines nor re-exports."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    live = set()
    for module, tree in trees.items():
        reads = _used_names(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                source = node.module or "__init__"
                for alias in node.names:
                    if (module == "__init__"
                            or (alias.asname or alias.name) in reads):
                        live.add((source, alias.name))
    dead = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        reads = [_used_names(stmt) for stmt in tree.body]
        for i, stmt in enumerate(tree.body):
            for name in _defined(stmt):
                if (module, name) in live or any(
                        name in used for j, used in enumerate(reads) if j != i):
                    continue
                dead.append(f"{module}.{name}")
    return sorted(dead)


def test_checker_flags_a_dead_definition():
    sources = {
        "__init__": "from .a import public\n__version__ = '1'\n",
        "a": ("from .b import helper\n"
              "LIMIT = 3\n"
              "SPAN = LIMIT * 2\n"
              "def public(x: 'Shape') -> int:\n"
              "    return helper(x) + LIMIT\n"
              "def recursive(n):\n"
              "    return recursive(n - 1) if n else 0\n"
              "class Shape:\n"
              "    pass\n"),
        "b": ("def helper(x):\n"
              "    return x\n"
              "def unused():\n"
              "    return helper(1)\n"),
    }
    assert dead_definitions(sources) == ["a.SPAN", "a.recursive", "b.unused"]


def test_no_dead_definitions():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in PACKAGE.glob("*.py")}
    assert dead_definitions(sources) == []


#: The package's public API: every name `chromsched` exports that is not a
#: submodule and does not start with an underscore.  Adding or removing a
#: public name means editing this list.
PUBLIC_NAMES = [
    "AlgorithmSpec", "ColumnType", "EffectReport", "GenConfig",
    "IncompleteScheduleError", "Instance", "InstanceFormatError", "Job",
    "MachinePolicy", "NoSlotError", "Observation", "Operation",
    "PlacedOperation", "Rule", "RuleParams", "SaParams", "SaResult",
    "Schedule", "SchedulingError", "Structure", "TimeWindowSet", "Violation",
    "anova_effects", "effect_to_ratio", "generate_design", "generate_instance",
    "initial_temperature", "parse_algorithm", "read_instance",
    "read_schedule", "run_experiment", "run_lta", "run_sa",
    "schedule_metrics", "total_tardiness", "validate_schedule",
    "weekly_windows", "write_instance", "write_schedule",
]


def test_public_api_is_pinned():
    exported = sorted(name for name, value in vars(chromsched).items()
                      if not name.startswith("_")
                      and not isinstance(value, types.ModuleType))
    assert exported == sorted(PUBLIC_NAMES)


def readme_imports(text: str) -> list[str]:
    """Every name imported from `chromsched` in the fenced Python blocks of
    a Markdown text, read with the AST, not run."""
    names = []
    for block in re.findall(r"^```python\n(.*?)^```", text, re.M | re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "chromsched":
                names += [alias.name for alias in node.names]
    return names


def test_checker_reads_only_python_blocks():
    text = ("```python\n"
            "from chromsched import (run_lta,\n"
            "                        RuleParams)\n"
            "from chromsched.engine import compile_instance\n"
            "```\n"
            "```sh\nfrom chromsched import shell_text\n```\n")
    assert readme_imports(text) == ["run_lta", "RuleParams"]


def test_readme_imports_only_public_names():
    text = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    names = readme_imports(text)
    assert names
    assert sorted(set(names) - set(PUBLIC_NAMES)) == []


#: Every setting a caller can pass: the fields of the parameter records and
#: the parameters of `anova_effects`.  Adding or removing a setting means
#: editing this table.
SETTINGS = {
    chromsched.SaParams: ["structure", "cooling_factor", "max_iterations"],
    chromsched.RuleParams: ["rule", "machine_policy", "k1", "k2", "k3"],
    chromsched.GenConfig: ["n_jobs", "n_routings", "setup_ratio", "flex_mean",
                           "n_machines", "n_column_types", "seed",
                           "unchecked"],
    chromsched.anova_effects: ["observations", "response", "factors"],
}


@pytest.mark.parametrize("owner", list(SETTINGS),
                         ids=[owner.__name__ for owner in SETTINGS])
def test_settings_are_pinned(owner):
    if dataclasses.is_dataclass(owner):
        names = [f.name for f in dataclasses.fields(owner)]
    else:
        names = list(inspect.signature(owner).parameters)
    assert names == SETTINGS[owner]
