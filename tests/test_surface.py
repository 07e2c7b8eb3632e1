"""tools/surface.py: the summary line, then one `module: lines` line per
module that adds up to the summary's total."""

import ast
import pathlib
import re
import subprocess
import sys
import types

import roelab

ROOT = pathlib.Path(__file__).resolve().parents[1]
SUMMARY = re.compile(r"src/roelab: (\d+) lines \(non-blank, non-#\), (\d+) keyword parameters "
                     r"with defaults, (\d+) dataclass fields, (\d+) exported names")


def test_summary_and_per_module_lines():
    out = subprocess.run([sys.executable, "tools/surface.py", "src/roelab"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    total = SUMMARY.fullmatch(out[0])
    assert total, out[0]
    modules = [re.fullmatch(r"(\w+): (\d+)", line) for line in out[1:]]
    assert all(modules), out[1:]
    assert {m[1] for m in modules} == {p.stem for p in (ROOT / "src/roelab").glob("*.py")}
    assert sum(int(m[2]) for m in modules) == int(total[1])
    # every public name of the package namespace that is not a submodule
    exported = [name for name, value in vars(roelab).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert int(total[4]) == len(exported), sorted(exported)


def test_no_unused_module_imports():
    """Every name a `src/roelab` module imports at module level is used in
    that module; `__init__` is exempt, since it imports to re-export."""
    unused = []
    for path in sorted((ROOT / "src/roelab").glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for node in tree.body
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for name in ((a.asname or a.name.split(".")[0]) for a in node.names)
                   if name not in used]
    assert not unused, f"imported but never used: {unused}"


def test_every_definition_is_referenced():
    """Every function and class a `src/roelab` module defines (methods and
    nested functions too; dunders exempt, Python calls them) is referenced
    somewhere in `src`, `tests`, `demos` or `perfbench`: as a name, an
    attribute or a word of a string that is not a docstring (the tracer names
    layers as "<module>.<function>" strings)."""
    defined, used = {}, set()
    for path in sorted(p for d in ("src", "tests", "demos", "perfbench")
                       for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text())
        docs = {id(node.value) for node in ast.walk(tree)
                if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and id(node) not in docs:
                used.update(re.findall(r"\w+", node.value))
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and path.is_relative_to(ROOT / "src/roelab")
                  and not node.name.startswith("__")):
                defined.setdefault(node.name, f"{path.stem}.{node.name}")
    unused = sorted(where for name, where in defined.items() if name not in used)
    assert not unused, f"defined but never referenced: {unused}"
