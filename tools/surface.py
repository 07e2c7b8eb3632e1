#!/usr/bin/env python3
"""Print the three size figures of a package: its code lines, the keyword
parameters with defaults of its functions and the fields of its dataclasses.
One line per module follows the summary with that module's code lines.

Code lines are the non-blank lines whose first character, after indentation,
is not `#`.  Keyword parameters with defaults count the positional and the
keyword-only defaults of every `def` (lambdas excluded).  Dataclass fields
count the annotated class attributes of every class decorated with
`dataclass` or `dataclass(...)`.

    python3 tools/surface.py [package directory, default src/roelab]
"""

import ast
import pathlib
import sys


def is_dataclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        isinstance(f := d.func if isinstance(d, ast.Call) else d, ast.Name)
        and f.id == "dataclass" for d in node.decorator_list)


root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "src/roelab")
defaults = fields = 0
per_module = {}
for path in sorted(root.glob("*.py")):
    text = path.read_text()
    per_module[path.stem] = sum(1 for s in text.splitlines()
                                if s.strip() and not s.lstrip().startswith("#"))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        if is_dataclass(node):
            fields += sum(isinstance(s, ast.AnnAssign) for s in node.body)
print(f"{root}: {sum(per_module.values())} lines (non-blank, non-#), "
      f"{defaults} keyword parameters with defaults, {fields} dataclass fields")
for module, lines in per_module.items():
    print(f"{module}: {lines}")
