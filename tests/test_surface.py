"""tools/surface.py: the summary line, then one `module: lines` line per
module that adds up to the summary's total."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SUMMARY = re.compile(r"src/roelab: (\d+) lines \(non-blank, non-#\), (\d+) keyword parameters "
                     r"with defaults, (\d+) dataclass fields")


def test_summary_and_per_module_lines():
    out = subprocess.run([sys.executable, "tools/surface.py", "src/roelab"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    total = SUMMARY.fullmatch(out[0])
    assert total, out[0]
    modules = [re.fullmatch(r"(\w+): (\d+)", line) for line in out[1:]]
    assert all(modules), out[1:]
    assert {m[1] for m in modules} == {p.stem for p in (ROOT / "src/roelab").glob("*.py")}
    assert sum(int(m[2]) for m in modules) == int(total[1])
