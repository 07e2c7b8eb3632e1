"""Regenerate reference.json: every point of every workload at the default seed.

    python3 perfbench/make_reference.py

Only for a deliberate change of the reference values; the benchmark compares
every run against the checked-in file.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402


def main():
    doc = {name: harness.collect_points(name, harness.DEFAULT_SEED)
           for name in harness.WORKLOADS}
    with open(harness.REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {harness.REFERENCE}")


if __name__ == "__main__":
    main()
