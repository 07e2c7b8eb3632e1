"""Certification benchmark of roelab: one workload per invocation.

    python3 perfbench/run.py --workload qwz_plane --seed 0 --seconds 34 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
With `--trace 0` it prints cert_s, points_per_s, setup_s, peak_rss_mb and
failed_frac; with `--trace 1` the per-layer figures of a traced run.  The
last line of standard output is the JSON result object.  See README.md.

BLAS runs on one thread: on a small shared host a stolen vCPU stalls every
multi-threaded BLAS call, and the timings would follow the neighbours' load.
The traced run reports the solver at one BLAS thread per core beside it.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _pin_blas(threads: int):
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def _import_library():
    """Import the harness, insisting that roelab comes from this checkout."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import roelab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import roelab from {SRC}: {exc}")
    if not Path(roelab.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: roelab resolved to {roelab.__file__}, not {SRC}")
    import harness
    return harness


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=34.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "all-threads"), default=None,
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    _pin_blas((os.cpu_count() or 1) if args.child == "all-threads" else 1)
    harness = _import_library()
    import_s = time.perf_counter() - T_START
    if args.workload not in harness.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {sorted(harness.WORKLOADS)}")
    if args.child == "setup":
        print(json.dumps(harness.setup_probe(args.workload, args.seed, import_s)))
        return 0
    if args.child == "all-threads":
        print(json.dumps(harness.all_threads_probe(args.workload, args.seed)))
        return 0
    res = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                      import_s)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
