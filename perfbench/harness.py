"""Workloads, timing loop, reference gate and provenance of the benchmark.

A workload is set up once per repetition (point set, model, partition, model
files) and then certified repeatedly: one *unit* is one certification call
for a plane workload and one `roelab verify-bec` invocation per chain model
for `chain_sweep`.  Every unit runs on freshly built operators, because
`ControlledOperator` caches its eigendecomposition and a reused operator
would skip the bulk solve.  Every certified point is compared with the
checked-in reference values.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import roelab.bulkedge as bulkedge
import roelab.cli as cli
import roelab.geometry as geometry
import roelab.models as models
from roelab.operators import ControlledOperator

from tracer import EIGH, LAYER_FUNCTIONS, STATS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
RAW_TOL = 1e-8
SETUP_CHILDREN = 4          # set-ups in fresh interpreters besides the run's own
CHILD_TIMEOUT_S = 120


# ---------------------------------------------------------------------------
# certified points and the reference gate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Point:
    key: str              # e.g. "clean", "ssh/disorder/3001", "kitaev/truncation/1.5"
    bulk_raw: float
    bulk_snapped: int | None
    edge_raw: float
    edge_snapped: int | None
    passed: bool

    def values(self) -> dict:
        return {"bulk_raw": self.bulk_raw, "bulk_snapped": self.bulk_snapped,
                "edge_raw": self.edge_raw, "edge_snapped": self.edge_snapped}


def point_failure(pt: Point, ref: dict) -> str | None:
    """Why a certified point deviates from the workload's reference, or None.

    A point with a reference entry must match both snapped values and both
    raws to RAW_TOL.  A disorder point without one (its seed is not the
    default workload seed) is checked on snapped values only, against the
    default seed's disorder points of the same model.
    """
    if not pt.passed:
        return "verdict failed"
    want = ref.get(pt.key)
    if want is None:
        prefix = pt.key.rsplit("/", 1)[0] + "/"
        same = [v for k, v in sorted(ref.items()) if k.startswith(prefix)]
        if not prefix.endswith("/disorder/") or not same:
            return "no reference value"
        want = {k: same[0][k] for k in ("bulk_snapped", "edge_snapped")}
    for side in ("bulk", "edge"):
        if pt.values()[f"{side}_snapped"] != want[f"{side}_snapped"]:
            return f"{side} snapped {pt.values()[f'{side}_snapped']} != {want[f'{side}_snapped']}"
        if f"{side}_raw" in want and abs(pt.values()[f"{side}_raw"] - want[f"{side}_raw"]) > RAW_TOL:
            return f"{side} raw drifted by {pt.values()[f'{side}_raw'] - want[f'{side}_raw']:.3e}"
    return None


def load_reference(name: str) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)[name]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Unit:
    """One certification call: `prepare` is untimed, `run` is the timed call."""

    label: str
    prepare: object
    run: object
    n_points: int
    solves: int       # eigendecompositions one call must perform


@dataclass(frozen=True)
class Plane:
    """`make_bulk` + `verify_bec` on one plane model; one point per call."""

    name: str
    model: str
    params: dict
    lattice: str
    size: float
    cut: float
    windows: tuple
    edge_windows: tuple
    solves: int

    def setup(self, seed: int, workdir: Path) -> dict:
        ps = geometry.generate({"kind": self.lattice,
                                "window": [[0, self.size], [0, self.size]]})
        module, H, spec = models.build_model(self.model, self.params, ps)
        part = geometry.partition_halfspace(ps, [1.0, 0.0], self.cut)
        return {"module": module, "H": H, "spec": spec, "part": part,
                "dims": {self.model: {"bulk": module.dim,
                                      "edge": len(part.plus_ids) * H.m}}}

    def units(self, ctx: dict) -> list[Unit]:
        H = ctx["H"]
        cfg = {"windows": self.windows, "edge_windows": self.edge_windows}

        def prepare():
            return ControlledOperator(H.module, H.matrix, H.declared_propagation,
                                      hermitian=True)

        def run(fresh):
            bulk = bulkedge.make_bulk(ctx["module"], fresh, ctx["spec"])
            rep = bulkedge.verify_bec(bulk, ctx["part"], cfg)
            return [Point("clean", rep.bulk.raw, rep.bulk.snapped, rep.edge.raw,
                          rep.edge.snapped, bool(rep.passed))]

        return [Unit(self.model, prepare, run, 1, self.solves)]


@dataclass(frozen=True)
class Chains:
    """One in-process `roelab verify-bec` per chain model, with a disorder
    sweep over seeds derived from the workload seed and a truncation sweep."""

    name: str
    chains: tuple         # ((model, params), ...)
    n: int
    cut: float
    windows: tuple
    n_disorder: int
    strength: float
    radii: tuple

    def disorder_seeds(self, seed: int) -> list[int]:
        return [1000 * seed + k for k in range(self.n_disorder)]

    def setup(self, seed: int, workdir: Path) -> dict:
        ps = geometry.generate({"kind": "chain", "window": [[0, self.n]]})
        part = geometry.partition_halfspace(ps, [1.0], self.cut)
        dims = {}
        for model, params in self.chains:
            module, H, spec = models.build_model(model, params, ps)
            cli.save_model(str(workdir / f"{model}.json"), H, spec,
                           model={"name": model, "params": params})
            dims[model] = {"bulk": module.dim, "edge": len(part.plus_ids) * H.m}
        return {"seed": seed, "workdir": workdir, "dims": dims}

    def units(self, ctx: dict) -> list[Unit]:
        seeds = ",".join(str(s) for s in self.disorder_seeds(ctx["seed"]))
        n_points = 1 + self.n_disorder + len(self.radii)
        units = []
        for model, _ in self.chains:
            src = ctx["workdir"] / f"{model}.json"
            out = ctx["workdir"] / f"{model}.out.json"
            argv = ["verify-bec", "--model-file", str(src), "--normal", "1",
                    "--offset", str(self.cut),
                    "--windows", ",".join(str(w) for w in self.windows),
                    "--seeds", seeds, "--disorder-strength", str(self.strength),
                    "--truncation-radii", ",".join(str(r) for r in self.radii),
                    "--out", str(out)]
            units.append(Unit(model, _remove_file(out),
                              _verify_bec_cli(model, argv, out), n_points,
                              2 * n_points))
        return units


def _remove_file(path: Path):
    def prepare():
        path.unlink(missing_ok=True)
    return prepare


def _verify_bec_cli(model: str, argv: list, out: Path):
    def run(_):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        with open(out) as fh:
            doc = json.load(fh)
        pts = [Point(f"{model}/clean", doc["bulk"]["raw"], doc["bulk"]["snapped"],
                     doc["edge"]["raw"], doc["edge"]["snapped"],
                     bool(doc["pass"]) and code == 0)]
        for s in doc["sweeps"]:
            tag = s["seed"] if s["kind"] == "disorder" else s["radius"]
            pts.append(Point(f"{model}/{s['kind']}/{tag}", s["bulk_raw"],
                             s["bulk_snapped"], s["edge_raw"], s["edge_snapped"],
                             bool(s["pass"]) and code == 0))
        return pts
    return run


WORKLOADS = {
    # Class A, d=2: one bulk solve and dense chern_even products.  No on-site
    # symmetry is declared, so this is the bypass for symmetry and spin-sector
    # optimisations.  22x22 (dim 968) rather than criterion 4's 30x30 keeps a
    # call near 3 s, so one run holds a dozen calls and its median is steady.
    "qwz_plane": Plane("qwz_plane", "qwz", {"m": 1.0}, "square", 22.0, 10.6,
                       (6, 7.5, 9), (4, 6, 8), solves=2),
    # Class AII, d=2 on the spin-resolved route: full-spinor solve, sector
    # solve and two kron-based symmetry checks.  14x14 (dim 952) for the same
    # reason; the layer mix stays that of the larger samples.
    "kane_mele_qsh": Plane("kane_mele_qsh", "kane_mele", {"lso": 0.06, "lv": 0.1},
                           "honeycomb", 14.0, 6.6, (3.5, 4.5, 5.5), (3, 4, 5),
                           solves=3),
    # AIII and D chains through the CLI: many mid-size solves on freshly built
    # operators, repeated symmetry checks and the serial sweep loop.  The only
    # workload that runs cli, models.disorder_blocks and operators.truncate.
    "chain_sweep": Chains("chain_sweep",
                          (("ssh", {"t1": 0.5, "t2": 1.0}),
                           ("kitaev", {"mu": 1.0, "t": 1.0, "delta": 1.0})),
                          n=250, cut=124.6, windows=(62, 87, 112),
                          n_disorder=4, strength=0.25, radii=(1.5, 2.5)),
}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy links (threadpoolctl is absent)."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(name: str, seed: int, dims: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": name, "seed": seed, "nproc": os.cpu_count(),
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(), "numpy": np.__version__,
            "scipy": scipy.__version__, "python": platform.python_version(),
            "git_commit": _git_commit(), "dims": dims}


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0

    def check(self, points: list[Point], ref: dict, expected: int, label: str):
        self.attempted += expected
        bad = expected - len(points)
        for pt in points:
            why = point_failure(pt, ref)
            if why:
                print(f"FAILED {label} {pt.key}: {why}", file=sys.stderr)
                bad += 1
        self.failed += bad


def _call(unit: Unit) -> tuple[float, list[Point]]:
    arg = unit.prepare()
    gc.collect()
    t0 = time.perf_counter()
    try:
        points = unit.run(arg)
    except Exception:
        traceback.print_exc()
        points = []
    return time.perf_counter() - t0, points


def _setup(wl, seed: int, workdir: Path) -> dict:
    ctx = wl.setup(seed, workdir)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((200, 200))
    np.linalg.eigh(A + A.T)          # load and warm BLAS before timing
    return ctx


@contextlib.contextmanager
def _workdir():
    """Scratch directory of this process inside the checkout, removed after."""
    path = ROOT / f".perfbench_work_{os.getpid()}"
    path.mkdir(exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run(name: str, seed: int, seconds: float, trace: bool, import_s: float,
        wl=None, ref: dict | None = None, children: bool = True) -> dict:
    """Run one workload; returns the result object of the benchmark contract.

    `wl` and `ref` default to the named workload and its checked-in
    reference; tests pass small ones that `run.py` cannot name, and turn
    `children` off: no set-up children, no single-threaded reference child.
    """
    wl = wl or WORKLOADS[name]
    ref = load_reference(name) if ref is None else ref
    with _workdir() as workdir:
        if trace:
            return _run_traced(wl, seed, seconds, ref, workdir, children)
        return _run_timed(wl, seed, seconds, ref, workdir, import_s, children)


def _timed_loop(units, seconds: float, step) -> list[float]:
    """Run `step(units)` until another round would pass `seconds`; at least
    once.  Returns the wall time of each round."""
    start = time.perf_counter()
    rounds = []
    while True:
        t0 = time.perf_counter()
        step(units)
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            return rounds


def _run_timed(wl, seed, seconds, ref, workdir, import_s, children) -> dict:
    t0 = time.perf_counter()
    ctx = _setup(wl, seed, workdir)
    setups = [import_s + time.perf_counter() - t0]
    for _ in range(SETUP_CHILDREN if children else 0):
        child = _child(["--workload", wl.name, "--seed", str(seed), "--child", "setup"])
        if child is None:
            raise RuntimeError("set-up child failed")
        setups.append(child["setup_s"])
    units = wl.units(ctx)
    out = Outcome()
    calls = {u.label: [] for u in units}

    def step(units):
        for u in units:
            dt, pts = _call(u)
            calls[u.label].append(dt)
            out.check(pts, ref, u.n_points, u.label)

    rounds = _timed_loop(units, seconds, step)
    round_s = statistics.median(rounds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "cert_s": (_cert_s(calls), "s", "median per model, mean over models; calls "
                   + ", ".join(f"{k} {_fmt(v)}" for k, v in calls.items())),
        "points_per_s": (out.attempted / len(rounds) / round_s, "1/s",
                         f"points of a round over the median round; {out.attempted} "
                         f"points in rounds {_fmt(rounds)}"),
        "setup_s": (statistics.median(setups), "s", "median of imports + set-up "
                    f"in this and {len(setups) - 1} fresh interpreters {_fmt(setups)}"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of the process"),
        "failed_frac": (out.failed / max(out.attempted, 1), "1",
                        f"{out.failed} of {out.attempted} points"),
    }
    _print_report(wl.name, seed, ctx["dims"], metrics)
    keep = ("cert_s", "points_per_s", "setup_s", "peak_rss_mb")
    return _result(out.failed == 0, out, {k: metrics[k][:2] for k in keep})


def _cert_s(calls: dict) -> float:
    """Median call time of each model, averaged over the models of a round."""
    return statistics.fmean(statistics.median(v) for v in calls.values())


def _fmt(times) -> str:
    return "[" + " ".join(f"{t:.3f}" for t in times) + "]"


def _run_traced(wl, seed, seconds, ref, workdir, children) -> dict:
    tracer = Tracer()
    with tracer:
        ctx = _setup(wl, seed, workdir)
    units = wl.units(ctx)
    out = Outcome()
    plain = {u.label: [] for u in units}
    traced = {u.label: [] for u in units}
    errors = []
    n_traced = 0

    def step(units):
        nonlocal n_traced
        for u in units:
            dt, pts = _call(u)
            plain[u.label].append(dt)
            out.check(pts, ref, u.n_points, u.label)
        n_traced += 1
        for u in units:
            tracer.call = f"{n_traced}/{u.label}"
            with tracer:
                dt, pts = _call(u)
            traced[u.label].append(dt)
            out.check(pts, ref, u.n_points, u.label)
            got = tracer.solves(tracer.call)
            if got != u.solves:
                errors.append(f"{tracer.call}: {got} eig solves, expected {u.solves} "
                              "(eig cache leaked between calls?)")

    _timed_loop(units, seconds, step)
    stats = tracer.layer_stats(n_traced)
    cert_plain, cert_traced = _cert_s(plain), _cert_s(traced)
    traced = [t for v in traced.values() for t in v]
    stats["trace.cert_s"] = cert_traced
    stats["trace.overhead"] = cert_traced / cert_plain - 1.0
    stats["trace.remainder_s"] = (sum(traced) - tracer.cert_self_s()) / len(traced)
    stats[f"{EIGH}.s_allthreads"] = 0.0      # stays 0 only without the child
    if children:
        child = _child(["--workload", wl.name, "--seed", str(seed), "--child", "all-threads"])
        if child is None or child["blas_threads"] not in (os.cpu_count(), None):
            errors.append(f"all-threads reference run failed: {child}")
        else:
            stats[f"{EIGH}.s_allthreads"] = child["eigh_s"]
            out.attempted += child["attempted"]
            out.failed += child["failed"]
    for e in errors:
        print(f"FAILED {e}", file=sys.stderr)
    _print_trace(wl.name, seed, ctx["dims"], stats, n_traced, len(units),
                 traced, tracer.cert_self_s(), cert_plain)
    metrics = {key: (val, METRIC_UNITS.get(key) or STAT_UNITS[key.rsplit(".", 1)[1]])
               for key, val in stats.items()}
    return _result(out.failed == 0 and not errors, out, metrics)


STAT_UNITS = {"s": "s", "self_s": "s", "calls": "count", "dim3": "count"}
# units of the per-layer metrics that are not <module>.<function>.<stat>
METRIC_UNITS = {f"{EIGH}.solves": "count", f"{EIGH}.hit_ratio": "1",
                f"{EIGH}.s_allthreads": "s", "trace.cert_s": "s",
                "trace.overhead": "1", "trace.remainder_s": "s"}


def per_layer_names() -> list[str]:
    names = [f"{fn}.{st}" for fn in LAYER_FUNCTIONS for st in STATS]
    return names + list(METRIC_UNITS)


def _child(args: list, env=None) -> dict | None:
    """Run `run.py` with `args` in a child; its last output line, or None."""
    cmd = [sys.executable, str(HERE / "run.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probe(name: str, seed: int, import_s: float) -> dict:
    """Body of a set-up child: imports (already done) plus one set-up."""
    with _workdir() as workdir:
        t0 = time.perf_counter()
        _setup(WORKLOADS[name], seed, workdir)
        return {"setup_s": import_s + time.perf_counter() - t0}


def all_threads_probe(name: str, seed: int) -> dict:
    """Body of the child with one BLAS thread per core: set up, trace one
    unit round."""
    wl = WORKLOADS[name]
    ref = load_reference(name)
    out = Outcome()
    tracer = Tracer()
    with _workdir() as workdir:
        ctx = _setup(wl, seed, workdir)
        for u in wl.units(ctx):
            tracer.call = u.label
            with tracer:
                _, pts = _call(u)
            out.check(pts, ref, u.n_points, u.label)
    return {"eigh_s": tracer.layer_stats(1)[f"{EIGH}.s"],
            "blas_threads": _blas_threads(),
            "attempted": out.attempted, "failed": out.failed}


def collect_points(name: str, seed: int) -> dict:
    """Every point of one unit round, as reference values."""
    wl = WORKLOADS[name]
    doc = {}
    with _workdir() as workdir:
        ctx = _setup(wl, seed, workdir)
        for u in wl.units(ctx):
            pts = u.run(u.prepare())
            doc.update({p.key: p.values() for p in pts if p.passed})
    return doc


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _result(correct: bool, out: Outcome, metrics: dict) -> dict:
    return {"correct": bool(correct), "attempted": int(out.attempted),
            "failed": int(out.failed),
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}


def _print_report(name, seed, dims, metrics):
    print("provenance " + json.dumps(provenance(name, seed, dims), sort_keys=True))
    for key, (val, unit, how) in metrics.items():
        print(f"{name} {key} = {val:.6g} {unit} ({how})")


def _print_trace(name, seed, dims, stats, n_traced, per_round, traced, self_s,
                 cert_plain):
    print("provenance " + json.dumps(provenance(name, seed, dims), sort_keys=True))
    print(f"{name} traced: {n_traced} round(s) of {per_round} call(s); per-layer "
          "figures are one set-up plus one round")
    for key in per_layer_names():
        print(f"  {key} = {stats[key]:.6g}")
    n = len(traced)
    print(f"{name} per traced call: self times of wrapped layers {self_s / n:.4f} s + "
          f"untraced remainder {stats['trace.remainder_s']:.4f} s = "
          f"{sum(traced) / n:.4f} s (mean of {n}); cert_s traced "
          f"{stats['trace.cert_s']:.4f} s vs untraced {cert_plain:.4f} s, "
          f"overhead {100 * stats['trace.overhead']:+.2f}%")
