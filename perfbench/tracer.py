"""Per-layer spans recorded from outside the library.

`Tracer` wraps the public functions of each `roelab` module on the
certification path.  It replaces every binding of a wrapped function in every
loaded `roelab` module (the defining module, the modules that imported the
name, and the package namespace), so calls are seen wherever the pipeline
looks the name up.  `ControlledOperator.eigh` is wrapped on the class.  Spans
are kept in memory with their parent span and the id of the certification
call they belong to; `uninstall` puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

# Layer functions on the certification path, as <module>.<function>.
# `bloch` holds momentum-space oracles off the path and is not traced.
LAYER_FUNCTIONS = (
    "geometry.generate", "geometry.partition_halfspace",
    "models.build_model", "models.disorder_blocks",
    "symmetry.verify_symmetry",
    "operators.eigh", "operators.certify_gap", "operators.flatten",
    "operators.compress", "operators.truncate",
    "indices.occupied_projection", "indices.chern_even", "indices.chern_odd",
    "indices.spin_sectors", "indices.edge_conductance", "indices.edge_fredholm",
    "bulkedge.make_bulk", "bulkedge.make_edge", "bulkedge.verify_bec",
    "cli.main", "cli.load_model",
)
EIGH = "operators.eigh"
STATS = ("s", "self_s", "calls", "dim3")


@dataclass
class Span:
    id: int
    parent: int | None
    call: str
    name: str
    start: float
    end: float
    dim3: float
    solve: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


def _operator_dim(args) -> int | None:
    """Dimension of the first operator argument (a BulkSystem counts by its H)."""
    from roelab.operators import ControlledOperator
    for a in args:
        if isinstance(a, ControlledOperator):
            return a.module.dim
        H = getattr(a, "H", None)
        if isinstance(H, ControlledOperator):
            return H.module.dim
    return None


class Tracer:
    """Install with `with Tracer() as tr:`; spans land in `tr.spans`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.call = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def _targets(self):
        for name in LAYER_FUNCTIONS:
            mod_name, fn_name = name.split(".")
            mod = importlib.import_module(f"roelab.{mod_name}")
            if name == EIGH:
                yield name, mod.ControlledOperator, "eigh", None
            else:
                yield name, None, fn_name, getattr(mod, fn_name)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "roelab" or k.startswith("roelab."))]
        for name, owner, attr, original in self._targets():
            if owner is not None:
                fn = owner.__dict__[attr]
                self._patch(owner, attr, fn, self._wrap(name, fn))
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                if vars(mod).get(attr) is original:
                    self._patch(mod, attr, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans --------------------------------------------------------------

    def _wrap(self, name, fn):
        is_eigh = name == EIGH

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            solve = is_eigh and not args[0]._eig_cache
            dim = _operator_dim(args)
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                work = float(dim) ** 3 if dim and (solve or not is_eigh) else 0.0
                self.spans[span_id] = Span(span_id, parent, self.call, name,
                                           start, end, work, solve)
        return traced

    def solves(self, call: str) -> int:
        return sum(sp.solve for sp in self.spans if sp.call == call)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        own = {sp.id: sp.duration for sp in self.spans}
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.duration
        return own

    def layer_stats(self, cert_calls: int) -> dict[str, float]:
        """Per-layer totals for one set-up plus one certification unit.

        Set-up spans count once; spans of the `cert_calls` traced
        certification units are averaged over them.
        """
        own = self.self_times()
        out = {f"{fn}.{st}": 0.0 for fn in LAYER_FUNCTIONS for st in STATS}
        requests = solves = 0
        for sp in self.spans:
            w = 1.0 if sp.call == "setup" else 1.0 / cert_calls
            out[f"{sp.name}.s"] += w * sp.duration
            out[f"{sp.name}.self_s"] += w * own[sp.id]
            out[f"{sp.name}.calls"] += w
            out[f"{sp.name}.dim3"] += w * sp.dim3
            if sp.name == EIGH:
                requests += 1
                solves += sp.solve
                out[f"{EIGH}.solves"] = out.get(f"{EIGH}.solves", 0.0) + w * sp.solve
        out.setdefault(f"{EIGH}.solves", 0.0)
        out[f"{EIGH}.hit_ratio"] = (requests - solves) / requests if requests else 0.0
        return out

    def cert_self_s(self) -> float:
        """Self time of every span inside certification units (not set-up)."""
        own = self.self_times()
        return sum(own[sp.id] for sp in self.spans if sp.call != "setup")
