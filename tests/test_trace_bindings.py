"""The traced benchmark still sees every layer it times.

`perfbench/tracer.py` wraps each function in its `LAYER_FUNCTIONS` wherever
the roelab modules bind it.  A change that renames a layer function, or makes
the pipeline reach a pairing other than through the module globals the tracer
patches, would leave that layer untimed; this guard catches it in the tier-1
suite instead of only in a traced benchmark run.  The tracer file is loaded
by path and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import roelab as rl
import roelab.cli  # noqa: F401  the tracer patches loaded modules only, as in the benchmark

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod          # dataclasses resolve their module
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


def test_every_layer_binds_and_the_chain_route_is_traced(chain200):
    tracer = _load_tracer()
    _, H, spec = rl.build_model("ssh", {"t1": 0.5, "t2": 1.0}, chain200)
    part = rl.partition_halfspace(chain200, [1.0], 99.6)
    with tracer.Tracer() as tr:
        for name in tracer.LAYER_FUNCTIONS:
            mod_name, fn_name = name.split(".")
            mod = importlib.import_module(f"roelab.{mod_name}")
            fn = (mod.ControlledOperator.__dict__["eigh"] if name == tracer.EIGH
                  else getattr(mod, fn_name))
            assert hasattr(fn, "__wrapped__"), f"{name} is not wrapped"
        bulk = rl.make_bulk(H.module, H, spec)
        rep = rl.verify_bec(bulk, part, {"windows": (40, 60, 80)})
    assert rep.passed
    names = {sp.name for sp in tr.spans}
    for name in ("bulkedge.make_bulk", "indices.edge_fredholm"):
        assert name in names, f"no span for {name}"
    # the class-AIII route pairs the chiral factors of the ssh solve: no
    # flattening; the class-D route (kitaev) still flattens and runs chern_odd
    assert not names & {"operators.flatten", "indices.chern_odd"}
    _, H, spec = rl.build_model("kitaev", {"mu": 1.0}, chain200)
    with tracer.Tracer() as tr:
        rep = rl.verify_bec(rl.make_bulk(H.module, H, spec), part, {"windows": (40, 60, 80)})
    assert rep.passed
    names = {sp.name for sp in tr.spans}
    for name in ("operators.flatten", "indices.chern_odd", "indices.edge_fredholm"):
        assert name in names, f"no span for {name}"


def test_the_plane_route_is_traced():
    tracer = _load_tracer()
    ps = rl.generate({"kind": "square", "window": [[0, 10], [0, 10]]})
    _, H, spec = rl.build_model("qwz", {"m": 1.0}, ps)
    part = rl.partition_halfspace(ps, [1.0, 0.0], 4.6)
    with tracer.Tracer() as tr:
        rep = rl.verify_bec(rl.make_bulk(H.module, H, spec), part)
    assert rep.bulk.snapped == rep.edge.snapped == -1
    names = {sp.name for sp in tr.spans}
    for name in ("indices.chern_even", "indices.edge_conductance", "bulkedge.make_edge"):
        assert name in names, f"no span for {name}"
    # the class-A route pairs the occupied eigenvectors: no n x n projection
    assert "indices.occupied_projection" not in names


def test_the_spin_route_is_traced():
    """The class-AII route reaches `spin_sectors` through a module global,
    checks the declared symmetry once (in `make_bulk`) and solves three times:
    the full system by spin sector, the spin-up sector and the edge."""
    tracer = _load_tracer()
    ps = rl.generate({"kind": "honeycomb", "window": [[0, 10], [0, 10]]})
    _, H, spec = rl.build_model("kane_mele", {"lso": 0.06, "lv": 0.1}, ps)
    part = rl.partition_halfspace(ps, [1.0, 0.0], 4.6)
    with tracer.Tracer() as tr:
        rep = rl.verify_bec(rl.make_bulk(H.module, H, spec), part,
                            {"edge_windows": (2, 3, 4)})
    assert rep.bulk.snapped == 1
    names = [sp.name for sp in tr.spans]
    for name in ("indices.spin_sectors", "indices.chern_even",
                 "indices.edge_conductance"):
        assert name in names, f"no span for {name}"
    assert names.count("symmetry.verify_symmetry") == 1
    assert tr.solves(tr.call) == 3
