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

import numpy as np

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


def test_every_layer_binds_and_the_chain_route_is_traced(chain200, monkeypatch):
    """Both chain routes pair through `chern_odd` and neither flattens.  Per
    point, ssh makes one bulk SVD, the solve's, whose factors `chern_odd`
    reads, and one of the half chain; kitaev's solves are dense, and its one
    SVD is `chern_odd`'s.  `verify_symmetry` runs once per point."""
    tracer = _load_tracer()
    with tracer.Tracer():
        for name in tracer.LAYER_FUNCTIONS:
            mod_name, fn_name = name.split(".")
            mod = importlib.import_module(f"roelab.{mod_name}")
            fn = (mod.ControlledOperator.__dict__["eigh"] if name == tracer.EIGH
                  else getattr(mod, fn_name))
            assert hasattr(fn, "__wrapped__"), f"{name} is not wrapped"
    svds = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        svds.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    part = rl.partition_halfspace(chain200, [1.0], 99.6)
    sweeps = {"disorder_strength": 0.2, "disorder_seeds": (0,), "truncation_radii": (1.5,)}
    for model, params, config, per_point in (
            ("ssh", {"t1": 0.5, "t2": 1.0}, sweeps, [(200, 200), (100, 100)]),
            ("kitaev", {"mu": 1.0}, {}, [(200, 200)])):
        _, H, spec = rl.build_model(model, params, chain200)
        svds.clear()
        with tracer.Tracer() as tr:
            rep = rl.verify_bec(rl.make_bulk(H.module, H, spec), part,
                                {"windows": (40, 60, 80), **config})
        points = 1 + len(rep.sweeps)
        assert rep.passed and svds == per_point * points
        assert tr.solves(tr.call) == 2 * points
        names = [sp.name for sp in tr.spans]
        for name in ("bulkedge.make_bulk", "indices.chern_odd", "indices.edge_fredholm"):
            assert name in names, f"{model}: no span for {name}"
        assert "operators.flatten" not in names, f"the {model} route flattened H"
        # the declared symmetry is checked once per point, in `make_bulk`;
        # the pairings read P through their own chirality check
        assert names.count("symmetry.verify_symmetry") == points
        # each seed's disorder goes through `models.add_disorder`, one draw each
        assert names.count("models.disorder_blocks") == len(config.get("disorder_seeds", ()))


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
