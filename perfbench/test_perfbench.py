"""Self-tests of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import roelab.bulkedge as bulkedge  # noqa: E402
from harness import Chains, Plane  # noqa: E402
from roelab.operators import ControlledOperator  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY_PLANE = Plane("tiny_plane", "qwz", {"m": 1.0}, "square", 18.0, 8.6,
                   (4, 5, 6), (3, 4, 5), solves=2)
TINY_CHAINS = Chains("tiny_chains", (("ssh", {"t1": 0.5, "t2": 1.0}),
                                     ("kitaev", {"mu": 1.0, "t": 1.0, "delta": 1.0})),
                     n=80, cut=39.6, windows=(16, 20, 24), n_disorder=2,
                     strength=0.25, radii=(1.5,))
TINY = (TINY_PLANE, TINY_CHAINS)


def _reference(wl):
    harness.WORKLOADS[wl.name] = wl
    try:
        return harness.collect_points(wl.name, harness.DEFAULT_SEED)
    finally:
        del harness.WORKLOADS[wl.name]


@pytest.fixture(scope="module")
def references():
    return {wl.name: _reference(wl) for wl in TINY}


def _run(wl, ref, trace, seed=0, seconds=0.0):
    return harness.run(wl.name, seed, seconds, trace, import_s=0.0, wl=wl, ref=ref,
                       children=False)


def _units(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("wl", TINY, ids=lambda wl: wl.name)
def test_every_metric_emitted_with_its_unit(wl, references):
    plain = _run(wl, references[wl.name], trace=False)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    traced = _run(wl, references[wl.name], trace=True)
    assert traced["correct"], "traced run failed its checks"
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == _units("per_layer")


def test_reference_covers_every_point(references):
    for wl in TINY:
        keys = set(references[wl.name])
        if isinstance(wl, Chains):
            assert len(keys) == len(wl.chains) * (1 + wl.n_disorder + len(wl.radii))
        else:
            assert keys == {"clean"}


@pytest.mark.parametrize("field, delta", [("bulk_raw", 1e-6), ("edge_raw", -1e-6),
                                          ("bulk_snapped", 1)])
def test_perturbed_reference_counts_as_failed(field, delta, references):
    ref = {k: dict(v) for k, v in references["tiny_plane"].items()}
    ref["clean"][field] += delta
    res = _run(TINY_PLANE, ref, trace=False)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1


def test_raw_within_tolerance_passes(references):
    ref = {k: dict(v) for k, v in references["tiny_plane"].items()}
    ref["clean"]["bulk_raw"] += 0.5 * harness.RAW_TOL
    assert _run(TINY_PLANE, ref, trace=False)["failed"] == 0


def test_other_seed_checks_disorder_on_snapped_only(references):
    res = _run(TINY_CHAINS, references["tiny_chains"], trace=False, seed=7)
    assert res["correct"] and res["failed"] == 0
    ref = {k: dict(v) for k, v in references["tiny_chains"].items()}
    for k, v in ref.items():
        if "/disorder/" in k:
            v["edge_snapped"] = 0
    res = _run(TINY_CHAINS, ref, trace=False, seed=7)
    assert res["failed"] == TINY_CHAINS.n_disorder * len(TINY_CHAINS.chains)


def _bindings():
    """Every binding of a traced function in the roelab modules, by identity."""
    out = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name == "roelab" or mod_name.startswith("roelab."):
            for attr, val in vars(mod).items():
                if callable(val):
                    out[(mod_name, attr)] = val
    out["ControlledOperator.eigh"] = ControlledOperator.__dict__["eigh"]
    return out


def test_tracer_patches_lookup_sites_and_restores_them():
    before = _bindings()
    with Tracer() as tr:
        during = _bindings()
        import roelab.indices as indices
        assert bulkedge.certify_gap is not before[("roelab.bulkedge", "certify_gap")]
        assert indices.verify_symmetry is not before[("roelab.indices", "verify_symmetry")]
        assert during["ControlledOperator.eigh"] is not before["ControlledOperator.eigh"]
        assert tr._patches
    assert _bindings() == before


def _two_rounds(units, seconds, step):
    step(units)
    step(units)
    return [1.0, 1.0]


def test_untimed_calls_run_unpatched(references, monkeypatch):
    """After a traced call, the next untraced call sees only original bindings."""
    before = _bindings()
    seen = []
    call = harness._call

    def spy(unit):
        seen.append(_bindings() == before)
        return call(unit)

    monkeypatch.setattr(harness, "_call", spy)
    monkeypatch.setattr(harness, "_timed_loop", _two_rounds)
    res = _run(TINY_PLANE, references["tiny_plane"], trace=True)
    assert res["correct"]
    assert seen == [True, False, True, False]     # untraced, traced, per round
    assert res["metrics"]["operators.eigh.solves"]["value"] == TINY_PLANE.solves
    assert _bindings() == before


def test_solve_count_matches_and_leak_is_caught(references):
    res = _run(TINY_PLANE, references["tiny_plane"], trace=True)
    assert res["correct"]
    assert res["metrics"]["operators.eigh.solves"]["value"] == TINY_PLANE.solves
    leaky = _LeakyPlane(**vars(TINY_PLANE))
    res = _run(leaky, references["tiny_plane"], trace=True)
    assert not res["correct"]


class _LeakyPlane(Plane):
    """Reuses one operator across calls, so its eig cache leaks."""

    def units(self, ctx):
        units = super().units(ctx)
        shared = units[0].prepare()
        return [harness.Unit(u.label, lambda: shared, u.run, u.n_points, u.solves)
                for u in units]


def test_chain_solves_per_point(references):
    res = _run(TINY_CHAINS, references["tiny_chains"], trace=True)
    assert res["correct"]
    per_round = sum(2 * (1 + TINY_CHAINS.n_disorder + len(TINY_CHAINS.radii))
                    for _ in TINY_CHAINS.chains)
    assert res["metrics"]["operators.eigh.solves"]["value"] == per_round
    assert res["metrics"]["cli.main.calls"]["value"] == len(TINY_CHAINS.chains)
