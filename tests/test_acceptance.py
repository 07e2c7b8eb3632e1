"""Acceptance suite: one test per certification criterion, each printing a
pass/fail line (run with -s to see them stream).

Every tolerance is pinned here; nothing is deferred to later calibration.
Momentum-space references live in roelab.bloch and share only the model
stencils with the real-space pipeline under test.
"""

import time

import numpy as np
import pytest

import roelab as rl
from roelab import bloch
from roelab.indices import spin_sectors
from roelab.models import AUX_CHIRAL, disorder_blocks
from roelab.operators import SiteModule
from roelab.symmetry import SymmetrySpec
from conftest import assert_report, random_controlled
from tables import POINT_GROUPS, TENFOLD


@pytest.fixture(scope="module")
def square30():
    return rl.generate({"kind": "square", "window": [[0, 30], [0, 30]]})


def spec_of(key):
    has_T, T_sq, has_C, C_sq, has_P = key
    return SymmetrySpec(has_T=has_T, T_sq=T_sq, has_C=has_C, C_sq=C_sq, has_P=has_P)


def test_criterion_1_table_fidelity():
    """All 10 rows of the symmetry table and all 40 classifying groups,
    string-equal against the checked-in copies."""
    ok_labels = all(rl.classify(spec_of(k)) == label
                    for k, (label, _) in TENFOLD.items())
    ok_groups = all(str(rl.kgroup_point(label, d)) == row[d]
                    for label, row in POINT_GROUPS.items() for d in range(4))
    assert_report("criterion 1: table fidelity (10 + 40 entries)",
                  ok_labels and ok_groups)


def test_criterion_2_even_chern_oracle(square30):
    """Clean two-band model, 30x30 open sample, four mass points: the plane
    pairing snaps to the plaquette reference with raw error < 0.05."""
    t0 = time.time()
    rows = []
    for m in (-3.0, -1.0, 1.0, 3.0):
        _, H, _ = rl.build_model("qwz", {"m": m}, square30)
        cert = rl.certify_gap(H)
        rep = rl.chern_even(H, cert, [8, 10, 12])
        oracle = bloch.fhs_chern(bloch.bloch_hamiltonian("qwz", {"m": m}), 1, nk=24)
        rows.append((m, rep.raw, rep.snapped, int(round(oracle))))
    elapsed = time.time() - t0
    ok = all(snap == orc and snap is not None and abs(raw - snap) < 0.05
             for _, raw, snap, orc in rows)
    detail = "; ".join(f"m={m:+.0f}: {raw:+.4f}->{snap} (ref {orc})"
                       for m, raw, snap, orc in rows)
    assert_report("criterion 2: even pairing = plaquette reference",
                  ok and elapsed < 120, f"{detail}; {elapsed:.0f}s")


def test_criterion_3_odd_winding_oracle():
    """Dimerized chain, n = 400: real-space winding = momentum winding =
    half-line kernel count, in both phases."""
    t0 = time.time()
    ps = rl.generate({"kind": "chain", "window": [[0, 400]]})
    part = rl.partition_halfspace(ps, [1.0], 199.6)
    SZ = np.diag([1, -1]).astype(complex)
    rows = []
    for t1, t2 in ((1.0, 0.5), (0.5, 1.0)):
        _, H, spec = rl.build_model("ssh", {"t1": t1, "t2": t2}, ps)
        cert = rl.certify_gap(H)
        bulk = rl.chern_odd(H, cert, spec, [100, 140, 180])
        oracle = round(bloch.winding_1d(bloch.bloch_hamiltonian(
            "ssh", {"t1": t1, "t2": t2}), SZ))
        fred = rl.edge_fredholm(rl.compress(H, part), spec, cert)
        rows.append((t1, t2, bulk.snapped, oracle, fred.snapped))
    elapsed = time.time() - t0
    ok = all(b == o == f and b is not None for _, _, b, o, f in rows)
    detail = "; ".join(f"({t1},{t2}): bulk {b} ref {o} edge {f}"
                       for t1, t2, b, o, f in rows)
    assert_report("criterion 3: odd winding = momentum ref = kernel count",
                  ok and elapsed < 30, f"{detail}; {elapsed:.0f}s")


def test_criterion_4_bulk_edge_correspondence(square30):
    """Full certification on the four library systems; conductance raws stay
    within 0.1 of the bulk integer."""
    t0 = time.time()
    results = []

    mod, H, spec = rl.build_model("qwz", {"m": 1.0}, square30)
    bulk = rl.make_bulk(mod, H, spec)
    part = rl.partition_halfspace(square30, [1.0, 0.0], 14.6)
    rep = rl.verify_bec(bulk, part, {"windows": (8, 10, 12),
                                     "edge_windows": (6, 9, 12)})
    results.append(("qwz A d2", rep, abs(rep.edge.raw - rep.bulk.snapped) < 0.1))

    chain = rl.generate({"kind": "chain", "window": [[0, 400]]})
    partc = rl.partition_halfspace(chain, [1.0], 199.6)
    _, H, spec = rl.build_model("ssh", {"t1": 0.5, "t2": 1.0}, chain)
    rep = rl.verify_bec(rl.make_bulk(H.module, H, spec), partc,
                        {"windows": (100, 140, 180)})
    results.append(("ssh AIII d1", rep, True))

    _, H, spec = rl.build_model("kitaev", {"mu": 1.0, "t": 1.0, "delta": 1.0}, chain)
    rep = rl.verify_bec(rl.make_bulk(H.module, H, spec), partc,
                        {"windows": (100, 140, 180)})
    results.append(("kitaev D d1", rep, True))

    hc = rl.generate({"kind": "honeycomb", "window": [[0, 26], [0, 26]]})
    mod, H, spec = rl.build_model("kane_mele", {"lso": 0.06, "lv": 0.1}, hc)
    bulk = rl.make_bulk(mod, H, spec)
    parth = rl.partition_halfspace(hc, [1.0, 0.0], 12.6)
    rep = rl.verify_bec(bulk, parth, {"windows": (7, 9, 11),
                                      "edge_windows": (5, 7, 9)})
    results.append(("kane_mele AII d2",
                    rep, abs(rep.edge.raw - round(rep.edge.raw)) < 0.1))

    elapsed = time.time() - t0
    ok = all(r.passed and extra for _, r, extra in results)
    detail = "; ".join(f"{name}: {r.bulk.snapped}={r.edge.snapped}"
                       for name, r, _ in results)
    assert_report("criterion 4: bulk index = edge index on the library",
                  ok and elapsed < 300, f"{detail}; {elapsed:.0f}s")
    # each route's report provenance: (bulk formula, edge formula, group, z2)
    routes = {"qwz A d2": ("chern_even", "edge_conductance", "Z", False),
              "ssh AIII d1": ("chern_odd_d1", "edge_fredholm", "Z", False),
              "kitaev D d1": ("winding_mod2", "majorana_count_mod2", "Z2", True),
              "kane_mele AII d2": ("kane_mele_spin_chern",
                                   "spin_edge_conductance_mod2", "Z2", True)}
    for name, r, _ in results:
        bulk_formula, edge_formula, group, z2 = routes[name]
        assert (r.bulk.formula, r.edge.formula) == (bulk_formula, edge_formula), name
        assert str(r.bulk.group) == str(r.edge.group) == group, name
        assert r.bulk.z2 is r.edge.z2 is z2, name


def test_criterion_5_disorder_stability():
    """Ten seeds of commutant-projected disorder at half the gap: all snapped
    values match the clean ones and the raw spread stays under 0.05."""
    t0 = time.time()
    summaries = []

    ps = rl.generate({"kind": "square", "window": [[0, 26], [0, 26]]})
    mod, H, spec = rl.build_model("qwz", {"m": 1.0}, ps)
    bulk = rl.make_bulk(mod, H, spec)
    part = rl.partition_halfspace(ps, [1.0, 0.0], 12.6)
    cfg = {"windows": (6, 8, 10), "edge_windows": (5, 7, 9),
           "disorder_strength": 0.5 * bulk.gap.epsilon,
           "disorder_seeds": tuple(range(10))}
    rep = rl.verify_bec(bulk, part, cfg)
    braws = [s["bulk_raw"] for s in rep.sweeps]
    eraws = [s["edge_raw"] for s in rep.sweeps]
    ok_q = (all(s["bulk_snapped"] == rep.bulk.snapped
                and s["edge_snapped"] == rep.edge.snapped for s in rep.sweeps)
            and np.std(braws) < 0.05 and np.std(eraws) < 0.05)
    summaries.append(("qwz", ok_q, np.std(braws), np.std(eraws)))

    chain = rl.generate({"kind": "chain", "window": [[0, 400]]})
    _, H, spec = rl.build_model("ssh", {"t1": 0.5, "t2": 1.0}, chain)
    bulk = rl.make_bulk(H.module, H, spec)
    partc = rl.partition_halfspace(chain, [1.0], 199.6)
    cfg = {"windows": (100, 140, 180),
           "disorder_strength": 0.5 * bulk.gap.epsilon,
           "disorder_seeds": tuple(range(10))}
    rep = rl.verify_bec(bulk, partc, cfg)
    braws = [s["bulk_raw"] for s in rep.sweeps]
    eraws = [s["edge_raw"] for s in rep.sweeps]
    ok_s = (all(s["bulk_snapped"] == rep.bulk.snapped
                and s["edge_snapped"] == rep.edge.snapped for s in rep.sweeps)
            and np.std(braws) < 0.05 and np.std(eraws) < 0.05)
    summaries.append(("ssh", ok_s, np.std(braws), np.std(eraws)))

    elapsed = time.time() - t0
    ok = all(s[1] for s in summaries)
    detail = "; ".join(f"{n}: bulk std {b:.4f}, edge std {e:.4f}"
                       for n, _, b, e in summaries)
    assert_report("criterion 5: ten-seed disorder stability", ok,
                  f"{detail}; {elapsed:.0f}s")


def test_criterion_6_truncation_phase_invariance():
    """Exponentially decaying hoppings: beyond the radius where the dropped
    tail is under half the gap, every truncation carries the same index and
    stays gapped."""
    ps = rl.generate({"kind": "square", "window": [[0, 18], [0, 18]]})
    _, H, _ = rl.build_model("qwz", {"m": 1.0, "cutoff": 4, "decay": 2.5}, ps)
    cert = rl.certify_gap(H)
    base = rl.chern_even(H, cert, [4, 5, 6]).snapped
    R0 = None
    for R in np.arange(1.2, 5.0, 0.4):
        if (H - rl.truncate(H, float(R))).norm() < cert.epsilon / 2:
            R0 = float(R)
            break
    diam = rl.propagation(H)
    ok = base is not None and R0 is not None
    snaps = []
    for R in np.linspace(R0, diam + 0.01, 5):
        HR = rl.truncate(H, float(R))
        cR = rl.certify_gap(HR)
        ok = ok and cR.gapped and cR.epsilon > 0
        snaps.append(rl.chern_even(HR, cR, [4, 5, 6]).snapped)
    ok = ok and all(s == base for s in snaps)
    assert_report("criterion 6: truncation phase-invariance", ok,
                  f"R0={R0}, snapped {snaps} vs clean {base}")


def test_criterion_7_cocycle_equality():
    """Plane pairing equality |bulk - edge| < 0.1 with a two-width plateau
    within 0.05, on every plane model in the library."""
    t0 = time.time()
    rows = []

    def run(name, model, params, window, cut, windows, ewindows):
        ps = rl.generate({"kind": model, "window": window}) if model != "points" \
            else None
        mod, H, spec = rl.build_model(name, params, ps)
        bulk = rl.make_bulk(mod, H, spec, fermi=0.0)
        part = rl.partition_halfspace(ps, [1.0, 0.0], cut)
        rep = rl.verify_bec(bulk, part, {"windows": windows,
                                         "edge_windows": ewindows})
        rows.append((name, rep.bulk.raw, rep.edge.raw, rep.plateau_deviation))

    # rectangular samples: the edge runs along the long axis so the narrow
    # spectral intervals hold enough edge levels for a stable plateau
    run("qwz", "square", {"m": 1.0}, [[0, 26], [0, 26]], 12.6,
        (6, 8, 10), (5, 7, 9))
    fermi = -1.8477590650225735   # middle of the first flux-1/4 gap
    run("harper", "square", {"flux": 0.25, "fermi": fermi},
        [[0, 24], [0, 52]], 11.6, (6, 8, 10), (8, 12, 16))
    run("haldane", "honeycomb", {"t1": 1.0, "t2": 0.1}, [[0, 26], [0, 26]],
        12.6, (6, 8, 10), (5, 7, 9))
    run("kane_mele", "honeycomb", {"lso": 0.06, "lv": 0.1}, [[0, 22], [0, 38]],
        10.6, (5, 6.5, 8), (7, 10, 13))

    elapsed = time.time() - t0
    ok = all(abs(b - e) < 0.1 and p < 0.05 for _, b, e, p in rows)
    detail = "; ".join(f"{n}: |{b:+.3f}-({e:+.3f})|, plateau {p:.3f}"
                       for n, b, e, p in rows)
    assert_report("criterion 7: cocycle equality on all plane models", ok,
                  f"{detail}; {elapsed:.0f}s")


def test_criterion_8_algebraic_property_suite():
    """1000 randomized cases per algebraic identity."""
    rng = np.random.default_rng(2024)
    t0 = time.time()
    chain = rl.generate({"kind": "chain", "window": [[0, 24]]})
    mod = SiteModule(chain, 2, grading=np.array([1, -1]))

    ok_prop = True
    for _ in range(1000):
        A = random_controlled(mod, rng, hop_range=rng.uniform(1.0, 3.0))
        B = random_controlled(mod, rng, hop_range=rng.uniform(1.0, 3.0))
        ok_prop &= rl.propagation(A @ B) <= rl.propagation(A) + rl.propagation(B) + 1e-9

    ok_leib = True
    for _ in range(1000):
        A = random_controlled(mod, rng, hop_range=2.0)
        B = random_controlled(mod, rng, hop_range=2.0)
        lhs = rl.derivation(A @ B, 0).matrix
        rhs = (rl.derivation(A, 0) @ B).matrix + (A @ rl.derivation(B, 0)).matrix
        ok_leib &= bool(np.abs(lhs - rhs).max() < 1e-12)

    ok_flat = True
    dim = 40
    for _ in range(1000):
        M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        M = (M + M.conj().T) / 2
        w, v = np.linalg.eigh(M)
        M = (v * (w + np.sign(w))) @ v.conj().T   # push a unit gap open
        s = (v * np.sign(w + np.sign(w))) @ v.conj().T
        ok_flat &= bool(np.abs(s @ s - np.eye(dim)).max() < 1e-10)

    ok_sym = True
    for _ in range(1000):
        B = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        u, sv, vh = np.linalg.svd(B)
        B = u @ np.diag(sv + 0.5) @ vh            # invertible block: gapped chiral H
        H = np.block([[np.zeros((10, 10)), B], [B.conj().T, np.zeros((10, 10))]])
        w, v = np.linalg.eigh(H)
        s = (v * np.sign(w)) @ v.conj().T
        P = np.diag(np.concatenate([np.ones(10), -np.ones(10)]))
        ok_sym &= bool(np.abs(P @ s @ P + s).max() < 1e-10)

    big = rl.generate({"kind": "chain", "window": [[0, 240]]})
    bigmod = SiteModule(big, 1)
    windows = (10.0, 30.0, 90.0)
    defects = np.zeros(3)
    for _ in range(1000):
        A = random_controlled(bigmod, rng, hop_range=2.0)
        B = random_controlled(bigmod, rng, hop_range=2.0)
        AB = rl.trace_per_unit_volume(A @ B, windows)
        BA = rl.trace_per_unit_volume(B @ A, windows)
        defects += np.abs(np.array(AB.values) - np.array(BA.values))
    defects /= 1000
    ok_folner = bool(defects[0] > defects[1] > defects[2])

    elapsed = time.time() - t0
    checks = {"propagation": ok_prop, "leibniz": ok_leib, "flatten": ok_flat,
              "symmetry": ok_sym, "folner": ok_folner}
    assert_report("criterion 8: algebraic property suite (1000 cases each)",
                  all(checks.values()),
                  f"{checks}; defects {np.round(defects, 5).tolist()}; {elapsed:.0f}s")


def test_criterion_9_non_straight_edge(square30):
    """Tilting the cut normal by 10 and 15 degrees leaves the snapped edge
    index unchanged."""
    mod, H, spec = rl.build_model("qwz", {"m": 1.0}, square30)
    bulk = rl.make_bulk(mod, H, spec)
    eps = bulk.gap.epsilon
    snaps, raws = [], []
    for deg in (0.0, 10.0, 15.0):
        th = np.radians(deg)
        normal = [np.cos(th), np.sin(th)]
        part = rl.partition_halfspace(square30, normal,
                                      float(np.dot([14.6, 14.6], normal)))
        H_hat = rl.make_edge(bulk, part)
        rep = rl.edge_conductance(H_hat, (-eps / 3, eps / 3), (6, 9, 12), bulk_gap=bulk.gap)
        snaps.append(rep.snapped)
        raws.append(rep.raw)
    ok = snaps[0] is not None and len(set(snaps)) == 1
    assert_report("criterion 9: non-straight edge invariance", ok,
                  f"snapped {snaps}, raw {[f'{r:+.3f}' for r in raws]}")
