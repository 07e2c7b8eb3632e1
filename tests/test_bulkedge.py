from dataclasses import replace

import numpy as np
import pytest

import roelab as rl
from roelab import bulkedge
from roelab.bulkedge import BulkEdgeError
from roelab.indices import Interface, PairingError, snap_integer
from roelab.operators import OperatorError, SiteModule
from roelab.symmetry import SymmetrySpec


@pytest.fixture(scope="module")
def qwz26():
    ps = rl.generate({"kind": "square", "window": [[0, 26], [0, 26]]})
    mod, H, spec = rl.build_model("qwz", {"m": 1.0}, ps)
    bulk = rl.make_bulk(mod, H, spec)
    part = rl.partition_halfspace(ps, [1.0, 0.0], 12.6)
    return bulk, part


class TestMakeBulk:
    def test_rejects_gapless(self, chain200):
        _, H, spec = rl.build_model("ssh", {"t1": 1.0, "t2": 1.0}, chain200,
                                    periodic=True)
        with pytest.raises(BulkEdgeError, match="gap"):
            rl.make_bulk(H.module, H, spec)

    def test_rejects_broken_symmetry(self, chain200):
        _, H, spec = rl.build_model("ssh", {"t1": 1.0, "t2": 0.5}, chain200)
        M = H.matrix + 0.2 * np.eye(400)
        Hb = rl.ControlledOperator(H.module, M, H.declared_propagation)
        with pytest.raises(BulkEdgeError, match="symmetry"):
            rl.make_bulk(H.module, Hb, spec)

    def test_rejects_a_module_that_is_not_the_hamiltonians(self, chain200):
        """The sample has one owner, H: an equal but separate module is
        refused."""
        mod, H, spec = rl.build_model("ssh", {"t1": 0.5, "t2": 1.0}, chain200)
        other = SiteModule(chain200, 2, grading=mod.grading, labels=mod.labels)
        with pytest.raises(BulkEdgeError, match="not the Hamiltonian's own"):
            rl.make_bulk(other, H, spec)


class TestBECConfig:
    @pytest.mark.parametrize("doc, message", [
        ({"truncation_radii": [1.5, float("nan")]}, "truncation radius nan is not positive"),
        ({"truncation_radii": (0,)}, "truncation radius 0 is not positive"),
        ({"disorder_strength": float("-inf")}, "disorder strength -inf is not a finite"),
        ({"disorder_seeds": [1, 1.5]}, "disorder seed 1.5 is not an integer"),
        ({"disorder_strength": 0.3}, "disorder strength 0.3 without disorder seeds"),
        ({"disorder_seeds": [1, 2]}, "disorder seeds without a disorder strength"),
        ({"window": (5, 8)}, "unknown config key 'window'; known: windows, edge_windows"),
        ({"seeds": [1]}, "unknown config key 'seeds'"),
        ({"disorder_seeds": (True,), "disorder_strength": 0.2},
         "disorder seed True is not an integer"),
        ({"windows": (True, 10, 15)}, "window True is not a number"),
        ({"windows": ("a",)}, "window 'a' is not a number"),
        ({"edge_windows": [4, False]}, "edge window False is not a number"),
        ({"truncation_radii": ["2"]}, "truncation radius '2' is not a number"),
        ({"disorder_strength": "0.2", "disorder_seeds": [1]},
         "disorder strength '0.2' is not a number"),
        ({"disorder_strength": True, "disorder_seeds": [1]},
         "disorder strength True is not a number"),
    ])
    def test_sweep_settings_refused_on_construction(self, doc, message):
        with pytest.raises(BulkEdgeError, match=message):
            bulkedge.BECConfig.of(doc)

    def test_dict_lists_become_tuples(self):
        cfg = bulkedge.BECConfig.of({"windows": [4, 6], "disorder_strength": 0.1,
                                     "disorder_seeds": [np.int64(3)]})
        assert cfg == bulkedge.BECConfig(windows=(4, 6), disorder_strength=0.1,
                                         disorder_seeds=(3,))
        assert bulkedge.BECConfig.of(cfg) is cfg and bulkedge.BECConfig.of(None) == \
            bulkedge.BECConfig()


class TestMakeEdge:
    def test_diagonal_trivial(self, square20):
        mod = SiteModule(square20, 1, grading=np.array([1]))
        H = rl.ControlledOperator(mod, np.diag(
            np.tile([1.0, -1.0], 200)).astype(complex), 0.0)
        bulk = rl.make_bulk(mod, H, SymmetrySpec())
        part = rl.partition_halfspace(square20, [1, 0], 9.6)
        H_hat = rl.make_edge(bulk, part)
        assert H_hat.module.n_sites == len(part.plus_ids)

    def test_qwz_ingap_states_bound_to_interface(self, qwz26):
        bulk, part = qwz26
        H_hat = rl.make_edge(bulk, part)
        w, v = H_hat.eigh()
        ps = H_hat.module.pointset
        proj = ps.coords @ part.normal - part.offset
        d_out = np.minimum((ps.coords - ps.window[:, 0]).min(axis=1),
                           (ps.window[:, 1] - ps.coords).min(axis=1))
        # deep in-gap states away from the outer boundary hug the cut
        sel = (np.abs(w) < 0.3)
        near_iface = np.repeat(proj < 3.0, 2)
        away_out = np.repeat(d_out > 3.0, 2)
        for j in np.where(sel)[0]:
            amp2 = np.abs(v[:, j]) ** 2
            w_iface = amp2[near_iface].sum()
            w_outer = amp2[~away_out].sum()
            assert w_iface + w_outer > 0.9
            if w_outer < 0.1:   # states not living on the outer ring
                assert w_iface > 0.9

    def test_quotient_gap_failure_detected(self, square20):
        """A metallic bulk puts in-gap weight in the interior: rejected."""
        _, H, spec = rl.build_model("harper", {"flux": 0.0}, square20)
        assert not rl.certify_gap(H).gapped
        fake = rl.GapCertificate(epsilon=0.4, lower_spectrum_max=-0.4,
                                 upper_spectrum_min=0.4, fermi=0.0, gapped=True)
        bulk = rl.BulkSystem(H, spec, fake)
        part = rl.partition_halfspace(square20, [1, 0], 9.6)
        with pytest.raises(BulkEdgeError, match="interface"):
            rl.make_edge(bulk, part)


def _mv_unitary_full(H, cert, part):
    """-exp(i pi s_hat) from an eigendecomposition of the compression s_hat
    of the flattening s = sgn(H - fermi)."""
    w, v = np.linalg.eigh(rl.compress(rl.flatten(H, cert), part).matrix)
    return (v * -np.exp(1j * np.pi * w)) @ v.conj().T


def _winding_full(U, windows):
    """The interface winding of U from the full product U^* i[x_edge, U]."""
    frame = Interface.of(U)
    DU = rl.derivation_along(U, frame.direction).matrix
    traces = np.diag(U.matrix.conj().T @ DU).reshape(-1, U.m).sum(axis=1)
    return [float(np.real(1j * v)) for v in frame.sums(traces, windows)]


class TestMVBoundary:
    def test_pure_grading_is_trivial(self, square20):
        mod = SiteModule(square20, 2, grading=np.array([1, -1]))
        g = rl.grading_operator(mod)
        part = rl.partition_halfspace(square20, [1, 0], 9.6)
        bm = rl.mv_boundary(g, rl.certify_gap(g), part, edge_windows=(4, 6, 8))
        assert np.abs(bm.U.matrix - np.eye(bm.U.module.dim)).max() < 1e-12
        assert bm.winding.snapped == 0
        assert bm.off_interface_deviation < 1e-12

    def test_non_orthonormal_factor_rejected(self, qwz26, monkeypatch):
        """Occupied columns scaled by 1/sqrt(2) are refused by name."""
        bulk, part = qwz26
        w, v = bulk.H.eigh()
        monkeypatch.setattr(type(bulk.H), "eigh", lambda self: (w, v / np.sqrt(2)))
        with pytest.raises(PairingError, match="not orthonormal"):
            rl.mv_boundary(bulk.H, bulk.gap, part)

    def test_partition_of_a_larger_point_set_refused(self, square20):
        ps = rl.generate({"kind": "square", "window": [[0, 12], [0, 12]]})
        g = rl.grading_operator(SiteModule(ps, 2, grading=np.array([1, -1])))
        part = rl.partition_halfspace(square20, [1, 0], 9.6)
        with pytest.raises(OperatorError, match="does not match"):
            rl.mv_boundary(g, rl.certify_gap(g), part)

    def test_partition_of_a_smaller_point_set_refused(self):
        """A cut of a 10 x 10 square (50 plus ids, all below the 144 sites of
        a 12 x 12 qwz operator) is refused, not compressed onto wrong sites."""
        ps = rl.generate({"kind": "square", "window": [[0, 12], [0, 12]]})
        other = rl.generate({"kind": "square", "window": [[0, 10], [0, 10]]})
        mod, H, spec = rl.build_model("qwz", {"m": 1.0}, ps)
        bulk = rl.make_bulk(mod, H, spec)
        part = rl.partition_halfspace(other, [1, 0], 4.6)
        assert part.plus_ids.max() < ps.n
        for run in (lambda: rl.compress(H, part), lambda: rl.mv_boundary(H, bulk.gap, part),
                    lambda: rl.verify_bec(bulk, part)):
            with pytest.raises(OperatorError, match="partition does not match the operator's"):
                run()

    def test_qwz_winding_matches_bulk_and_edge(self, qwz26):
        bulk, part = qwz26
        bm = rl.mv_boundary(bulk.H, bulk.gap, part, edge_windows=(5, 7, 9))
        cb = rl.chern_even(bulk.H, bulk.gap, [6, 8, 10])
        H_hat = rl.make_edge(bulk, part)
        eps = bulk.gap.epsilon
        ce = rl.edge_conductance(H_hat, (-eps / 3, eps / 3), (5, 7, 9), bulk_gap=bulk.gap)
        assert bm.winding.snapped == cb.snapped == ce.snapped == -1
        assert bm.U.matrix @ bm.U.matrix.conj().T == pytest.approx(
            np.eye(bm.U.module.dim), abs=1e-10)

    def test_interface_support_contract(self):
        """On an elongated sample the far region exists and U is the identity
        there to 1e-6."""
        ps = rl.generate({"kind": "square", "window": [[0, 44], [0, 18]]})
        mod, H, spec = rl.build_model("qwz", {"m": 1.0}, ps)
        bulk = rl.make_bulk(mod, H, spec)
        part = rl.partition_halfspace(ps, [1.0, 0.0], 10.6)
        bm = rl.mv_boundary(H, bulk.gap, part, edge_windows=(4, 5, 6))
        assert bm.off_interface_deviation < 1e-6
        assert np.isfinite(bm.decay_xi) and bm.decay_xi > 0
        assert bm.winding.snapped == -1

    def test_direct_sum_adds(self, qwz26):
        """Two copies, told apart by a `copy` label so that the sum is solved
        one copy at a time, wind twice."""
        bulk, part = qwz26
        mod, H = bulk.H.module, bulk.H
        H2 = rl.direct_sum(*(rl.ControlledOperator(
            SiteModule(mod.pointset, mod.orbitals_per_site, grading=mod.grading,
                       labels={"copy": np.full(mod.orbitals_per_site, c)}),
            H.matrix, H.declared_propagation) for c in (0, 1)))
        bm = rl.mv_boundary(H2, rl.certify_gap(H2), part, edge_windows=(5, 7, 9))
        assert bm.winding.snapped == -2

    @pytest.mark.parametrize("disorder, normal, offset", [
        (0.0, (1.0, 0.0), 5.6), (0.3, (1.0, 0.0), 5.6),
        (0.0, (np.cos(np.radians(15)), np.sin(np.radians(15))), 7.1)],
        ids=["clean", "disorder", "tilted"])
    def test_matches_the_exponential_of_the_compressed_flattening(self, disorder, normal,
                                                                  offset):
        """U and its winding equal -exp(i pi s_hat) and its winding to 1e-10,
        and U is unitary to 1e-12."""
        ps = rl.generate({"kind": "square", "window": [[0, 12], [0, 12]]})
        _, H, _ = rl.build_model("qwz", {"m": 1.0}, ps, disorder=disorder, seed=1)
        cert = rl.certify_gap(H)
        part = rl.partition_halfspace(ps, list(normal), offset)
        bm = rl.mv_boundary(H, cert, part, edge_windows=(2, 3, 4))
        want = _mv_unitary_full(H, cert, part)
        assert np.abs(bm.U.matrix - want).max() < 1e-10
        assert np.abs(bm.U.matrix @ bm.U.matrix.conj().T - np.eye(len(want))).max() < 1e-12
        ref = rl.ControlledOperator(bm.U.module, want, bm.U.declared_propagation,
                                    hermitian=False)
        assert np.abs(np.array(bm.winding.values)
                      - _winding_full(ref, (2, 3, 4))).max() < 1e-10

    def test_a_flattened_input_still_ports(self):
        """The old call form on a flattening s, mv_boundary(s, certify_gap(s),
        part), gives the same U: s and H share their occupied space."""
        ps = rl.generate({"kind": "square", "window": [[0, 12], [0, 12]]})
        _, H, _ = rl.build_model("qwz", {"m": 1.0}, ps)
        cert = rl.certify_gap(H)
        s = rl.flatten(H, cert)
        part = rl.partition_halfspace(ps, [1.0, 0.0], 5.6)
        got = rl.mv_boundary(s, rl.certify_gap(s), part).U.matrix
        assert np.abs(got - rl.mv_boundary(H, cert, part).U.matrix).max() < 1e-10


class TestVerifyBEC:
    def test_qwz(self, qwz26):
        bulk, part = qwz26
        rep = rl.verify_bec(bulk, part, {"windows": (6, 8, 10),
                                         "edge_windows": (5, 7, 9)})
        assert rep.passed and rep.bulk.snapped == rep.edge.snapped == -1
        assert rep.plateau_deviation < 0.05
        doc = rep.to_json()
        assert doc["pass"] and doc["bulk"]["snapped"] == -1

    def test_ssh_both_phases(self, chain200):
        part = rl.partition_halfspace(chain200, [1.0], 99.6)
        for t1, t2, expect in ((0.5, 1.0, 1), (1.0, 0.5, 0)):
            _, H, spec = rl.build_model("ssh", {"t1": t1, "t2": t2}, chain200)
            bulk = rl.make_bulk(H.module, H, spec)
            rep = rl.verify_bec(bulk, part, {"windows": (40, 60, 80)})
            assert rep.passed and rep.bulk.snapped == rep.edge.snapped == expect

    def test_kitaev_z2(self, chain200):
        part = rl.partition_halfspace(chain200, [1.0], 99.6)
        for mu, expect in ((1.0, 1), (3.0, 0)):
            _, H, spec = rl.build_model("kitaev", {"mu": mu}, chain200)
            bulk = rl.make_bulk(H.module, H, spec)
            rep = rl.verify_bec(bulk, part, {"windows": (40, 60, 80)})
            assert rep.passed and rep.bulk.z2 and rep.edge.z2
            assert rep.bulk.snapped == rep.edge.snapped == expect

    def test_complex_pairing_kitaev_refused(self, chain200):
        """Pairing Delta e^{i pi/4} keeps C = sigma_x K but breaks its chiral
        refinement P = sigma_x: chern_odd names the violation."""
        _, H, spec = rl.build_model("kitaev", {"mu": 1.0}, chain200)
        M = H.matrix.copy()
        M[0::2, 1::2] *= np.exp(1j * np.pi / 4)
        M[1::2, 0::2] *= np.exp(-1j * np.pi / 4)
        Hc = rl.ControlledOperator(H.module, M, H.declared_propagation)
        bulk = rl.make_bulk(Hc.module, Hc, spec)
        part = rl.partition_halfspace(chain200, [1.0], 99.6)
        with pytest.raises(PairingError, match="chiral violation"):
            rl.verify_bec(bulk, part, {"windows": (40, 60, 80)})

    @pytest.mark.parametrize("model, params", [("ssh", {"t1": 0.5, "t2": 1.0}),
                                               ("kitaev", {"mu": 1.0})])
    def test_fermi_level_inside_the_gap(self, chain200, model, params):
        """At Fermi level 0.1, inside a gap that holds 0, the bulk raw is the
        one at 0."""
        _, H, spec = rl.build_model(model, params, chain200)
        raws = [rl.bulk_index(rl.make_bulk(H.module, H, spec, fermi=f),
                              {"windows": (40, 60, 80)}).raw for f in (0.0, 0.1)]
        assert abs(raws[0]) > 0.5 and abs(raws[1] - raws[0]) <= 1e-12

    def test_unsupported_pair(self, chain200):
        mod = SiteModule(chain200, 2, grading=np.array([1, -1]))
        H = rl.ControlledOperator(mod, np.kron(np.eye(200), np.diag(
            [1.0, -1.0])).astype(complex), 0.0)
        spec = SymmetrySpec(has_T=True, T_sq=1, T_unitary=np.eye(2))
        bulk = rl.make_bulk(mod, H, spec)
        part = rl.partition_halfspace(chain200, [1.0], 99.6)
        with pytest.raises(BulkEdgeError, match="supported"):
            rl.verify_bec(bulk, part)

    def test_relation_conjugation_invariance(self, qwz26):
        """Conjugating by an even on-site unitary leaves both snapped values."""
        bulk, part = qwz26
        rng = np.random.default_rng(1)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        W = np.kron(np.eye(bulk.H.module.n_sites), np.linalg.qr(A)[0])
        Hc = rl.ControlledOperator(bulk.H.module, W @ bulk.H.matrix @ W.conj().T,
                                   bulk.H.declared_propagation)
        bc = rl.make_bulk(bulk.H.module, Hc, bulk.spec)
        rep = rl.verify_bec(bc, part, {"windows": (6, 8, 10),
                                       "edge_windows": (5, 7, 9)})
        assert rep.passed and rep.bulk.snapped == -1

    def test_relation_grading_sum_invariance(self, qwz26):
        """Direct sum with a grading (an index-zero system) changes nothing."""
        bulk, part = qwz26
        g = rl.grading_operator(SiteModule(bulk.H.module.pointset, 2,
                                           grading=np.array([1, -1])))
        Hg = rl.direct_sum(bulk.H, g)
        bg = rl.make_bulk(Hg.module, Hg, bulk.spec)
        rep = rl.verify_bec(bg, part, {"windows": (6, 8, 10),
                                       "edge_windows": (5, 7, 9)})
        assert rep.passed and rep.bulk.snapped == -1

    def test_sweeps_recorded(self, chain200):
        _, H, spec = rl.build_model("ssh", {"t1": 0.5, "t2": 1.0}, chain200)
        bulk = rl.make_bulk(H.module, H, spec)
        part = rl.partition_halfspace(chain200, [1.0], 99.6)
        rep = rl.verify_bec(bulk, part, {
            "windows": (40, 60, 80), "disorder_strength": 0.2,
            "disorder_seeds": (0, 1), "truncation_radii": (1.5,)})
        assert len(rep.sweeps) == 3
        assert all(s["pass"] for s in rep.sweeps)
        kinds = [s["kind"] for s in rep.sweeps]
        assert kinds.count("disorder") == 2 and kinds.count("truncation") == 1

    def test_reasons_name_each_failure(self, chain200, monkeypatch):
        """The clean edge misses its snap and every sweep point mismatches:
        one reason each, and the verdict is their absence."""
        route = bulkedge.ROUTES["AIII", 1]
        shifts = iter([0.5, 1.0, 1.0])

        def edge(work, H_hat, cfg):
            rep, plateau = route.edge(work, H_hat, cfg)
            return replace(rep, raw=rep.raw + next(shifts)), plateau

        monkeypatch.setitem(bulkedge.ROUTES, ("AIII", 1), replace(route, edge=edge))
        _, H, spec = rl.build_model("ssh", {"t1": 0.5, "t2": 1.0}, chain200)
        part = rl.partition_halfspace(chain200, [1.0], 99.6)
        rep = rl.verify_bec(rl.make_bulk(H.module, H, spec), part, {
            "windows": (40, 60, 80), "disorder_strength": 0.2,
            "disorder_seeds": (7,), "truncation_radii": (1.5,)})
        assert not rep.passed and rep.edge.snapped is None
        assert len(rep.reasons) == 3
        assert rep.reasons[0].startswith("edge did not snap (raw 1.5")
        assert rep.reasons[1:] == ("disorder seed 7: bulk 1 != edge 2",
                                   "truncation radius 1.5: bulk 1 != edge 2")
        assert rep.to_json()["reasons"] == list(rep.reasons)

    def test_z2_reports_carry_only_their_own_snap_warning(self, chain200, monkeypatch):
        """Raws 0.15 from an integer snap cleanly mod 2: the integer snap of
        the underlying pairing leaves no warning in a Z2 report."""
        def shifted(pairing):
            def run(*args, **kwargs):
                rep = pairing(*args, **kwargs)
                raw = rep.raw + 0.15
                snapped, warns = snap_integer(raw)
                values = rep.values[:-1] + (raw,) if rep.values else ()
                return replace(rep, raw=raw, values=values, snapped=snapped,
                               warnings=warns)
            return run

        monkeypatch.setattr(bulkedge, "chern_odd", shifted(bulkedge.chern_odd))
        monkeypatch.setattr(bulkedge, "edge_fredholm", shifted(bulkedge.edge_fredholm))
        _, H, spec = rl.build_model("kitaev", {"mu": 1.0}, chain200)
        part = rl.partition_halfspace(chain200, [1.0], 99.6)
        rep = rl.verify_bec(rl.make_bulk(H.module, H, spec), part,
                            {"windows": (40, 60, 80)})
        for side in (rep.bulk, rep.edge):
            assert abs(side.raw - round(side.raw)) == pytest.approx(0.15, abs=0.02)
        assert rep.bulk.snapped == rep.edge.snapped == 1 and rep.passed
        assert rep.bulk.warnings == rep.edge.warnings == ()
