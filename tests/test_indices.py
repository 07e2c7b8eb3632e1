import re

import numpy as np
import pytest

import roelab as rl
from roelab import bloch
from roelab.indices import PairingError, snap_integer, snap_z2, spin_sectors, window_mask
from roelab.models import AUX_CHIRAL
from roelab.operators import OperatorError, SiteModule, onsite, site_blocks
from roelab.symmetry import RELATIONS, SymmetrySpec
from conftest import random_controlled

SZ = np.diag([1, -1]).astype(complex)


class TestSnapping:
    def test_integer(self):
        assert snap_integer(0.97) == (1, ())
        val, warn = snap_integer(0.7)
        assert val is None and warn

    def test_z2(self):
        assert snap_z2(1.1)[0] == 1
        assert snap_z2(2.2)[0] == 0
        assert snap_z2(-0.9)[0] == 1
        assert snap_z2(0.5)[0] is None


class TestTracePerUnitVolume:
    def test_identity_gives_orbital_count(self, chain200):
        mod = SiteModule(chain200, 3)
        est = rl.trace_per_unit_volume(rl.identity(mod), [20, 40, 60])
        assert all(v == pytest.approx(3.0) for v in est.values)
        assert est.error == 0.0

    def test_traceless_gives_zero(self, chain200):
        mod = SiteModule(chain200, 2, grading=np.array([1, -1]))
        est = rl.trace_per_unit_volume(rl.grading_operator(mod), [20, 40, 60])
        assert all(v == 0.0 for v in est.values)

    def test_random_diagonal_matches_brute_force(self, chain200):
        rng = np.random.default_rng(8)
        vals = rng.standard_normal(200)
        mod = SiteModule(chain200, 1)
        A = rl.ControlledOperator(mod, np.diag(vals).astype(complex), 0.0)
        est = rl.trace_per_unit_volume(A, [30, 50])
        c = chain200.window.mean(axis=1)
        for n, got in zip(est.windows, est.values):
            mask = (chain200.coords[:, 0] >= c[0] - n) & (chain200.coords[:, 0] < c[0] + n)
            assert got == pytest.approx(vals[mask].mean())

    def test_window_exceeding_sample(self, chain200):
        mod = SiteModule(chain200, 1)
        A = rl.identity(mod)
        with pytest.raises(PairingError):
            rl.trace_per_unit_volume(A, [120])

    def test_window_plus_margin_enforced(self, chain200):
        mod = SiteModule(chain200, 1)
        blocks = {(x, x + 1): np.ones((1, 1)) * 0.1 for x in range(199)}
        A = rl.ControlledOperator.from_blocks(mod, blocks)
        rl.trace_per_unit_volume(A, [98])
        with pytest.raises(PairingError):
            rl.trace_per_unit_volume(A, [99.5])

    def test_tracial_defect_decreases(self):
        """Folner property: |T_n(AB) - T_n(BA)| shrinks with the window,
        averaged over random finite-propagation pairs."""
        ps = rl.generate({"kind": "chain", "window": [[0, 240]]})
        mod = SiteModule(ps, 2)
        rng = np.random.default_rng(17)
        windows = (10.0, 30.0, 90.0)
        defects = np.zeros(3)
        for _ in range(30):
            A = random_controlled(mod, rng, hop_range=2.0)
            B = random_controlled(mod, rng, hop_range=2.0)
            AB = rl.trace_per_unit_volume(A @ B, windows)
            BA = rl.trace_per_unit_volume(B @ A, windows)
            defects += np.abs(np.array(AB.values) - np.array(BA.values))
        defects /= 30
        assert defects[0] > defects[1] > defects[2]
        # boundary-over-volume scaling: ratio ~ window ratio
        assert defects[2] < 0.2 * defects[0]


class TestChernEven:
    def test_trivial_projections(self, square20):
        """H = +1 and H = -1: an empty and a full occupied factor."""
        mod = SiteModule(square20, 2)
        for sign in (1, -1):
            H = rl.ControlledOperator(mod, sign * np.eye(800, dtype=complex), 0.0)
            rep = rl.chern_even(H, rl.certify_gap(H), [4, 6])
            assert abs(rep.raw) < 1e-12 and rep.snapped == 0

    def test_non_projection_rejected(self, qwz20, monkeypatch):
        """Occupied columns that are not orthonormal, scaled by 1/sqrt(2) (P/2,
        no projection) or sheared by 1e-6 (V V^* a projection to 1e-6 only), are
        refused by name."""
        mod, H, spec = qwz20
        cert = rl.certify_gap(H)
        w, v = H.eigh()
        rng = np.random.default_rng(7)
        A = rng.standard_normal((len(w), len(w))) + 1j * rng.standard_normal((len(w), len(w)))
        for bad in (v / np.sqrt(2), v + 1e-6 * A @ v):
            monkeypatch.setattr(type(H), "eigh", lambda self, bad=bad: (w, bad))
            with pytest.raises(PairingError, match="not orthonormal"):
                rl.chern_even(H, cert, [5, 6, 7])

    def test_qwz_matches_momentum_reference(self, qwz20):
        mod, H, spec = qwz20
        rep = rl.chern_even(H, rl.certify_gap(H), [5, 6, 7])
        oracle = bloch.fhs_chern(bloch.bloch_hamiltonian("qwz", {"m": 1.0}), 1, nk=24)
        assert rep.snapped == round(oracle) == -1
        assert abs(rep.raw - rep.snapped) < 0.05

    def test_trivial_phase(self, square20):
        mod, H, spec = rl.build_model("qwz", {"m": 3.0}, square20)
        rep = rl.chern_even(H, rl.certify_gap(H), [5, 6, 7])
        assert rep.snapped == 0 and abs(rep.raw) < 0.05

    def test_onsite_conjugation_invariance(self, qwz20):
        """Relation (1): unitary on-site basis changes leave the pairing alone."""
        mod, H, spec = qwz20
        rng = np.random.default_rng(3)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        W = np.linalg.qr(A)[0]
        Wfull = np.kron(np.eye(mod.n_sites), W)
        Hc = rl.ControlledOperator(mod, Wfull @ H.matrix @ Wfull.conj().T,
                                   H.declared_propagation)
        a = rl.chern_even(H, rl.certify_gap(H), [5, 6, 7])
        b = rl.chern_even(Hc, rl.certify_gap(Hc), [5, 6, 7])
        assert a.raw == pytest.approx(b.raw, abs=1e-10)

    def test_additivity_on_orbital_sectors(self, square20):
        _, H1, _ = rl.build_model("qwz", {"m": 1.0}, square20)
        _, H2, _ = rl.build_model("qwz", {"m": -1.0}, square20)
        D = rl.direct_sum(H1, H2)
        rep = rl.chern_even(D, rl.certify_gap(D), [5, 6, 7])
        assert rep.snapped == 0  # (-1) + (+1)
        D2 = rl.direct_sum(H1, H1)
        assert rl.chern_even(D2, rl.certify_gap(D2), [5, 6, 7]).snapped == -2


class TestChernOdd:
    def test_reference_unitary_gives_zero(self, chain200):
        mod = SiteModule(chain200, 2, grading=np.array([1, -1]))
        H = rl.ControlledOperator(mod, np.kron(np.eye(200), np.array(
            [[0, 1], [1, 0]], dtype=complex)), 0.0)
        spec = SymmetrySpec(has_P=True, P_unitary=SZ)
        rep = rl.chern_odd(H, rl.certify_gap(H), spec, [40, 60, 80])
        assert rep.raw == pytest.approx(0.0, abs=1e-12) and rep.snapped == 0

    @pytest.mark.parametrize("t1,t2,expect", [(1.0, 0.5, 0), (0.5, 1.0, 1)])
    def test_ssh_matches_momentum_winding(self, chain200, t1, t2, expect):
        _, H, spec = rl.build_model("ssh", {"t1": t1, "t2": t2}, chain200)
        rep = rl.chern_odd(H, rl.certify_gap(H), spec, [40, 60, 80])
        oracle = bloch.winding_1d(bloch.bloch_hamiltonian(
            "ssh", {"t1": t1, "t2": t2}), SZ)
        assert rep.snapped == round(oracle) == expect
        assert abs(rep.raw - rep.snapped) < 1e-6

    def test_disorder_stability_five_seeds(self, chain200):
        vals = []
        for seed in range(5):
            _, H, spec = rl.build_model("ssh", {"t1": 0.5, "t2": 1.0}, chain200,
                                        disorder=0.3, seed=seed)
            vals.append(rl.chern_odd(H, rl.certify_gap(H), spec, [40, 60, 80]).snapped)
        assert vals == [1] * 5

    def test_gap_without_zero_refused(self, chain200):
        """sgn(H - fermi) is the sign of H only when the gap holds 0: a gap
        about 2 (H + 2) and a gapless certificate are refused by name."""
        _, H, spec = rl.build_model("ssh", {"t1": 0.5, "t2": 1.0}, chain200)
        shifted = rl.ControlledOperator(H.module, H.matrix + 2 * np.eye(400),
                                        H.declared_propagation)
        cert = rl.certify_gap(shifted, fermi=2.0)
        assert cert.gapped and cert.lower_spectrum_max > 0
        gapless = rl.GapCertificate(epsilon=0.0, lower_spectrum_max=-0.1,
                                    upper_spectrum_min=0.1, fermi=0.0, gapped=False)
        for op, c in ((shifted, cert), (H, gapless)):
            with pytest.raises(OperatorError, match="certified gap containing 0"):
                rl.chern_odd(op, c, spec, [40, 60])

    def test_broken_chirality_rejected(self, chain200):
        _, H, spec = rl.build_model("ssh", {"t1": 0.5, "t2": 1.0}, chain200)
        rng = np.random.default_rng(0)
        pot = np.repeat(0.15 * rng.uniform(-1, 1, 200), 2)  # scalar disorder breaks P
        Hb = rl.ControlledOperator(H.module, H.matrix + np.diag(pot),
                                   H.declared_propagation)
        with pytest.raises(PairingError, match="chiral violation"):
            rl.chern_odd(Hb, rl.certify_gap(Hb), spec, [40, 60])

    @pytest.mark.slow
    def test_layered3d_matches_momentum_winding(self):
        """8^3 (dim 2048): the momentum winding, and the full products on the
        flattening (`_chern_odd_full`) to 1e-10."""
        ps = rl.generate({"kind": "cubic", "window": [[0, 8], [0, 8], [0, 8]]})
        _, H, spec = rl.build_model("layered3d", {"m": 2.0}, ps)
        aux = SymmetrySpec(has_P=True, P_unitary=AUX_CHIRAL["layered3d"])
        cert = rl.certify_gap(H)
        rep = rl.chern_odd(H, cert, aux, [2.0, 2.5, 3.0])
        oracle = bloch.winding_3d(bloch.bloch_hamiltonian("layered3d", {"m": 2.0}),
                                  AUX_CHIRAL["layered3d"], nk=20)
        assert rep.snapped == round(oracle) == 1
        want = _chern_odd_full(rl.flatten(H, cert), aux, [2.0, 2.5, 3.0])
        assert np.abs(np.array(rep.values) - np.real(want)).max() <= 1e-10


class TestKaneMele:
    """The class-AII route's bulk side: the spin-up Chern pairing mod 2."""

    @staticmethod
    def _spin_pairing(H, spec, windows):
        return rl.bulk_index(rl.make_bulk(H.module, H, spec), {"windows": windows})

    def test_mod_two_reduction_of_spin_chern(self):
        ps = rl.generate({"kind": "honeycomb", "window": [[0, 20], [0, 20]]})
        _, H, spec = rl.build_model("kane_mele", {"lso": 0.06, "lv": 0.1}, ps)
        H_up, H_dn, mixing = spin_sectors(H)
        assert mixing < 1e-12
        up = rl.chern_even(H_up, rl.certify_gap(H_up), [4, 5, 6])
        rep = self._spin_pairing(H, spec, (4, 5, 6))
        assert rep.z2 and rep.snapped == abs(up.snapped) % 2 == 1
        assert rep.raw == pytest.approx(up.raw)
        assert rep.formula == "kane_mele_spin_chern" and str(rep.group) == "Z2"

    def test_phases_match_reference(self):
        ps = rl.generate({"kind": "honeycomb", "window": [[0, 20], [0, 20]]})
        for lv, expect in ((0.1, 1), (0.4, 0)):
            _, H, spec = rl.build_model("kane_mele", {"lso": 0.06, "lv": lv}, ps)
            rep = self._spin_pairing(H, spec, (4, 5, 6))
            assert rep.snapped == bloch.kane_mele_z2_reference(1.0, 0.06, lv) == expect

    def test_spin_mixing_rejected(self):
        ps = rl.generate({"kind": "honeycomb", "window": [[0, 10], [0, 10]]})
        _, H, spec = rl.build_model("kane_mele", {"lso": 0.06, "lv": 0.1}, ps)
        # on-site spin flip sigma_x (x) tau_y on (A+, B+, A-, B-): it keeps T
        # (i sigma_y K), so only the spin-resolved route's own check rejects it
        mix = 0.05 * np.kron([[0, 1], [1, 0]], [[0, -1j], [1j, 0]])
        M = H.matrix + np.kron(np.eye(H.module.n_sites), mix)
        Hb = rl.ControlledOperator(H.module, M, H.declared_propagation)
        assert rl.verify_symmetry(Hb, spec).violations["T"] < 1e-12
        with pytest.raises(PairingError, match="spin"):
            self._spin_pairing(Hb, spec, (3, 4))


@pytest.fixture(scope="module")
def qwz26_edge():
    ps = rl.generate({"kind": "square", "window": [[0, 26], [0, 26]]})
    mod, H, spec = rl.build_model("qwz", {"m": 1.0}, ps)
    bulk = rl.make_bulk(mod, H, spec)
    part = rl.partition_halfspace(ps, [1.0, 0.0], 12.6)
    return bulk, part, rl.make_edge(bulk, part)


class TestEdgeConductance:
    def test_empty_interval_gives_zero(self, qwz26_edge):
        bulk, part, H_hat = qwz26_edge
        # clean QWZ edge on a small sample: pick an interval between edge levels
        w, _ = H_hat.eigh()
        ingap = np.sort(w[np.abs(w) < 0.5 * bulk.gap.epsilon])
        lo, hi = ingap[0], ingap[1]
        mid = 0.5 * (lo + hi)
        width = 0.1 * (hi - lo)
        rep = rl.edge_conductance(H_hat, (mid - width, mid + width),
                                  (5, 7), bulk_gap=bulk.gap)
        assert rep.raw == 0.0

    def test_matches_bulk_chern(self, qwz26_edge):
        bulk, part, H_hat = qwz26_edge
        cb = rl.chern_even(bulk.H, bulk.gap, [6, 8, 10])
        eps = bulk.gap.epsilon
        rep = rl.edge_conductance(H_hat, (-eps / 3, eps / 3),
                                  (5, 7, 9), bulk_gap=bulk.gap)
        assert rep.snapped == cb.snapped == -1
        assert abs(rep.raw - cb.snapped) < 0.1

    def test_orientation_flip_changes_sign(self):
        """Measured along one held-fixed direction (by the literal reference),
        the two half-spaces carry counter-propagating edge channels; with the
        direction tied to the normal both sides reproduce the bulk value."""
        ps = rl.generate({"kind": "square", "window": [[0, 26], [0, 26]]})
        mod, H, spec = rl.build_model("qwz", {"m": 1.0}, ps)
        bulk = rl.make_bulk(mod, H, spec)
        eps = bulk.gap.epsilon
        fixed, tied = [], []
        for normal, off in (([1.0, 0.0], 12.6), ([-1.0, 0.0], -12.6)):
            part = rl.partition_halfspace(ps, normal, off)
            H_hat = rl.make_edge(bulk, part)
            fixed.append(np.real(_edge_conductance_full(
                H_hat, part, (-eps / 3, eps / 3), (5, 7, 9), e=np.array([0.0, 1.0]))[-1]))
            tied.append(rl.edge_conductance(
                H_hat, (-eps / 3, eps / 3), (5, 7, 9), bulk_gap=bulk.gap).raw)
        assert fixed[0] == pytest.approx(-fixed[1], abs=0.08)
        assert tied[0] == pytest.approx(tied[1], abs=0.08)

    def test_interval_outside_gap_rejected(self, qwz26_edge):
        bulk, part, H_hat = qwz26_edge
        with pytest.raises(PairingError):
            rl.edge_conductance(H_hat, (-2.0, 2.0), (5, 7),
                                bulk_gap=bulk.gap)

    def test_plateau_between_widths(self, qwz26_edge):
        bulk, part, H_hat = qwz26_edge
        eps = bulk.gap.epsilon
        thirds = rl.edge_conductance(H_hat, (-eps / 3, eps / 3),
                                     (5, 7, 9), bulk_gap=bulk.gap)
        fifths = rl.edge_conductance(H_hat, (-eps / 5, eps / 5),
                                     (5, 7, 9), bulk_gap=bulk.gap)
        assert abs(thirds.raw - fifths.raw) < 0.05


class TestCompressionCarriesItsCut:
    """An edge pairing reads the cut from the compressed operator's point
    set, so a compression of a compression pairs on its own cut."""

    def test_nested_compression_gives_the_direct_cut(self, chain200):
        """ssh cut at 49.6, then its half chain cut at 99.6: the same raw as
        the cut at 99.6 made directly (before: refused, "50 shared")."""
        _, H, spec = rl.build_model("ssh", {"t1": 0.5, "t2": 1.0}, chain200)
        cert = rl.certify_gap(H)
        part = rl.partition_halfspace(chain200, [1.0], 99.6)
        direct = rl.compress(H, part)
        assert direct.module.pointset.cut is part
        half = rl.compress(H, rl.partition_halfspace(chain200, [1.0], 49.6))
        inner = rl.partition_halfspace(half.module.pointset, [1.0], 99.6)
        nested = rl.compress(half, inner)
        assert nested.module.pointset.cut is inner
        want = rl.edge_fredholm(direct, spec, cert)
        assert abs(want.raw - 1.0) < 1e-6
        assert rl.edge_fredholm(nested, spec, cert).raw == want.raw

    def test_uncompressed_operator_refused(self, chain200, qwz26_edge):
        bulk, _, _ = qwz26_edge
        eps = bulk.gap.epsilon
        _, H, spec = rl.build_model("ssh", {"t1": 0.5, "t2": 1.0}, chain200)
        for run in (lambda: rl.edge_conductance(bulk.H, (-eps / 3, eps / 3), (5, 7),
                                                bulk_gap=bulk.gap),
                    lambda: rl.edge_fredholm(H, spec, rl.certify_gap(H))):
            with pytest.raises(PairingError, match=re.escape(
                    "edge pairings expect a compressed (half-space) operator")):
                run()


class TestEdgeFredholm:
    def test_invertible_compression_gives_zero(self, chain200):
        _, H, spec = rl.build_model("ssh", {"t1": 1.0, "t2": 0.5}, chain200)
        part = rl.partition_halfspace(chain200, [1.0], 99.6)
        rep = rl.edge_fredholm(rl.compress(H, part), spec, rl.certify_gap(H))
        assert rep.snapped == 0

    def test_topological_phase_counts_cut_mode(self, chain200):
        _, H, spec = rl.build_model("ssh", {"t1": 0.5, "t2": 1.0}, chain200)
        part = rl.partition_halfspace(chain200, [1.0], 99.6)
        cert = rl.certify_gap(H)
        rep = rl.edge_fredholm(rl.compress(H, part), spec, cert)
        bulkw = rl.chern_odd(H, cert, spec, [40, 60, 80])
        assert rep.snapped == bulkw.snapped == 1
        assert abs(rep.raw - 1.0) < 1e-6

    def test_separation_guard(self):
        """An 18-, 15- or 16-cell half chain splits its two end modes above
        the 1e-6 kernel tolerance: to 2.9e-6, within 10 KERNEL_TOL, or to
        2.3e-5 and 1.1e-5, inside the bulk gap, which before read as an
        empty kernel (raw 0.0, snapped 0, no warning)."""
        for n, level in ((36, "-2.86e-06"), (30, "-2.29e-05"), (32, "-1.14e-05")):
            chain = rl.generate({"kind": "chain", "window": [[0, n]]})
            _, H, spec = rl.build_model("ssh", {"t1": 0.5, "t2": 1.0}, chain)
            part = rl.partition_halfspace(chain, [1.0], n / 2 - 0.4)
            with pytest.raises(PairingError, match=re.escape(
                    f"in-gap edge level E = {level} is not in the kernel (|E| < 1e-06): "
                    "the end modes split on this half chain; use a larger sample")):
                rl.edge_fredholm(rl.compress(H, part), spec, rl.certify_gap(H))


def _chiral_chain(name, chain, disorder=0.0):
    """Topological ssh or kitaev chain with its chiral spec."""
    if name == "ssh":
        _, H, spec = rl.build_model("ssh", {"t1": 0.5, "t2": 1.0}, chain, disorder=disorder)
        return H, spec
    _, H, _ = rl.build_model("kitaev", {"mu": 1.0}, chain, disorder=disorder)
    return H, SymmetrySpec(has_P=True, P_unitary=AUX_CHIRAL["kitaev"])


class TestSiteWiseChiralMatchesKron:
    """The chiral block chern_odd factors and edge_fredholm equal their
    n*m x n*m kron forms."""

    @pytest.mark.parametrize("name", ["ssh", "kitaev"])
    def test_chiral_block(self, chain200, name):
        """onsite(V+^*, H, V-^*) is the (plus, minus) block of W^* H W, W = 1 (x) V."""
        H, spec = _chiral_chain(name, chain200)
        w, V = np.linalg.eigh(spec.P_unitary)
        plus, minus = np.where(w > 0)[0], np.where(w < 0)[0]
        D = onsite(V[:, plus].conj().T, H.matrix, V[:, minus].conj().T)
        W = np.kron(np.eye(chain200.n), V)
        ip, im = H.module.orbital_index(plus), H.module.orbital_index(minus)
        dense = (W.conj().T @ H.matrix @ W)[np.ix_(ip, im)]
        assert np.abs(D).max() > 0.5 and np.abs(D - dense).max() < 1e-12

    @pytest.mark.parametrize("name", ["ssh", "kitaev"])
    def test_fredholm_value(self, chain200, name):
        H, spec = _chiral_chain(name, chain200)
        part = rl.partition_halfspace(chain200, [1.0], 99.6)
        H_hat = rl.compress(H, part)
        rep = rl.edge_fredholm(H_hat, spec, rl.certify_gap(H))
        w, v = H_hat.eigh()
        Q = v[:, np.abs(w) < 1e-6]
        proj = H_hat.module.pointset.coords[:, 0] * part.normal[0] - part.offset
        chi = np.repeat(proj <= proj.min() + 0.25 * (proj.max() - proj.min()), 2)
        Pfull = np.kron(np.eye(H_hat.module.n_sites), spec.P_unitary)
        dense = complex(np.trace(Q.conj().T @ (Pfull * chi[None, :]) @ Q))
        assert abs(dense) > 0.5
        assert abs(rep.raw - dense.real) < 1e-12 and abs(rep.error - abs(dense.imag)) < 1e-12


class TestStability:
    def test_symmetric_perturbation_below_half_gap(self, qwz20):
        """Relation (2): perturbations under eps/2 never move the snapped index."""
        mod, H, spec = qwz20
        cert = rl.certify_gap(H)
        base = rl.chern_even(H, cert, [5, 6, 7]).snapped
        from roelab.models import disorder_blocks
        for seed in range(4):
            blocks = disorder_blocks(spec, 2, mod.n_sites, 0.45 * cert.epsilon, seed)
            M = H.matrix.copy()
            M[site_blocks(len(M), 2)] += blocks
            Hp = rl.ControlledOperator(mod, M, H.declared_propagation)
            assert (Hp - H).norm() < cert.epsilon / 2 * 2.5
            cert_p = rl.certify_gap(Hp)
            assert cert_p.gapped
            got = rl.chern_even(Hp, cert_p, [5, 6, 7]).snapped
            assert got == base

    def test_truncation_stability(self):
        """Indices of H_R agree with H once the dropped tail is below eps/2."""
        ps = rl.generate({"kind": "square", "window": [[0, 18], [0, 18]]})
        _, H, spec = rl.build_model("qwz", {"m": 1.0, "cutoff": 4, "decay": 2.5}, ps)
        cert = rl.certify_gap(H)
        base = rl.chern_even(H, cert, [4, 5, 6]).snapped
        R0 = None
        for R in (1.5, 2.1, 2.9, 3.7, 4.2):
            if (H - rl.truncate(H, R)).norm() < cert.epsilon / 2:
                R0 = R
                break
        assert R0 is not None
        diam = rl.propagation(H)
        for R in np.linspace(R0, diam + 0.1, 4):
            HR = rl.truncate(H, R)
            cR = rl.certify_gap(HR)
            assert cR.gapped
            got = rl.chern_even(HR, cR, [4, 5, 6]).snapped
            assert got == base


# ---------------------------------------------------------------------------
# window-diagonal pairings against their literal full-product formulas
# ---------------------------------------------------------------------------

def _literal_volume_trace(traces, ps, windows):
    """Per-unit-volume sums of per-site traces over every window."""
    out = []
    for r in sorted(windows):
        inside = traces[window_mask(ps, r)]
        out.append(inside.mean() * ps.density if ps.density is not None
                   else inside.sum() / (2.0 * r) ** ps.dim)
    return out


def _chern_even_full(P, windows):
    """2 pi i T(P [D_1, D_2]) from the three full n x n products."""
    M = P.matrix
    D1, D2 = rl.derivation(P, 0).matrix, rl.derivation(P, 1).matrix
    traces = np.diag(M @ (D1 @ D2 - D2 @ D1)).reshape(-1, P.m).sum(axis=1)
    return [2j * np.pi * v for v in _literal_volume_trace(traces, P.module.pointset, windows)]


def _chern_odd_full(s, spec, windows):
    """The winding pairing of a flattening s = sgn(H - fermi) from full
    products of U* grad_j U (12 for d = 3).  U is the (minus, plus) block of
    W^* s W, W = 1 (x) V the kron eigenbasis of P, after the checks of s:
    s^2 = 1 to 1e-6, and P s P^* = -s to 1e-4 on the interior sites (15% of
    the extent from the sample boundary), since a flattening carries the
    chiral defect of the boundary zero modes."""
    M = s.matrix
    assert np.abs(M @ M - np.eye(len(M))).max() <= 1e-6
    ps = s.module.pointset
    margin = 0.15 * float((ps.window[:, 1] - ps.window[:, 0]).min())
    interior = np.repeat(ps.boundary_distance() > margin, s.m)
    assert RELATIONS["P"].defect(spec.P_unitary, s)[np.ix_(interior, interior)].max() <= 1e-4
    w, V = np.linalg.eigh(spec.P_unitary)
    ip, im = (s.module.orbital_index(np.where(sign)[0]) for sign in (w > 0, w < 0))
    W = np.kron(np.eye(ps.n), V)
    U = (W.conj().T @ M @ W)[np.ix_(im, ip)]
    xs = [s.module.position_along(e) for e in np.eye(ps.dim)]
    F = [U.conj().T @ (1j * (x[im][:, None] - x[ip][None, :]) * U) for x in xs]
    if ps.dim == 1:
        A, const = F[0], 1j
    else:
        A = (F[0] @ F[1] @ F[2] + F[1] @ F[2] @ F[0] + F[2] @ F[0] @ F[1]
             - F[0] @ F[2] @ F[1] - F[2] @ F[1] @ F[0] - F[1] @ F[0] @ F[2])
        const = 1j * (1j * np.pi) / 3.0
    traces = np.diag(A).reshape(ps.n, -1).sum(axis=1)
    return [const * v for v in _literal_volume_trace(traces, ps, windows)]


def _edge_conductance_full(H_hat, part, interval, windows, e=None):
    """The edge pairing with the current formed for every eigenstate, summed
    over each window's literal mask: the plus sites inside the strip
    (past_strip < 0) and the half-open interval about the interface centre,
    along the unit vector e (None: the cut's edge direction)."""
    w, v = H_hat.eigh()
    e = part.edge_direction() if e is None else e
    DHv = rl.derivation_along(H_hat, e).matrix @ v
    site_state = (v.conj() * DHv).reshape(H_hat.module.n_sites, H_hat.m, -1).sum(axis=1)
    plus = H_hat.module.pointset.coords          # the plus sites, in part.plus_ids order
    x = plus @ e
    iface = x[np.isin(part.plus_ids, part.interface_ids)]
    c0 = 0.5 * (iface.min() + iface.max())
    strip = part.past_strip(plus) < 0
    centre, half = 0.5 * (interval[0] + interval[1]), 0.5 * (interval[1] - interval[0])
    out = []
    for n in windows:
        vals = site_state[strip & (x >= c0 - n) & (x < c0 + n)].sum(axis=0) / (2 * n)
        out.append(np.mean([-2 * np.pi * vals[(w > centre - h) & (w < centre + h)].sum()
                            / (2 * h) for h in np.linspace(0.7 * half, half, 8)]))
    return out


def _plane_system(name, params, disorder):
    ps = rl.default_pointset(name, 12.0, params)
    _, H, _ = rl.build_model(name, params, ps, disorder=disorder, seed=1)
    return H, rl.certify_gap(H)


class TestWindowDiagonalMatchesFullProducts:
    @pytest.mark.parametrize("disorder", [0.0, 0.3], ids=["clean", "disorder"])
    @pytest.mark.parametrize("name, params", [("qwz", {"m": 1.0}), ("haldane", {}),
                                              ("harper", {"fermi": -1.5})],
                             ids=["qwz", "haldane", "harper"])
    def test_chern_even(self, name, params, disorder):
        H, cert = _plane_system(name, params, disorder)
        rep = rl.chern_even(H, cert, [2, 3, 4])
        want = _chern_even_full(rl.occupied_projection(H, cert), [2, 3, 4])
        assert abs(round(rep.raw)) == 1
        assert np.abs(np.array(rep.values) - np.real(want)).max() < 1e-12

    @pytest.mark.parametrize("name", ["ssh", "kitaev"])
    def test_chern_odd_d1(self, chain200, name):
        """The factor form (ssh: the solve's; kitaev: chern_odd's own SVD)
        equals the full products on the flattening, clean and at disorder 0.3."""
        for disorder in (0.0, 0.3):
            H, spec = _chiral_chain(name, chain200, disorder)
            cert = rl.certify_gap(H)
            rep = rl.chern_odd(H, cert, spec, [40, 60, 80])
            want = _chern_odd_full(rl.flatten(H, cert), spec, [40, 60, 80])
            assert abs(rep.snapped) == 1
            assert np.abs(np.array(rep.values) - np.real(want)).max() <= 1e-12

    def test_chern_odd_d3(self):
        ps = rl.generate({"kind": "cubic", "window": [[0, 4], [0, 4], [0, 4]]})
        _, H, _ = rl.build_model("layered3d", {"m": 2.0}, ps)
        spec = SymmetrySpec(has_P=True, P_unitary=AUX_CHIRAL["layered3d"])
        cert = rl.certify_gap(H)
        rep = rl.chern_odd(H, cert, spec, [1.0, 1.5])
        want = _chern_odd_full(rl.flatten(H, cert), spec, [1.0, 1.5])
        assert np.abs(np.array(rep.values) - np.real(want)).max() < 1e-12

    @pytest.mark.parametrize("fraction", [1 / 3, 1 / 5], ids=["third", "fifth"])
    def test_edge_conductance(self, fraction):
        ps = rl.generate({"kind": "square", "window": [[0, 12], [0, 12]]})
        mod, H, spec = rl.build_model("qwz", {"m": 1.0}, ps)
        bulk = rl.make_bulk(mod, H, spec)
        part = rl.partition_halfspace(ps, [1.0, 0.0], 5.6)
        H_hat = rl.make_edge(bulk, part)
        interval = (-fraction * bulk.gap.epsilon, fraction * bulk.gap.epsilon)
        rep = rl.edge_conductance(H_hat, interval, (2, 3, 4), bulk_gap=bulk.gap)
        want = _edge_conductance_full(H_hat, part, interval, (2, 3, 4))
        assert abs(rep.raw) > 0.5
        assert np.abs(np.array(rep.values) - np.real(want)).max() < 1e-12
