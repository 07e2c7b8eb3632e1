import numpy as np
import pytest

import roelab as rl
from roelab import bloch
from roelab.models import AUX_CHIRAL, ModelError, symmetrize_block
from roelab.symmetry import SymmetrySpec


class TestBuild:
    def test_unknown_model(self):
        with pytest.raises(ModelError):
            rl.build_model("nope", {})

    def test_ssh_clean(self, chain200):
        mod, H, spec = rl.build_model("ssh", {"t1": 1.0, "t2": 0.5}, chain200)
        assert rl.classify(spec) == "AIII"
        rep = rl.verify_symmetry(H, spec)
        assert rep.violations["P"] == 0.0
        cert = rl.certify_gap(H)
        assert cert.width == pytest.approx(2 * (1.0 - 0.5), abs=1e-2)

    def test_qwz_gap_matches_dispersion(self, square20):
        mod, H, spec = rl.build_model("qwz", {"m": 1.0}, square20)
        cert = rl.certify_gap(H)
        oracle = bloch.dispersion_gap(bloch.bloch_hamiltonian("qwz", {"m": 1.0}),
                                      nk=120, dim=2)
        assert cert.epsilon == pytest.approx(oracle, abs=0.05)

    def test_kane_mele_time_reversal(self):
        ps = rl.generate({"kind": "honeycomb", "window": [[0, 10], [0, 10]]})
        mod, H, spec = rl.build_model("kane_mele", {"lso": 0.06, "lv": 0.0}, ps)
        assert spec.T_sq == -1
        assert rl.verify_symmetry(H, spec).violations["T"] < 1e-12
        assert rl.classify(spec) == "AII"

    def test_kitaev_class_d(self, chain200):
        mod, H, spec = rl.build_model("kitaev", {"mu": 1.0}, chain200)
        assert rl.classify(spec) == "D"
        assert rl.verify_symmetry(H, spec).violations["C"] < 1e-14
        # real pairing: the C unitary also anticommutes, enabling the winding route
        aux = SymmetrySpec(has_P=True, P_unitary=AUX_CHIRAL["kitaev"])
        assert rl.verify_symmetry(H, aux).violations["P"] < 1e-14

    def test_layered3d_symmetries(self):
        ps = rl.generate({"kind": "cubic", "window": [[0, 5], [0, 5], [0, 5]]})
        mod, H, spec = rl.build_model("layered3d", {"m": 2.0}, ps)
        assert rl.classify(spec) == "AII"
        assert rl.verify_symmetry(H, spec).violations["T"] < 1e-12
        aux = SymmetrySpec(has_P=True, P_unitary=AUX_CHIRAL["layered3d"])
        assert rl.verify_symmetry(H, aux).violations["P"] < 1e-14

    def test_haldane_gap(self):
        ps = rl.generate({"kind": "honeycomb", "window": [[0, 12], [0, 12]]})
        mod, H, spec = rl.build_model("haldane", {"t2": 0.1}, ps)
        oracle = bloch.dispersion_gap(bloch.bloch_hamiltonian("haldane", {"t2": 0.1}),
                                      nk=150, dim=2)
        assert oracle == pytest.approx(3 * np.sqrt(3) * 0.1, abs=1e-3)
        eps = rl.certify_gap(H).epsilon
        # a windowed sample can only overestimate the gap minimum
        assert oracle - 0.01 < eps < oracle + 0.15

    def test_perturbed_lattice_hoppings(self):
        ps = rl.generate({"kind": "perturbed", "window": [[0, 10], [0, 10]],
                          "jitter": 0.15, "seed": 2})
        mod, H, spec = rl.build_model("qwz", {"m": 1.0}, ps)
        # every site is connected and amplitudes vary with bond length
        norms = H.block_norms()
        np.fill_diagonal(norms, 0)
        assert (norms.max(axis=1) > 0.1).all()
        offdiag = norms[norms > 1e-12]
        assert offdiag.std() > 1e-3

    def test_periodic_wrap(self, chain200):
        _, H, _ = rl.build_model("ssh", {"t1": 1.0, "t2": 0.5}, chain200,
                                 periodic=True)
        # the wrap bond connects the chain ends
        assert np.abs(H.block(0, chain200.n - 1)).max() > 0.4


class TestDisorder:
    def test_symmetrized_block_relations(self):
        rng = np.random.default_rng(0)
        T = np.kron(1j * np.array([[0, -1j], [1j, 0]]), np.eye(2))
        spec = SymmetrySpec(has_T=True, T_sq=-1, T_unitary=T)
        for _ in range(50):
            raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            raw = raw + raw.conj().T
            B = symmetrize_block(raw, spec)
            assert np.abs(T @ B.conj() @ T.conj().T - B).max() < 1e-12

    def test_disordered_models_keep_symmetry(self, chain200):
        for name, params in (("ssh", {"t1": 0.7, "t2": 1.0}),
                             ("kitaev", {"mu": 0.8})):
            mod, H, spec = rl.build_model(name, params, chain200,
                                          disorder=0.4, seed=5)
            rep = rl.verify_symmetry(H, spec)
            assert rep.max_violation < 1e-10

    def test_disordered_km_keeps_T_and_spin(self):
        ps = rl.generate({"kind": "honeycomb", "window": [[0, 10], [0, 10]]})
        mod, H, spec = rl.build_model("kane_mele", {"lso": 0.06, "lv": 0.1}, ps,
                                      disorder=0.2, seed=9)
        assert rl.verify_symmetry(H, spec).violations["T"] < 1e-10
        from roelab.indices import spin_sectors
        _, _, mixing = spin_sectors(H)
        assert mixing < 1e-12

    def test_disorder_is_seeded(self, chain200):
        _, H1, _ = rl.build_model("ssh", {}, chain200, disorder=0.3, seed=4)
        _, H2, _ = rl.build_model("ssh", {}, chain200, disorder=0.3, seed=4)
        _, H3, _ = rl.build_model("ssh", {}, chain200, disorder=0.3, seed=5)
        assert np.array_equal(H1.matrix, H2.matrix)
        assert not np.array_equal(H1.matrix, H3.matrix)

    def test_chiral_disorder_is_nontrivial(self, chain200):
        _, H0, _ = rl.build_model("ssh", {}, chain200)
        _, H1, _ = rl.build_model("ssh", {}, chain200, disorder=0.3, seed=1)
        assert np.abs(H1.matrix - H0.matrix).max() > 0.01


class TestBlochReferences:
    def test_qwz_chern_phase_diagram(self):
        for m, c in ((-3.0, 0), (-1.0, 1), (1.0, -1), (3.0, 0)):
            got = bloch.fhs_chern(bloch.bloch_hamiltonian("qwz", {"m": m}), 1, nk=24)
            assert got == pytest.approx(c, abs=1e-6)

    def test_ssh_winding(self):
        SZ = np.diag([1, -1]).astype(complex)
        h1 = bloch.bloch_hamiltonian("ssh", {"t1": 1.0, "t2": 0.5})
        h2 = bloch.bloch_hamiltonian("ssh", {"t1": 0.5, "t2": 1.0})
        assert bloch.winding_1d(h1, SZ) == pytest.approx(0.0, abs=1e-9)
        assert bloch.winding_1d(h2, SZ) == pytest.approx(1.0, abs=1e-9)

    def test_kitaev_winding(self):
        chi = AUX_CHIRAL["kitaev"]
        h_top = bloch.bloch_hamiltonian("kitaev", {"mu": 1.0})
        h_triv = bloch.bloch_hamiltonian("kitaev", {"mu": 3.0})
        assert abs(bloch.winding_1d(h_top, chi)) == pytest.approx(1.0, abs=1e-9)
        assert bloch.winding_1d(h_triv, chi) == pytest.approx(0.0, abs=1e-9)

    def test_layered3d_winding(self):
        chi = AUX_CHIRAL["layered3d"]
        for m, w in ((2.0, 1), (0.5, -2), (4.0, 0)):
            got = bloch.winding_3d(bloch.bloch_hamiltonian("layered3d", {"m": m}),
                                   chi, nk=20)
            assert got == pytest.approx(w, abs=0.08)

    def test_dispersion_gap_grid(self):
        """The minimum over the dim-fold momentum grid equals a literal
        nested loop bit for bit; a dim outside 1..3 is refused."""
        h = bloch.bloch_hamiltonian("qwz", {"m": 1.0})
        ks = 2 * np.pi * np.arange(12) / 12
        want = min(np.abs(np.linalg.eigvalsh(h((k1, k2)))).min() for k1 in ks for k2 in ks)
        assert bloch.dispersion_gap(h, nk=12, dim=2) == want
        for dim in (0, 4):
            with pytest.raises(ValueError, match="needs dim 1, 2 or 3"):
                bloch.dispersion_gap(h, nk=2, dim=dim)

    def test_kane_mele_reference_phases(self):
        assert bloch.kane_mele_z2_reference(1.0, 0.06, 0.1) == 1
        assert bloch.kane_mele_z2_reference(1.0, 0.06, 0.4) == 0

    def test_harper_spectrum_symmetry(self):
        h = bloch.harper_bloch(1, 4)
        w = np.linalg.eigvalsh(h((0.3, 1.1)))
        assert np.allclose(np.sort(w), -np.sort(-np.array(w))[::-1])
        with pytest.raises(ValueError):
            bloch.bloch_hamiltonian("harper")

    def test_haldane_chern(self):
        got = bloch.fhs_chern(bloch.bloch_hamiltonian("haldane", {"t2": 0.1}), 1, nk=36)
        assert abs(got) == pytest.approx(1.0, abs=1e-6)
        trivial = bloch.fhs_chern(bloch.bloch_hamiltonian(
            "haldane", {"t2": 0.1, "mass": 0.8}), 1, nk=36)
        assert trivial == pytest.approx(0.0, abs=1e-6)
