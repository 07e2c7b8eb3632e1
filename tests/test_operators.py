import numpy as np
import pytest

import roelab as rl
from roelab import bloch, operators
from roelab.operators import OperatorError, SiteModule, decay_length, site_blocks
from roelab.symmetry import SymmetrySpec
from conftest import random_controlled

SZ = np.diag([1, -1]).astype(complex)


@pytest.fixture(scope="module")
def chain30():
    return rl.generate({"kind": "chain", "window": [[0, 30]]})


@pytest.fixture(scope="module")
def mod30(chain30):
    return SiteModule(chain30, 2, grading=np.array([1, -1]))


class TestPropagation:
    def test_diagonal_is_zero(self, mod30):
        H = rl.ControlledOperator(mod30, np.diag(np.arange(60, dtype=complex)), 5.0)
        assert rl.propagation(H) == 0.0

    def test_nearest_neighbour_square(self, square20):
        mod, H, _ = rl.build_model("qwz", {"m": 1.0}, square20)
        assert rl.propagation(H) == pytest.approx(1.0)

    def test_random_matches_brute_force(self, mod30):
        rng = np.random.default_rng(3)
        A = random_controlled(mod30, rng, hop_range=3.2)
        dist = np.abs(mod30.pointset.coords[:, 0][:, None]
                      - mod30.pointset.coords[:, 0][None, :])
        best = 0.0
        for x in range(mod30.n_sites):
            for y in range(mod30.n_sites):
                if np.abs(A.block(x, y)).max() > 1e-14:
                    best = max(best, dist[x, y])
        assert rl.propagation(A) == pytest.approx(best)

    def test_subadditive_under_product(self, mod30):
        rng = np.random.default_rng(7)
        for _ in range(40):
            A = random_controlled(mod30, rng, hop_range=2.2)
            B = random_controlled(mod30, rng, hop_range=1.2)
            assert rl.propagation(A @ B) <= rl.propagation(A) + rl.propagation(B) + 1e-9
            assert rl.propagation(A + B) <= max(rl.propagation(A),
                                                rl.propagation(B)) + 1e-9


class TestTruncate:
    def test_identity_beyond_propagation(self, qwz20):
        _, H, _ = qwz20
        H2 = rl.truncate(H, 1.5)
        assert np.array_equal(H2.matrix, H.matrix)

    def test_tiny_radius_keeps_diagonal(self, qwz20):
        _, H, _ = qwz20
        H0 = rl.truncate(H, 1e-9)
        assert np.abs(H0.matrix - np.diag(np.diag(H.matrix))).max() == 0.0

    def test_norm_decreasing_in_radius(self):
        ps = rl.generate({"kind": "square", "window": [[0, 12], [0, 12]]})
        _, H, _ = rl.build_model("qwz", {"m": 1.0, "cutoff": 4, "decay": 1.0}, ps)
        prev = np.inf
        for R in (1.5, 2.2, 3.1, 4.1):
            n = (H - rl.truncate(H, R)).norm()
            assert n <= prev + 1e-12
            prev = n
        assert (H - rl.truncate(H, rl.propagation(H) + 0.1)).norm() == 0.0

    def test_tail_bound_matches_dense_norm(self):
        """Dropping the tail costs at most the dense norm of the dropped part,
        computed independently."""
        ps = rl.generate({"kind": "square", "window": [[0, 10], [0, 10]]})
        _, H, _ = rl.build_model("qwz", {"m": 1.0, "cutoff": 5, "decay": 1.2}, ps)
        R = 3.0
        dropped = H.matrix - rl.truncate(H, R).matrix
        oracle = np.abs(np.linalg.eigvalsh(dropped)).max()
        assert (H - rl.truncate(H, R)).norm() == pytest.approx(oracle, rel=1e-12)
        assert oracle < 2.0


class TestCertifyGap:
    def test_identity(self, mod30):
        cert = rl.certify_gap(rl.identity(mod30), fermi=0.0)
        assert cert.epsilon == pytest.approx(1.0)
        assert cert.gapped and cert.lower_spectrum_max is None

    def test_ssh_periodic_matches_dispersion(self, chain200):
        _, H, _ = rl.build_model("ssh", {"t1": 1.0, "t2": 0.5}, chain200,
                                 periodic=True)
        cert = rl.certify_gap(H)
        oracle = bloch.dispersion_gap(bloch.bloch_hamiltonian(
            "ssh", {"t1": 1.0, "t2": 0.5}), nk=400)
        assert cert.gapped
        assert cert.epsilon == pytest.approx(oracle, abs=5e-3)
        assert cert.width == pytest.approx(1.0, abs=1e-2)

    def test_gapless_chain_flagged(self, chain200):
        _, H, _ = rl.build_model("ssh", {"t1": 1.0, "t2": 1.0}, chain200,
                                 periodic=True)
        assert bloch.dispersion_gap(bloch.bloch_hamiltonian(
            "ssh", {"t1": 1.0, "t2": 1.0}), nk=400) < 2e-2
        assert not rl.certify_gap(H).gapped

    def test_open_topological_chain_bulk_gap(self, chain200):
        # end zero modes are boundary physics and must not close the bulk gap
        _, H, _ = rl.build_model("ssh", {"t1": 0.5, "t2": 1.0}, chain200)
        cert = rl.certify_gap(H)
        assert cert.gapped and cert.epsilon > 0.4

    def test_degenerate_level_counts_once(self, chain30):
        """A doubly degenerate (Kramers-paired) spectrum has the level spacing
        and the verdict of one copy; counting each pair twice would halve the
        levels sampled and, with spacings shrinking away from the gap, refuse."""
        e = 0.08 + 0.2 * np.sqrt(np.arange(30))
        e = e[np.random.default_rng(0).permutation(30)]   # levels over the sites
        one, two = (rl.certify_gap(rl.ControlledOperator(
            SiteModule(chain30, m), np.diag(np.repeat(e, m)).astype(complex), 0.0))
            for m in (1, 2))
        assert two.level_spacing == pytest.approx(one.level_spacing)
        assert one.gapped and two.gapped

    def test_non_hermitian_rejected(self, mod30):
        M = np.zeros((60, 60), dtype=complex)
        M[0, 1] = 1.0
        A = rl.ControlledOperator(mod30, M, 0.0, hermitian=False)
        with pytest.raises(OperatorError):
            rl.certify_gap(A)


class TestFlatten:
    def test_diagonal_signs(self, mod30):
        lam = np.concatenate([np.linspace(-2.5, -0.5, 30), np.linspace(0.5, 2.5, 30)])
        H = rl.ControlledOperator(mod30, np.diag(lam).astype(complex), 0.0)
        cert = rl.certify_gap(H)
        s = rl.flatten(H, cert)
        assert np.allclose(s.matrix, np.diag(np.sign(lam)))

    def test_symmetry_fixed_point(self, mod30):
        g = rl.grading_operator(mod30)
        cert = rl.certify_gap(g)
        s = rl.flatten(g, cert)
        assert np.abs(s.matrix - g.matrix).max() < 1e-12

    def test_involution_and_decay(self, qwz20):
        _, H, _ = qwz20
        s = rl.flatten(H, rl.certify_gap(H))
        assert np.abs(s.matrix @ s.matrix - np.eye(s.module.dim)).max() < 1e-10
        xi, C = decay_length(s)
        # exponential decay, slowed near the open boundary by gapless edge modes
        assert np.isfinite(xi) and 0 < xi < 8.0

    def test_no_gap_rejected(self, chain200):
        _, H, _ = rl.build_model("ssh", {"t1": 1.0, "t2": 1.0}, chain200,
                                 periodic=True)
        cert = rl.certify_gap(H)
        with pytest.raises(OperatorError):
            rl.flatten(H, cert)

    def test_preserves_symmetries(self, chain200):
        """Exact T, C, P of the input carry to sgn(H) at the interior."""
        _, H, spec = rl.build_model("kitaev", {"mu": 1.0}, chain200)
        s = rl.flatten(H, rl.certify_gap(H))
        full = SymmetrySpec(has_T=True, T_sq=1, T_unitary=np.eye(2),
                            has_C=True, C_sq=1,
                            C_unitary=np.array([[0, 1], [1, 0]], dtype=complex))
        rep = rl.verify_symmetry(s, full)
        assert rep.violations["T"] < 1e-10
        # C and P are exact away from the ends (the ends carry the index)
        n = s.module.n_sites
        P = np.kron(np.eye(n), np.array([[0, 1], [1, 0]]))
        defect = 0.5 * np.abs(s.matrix + P @ s.matrix @ P)
        interior = np.repeat((chain200.coords[:, 0] > 20)
                             & (chain200.coords[:, 0] < 180), 2)
        assert defect[np.ix_(interior, interior)].max() < 1e-10


class TestDerivation:
    def test_diagonal_gives_zero(self, mod30):
        H = rl.ControlledOperator(mod30, np.diag(np.arange(60, dtype=complex)), 0.0)
        assert np.abs(rl.derivation(H, 0).matrix).max() == 0.0

    def test_unit_shift_modulus(self, chain30):
        mod = SiteModule(chain30, 1)
        blocks = {(x, x + 1): np.ones((1, 1)) for x in range(chain30.n - 1)}
        S = rl.ControlledOperator.from_blocks(mod, blocks, hermitian=False)
        D = rl.derivation(S, 0)
        vals = np.abs(D.matrix[np.abs(S.matrix) > 0])
        assert np.allclose(vals, 1.0)

    def test_leibniz_exact(self, mod30):
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = random_controlled(mod30, rng, hop_range=2.0)
            B = random_controlled(mod30, rng, hop_range=1.4)
            lhs = rl.derivation(A @ B, 0).matrix
            rhs = (rl.derivation(A, 0) @ B).matrix + (A @ rl.derivation(B, 0)).matrix
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_derivation_of_identity(self, mod30):
        assert np.abs(rl.derivation(rl.identity(mod30), 0).matrix).max() == 0.0

    def test_directional_combination(self, square20):
        mod, H, _ = rl.build_model("qwz", {"m": 1.0}, square20)
        e = np.array([0.6, 0.8])
        D = rl.derivation_along(H, e).matrix
        Dx = rl.derivation(H, 0).matrix
        Dy = rl.derivation(H, 1).matrix
        assert np.abs(D - 0.6 * Dx - 0.8 * Dy).max() < 1e-12


class TestCompress:
    def test_diagonal_restriction(self, square20):
        mod = SiteModule(square20, 1)
        H = rl.ControlledOperator(mod, np.diag(np.arange(400, dtype=complex)), 0.0)
        part = rl.partition_halfspace(square20, [1, 0], 9.6)
        Hh = rl.compress(H, part)
        assert np.allclose(np.diag(Hh.matrix), part.plus_ids)

    def test_minus_supported_becomes_zero(self, square20):
        mod = SiteModule(square20, 1)
        part = rl.partition_halfspace(square20, [1, 0], 9.6)
        M = np.zeros((400, 400), dtype=complex)
        for i in part.minus_ids:
            M[i, i] = 1.0
        H = rl.ControlledOperator(mod, M, 0.0)
        assert np.abs(rl.compress(H, part).matrix).max() == 0.0

    def test_against_mask_oracle(self, qwz20):
        mod, H, _ = qwz20
        part = rl.partition_halfspace(mod.pointset, [1, 0], 9.6)
        Hh = rl.compress(H, part)
        chi = np.repeat(np.isin(np.arange(400), part.plus_ids), 2)
        masked = (H.matrix * chi[:, None] * chi[None, :])
        idx = np.where(chi)[0]
        assert np.array_equal(Hh.matrix, masked[np.ix_(idx, idx)])

    def test_idempotent_and_unital(self, qwz20):
        mod, H, _ = qwz20
        part = rl.partition_halfspace(mod.pointset, [1, 0], 9.6)
        Hh = rl.compress(H, part)
        sub_ids = np.arange(Hh.module.n_sites)
        part2 = rl.Partition(plus_ids=sub_ids, minus_ids=np.array([], dtype=int),
                             interface_ids=sub_ids[:1], normal=part.normal,
                             offset=part.offset, thickness=part.thickness)
        assert np.array_equal(rl.compress(Hh, part2).matrix, Hh.matrix)
        one = rl.compress(rl.identity(mod), part)
        assert np.allclose(one.matrix, np.eye(one.module.dim))

    def test_gap_preserving_homotopy(self, qwz20):
        """Linear interpolation towards a small symmetric perturbation keeps
        the gap open at eleven checkpoints."""
        mod, H, spec = qwz20
        cert = rl.certify_gap(H)
        rng = np.random.default_rng(2)
        from roelab.models import disorder_blocks
        blocks = disorder_blocks(spec, 2, mod.n_sites, 0.3 * cert.epsilon, 2)
        M = H.matrix.copy()
        M[site_blocks(len(M), 2)] += blocks
        Hp = rl.ControlledOperator(mod, M, H.declared_propagation)
        assert (Hp - H).norm() < cert.epsilon
        for t in np.linspace(0, 1, 11):
            Ht = rl.ControlledOperator(mod, (1 - t) * H.matrix + t * Hp.matrix,
                                       H.declared_propagation)
            assert rl.certify_gap(Ht).gapped


class TestDirectSum:
    def test_grading_and_blocks(self, qwz20):
        mod, H, _ = qwz20
        g = rl.grading_operator(mod)
        D = rl.direct_sum(H, g)
        assert D.module.orbitals_per_site == 4
        assert np.array_equal(D.module.grading, [1, -1, 1, -1])
        assert D.block(0, 0)[:2, :2] == pytest.approx(H.block(0, 0))
        assert np.abs(D.block(0, 0)[:2, 2:]).max() == 0.0

    def test_spectrum_is_union(self, mod30):
        rng = np.random.default_rng(4)
        A = random_controlled(mod30, rng)
        B = random_controlled(mod30, rng)
        D = rl.direct_sum(A, B)
        wa, _ = np.linalg.eigh(A.matrix), None
        got = np.sort(np.linalg.eigvalsh(D.matrix))
        want = np.sort(np.concatenate([np.linalg.eigvalsh(A.matrix),
                                       np.linalg.eigvalsh(B.matrix)]))
        assert np.allclose(got, want)


def _random_unitary(rng, m):
    Z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return np.linalg.qr(Z)[0]


class TestOnsite:
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_matches_kron(self, m):
        rng = np.random.default_rng(m)
        n = 23
        M = rng.standard_normal((n * m, n * m)) + 1j * rng.standard_normal((n * m, n * m))
        U, V = _random_unitary(rng, m), _random_unitary(rng, m)
        KU, KV = np.kron(np.eye(n), U), np.kron(np.eye(n), V)
        assert np.abs(rl.onsite(U, M) - KU @ M @ KU.conj().T).max() < 1e-12
        assert np.abs(rl.onsite(U, M, V) - KU @ M @ KV.conj().T).max() < 1e-12

    def test_rectangular_blocks(self):
        """(p x m) and (q x m) blocks give the (n p, n q) sub-block directly."""
        rng = np.random.default_rng(5)
        n, m = 17, 4
        M = rng.standard_normal((n * m, n * m)) + 1j * rng.standard_normal((n * m, n * m))
        W = _random_unitary(rng, m)
        A, B = W[:, :1].conj().T, W[:, 1:].conj().T            # 1 x 4 and 3 x 4
        dense = np.kron(np.eye(n), A) @ M @ np.kron(np.eye(n), B).conj().T
        got = rl.onsite(A, M, B)
        assert got.shape == (n, 3 * n)
        assert np.abs(got - dense).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(OperatorError):
            rl.onsite(np.eye(3), np.eye(8))
        with pytest.raises(OperatorError):
            rl.onsite(np.eye(2), np.eye(8), np.eye(4))


class TestSiteBlocks:
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_matches_the_slice_loop(self, m):
        """Assigning one block and adding one block per site equal the loop
        over diagonal slices bit for bit."""
        rng = np.random.default_rng(m)
        n = 11
        one = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        per_site = list(rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m)))
        want = rng.standard_normal((n * m, n * m)) + 0j
        got = want.copy()
        for x, B in enumerate(per_site):
            want[x * m:(x + 1) * m, x * m:(x + 1) * m] = one
            want[x * m:(x + 1) * m, x * m:(x + 1) * m] += B
        got[site_blocks(n * m, m)] = one
        got[site_blocks(n * m, m)] += per_site
        assert got.tobytes() == want.tobytes()


class TestFromBlocks:
    def test_propagation_unchanged_on_every_model(self):
        """from_blocks declares the bound the former inline block-max gave."""
        for name in rl.MODELS:
            ps = rl.default_pointset(name, 5.0)
            mod, H, _ = rl.build_model(name, {}, ps)
            blocks = {(x, y): B for x, y, B in H.nonzero_blocks()}
            A = rl.ControlledOperator.from_blocks(mod, blocks)
            m, n = mod.orbitals_per_site, mod.n_sites
            norms = np.abs(A.matrix).reshape(n, m, n, m).max(axis=(1, 3))
            mask = norms > 1e-14
            inline = float(rl.operators.site_distances(ps)[mask].max()) if mask.any() else 0.0
            assert np.array_equal(A.matrix, H.matrix), name
            assert A.declared_propagation == inline == H.declared_propagation, name


class TestFromJson:
    @pytest.fixture
    def doc(self, chain30):
        _, H, _ = rl.build_model("ssh", {}, chain30)
        return H.to_json()

    @pytest.mark.parametrize("index", [-1, 30])
    def test_block_index_out_of_range(self, doc, index):
        doc["blocks"][0][1] = index
        with pytest.raises(OperatorError, match="outside"):
            rl.ControlledOperator.from_json(doc)

    def test_block_shape(self, doc):
        doc["blocks"][0][2] = [[[1.0, 0.0]]]
        with pytest.raises(OperatorError, match="shape"):
            rl.ControlledOperator.from_json(doc)

    def test_hermitian_flag_contradicted(self, doc):
        x, y, rows = next(b for b in doc["blocks"] if b[0] != b[1])
        rows[0][0][0] += 1.0
        with pytest.raises(OperatorError, match="Hermitian"):
            rl.ControlledOperator.from_json(doc)
        doc["hermitian"] = False
        assert not rl.ControlledOperator.from_json(doc).hermitian


def _random_controlled_loop(module, rng, hop_range=1.5, scale=1.0, hermitian=True):
    """The per-pair loop `random_controlled` replaced, kept as its reference."""
    from scipy.spatial.distance import cdist
    m = module.orbitals_per_site
    ps = module.pointset
    dist = cdist(ps.coords, ps.coords)
    blocks = {}
    for x in range(ps.n):
        for y in range(ps.n):
            if y < x or dist[x, y] > hop_range:
                continue
            B = scale * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            if x == y and hermitian:
                B = (B + B.conj().T) / 2
            blocks[(x, y)] = B
    return rl.ControlledOperator.from_blocks(module, blocks, hermitian=hermitian)


class TestRandomControlledHelper:
    @pytest.mark.parametrize("n, m, hops, scale, hermitian", [
        (24, 2, (1.0, 1.7, 2.0, 3.0), 1.0, True),       # criterion 8
        (240, 1, (2.0,), 1.0, True),                    # criterion 8, Folner part
        (240, 2, (2.0,), 1.0, True),                    # tracial defect
        (30, 2, (3.2, 2.2, 1.2, 2.0, 1.4, 1.5), 1.0, True),
        (200, 2, (1.5,), 1.0, True),                    # real-symmetric T check
        (30, 3, (2.5,), 0.7, False),
    ])
    def test_bit_identical_to_loop(self, n, m, hops, scale, hermitian):
        mod = SiteModule(rl.generate({"kind": "chain", "window": [[0, n]]}), m)
        new, old = np.random.default_rng(9), np.random.default_rng(9)
        for hop in hops:
            A = random_controlled(mod, new, hop_range=hop, scale=scale, hermitian=hermitian)
            B = _random_controlled_loop(mod, old, hop_range=hop, scale=scale,
                                        hermitian=hermitian)
            assert np.array_equal(A.matrix, B.matrix)
            assert A.declared_propagation == B.declared_propagation
            assert A.hermitian == B.hermitian
        assert new.bit_generator.state == old.bit_generator.state

    def test_bit_identical_on_a_plane(self, square16):
        mod = SiteModule(square16, 2)
        A = random_controlled(mod, np.random.default_rng(3), hop_range=1.5)
        B = _random_controlled_loop(mod, np.random.default_rng(3), hop_range=1.5)
        assert np.array_equal(A.matrix, B.matrix)
        assert A.declared_propagation == B.declared_propagation


class TestOrbitalIndex:
    @pytest.mark.parametrize("idx", [[0], [1, 3], [2, 0], [3, 2, 1, 0], []])
    def test_matches_the_inline_expression(self, idx):
        mod = SiteModule(rl.generate({"kind": "chain", "window": [[0, 7]]}), 4)
        want = (np.arange(7)[:, None] * 4 + np.asarray(idx, dtype=int)[None, :]).ravel()
        got = mod.orbital_index(np.asarray(idx, dtype=int))
        assert np.array_equal(got, want) and got.dtype == want.dtype


def _small_model(name, disorder):
    ps = rl.default_pointset(name, 4.0 if name == "layered3d" else 6.0)
    return rl.build_model(name, {}, ps, disorder=disorder, seed=5)[1]


class TestSpectralLayer:
    """`ControlledOperator.eigh` against the dense complex solve of the same matrix."""

    @pytest.mark.parametrize("disorder", [0.0, 0.3])
    @pytest.mark.parametrize("name", sorted(rl.MODELS))
    def test_matches_dense_solve(self, name, disorder):
        H = _small_model(name, disorder)
        w, v = H.eigh()
        w0, v0 = np.linalg.eigh(H.matrix)
        assert np.abs(w - w0).max() <= 1e-12
        assert np.abs(H.matrix @ v - v * w).max() <= 1e-12
        assert np.abs(v.conj().T @ v - np.eye(len(w))).max() <= 1e-12
        # occupied projection at a Fermi level inside the widest spectral gap
        i = int(np.argmax(np.diff(w0)))
        fermi = 0.5 * (w0[i] + w0[i + 1])
        P = v[:, w < fermi] @ v[:, w < fermi].conj().T
        P0 = v0[:, w0 < fermi] @ v0[:, w0 < fermi].conj().T
        assert np.abs(P - P0).max() <= 1e-10

    @pytest.mark.parametrize("disorder", [0.0, 0.3])
    def test_kane_mele_solves_spin_sectors(self, disorder):
        # the disorder keeps spin_z (the model's conserved label)
        H = _small_model("kane_mele", disorder)
        _, v = H.eigh()
        half = H.module.dim // 2
        assert H.eigh_method == f"MRRR, spin_z sectors ({half}, {half})"
        assert np.iscomplexobj(v)

    @pytest.mark.parametrize("name, disorder, method", [
        ("ssh", 0.0, "SVD, real, sublattice chiral (6, 6)"),
        ("kitaev", 0.3, "divide and conquer, real"),
        ("layered3d", 0.3, "MRRR"),    # spin_z is mixed
        ("qwz", 0.0, "MRRR"),
    ], ids=["ssh-0.0", "kitaev-0.3", "layered3d-0.3", "qwz-0.0"])
    def test_no_sector_split_without_a_conserved_label(self, name, disorder, method):
        H = _small_model(name, disorder)
        _, v = H.eigh()
        assert H.eigh_method == method
        assert np.isrealobj(v) == ("real" in method.split(", "))

    def test_first_conserved_label_of_several_values(self):
        """Three sectors of the second label; orbitals 1 and 3 share one and
        carry different values of the first label, which therefore mixes."""
        kept = np.array([2, 0, 1, 0])
        mod = SiteModule(rl.generate({"kind": "chain", "window": [[0, 20]]}), 4,
                         labels={"mixed": np.array([1, -1, 1, 1]), "kept": kept})
        A = random_controlled(mod, np.random.default_rng(11), hop_range=2.5)
        sector = np.tile(kept, 20)
        M = np.where(sector[:, None] == sector[None, :], A.matrix, 0.0)
        H = rl.ControlledOperator(mod, M, A.declared_propagation)
        w, v = H.eigh()
        assert H.eigh_method == "divide and conquer, kept sectors (40, 20, 20)"
        assert np.all(np.diff(w) >= 0)
        assert np.abs(w - np.linalg.eigvalsh(M)).max() <= 1e-12
        assert np.abs(M @ v - v * w).max() <= 1e-12
        assert np.abs(v.conj().T @ v - np.eye(len(w))).max() <= 1e-12

    def test_second_call_returns_the_cache(self, monkeypatch):
        H = _small_model("kane_mele", 0.0)
        assert H.eigh_method is None
        solves = []
        solve = operators._solve

        def counted(a, mrrr):
            solves.append(a.shape)
            return solve(a, mrrr)

        monkeypatch.setattr(operators, "_solve", counted)
        w, v = H.eigh()
        half = H.module.dim // 2
        assert solves == [(half, half), (half, half)]
        w2, v2 = H.eigh()
        assert w2 is w and v2 is v
        assert len(solves) == 2 and len(H._eig_cache) == 1

    def test_gap_certificate_names_the_method(self):
        H = _small_model("kane_mele", 0.0)
        assert rl.certify_gap(H).method == H.eigh_method
        chain = rl.build_model("ssh", {"t1": 0.5, "t2": 1.0}, rl.default_pointset("ssh", 40))[1]
        assert rl.certify_gap(chain).method == "SVD, real, sublattice chiral (40, 40)"

    @pytest.mark.parametrize("name", sorted(rl.MODELS))
    def test_the_driver_follows_the_dimension(self, name):
        """Divide and conquer on chains, where the banded matrix deflates;
        MRRR on planes and lattices; the SVD of the chiral split on ssh."""
        H = _small_model(name, 0.0)
        H.eigh()
        want = {"ssh": "SVD", "kitaev": "divide and conquer"}.get(name, "MRRR")
        assert H.eigh_method.split(",")[0] == want

    @pytest.mark.parametrize("name", ["qwz", "kane_mele"])
    def test_accuracy_at_benchmark_size(self, name):
        """The solves of the `qwz_plane` bulk (dim 968) and of one
        `kane_mele_qsh` spin sector (476) against numpy's divide and conquer:
        eigenvalues and residual to 1e-12, orthogonality and the occupied
        projection at the Fermi level 0 to 1e-10."""
        size, params = (22.0, {"m": 1.0}) if name == "qwz" else (14.0, {"lso": 0.06, "lv": 0.1})
        H = rl.build_model(name, params, rl.default_pointset(name, size))[1]
        if name == "kane_mele":
            H = rl.restrict_orbitals(H, np.flatnonzero(H.module.labels["spin_z"] == 1))
        w, v = H.eigh()
        assert H.eigh_method == "MRRR" and len(w) == (968 if name == "qwz" else 476)
        M = H.matrix
        assert np.abs(w - np.linalg.eigvalsh(M)).max() <= 1e-12
        assert np.abs(M @ v - v * w).max() <= 1e-12
        assert np.abs(v.conj().T @ v - np.eye(len(w))).max() <= 1e-10
        w0, v0 = np.linalg.eigh(M)
        P = v[:, w < 0] @ v[:, w < 0].conj().T
        P0 = v0[:, w0 < 0] @ v0[:, w0 < 0].conj().T
        assert np.abs(P - P0).max() <= 1e-10


def _ssh250(disorder):
    ps = rl.generate({"kind": "chain", "window": [[0, 250]]})
    return rl.build_model("ssh", {"t1": 0.5, "t2": 1.0}, ps, disorder=disorder, seed=3)


class TestChiralSolve:
    """A chiral operator (same-sign blocks of a +-1 label exactly zero) is
    solved by one SVD of its half-size block (`operators.ChiralFactors`)."""

    @pytest.mark.parametrize("disorder", [0.0, 0.25])
    def test_matches_the_dense_solve(self, disorder):
        _, H, _ = _ssh250(disorder)
        w, v = H.eigh()
        M = H.matrix
        assert H.eigh_method == ("SVD, real" if disorder == 0 else "SVD") + \
            ", sublattice chiral (250, 250)"
        assert np.abs(w - np.linalg.eigvalsh(M)).max() <= 1e-12
        assert np.abs(M @ v - v * w).max() <= 1e-12
        assert np.abs(v.conj().T @ v - np.eye(len(w))).max() <= 1e-10

    @pytest.mark.parametrize("disorder", [0.0, 0.25])
    def test_kernel_columns_are_chiral(self, disorder):
        """The two end modes (t2 > t1) are the kernel; each of their columns
        has zero weight on one sublattice, the other columns equal weight on
        both."""
        _, H, _ = _ssh250(disorder)
        w, v = H.eigh()
        f = H.spectrum.chiral
        assert f.label == "sublattice" and f.kernel.sum() == 1
        kernel = np.abs(w) < 1e-10
        assert kernel.sum() == 2
        on_plus, on_minus = ((np.abs(v[rows]) ** 2).sum(axis=0) for rows in (f.plus, f.minus))
        assert on_plus[kernel].min() == 0.0 and on_minus[kernel].min() == 0.0
        assert np.abs(on_plus[~kernel] - 0.5).max() <= 1e-12

    @pytest.mark.parametrize("disorder", [0.0, 0.25])
    def test_route_equals_chern_odd_of_the_flattening(self, disorder, monkeypatch):
        """The class-AIII route pairs V W^* of the factors without a
        flattening; the full-product winding of the flattened H
        (`test_indices._chern_odd_full`) gives the same values."""
        from test_indices import _chern_odd_full
        _, H, spec = _ssh250(disorder)
        bulk = rl.make_bulk(H.module, H, spec)
        windows = (40.0, 60.0, 80.0)
        want = np.real(_chern_odd_full(rl.flatten(H, bulk.gap), spec, windows))

        def refused(*args):
            raise AssertionError("the chiral route flattened H")

        monkeypatch.setattr(operators, "flatten", refused)
        got = rl.bulk_index(bulk, {"windows": windows})
        assert abs(got.raw - want[-1]) <= 1e-12 and got.snapped == 1
        assert np.abs(np.array(got.values) - want).max() <= 1e-12

    def test_split_not_taken(self):
        """haldane and a kane_mele sector hop within a sublattice; one
        same-sign entry of 1e-300 is not an exact zero."""
        haldane = _small_model("haldane", 0.0)
        km = _small_model("kane_mele", 0.0)
        sector = rl.restrict_orbitals(km, np.flatnonzero(km.module.labels["spin_z"] == 1))
        _, H, _ = _ssh250(0.0)
        M = H.matrix.copy()
        M[0, 0] = 1e-300
        tiny = rl.ControlledOperator(H.module, M, H.declared_propagation)
        for op, method in ((haldane, "MRRR"), (sector, "MRRR"),
                           (tiny, "divide and conquer, real")):
            op.eigh()
            assert op.eigh_method == method and op.spectrum.chiral is None

    def test_second_call_returns_the_cache(self, monkeypatch):
        _, H, _ = _ssh250(0.25)
        solves = []
        solve = operators._solve

        def counted(a, driver):
            solves.append((a.shape, driver))
            return solve(a, driver)

        monkeypatch.setattr(operators, "_solve", counted)
        w, v = H.eigh()
        assert solves == [((250, 250), "SVD")]
        w2, v2 = H.eigh()
        assert w2 is w and v2 is v and H.spectrum is H._eig_cache[0]
        assert len(solves) == 1 and len(H._eig_cache) == 1
