import dataclasses

import numpy as np
import pytest

import roelab as rl
from roelab.models import disorder_blocks, symmetrize_block
from roelab.operators import onsite
from roelab.symmetry import (CARTAN_LABELS, LABELS, CharacterTable, KGroupDescriptor,
                             SymmetryError, SymmetrySpec, kgroup_finite_group,
                             spec_from_label)
from tables import CLASSIFY_ALL, POINT_GROUPS, TENFOLD

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1, -1]).astype(complex)


def _random_hermitian(rng, m):
    """One site's disorder block, drawn on its own: m diagonal entries, then
    the real and imaginary parts of the m x m off-diagonal draw."""
    d = rng.uniform(-1, 1, size=m)
    off = rng.uniform(-1, 1, size=(m, m)) + 1j * rng.uniform(-1, 1, size=(m, m))
    B = np.triu(off, 1) / 2
    return np.diag(d) + B + B.conj().T


def spec_of(key):
    has_T, T_sq, has_C, C_sq, has_P = key
    return SymmetrySpec(has_T=has_T, T_sq=T_sq, has_C=has_C, C_sq=C_sq, has_P=has_P)


class TestClassify:
    def test_all_ten_rows(self):
        for key, (label, _) in TENFOLD.items():
            assert rl.classify(spec_of(key)) == label

    def test_all_flag_combinations(self):
        """Every presence/square combination, including T with P but no C."""
        assert len(CLASSIFY_ALL) == 32
        for key, label in CLASSIFY_ALL.items():
            assert rl.classify(spec_of(key)) == label, key

    def test_examples(self):
        assert rl.classify(SymmetrySpec()) == "A"
        assert rl.classify(SymmetrySpec(has_T=True, T_sq=-1)) == "AII"
        assert rl.classify(SymmetrySpec(has_T=True, T_sq=-1,
                                        has_C=True, C_sq=1)) == "DIII"

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            W = np.linalg.qr(A)[0]
            for spec in (
                SymmetrySpec(has_T=True, T_sq=-1, T_unitary=1j * SY),
                SymmetrySpec(has_T=True, T_sq=1, T_unitary=np.eye(2)),
                SymmetrySpec(has_C=True, C_sq=1, C_unitary=SX),
                SymmetrySpec(has_T=True, T_sq=1, T_unitary=np.eye(2),
                             has_C=True, C_sq=1, C_unitary=SX),
            ):
                assert rl.classify(spec.conjugated(W)) == rl.classify(spec)

    def test_bad_antiunitary_square(self):
        with pytest.raises(SymmetryError):
            SymmetrySpec(has_T=True, T_sq=-1, T_unitary=np.eye(2))


class TestKGroupPoint:
    def test_all_forty_entries(self):
        for label, row in POINT_GROUPS.items():
            for d, expect in enumerate(row):
                assert str(rl.kgroup_point(label, d)) == expect

    def test_examples(self):
        assert str(rl.kgroup_point("A", 0)) == "Z"
        assert str(rl.kgroup_point("AII", 2)) == "Z2"
        assert str(rl.kgroup_point("C", 1)) == "0"

    def test_bad_input(self):
        with pytest.raises(SymmetryError):
            rl.kgroup_point("X", 0)
        with pytest.raises(SymmetryError):
            rl.kgroup_point("A", 5)

    @pytest.mark.parametrize("lookup", [
        lambda label, d: rl.kgroup_point(label, d),
        lambda label, d: rl.kgroup_rotation(label, d, 3),
        lambda label, d: rl.kgroup_reflection(label, d, 1),
        lambda label, d: kgroup_finite_group(label, d, CharacterTable.cyclic(3)),
    ], ids=["point", "rotation", "reflection", "finite_group"])
    def test_every_lookup_checks_label_and_d(self, lookup):
        for d in (-1, 4, 9):
            with pytest.raises(SymmetryError, match="d must be 0..3"):
                lookup("AIII", d)
        with pytest.raises(SymmetryError, match="unknown Cartan label"):
            lookup("X", 1)


class TestKGroupRotation:
    def test_complex_class_k3(self):
        assert str(rl.kgroup_rotation("A", 2, 3)) == "Z^3"

    def test_complex_class_trivial_degree(self):
        assert str(rl.kgroup_rotation("A", 1, 4)) == "0"

    def test_real_class_even_order(self):
        # two real characters of C_2, no conjugate pairs, each at the AII/d=2
        # degree where the point group is Z2
        assert str(rl.kgroup_rotation("AII", 2, 2)) == "Z2^2"

    def test_real_class_odd_order(self):
        # one real character plus one conjugate pair
        assert str(rl.kgroup_rotation("AII", 2, 3)) == "Z + Z2"

    def test_real_class_k4(self):
        assert str(rl.kgroup_rotation("AII", 2, 4)) == "Z + Z2^2"

    @pytest.mark.parametrize("label", CARTAN_LABELS)
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
    def test_agrees_with_character_split(self, label, k):
        """The rotation group is the Frobenius-Schur split of the cyclic
        character table, and that split is the closed form of Z/k: one real
        character (two for even k) and (k-1)/2 resp. (k-2)/2 conjugate pairs,
        each pair one complex summand at the degree of (label, d)."""
        ct = CharacterTable.cyclic(k)
        for d in range(4):
            point = rl.kgroup_point(label, d).summands
            cplx = ("Z",) if (LABELS[label][3] - d) % 2 == 0 else ()
            n_real = 2 - k % 2
            want = (point * k if label in ("A", "AIII")
                    else point * n_real + cplx * ((k - n_real) // 2))
            got = rl.kgroup_rotation(label, d, k)
            assert got.summands == KGroupDescriptor(want).summands
            assert got.summands == kgroup_finite_group(label, d, ct).summands
            assert got.provenance == f"rotation C_{k} ({label}, d={d})"

    @pytest.mark.parametrize("k", [0, 1, 1001])
    def test_order_out_of_range(self, k):
        """The k x k character table bounds the order before any is formed."""
        with pytest.raises(SymmetryError, match=f"rotation order k = {k} is not in 2..1000"):
            rl.kgroup_rotation("AII", 2, k)


class TestKGroupReflection:
    def test_commuting_case_single_summand(self):
        # fully commuting reflection: the class group one dimension down
        for label in ("BDI", "DIII", "CI", "CII"):
            for d in (1, 2, 3):
                got = rl.kgroup_reflection(label, d, 1, 1)
                assert str(got) == str(rl.kgroup_point(label, d - 1))

    def test_tr_anticommuting_shifts_by_two(self):
        got = rl.kgroup_reflection("DIII", 2, 1, -1)  # PR=+, TR=-
        assert str(got) == str(rl.kgroup_point("DIII", 3))  # degree d+1

    def test_pr_anticommuting_squares(self):
        # PR=-RP with TRP=RPT: group at degree d, squared
        assert spec_from_label("BDI").TP_sign == 1     # TR * TP = +1
        got = rl.kgroup_reflection("BDI", 1, -1, 1)
        assert str(got) == "Z^2"

    def test_pr_anticommuting_complex(self):
        # PR=-RP with TRP=-RPT: the complex K-group of matching degree
        assert spec_from_label("BDI").TP_sign == 1     # TR * TP = -1
        got = rl.kgroup_reflection("BDI", 1, -1, -1)
        assert str(got) == "Z"
        got = rl.kgroup_reflection("BDI", 2, -1, -1)
        assert str(got) == "0"

    def test_chiral_only_class(self):
        # complex class group evaluated one row down the point table
        assert str(rl.kgroup_reflection("AIII", 1, 1)) == str(rl.kgroup_point("AIII", 0))
        assert str(rl.kgroup_reflection("AIII", 2, 1)) == str(rl.kgroup_point("AIII", 1))

    def test_signs_missing(self):
        with pytest.raises(SymmetryError):
            rl.kgroup_reflection("BDI", 2, None)
        with pytest.raises(SymmetryError):
            rl.kgroup_reflection("AII", 2, 1, 1)


class TestFrobeniusSchur:
    def test_trivial_group(self):
        ct = CharacterTable(order=1, class_sizes=[1], square_class=[0], chars=[[1]])
        assert rl.frobenius_schur_split(ct) == (1, 0, 0)

    def test_cyclic_three(self):
        assert rl.frobenius_schur_split(CharacterTable.cyclic(3)) == (1, 2, 0)

    def test_quaternion_group(self):
        chars = [
            [1, 1, 1, 1, 1],
            [1, 1, 1, -1, -1],
            [1, 1, -1, 1, -1],
            [1, 1, -1, -1, 1],
            [2, -2, 0, 0, 0],
        ]
        ct = CharacterTable(order=8, class_sizes=[1, 1, 2, 2, 2],
                            square_class=[0, 0, 1, 1, 1], chars=chars)
        n1, n0, nm1 = rl.frobenius_schur_split(ct)
        assert nm1 == 1
        assert (n1, n0) == (4, 0)

    def test_counts_sum(self):
        for k in (2, 3, 4, 5, 7, 8):
            ct = CharacterTable.cyclic(k)
            n1, n0, nm1 = rl.frobenius_schur_split(ct)
            assert n1 + n0 + nm1 == k
            assert n0 % 2 == 0

    def test_corrupt_table_rejected(self):
        # valid orthogonality but broken squaring map -> non-integral indicator
        chars = CharacterTable.cyclic(5).chars
        ct = CharacterTable(order=5, class_sizes=[1] * 5,
                            square_class=[0, 1, 1, 4, 4], chars=chars)
        with pytest.raises(SymmetryError):
            rl.frobenius_schur_split(ct)


class TestVerifySymmetry:
    def test_real_symmetric_has_exact_T(self, chain200):
        rng = np.random.default_rng(1)
        mod = rl.SiteModule(chain200, 2, grading=np.array([1, -1]))
        from conftest import random_controlled
        H = random_controlled(mod, rng)
        Hre = rl.ControlledOperator(mod, (H.matrix + H.matrix.conj()) / 2,
                                    H.declared_propagation, hermitian=True)
        spec = SymmetrySpec(has_T=True, T_sq=1, T_unitary=np.eye(2))
        rep = rl.verify_symmetry(Hre, spec)
        assert rep.violations["T"] == 0.0

    def test_chiral_violation_is_max_diag(self, chain200):
        mod = rl.SiteModule(chain200, 2, grading=np.array([1, -1]))
        diag = np.repeat(np.linspace(0.1, 0.8, chain200.n), 2)
        H = rl.ControlledOperator(mod, np.diag(diag).astype(complex), 0.0)
        spec = SymmetrySpec(has_P=True, P_unitary=SZ)
        rep = rl.verify_symmetry(H, spec)
        assert rep.violations["P"] == pytest.approx(0.8)

    def test_kane_mele_time_reversal(self):
        ps = rl.generate({"kind": "honeycomb", "window": [[0, 8], [0, 8]]})
        module, H, spec = rl.build_model("kane_mele", {"lso": 0.06, "lv": 0.1}, ps)
        assert spec.T_sq == -1
        rep = rl.verify_symmetry(H, spec)
        assert rep.violations["T"] < 1e-12

    def test_group_covariance(self, square16):
        act = rl.cyclic_rotation_action(square16, 4,
                                        center=square16.coords.mean(axis=0),
                                        onsite_blocks=[np.eye(1)] * 4)
        mod = rl.SiteModule(square16, 1, grading=np.array([1]))
        # rotation-invariant onsite potential: radius-dependent
        r = np.linalg.norm(square16.coords - square16.coords.mean(axis=0), axis=1)
        H = rl.ControlledOperator(mod, np.diag(r).astype(complex), 0.0)
        assert rl.group_violation(H, act) < 1e-12

    def test_dimension_mismatch(self, chain200):
        mod = rl.SiteModule(chain200, 2)
        H = rl.identity(mod)
        spec = SymmetrySpec(has_P=True, P_unitary=np.eye(4))
        with pytest.raises(SymmetryError):
            rl.verify_symmetry(H, spec)


def _unitary(rng, m):
    Z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return np.linalg.qr(Z)[0]


class TestVerifySymmetryMatchesDense:
    """The site-wise relations equal the kron / dense-unitary formulas."""

    def test_tcp_violations(self, chain200):
        from conftest import random_controlled
        rng = np.random.default_rng(12)
        m, n = 4, chain200.n
        W = _unitary(rng, m)
        J = np.kron(1j * SY, np.eye(2))
        T = W @ J @ W.T                              # T T-bar = -1
        C = W @ W.T                                  # C C-bar = +1
        P = _unitary(rng, m)
        spec = SymmetrySpec(has_T=True, T_sq=-1, T_unitary=T, has_C=True, C_sq=1,
                            C_unitary=C, P_unitary=P)
        H = random_controlled(rl.SiteModule(chain200, m), rng, hop_range=2.0)
        M = H.matrix
        KT, KC, KP = (np.kron(np.eye(n), U) for U in (T, C, P))
        dense = {"T": 0.5 * np.abs(M - KT @ M.conj() @ KT.conj().T).max(),
                 "C": 0.5 * np.abs(M + KC @ M.conj() @ KC.conj().T).max(),
                 "P": 0.5 * np.abs(M + KP @ M @ KP.conj().T).max()}
        rep = rl.verify_symmetry(H, spec)
        assert set(rep.violations) == set(dense)
        for key, want in dense.items():
            assert want > 0.1 and abs(rep.violations[key] - want) < 1e-12, key

    def test_group_violation(self, square16):
        from conftest import random_controlled
        rng = np.random.default_rng(13)
        m, n = 2, square16.n
        blocks = [_unitary(rng, m) for _ in range(4)]
        act = rl.cyclic_rotation_action(square16, 4, center=square16.coords.mean(axis=0),
                                        onsite_blocks=blocks)
        H = random_controlled(rl.SiteModule(square16, m), rng, hop_range=1.5)
        M = H.matrix
        worst = 0.0
        for perm, blk in zip(act.site_permutation, act.onsite_blocks):
            U = np.zeros((n * m, n * m), dtype=complex)
            for x in range(n):
                U[perm[x] * m:(perm[x] + 1) * m, x * m:(x + 1) * m] = blk
            worst = max(worst, 0.5 * np.abs(M - U @ M @ U.conj().T).max())
        got = rl.group_violation(H, act)
        assert worst > 0.1 and abs(got - worst) < 1e-12


class TestRelationTable:
    """The relation table reproduces the explicit formulas bit for bit:
    T H-bar T^* = H, C H-bar C^* = -H, P H P^* = -H and L B L^* = B for a
    conserved label L."""

    @staticmethod
    def _spec(rng):
        W = _unitary(rng, 4)
        return SymmetrySpec(has_T=True, T_sq=-1, T_unitary=W @ np.kron(1j * SY, np.eye(2)) @ W.T,
                            has_C=True, C_sq=1, C_unitary=W @ W.T)

    @staticmethod
    def _explicit(B, spec, labels=()):
        if spec.has_T and spec.T_unitary is not None:
            T = spec.T_unitary
            B = (B + T @ B.conj() @ T.conj().T) / 2
        if spec.has_C and spec.C_unitary is not None:
            C = spec.C_unitary
            B = (B - C @ B.conj() @ C.conj().T) / 2
        if spec.has_P and spec.P_unitary is not None:
            P = spec.P_unitary
            B = (B - P @ B @ P.conj().T) / 2
        for lab in labels:
            L = np.diag(np.asarray(lab, dtype=complex))
            B = (B + L @ B @ L.conj().T) / 2
        return B

    def test_symmetrize_block(self):
        rng = np.random.default_rng(21)
        spec = self._spec(rng)
        labels = (np.array([1, 1, -1, -1]),)
        for _ in range(200):
            B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            B = B + B.conj().T
            want = self._explicit(B, spec, labels)
            assert symmetrize_block(B, spec, labels).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["ssh", "kitaev", "kane_mele", "layered3d"])
    def test_disorder_blocks(self, name):
        st = rl.stencil(name)
        labels = [st.labels[k] for k in st.conserve_labels]
        rng = np.random.default_rng(5)
        want = [0.3 * self._explicit(_random_hermitian(rng, len(st.onsite)), st.spec, labels)
                for _ in range(40)]
        got = disorder_blocks(st.spec, len(st.onsite), 40, 0.3, 5, conserve=labels)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_verify_symmetry_violations(self, chain200):
        from conftest import random_controlled
        rng = np.random.default_rng(22)
        spec = self._spec(rng)
        H = random_controlled(rl.SiteModule(chain200, 4), rng, hop_range=2.0)
        M = H.matrix
        T, C, P = spec.T_unitary, spec.C_unitary, spec.P_unitary
        want = {"T": 0.5 * np.abs(M - onsite(T, M.conj())).max(),
                "C": 0.5 * np.abs(M + onsite(C, M.conj())).max(),
                "P": 0.5 * np.abs(M + onsite(P, M)).max()}
        got = rl.verify_symmetry(H, spec).violations
        assert list(got) == list(want)
        for key in want:
            assert type(got[key]) is type(want[key]) and got[key] == want[key], key

    def test_conjugated_and_json(self):
        rng = np.random.default_rng(23)
        spec = self._spec(rng)
        W = _unitary(rng, 4)
        rot = spec.conjugated(W)
        assert np.array_equal(rot.T_unitary, W @ spec.T_unitary @ W.T)
        assert np.array_equal(rot.C_unitary, W @ spec.C_unitary @ W.T)
        assert np.array_equal(rot.P_unitary, W @ spec.P_unitary @ W.conj().T)
        doc = spec.to_json()
        assert list(doc) == ["has_T", "has_C", "has_P", "T_sq", "C_sq", "T_unitary",
                             "C_unitary", "P_unitary"]
        back = SymmetrySpec.from_json(doc)
        assert back.to_json() == doc


JSON_SPECS = {**{label: spec_from_label(label) for label in rl.CARTAN_LABELS},
              **{name: rl.stencil(name).spec for name in rl.MODELS},
              # T and C given, P derived as their product
              "TCP": TestRelationTable._spec(np.random.default_rng(23))}


@pytest.mark.parametrize("name", list(JSON_SPECS))
def test_spec_json_round_trip(name):
    """Every field of a spec is written and read back unchanged."""
    spec = JSON_SPECS[name]
    doc = spec.to_json()
    names = [f.name for f in dataclasses.fields(SymmetrySpec)]
    assert set(names) <= set(doc)
    back = SymmetrySpec.from_json(doc)
    for field in names:
        want, got = getattr(spec, field), getattr(back, field)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), field
        else:
            assert type(got) is type(want) and got == want, field
