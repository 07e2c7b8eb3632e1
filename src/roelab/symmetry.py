"""CT-type symmetry bookkeeping and the symbolic K-group classification layer.

Concrete side: a `SymmetrySpec` holds CT data only: which of time-reversal
T, particle-hole C and chiral P are present, the signs T^2, C^2 and the
unitary parts (an antiunitary operator is "unitary part followed by complex
conjugation").  `RELATIONS` is the one table of how each acts: antiunitarily
or not, commuting or anticommuting with H.  `verify_symmetry`, the disorder
projection of `roelab.models` and the chirality check of the odd pairings apply
its on-site unitaries site by site, without forming the n*m x n*m unitary.
`group_violation` checks a point group (`geometry.GroupAction`) the same way:
an element's on-site block, then its site permutation.

Symbolic side: the Cartan label of a spec, and the classifying groups - the
point-symmetry table over the four physical dimensions, the cyclic-rotation
refinement via the real/complex/quaternionic split of group characters
(Frobenius-Schur indicators), and the four-case reflection refinement.

`LABELS` is the one table of the ten Cartan labels: the squares of T and C,
whether P is present, and the degree j(L).  The classifying group of a
d-dimensional system is the real K-group at degree (j - d) mod 8 for the eight
real labels and the complex K-group at (j - d) mod 2 for A and AIII.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import refuse_unknown_keys
from .operators import ControlledOperator, onsite

# label -> (T^2, C^2, P present, degree j(L)); None where T or C is absent
LABELS = {
    "A": (None, None, False, 0), "AIII": (None, None, True, 1),
    "AI": (1, None, False, 0), "BDI": (1, 1, True, 1), "D": (None, 1, False, 2),
    "DIII": (-1, 1, True, 3), "AII": (-1, None, False, 4), "CII": (-1, -1, True, 5),
    "C": (None, -1, False, 6), "CI": (1, -1, True, 7),
}
CARTAN_LABELS = tuple(LABELS)
COMPLEX_LABELS = ("A", "AIII")
# a sample certified in a symmetry class satisfies its relations to this
SYM_TOL = 1e-8

# KR_j(R) for j = 0..7 and K_j(C) for j = 0..1, as summand names
_KR = ("Z", "Z2", "Z2", "0", "Z", "0", "0", "0")
_KC = ("Z", "0")


class SymmetryError(ValueError):
    """Raised for inconsistent symmetry data."""


# ---------------------------------------------------------------------------
# K-group descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KGroupDescriptor:
    """Multiset of summands from {Z, Z2} (empty = trivial group 0)."""

    summands: tuple
    provenance: str = ""

    def __post_init__(self):
        clean = tuple(sorted(s for s in self.summands if s != "0"))
        for s in clean:
            if s not in ("Z", "Z2"):
                raise SymmetryError(f"unknown summand {s!r}")
        object.__setattr__(self, "summands", clean)

    def __str__(self):
        if not self.summands:
            return "0"
        parts = []
        for name in ("Z", "Z2"):
            k = self.summands.count(name)
            if k == 1:
                parts.append(name)
            elif k > 1:
                parts.append(f"{name}^{k}")
        return " + ".join(parts)


def _real_at(degree: int) -> str:
    return _KR[degree % 8]


def _complex_at(degree: int) -> str:
    return _KC[degree % 2]


def _group_at(label: str, degree: int) -> str:
    """Summand name of the label's K-group evaluated at homological degree."""
    if label in COMPLEX_LABELS:
        return _complex_at(degree)
    return _real_at(degree)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify(spec: "SymmetrySpec") -> str:
    """Cartan label from the presence and squares of T, C, P.  P counts only
    beside both T and C or beside neither: T with P alone reads AI or AII."""
    T = spec.T_sq if spec.has_T else None
    C = spec.C_sq if spec.has_C else None
    P = bool(spec.has_P) and (T is None) == (C is None)
    return next(label for label, row in LABELS.items() if row[:3] == (T, C, P))


def _row(label: str) -> tuple:
    if label not in LABELS:
        raise SymmetryError(f"unknown Cartan label {label!r}")
    return LABELS[label]


def spec_from_label(label: str) -> "SymmetrySpec":
    """Minimal abstract spec (flags and squares only) realizing a Cartan label."""
    T, C, P, _ = _row(label)
    return SymmetrySpec(has_T=T is not None, has_C=C is not None, has_P=P, T_sq=T, C_sq=C)


def _degree(label: str, d: int) -> int:
    """Homological degree j(label) - d of a Cartan label in d = 0..3."""
    j = _row(label)[3]
    if d not in (0, 1, 2, 3):
        raise SymmetryError("d must be 0..3")
    return j - d


def kgroup_point(label: str, d: int) -> KGroupDescriptor:
    """Classifying group of a d-dimensional gapped system in class `label`."""
    s = _group_at(label, _degree(label, d))
    return KGroupDescriptor((s,), provenance=f"point table ({label}, d={d})")


def kgroup_reflection(label: str, d: int, PR_sign: int,
                      TR_sign: int | None = None) -> KGroupDescriptor:
    """Refinement for a reflection R of one coordinate axis, chiral classes.

    The signs say whether R commutes (+1) or anticommutes (-1) with P and,
    for a class with T, with T; a class with both T and C has P = CT, so its
    C sign is CR = PR * TR.  The four sign cases shift the evaluation degree
    or split/complexify the group:

      PR = +RP, TR = +RT  ->  class group at degree (d-1)
      PR = +RP, TR = -RT  ->  class group at degree (d+1)
      PR = -RP, TPR = +RPT -> class group at degree d, squared
      PR = -RP, TPR = -RPT -> complex K-group at degree d

    A class without T reads as TR = +RT and takes no TR sign.
    """
    deg = _degree(label, d)
    spec = spec_from_label(label)
    if not spec.has_P:
        raise SymmetryError("reflection table requires a chiral class (P present), "
                            f"not {label}")
    if PR_sign not in (1, -1):
        raise SymmetryError(f"PR sign {PR_sign!r} is not +1 or -1")
    if not spec.has_T and TR_sign is not None:
        raise SymmetryError(f"class {label} has no T, so it takes no TR sign")
    if spec.has_T and TR_sign not in (1, -1):
        raise SymmetryError(f"class {label} has T, so it needs a TR sign of +1 or -1, "
                            f"not {TR_sign!r}")
    tr = TR_sign or 1
    if PR_sign == 1:
        # degree d - 1 when TR = +RT (or without T), d + 1 when TR = -RT
        s = _group_at(label, deg + tr)
        return KGroupDescriptor((s,), provenance=f"reflection case PR=+ ({label}, d={d})")
    # PR = -RP: compare T(RP) with (RP)T; sign is TR_sign * PT commutation
    if tr * spec.TP_sign == 1:
        s = _group_at(label, deg)
        return KGroupDescriptor((s, s), provenance=f"reflection case PR=-, TRP=+ ({label}, d={d})")
    s = _complex_at(deg)
    return KGroupDescriptor((s,), provenance=f"reflection case PR=-, TRP=- ({label}, d={d})")


# ---------------------------------------------------------------------------
# character tables and the Frobenius-Schur split
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacterTable:
    """Irreducible characters of a finite group as class functions.

    class_sizes[c] is the size of conjugacy class c, square_class[c] the class
    of the squares of its elements, chars[i, c] the value of character i on
    class c.  Column orthogonality is validated on construction.
    """

    order: int
    class_sizes: np.ndarray
    square_class: np.ndarray
    chars: np.ndarray

    def __post_init__(self):
        sizes = np.asarray(self.class_sizes, dtype=int)
        sq = np.asarray(self.square_class, dtype=int)
        chars = np.asarray(self.chars, dtype=complex)
        object.__setattr__(self, "class_sizes", sizes)
        object.__setattr__(self, "square_class", sq)
        object.__setattr__(self, "chars", chars)
        if sizes.sum() != self.order:
            raise SymmetryError("class sizes do not sum to the group order")
        if chars.shape != (len(sizes), len(sizes)):
            raise SymmetryError("character table must be square")
        gram = (chars * sizes) @ chars.conj().T / self.order
        if not np.allclose(gram, np.eye(len(sizes)), atol=1e-9):
            raise SymmetryError("characters fail row orthogonality at 1e-9")

    @classmethod
    def cyclic(cls, k: int) -> "CharacterTable":
        """Character table of Z/k (all classes singletons)."""
        j = np.arange(k)
        chars = np.exp(2j * np.pi * np.outer(j, j) / k)
        return cls(order=k, class_sizes=np.ones(k, dtype=int),
                   square_class=(2 * j) % k, chars=chars)


def frobenius_schur_split(ct: CharacterTable) -> tuple[int, int, int]:
    """Counts (n_+1, n_0, n_-1) of irreducibles by Frobenius-Schur indicator.

    indicator(chi) = |G|^-1 sum_g chi(g^2), evaluated classwise via the
    squaring map.  Values must land on {-1, 0, +1} within 1e-6; n_0 is even
    (complex irreducibles pair with their conjugates).
    """
    ind = (ct.chars[:, ct.square_class] * ct.class_sizes).sum(axis=1) / ct.order
    if np.abs(ind.imag).max() > 1e-6:
        raise SymmetryError("non-real Frobenius-Schur indicator: corrupt table")
    vals = ind.real
    snapped = np.round(vals).astype(int)
    if np.abs(vals - snapped).max() > 1e-6 or not np.isin(snapped, (-1, 0, 1)).all():
        raise SymmetryError("Frobenius-Schur indicators off {-1,0,1}: corrupt table")
    n1 = int((snapped == 1).sum())
    n0 = int((snapped == 0).sum())
    nm1 = int((snapped == -1).sum())
    if n0 % 2:
        raise SymmetryError("odd count of complex-type irreducibles: corrupt table")
    return n1, n0, nm1


def kgroup_finite_group(label: str, d: int, ct: CharacterTable) -> KGroupDescriptor:
    """Classifying group refined by a finite point group via its character split.

    Real-type irreducibles contribute the label's own group, conjugate pairs a
    complex summand, quaternionic ones the group at degree shifted by 4.
    """
    deg = _degree(label, d)
    if label in COMPLEX_LABELS:
        return KGroupDescriptor((_complex_at(deg),) * len(ct.class_sizes),
                                provenance=f"finite group ({label}, d={d})")
    n1, n0, nm1 = frobenius_schur_split(ct)
    summands = ((_real_at(deg),) * n1
                + (_complex_at(deg),) * (n0 // 2)
                + (_real_at(deg + 4),) * nm1)
    return KGroupDescriptor(summands, provenance=f"finite group ({label}, d={d})")


def kgroup_rotation(label: str, d: int, k: int) -> KGroupDescriptor:
    """Refinement for a C_k rotation symmetry: `kgroup_finite_group` on the
    character table of Z/k, whose irreducibles are one real character (two
    for even k) and (k-1)/2 resp. (k-2)/2 conjugate pairs.  The table is
    k x k, so k is held to 2..1000."""
    if not 2 <= k <= 1000:
        raise SymmetryError(f"rotation order k = {k} is not in 2..1000")
    return replace(kgroup_finite_group(label, d, CharacterTable.cyclic(k)),
                   provenance=f"rotation C_{k} ({label}, d={d})")


# ---------------------------------------------------------------------------
# concrete symmetry data
# ---------------------------------------------------------------------------

def _as_unitary(U, name: str) -> np.ndarray:
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise SymmetryError(f"{name} must be a square matrix")
    if not np.allclose(U @ U.conj().T, np.eye(len(U)), atol=1e-10):
        raise SymmetryError(f"{name} is not unitary")
    return U


@dataclass(frozen=True)
class Relation:
    """One symmetry relation U H' U^* = sign H of an on-site unitary U, where
    H' is conj(H) for an antiunitary action and H for a unitary one.

    `present`, `unitary` and `square` name the `SymmetrySpec` fields of the
    flag, of U and of the sign of U conj(U) (T and C only).
    """

    name: str
    present: str
    unitary: str
    antiunitary: bool
    sign: int
    square: str | None

    def defect(self, U, H: ControlledOperator) -> np.ndarray:
        """Entrywise 0.5 |H - sign U H' U^*|, U H' U^* formed site by site
        (`operators.onsite`) in the buffer the difference then reuses."""
        Y = onsite(_block(U, H.m), H.matrix.conj() if self.antiunitary else H.matrix)
        return 0.5 * np.abs((np.subtract if self.sign > 0 else np.add)(H.matrix, Y, out=Y))


# the one table of CT relations: T commutes antiunitarily, C anticommutes
# antiunitarily, P anticommutes unitarily
RELATIONS = {
    "T": Relation("T", "has_T", "T_unitary", antiunitary=True, sign=1, square="T_sq"),
    "C": Relation("C", "has_C", "C_unitary", antiunitary=True, sign=-1, square="C_sq"),
    "P": Relation("P", "has_P", "P_unitary", antiunitary=False, sign=-1, square=None),
}


def _block(U, m: int) -> np.ndarray:
    U = np.asarray(U)
    if U.shape != (m, m):
        raise SymmetryError(f"symmetry block is {U.shape}, orbital space is {m}")
    return U


@dataclass(frozen=True)
class SymmetrySpec:
    """Concrete CT-type data on an orbital space.

    T, C and P act as the `RELATIONS` table says, an antiunitary as (unitary
    part) o (complex conjugation).  When both T and C are present P is
    derived as their product.
    """

    has_T: bool = False
    has_C: bool = False
    has_P: bool = False
    T_sq: int | None = None
    C_sq: int | None = None
    T_unitary: np.ndarray | None = None
    C_unitary: np.ndarray | None = None
    P_unitary: np.ndarray | None = None

    def __post_init__(self):
        for r in RELATIONS.values():
            if r.square is None or not getattr(self, r.present):
                continue
            sq = getattr(self, r.square)
            if sq not in (1, -1):
                raise SymmetryError(f"{r.present} requires {r.square} in {{+1, -1}}")
            if getattr(self, r.unitary) is not None:
                U = _as_unitary(getattr(self, r.unitary), r.unitary)
                object.__setattr__(self, r.unitary, U)
                if not np.allclose(U @ U.conj(), sq * np.eye(len(U)), atol=1e-10):
                    raise SymmetryError(f"{r.unitary} . conj({r.unitary}) != {r.square} * 1")
        if self.has_T and self.has_C:
            object.__setattr__(self, "has_P", True)
            if self.P_unitary is None and self.T_unitary is not None \
                    and self.C_unitary is not None:
                object.__setattr__(self, "P_unitary",
                                   self.C_unitary @ self.T_unitary.conj())
        if self.has_P and self.P_unitary is not None:
            object.__setattr__(self, "P_unitary", _as_unitary(self.P_unitary, "P_unitary"))

    def relations(self) -> list:
        """(relation, unitary) of each present relation whose unitary is given."""
        return [(r, getattr(self, r.unitary)) for r in RELATIONS.values()
                if getattr(self, r.present) and getattr(self, r.unitary) is not None]

    @property
    def TP_sign(self) -> int:
        """Sign in TP = (sign) PT; follows from P = CT and the squares."""
        if not (self.has_T and self.has_C):
            return 1
        # T(CT) = (TC)T and TC = CT * (T^2 C^2 (CT)^2) with (CT)^2 = +1
        return self.T_sq * self.C_sq

    def conjugated(self, W) -> "SymmetrySpec":
        """Same symmetry in the rotated orbital basis W: U -> W U W^T for an
        antiunitary, W U W^* for a unitary."""
        W = _as_unitary(W, "W")

        def rotated(r):
            U = getattr(self, r.unitary)
            return None if U is None else W @ U @ (W.T if r.antiunitary else W.conj().T)
        return replace(self, **{r.unitary: rotated(r) for r in RELATIONS.values()})

    def to_json(self) -> dict:
        enc = lambda U: None if U is None else [[[float(z.real), float(z.imag)] for z in row]
                                                for row in U]
        rels = RELATIONS.values()
        return {**{r.present: getattr(self, r.present) for r in rels},
                **{r.square: getattr(self, r.square) for r in rels if r.square},
                **{r.unitary: enc(getattr(self, r.unitary)) for r in rels}}

    @classmethod
    def from_json(cls, doc: dict) -> "SymmetrySpec":
        dec = lambda M: None if M is None else np.array(
            [[complex(v[0], v[1]) for v in row] for row in M])
        rels = RELATIONS.values()
        legacy = ("CR_sign", "TR_sign", "PR_sign")      # older files hold them, null
        refuse_unknown_keys(doc, (*cls().to_json(), *legacy), "symmetry", SymmetryError)
        for r in rels:
            if type(doc.get(r.present, False)) is not bool:
                raise SymmetryError(f"{r.present} {doc[r.present]!r} is not true or false")
        for key in [r.square for r in rels if r.square]:
            if (v := doc.get(key)) is not None and (type(v) is not int or v not in (1, -1)):
                raise SymmetryError(f"{key} {v!r} is not +1, -1 or null")
        for key in legacy:
            if doc.get(key) is not None:
                raise SymmetryError(f"{key} {doc[key]!r} is not null: reflection signs are "
                                    "arguments of kgroup_reflection, not symmetry data")
        return cls(**{r.present: doc.get(r.present, False) for r in rels},
                   **{r.square: doc.get(r.square) for r in rels if r.square},
                   **{r.unitary: dec(doc.get(r.unitary)) for r in rels})


@dataclass(frozen=True)
class SymmetryReport:
    """Max-entry violations of each declared symmetry relation; it passes at
    SYM_TOL."""

    violations: dict

    @property
    def max_violation(self) -> float:
        return max(self.violations.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_violation <= SYM_TOL


def verify_symmetry(H, spec: SymmetrySpec) -> SymmetryReport:
    """Check the CT relations of `spec` (`RELATIONS`) on a controlled operator.

    A violation is the max absolute entry of the distance from H to its
    symmetrized part, 0.5 max|H - sign U H' U^*|.  The unitaries act
    site-wise (`operators.onsite`); the n*m x n*m unitary is never formed.
    """
    if not isinstance(H, ControlledOperator):
        raise SymmetryError("verify_symmetry expects a ControlledOperator")
    if not H.hermitian:
        raise SymmetryError("verify_symmetry expects a Hermitian operator")
    return SymmetryReport(violations={r.name: r.defect(U, H).max()
                                      for r, U in spec.relations()})


def group_violation(H: ControlledOperator, action) -> float:
    """Largest 0.5 max|H - U_g H U_g^-1| over the elements g of a point group
    (`geometry.GroupAction`), each its on-site block, then its site
    permutation.  An element with a -1 in its permutation is skipped; with
    none left the violation is 0.0."""
    n, m = H.module.n_sites, H.m
    M4 = H.matrix.reshape(n, m, n, m)
    blocks = action.onsite_blocks
    blocks = [np.eye(m)] * action.order if blocks is None else blocks
    # block (perm x, perm y) of U_g M U_g^* is blk M(x, y) blk^*; compare it
    # with M(perm x, perm y)
    return max([0.0] + [
        0.5 * np.abs(M4[perm][:, :, perm].reshape(n * m, n * m)
                     - onsite(_block(blk, m), H.matrix)).max()
        for perm, blk in zip(action.site_permutation, blocks) if (perm >= 0).all()])
