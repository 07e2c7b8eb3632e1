"""Finite-propagation operators on orbital modules over a point set.

A `SiteModule` attaches m orbitals (with a Z2 grading and optional labels such
as spin) to every point of a `PointSet`.  A `ControlledOperator` is a complex
matrix on that module together with a declared propagation bound: matrix
entries between sites farther apart than the bound vanish.  Storage is dense -
the intended scale is a few thousand matrix dimensions, where full
eigendecompositions are exact-to-roundoff and cheaper to reason about than any
iterative scheme - while the block structure over (site, site) pairs is the
semantic interface (serialization, propagation accounting, truncation).
On-site (propagation-0) actions such as symmetry unitaries are applied site
by site through `onsite`, without forming the n*m x n*m block-diagonal
unitary.

Every eigendecomposition goes through `ControlledOperator.eigh`, which solves
in the cheapest arithmetic the matrix allows exactly: one sector at a time
when a module label (e.g. spin_z) has no matrix entry between its sectors, by
one SVD of the half-size block of a chiral matrix (`ChiralFactors`; the
solve splits ssh, not kitaev, whose chiral unitary no label diagonalizes),
and in real arithmetic when the matrix has no imaginary part.  The
eigensolver follows the dimension d of the point set: divide and conquer
(numpy's ?heevd) on chains, whose banded matrices deflate, and MRRR (scipy's
?heevr) on planes and lattices, where little deflates and MRRR is faster
(Demmel, Marques, Parlett and Voemel, SIAM J. Sci. Comput. 30, 1508 (2008)).
The results equal the dense complex solve to roundoff (eigenvectors up to
phases and rotations inside degenerate eigenspaces): the tests hold
eigenvalues and the residual max|Hv - vw| to 1e-12, the orthogonality
max|V*V - 1| and the occupied projection to 1e-10.

Operators are immutable; all operations return new values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist

from .geometry import Partition, PointSet, refuse_unknown_keys

ZERO_BLOCK_TOL = 1e-14   # below double-precision noise, a block counts as zero


class OperatorError(ValueError):
    """Raised for inconsistent operator input (dimension, gap, hermiticity)."""


@dataclass(frozen=True)
class SiteModule:
    """Uniform orbital space over a point set.

    grading is the diagonal +-1 vector on the orbital space (the same at every
    site); labels are optional per-orbital tags, e.g. labels["spin_z"] = (m,)
    array of +-1 for spinful models.  Both must have one entry per orbital.
    """

    pointset: PointSet
    orbitals_per_site: int
    grading: np.ndarray | None = None
    labels: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.grading is not None:
            g = np.asarray(self.grading, dtype=int)
            if g.shape != (self.orbitals_per_site,) or not np.isin(g, (-1, 1)).all():
                raise OperatorError("grading must be a +-1 vector over the orbitals")
            object.__setattr__(self, "grading", g)
        for name, v in self.labels.items():
            if np.shape(v) != (self.orbitals_per_site,) or np.asarray(v).dtype.kind not in "iuf":
                raise OperatorError(f"label {name!r} is not {self.orbitals_per_site} numbers: "
                                    f"{np.asarray(v).tolist()!r}")

    @property
    def n_sites(self) -> int:
        return self.pointset.n

    @property
    def dim(self) -> int:
        return self.n_sites * self.orbitals_per_site

    def position_along(self, direction) -> np.ndarray:
        """Coordinate <e, x> of every basis index (constant per site)."""
        e = np.asarray(direction, dtype=float)
        return np.repeat(self.pointset.coords @ e, self.orbitals_per_site)

    def plus_side(self, part: Partition) -> "SiteModule":
        """The module over the plus side of `part`, a cut of this module's sites."""
        ids = np.sort(np.concatenate([part.plus_ids, part.minus_ids]))
        if not np.array_equal(ids, np.arange(self.n_sites)):
            raise OperatorError("partition does not match the operator's point set")
        return SiteModule(self.pointset.plus_side(part), self.orbitals_per_site,
                          grading=self.grading, labels=dict(self.labels))

    def orbital_index(self, orbital_idx) -> np.ndarray:
        """Basis indices of the given orbitals at every site, site-major."""
        idx = np.asarray(orbital_idx, dtype=int)
        return (np.arange(self.n_sites)[:, None] * self.orbitals_per_site + idx).ravel()

    def restrict_orbitals(self, orbital_idx) -> "SiteModule":
        idx = np.asarray(orbital_idx, dtype=int)
        g = None if self.grading is None else self.grading[idx]
        labels = {k: np.asarray(v)[idx] for k, v in self.labels.items()}
        return SiteModule(self.pointset, len(idx), grading=g, labels=labels)

    def to_json(self) -> dict:
        doc = {"pointset": self.pointset.to_json(),
               "orbitals_per_site": self.orbitals_per_site}
        if self.grading is not None:
            doc["grading"] = self.grading.tolist()
        if self.labels:
            doc["labels"] = {k: np.asarray(v).tolist() for k, v in self.labels.items()}
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "SiteModule":
        refuse_unknown_keys(doc, ("pointset", "orbitals_per_site", "grading", "labels"),
                            "module", OperatorError)
        m, labels = doc["orbitals_per_site"], doc.get("labels", {})
        if type(m) is not int or m < 1:
            raise OperatorError(f"orbitals_per_site {m!r} is not a positive integer")
        if not isinstance(labels, dict):
            raise OperatorError(f"labels {labels!r} is not an object")
        return cls(PointSet.from_json(doc["pointset"]), m, grading=doc.get("grading"),
                   labels={k: np.asarray(v) for k, v in labels.items()})


def site_distances(ps: PointSet) -> np.ndarray:
    return cdist(ps.coords, ps.coords)


@dataclass(frozen=True)
class ControlledOperator:
    """Dense complex matrix with finite-propagation bookkeeping.

    The invariant: every block (x, y) with max entry above 1e-14 satisfies
    d(x, y) <= declared_propagation.  The Hermitian flag asserts
    block(x, y) = block(y, x)^dagger.
    """

    module: SiteModule
    matrix: np.ndarray
    declared_propagation: float
    hermitian: bool = True
    _eig_cache: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=complex)
        if M.shape != (self.module.dim, self.module.dim):
            raise OperatorError(f"matrix shape {M.shape} != module dim {self.module.dim}")
        object.__setattr__(self, "matrix", M)

    # -- block view ---------------------------------------------------------

    @property
    def m(self) -> int:
        return self.module.orbitals_per_site

    def block(self, x: int, y: int) -> np.ndarray:
        m = self.m
        return self.matrix[x * m:(x + 1) * m, y * m:(y + 1) * m]

    def block_norms(self) -> np.ndarray:
        """(N, N) max absolute entry of every block."""
        N, m = self.module.n_sites, self.m
        return np.abs(self.matrix).reshape(N, m, N, m).max(axis=(1, 3))

    def nonzero_blocks(self):
        """Iterate (x, y, block) over blocks above the zero threshold."""
        norms = self.block_norms()
        for x, y in zip(*np.where(norms > ZERO_BLOCK_TOL)):
            yield int(x), int(y), self.block(int(x), int(y))

    # -- algebra (propagation bookkeeping per operation) ---------------------

    def __matmul__(self, other: "ControlledOperator") -> "ControlledOperator":
        prop = self.declared_propagation + other.declared_propagation
        return ControlledOperator(self.module, self.matrix @ other.matrix,
                                  prop, hermitian=False)

    def __add__(self, other: "ControlledOperator") -> "ControlledOperator":
        prop = max(self.declared_propagation, other.declared_propagation)
        return ControlledOperator(self.module, self.matrix + other.matrix, prop,
                                  hermitian=self.hermitian and other.hermitian)

    def __sub__(self, other: "ControlledOperator") -> "ControlledOperator":
        return self + (-1) * other

    def __mul__(self, scalar) -> "ControlledOperator":
        herm = self.hermitian and np.isreal(scalar)
        return ControlledOperator(self.module, self.matrix * scalar,
                                  self.declared_propagation, hermitian=bool(herm))

    __rmul__ = __mul__

    def norm(self) -> float:
        """Operator norm (exact via spectrum for Hermitian input)."""
        if self.hermitian:
            return float(np.abs(np.linalg.eigvalsh(self.matrix)).max())
        return float(np.linalg.norm(self.matrix, 2))

    def eigh(self):
        """Cached eigendecomposition (w ascending, v orthonormal columns).

        Solved once per operator (safe: operators are immutable), using
        exact structure of the matrix: when the off-sector entries of a
        module label (the first such label, e.g. spin_z on kane_mele) are all
        exactly zero, each sector is solved on its own and its eigenvectors
        fill their rows of v; else, on a chiral matrix (e.g. ssh), one SVD of
        the half-size block gives every pair (`ChiralFactors` says which
        matrices, the kernel rule and why kitaev is not one); a real matrix
        is solved in real arithmetic.  The driver and the accuracy are in the
        module docstring.  `eigh_method` names what ran, e.g. "MRRR, spin_z
        sectors (476, 476)", "SVD, real, sublattice chiral (250, 250)" or
        "divide and conquer, real"; `spectrum` is the cached record.
        """
        if not self.hermitian:
            raise OperatorError("eigh on a non-Hermitian operator")
        if not self._eig_cache:
            self._eig_cache.append(_spectrum(self.matrix, self.module))
        return self._eig_cache[0].w, self._eig_cache[0].v

    @property
    def spectrum(self) -> "Spectrum":
        """The record of the cached eigendecomposition, solved by `eigh`."""
        self.eigh()
        return self._eig_cache[0]

    @property
    def eigh_method(self) -> str | None:
        """How the cached eigendecomposition was solved (None before `eigh`)."""
        return self._eig_cache[0].method if self._eig_cache else None

    # -- construction / serialization ----------------------------------------

    @classmethod
    def from_blocks(cls, module: SiteModule, blocks: dict,
                    hermitian: bool = True) -> "ControlledOperator":
        """Assemble from {(x, y): m x m block}; for hermitian input, (y, x)
        partners are filled in automatically when absent."""
        m = module.orbitals_per_site
        M = np.zeros((module.dim, module.dim), dtype=complex)
        for (x, y), B in blocks.items():
            B = np.asarray(B, dtype=complex)
            if B.shape != (m, m):
                raise OperatorError(f"block ({x},{y}) has shape {B.shape}, expected ({m},{m})")
            M[x * m:(x + 1) * m, y * m:(y + 1) * m] += B
            if hermitian and x != y and (y, x) not in blocks:
                M[y * m:(y + 1) * m, x * m:(x + 1) * m] += B.conj().T
        if hermitian and np.abs(M - M.conj().T).max() > 1e-12:
            raise OperatorError("blocks declared Hermitian but matrix is not")
        return cls.from_dense(module, M, hermitian=hermitian)

    @classmethod
    def from_dense(cls, module: SiteModule, M,
                   hermitian: bool | None = None) -> "ControlledOperator":
        """Operator of a dense matrix, its propagation read off the blocks."""
        M = np.asarray(M, dtype=complex)
        if hermitian is None:
            hermitian = bool(np.abs(M - M.conj().T).max() <= 1e-12)
        op = cls(module, M, 0.0, hermitian=hermitian)
        object.__setattr__(op, "declared_propagation", propagation(op))
        return op

    def to_json(self) -> dict:
        blocks = []
        for x, y, B in self.nonzero_blocks():
            blocks.append([x, y, [[[float(z.real), float(z.imag)] for z in row]
                                  for row in B]])
        return {"module": self.module.to_json(), "hermitian": self.hermitian,
                "propagation": float(self.declared_propagation), "blocks": blocks}

    @classmethod
    def from_json(cls, doc: dict) -> "ControlledOperator":
        """Inverse of `to_json`; block indices, block shapes and the
        `hermitian` flag are checked against the module and the matrix; every
        entry must be finite, and the declared propagation (default: the
        blocks' reach, `propagation`) finite and no smaller than that reach."""
        refuse_unknown_keys(doc, ("module", "hermitian", "propagation", "blocks"), "operator",
                            OperatorError)
        hermitian = doc["hermitian"]
        if type(hermitian) is not bool:
            raise OperatorError(f"hermitian {hermitian!r} is not true or false")
        module = SiteModule.from_json(doc["module"])
        n, m = module.n_sites, module.orbitals_per_site
        M = np.zeros((module.dim, module.dim), dtype=complex)
        for x, y, rows in doc["blocks"]:
            if not all(type(i) is int and 0 <= i < n for i in (x, y)):
                raise OperatorError(f"block ({x},{y}) lies outside the {n} sites")
            B = np.array([[complex(v[0], v[1]) for v in row] for row in rows])
            if B.shape != (m, m):
                raise OperatorError(f"block ({x},{y}) has shape {B.shape}, expected ({m},{m})")
            M[x * m:(x + 1) * m, y * m:(y + 1) * m] = B
        if not np.isfinite(M).all():
            raise OperatorError("operator has a non-finite block entry")
        if hermitian and np.abs(M - M.conj().T).max() > 1e-12:
            raise OperatorError("operator declared Hermitian but matrix is not")
        reach = cls.from_dense(module, M, hermitian).declared_propagation
        prop = doc.get("propagation", reach)
        if isinstance(prop, bool) or not reach <= prop < np.inf:
            raise OperatorError(f"declared propagation {prop} is not finite or lies "
                                f"below the blocks' reach {reach:g}")
        return cls(module, M, float(prop), hermitian=hermitian)


def identity(module: SiteModule) -> ControlledOperator:
    return ControlledOperator(module, np.eye(module.dim, dtype=complex), 0.0)


def grading_operator(module: SiteModule) -> ControlledOperator:
    if module.grading is None:
        raise OperatorError("module carries no grading")
    g = np.tile(module.grading, module.n_sites).astype(complex)
    return ControlledOperator(module, np.diag(g), 0.0)


def _sectors(M: np.ndarray, module: SiteModule):
    """(label, basis indices per sector) of the first module label with two
    or more values whose off-sector entries of M are all exactly zero, else
    None."""
    for name, lab in module.labels.items():
        lab = np.asarray(lab)
        index = [module.orbital_index(np.flatnonzero(lab == v)) for v in np.unique(lab)]
        if len(index) > 1 and not any(M[np.ix_(a, b)].any()
                                      for a in index for b in index if a is not b):
            return name, index
    return None


@dataclass(frozen=True)
class ChiralFactors:
    """The SVD D = W diag(s) Vh of the block D = H[plus, minus] of a chiral H.

    The solve splits on the first +-1 module label with as many +1 as -1
    orbitals (rows plus and minus) whose same-sign blocks of H are exactly
    zero: ssh's sublattice, not haldane's or a kane_mele sector's, which hop
    within a sublattice, nor kitaev, whose chiral unitary sigma_x no label
    diagonalizes (in its eigenbasis the disorder draws would change).  The
    pairs -s_k, s_k have the eigenvectors (W_k, -+V_k) / sqrt 2, V = Vh^*; a
    kernel pair, s_k at most n eps s_max (n = len(s)), keeps the chiral
    (W_k, 0) and (0, V_k) that LAPACK's eigensolvers give a chain's end modes.
    `indices.chern_odd` pairs V W^* outside the kernel; without a split of
    the solve it factors H's block itself (label "P", rows in P's eigenbasis).
    """

    label: str
    plus: np.ndarray
    minus: np.ndarray
    W: np.ndarray
    s: np.ndarray
    Vh: np.ndarray

    @property
    def kernel(self) -> np.ndarray:
        return self.s <= len(self.s) * np.finfo(float).eps * self.s.max(initial=0.0)


@dataclass(frozen=True)
class Spectrum:
    """One solve of `ControlledOperator.eigh` and its chiral factors, if any."""

    w: np.ndarray
    v: np.ndarray
    method: str
    chiral: ChiralFactors | None = None


def _solve(A: np.ndarray, driver: str):
    """(w, v) of the Hermitian A by MRRR or divide and conquer, or (W, s, Vh)
    of A by numpy's SVD: the one LAPACK call of `_spectrum`."""
    if driver == "MRRR":
        return scipy.linalg.eigh(A, driver="evr", check_finite=False)
    return (np.linalg.svd if driver == "SVD" else np.linalg.eigh)(A)


def _chiral(A: np.ndarray, module: SiteModule) -> ChiralFactors | None:
    """The `ChiralFactors` of A on the first +-1 module label with as many +1
    as -1 orbitals whose two same-sign blocks of A are exactly zero, else None."""
    for name, lab in module.labels.items():
        lab = np.asarray(lab)
        if np.isin(lab, (-1, 1)).all() and 2 * (lab == 1).sum() == len(lab):
            plus, minus = (module.orbital_index(np.flatnonzero(lab == v)) for v in (1, -1))
            if not (A[np.ix_(plus, plus)].any() or A[np.ix_(minus, minus)].any()):
                return ChiralFactors(name, plus, minus, *_solve(A[np.ix_(plus, minus)], "SVD"))
    return None


def _spectrum(M: np.ndarray, module: SiteModule) -> Spectrum:
    """The `Spectrum` of the Hermitian matrix M; see `ControlledOperator.eigh`."""
    real = not M.imag.any()
    A = M.real if real else M
    driver = "MRRR" if module.pointset.dim >= 2 else "divide and conquer"
    method = driver + (", real" if real else "")
    split = _sectors(A, module)
    if split is None:
        f = _chiral(A, module)
        if f is None:
            return Spectrum(*_solve(A, driver), method)
        # the columns of -s (s descending), then of s ascending (`ChiralFactors`)
        n, W, V = len(f.s), f.W, f.Vh.conj().T
        a, b = np.where(f.kernel, 1.0, np.sqrt(0.5)), np.where(f.kernel, 0.0, np.sqrt(0.5))
        v = np.zeros(A.shape, dtype=W.dtype)
        v[f.plus, :n], v[f.minus, :n] = W * a, V * -b
        v[f.plus, n:], v[f.minus, n:] = (W * b)[:, ::-1], (V * a)[:, ::-1]
        return Spectrum(np.concatenate([-f.s, f.s[::-1]]), v,
                        f"SVD{', real' if real else ''}, {f.label} chiral ({n}, {n})", f)
    name, index = split
    # allocated before the sector solves: their temporaries then reuse freed
    # heap, which keeps the peak resident memory below the dense solve's
    v = np.zeros(A.shape, dtype=A.dtype)
    parts = [_solve(A[np.ix_(idx, idx)], driver) for idx in index]
    w = np.concatenate([p[0] for p in parts])
    order = np.argsort(w, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(len(order))
    # each sector's eigenvectors go straight to their rows and sorted columns
    start = 0
    for idx, (ws, vs) in zip(index, parts):
        v[np.ix_(idx, column[start:start + len(ws)])] = vs
        start += len(ws)
    return Spectrum(w[order], v, f"{method}, {name} sectors {tuple(len(i) for i in index)}")


def onsite(A, M: np.ndarray, B=None) -> np.ndarray:
    """(1 (x) A) M (1 (x) B)^* for on-site blocks A (p x m) and B (q x m).

    B defaults to A.  M is a dense (n*m, n*m) matrix over n sites; the result
    is (n*p, n*q), ordered site-major like M.  The blocks act site by site on
    the (n, m, n*m) view of M - one batched product with A on the left, one
    product with B^* over the last orbital axis - so the n*m x n*m
    Kronecker factors are never formed: 2 n^2 m^3 multiplications for square
    blocks instead of two dense (n*m)^3 products.  Rectangular blocks take a
    sub-block directly, e.g. the chiral off-diagonal block of a Hamiltonian.
    """
    A = np.asarray(A)
    B = A if B is None else np.asarray(B)
    p, m = A.shape
    q = B.shape[0]
    n = M.shape[0] // m
    if B.shape[1] != m or M.shape != (n * m, n * m):
        raise OperatorError(f"on-site blocks {A.shape}, {B.shape} do not act on "
                            f"a {M.shape} matrix")
    left = np.matmul(A, M.reshape(n, m, n * m))            # (n, p, n*m)
    return (left.reshape(n * p * n, m) @ B.conj().T).reshape(n * p, n * q)


def site_blocks(dim: int, m: int) -> tuple:
    """Index of the on-site (diagonal) m x m block of every site of a dim x dim
    matrix: M[site_blocks(len(M), m)] is the (n, m, m) stack of them, so one
    assignment or `+=` places one block per site, or one block at every site."""
    idx = np.arange(dim).reshape(-1, m)
    return idx[:, :, None], idx[:, None, :]


# ---------------------------------------------------------------------------
# the controlled-operator toolbox
# ---------------------------------------------------------------------------

def _hop_distances(A: ControlledOperator) -> np.ndarray:
    """Distances of the site pairs x != y whose block has an entry above
    ZERO_BLOCK_TOL, in row-major pair order."""
    mask = A.block_norms() > ZERO_BLOCK_TOL
    np.fill_diagonal(mask, False)
    return site_distances(A.module.pointset)[mask]


def propagation(A: ControlledOperator) -> float:
    """Max distance over off-site blocks above ZERO_BLOCK_TOL (0 for the zero op)."""
    return float(_hop_distances(A).max(initial=0.0))


def truncate(H: ControlledOperator, R: float) -> ControlledOperator:
    """Drop all blocks between sites at distance >= R (Hermiticity preserved)."""
    if not 0 < R < np.inf:
        raise OperatorError(f"truncation radius {R} is not positive and finite")
    dist = site_distances(H.module.pointset)
    keep = (dist < R)
    m = H.m
    mask = np.repeat(np.repeat(keep, m, axis=0), m, axis=1)
    return ControlledOperator(H.module, np.where(mask, H.matrix, 0.0),
                              min(H.declared_propagation, R), hermitian=H.hermitian)


@dataclass(frozen=True)
class GapCertificate:
    """Spectral-gap evidence around a Fermi level.

    epsilon is the half-width of the certified gap [-eps, eps] after shifting
    the Fermi level to zero; bulk eigenvalues are those of states not pinned
    to the open sample boundary (eigenvectors with more than half their weight
    within the boundary margin are excluded, since boundary modes are edge
    physics, not bulk).  method is the `eigh_method` of the solve, e.g.
    "MRRR, spin_z sectors (476, 476)" or "SVD, real, sublattice chiral
    (250, 250)" (see `ControlledOperator.eigh`).
    """

    epsilon: float
    lower_spectrum_max: float | None
    upper_spectrum_min: float | None
    fermi: float
    gapped: bool
    method: str = ""
    level_spacing: float = 0.0

    @property
    def width(self) -> float:
        if self.lower_spectrum_max is None or self.upper_spectrum_min is None:
            return np.inf
        return self.upper_spectrum_min - self.lower_spectrum_max


def _boundary_weights(H: ControlledOperator, margin: float) -> np.ndarray:
    """Per-eigenvector weight within `margin` of the window boundary."""
    near = np.repeat(H.module.pointset.boundary_distance() < margin, H.m)
    _, v = H.eigh()
    return (np.abs(v[near]) ** 2).sum(axis=0)


def certify_gap(H: ControlledOperator, fermi: float = 0.0) -> GapCertificate:
    """Gap certificate at the Fermi level, from the spectrum `H.eigh()` solves.

    Open-boundary samples host in-gap states pinned to the sample boundary;
    these would falsely close the bulk gap, so eigenvectors with > 50% weight
    within the boundary margin (two median hopping ranges, clamped to 5-25%
    of the sample extent) are excluded.  The verdict is gapless when the
    remaining gap does not clear twice the local level spacing - a windowed
    sample cannot distinguish a smaller gap from a discretized continuum,
    whose levels sit about half a spacing from the Fermi level.
    """
    if not np.isfinite(fermi):
        raise OperatorError(f"Fermi level {fermi} is not a finite number")
    w, _ = H.eigh()
    hops = _hop_distances(H)
    hop = float(np.median(hops)) if hops.size else 0.0
    extent = float((H.module.pointset.window[:, 1] - H.module.pointset.window[:, 0]).min())
    # wide enough to catch boundary modes with a several-site tail, but
    # never eating into the bulk of a small sample
    boundary_margin = min(max(2 * hop, 0.05 * extent), 0.25 * extent)
    bulk = np.ones(len(w), dtype=bool)
    if boundary_margin > 0:
        bulk = _boundary_weights(H, boundary_margin) <= 0.5
    wb = w[bulk]
    if len(wb) == 0:
        raise OperatorError("no bulk states left after boundary filtering")
    below = wb[wb < fermi]
    above = wb[wb >= fermi]
    lo = float(below.max()) if len(below) else None
    hi = float(above.min()) if len(above) else None
    eps = min([abs(x - fermi) for x in (lo, hi) if x is not None])
    # typical level spacing near the Fermi level: median of the nonzero gaps
    # among the 20 distinct levels nearest it.  A degenerate level (a Kramers
    # pair) counts once, the zero gaps left are levels mirrored about the
    # Fermi level, and the first gap may be the spectral gap itself, which
    # the median discounts.
    levels = np.sort(wb)
    levels = levels[np.r_[True, np.diff(levels) > 1e-12]]
    near = np.sort(np.abs(levels - fermi))[:20]
    diffs = np.diff(near)
    diffs = diffs[diffs > 1e-12]
    spacing = float(np.median(diffs)) if diffs.size else 0.0
    gapped = eps > max(2.0 * spacing, 1e-8)
    return GapCertificate(epsilon=float(eps), lower_spectrum_max=lo,
                          upper_spectrum_min=hi, fermi=fermi, gapped=gapped,
                          method=H.eigh_method, level_spacing=spacing)


def flatten(H: ControlledOperator, cert: GapCertificate) -> ControlledOperator:
    """Spectral flattening sgn(H - fermi), a self-adjoint unitary.

    Exact to roundoff via the full eigendecomposition.  The result is only
    approximately local, so its propagation is recorded as the sample
    diameter; the actual off-diagonal decay can be fitted a posteriori with
    `decay_length`, which bins it for the shared `decay_fit`.
    """
    if not cert.gapped:
        raise OperatorError("flatten requires a certified gap")
    w, v = H.eigh()
    s = (v * np.sign(w - cert.fermi)) @ v.conj().T
    s = 0.5 * (s + s.conj().T)
    return ControlledOperator(H.module, s, H.module.pointset.diameter, hermitian=True)


def decay_fit(dist: np.ndarray, values: np.ndarray, starts, min_bins: int):
    """Fit values <= C exp(-dist / xi) from the log of the per-bin maxima
    over the unit-width distance bins [lo, lo + 1), lo in `starts`: (xi, C),
    or None when fewer than `min_bins` bins hold a value above 1e-15."""
    xs, ys = [], []
    for lo in starts:
        sel = (dist >= lo) & (dist < lo + 1.0)
        if sel.any() and values[sel].max() > 1e-15:
            xs.append(lo + 0.5)
            ys.append(np.log(values[sel].max()))
    if len(xs) < min_bins:
        return None
    slope, intercept = np.polyfit(xs, ys, 1)
    return (float(-1.0 / slope) if slope < 0 else np.inf), float(np.exp(intercept))


def decay_length(A: ControlledOperator) -> tuple[float, float]:
    """Fit |block(x,y)| <= C exp(-d(x,y)/xi); returns (xi, C).

    Block max-norms are binned by distance up to half the largest one and
    fitted by `decay_fit`; a diagnostic for how well a flattened operator is
    approximated by controlled ones.
    """
    dist = site_distances(A.module.pointset)
    norms = A.block_norms()
    mask = ~np.eye(A.module.n_sites, dtype=bool)
    d, n = dist[mask], norms[mask]
    fit = decay_fit(d, n, np.arange(1.0, 0.5 * d.max(), 1.0)[:-1], 2)
    return fit or (np.inf, float(n.max(initial=0.0)))


def derivation(A: ControlledOperator, axis: int) -> ControlledOperator:
    """Position-commutator derivation i[x_axis, A], exact and entrywise."""
    d = A.module.pointset.dim
    if axis >= d:
        raise OperatorError(f"axis {axis} out of range for d={d}")
    return derivation_along(A, np.eye(d)[axis])


def derivation_along(A: ControlledOperator, direction) -> ControlledOperator:
    """i[<e, x>, A] for an arbitrary direction vector e."""
    x = A.module.position_along(direction)
    M = 1j * (x[:, None] - x[None, :]) * A.matrix
    return ControlledOperator(A.module, M, A.declared_propagation,
                              hermitian=A.hermitian)


def compress(H: ControlledOperator, part: Partition) -> ControlledOperator:
    """chi_{Y+} H chi_{Y+} on the plus side of `part`, whose point set records the cut."""
    sub = H.module.plus_side(part)
    m = H.m
    idx = (part.plus_ids[:, None] * m + np.arange(m)[None, :]).ravel()
    return ControlledOperator(sub, H.matrix[np.ix_(idx, idx)],
                              H.declared_propagation, hermitian=H.hermitian)


def direct_sum(A: ControlledOperator, B: ControlledOperator) -> ControlledOperator:
    """Orbital-direct sum of two operators over the same point set."""
    if A.module.pointset is not B.module.pointset and \
            not np.array_equal(A.module.pointset.coords, B.module.pointset.coords):
        raise OperatorError("direct_sum requires a common point set")
    ma, mb = A.m, B.m
    m = ma + mb
    gr = None
    if A.module.grading is not None and B.module.grading is not None:
        gr = np.concatenate([A.module.grading, B.module.grading])
    labels = {}
    for k in set(A.module.labels) & set(B.module.labels):
        labels[k] = np.concatenate([np.asarray(A.module.labels[k]),
                                    np.asarray(B.module.labels[k])])
    mod = SiteModule(A.module.pointset, m, grading=gr, labels=labels)
    M = np.zeros((mod.dim, mod.dim), dtype=complex)
    ia, ib = mod.orbital_index(np.arange(ma)), mod.orbital_index(ma + np.arange(mb))
    M[np.ix_(ia, ia)] = A.matrix
    M[np.ix_(ib, ib)] = B.matrix
    prop = max(A.declared_propagation, B.declared_propagation)
    return ControlledOperator(mod, M, prop, hermitian=A.hermitian and B.hermitian)


def restrict_orbitals(H: ControlledOperator, orbital_idx) -> ControlledOperator:
    """Keep a subset of orbitals at every site (e.g. one spin sector)."""
    mod = H.module.restrict_orbitals(orbital_idx)
    flat = H.module.orbital_index(orbital_idx)
    return ControlledOperator(mod, H.matrix[np.ix_(flat, flat)],
                              H.declared_propagation, hermitian=H.hermitian)
