"""Tight-binding model library on windowed point sets.

Each model is a stencil: an onsite block plus hopping blocks keyed by integer
cell offsets of a lattice basis.  The real-space builder places the blocks on
a point set by matching coordinate differences to offsets, which also covers
jittered samples (amplitudes then pick up a distance-dependent factor
exp(-(d - d_clean))).  The same stencil feeds the momentum-space
reference Hamiltonians in `roelab.bloch`, so both routes share the model
definition while computing invariants by unrelated methods.

On-site disorder is drawn per site from a seeded generator and projected onto
the commutant of the declared symmetries before use, so disordered
Hamiltonians satisfy their symmetry relations exactly, not approximately.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .geometry import PointSet, TRIANGULAR_BASIS, generate
from .operators import ControlledOperator, SiteModule, site_blocks
from .symmetry import CONSERVED, SymmetrySpec

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
S0 = np.eye(2, dtype=complex)


class ModelError(ValueError):
    """Unknown model or parameters outside the documented ranges."""


@dataclass(frozen=True)
class Stencil:
    """Translation-invariant hopping data for one model."""

    onsite: np.ndarray              # (m, m) block: the model has m orbitals per site
    hops: dict                      # integer offset tuple -> (m, m) block
    basis: np.ndarray               # (d, d) lattice basis, rows are cell vectors
    grading: np.ndarray
    labels: dict = field(default_factory=dict)
    spec: SymmetrySpec = field(default_factory=SymmetrySpec)
    pointset_kind: str = "square"
    conserve_labels: tuple = ()


# ---------------------------------------------------------------------------
# stencil factories
# ---------------------------------------------------------------------------

def _ssh(p) -> Stencil:
    """Dimerized chain; chiral class, winding +1 for |t2| > |t1|."""
    t1, t2 = p["t1"], p["t2"]
    inter = np.zeros((2, 2), dtype=complex)
    inter[0, 1] = t2                  # cell x+1 sublattice A <- cell x sublattice B
    return Stencil(
        onsite=t1 * SX, hops={(1,): inter},
        basis=np.eye(1), grading=np.array([1, -1]),
        labels={"sublattice": np.array([1, -1])},
        spec=SymmetrySpec(has_P=True, P_unitary=SZ),
        pointset_kind="chain")


def _kitaev(p) -> Stencil:
    """p-wave pairing chain in Bogoliubov-de Gennes form; topological for |mu| < 2|t|."""
    mu, t, delta = p["mu"], p["t"], p["delta"]
    hop = np.array([[-t, -delta], [delta, t]], dtype=complex)
    return Stencil(
        onsite=-mu * SZ, hops={(1,): hop},
        basis=np.eye(1), grading=np.array([1, -1]),
        labels={"nambu": np.array([1, -1])},
        spec=SymmetrySpec(has_C=True, C_sq=1, C_unitary=SX),
        pointset_kind="chain")


def _qwz_block(direction: np.ndarray) -> np.ndarray:
    """Hopping block (sz - i sigma.e)/2 for a unit direction e (d = 2)."""
    return (SZ - 1j * (direction[0] * SX + direction[1] * SY)) / 2


def _qwz(p) -> Stencil:
    """Two-band Chern insulator; |C| = 1 for 0 < |m| < 2, trivial beyond."""
    m, cutoff, decay = p["m"], p["cutoff"], p["decay"]
    hops = {}
    if cutoff == 1:
        hops[(1, 0)] = _qwz_block(np.array([1.0, 0.0]))
        hops[(0, 1)] = _qwz_block(np.array([0.0, 1.0]))
    else:
        # exponentially decaying long-range variant: same sigma structure along
        # each bond direction, amplitude exp(-decay (|delta| - 1))
        for i in range(-cutoff, cutoff + 1):
            for j in range(-cutoff, cutoff + 1):
                if (i, j) <= (0, 0):
                    continue          # canonical half: lexicographically positive
                d = np.hypot(i, j)
                if d > cutoff + 1e-9:
                    continue
                amp = np.exp(-decay * (d - 1.0))
                hops[(i, j)] = amp * _qwz_block(np.array([i, j]) / d)
    return Stencil(
        onsite=m * SZ, hops=hops,
        basis=np.eye(2), grading=np.array([1, -1]),
        spec=SymmetrySpec(),
        pointset_kind="square")


def _harper(p) -> Stencil:
    """Uniform-flux square lattice (Peierls phases); set fermi inside a
    spectral gap to select it."""
    flux, fermi, t = p["flux"], p["fermi"], p["t"]
    # Landau gauge: the y-hop picks up the Peierls phase exp(2 pi i flux x1);
    # encoded as a callable block evaluated at the source site.
    hops = {
        (1, 0): -t * np.ones((1, 1), dtype=complex),
        (0, 1): lambda xy: -t * np.exp(2j * np.pi * flux * xy[0]) * np.ones((1, 1)),
    }
    return Stencil(
        onsite=-fermi * np.ones((1, 1), dtype=complex),
        hops=hops, basis=np.eye(2), grading=np.array([1]),
        spec=SymmetrySpec(),
        pointset_kind="square")


def _haldane_blocks(t1, t2, phi, mass):
    onsite = np.array([[mass, t1], [t1, -mass]], dtype=complex)
    zp = t2 * np.exp(1j * phi)
    zm = t2 * np.exp(-1j * phi)
    hops = {
        (1, 0): np.array([[zp, t1], [0, zm]], dtype=complex),
        (0, 1): np.array([[zm, t1], [0, zp]], dtype=complex),
        (1, -1): np.array([[zm, 0], [0, zp]], dtype=complex),
    }
    return onsite, hops


def _haldane(p) -> Stencil:
    """Honeycomb with complex second-neighbour hopping (both sublattices
    carried on one triangular point set)."""
    onsite, hops = _haldane_blocks(p["t1"], p["t2"], p["phi"], p["mass"])
    return Stencil(
        onsite=onsite, hops=hops,
        basis=TRIANGULAR_BASIS, grading=np.array([1, -1]),
        labels={"sublattice": np.array([1, -1])},
        spec=SymmetrySpec(),
        pointset_kind="honeycomb")


def _kane_mele(p) -> Stencil:
    """Spin-conserving quantum spin Hall model; Z2-nontrivial while |lv| < 3 sqrt(3) lso."""
    t, lso, lv = p["t"], p["lso"], p["lv"]
    on_up, hop_up = _haldane_blocks(t, lso, np.pi / 2, lv)
    on_dn, hop_dn = _haldane_blocks(t, lso, -np.pi / 2, lv)
    m = 4
    onsite = np.zeros((m, m), dtype=complex)
    onsite[:2, :2], onsite[2:, 2:] = on_up, on_dn
    hops = {}
    for k in hop_up:
        B = np.zeros((m, m), dtype=complex)
        B[:2, :2], B[2:, 2:] = hop_up[k], hop_dn[k]
        hops[k] = B
    T_u = np.kron(1j * SY, np.eye(2))     # spin-major ordering (A+, B+, A-, B-)
    return Stencil(
        onsite=onsite, hops=hops,
        basis=TRIANGULAR_BASIS, grading=np.array([1, -1, 1, -1]),
        labels={"spin_z": np.array([1, 1, -1, -1]),
                "sublattice": np.array([1, -1, 1, -1])},
        spec=SymmetrySpec(has_T=True, T_sq=-1, T_unitary=T_u),
        pointset_kind="honeycomb",
        conserve_labels=("spin_z",))


def _layered3d(p) -> Stencil:
    """Stacked Dirac insulator with mass parameter; strong phase for
    1 < |m| < 3 and a double band inversion for |m| < 1."""
    m = p["m"]
    alphas = [np.kron(SX, s) for s in (SX, SY, SZ)]
    beta = np.kron(SZ, S0)
    hops = {}
    for j, a in enumerate(alphas):
        off = tuple(int(j == axis) for axis in range(3))
        hops[off] = (beta + 1j * a) / 2
    return Stencil(
        onsite=m * beta, hops=hops,
        basis=np.eye(3), grading=np.array([1, 1, -1, -1]),
        labels={"spin_z": np.array([1, -1, 1, -1])},
        spec=SymmetrySpec(has_T=True, T_sq=-1, T_unitary=np.kron(S0, 1j * SY)),
        pointset_kind="cubic")


# each model's stencil factory and its parameters with their defaults; an
# integer default declares an integer parameter
MODELS = {
    "ssh": (_ssh, {"t1": 1.0, "t2": 0.5}),
    "kitaev": (_kitaev, {"mu": 1.0, "t": 1.0, "delta": 1.0}),
    "qwz": (_qwz, {"m": 1.0, "cutoff": 1, "decay": 1.0}),
    "harper": (_harper, {"flux": 0.25, "fermi": 0.0, "t": 1.0}),
    "haldane": (_haldane, {"t1": 1.0, "t2": 0.1, "phi": np.pi / 2, "mass": 0.0}),
    "kane_mele": (_kane_mele, {"t": 1.0, "lso": 0.06, "lv": 0.0}),
    "layered3d": (_layered3d, {"m": 2.0}),
}
# the recipe that places a model: sample size, disorder strength and seed
RECIPE = {"size": 20.0, "disorder": 0.0, "seed": 0}

# auxiliary on-site chiral operators: unitaries anticommuting with the clean
# Hamiltonian that are not part of the declared class (used by odd pairings
# when the protecting antiunitary symmetry makes them exact)
AUX_CHIRAL = {
    "kitaev": SX,
    "layered3d": np.kron(SY, S0),
}


def resolve(table: dict, given: dict | None, what: str) -> dict:
    """`given` over the defaults of `table` (name -> default); each value must
    be a finite number (not a bool) that its default's type holds exactly."""
    out = dict(table)
    for key, value in (given or {}).items():
        if key not in table:
            raise ModelError(f"{what} has no parameter {key!r}; declared: {', '.join(table)}")
        kind = type(table[key])
        if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                or not math.isfinite(value) or kind(value) != value:
            raise ModelError(f"{what} parameter {key} = {value!r} is not "
                             + ("an integer" if kind is int else "a finite number"))
        out[key] = kind(value)
    return out


def resolve_params(name: str, params: dict | None) -> dict:
    """Every declared parameter of model `name`: `params` over its defaults."""
    if name not in MODELS:
        raise ModelError(f"unknown model {name!r}; known: {sorted(MODELS)}")
    return resolve(MODELS[name][1], params, f"model {name}")


def stencil(name: str, params: dict | None = None) -> Stencil:
    params = resolve_params(name, params)
    return MODELS[name][0](params)


def default_pointset(name: str, size: float, params: dict | None = None) -> PointSet:
    """Window of linear extent `size` filled with the model's natural lattice."""
    st = stencil(name, params)
    dim = st.basis.shape[0]
    window = [[0.0, float(size)]] * dim
    return generate({"kind": st.pointset_kind, "window": window})


# ---------------------------------------------------------------------------
# disorder
# ---------------------------------------------------------------------------

def symmetrize_block(B: np.ndarray, spec: SymmetrySpec,
                     conserve=()) -> np.ndarray:
    """Project an on-site Hermitian block, or an (n, m, m) stack of them,
    onto the symmetry commutant.

    Averages B with its image sign U B' U^* under each relation of `spec`,
    then of each conserved diagonal label L (a commuting relation), so adding
    the result to a symmetric Hamiltonian preserves every relation exactly.
    """
    for r, U in spec.relations() + [(CONSERVED, np.diag(np.asarray(lab, dtype=complex)))
                                    for lab in conserve]:
        B = (B + r.sign * (np.matmul(U, B.conj() if r.antiunitary else B) @ U.conj().T)) / 2
    return B


def disorder_blocks(spec: SymmetrySpec, m: int, n_sites: int, strength: float,
                    seed: int, conserve=()) -> np.ndarray:
    """(n_sites, m, m) stack of symmetrized on-site disorder blocks, times
    `strength`: one uniform draw gives each site, in site order, its m real
    diagonal entries, then the real and imaginary m x m off-diagonal parts."""
    if not math.isfinite(strength):
        raise ModelError(f"disorder strength {strength} is not a finite number")
    draw = np.random.default_rng(seed).uniform(-1, 1, size=(n_sites, m + 2 * m * m))
    B = np.triu((draw[:, m:m + m * m] + 1j * draw[:, m + m * m:]).reshape(n_sites, m, m), 1) / 2
    blocks = draw[:, :m, None] * np.eye(m) + B + B.conj().transpose(0, 2, 1)
    return strength * symmetrize_block(blocks, spec, conserve)


# ---------------------------------------------------------------------------
# real-space builder
# ---------------------------------------------------------------------------

def _hop_block(entry, xy) -> np.ndarray:
    return entry(xy) if callable(entry) else entry


def build_model(name: str, params: dict | None = None, ps: PointSet | None = None,
                disorder: float = RECIPE["disorder"], seed: int = RECIPE["seed"],
                periodic: bool = False):
    """Assemble (SiteModule, ControlledOperator, SymmetrySpec) on a point set.

    Hopping blocks attach to site pairs whose coordinate difference matches a
    stencil offset; on jittered samples the match is by nearest target within
    half a bond length and the amplitude is scaled by exp(-(d - d0)).
    `disorder` adds seeded on-site blocks projected onto the symmetry
    commutant.  `periodic` wraps bonds across the window (axis-aligned
    lattices only) - intended for building translation-invariant references,
    not for edge physics.
    """
    st = stencil(name, params)
    ps = ps if ps is not None else default_pointset(name, RECIPE["size"], params)
    if ps.dim != st.basis.shape[0]:
        raise ModelError(f"model {name} lives in d={st.basis.shape[0]}, "
                         f"point set has d={ps.dim}")
    m = len(st.onsite)
    module = SiteModule(ps, m, grading=st.grading, labels=dict(st.labels))
    N = ps.n
    M = np.zeros((N * m, N * m), dtype=complex)
    diagonal = site_blocks(N * m, m)
    M[diagonal] = st.onsite
    tree = ps.tree()
    extent = ps.window[:, 1] - ps.window[:, 0]
    for off, entry in st.hops.items():
        delta = np.asarray(off, dtype=float) @ st.basis
        d0 = np.linalg.norm(delta)
        targets = ps.coords + delta
        if periodic:
            targets = ps.window[:, 0] + np.mod(targets - ps.window[:, 0], extent)
        dist, idx = tree.query(targets, distance_upper_bound=0.49 * d0)
        for x in range(N):
            y = idx[x]
            if y >= N:
                continue
            B = _hop_block(entry, ps.coords[x])
            amp = 1.0 if abs(dist[x]) < 1e-9 else np.exp(
                d0 - np.linalg.norm(ps.coords[y] - ps.coords[x]))
            if periodic:
                amp = 1.0
            M[y * m:(y + 1) * m, x * m:(x + 1) * m] += amp * B
            M[x * m:(x + 1) * m, y * m:(y + 1) * m] += amp * B.conj().T
    if disorder:
        conserve = [module.labels[k] for k in st.conserve_labels]
        M[diagonal] += disorder_blocks(st.spec, m, N, disorder, seed, conserve=conserve)
    H = ControlledOperator.from_dense(module, M, hermitian=True)
    return module, H, st.spec
