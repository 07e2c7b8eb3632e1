"""Momentum-space reference computations for the translation-invariant limit.

The real-space pairings never assume periodicity; this module provides the
independent cross-checks that exist only in the periodic limit: Bloch
Hamiltonians assembled from the same model stencils, lattice-plaquette Chern
numbers, winding numbers of chiral symbols, and dispersion gap minima.

Conventions: the Bloch symbol is H(k) = onsite + sum_delta B_delta e^{i k.delta}
+ h.c. over the stencil offsets, and the plaquette flux is accumulated with
the orientation matching the real-space pairing's (grad_1, grad_2) ordering,
so equal model parameters must produce equal integers - that is the content
of the oracle tests, not a definition chase.
"""

from __future__ import annotations

import itertools

import numpy as np

from .models import stencil


def bloch_hamiltonian(name: str, params: dict | None = None):
    """Bloch symbol of a library model, as a callable of the cell momentum.

    k is the reduced momentum conjugate to integer cell offsets (one component
    per lattice dimension, period 2 pi).  The flux model has no translation-
    invariant symbol on the unit cell; use `harper_bloch` for a rational flux
    magnetic cell instead.
    """
    if name == "harper":
        raise ValueError("harper has no unit-cell Bloch symbol; use harper_bloch(p, q)")
    st = stencil(name, params)

    def h(k):
        k = np.atleast_1d(np.asarray(k, dtype=float))
        M = st.onsite.astype(complex).copy()
        for off, B in st.hops.items():
            ph = np.exp(1j * float(np.dot(k, off)))
            M = M + B * ph + B.conj().T * np.conj(ph)
        return M

    return h


def harper_bloch(p: int, q: int, t: float = 1.0, fermi: float = 0.0):
    """Magnetic-cell Bloch matrix of the uniform-flux model at flux p/q.

    The magnetic unit cell is q sites along x; the returned callable maps
    (k1, k2) with k1 in [0, 2 pi / q) folded to [0, 2 pi) to a q x q matrix.
    """
    phi = p / q

    def h(k):
        k1, k2 = float(k[0]), float(k[1])
        M = np.zeros((q, q), dtype=complex)
        for j in range(q):
            M[j, j] = -2 * t * np.cos(k2 + 2 * np.pi * phi * j) - fermi
            M[(j + 1) % q, j] += -t * (np.exp(1j * k1) if j == q - 1 else 1.0)
            M[j, (j + 1) % q] += -t * (np.exp(-1j * k1) if j == q - 1 else 1.0)
        return M

    return h


def fhs_chern(h, n_occupied: int, nk: int = 40) -> float:
    """Lattice-plaquette Chern number of the lowest n_occupied bands.

    Link variables are overlap determinants of the occupied frames on an
    nk x nk momentum grid; the plaquette angles sum to an exact integer for
    any grid fine enough to resolve the gap.  Oriented to match the
    real-space plane pairing.
    """
    ks = 2 * np.pi * np.arange(nk) / nk
    frames = None
    for a, k1 in enumerate(ks):
        for b, k2 in enumerate(ks):
            _, v = np.linalg.eigh(h((k1, k2)))
            if frames is None:
                frames = np.empty((nk, nk, v.shape[0], n_occupied), dtype=complex)
            frames[a, b] = v[:, :n_occupied]
    total = 0.0
    for a in range(nk):
        for b in range(nk):
            u1 = np.linalg.det(frames[a, b].conj().T @ frames[(a + 1) % nk, b])
            u2 = np.linalg.det(frames[(a + 1) % nk, b].conj().T
                               @ frames[(a + 1) % nk, (b + 1) % nk])
            u3 = np.linalg.det(frames[(a + 1) % nk, (b + 1) % nk].conj().T
                               @ frames[a, (b + 1) % nk])
            u4 = np.linalg.det(frames[a, (b + 1) % nk].conj().T @ frames[a, b])
            total += np.angle(u1 * u2 * u3 * u4)
    return -total / (2 * np.pi)


def winding_1d(h, chiral: np.ndarray, nk: int = 400) -> float:
    """Winding of det of the chiral off-diagonal block of a 1d symbol.

    The block maps the negative to the positive chirality eigenspace (rows +,
    columns -); with the e^{+ik} symbol convention this is the orientation
    whose winding the real-space odd pairing reproduces.
    """
    w, V = np.linalg.eigh(chiral)
    plus, minus = np.where(w > 0)[0], np.where(w < 0)[0]
    total, prev = 0.0, None
    for k in 2 * np.pi * np.arange(nk + 1) / nk:
        M = V.conj().T @ h([k]) @ V
        blk = M[np.ix_(plus, minus)]
        ang = np.angle(np.linalg.det(blk))
        if prev is not None:
            total += (ang - prev + np.pi) % (2 * np.pi) - np.pi
        prev = ang
    return total / (2 * np.pi)


def _winding_3d_grid(h, V, plus, minus, nk: int) -> float:
    ks = 2 * np.pi * np.arange(nk) / nk
    nb = len(plus)
    g = np.empty((nk, nk, nk, nb, nb), dtype=complex)
    for a, k1 in enumerate(ks):
        for b, k2 in enumerate(ks):
            for c, k3 in enumerate(ks):
                M = V.conj().T @ h((k1, k2, k3)) @ V
                blk = M[np.ix_(plus, minus)]
                u, _, vh = np.linalg.svd(blk)
                g[a, b, c] = u @ vh
    dk = 2 * np.pi / nk
    ginv = np.conj(np.swapaxes(g, -1, -2))
    d = [(np.roll(g, -1, axis=ax) - np.roll(g, 1, axis=ax)) / (2 * dk) for ax in range(3)]
    A = [np.einsum("...ij,...jk->...ik", ginv, dj) for dj in d]
    total = 0j
    for (i, j, k), sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                            ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        total += sign * np.einsum("...ij,...jk,...ki->...", A[i], A[j], A[k]).sum()
    return float(np.real(total) * dk ** 3 / (24 * np.pi ** 2))


def winding_3d(h, chiral: np.ndarray, nk: int = 24) -> float:
    """Degree-style winding of the flattened chiral block of a 3d symbol.

    w3 = (1 / 24 pi^2) int tr[(g^-1 dg)^3] with g the unitarized block of the
    symbol mapping negative to positive chirality; central differences on two
    grids (nk/2 and nk) with Richardson extrapolation of the O(dk^2) error.
    """
    w, V = np.linalg.eigh(chiral)
    plus, minus = np.where(w > 0)[0], np.where(w < 0)[0]
    coarse = _winding_3d_grid(h, V, plus, minus, max(nk // 2, 6))
    fine = _winding_3d_grid(h, V, plus, minus, nk)
    return (4 * fine - coarse) / 3


def dispersion_gap(h, fermi: float = 0.0, nk: int = 200, dim: int = 1) -> float:
    """Minimum over the momentum grid (nk points per axis, dim 1 to 3) of the
    distance from the spectrum to fermi."""
    if dim not in (1, 2, 3):
        raise ValueError(f"dispersion_gap needs dim 1, 2 or 3, not {dim}")
    ks = 2 * np.pi * np.arange(nk) / nk
    best = np.inf
    for k in itertools.product(ks, repeat=dim):
        best = min(best, np.abs(np.linalg.eigvalsh(h(k)) - fermi).min())
    return float(best)


def kane_mele_z2_reference(t: float, lso: float, lv: float, nk: int = 60) -> int:
    """Mod-2 invariant of the spin-conserving quantum spin Hall model.

    Two independent determinations must agree: the plaquette Chern number of
    the spin-up Bloch block mod 2, and the Dirac mass-sign criterion (the two
    valley gaps close at |lv| = 3 sqrt(3) lso, flipping one mass sign).
    """
    h4 = bloch_hamiltonian("kane_mele", {"t": t, "lso": lso, "lv": lv})
    h_up = lambda k: h4(k)[:2, :2]
    c_up = fhs_chern(h_up, 1, nk=nk)
    from_chern = int(np.rint(abs(c_up))) % 2
    from_masses = 1 if abs(lv) < 3 * np.sqrt(3) * abs(lso) else 0
    if from_chern != from_masses:
        raise RuntimeError("reference cross-check failed: spin Chern mod 2 "
                           f"({from_chern}) != mass-sign criterion ({from_masses})")
    return from_chern
