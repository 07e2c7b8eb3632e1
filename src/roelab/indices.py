"""Numerical index pairings from windowed traces and position derivations.

The trace per unit volume is estimated over a nested family of half-open
boxes; pairing it with the position derivations grad_j = i[x_j, .] yields the
even (Chern) and odd (winding) index formulas and their edge counterparts on
a half-space compression, whose windows are intervals along the interface.
A compression carries its cut (`PointSet.cut`), which the edge pairings read.
One rule, `check_windows`, decides what a window family is on both sides:
strictly increasing positive radii, each window inside what it averages
over (a bulk box plus its margin inside the sample, an edge interval inside
the interface).  Every report carries the raw windowed value, the
snapped integer (or mod-2 class), the classifying group, and a two-window
error estimate; the non-constructive limit over windows is replaced by the
largest window with the deviation from the previous one as the error bar.
The even pairing reads the occupied eigenvectors of the solve, never the
Fermi projection, in the factor form of the local Chern marker (Bianco and
Resta, Phys. Rev. B 84, 241106(R), 2011).  The spin-resolved mod-2 invariant
is the Chern pairing of a spin sector (`spin_sectors`), run on the class-AII
route of `roelab.bulkedge`.  The two odd pairings, the winding `chern_odd`
and the half-line kernel count `edge_fredholm`, share one chirality read
(`_chirality`); the kernel count takes the bulk gap certificate, as the edge
conductance does, and refuses any level split out of the kernel.

Orientation conventions are fixed once and used everywhere: the plane pairing
orders the derivations as (grad_1, grad_2); the edge direction of a cut is
the normal rotated by +90 degrees; the chiral pairing uses the block of
sgn(H) mapping positive to negative chirality, the polar factor V W^* of H's
(plus, minus) block W diag(s) V^*.  The momentum-space references in
`roelab.bloch` are oriented to match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Partition
from .operators import (ChiralFactors, ControlledOperator, OperatorError, GapCertificate,
                        conserved_sectors, derivation_along, onsite)
from .symmetry import RELATIONS, SYM_TOL, KGroupDescriptor, SymmetrySpec, kgroup_point


INTEGER_SNAP_TOL = 0.1      # largest distance of a raw value from the integer it snaps to
Z2_SNAP_TOL = 0.25          # largest distance of a raw value mod 2 from its class
WIDTH_FAMILY = 8            # edge conductance: sub-intervals from 0.7 Delta to Delta
KERNEL_TOL = 1e-6           # Fredholm count: kernel |E| below it, every other level above 10x
IN_GAP = 0.9                # in-gap band: |E - fermi| < IN_GAP * the bulk gap's epsilon


class PairingError(ValueError):
    """Raised when an index formula's preconditions fail."""


@dataclass(frozen=True)
class TraceEstimate:
    """Windowed traces per unit volume: one value per window radius."""

    windows: tuple
    values: tuple
    extrapolated: complex
    error: float


@dataclass(frozen=True)
class IndexReport:
    """Raw pairing value with its snapped class and provenance."""

    raw: float
    snapped: int | None
    group: KGroupDescriptor
    error: float
    formula: str
    windows: tuple
    values: tuple = ()
    warnings: tuple = ()

    @property
    def z2(self) -> bool:
        """Whether the classifying group is Z2, the group the value snaps in."""
        return self.group.summands == ("Z2",)

    def to_json(self) -> dict:
        if self.snapped is None:
            snapped = None
        elif self.z2:
            snapped = f"Z2:{self.snapped}"
        else:
            snapped = int(self.snapped)
        return {"raw": float(self.raw), "snapped": snapped,
                "group": str(self.group), "error": float(self.error),
                "formula": self.formula, "windows": list(self.windows),
                "values": [float(v) for v in self.values],
                "warnings": list(self.warnings)}


def snap_integer(raw: float):
    """Nearest integer within INTEGER_SNAP_TOL, else (None, warning)."""
    k = int(np.rint(raw))
    if abs(raw - k) <= INTEGER_SNAP_TOL:
        return k, ()
    return None, (f"raw value {raw:.4f} is {abs(raw - k):.3f} from the nearest "
                  f"integer (snap tolerance {INTEGER_SNAP_TOL})",)


def snap_z2(raw: float):
    """Class of raw mod 2 in {0, 1}, within Z2_SNAP_TOL of the nearest
    representative."""
    r = np.mod(raw, 2.0)
    dist0 = min(r, 2.0 - r)
    dist1 = abs(r - 1.0)
    cls = 0 if dist0 <= dist1 else 1
    if min(dist0, dist1) <= Z2_SNAP_TOL:
        return cls, ()
    return None, (f"raw value {raw:.4f} mod 2 is {min(dist0, dist1):.3f} from "
                  f"{{0, 1}} (snap tolerance {Z2_SNAP_TOL})",)


def _report(values, formula: str, group: KGroupDescriptor, windows=(),
            error: float | None = None, imag_tol: float = np.inf) -> IndexReport:
    """Report of a pairing from its per-window values (largest window last).

    The raw value is the real part of the last value, whose imaginary part
    must stay within `imag_tol`; the error defaults to the two-window
    deviation.  It snaps in `group`: mod 2 when the group is Z2, else to an
    integer (`snap_z2`, `snap_integer`).  A windowless pairing passes its
    single value and an explicit error, and reports no values.
    """
    last = values[-1]
    if abs(np.imag(last)) > imag_tol:
        raise PairingError(f"pairing has imaginary part {np.imag(last):.2e} > {imag_tol}")
    raw = float(np.real(last))
    if error is None:
        error = abs(values[-1] - values[-2]) if len(values) > 1 else np.inf
    snapped, warns = (snap_z2 if group.summands == ("Z2",) else snap_integer)(raw)
    return IndexReport(raw=raw, snapped=snapped, group=group, error=float(error),
                       formula=formula, windows=tuple(float(n) for n in windows),
                       values=tuple(float(np.real(v)) for v in values)
                       if windows else (), warnings=warns)


# ---------------------------------------------------------------------------
# windowed traces
# ---------------------------------------------------------------------------

def window_mask(ps, radius: float) -> np.ndarray:
    """Half-open box [c - r, c + r) per axis about the window midpoint c."""
    c = ps.window.mean(axis=1)
    return ((ps.coords >= c - radius) & (ps.coords < c + radius)).all(axis=1)


def check_windows(windows, bound: float, beyond: str) -> tuple:
    """The window radii, strictly increasing: each positive, finite, not
    repeated and at most `bound`, the largest radius whose window lies inside
    what it averages over (`beyond` says what a larger one leaves)."""
    radii = tuple(sorted(float(n) for n in windows))
    if not radii:
        raise PairingError("no window radii given")
    for i, n in enumerate(radii):
        why = ("is not positive and finite" if not 0 < n < np.inf
               else "is repeated" if i and n == radii[i - 1]
               else beyond if not n <= bound else "")
        if why:
            raise PairingError(f"window radius {n} {why}")
    return radii


def box_bound(ps, margin: float) -> float:
    """Largest radius whose box plus `margin` fits in the sample."""
    return float((ps.window[:, 1] - ps.window[:, 0]).min()) / 2 - margin


def _box_windows(ps, windows, margin: float) -> tuple:
    return check_windows(windows, box_bound(ps, margin),
                         f"plus margin {margin} exceeds the sample")


def trace_per_unit_volume(A: ControlledOperator, windows) -> TraceEstimate:
    """Trace per unit volume of A over nested boxes about the window
    midpoint: its diagonal block traces, reduced by `_volume_trace`.

    Each box plus the operator's declared propagation must fit in the
    sample, so diagonal blocks inside the window never see the open boundary.
    """
    ps = A.module.pointset
    windows = _box_windows(ps, windows, A.declared_propagation)
    vals = _volume_trace(np.diag(A.matrix)[_window_rows(ps, windows, A.m)], ps, windows, A.m)
    err = abs(vals[-1] - vals[-2]) if len(vals) > 1 else np.inf
    return TraceEstimate(windows, vals, vals[-1], float(err))


def _window_rows(ps, windows, k: int) -> np.ndarray:
    """The k rows per site of the largest (last) window's sites, site-major."""
    sites = np.flatnonzero(window_mask(ps, windows[-1]))
    return (sites[:, None] * k + np.arange(k)).ravel()


def _volume_trace(diag: np.ndarray, ps, windows, k: int) -> tuple:
    """Per-unit-volume windowed sums of a diagonal on `_window_rows`, k
    entries per site; every box must hold a site.

    Uses the point set's analytic density when available (count / volume
    fluctuates by a boundary term on non-unit lattices), else the empirical
    count over the box volume.
    """
    traces = np.zeros(ps.n, dtype=complex)
    traces[window_mask(ps, windows[-1])] = diag.reshape(-1, k).sum(axis=1)
    inside = [traces[window_mask(ps, n)] for n in windows]
    for n, t in zip(windows, inside):
        if not t.size:
            raise PairingError(f"window radius {n} contains no sites")
    if ps.density is not None:
        return tuple(complex(t.mean()) * ps.density for t in inside)
    return tuple(complex(t.sum()) / (2.0 * n) ** ps.dim for t, n in zip(inside, windows))


# ---------------------------------------------------------------------------
# bulk pairings
# ---------------------------------------------------------------------------

def _occupied(H: ControlledOperator, cert: GapCertificate) -> np.ndarray:
    """Columns V of `H.eigh()` with w < cert.fermi, for a certified gap, orthonormal to 1e-8."""
    if not cert.gapped:
        raise OperatorError("the occupied eigenvectors require a certified gap")
    w, v = H.eigh()
    V = v[:, w < cert.fermi]
    if np.abs(V.conj().T @ V - np.eye(V.shape[1])).max(initial=0.0) > 1e-8:
        raise PairingError("occupied eigenvectors are not orthonormal (max |V*V - 1| > 1e-8)")
    return V


def chern_even(H: ControlledOperator, cert: GapCertificate, windows) -> IndexReport:
    """Plane Chern pairing 2 pi i T(P [grad_1 P, grad_2 P]) of P = V V^*, V = `_occupied(H, cert)`.

    With x_j measured from the window centre, the diagonal of P [grad_1 P,
    grad_2 P] on the orbitals W of the largest window is d - d^*, where
    d = diag(V_W B V_W^*) and B = V^* x_1 x_2 V - (V^* x_1 V)(V^* x_2 V): the
    local Chern marker of Bianco and Resta, Phys. Rev. B 84, 241106(R) (2011).
    The raw value is the real part at the largest window; the imaginary part
    must vanish to 1e-8.
    """
    ps = H.module.pointset
    if ps.dim != 2:
        raise PairingError("chern_even is the d = 2 pairing")
    windows = _box_windows(ps, windows, 0.0)
    V = _occupied(H, cert)
    Vc = V.conj().T
    c = ps.window.mean(axis=1)
    X1V, X2V = ((H.module.position_along(e) - c @ e)[:, None] * V for e in np.eye(2))
    B = X1V.conj().T @ X2V - (Vc @ X1V) @ (Vc @ X2V)
    VW = V[_window_rows(ps, windows, H.m)]
    d = np.einsum("ij,ij->i", VW @ B, VW.conj())
    vals = tuple(2j * np.pi * t for t in _volume_trace(d - d.conj(), ps, windows, H.m))
    return _report(vals, "chern_even", kgroup_point("A", 2), windows=windows,
                   imag_tol=1e-8)


def occupied_projection(H: ControlledOperator, cert: GapCertificate) -> ControlledOperator:
    """Spectral projection below the certified gap, (1 - sgn(H - fermi)) / 2,
    formed as V V^* from the occupied eigenvectors V (`_occupied`)."""
    V = _occupied(H, cert)
    return ControlledOperator(H.module, V @ V.conj().T, H.module.pointset.diameter)


def _chirality(H: ControlledOperator, spec: SymmetrySpec):
    """(f, V, plus, minus): the chirality read both odd pairings share.

    P must be given, Hermitian (eigenvalues +-1) and balanced; V is its
    eigenbasis, plus and minus its columns by sign.  f is the solve's
    `ChiralFactors` when P is the diagonal of the label the solve split H on
    (ssh's bulk and half chain: the exactly zero same-sign blocks prove
    P H P^* = -H), else None once P H P^* = -H is checked on all of H at SYM_TOL.
    """
    P = spec.P_unitary
    if not spec.has_P or P is None:
        raise PairingError("odd pairing requires a chiral operator P")
    if not np.allclose(P, P.conj().T, atol=1e-10):
        raise PairingError("chiral unitary P is not Hermitian (P != P*): no chirality split")
    w, V = np.linalg.eigh(P)
    plus, minus = np.flatnonzero(w > 0), np.flatnonzero(w < 0)
    if len(plus) != len(minus):
        raise PairingError("chiral unitary P is unbalanced on the orbital space")
    f = H.spectrum.chiral
    if f is not None and np.array_equal(P, np.diag(H.module.labels[f.label])):
        return f, V, plus, minus
    viol = float(RELATIONS["P"].defect(P, H).max())
    if viol > SYM_TOL:
        raise PairingError(f"chiral violation {viol:.2e} above {SYM_TOL}")
    return None, V, plus, minus


def chern_odd(H: ControlledOperator, cert: GapCertificate, spec: SymmetrySpec,
              windows) -> IndexReport:
    """Odd-dimensional winding pairing of a gapped chiral Hamiltonian.

    d = 1: i T(U* grad_1 U); d = 3: the six-term alternating sum with prefactor
    i (i pi)^((d-1)/2) / d!!.  U is the block of sgn(H) from positive to
    negative chirality of P, which is that of sgn(H - fermi) off the kernel
    when the certified gap contains 0 (else refused): with D = W diag(s) V^*
    the (plus, minus) block of H, U = V W^* over the pairs outside
    `ChiralFactors.kernel`.  P is read by `_chirality`, as `edge_fredholm`
    reads it: D is factored by the solve when P is the diagonal of its chiral
    label (ssh), else by one SVD in P's eigenbasis (kitaev, layered3d).  U
    must be a partial isometry to 1e-6.  Only the diagonal the trace reads is formed: entrywise for
    d = 1, for d = 3 on the largest window's rows W from F_a[W] F_b, with
    F_j = U* grad_j U.  The imaginary part must vanish to 1e-6.
    """
    ps = H.module.pointset
    d = ps.dim
    if d not in (1, 3):
        raise PairingError("odd pairing implemented for d = 1 and d = 3")
    windows = _box_windows(ps, windows, 0.0)
    lo, hi = cert.lower_spectrum_max, cert.upper_spectrum_min
    if not (cert.gapped and (lo is None or lo < 0) and (hi is None or hi > 0)):
        raise OperatorError("the odd pairing requires a certified gap containing 0")
    f, V, plus, minus = _chirality(H, spec)
    if f is None:
        D = onsite(V[:, plus].conj().T, H.matrix, V[:, minus].conj().T)
        f = ChiralFactors("P", H.module.orbital_index(plus), H.module.orbital_index(minus),
                          *np.linalg.svd(D if D.imag.any() else D.real))
    keep = ~f.kernel
    U = f.Vh[keep].conj().T @ f.W[:, keep].conj().T
    if np.abs(U @ (U.conj().T @ U) - U).max() > 1e-6:
        raise PairingError("sign block is not a partial isometry (max |UU*U - U| > 1e-6)")
    half = len(f.plus) // H.module.n_sites
    xs = [H.module.position_along(e) for e in np.eye(d)]
    grads = [1j * (x[f.minus][:, None] - x[f.plus][None, :]) * U for x in xs]
    W = _window_rows(ps, windows, half)
    if d == 1:
        diag = np.einsum("ji,ji->i", U.conj(), grads[0])[W]
        const = 1j
    else:
        Uc = U.conj().T
        F = [Uc @ g for g in grads]
        diag = sum(sign * np.einsum("ij,ji->i", F[a][W] @ F[b], F[c][:, W])
                   for a, b, c, sign in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                                         (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)))
        const = 1j * (1j * np.pi) / 3.0      # i (i pi)^1 / 3!!
    vals = tuple(const * v for v in _volume_trace(diag, ps, windows, half))
    return _report(vals, f"chern_odd_d{d}", kgroup_point("AIII", d), windows=windows,
                   imag_tol=1e-6)


def spin_sectors(H: ControlledOperator):
    """The spin-z sectors (up, down) of H, labels +1 and -1, when H conserves
    spin z by the rule the solve splits on (`conserved_sectors`); else the
    refusal names the largest entry between the two sectors."""
    sectors = H.module.sectors("spin_z")
    if list(sectors) != [-1, 1]:
        raise PairingError(f"spin_z takes the values {list(sectors)} on the module, not -1 and 1")
    if not any(name == "spin_z" for name, _ in conserved_sectors(H.matrix, H.module)):
        mixing = np.abs(H.matrix[np.ix_(sectors[1][1], sectors[-1][1])]).max()
        raise PairingError(f"spin-z mixing {mixing:.2e}: the spin-resolved route needs spin z "
                           "conserved exactly, and no spin-mixing formula is provided")
    return tuple(ControlledOperator(H.module.restrict_orbitals(o), H.matrix[np.ix_(r, r)],
                                    H.declared_propagation, hermitian=H.hermitian)
                 for o, r in (sectors[1], sectors[-1]))


# ---------------------------------------------------------------------------
# edge pairings
# ---------------------------------------------------------------------------

def _cut(H_hat: ControlledOperator) -> Partition:
    """The cut H_hat is the compression of, recorded on its point set."""
    if (part := H_hat.module.pointset.cut) is None:
        raise PairingError("edge pairings expect a compressed (half-space) operator")
    return part


@dataclass(frozen=True)
class Interface:
    """Frame of a compressed operator along the cut it carries: the
    interface strip (normal distance in [0, w), w half the largest: it holds
    the interface-bound states but not the sample's outer boundary), each
    site's coordinate along the edge direction, and the interface centre and
    half-length, which bound the half-open edge windows about the centre."""

    strip: np.ndarray
    coord: np.ndarray
    direction: np.ndarray
    centre: float
    half: float

    @classmethod
    def of(cls, H_hat: ControlledOperator) -> "Interface":
        """The frame of the compressed H_hat along its cut's edge direction
        (the normal rotated by +90 degrees)."""
        part, ps = _cut(H_hat), H_hat.module.pointset
        e = part.edge_direction()
        coord = ps.coords @ e
        iface = coord[np.isin(part.plus_ids, part.interface_ids)]
        lo, hi = iface.min(), iface.max()
        return cls(part.past_strip(ps.coords) < 0, coord, e, 0.5 * (lo + hi), 0.5 * (hi - lo))

    def windows(self, radii) -> tuple:
        """The edge window radii, through `check_windows`."""
        return check_windows(radii, self.half,
                             f"exceeds the interface half-length {self.half:.4g}")

    def sums(self, traces: np.ndarray, windows) -> tuple:
        """Per-unit-edge-length strip sums of `traces` (a row per site), one per window."""
        vals = []
        for n in windows:
            mask = self.strip & (self.coord >= self.centre - n) & (self.coord < self.centre + n)
            if not mask.any():
                raise PairingError(f"edge window {n} contains no strip sites")
            vals.append(traces[mask].sum(axis=0) / (2.0 * n))
        return tuple(vals)


def edge_conductance(H_hat: ControlledOperator, interval, edge_windows,
                     bulk_gap: GapCertificate) -> IndexReport:
    """Edge transport pairing -(2 pi / |Delta|) T^(P_Delta grad_edge H^).

    P_Delta is the spectral projection of the compressed Hamiltonian onto the
    energy interval Delta inside the certified bulk gap; the trace runs per
    unit edge length over the interface strip, and the 2 pi converts natural
    trace units to conductance quanta.  On a finite sample the edge spectrum
    is discrete, so a sharp interval boundary miscounts by up to one level;
    the estimate is therefore averaged over WIDTH_FAMILY sub-intervals
    shrinking from Delta to 0.7 Delta, which cancels the level-quantization
    sawtooth while staying inside the declared interval.  Only the states
    inside Delta, the only ones counted, carry their current.
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise PairingError("interval must have positive width")
    lo, hi = bulk_gap.fermi - bulk_gap.epsilon, bulk_gap.fermi + bulk_gap.epsilon
    if a < lo or b > hi:
        raise PairingError(f"interval ({a}, {b}) leaves the certified bulk gap "
                           f"({lo:.4f}, {hi:.4f}); the edge formula is gap-valid only")
    if H_hat.module.pointset.dim != 2:
        raise PairingError("edge conductance is the d = 2 edge pairing")
    frame = Interface.of(H_hat)
    windows = frame.windows(edge_windows)
    w, v = H_hat.eigh()
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    inside = (w > centre - half) & (w < centre + half)
    w, v = w[inside], v[:, inside]
    # per-state current within the strip, resolved per site then per window
    DHv = derivation_along(H_hat, frame.direction).matrix @ v
    site_state = (v.conj() * DHv).reshape(H_hat.module.n_sites, H_hat.m, -1).sum(axis=1)
    halves = np.linspace(0.7 * half, half, WIDTH_FAMILY)
    per_window = []
    for state_vals in frame.sums(site_state, windows):
        ests = []
        for h in halves:
            sel = (w > centre - h) & (w < centre + h)
            ests.append(-2 * np.pi * complex(state_vals[sel].sum()) / (2 * h))
        per_window.append(np.mean(ests))
    return _report(per_window, "edge_conductance", kgroup_point("A", 2), windows=windows)


def edge_fredholm(H_hat: ControlledOperator, spec: SymmetrySpec,
                  bulk_gap: GapCertificate) -> IndexReport:
    """Half-line index: chirality-weighted count of cut-bound zero modes.

    P is read as `chern_odd` reads it (`_chirality`).  Eigenvalues below
    KERNEL_TOL in modulus are the kernel; any other level at most 10
    KERNEL_TOL, or within IN_GAP epsilon of the bulk gap's Fermi level (the
    band `make_edge` checks), is a split end pair and refused.  The count is
    Tr(P chi Q) with Q the kernel projection and chi the indicator of the
    quarter nearest the cut, which isolates the cut end from its partner mode
    at the sample's far end.
    """
    ps = H_hat.module.pointset
    if ps.dim != 1:
        raise PairingError("the Fredholm count is the d = 1 edge pairing")
    part = _cut(H_hat)
    _chirality(H_hat, spec)
    w, v = H_hat.eigh()
    near = np.abs(w) < KERNEL_TOL
    split = w[~near & ((np.abs(w - bulk_gap.fermi) < IN_GAP * bulk_gap.epsilon)
                       | (np.abs(w) <= 10 * KERNEL_TOL))]
    if split.size:
        raise PairingError(f"in-gap edge level E = {split[np.argmin(np.abs(split))]:.2e} is "
                           f"not in the kernel (|E| < {KERNEL_TOL:g}): the end modes split "
                           "on this half chain; use a larger sample")
    proj = part.distance(ps.coords)
    chi = (proj <= proj.min() + 0.25 * (proj.max() - proj.min())).astype(float)
    # Tr(Q^* P chi Q) site by site: chi is constant on each site's orbital
    # block, so P chi is Hermitian and acts on the (n, m, k) view of Q
    Q = v[:, near].reshape(ps.n, H_hat.m, -1)
    per_site = (Q.conj() * np.matmul(spec.P_unitary, Q)).sum(axis=(1, 2))
    val = complex(chi @ per_site)
    return _report((val,), "edge_fredholm", kgroup_point("AIII", 1),
                   error=abs(np.imag(val)))
