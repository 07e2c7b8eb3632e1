"""Half-space boundary map and the bulk-edge certification pipeline.

A gapped bulk system on a windowed point set is cut by a half-space
projection; the compression of the flattened Hamiltonian realizes the
boundary map at the operator level, and its pairing along the interface must
reproduce the bulk pairing.  `verify_bec` runs both sides for the supported
(class, dimension) combinations and certifies their equality, optionally
sweeping symmetric disorder seeds and truncation radii to exercise the
stability of both snapped values; `edge_index` runs the edge side alone.
`ROUTES` is the one table of supported (class, dimension) pairs: each entry
names its working system, its symmetry spec, its bulk and edge pairings and
its snap.

Desk-scale caveat handled throughout: a windowed sample has an outer boundary
besides the cut.  All interface traces are restricted to the interface strip,
and gap checks exclude states pinned to the sample boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Partition
from .indices import (IndexReport, _report, chern_even, chern_odd, edge_conductance,
                      edge_fredholm, edge_trace, occupied_projection, spin_up_sector)
from .operators import (ControlledOperator, GapCertificate, SiteModule,
                        certify_gap, compress, derivation_along, flatten, truncate)
from .models import disorder_blocks
from .symmetry import SymmetrySpec, classify, kgroup_point, verify_symmetry


class BulkEdgeError(ValueError):
    """Raised when a system fails the bulk or edge admissibility checks."""


@dataclass(frozen=True)
class BulkSystem:
    """Gapped, symmetry-verified Hamiltonian on a windowed point set."""

    module: SiteModule
    H: ControlledOperator
    spec: SymmetrySpec
    gap: GapCertificate


def make_bulk(module: SiteModule, H: ControlledOperator, spec: SymmetrySpec,
              fermi: float = 0.0, sym_tol: float = 1e-8) -> BulkSystem:
    """Certify the gap and the symmetry relations, then package the system."""
    rep = verify_symmetry(H, spec, tol=sym_tol)
    if not rep.passed:
        raise BulkEdgeError(f"symmetry violations {rep.violations} exceed {sym_tol}")
    cert = certify_gap(H, fermi=fermi)
    if not cert.gapped:
        raise BulkEdgeError(f"no certified spectral gap at fermi={fermi} "
                            f"(epsilon={cert.epsilon:.3g}, spacing={cert.level_spacing:.3g})")
    return BulkSystem(module=module, H=H, spec=spec, gap=cert)


@dataclass(frozen=True)
class EdgeSystem:
    """Half-space compression of a bulk system."""

    module: SiteModule
    H_hat: ControlledOperator
    spec: SymmetrySpec
    parent_gap: GapCertificate
    partition: Partition


def make_edge(bulk: BulkSystem, part: Partition, locality_fraction: float = 0.7,
              strip_width: float | None = None) -> EdgeSystem:
    """Compress the bulk by the plus half-space and verify the edge condition.

    The compressed Hamiltonian may have spectrum inside the parent gap, but
    only from states bound to the interface (or to the sample's outer
    boundary, which stands in for infinity).  Any in-gap state with more
    than 1 - locality_fraction of its weight in the deep interior signals
    that the interface collar is too thin or the gap too tight for the sample.
    """
    H_hat = compress(bulk.H, part)
    w, v = H_hat.eigh()
    eps, fermi = bulk.gap.epsilon, bulk.gap.fermi
    sel = np.abs(w - fermi) < 0.9 * eps
    if sel.any():
        ps = H_hat.module.pointset
        proj = ps.coords @ part.normal - part.offset
        if strip_width is None:
            strip_width = 0.5 * proj.max()
        extent = float((ps.window[:, 1] - ps.window[:, 0]).min())
        margin = max(2 * bulk.H.declared_propagation, 0.1 * extent)
        near_edgeish = (proj < strip_width) | (ps.boundary_distance() < margin)
        weight = (np.abs(v[np.repeat(near_edgeish, H_hat.m)][:, sel]) ** 2).sum(axis=0)
        if weight.min() < locality_fraction:
            raise BulkEdgeError(
                "in-gap edge spectrum is not interface-localized "
                f"(worst boundary weight {weight.min():.3f} < {locality_fraction}); "
                "interface thickness too small or bulk gap too tight for this sample")
    return EdgeSystem(module=H_hat.module, H_hat=H_hat, spec=bulk.spec,
                      parent_gap=bulk.gap, partition=part)


# ---------------------------------------------------------------------------
# boundary map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryMap:
    """Compressed symmetry and its interface unitary representative."""

    s_hat: ControlledOperator
    U: ControlledOperator
    winding: IndexReport | None
    off_interface_deviation: float
    decay_xi: float


def mv_boundary(s: ControlledOperator, part: Partition, edge_windows=None,
                strip_width: float | None = None, flat_tol: float = 1e-8) -> BoundaryMap:
    """Operator-level boundary map of a flattened bulk symmetry.

    s_hat = chi s chi is the half-space compression; U = -exp(i pi s_hat) is
    unitary, equals the identity away from the interface (s_hat^2 = 1 there),
    and for a plane system its winding per unit interface length is the edge
    pairing of the boundary class.
    """
    M = s.matrix
    if np.abs(M @ M - np.eye(len(M))).max() > max(flat_tol, 1e-8) or not s.hermitian:
        raise BulkEdgeError("boundary map expects a self-adjoint unitary (flattened) input")
    s_hat = compress(s, part)
    w, v = s_hat.eigh()
    U = ControlledOperator(s_hat.module, -(v * np.exp(1j * np.pi * w)) @ v.conj().T,
                           s_hat.declared_propagation, hermitian=False)
    ps = s_hat.module.pointset
    proj = ps.coords @ part.normal - part.offset
    dev_blocks = np.abs(U.matrix - np.eye(U.module.dim)).reshape(
        ps.n, U.m, ps.n, U.m).max(axis=(1, 3))
    site_dev = dev_blocks.max(axis=1)
    far = (proj > 0.5 * proj.max()) & (ps.boundary_distance() > 0.2 * proj.max())
    off_dev = float(site_dev[far].max()) if far.any() else 0.0
    # exponential-decay fit of the deviation profile against interface distance
    xi = np.inf
    rs, ys = [], []
    for lo in np.arange(0.0, proj.max() * 0.7, 1.0):
        sel = (proj >= lo) & (proj < lo + 1.0)
        if sel.any() and site_dev[sel].max() > 1e-15:
            rs.append(lo + 0.5)
            ys.append(np.log(site_dev[sel].max()))
    if len(rs) >= 3:
        slope = np.polyfit(rs, ys, 1)[0]
        xi = float(-1.0 / slope) if slope < 0 else np.inf
    winding = None
    if ps.dim == 2 and edge_windows is not None:
        DU = derivation_along(U, part.edge_direction()).matrix
        A = U.matrix.conj().T @ DU
        traces = np.diag(A).reshape(-1, U.m).sum(axis=1)
        vals = edge_trace(U, part, traces, edge_windows, strip_width)
        winding = _report(tuple(1j * v for v in vals), "mv_boundary_winding",
                          kgroup_point("A", 2), 0.1, windows=edge_windows)
    return BoundaryMap(s_hat=s_hat, U=U, winding=winding,
                       off_interface_deviation=off_dev, decay_xi=xi)


# ---------------------------------------------------------------------------
# certification pipeline
# ---------------------------------------------------------------------------

@dataclass
class BECConfig:
    """Knobs for the certification run."""

    windows: tuple = ()
    edge_windows: tuple = ()
    snap_tol: float = 0.1
    strip_width: float | None = None
    delta_fraction: float = 1 / 3        # width of Delta relative to the bulk gap
    plateau_fraction: float = 1 / 5      # second width for the plateau check
    plateau_tol: float = 0.05
    disorder_strength: float = 0.0
    disorder_seeds: tuple = ()
    truncation_radii: tuple = ()

    @classmethod
    def from_dict(cls, doc: dict) -> "BECConfig":
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})


@dataclass(frozen=True)
class BECReport:
    label: str
    dim: int
    bulk: IndexReport
    edge: IndexReport
    passed: bool                         # the match, the plateau and every sweep entry
    plateau_deviation: float | None = None
    sweeps: tuple = ()
    reasons: tuple = ()                  # why it failed: empty exactly when passed

    def to_json(self) -> dict:
        return {"label": self.label, "dim": self.dim, "bulk": self.bulk.to_json(),
                "edge": self.edge.to_json(), "pass": bool(self.passed),
                "plateau_deviation": self.plateau_deviation,
                "sweeps": [dict(s) for s in self.sweeps],
                "reasons": list(self.reasons)}


def _default_windows(ps, margin: float):
    lo = ps.window[:, 0].max()
    hi = ps.window[:, 1].min()
    half = (hi - lo) / 2 - margin
    return tuple(np.round(half * f, 2) for f in (0.6, 0.8, 1.0))


def chiral_refinement(H: ControlledOperator, spec: SymmetrySpec) -> SymmetrySpec:
    """Chiral refinement of a class-D system whose C acts unitarily too.

    Real Bogoliubov-de Gennes Hamiltonians anticommute with the unitary part
    of C; that makes the mod-2 index computable as a winding reduced mod 2.
    """
    if spec.C_unitary is None:
        raise BulkEdgeError("no chiral operator: the class-D refinement needs "
                            "the C unitary block")
    aux = SymmetrySpec(has_P=True, P_unitary=spec.C_unitary)
    rep = verify_symmetry(H, aux, tol=1e-8)
    if rep.violations.get("P", 1.0) > 1e-8:
        raise BulkEdgeError(
            "class D sample does not anticommute with the C unitary (complex "
            "pairing disorder?); the desk-scale mod-2 route needs this refinement")
    return aux


# ---------------------------------------------------------------------------
# the (class, d) route table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Route:
    """How one supported (class, d) pair is certified.

    `system(bulk)` and `spec(bulk)` resolve, once per point, the working
    system and the symmetry spec both pairings run on.  `bulk(work, spec,
    windows)` and `edge(work, spec, part, cfg)` run the two pairings; the edge
    also returns its plateau deviation (None without one).  Both reports are
    snapped once more, mod 2 when `z2` and else to an integer, under the
    names in `formulas`, so each carries only that snap's warning.  The step
    functions look pairings up by name when called.
    """

    system: Callable
    spec: Callable
    bulk: Callable
    edge: Callable
    z2: bool
    formulas: tuple


def _spin_up(bulk: BulkSystem) -> BulkSystem:
    """Spin-up sector with its own certified gap, shared by both sides."""
    H_up, cert = spin_up_sector(bulk.H, bulk.spec, fermi=bulk.gap.fermi)
    return BulkSystem(H_up.module, H_up, SymmetrySpec(), cert)


def _chern(work: BulkSystem, spec, windows) -> IndexReport:
    return chern_even(occupied_projection(work.H, work.gap), windows, snap_tol=np.inf)


def _winding(work: BulkSystem, spec, windows) -> IndexReport:
    return chern_odd(flatten(work.H, work.gap), spec, windows, snap_tol=np.inf)


def _conductance(work: BulkSystem, spec, part, cfg):
    """Edge conductance at both interval widths: (first report, their spread)."""
    edge = make_edge(work, part)
    windows = cfg.edge_windows or _default_windows(edge.module.pointset, 1.0)
    fermi, eps = work.gap.fermi, work.gap.epsilon
    first, second = (edge_conductance(edge.H_hat, part, (fermi - f * eps, fermi + f * eps),
                                      windows, bulk_gap=work.gap,
                                      strip_width=cfg.strip_width, snap_tol=np.inf)
                     for f in (cfg.delta_fraction, cfg.plateau_fraction))
    return first, float(abs(first.raw - second.raw))


def _kernel_count(work: BulkSystem, spec, part, cfg):
    return edge_fredholm(make_edge(work, part).H_hat, spec, part=part), None


def _itself(bulk: BulkSystem):
    return bulk


def _declared(bulk: BulkSystem) -> SymmetrySpec:
    return bulk.spec


ROUTES = {
    ("A", 2): Route(_itself, _declared, _chern, _conductance, False,
                    ("chern_even", "edge_conductance")),
    ("AIII", 1): Route(_itself, _declared, _winding, _kernel_count, False,
                       ("chern_odd_d1", "edge_fredholm")),
    ("D", 1): Route(_itself, lambda bulk: chiral_refinement(bulk.H, bulk.spec),
                    _winding, _kernel_count, True,
                    ("winding_mod2", "majorana_count_mod2")),
    ("AII", 2): Route(_spin_up, _declared, _chern, _conductance, True,
                      ("kane_mele_spin_chern", "spin_edge_conductance_mod2")),
}


def _certify(bulk: BulkSystem, part: Partition, label: str, d: int, cfg: BECConfig,
             with_bulk: bool = True):
    """One point on its route: (bulk report, edge report, plateau); the bulk
    report is None when `with_bulk` is off."""
    if (label, d) not in ROUTES:
        raise BulkEdgeError(f"unsupported class/dimension ({label}, d={d}); "
                            f"supported: {sorted(ROUTES)}")
    route = ROUTES[label, d]
    work, spec = route.system(bulk), route.spec(bulk)
    group = kgroup_point(label, d)
    tol = 0.25 if route.z2 else cfg.snap_tol

    def snap(rep, formula):
        # a windowless pairing (the kernel count) reports no per-window values
        return _report(rep.values or (rep.raw,), formula, group, tol, z2=route.z2,
                       windows=rep.windows, error=rep.error)

    b = None
    if with_bulk:
        windows = cfg.windows or _default_windows(bulk.module.pointset, 2.0)
        b = snap(route.bulk(work, spec, windows), route.formulas[0])
    e, plateau = route.edge(work, spec, part, cfg)
    return b, snap(e, route.formulas[1]), plateau


def edge_index(bulk: BulkSystem, part: Partition,
               config: BECConfig | dict | None = None) -> IndexReport:
    """The edge side of `verify_bec` alone: the same working system, spec,
    edge pairing and snap as the bulk system's route."""
    cfg = config if isinstance(config, BECConfig) else BECConfig.from_dict(config or {})
    return _certify(bulk, part, classify(bulk.spec), bulk.module.pointset.dim, cfg,
                    with_bulk=False)[1]


def _perturbations(bulk: BulkSystem, label: str, cfg: BECConfig):
    """Sweep points: (entry keys, perturbed Hamiltonian) per disorder seed,
    then per truncation radius."""
    conserve = ()
    if label == "AII" and "spin_z" in bulk.module.labels:
        conserve = (bulk.module.labels["spin_z"],)   # spin-resolved route needs it
    m = bulk.H.m
    for seed in cfg.disorder_seeds:
        blocks = disorder_blocks(bulk.spec, m, bulk.module.n_sites,
                                 cfg.disorder_strength, seed, conserve=conserve)
        M = bulk.H.matrix.copy()
        for x, B in enumerate(blocks):
            M[x * m:(x + 1) * m, x * m:(x + 1) * m] += B
        yield ({"kind": "disorder", "seed": int(seed), "strength": cfg.disorder_strength},
               ControlledOperator(bulk.module, M, bulk.H.declared_propagation,
                                  hermitian=True))
    for R in cfg.truncation_radii:
        yield {"kind": "truncation", "radius": float(R)}, truncate(bulk.H, float(R))


def _mismatch(bulk_rep: IndexReport, edge_rep: IndexReport) -> list[str]:
    """Why the two sides do not match: each side that did not snap, else the
    two snapped values; empty when they match."""
    why = [f"{side} did not snap (raw {rep.raw:.6g})"
           for side, rep in (("bulk", bulk_rep), ("edge", edge_rep)) if rep.snapped is None]
    if not why and bulk_rep.snapped != edge_rep.snapped:
        why.append(f"bulk {bulk_rep.snapped} != edge {edge_rep.snapped}")
    return why


def verify_bec(bulk: BulkSystem, part: Partition,
               config: BECConfig | dict | None = None) -> BECReport:
    """Run the matching bulk and edge pairings and certify their equality.

    Supported combinations are the keys of `ROUTES`: plane Chern class
    (A, d=2), chiral chain (AIII, d=1), real pairing chain mod 2 (D, d=1) and
    spin-conserving time-reversal plane systems mod 2 (AII, d=2).  Optional
    sweeps re-run the pipeline over symmetric disorder seeds and truncation
    radii; a sweep entry records the snapped values so stability is
    auditable.  The report passes only when the clean point matches, its
    plateau holds and every sweep entry passes; `reasons` names each of
    these that failed.
    """
    cfg = config if isinstance(config, BECConfig) else BECConfig.from_dict(config or {})
    label = classify(bulk.spec)
    d = bulk.module.pointset.dim
    bulk_rep, edge_rep, plateau = _certify(bulk, part, label, d, cfg)
    reasons = _mismatch(bulk_rep, edge_rep)
    if not (plateau is None or plateau <= cfg.plateau_tol):
        reasons.append(f"plateau deviation {plateau:.4g} above plateau_tol "
                       f"{cfg.plateau_tol:.4g}")
    sweeps = []
    for keys, H in _perturbations(bulk, label, cfg):
        point = make_bulk(bulk.module, H, bulk.spec, fermi=bulk.gap.fermi)
        b, e, _ = _certify(point, part, label, d, cfg)
        why = _mismatch(b, e)
        sweeps.append({**keys, "bulk_raw": b.raw, "edge_raw": e.raw,
                       "bulk_snapped": b.snapped, "edge_snapped": e.snapped,
                       "pass": not why})
        where = (f"seed {keys['seed']}" if keys["kind"] == "disorder"
                 else f"radius {keys['radius']:g}")
        reasons.extend(f"{keys['kind']} {where}: {w}" for w in why)
    return BECReport(label=label, dim=d, bulk=bulk_rep, edge=edge_rep,
                     passed=not reasons, plateau_deviation=plateau,
                     sweeps=tuple(sweeps), reasons=tuple(reasons))
