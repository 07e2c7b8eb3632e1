"""Half-space boundary map and the bulk-edge certification pipeline.

A gapped bulk system on a windowed point set is cut by a half-space
projection; the exponential map of the compressed Fermi projection realizes
the boundary map at the operator level, and its pairing along the interface
must reproduce the bulk pairing.  `verify_bec` runs both sides for the supported
(class, dimension) combinations and certifies their equality, optionally
sweeping symmetric disorder seeds and truncation radii to exercise the
stability of both snapped values; `bulk_index` and `edge_index` run one side
alone.  `ROUTES` is the one table of supported (class, dimension) pairs: each
entry names its working system, which carries the spec both pairings read,
and its bulk and edge pairings; both reports snap in the pair's classifying
group.

Desk-scale caveat handled throughout: a windowed sample has an outer boundary
besides the cut.  All interface traces are restricted to the interface strip,
and gap checks exclude states pinned to the sample boundary.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .geometry import Partition, refuse_unknown_keys
from .indices import (IndexReport, Interface, PairingError, _box_windows,
                      _occupied, _report, box_bound, chern_even, chern_odd,
                      edge_conductance, edge_fredholm, spin_sectors)
from .operators import (ControlledOperator, GapCertificate, SiteModule, certify_gap,
                        compress, decay_fit, derivation_along, identity, site_blocks, truncate)
from .models import disorder_blocks
from .symmetry import (SYM_TOL, KGroupDescriptor, SymmetrySpec, classify, kgroup_point,
                       verify_symmetry)

DELTA_FRACTION = 1 / 3      # edge interval Delta: this fraction of the bulk gap
PLATEAU_FRACTION = 1 / 5    # second interval width for the plateau check
PLATEAU_TOL = 0.05          # largest edge change between the two widths
BULK_RESERVE = 2.0          # least margin of derived bulk windows on a route
EDGE_RESERVE = 1.0          # least margin of derived edge windows to the sample


class BulkEdgeError(ValueError):
    """Raised when a system fails the bulk or edge admissibility checks."""


@dataclass(frozen=True)
class BulkSystem:
    """Gapped, symmetry-verified Hamiltonian on a windowed point set;
    `make_bulk` is the constructor that verifies, and the routes trust it."""

    H: ControlledOperator
    spec: SymmetrySpec
    gap: GapCertificate


def make_bulk(module: SiteModule, H: ControlledOperator, spec: SymmetrySpec,
              fermi: float = 0.0) -> BulkSystem:
    """Certify the gap and the symmetry relations (to SYM_TOL), then package
    the system; `module` must be the one H acts on."""
    if module is not H.module:
        raise BulkEdgeError("make_bulk: the module is not the Hamiltonian's own (H.module)")
    rep = verify_symmetry(H, spec)
    if not rep.passed:
        raise BulkEdgeError(f"symmetry violations {rep.violations} exceed {SYM_TOL}")
    cert = certify_gap(H, fermi=fermi)
    if not cert.gapped:
        raise BulkEdgeError(f"no certified spectral gap at fermi={fermi} "
                            f"(epsilon={cert.epsilon:.3g}, spacing={cert.level_spacing:.3g})")
    return BulkSystem(H=H, spec=spec, gap=cert)


def make_edge(bulk: BulkSystem, part: Partition) -> ControlledOperator:
    """Compress the bulk by the plus half-space, verify the edge condition and
    return the compressed Hamiltonian.

    The compressed Hamiltonian may have spectrum inside the parent gap, but
    only from states bound to the interface (or to the sample's outer
    boundary, which stands in for infinity).  Any in-gap state with more
    than 30% of its weight in the deep interior (beyond the interface strip
    and the boundary margin) signals that the interface collar is too thin
    or the gap too tight for the sample.
    """
    H_hat = compress(bulk.H, part)
    w, v = H_hat.eigh()
    eps, fermi = bulk.gap.epsilon, bulk.gap.fermi
    sel = np.abs(w - fermi) < 0.9 * eps
    if sel.any():
        ps = H_hat.module.pointset
        extent = float((ps.window[:, 1] - ps.window[:, 0]).min())
        margin = max(2 * bulk.H.declared_propagation, 0.1 * extent)
        near_edgeish = (part.past_strip(ps.coords) < 0) | (ps.boundary_distance() < margin)
        weight = (np.abs(v[np.repeat(near_edgeish, H_hat.m)][:, sel]) ** 2).sum(axis=0)
        if weight.min() < 0.7:
            raise BulkEdgeError(
                "in-gap edge spectrum is not interface-localized "
                f"(worst boundary weight {weight.min():.3f} < 0.7); "
                "interface thickness too small or bulk gap too tight for this sample")
    return H_hat


# ---------------------------------------------------------------------------
# boundary map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryMap:
    """Interface unitary U = exp(-2 pi i chi P chi), its winding and its decay."""

    U: ControlledOperator
    winding: IndexReport | None
    off_interface_deviation: float
    decay_xi: float


def mv_boundary(H: ControlledOperator, cert: GapCertificate, part: Partition,
                edge_windows=None) -> BoundaryMap:
    """Boundary map of a gapped H with Fermi projection P: on the plus half-space
    chi, U = exp(-2 pi i chi P chi) = -exp(i pi chi s chi), s = 1 - 2P, is the
    exponential map of K-theory (Prodan and Schulz-Baldes, Springer 2016).  With
    A = chi V (V from `indices._occupied`) and A^*A = Q diag(mu) Q^*, U = 1 +
    (AQ) diag(g(mu)) (AQ)^*, g(mu) = expm1(-2 pi i mu) / mu, g(0) = -2 pi i.  U
    is the identity away from the interface; in a plane its winding per unit
    interface length is the edge pairing of the boundary class."""
    module = H.module.plus_side(part)
    V = _occupied(H, cert)
    A = V.reshape(H.module.n_sites, H.m, -1)[part.plus_ids].reshape(-1, V.shape[1])
    mu, Q = np.linalg.eigh(A.conj().T @ A)
    g = np.divide(np.expm1(-2j * np.pi * mu), mu, out=np.full(len(mu), -2j * np.pi),
                  where=mu != 0)
    AQ = A @ Q
    dU = ControlledOperator(module, (AQ * g) @ AQ.conj().T, H.module.pointset.diameter,
                            hermitian=False)
    U = identity(module) + dU
    ps = module.pointset
    proj = part.distance(ps.coords)
    site_dev = dU.block_norms().max(axis=1)     # max |U - 1| per site row
    far = (part.past_strip(ps.coords) > 0) & (ps.boundary_distance() > 0.2 * proj.max())
    off_dev = float(site_dev[far].max()) if far.any() else 0.0
    # exponential-decay fit of the deviation profile against interface distance
    fit = decay_fit(proj, site_dev, np.arange(0.0, proj.max() * 0.7, 1.0), 3)
    winding = None
    if ps.dim == 2 and edge_windows is not None:
        frame = Interface.of(U)
        windows = frame.windows(edge_windows)
        DU = derivation_along(U, frame.direction).matrix
        traces = np.einsum("ji,ji->i", U.matrix.conj(), DU).reshape(-1, U.m).sum(axis=1)
        winding = _report(tuple(1j * v for v in frame.sums(traces, windows)),
                          "mv_boundary_winding", kgroup_point("A", 2), windows=windows)
    return BoundaryMap(U=U, winding=winding,
                       off_interface_deviation=off_dev,
                       decay_xi=fit[0] if fit else np.inf)


# ---------------------------------------------------------------------------
# certification pipeline
# ---------------------------------------------------------------------------

@dataclass
class BECConfig:
    """Windows of both sides (empty: derived from the sample) and the sweeps,
    whose settings are checked here, before any solve."""

    windows: tuple = ()
    edge_windows: tuple = ()
    disorder_strength: float = 0.0
    disorder_seeds: tuple = ()
    truncation_radii: tuple = ()

    def __post_init__(self):
        number, integer = (numbers.Real, "a number"), (numbers.Integral, "an integer")
        for what, values, (kind, desc) in (
                ("window", self.windows, number), ("edge window", self.edge_windows, number),
                ("truncation radius", self.truncation_radii, number),
                ("disorder strength", (self.disorder_strength,), number),
                ("disorder seed", self.disorder_seeds, integer)):
            if bad := [v for v in values if isinstance(v, bool) or not isinstance(v, kind)]:
                raise BulkEdgeError(f"{what} {bad[0]!r} is not {desc}")
        for R in self.truncation_radii:
            if not 0 < R < np.inf:
                raise BulkEdgeError(f"truncation radius {R} is not positive and finite")
        if not np.isfinite(strength := self.disorder_strength):
            raise BulkEdgeError(f"disorder strength {strength} is not a finite number")
        if bool(strength) != bool(self.disorder_seeds):
            raise BulkEdgeError(f"disorder strength {strength} without disorder seeds" if strength
                                else "disorder seeds without a disorder strength")

    @classmethod
    def of(cls, config: "BECConfig | dict | None") -> "BECConfig":
        """A config as given, or read from a dict of its fields (None: the defaults)."""
        if isinstance(config, cls):
            return config
        refuse_unknown_keys(config or {}, [f.name for f in fields(cls)], "config", BulkEdgeError)
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in (config or {}).items()})


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


def _default_windows(*bounds) -> tuple:
    """0.6, 0.8 and 1 times the least of `bounds`, each the largest radius a
    window check allows, to 2 decimals but never past it: they pass."""
    top = min(bounds)
    cap = float(np.round(top, 2))
    cap = cap if cap <= top else float(np.round(cap - 0.01, 2))
    return tuple(r if (r := float(np.round(top * f, 2))) <= top else cap
                 for f in (0.6, 0.8, 1.0))


# ---------------------------------------------------------------------------
# the (class, d) route table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Route:
    """How one supported (class, d) pair is certified.

    `system(bulk)` resolves, once per point, the working system both
    pairings run on; its spec is the one they read.  `bulk(work, windows)`
    and `edge(work, H_hat, cfg)` run the two pairings; the edge also returns
    its plateau deviation (None without one).  Both reports are snapped once
    more in the pair's classifying group, under the names in `formulas`, so
    each carries only that snap's warning.  The step functions look pairings
    up by name when called.
    """

    system: Callable
    bulk: Callable
    edge: Callable
    formulas: tuple


def _spin_up(bulk: BulkSystem) -> BulkSystem:
    """Spin-up sector with its own certified gap, shared by both sides; T
    was verified by `make_bulk`, and spin z must be conserved to 1e-10."""
    H_up, _, mixing = spin_sectors(bulk.H)
    if mixing > 1e-10:
        raise PairingError(
            f"spin-z mixing {mixing:.2e} exceeds 1e-10: the spin-resolved "
            "route needs spin conservation, and no spin-mixing formula is provided")
    cert = certify_gap(H_up, fermi=bulk.gap.fermi)
    if not cert.gapped:
        raise PairingError("spin-up sector is not gapped at the Fermi level")
    return BulkSystem(H_up, SymmetrySpec(), cert)


def _chiral_refinement(bulk: BulkSystem) -> BulkSystem:
    """A class-D system under its chiral refinement, P = the unitary part of C.

    Real Bogoliubov-de Gennes Hamiltonians anticommute with the unitary part
    of C; that makes the mod-2 index computable as a winding reduced mod 2.
    Both odd pairings check that relation on their H (`indices._chirality`)
    and name a violation (complex pairing, say) as a `PairingError`.
    """
    if bulk.spec.C_unitary is None:
        raise BulkEdgeError("no chiral operator: the class-D refinement needs "
                            "the C unitary block")
    return replace(bulk, spec=SymmetrySpec(has_P=True, P_unitary=bulk.spec.C_unitary))


def _chern(work: BulkSystem, windows) -> IndexReport:
    return chern_even(work.H, work.gap, windows)


def _winding(work: BulkSystem, windows) -> IndexReport:
    return chern_odd(work.H, work.gap, work.spec, windows)


def _conductance(work: BulkSystem, H_hat, cfg):
    """Edge conductance at both interval widths: (first report, their spread)."""
    windows = cfg.edge_windows or _default_windows(
        Interface.of(H_hat).half, box_bound(H_hat.module.pointset, EDGE_RESERVE))
    fermi, eps = work.gap.fermi, work.gap.epsilon
    first, second = (edge_conductance(H_hat, (fermi - f * eps, fermi + f * eps), windows,
                                      bulk_gap=work.gap)
                     for f in (DELTA_FRACTION, PLATEAU_FRACTION))
    return first, float(abs(first.raw - second.raw))


def _kernel_count(work: BulkSystem, H_hat, cfg):
    return edge_fredholm(H_hat, work.spec, work.gap), None


def _itself(bulk: BulkSystem):
    return bulk


ROUTES = {
    ("A", 2): Route(_itself, _chern, _conductance, ("chern_even", "edge_conductance")),
    ("AIII", 1): Route(_itself, _winding, _kernel_count, ("chern_odd_d1", "edge_fredholm")),
    ("D", 1): Route(_chiral_refinement, _winding, _kernel_count,
                    ("winding_mod2", "majorana_count_mod2")),
    ("AII", 2): Route(_spin_up, _chern, _conductance,
                      ("kane_mele_spin_chern", "spin_edge_conductance_mod2")),
}


@dataclass(frozen=True)
class _OnRoute:
    """A bulk system resolved on its route, once per point: the working
    system both sides run on, and the group both reports snap in."""

    route: Route
    work: BulkSystem
    group: KGroupDescriptor

    def _snap(self, rep: IndexReport, formula: str) -> IndexReport:
        # a windowless pairing (the kernel count) reports no per-window values
        return _report(rep.values or (rep.raw,), formula, self.group,
                       windows=rep.windows, error=rep.error)

    def bulk_report(self, cfg: BECConfig) -> IndexReport:
        ps, reach = self.work.H.module.pointset, self.work.H.declared_propagation
        windows = _box_windows(ps, cfg.windows or _default_windows(
            box_bound(ps, reach), box_bound(ps, BULK_RESERVE)), reach)
        return self._snap(self.route.bulk(self.work, windows), self.route.formulas[0])

    def edge_report(self, part: Partition, cfg: BECConfig):
        """(edge report, plateau deviation or None)."""
        rep, plateau = self.route.edge(self.work, make_edge(self.work, part), cfg)
        return self._snap(rep, self.route.formulas[1]), plateau


def _on_route(bulk: BulkSystem) -> _OnRoute:
    label, d = classify(bulk.spec), bulk.H.module.pointset.dim
    if (label, d) not in ROUTES:
        raise BulkEdgeError(f"unsupported class/dimension ({label}, d={d}); "
                            f"supported: {sorted(ROUTES)}")
    route = ROUTES[label, d]
    return _OnRoute(route, route.system(bulk), kgroup_point(label, d))


def bulk_index(bulk: BulkSystem, config: BECConfig | dict | None = None) -> IndexReport:
    """The bulk side of `verify_bec` alone: the same working system, bulk
    pairing and snap as the bulk system's route."""
    return _on_route(bulk).bulk_report(BECConfig.of(config))


def edge_index(bulk: BulkSystem, part: Partition,
               config: BECConfig | dict | None = None) -> IndexReport:
    """The edge side of `verify_bec` alone: the same working system, edge
    pairing and snap as the bulk system's route."""
    return _on_route(bulk).edge_report(part, BECConfig.of(config))[0]


def _certify(bulk: BulkSystem, part: Partition, cfg: BECConfig):
    """One point on its route, resolved once for both sides: (bulk report,
    edge report, plateau)."""
    point = _on_route(bulk)
    return (point.bulk_report(cfg), *point.edge_report(part, cfg))


def _perturbations(bulk: BulkSystem, label: str, cfg: BECConfig):
    """Sweep points: (entry keys, perturbed Hamiltonian) per disorder seed,
    then per truncation radius."""
    conserve = ()
    if label == "AII" and "spin_z" in bulk.H.module.labels:
        conserve = (bulk.H.module.labels["spin_z"],)   # spin-resolved route needs it
    for seed in cfg.disorder_seeds:
        M = bulk.H.matrix.copy()
        M[site_blocks(len(M), bulk.H.m)] += disorder_blocks(
            bulk.spec, bulk.H.m, bulk.H.module.n_sites, cfg.disorder_strength, seed,
            conserve=conserve)
        yield ({"kind": "disorder", "seed": int(seed), "strength": cfg.disorder_strength},
               ControlledOperator(bulk.H.module, M, bulk.H.declared_propagation,
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
    cfg = BECConfig.of(config)
    label = classify(bulk.spec)
    bulk_rep, edge_rep, plateau = _certify(bulk, part, cfg)
    reasons = _mismatch(bulk_rep, edge_rep)
    if not (plateau is None or plateau <= PLATEAU_TOL):
        reasons.append(f"plateau deviation {plateau:.4g} above plateau_tol "
                       f"{PLATEAU_TOL:.4g}")
    sweeps = []
    for keys, H in _perturbations(bulk, label, cfg):
        point = make_bulk(H.module, H, bulk.spec, fermi=bulk.gap.fermi)
        b, e, _ = _certify(point, part, cfg)
        why = _mismatch(b, e)
        sweeps.append({**keys, "bulk_raw": b.raw, "edge_raw": e.raw,
                       "bulk_snapped": b.snapped, "edge_snapped": e.snapped,
                       "pass": not why})
        where = (f"seed {keys['seed']}" if keys["kind"] == "disorder"
                 else f"radius {keys['radius']:g}")
        reasons.extend(f"{keys['kind']} {where}: {w}" for w in why)
    return BECReport(label=label, dim=bulk.H.module.pointset.dim, bulk=bulk_rep,
                     edge=edge_rep, passed=not reasons, plateau_deviation=plateau,
                     sweeps=tuple(sweeps), reasons=tuple(reasons))
