"""Delone point sets, penumbras, half-space partitions and point-group actions.

Everything here is a finite, windowed sample of an (in principle) infinite
point set in R^d, d <= 3.  A sample is a `PointSet`: integer ids 0..N-1,
coordinates, and the axis-aligned half-open box that was sampled.  Asymptotic
notions (relative density, traces per unit volume) become windowed estimates
taken against that box.

All generators are deterministic; anything random takes an explicit seed.
"""

from __future__ import annotations

import json
import numbers
import reprlib
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

GOLDEN = (1 + np.sqrt(5)) / 2
MATCH_TOL = 1e-9        # an isometry's image point matches a site this close

# Triangular lattice basis used by the honeycomb-derived generators.  Both
# sublattices of the honeycomb are carried as orbitals on a single triangular
# point set (the standard sublattice-merging shift), so the point set itself
# is triangular.
TRIANGULAR_BASIS = np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])


class GeometryError(ValueError):
    """Raised for degenerate or inconsistent geometric input."""


def refuse_unknown_keys(doc: dict, known: tuple, what: str, error: type):
    """Raise `error` naming the first key of the decoded `doc` not in `known`."""
    if extra := sorted(set(doc) - set(known)):
        raise error(f"unknown {what} key {extra[0]!r}; known: {', '.join(known)}")


@dataclass(frozen=True)
class PointSet:
    """Finite sample of a discrete subset of R^d.

    Parameters
    ----------
    dim : int
        Spatial dimension d (1, 2 or 3).
    coords : (N, d) float array
        Point coordinates; row index is the point id.
    window : (d, 2) float array
        Half-open sampled box [lo, hi) per axis; all points lie inside.
    density : float or None
        Asymptotic number of points per unit volume, when known analytically
        (lattice generators set it).  None means "estimate from windows".
    cut : Partition or None
        The cut whose plus side this set is (`plus_side`): its points are the
        cut's plus_ids, in order.  None for primary sets.
    """

    dim: int
    coords: np.ndarray
    window: np.ndarray
    density: float | None = None
    cut: Partition | None = None

    def __post_init__(self):
        coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        if coords.shape[1] != self.dim:
            raise GeometryError(f"coords have dimension {coords.shape[1]}, expected {self.dim}")
        window = np.asarray(self.window, dtype=float).reshape(self.dim, 2)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "window", window)
        inside = (coords >= window[:, 0]) & (coords < window[:, 1])
        if not inside.all():
            raise GeometryError("points outside the declared window")

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def tree(self) -> cKDTree:
        return cKDTree(self.coords)

    @property
    def diameter(self) -> float:
        """Length of the window's diagonal, a bound on any distance in the sample."""
        return float(np.linalg.norm(self.window[:, 1] - self.window[:, 0]))

    def boundary_distance(self, points=None) -> np.ndarray:
        """Distance of each point (default: the sample's own) to the window boundary."""
        x = self.coords if points is None else points
        return np.minimum((x - self.window[:, 0]).min(axis=1),
                          (self.window[:, 1] - x).min(axis=1))

    def plus_side(self, part: Partition) -> "PointSet":
        """The plus points of the cut `part`, reindexed densely; the window is kept."""
        return PointSet(self.dim, self.coords[part.plus_ids], self.window,
                        density=self.density, cut=part)

    def to_json(self) -> dict:
        doc = {
            "dim": self.dim,
            "window": self.window.tolist(),
            "points": [[int(i)] + list(map(float, c)) for i, c in enumerate(self.coords)],
        }
        if self.density is not None:
            doc["density"] = float(self.density)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "PointSet":
        # "kind" is `generate`'s key: the "points" generator passes its spec here
        refuse_unknown_keys(doc, ("dim", "window", "points", "density", "kind"), "point-set",
                            GeometryError)
        rows = doc["points"]
        if not isinstance(rows, list) or not all(isinstance(r, list) and r for r in rows):
            raise GeometryError(f"points {reprlib.repr(rows)} is not a list of rows [id, x, ...]")
        if bad := [row[0] for row in rows if type(row[0]) is not int]:
            raise GeometryError(f"point id {reprlib.repr(bad[0])} is not an integer")
        pts = sorted(rows, key=lambda row: row[0])
        ids = [row[0] for row in pts]
        if ids != list(range(len(ids))):
            raise GeometryError("point ids must be unique and dense in [0, N)")
        try:
            coords = np.array([row[1:] for row in pts], dtype=float)
        except (TypeError, ValueError):
            raise GeometryError("point coordinates are not rows of numbers") from None
        dim, density = doc["dim"], doc.get("density")
        if type(dim) is not int or not 1 <= dim <= 3:
            raise GeometryError(f"dim {dim!r} is not 1, 2 or 3")
        if density is not None and (type(density) not in (int, float)
                                    or not 0 < density < np.inf):
            raise GeometryError(f"density {density!r} is not null or a finite positive number")
        return cls(dim, coords, _window_array(doc["window"], dim), density=density)

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def loads(cls, text: str) -> "PointSet":
        return cls.from_json(json.loads(text))


@dataclass(frozen=True)
class DeloneCertificate:
    """Packing radius r, covering radius R and the uniform-discreteness verdict."""

    r: float
    R: float | None
    valid: bool
    notes: str = ""


@dataclass(frozen=True)
class Partition:
    """Half-space split of a point set with its interface collar.

    plus_ids and minus_ids partition the ids by the sign of <normal, x> - offset;
    interface_ids are the plus points within `thickness` of the cut plane.
    """

    plus_ids: np.ndarray
    minus_ids: np.ndarray
    interface_ids: np.ndarray
    normal: np.ndarray
    offset: float
    thickness: float

    def edge_direction(self) -> np.ndarray:
        """In-plane unit vector along the cut (d = 2 only): normal rotated by +90 deg."""
        if len(self.normal) != 2:
            raise GeometryError("edge_direction is defined for d = 2 cuts")
        n = self.normal / np.linalg.norm(self.normal)
        return np.array([-n[1], n[0]])

    def distance(self, coords) -> np.ndarray:
        """Signed distance <normal, x> - offset of each point from the cut
        plane, the distance `partition_halfspace` splits by."""
        return coords @ self.normal - self.offset

    def past_strip(self, coords) -> np.ndarray:
        """Signed distance of plus points past the interface strip, whose far
        edge lies at half the largest distance: negative inside the strip."""
        proj = self.distance(coords)
        return proj - 0.5 * proj.max()


@dataclass(frozen=True)
class GroupAction:
    """Finite group of isometries acting on a point set.

    elements[i] is a pair (Q, t): x -> Q x + t.  site_permutation[i, x] is the
    id of the image point of x under element i, or -1 when the image leaves
    the window (boundary truncation).  onsite_blocks[i] is the unitary acting
    on the orbital space, when the action is used on an operator module.
    """

    elements: tuple
    site_permutation: np.ndarray
    onsite_blocks: np.ndarray | None = None

    @property
    def order(self) -> int:
        return len(self.elements)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _window_array(window, dim) -> np.ndarray:
    try:
        w = np.asarray(window, dtype=float)
    except (TypeError, ValueError):
        raise GeometryError(f"window {window!r} is not an array of numbers") from None
    if w.shape != (dim, 2):
        raise GeometryError(f"window must be shape ({dim}, 2)")
    if not (w[:, 1] > w[:, 0]).all():
        raise GeometryError("window must have positive extent")
    if not np.isfinite(w).all():
        raise GeometryError(f"window {w.tolist()} is not finite")
    return w


def _lattice_points(basis: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Integer combinations of basis rows falling in the half-open window."""
    dim = basis.shape[0]
    corners = np.array(np.meshgrid(*window.tolist(), indexing="ij")).reshape(dim, -1).T
    # integer coefficient bounds from the corner preimages, padded by one cell
    pre = corners @ np.linalg.inv(basis)
    lo = np.floor(pre.min(axis=0)).astype(int) - 1
    hi = np.ceil(pre.max(axis=0)).astype(int) + 1
    grids = np.meshgrid(*[np.arange(l, h + 1) for l, h in zip(lo, hi)], indexing="ij")
    ints = np.stack([g.ravel() for g in grids], axis=1)
    pts = ints @ basis
    inside = ((pts >= window[:, 0]) & (pts < window[:, 1])).all(axis=1)
    return pts[inside]


def square_lattice(window, dim=2) -> PointSet:
    """Unit chain (d=1), square (d=2) or cubic (d=3) lattice filling the window."""
    w = _window_array(window, dim)
    pts = _lattice_points(np.eye(dim), w)
    return PointSet(dim, pts, w, density=1.0)


def triangular_lattice(window) -> PointSet:
    """Triangular lattice (merged-sublattice honeycomb) filling the window."""
    w = _window_array(window, 2)
    pts = _lattice_points(TRIANGULAR_BASIS, w)
    return PointSet(2, pts, w, density=2 / np.sqrt(3))


def perturbed_lattice(window, jitter: float, seed: int, dim=2) -> PointSet:
    """Square/cubic lattice with iid uniform jitter of max norm `jitter`.

    Rejected when jitter is negative or at least half the minimum clean
    spacing, since the uniform-discreteness bound 2r > 0 could then fail.
    """
    if isinstance(jitter, bool) or not isinstance(jitter, numbers.Real) or not jitter >= 0:
        raise GeometryError(f"jitter {jitter!r} is not a number at least 0")
    if jitter >= 0.5:
        raise GeometryError("jitter >= half the minimum spacing breaks uniform discreteness")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise GeometryError(f"seed {seed!r} is not an integer at least 0")
    if type(dim) is not int or not 1 <= dim <= 3:
        raise GeometryError(f"dim {dim!r} is not 1, 2 or 3")
    base = square_lattice(window, dim=dim)
    rng = np.random.default_rng(seed)
    disp = rng.uniform(-1, 1, size=base.coords.shape)
    norms = np.linalg.norm(disp, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = jitter * rng.uniform(0, 1, size=(base.n, 1)) ** (1 / dim)
    pts = base.coords + disp / norms * radii
    w = base.window
    pts = np.clip(pts, w[:, 0], np.nextafter(w[:, 1], -np.inf))
    return PointSet(dim, pts, w, density=1.0)


def fibonacci_chain(window) -> PointSet:
    """Fibonacci cut-and-project chain.

    Z^2 points are split into physical and perpendicular coordinates along
    (phi, 1)/sqrt(phi^2+1); a point is kept when its perpendicular coordinate
    falls in the half-open acceptance interval of width equal to the projected
    unit cell.  Spacings take the two values 1 and phi (up to global scale).
    """
    w = _window_array(window, 1)
    lo, hi = w[0]
    norm = np.sqrt(GOLDEN ** 2 + 1)
    upar = np.array([GOLDEN, 1.0]) / norm
    uperp = np.array([-1.0, GOLDEN]) / norm
    width = (1 + GOLDEN) / norm          # projection of the unit square onto E_perp
    # bounded search box in Z^2: |perp| < width and lo <= par < hi
    bound = int(np.ceil(max(abs(lo), abs(hi)) + width + 2))
    a = np.arange(-bound, bound + 1)
    A, B = np.meshgrid(a, a, indexing="ij")
    par = A * upar[0] + B * upar[1]
    perp = A * uperp[0] + B * uperp[1]
    keep = (perp >= 0) & (perp < width) & (par >= lo) & (par < hi)
    xs = np.sort(par[keep])
    pts = xs.reshape(-1, 1)
    return PointSet(1, pts, w, density=len(xs) / (hi - lo) if len(xs) else None)


def ammann_beenker(window) -> PointSet:
    """Ammann-Beenker eightfold cut-and-project tiling vertices.

    Z^4 is projected to the physical plane by the 8th roots of unity and to
    the perpendicular plane by their third powers; the acceptance domain is
    the regular octagon obtained by projecting the unit 4-cube.
    """
    w = _window_array(window, 2)
    ang = np.arange(4) * np.pi / 4
    proj_par = np.stack([np.cos(ang), np.sin(ang)], axis=0)       # (2, 4)
    proj_perp = np.stack([np.cos(3 * ang), np.sin(3 * ang)], axis=0)
    # acceptance octagon: half-plane description from the projected 4-cube
    verts = np.array(np.meshgrid(*[[0, 1]] * 4, indexing="ij")).reshape(4, -1).T
    vperp = verts @ proj_perp.T
    centre = vperp.mean(axis=0)
    normals = np.stack([np.cos(np.arange(8) * np.pi / 4 + np.pi / 8),
                        np.sin(np.arange(8) * np.pi / 4 + np.pi / 8)], axis=1)
    limits = (vperp - centre) @ normals.T
    hmax = limits.max(axis=0)
    extent = float(np.abs(w).max()) + 3
    bound = int(np.ceil(extent))
    rng = np.arange(-bound, bound + 1)
    grids = np.meshgrid(rng, rng, rng, rng, indexing="ij")
    ints = np.stack([g.ravel() for g in grids], axis=1)
    par = ints @ proj_par.T
    box = ((par >= w[:, 0] - 0.01) & (par < w[:, 1] + 0.01)).all(axis=1)
    ints = ints[box]
    par = par[box]
    perp = ints @ proj_perp.T - centre
    inside = ((perp @ normals.T) < hmax - 1e-12).all(axis=1)
    pts = par[inside]
    keep = ((pts >= w[:, 0]) & (pts < w[:, 1])).all(axis=1)
    pts = pts[keep]
    order = np.lexsort(pts.T)
    return PointSet(2, pts[order], w)


# kind -> (builder, required keys, optional keys); every descriptor has "kind"
_GENERATORS = {
    "chain": (lambda spec: square_lattice(spec["window"], dim=1), ("window",), ()),
    "square": (lambda spec: square_lattice(spec["window"], dim=2), ("window",), ()),
    "cubic": (lambda spec: square_lattice(spec["window"], dim=3), ("window",), ()),
    "honeycomb": (lambda spec: triangular_lattice(spec["window"]), ("window",), ()),
    "perturbed": (lambda spec: perturbed_lattice(
        spec["window"], spec["jitter"], spec.get("seed", 0), dim=spec.get("dim", 2)),
        ("window", "jitter"), ("seed", "dim")),
    "fibonacci": (lambda spec: fibonacci_chain(spec["window"]), ("window",), ()),
    "ammann_beenker": (lambda spec: ammann_beenker(spec["window"]), ("window",), ()),
    "points": (PointSet.from_json, ("dim", "window", "points"), ("density",)),
}


def generate(spec: dict) -> PointSet:
    """Build a point set from a generator descriptor.

    `spec["kind"]` selects the generator: square / cubic lattice, merged
    honeycomb, perturbed lattice (jitter < half minimum spacing), Fibonacci or
    Ammann-Beenker cut-and-project, or an explicit point list.  A key the
    generator does not declare, or a missing required one, is refused.
    Deterministic given `spec["seed"]`.
    """
    kind = spec.get("kind")
    if kind not in _GENERATORS:
        raise GeometryError(f"unknown generator kind {kind!r}; "
                            f"known: {sorted(k for k in _GENERATORS)}")
    build, required, optional = _GENERATORS[kind]
    refuse_unknown_keys(spec, ("kind", *required, *optional), "point-set", GeometryError)
    if missing := [k for k in required if k not in spec]:
        raise GeometryError(f"{kind} generator needs the key {missing[0]!r}")
    return build(spec)


# ---------------------------------------------------------------------------
# certification and partitions
# ---------------------------------------------------------------------------

def min_spacing(ps: PointSet) -> float:
    """Minimum pairwise distance (0 for coincident points)."""
    if ps.n < 2:
        return np.inf
    d, _ = ps.tree().query(ps.coords, k=2)
    return float(d[:, 1].min())


def certify_delone(ps: PointSet) -> DeloneCertificate:
    """Estimate packing radius r and covering radius R of a windowed sample.

    r is half the minimum pairwise distance.  R is estimated on a grid of
    pitch r/4: a grid point g counts only while its distance to the nearest
    sample point does not exceed its distance to the window boundary, which
    is exactly the windowed reading of relative density.
    """
    if ps.n == 0:
        raise GeometryError("empty point set")
    if ps.n == 1:
        return DeloneCertificate(r=np.inf, R=None, valid=True,
                                 notes="single point: covering radius undefined")
    r = 0.5 * min_spacing(ps)
    if r <= 0:
        return DeloneCertificate(r=0.0, R=None, valid=False, notes="coincident points")
    axes = [np.arange(lo, hi, r / 4) for lo, hi in ps.window]
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    d_site, _ = ps.tree().query(grid)
    interior = ps.boundary_distance(grid) >= d_site
    R = float(d_site[interior].max()) if interior.any() else None
    return DeloneCertificate(r=float(r), R=R, valid=True)


def penumbra(ps: PointSet, subset, R: float) -> np.ndarray:
    """Ids strictly closer than R to the given id subset (empty for R = 0)."""
    if R < 0:
        raise GeometryError("penumbra radius must be >= 0")
    subset = np.asarray(list(subset), dtype=int)
    if subset.size == 0 or R == 0:
        return np.array([], dtype=int)
    tree = cKDTree(ps.coords[subset])
    d, _ = tree.query(ps.coords)
    return np.where(d < R)[0]


def partition_halfspace(ps: PointSet, normal, offset: float,
                        thickness: float | None = None) -> Partition:
    """Split by the half-space <normal, x> - offset >= 0.

    The interface is the set of plus points within `thickness` of the cut
    plane (default: twice the packing diameter, which keeps the interface a
    relatively dense sample of the cut at the window scale).  A normal of the
    wrong length, a non-finite normal, offset or thickness and degenerate
    geometry - an empty side or interface - raise.
    """
    normal = np.asarray(normal, dtype=float)
    if normal.shape != (ps.dim,):
        raise GeometryError(f"cut normal has shape {normal.shape}, not ({ps.dim},)")
    if not np.isfinite(normal).all():
        raise GeometryError(f"cut normal {normal.tolist()} is not finite")
    nn = np.linalg.norm(normal)
    if nn == 0:
        raise GeometryError("cut normal must be nonzero")
    if not np.isfinite(offset):
        raise GeometryError(f"cut offset {offset} is not a finite number")
    if thickness is None:
        thickness = 4 * 0.5 * min_spacing(ps)   # 2 x packing diameter
    elif not np.isfinite(thickness):
        raise GeometryError(f"interface thickness {thickness} is not a finite number")
    if thickness <= 0:
        raise GeometryError("interface thickness must be positive")
    normal, offset = normal / nn, offset / nn
    proj = ps.coords @ normal - offset
    plus = np.where(proj >= 0)[0]
    minus = np.where(proj < 0)[0]
    interface = plus[proj[plus] < thickness]
    if plus.size == 0 or minus.size == 0 or interface.size == 0:
        raise GeometryError("degenerate edge geometry: cut does not split the window")
    return Partition(plus, minus, interface, normal, offset, float(thickness))


# ---------------------------------------------------------------------------
# point-group actions
# ---------------------------------------------------------------------------

def action_from_isometries(ps: PointSet, elements, onsite_blocks=None) -> GroupAction:
    """Match each isometry x -> Qx + t against the sample.

    Image points are matched by coordinates within MATCH_TOL; images leaving
    the window are recorded as -1 (boundary truncation).
    """
    tree = ps.tree()
    perms = []
    for Q, t in elements:
        img = ps.coords @ np.asarray(Q, dtype=float).T + np.asarray(t, dtype=float)
        d, idx = tree.query(img)
        perm = np.where(d <= MATCH_TOL, idx, -1)
        perms.append(perm)
    blocks = None if onsite_blocks is None else np.asarray(onsite_blocks, dtype=complex)
    return GroupAction(elements=tuple((np.asarray(Q, float), np.asarray(t, float))
                                      for Q, t in elements),
                       site_permutation=np.array(perms, dtype=int),
                       onsite_blocks=blocks)


def cyclic_rotation_action(ps: PointSet, k: int, center=None,
                           onsite_blocks=None) -> GroupAction:
    """C_k rotation action about `center` (window midpoint by default), d = 2."""
    if ps.dim != 2:
        raise GeometryError("rotation actions implemented for d = 2")
    c = ps.window.mean(axis=1) if center is None else np.asarray(center, dtype=float)
    els = []
    for j in range(k):
        a = 2 * np.pi * j / k
        Q = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        els.append((Q, c - Q @ c))
    return action_from_isometries(ps, els, onsite_blocks=onsite_blocks)
