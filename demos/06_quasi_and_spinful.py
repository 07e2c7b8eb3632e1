#!/usr/bin/env python3
"""Beyond clean square lattices: flux, honeycombs, spin and jitter.

Runs the uniform-flux model at flux 1/4 with the Fermi level in its lowest
gap, the spin-conserving quantum spin Hall model through its transition, and
a Chern sample on a jittered point set - cases where no Brillouin zone is
available or the invariant is mod 2.
"""
import numpy as np

import roelab as rl
from roelab import bloch

# Uniform flux 1/4: pick the Fermi level inside the lowest magnetic gap.
hmag = bloch.harper_bloch(1, 4)
evs = np.array([np.linalg.eigvalsh(hmag((k1, k2)))
                for k1 in np.linspace(0, 2 * np.pi, 24, endpoint=False)
                for k2 in np.linspace(0, 2 * np.pi, 24, endpoint=False)])
fermi = 0.5 * (evs[:, 0].max() + evs[:, 1].min())
print(f"flux-1/4 lowest gap: ({evs[:, 0].max():.3f}, {evs[:, 1].min():.3f}), "
      f"fermi -> {fermi:.4f}")

# a tall sample: the long edge keeps enough levels in the narrow intervals
ps = rl.generate({"kind": "square", "window": [[0, 24], [0, 52]]})
mod, H, spec = rl.build_model("harper", {"flux": 0.25, "fermi": fermi}, ps)
bulk = rl.make_bulk(mod, H, spec)
part = rl.partition_halfspace(ps, [1.0, 0.0], 11.6)
rep = rl.verify_bec(bulk, part, {"windows": (6, 8, 10), "edge_windows": (8, 12, 16)})
print(f"flux model: bulk {rep.bulk.raw:+.4f} -> {rep.bulk.snapped}, "
      f"edge {rep.edge.raw:+.4f} -> {rep.edge.snapped}, pass {rep.passed}")

# Quantum spin Hall: the mod-2 index flips when the staggered potential
# crosses 3 sqrt(3) lambda_so.
hc = rl.generate({"kind": "honeycomb", "window": [[0, 22], [0, 22]]})
for lv in (0.1, 0.4):
    mod, H, spec = rl.build_model("kane_mele", {"lso": 0.06, "lv": lv}, hc)
    rep = rl.bulk_index(rl.make_bulk(mod, H, spec), {"windows": (5, 7, 9)})
    ref = bloch.kane_mele_z2_reference(1.0, 0.06, lv)
    print(f"spin Hall lv={lv}: spin pairing {rep.raw:+.4f} -> Z2:{rep.snapped} "
          f"(reference {ref})")

# No lattice needed: the same pairing on a jittered sample, read off the
# eigenvectors below the certified Fermi level.
jps = rl.generate({"kind": "perturbed", "window": [[0, 24], [0, 24]],
                   "jitter": 0.15, "seed": 3})
mod, H, spec = rl.build_model("qwz", {"m": 1.0}, jps)
cert = rl.certify_gap(H)
rep = rl.chern_even(H, cert, [5, 7, 9])
print(f"jittered sample: gap eps {cert.epsilon:.3f}, "
      f"pairing {rep.raw:+.4f} -> {rep.snapped}")
