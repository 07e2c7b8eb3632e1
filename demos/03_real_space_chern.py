#!/usr/bin/env python3
"""Real-space Chern number of a two-band model, against its momentum twin.

The windowed pairing 2 pi i T(P [grad_1 P, grad_2 P]) needs no Brillouin
zone, so it survives disorder and aperiodicity; on a clean sample it must
reproduce the plaquette invariant of the Bloch symbol.  `chern_even` reads
it off the occupied eigenvectors V (P = V V^*) of the solve; the local
marker map written at the end forms the same integrand from the full n x n
products of P and shows the quantized plateau and its boundary breakdown.
"""
import csv

import numpy as np

import roelab as rl
from roelab import bloch
from roelab.operators import derivation

ps = rl.generate({"kind": "square", "window": [[0, 26], [0, 26]]})

print("mass  windowed-pairing  snapped  plaquette-ref")
for m in (-3.0, -1.0, 1.0, 3.0):
    _, H, _ = rl.build_model("qwz", {"m": m}, ps)
    cert = rl.certify_gap(H)
    rep = rl.chern_even(H, cert, [6, 8, 10])
    ref = bloch.fhs_chern(bloch.bloch_hamiltonian("qwz", {"m": m}), 1, nk=24)
    print(f"{m:+.1f}  {rep.raw:+16.6f}  {str(rep.snapped):>7}  {ref:+13.3f}")

# Disorder does not move the snapped value while the gap stays open.
print("\ndisorder sweep at half the gap (m = 1):")
for seed in range(5):
    _, H, _ = rl.build_model("qwz", {"m": 1.0}, ps, disorder=0.5, seed=seed)
    cert = rl.certify_gap(H)
    rep = rl.chern_even(H, cert, [6, 8, 10])
    print(f"  seed {seed}: raw {rep.raw:+.5f} -> {rep.snapped}")

# Local marker map: the integrand of the pairing, site by site, from P itself.
_, H, _ = rl.build_model("qwz", {"m": 1.0}, ps)
P = rl.occupied_projection(H, rl.certify_gap(H))
A = P.matrix @ (derivation(P, 0).matrix @ derivation(P, 1).matrix
                - derivation(P, 1).matrix @ derivation(P, 0).matrix)
marker = np.real(2j * np.pi * np.diag(A).reshape(-1, 2).sum(axis=1))
with open("chern_marker.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["x", "y", "marker"])
    for (x, y), v in zip(ps.coords, marker):
        w.writerow([x, y, v])
print("\nwrote chern_marker.csv; interior mean =",
      round(marker[rl.indices.window_mask(ps, 8)].mean(), 5))
