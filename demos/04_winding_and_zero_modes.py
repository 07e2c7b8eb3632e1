#!/usr/bin/env python3
"""Chiral chains: winding numbers, half-line kernels and their agreement.

Sweeps the dimerized chain through its transition, comparing the real-space
winding of sgn(H)'s chiral block, the polar factor of H's own chiral block,
with the momentum winding, and counts
the chirality-weighted zero modes of the half-line compression - the two
sides of the one-dimensional correspondence.  Both read the chiral unitary
through one check, and both take the bulk gap certificate: the count
refuses any level inside that gap which is split out of the kernel.
"""
import numpy as np

import roelab as rl
from roelab import bloch

SZ = np.diag([1, -1]).astype(complex)
ps = rl.generate({"kind": "chain", "window": [[0, 240]]})
part = rl.partition_halfspace(ps, [1.0], 119.6)

print("t2/t1   winding(real)  winding(momentum)  half-line count")
for t2 in (0.4, 0.8, 1.2, 1.6):
    _, H, spec = rl.build_model("ssh", {"t1": 1.0, "t2": t2}, ps)
    cert = rl.certify_gap(H)
    w_real = rl.chern_odd(H, cert, spec, [60, 80, 100])
    w_mom = bloch.winding_1d(bloch.bloch_hamiltonian("ssh", {"t1": 1.0, "t2": t2}), SZ)
    fred = rl.edge_fredholm(rl.compress(H, part), spec, cert)
    print(f"{t2:4.1f}    {w_real.raw:+12.6f}  {w_mom:+17.3f}  {fred.raw:+12.4f}")

# The spectrum of the compressed chain: zero modes appear with the phase.
print("\nlowest |E| of the half-line compression:")
for t2 in (0.5, 1.5):
    _, H, spec = rl.build_model("ssh", {"t1": 1.0, "t2": t2}, ps)
    Hh = rl.compress(H, part)
    w, _ = Hh.eigh()
    print(f"  t2 = {t2}: {np.round(np.sort(np.abs(w))[:4], 8)}")

# The pairing chain tells the same story mod 2 through its C unitary.
print("\npairing chain (mod-2 winding via the real-structure refinement):")
for mu in (1.0, 3.0):
    _, H, spec = rl.build_model("kitaev", {"mu": mu}, ps)
    bulk = rl.make_bulk(H.module, H, spec)
    rep = rl.verify_bec(bulk, part, {"windows": (60, 80, 100)})
    print(f"  mu = {mu}: bulk Z2 = {rep.bulk.snapped}, edge Z2 = {rep.edge.snapped}, "
          f"pass = {rep.passed}")
