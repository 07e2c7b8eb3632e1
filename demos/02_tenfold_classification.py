#!/usr/bin/env python3
"""The symbolic layer: symmetry classes and their classifying groups.

Prints the full tenfold table, then refines a few classes by rotation and
reflection point groups, and shows how character tables enter through
Frobenius-Schur indicators.
"""
import numpy as np

import roelab as rl
from roelab.symmetry import CharacterTable, kgroup_finite_group

print("label | d=0   d=1   d=2   d=3")
for label in rl.CARTAN_LABELS:
    row = [f"{str(rl.kgroup_point(label, d)):>4}" for d in range(4)]
    print(f"{label:>5} | " + "  ".join(row))

# Which concrete data picks each row: presence and squares of T, C, P.
examples = [
    ("spinless, nothing conserved", rl.SymmetrySpec()),
    ("spin-orbit + time reversal (T^2 = -1)",
     rl.SymmetrySpec(has_T=True, T_sq=-1)),
    ("superconductor, C^2 = +1", rl.SymmetrySpec(has_C=True, C_sq=1)),
    ("chiral chain", rl.SymmetrySpec(has_P=True)),
]
for name, spec in examples:
    print(f"{name:45s} -> {rl.classify(spec)}")

# Rotation refinement: a k-fold rotation splits the classifying group through
# the real/complex structure of the cyclic characters.
for k in (2, 3, 4, 6):
    print(f"plane Chern class with C_{k} rotations:",
          rl.kgroup_rotation("A", 2, k))
for k in (2, 3):
    print(f"quantum spin Hall class with C_{k} rotations:",
          rl.kgroup_rotation("AII", 2, k))

# The same split from the raw character table (dual route).
ct = CharacterTable.cyclic(4)
print("C_4 Frobenius-Schur split (n+1, n0, n-1):", rl.frobenius_schur_split(ct))
print("via character table:", kgroup_finite_group("AII", 2, ct))

# Reflection refinement: the four sign cases (BDI has P = CT, so CR = PR TR).
for pr, tr in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
    print(f"BDI d=2 reflection PR{pr:+d} TR{tr:+d} (CR{pr * tr:+d}):",
          rl.kgroup_reflection("BDI", 2, pr, tr))
