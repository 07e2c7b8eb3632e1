"""roelab: real-space topological indices on windowed Delone point sets.

The lab builds finite-propagation gapped Hamiltonians on point-set samples,
classifies their symmetry type symbolically (tenfold way, point-group
refinements), computes bulk invariants by trace-per-unit-volume cocycle
formulas and edge invariants on half-space compressions, and certifies that
the two sides agree.
"""

from .geometry import (DeloneCertificate, GroupAction, Partition, PointSet,
                       certify_delone, cyclic_rotation_action, generate,
                       partition_halfspace, penumbra)
from .operators import (ControlledOperator, GapCertificate, SiteModule,
                        certify_gap, compress, derivation, derivation_along,
                        direct_sum, flatten, grading_operator, identity,
                        onsite, propagation, restrict_orbitals, truncate)
from .symmetry import (CARTAN_LABELS, CharacterTable, KGroupDescriptor,
                       SymmetrySpec, classify, frobenius_schur_split,
                       group_violation, kgroup_finite_group, kgroup_point,
                       kgroup_reflection, kgroup_rotation, verify_symmetry)
from .models import AUX_CHIRAL, MODELS, build_model, default_pointset, stencil
from .indices import (IndexReport, TraceEstimate, chern_even, chern_odd,
                      edge_conductance, edge_fredholm, occupied_projection,
                      trace_per_unit_volume)
from .bulkedge import (BECConfig, BECReport, BulkSystem, bulk_index, edge_index,
                       make_bulk, make_edge, mv_boundary, verify_bec)

__version__ = "0.1.0"
