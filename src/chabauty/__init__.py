"""Computational kernel for closed subgroups of R^n: canonical forms,
invariants, duality, a computable metric for the topology of uniform
closeness on compact sets, scale decompositions with reconstruction,
strata bookkeeping, and the explicit structure of the plane case."""

from .errors import (BasePointNotAligned, ChabautyError, DimensionMismatch,
                     EnumerationBudgetExceeded, FlagsTooFar, InconsistentData,
                     InvalidPair, InvalidStratum, InvalidType,
                     NonClosedInput, NonFiniteInput, NotDecomposable,
                     NotInC1, NotInNeighborhood, NotLattice, NotUnitSystole,
                     OutOfRange, SingularBasePoint, SingularMatrix,
                     Unstable, WrongAmbientDim)
from .subgroup import (ClosedSubgroup, GroupType, RandomSubgroupParams,
                       Tolerance, apply_linear, distance_to_subgroup,
                       make_subgroup, nearest_point, points_in_ball,
                       random_subgroup, scale, standard_subgroup, type_of)
from .invariants import (INDETERMINATE, covolume, delta_type,
                         discrete_covolume, norms, systole)
from .duality import dual
from .metric import (LimitReport, MetricParams, chabauty_distance,
                     classify_limit, degeneration_family, hausdorff_gap,
                     neighborhood_test, subgroups_equal)
from .local import (LinearDecomposition, LocalDecomposition, Membership,
                    Trivialisation, all_types, bundle_projection,
                    cone_map, fiber_dimension, flag_gap, hasse_diagram,
                    in_scale_neighborhood, linear_decomposition,
                    local_decomposition, on_link, reconstruct,
                    standard_flag, stratum_dimension, trivialisation,
                    type_leq)
from .plane import (INFINITY_POINT, ReducedForm, atlas_rows, base_point,
                    cross_section, cross_section_phase, normalize_covolume,
                    reduce_lattice, stabilizer_order, suspension_map)
from .serialize import (dumps, load_subgroup, subgroup_from_dict,
                        subgroup_to_dict)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
