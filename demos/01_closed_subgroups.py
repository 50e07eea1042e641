"""Closed subgroups of R^n and their canonical form.

Every closed subgroup splits into a linear subspace plus a lattice in
the orthogonal complement.  The constructor canonicalizes arbitrary
generator lists into that shape.
"""
import math

import numpy as np

import chabauty as ch

# a diagonal line plus a horizontal step: the step is projected onto
# the orthogonal complement of the line and reduced
s2 = 1 / math.sqrt(2)
g = ch.make_subgroup(2, continuous_gens=[(s2, s2)],
                     discrete_gens=[(1.0, 0.0)])
print("type:", tuple(ch.type_of(g)), "rank:", g.rank)
print("continuous part:\n", g.continuous_basis)
print("reduced discrete part:\n", g.discrete_basis)

# the canonical decomposition is stored, not recomputed
subspace, lattice = g.continuous_basis, g.discrete_basis
print("decomposition pieces:", subspace.shape, lattice.shape)

# exact lattice enumeration inside a ball
stretched = ch.make_subgroup(2, None, [(1.0, 0.0), (0.0, 3.0)])
print("points of Z(1,0)+Z(0,3) with norm <= 2:")
print(ch.points_in_ball(stretched, 2.0))

# distances are exact closest-vector computations
print("dist((0.4, 0.3), that lattice) =",
      ch.distance_to_subgroup((0.4, 0.3), stretched))

# the type is a linear invariant
mat = np.array([[2.0, 1.0], [0.5, 1.5]])
print("type after an invertible map:",
      tuple(ch.type_of(ch.apply_linear(mat, g))))

# scaling conventions at the degenerate ends
z3 = ch.standard_subgroup(3, 0, 3)
print("infinity * Z^3 ->", ch.scale(z3, math.inf))
print("0 * Z^3        ->", ch.scale(z3, 0.0))

# reproducible random subgroups of any type
sample = ch.random_subgroup(4, (1, 2), seed=42)
print("random (1,2) subgroup of R^4:", sample)
print("its basis norms:",
      np.linalg.norm(sample.discrete_basis, axis=1).round(3))
