"""Walk through the geometry and the discrete spaces.

The computational domain is the unit square split at y = 1/2: free flow
above, porous flow below, coupled across the midline.  This script builds
the structured triangulation, inspects its halves and interface, and assembles the three
element pairings used throughout.
"""

import numpy as np

from stokesdarcy import build_unit_square, refine_uniform
from stokesdarcy.fespace import (REGION_D, REGION_S, FluxSpace, Space,
                                 TraceSpace, VectorSpace)

# ---------------------------------------------------------------------
# a coarse mesh and its entities
mesh = build_unit_square(8)
print("vertices:", mesh.num_vertices)
print("triangles:", mesh.num_triangles,
      "(%d free-flow / %d porous)" % (np.sum(mesh.tri_region == 0),
                                      np.sum(mesh.tri_region == 1)))
print("interface edges:", len(mesh.sigma_edges))

# interface edges left to right; their normal (0, -1) points into the
# porous half
sig = mesh.interface_edges()
print("interface length:", sig.length.sum(), "from x =",
      mesh.vertices[sig.left[0], 0], "to x =", mesh.vertices[sig.right[-1], 0])

# red refinement quarters every triangle and keeps the split at y = 1/2
fine = refine_uniform(mesh)
print("after refinement:", fine.num_triangles, "triangles, h =", fine.h)

# ---------------------------------------------------------------------
# the three velocity/pressure/flux pairings
mini = VectorSpace(Space(mesh, "p1b", REGION_S))
th = VectorSpace(Space(mesh, "p2", REGION_S))
p1 = Space(mesh, "p1", REGION_S)
bdm = FluxSpace(mesh, "bdm1")
rt = FluxSpace(mesh, "rt1")
p0 = Space(mesh, "p0dc", REGION_D)
p1dc = Space(mesh, "p1dc", REGION_D)

print("\nspace dimensions on the n=8 mesh")
print("  bubble-enriched velocity:", mini.ndof)
print("  quadratic velocity:      ", th.ndof)
print("  linear pressure:         ", p1.ndof)
print("  bdm1 flux / p0 pressure: ", bdm.ndof, "/", p0.ndof)
print("  rt1 flux / p1dc pressure:", rt.ndof, "/", p1dc.ndof)
print("raw totals match the reported DOF column: "
      "%d (mini-bdm1), %d (taylorhood-rt1)"
      % (mini.ndof + p1.ndof + bdm.ndof + p0.ndof,
         th.ndof + p1.ndof + rt.ndof + p1dc.ndof))

# ---------------------------------------------------------------------
# the interface trace space: discontinuous linears per interface edge
tr = TraceSpace(mesh)
print("\ntrace space dimension:", tr.ndim, "(two values per edge)")

# the flux DOFs on the interface (on the boundary, off Gamma) are the two
# moments of each interface edge
sigma_dofs = 2 * bdm.edge_index[mesh.sigma_edges][:, None] + [0, 1]
assert np.array_equal(np.flatnonzero(bdm.on_boundary & ~bdm.on_gamma),
                      np.sort(sigma_dofs.ravel()))
print("all interface edges classified correctly")
