"""2D Stokes / Biot coupled flow solver with Lagrange-multiplier interface coupling.

The package is organised bottom-up:

- ``mesh``        triangulations, tagging, fracture geometry, mesh file output
- ``quadrature``  triangle and edge rules
- ``elements``    reference element families (Lagrange, MINI), Raviart-Thomas monomials
- ``spaces``      finite element spaces, DOF maps, Raviart-Thomas bases, projections
- ``interface``   common refinement of non-matching interface traces
- ``assembly``    bilinear forms and load functionals as sparse blocks
- ``solver``      monolithic DAE system, constrained solves, backward Euler, sparse LU
- ``manufactured``closed-form verification solution and source derivation
- ``verify``      error norms, convergence studies, inf-sup and energy checks
- ``scenarios``   fractured-reservoir runs and parameter sweeps
- ``vtkio``       legacy VTK and CSV emitters
- ``cli``         command line front end
"""

from .mesh import Mesh2D, DomainMap, build_structured, build_fracture_domain, apply_domain_map
from .quadrature import triangle_rule, edge_rule
from .spaces import FESpace, l2_project, nodal_interpolate
from .interface import common_refinement
from .assembly import PhysicalParams

__all__ = [
    "Mesh2D",
    "DomainMap",
    "build_structured",
    "build_fracture_domain",
    "apply_domain_map",
    "triangle_rule",
    "edge_rule",
    "FESpace",
    "l2_project",
    "nodal_interpolate",
    "common_refinement",
    "PhysicalParams",
]

__version__ = "0.1.0"
