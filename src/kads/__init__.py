"""Exact and numeric verification toolkit for the curvature deformation of
the flat noncommutative spacetime: Lie bialgebra layer, r-matrix
classification, group-level Poisson brackets, and the quadratic quantum
algebras with their Casimir certificates."""

from .scalars import Frac, Scalar, rat, reduce_mod, make_rule, sym
from .liealg import (BASIS, IDX, LieAlgebra, ads_algebra, jacobi_residual,
                     rotate_basis, subalgebra)
from .bialgebra import (Bivector, Trivector, cocommutator, coisotropy_check,
                        dual_jacobi_residual, mcybe_residual, schouten)
from .rclass import (canonicalize, constraint_residuals, family_r,
                     generic_ansatz, impose_primitivity, r_2plus1, r_kads,
                     r_kads_twisted, r_poincare, r_poincare_twisted, sphere_param)
from .curvtrig import Dual, eta_of
from .group_geom import (GroupPoint, ambient_from_local, group_element,
                         local_from_ambient, metric_at)
from .sklyanin import (closed_form_ambient, closed_form_local, closed_form_twisted,
                       verify_table)
from .ncalg import NCAlgebra, NCPoly, SingularSpecialization, builtin_algebras

__version__ = "0.1.0"
