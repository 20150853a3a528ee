"""Tetrahedron and n-simplex operator families, the Toffoli gate families
they contain, and numerical verification of the simplex equations."""

from .gates import CCNOT, CCZ, CNOT, CZ, SWAP, local_conjugate, n_toffoli
from .operators import (
    FOUR_SIMPLEX_VARIANTS,
    CouplingConstants,
    SiteOperatorFamily,
    conjugated_site_operator,
    constant_alpha,
    constant_alpha_beta,
    constant_ccz,
    constant_linear,
    cz_yangbaxter,
    general_toffoli,
    generic_tetrahedron,
    n_simplex_constant,
    n_simplex_su2_toffoli,
    su2_4simplex,
    su2_tetrahedron,
    toffoli_family,
    twisted_permutation,
)
from .su2 import (
    AxisAngle,
    DegenerateEigenvaluesError,
    fixed_gate,
    projector_pm,
    random_axis_angle,
    rotated_x,
    rotation,
)
from .tensor import (
    apply,
    apply_product,
    arity_of,
    embed,
    frobenius_distance,
    identity,
    kron,
    random_operator,
    random_state,
    random_unitary,
    save_operator,
)
from .verify import (
    CHECKS,
    Equation,
    campaign,
    index_scheme,
    reversal_residual,
    simplex_equation,
)

__version__ = "0.1.0"
