"""Finite-dimensional modular theory with verified channel symmetries.

The package builds the full modular package (cyclic vector, conjugation,
positive modular operator with complex powers, flow) for faithful states on
direct sums of matrix blocks, carries channels between such algebras as
superoperators, checks membership in the class of unital completely positive
state- and flow-compatible maps, and verifies quantitatively that the induced
GNS-space contraction intertwines modular powers and conjugations on both
generated and user-supplied instances.
"""

from .algebra import (
    AlgebraElement,
    BlockAlgebra,
    FaithfulState,
    evaluate_state,
    matrix_units,
    random_element,
    to_coords,
)
from .errors import ModmarkError
from .gns import ModularData
from .generators import (
    GenSpec,
    build_channel,
    modular_twirl,
    random_faithful_state,
    schur_channel,
    sp_ucp,
    state_to_scalar,
)
from .linalg import base_tolerance, herm_eig, matrix_power, op_norm
from .markov import (
    Channel,
    System,
    ac_adjoint,
    channel_from_kraus,
    check_markov,
    compose,
    convex_combine,
    identity_channel,
    l2_extension,
    petz_adjoint,
    tensor,
    to_choi,
    trace_dual,
)
from .verify import (
    SuiteConfig,
    VerificationReport,
    modular_invariants,
    run_suite,
    verify_adjoint,
    verify_channel,
    verify_commute,
    verify_crucial,
    verify_modular_symmetry,
)

__version__ = "0.1.0"
