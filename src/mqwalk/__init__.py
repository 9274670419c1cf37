"""Magnetic quantum walks on the subset hypercube.

Builds the walk's position space from subset-indexed basis vectors and
bit-flip ladder operators, attaches direction phases from a magnetic
potential to form commuting shift involutions, combines them with a coin
operator system into the unitary evolution operator, simulates the
discrete-time dynamics, and verifies numerically that the spectrum equals
the union of the per-vertex signed coin-sum spectra and does not depend on
the potential.
"""

from .coin import (
    CoinSystem,
    CoinValidationReport,
    algebraic_sum,
    coin_from_unitary_partition,
    coin_sum,
    grover_coin_system,
    hadamard_partition_coin_system,
    random_coin_system,
    validate_coin_system,
)
from .fock import (
    CarReport,
    FockSpace,
    annihilation_operator,
    basis_state,
    creation_operator,
    dimension,
    is_adjacent,
    membership_signs,
    subset_size,
    verify_car,
)
from .magnetic import (
    FullPotentialTable,
    MagneticPotential,
    magnetic_basis_change,
    magnetic_basis_vector,
    magnetic_shift,
    null_potential,
    random_potential,
    reduce_potential,
    shift_product_action,
    xi_hat,
)
from .spectra import (
    ApproximateSpectrumCheck,
    EigensolverError,
    PointSpectrumCheck,
    SpectralStabilityReport,
    SpectrumReport,
    coin_sum_eigensystem,
    coin_union_spectrum,
    hausdorff_distance,
    unitary_eigenvalues,
    verify_approximate_spectrum_theorem,
    verify_point_spectrum_theorem,
    verify_spectral_stability,
    walk_point_spectrum,
)
from .walk import (
    CapacityError,
    IntertwiningReport,
    WalkOperator,
    WalkState,
    evolution_operator,
    evolve,
    intertwining_check,
    magnetic_eigenstate,
    position_distribution,
    step,
    uniform_coin_vertex_state,
    vertex_state,
)

__version__ = "0.1.0"

__all__ = [
    "CoinSystem",
    "CoinValidationReport",
    "algebraic_sum",
    "coin_from_unitary_partition",
    "coin_sum",
    "grover_coin_system",
    "hadamard_partition_coin_system",
    "random_coin_system",
    "validate_coin_system",
    "CarReport",
    "FockSpace",
    "annihilation_operator",
    "basis_state",
    "creation_operator",
    "dimension",
    "is_adjacent",
    "membership_signs",
    "subset_size",
    "verify_car",
    "FullPotentialTable",
    "MagneticPotential",
    "magnetic_basis_change",
    "magnetic_basis_vector",
    "magnetic_shift",
    "null_potential",
    "random_potential",
    "reduce_potential",
    "shift_product_action",
    "xi_hat",
    "ApproximateSpectrumCheck",
    "EigensolverError",
    "PointSpectrumCheck",
    "SpectralStabilityReport",
    "SpectrumReport",
    "coin_sum_eigensystem",
    "coin_union_spectrum",
    "hausdorff_distance",
    "unitary_eigenvalues",
    "verify_approximate_spectrum_theorem",
    "verify_point_spectrum_theorem",
    "verify_spectral_stability",
    "walk_point_spectrum",
    "CapacityError",
    "IntertwiningReport",
    "WalkOperator",
    "WalkState",
    "evolution_operator",
    "evolve",
    "intertwining_check",
    "magnetic_eigenstate",
    "position_distribution",
    "step",
    "uniform_coin_vertex_state",
    "vertex_state",
]
