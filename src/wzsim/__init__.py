"""State-vector simulation of discretized Schrodinger dynamics.

Many-body wavefunctions on a uniform spatial grid, split-operator time
evolution with finite-difference or momentum-space kinetic factors,
Coulomb potential diagonals, and synthesis of diagonal phase circuits.

WZ_THREADS is the one thread count: importing wzsim sets
OPENBLAS_NUM_THREADS to 1 unless it is already set, so that OpenBLAS does
not thread each small matrix product of a kinetic factor on top of the
slab threads. OpenBLAS reads the variable once, when numpy loads it, so
this has no effect when the caller set the variable or imported numpy
before wzsim.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .analytic import (
    BoxSeriesSpec,
    box_exact_density,
    dense_evolution_oracle,
    loglog_slope,
    rmse,
    yb_error,
)
from .circuits import (
    Circuit,
    Gate,
    circuit_from_text,
    circuit_to_text,
    circuit_unitary,
    count_kinetic_gates,
    synthesize_diagonal,
)
from .errors import NormDriftError, ResourceLimitError, ValidationError
from .evolution import (
    EvolutionPlan,
    EvolutionReport,
    evolve,
    prepare_operators,
    sample_configurations,
    step,
)
from .grid import (
    GridSpec,
    IndexCodec,
    ParticleSpec,
    StateVector,
    build_grid,
    density,
    encode_state,
    marginal_density,
)
from .kinetic import (
    apply_kinetic_plan,
    fourier_conjugation_diagnostic,
    make_spectral_plan,
    make_trotter_plan,
    momentum_matrix,
    trotter_coupling_block,
    trotter_factor_matrix,
)
from .potential import (
    antidiagonal_symmetry_check,
    build_coulomb_diagonal,
    composite_potential,
    level_spacing,
    potential_bounds,
    quantize_levels,
)

__all__ = [
    "BoxSeriesSpec",
    "Circuit",
    "EvolutionPlan",
    "EvolutionReport",
    "Gate",
    "GridSpec",
    "IndexCodec",
    "NormDriftError",
    "ParticleSpec",
    "ResourceLimitError",
    "StateVector",
    "ValidationError",
    "antidiagonal_symmetry_check",
    "apply_kinetic_plan",
    "box_exact_density",
    "build_coulomb_diagonal",
    "build_grid",
    "circuit_from_text",
    "circuit_to_text",
    "circuit_unitary",
    "composite_potential",
    "count_kinetic_gates",
    "dense_evolution_oracle",
    "density",
    "encode_state",
    "evolve",
    "fourier_conjugation_diagnostic",
    "level_spacing",
    "loglog_slope",
    "make_spectral_plan",
    "make_trotter_plan",
    "marginal_density",
    "momentum_matrix",
    "potential_bounds",
    "prepare_operators",
    "quantize_levels",
    "rmse",
    "sample_configurations",
    "step",
    "synthesize_diagonal",
    "trotter_coupling_block",
    "trotter_factor_matrix",
    "yb_error",
]
