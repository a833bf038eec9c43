"""Determinants Det(I + lambda*T) and traces of operators presented as
lattice kernels, toroidal symbols, block symbols, spectral models or bundle
symbols, evaluated through the trace-power series and cross-validated
against brute-force truncated-matrix oracles."""

from .bundles import (
    BundleSymbol,
    DualObject,
    bundle_compose,
    bundle_determinant,
    bundle_power,
    bundle_trace,
    bundle_trace_source,
    flatten_symbol,
)
from .errors import (
    AliasingError,
    EvaluationError,
    FeasibilityError,
    ParameterError,
    ShapeError,
    SpecdetError,
    SpecFileError,
    SpecParseError,
    SpecValidationError,
)
from .invariant import (
    BlockSymbol,
    SpectralModel,
    block_power_trace,
    block_trace,
    block_trace_source,
    circle_model,
    invariant_determinant,
    manifold_determinant,
    spectral_trace_source,
    sphere2_model,
    torus2_model,
    weyl_tail_check,
)
from .lattice import (
    LatticeKernel,
    banded_kernel,
    diagonal_kernel,
    diagonal_kernel_from_rule,
    lattice_determinant,
    lattice_trace,
    nuclear_norm_estimate,
    poincare_strict_kernel,
    rank_one_kernel,
    table_kernel,
    truncation_trace_source,
)
from .linalg import CMatrix, lu_determinant, mat_mul, mat_power_trace, mat_trace
from .oracle import (
    TruncationIndexMap,
    assemble_truncation,
    block_determinant_product,
    bundle_determinant_product,
    direct_determinant,
    literal_cycle_sum,
    literal_power_symbol,
    spectral_determinant_product,
)
from .plemelj import DetResult, TracePowerSource, plemelj_det, radius_estimate
from .specfile import OperatorSpec, build_operator, emit_spec, parse_spec, parse_spec_text
from .toroidal import (
    NormGrowthProfile,
    ToroidalSymbol,
    modulated_symbol,
    norm_growth_profile,
    poincare_norm,
    power_decay_symbol,
    schur_bound,
    sharpness_symbol,
    symbol_fourier_coeff,
    table_symbol,
    toroidal_determinant,
    toroidal_matrix,
)

__version__ = "0.1.0"
