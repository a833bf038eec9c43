"""Library calls outside their admissible range are refused by name.

One case per refusal that no other test reaches: each call must raise the
given error type with exactly the given message.
"""

import math
import re

import numpy as np
import pytest

from specdet import (
    BlockSymbol,
    BundleSymbol,
    CMatrix,
    DualObject,
    EvaluationError,
    FeasibilityError,
    LatticeKernel,
    ParameterError,
    ShapeError,
    SpectralModel,
    ToroidalSymbol,
    TracePowerSource,
    TruncationIndexMap,
    assemble_truncation,
    banded_kernel,
    block_power_trace,
    bundle_power,
    circle_model,
    diagonal_kernel,
    direct_determinant,
    lattice_determinant,
    lattice_trace,
    literal_power_symbol,
    lu_determinant,
    mat_mul,
    mat_power_trace,
    mat_trace,
    norm_growth_profile,
    nuclear_norm_estimate,
    poincare_norm,
    power_decay_symbol,
    radius_estimate,
    rank_one_kernel,
    schur_bound,
    spectral_determinant_product,
    sphere2_model,
    table_symbol,
    toroidal_matrix,
    torus2_model,
    truncation_trace_source,
    weyl_tail_check,
)
from specdet.lattice import _as_index, _truncation
from specdet.linalg import mat_add
from specdet.toroidal import growth_verdict

DIAG = diagonal_kernel({0: 0.5, 1: 0.25})
#: no support arrays and no band: its entries are read by the walk
EVAL_ONLY = LatticeKernel(1, lambda j, m: 0.5 if j == m else 0.0, label="eval-only")
#: a cutoff whose 1-D box side 2^62 + 1 fits int64, and whose 2-D one does not
HUGE = 2 ** 61
MODEL = circle_model(3)
BUNDLE = BundleSymbol.identity(1, DualObject((("a", 1),)))
NON_SQUARE = CMatrix(1, 2, (1j, 2j))


def _non_finite_kernel():
    return LatticeKernel(1, lambda j, m: complex(math.inf, 0.0), label="inf").value((0,), (1,))


#: name -> (call, error type, message)
REFUSALS = {
    "kernel dim 0": (lambda: LatticeKernel(0, lambda j, m: 0j), ParameterError,
                     "kernel dimension must be >= 1, got 0"),
    "kernel value non-finite": (_non_finite_kernel, EvaluationError,
                                "kernel 'inf' is non-finite at (j=(0,), m=(1,))"),
    "nuclear norm cutoff 0": (lambda: nuclear_norm_estimate(DIAG, 1.0, 0), ParameterError,
                              "cutoff must be >= 1, got 0"),
    "lattice determinant order 0": (lambda: lattice_determinant(DIAG, 0.1, order=0, cutoff=0),
                                    ParameterError, "series order must be >= 1, got 0"),
    "lattice determinant cutoff 0": (lambda: lattice_determinant(DIAG, 0.1, cutoff=0),
                                     ParameterError, "cutoff must be >= 1, got 0"),
    "lattice trace cutoff 0": (lambda: lattice_trace(DIAG, 0), ParameterError,
                               "cutoff must be >= 1, got 0"),
    "trace powers cutoff 0": (lambda: _truncation(DIAG, 0), ParameterError,
                              "cutoff must be >= 1, got 0"),
    "trace source cutoff 0": (lambda: truncation_trace_source(DIAG, 0), ParameterError,
                              "cutoff must be >= 1, got 0"),
    "poincare norm cutoff 0": (lambda: poincare_norm(DIAG, 0), ParameterError,
                               "cutoff must be >= 1, got 0"),
    "walked trace cutoff 0": (lambda: lattice_trace(EVAL_ONLY, 0), ParameterError,
                              "cutoff must be >= 1, got 0"),
    "walked nuclear norm cutoff 0": (lambda: nuclear_norm_estimate(EVAL_ONLY, 1.0, 0),
                                     ParameterError, "cutoff must be >= 1, got 0"),
    "nuclear norm p names itself before the cutoff": (
        lambda: nuclear_norm_estimate(DIAG, 0.5, 0), ParameterError,
        "p must lie in [1, inf), got 0.5"),
    "schur bound p names itself before the cutoff": (
        lambda: schur_bound(DIAG, 0.5, 0), ParameterError, "p must lie in [1, inf], got 0.5"),
    "truncation positions past int64": (
        lambda: lattice_trace(diagonal_kernel({(0, 0): 0.5}, dim=2), HUGE), FeasibilityError,
        "the box of cutoff 2305843009213693952 has side "
        "21267647932558653975684285001340289025, whose positions do not fit int64"),
    "listed quantization positions past int64": (
        lambda: toroidal_matrix(table_symbol({((0, 0), (0, 0)): 0.5}, dim=2), HUGE),
        FeasibilityError, "the box of cutoff 2305843009213693952 has side "
        "21267647932558653975684285001340289025, whose positions do not fit int64"),
    "trace powers past a CSR index": (
        lambda: truncation_trace_source(rank_one_kernel({0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}),
                                        HUGE),
        FeasibilityError, "a CSR matrix of side 4611686018427387905 is too large to index"),
    "trace powers order 0": (lambda: truncation_trace_source(DIAG, 2).trace_power(0),
                             ParameterError, "trace power must be >= 1, got 0"),
    "index dimension": (lambda: _as_index((1, 2), 1), ParameterError,
                        "index (1, 2) does not have dimension 1"),
    "banded support -1": (lambda: banded_kernel({0: 0.5}, support=-1), ParameterError,
                          "support must be >= 0, got -1"),
    "toroidal matrix cutoff 0": (lambda: toroidal_matrix(power_decay_symbol(-2.0), 0),
                                 ParameterError, "cutoff must be >= 1, got 0"),
    "schur bound cutoff 0": (lambda: schur_bound(DIAG, 1.0, 0), ParameterError,
                             "cutoff must be >= 1, got 0"),
    "schur bound p below 1": (lambda: schur_bound(DIAG, 0.5, 2), ParameterError,
                              "p must lie in [1, inf], got 0.5"),
    "assembly cutoff 0": (lambda: assemble_truncation(DIAG, 0), ParameterError,
                          "cutoff must be >= 1, got 0"),
    "symbol dim 0": (lambda: ToroidalSymbol(0, -2.0, lambda x, k: 0j), ParameterError,
                     "symbol dimension must be >= 1, got 0"),
    "symbol x_grid 1": (lambda: ToroidalSymbol(1, -2.0, lambda x, k: 0j, x_grid=1),
                        ParameterError, "x_grid must be >= 2, got 1"),
    "growth verdict empty": (lambda: growth_verdict([]), ParameterError,
                             "profile must contain at least one point"),
    "norm profile empty": (lambda: norm_growth_profile(power_decay_symbol(-2.0), []),
                           ParameterError, "cutoff list must be nonempty"),
    "spectral not flat": (lambda: SpectralModel([[1.0]], [1], 2.0), ParameterError,
                          "eigenvalues and multiplicities must be flat lists"),
    "spectral length mismatch": (lambda: SpectralModel([1.0, 2.0], [1], 2.0), ParameterError,
                                 "2 eigenvalues but 1 multiplicities"),
    "spectral empty": (lambda: SpectralModel([], [], 2.0), ParameterError,
                       "spectral model must retain at least one eigenvalue"),
    "spectral non-finite": (lambda: SpectralModel([1.0, math.nan], [1, 1], 2.0, label="s"),
                            EvaluationError, "model 's' has non-finite eigenvalues"),
    "spectral nu 0": (lambda: SpectralModel([1.0], [1], 0.0), ParameterError,
                      "operator order nu must be positive, got 0.0"),
    "circle J -1": (lambda: circle_model(-1), ParameterError, "J must be >= 0, got -1"),
    "sphere2 J -1": (lambda: sphere2_model(-1), ParameterError, "J must be >= 0, got -1"),
    "torus2 J -1": (lambda: torus2_model(-1), ParameterError, "J must be >= 0, got -1"),
    "circle J 10^20": (lambda: circle_model(10 ** 20), FeasibilityError,
                       "J = 100000000000000000000 keeps 100000000000000000001 levels, "
                       "too many to size"),
    "weyl alpha 0": (lambda: weyl_tail_check(MODEL, 0.0), ParameterError,
                     "alpha must be positive, got 0.0"),
    "spectral product alpha 0": (lambda: spectral_determinant_product(MODEL, 0.0, 0.1),
                                 ParameterError, "alpha must be positive, got 0.0"),
    "block power order 0": (lambda: block_power_trace(BlockSymbol((np.eye(2),)), 0),
                            ParameterError, "power must be >= 1, got 0"),
    "bundle power order 0": (lambda: bundle_power(BUNDLE, 0), ParameterError,
                             "power must be >= 1, got 0"),
    "literal power order 0": (lambda: literal_power_symbol(BUNDLE, 0, 1, 1, "a"),
                              ParameterError, "power must be >= 1, got 0"),
    "dual duplicate id": (lambda: DualObject((("a", 1), ("a", 2))), ParameterError,
                          "duplicate dual block ids in ['a', 'a']"),
    "dual dim 0": (lambda: DualObject((("a", 0),)), ParameterError,
                   "dual block 'a' has dimension 0 < 1"),
    "bundle fiber index": (lambda: BUNDLE.block(2, 1, "a"), ParameterError,
                           "fiber indices (2, 1) outside 1..1"),
    "index map dim 0": (lambda: TruncationIndexMap(0, 1), ParameterError,
                        "dim and cutoff must be >= 1, got dim=0, cutoff=1"),
    "direct determinant non-square": (lambda: direct_determinant(NON_SQUARE, 0.1),
                                      ParameterError,
                                      "direct determinant needs a square matrix, got 1x2"),
    "cmatrix negative": (lambda: CMatrix(-1, 0, ()), ShapeError, "negative dimensions -1x0"),
    "cmatrix entry count": (lambda: CMatrix(2, 2, (1j,)), ShapeError,
                            "2x2 matrix needs 4 entries, got 1"),
    "cmatrix non-finite": (lambda: CMatrix(1, 2, (1j, complex(math.inf, 0.0))), ShapeError,
                           "non-finite entry (inf+0j) at flat index 1 (row 0, col 1)"),
    "cmatrix ragged": (lambda: CMatrix.from_rows([[1, 2], [3]]), ShapeError,
                       "ragged row lengths"),
    "mat_mul shapes": (lambda: mat_mul(NON_SQUARE, NON_SQUARE), ShapeError,
                       "cannot multiply 1x2 by 1x2"),
    "mat_add shapes": (lambda: mat_add(NON_SQUARE, CMatrix(2, 1, (1j, 2j))), ShapeError,
                       "cannot add 1x2 and 2x1"),
    "mat_trace non-square": (lambda: mat_trace(NON_SQUARE), ShapeError,
                             "trace of non-square 1x2 matrix"),
    "mat_power_trace non-square": (lambda: mat_power_trace(NON_SQUARE, 2), ShapeError,
                                   "power trace of non-square 1x2 matrix"),
    "mat_power_trace order 0": (lambda: mat_power_trace(CMatrix(1, 1, (1j,)), 0),
                                ParameterError, "power must be >= 1, got 0"),
    "lu non-square": (lambda: lu_determinant(NON_SQUARE), ShapeError,
                      "determinant of non-square 1x2 matrix"),
    "radius non-finite trace": (
        lambda: radius_estimate(TracePowerSource(lambda m: complex(math.nan, 0.0)), 3),
        EvaluationError, "trace power of order 2 is non-finite ((nan+0j))"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_library_refusal_names_its_cause(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
