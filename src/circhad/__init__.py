"""Exact-arithmetic toolkit for circulant Hadamard matrices.

Verification, spectral analysis and search for the binary first rows
that make a circulant matrix Hadamard.  Every verification path is
exact: integer autocorrelations, cyclotomic-integer eigenvalues with a
canonical zero test, cosine-basis reductions with exact integer
row-echelon rank diagnostics, and an enumeration oracle whose strategies cross-check one
another.
"""

from .congruences import (
    CongruenceSolution,
    HalfPeriodReport,
    half_period_report,
    solve_linear_congruence,
)
from .cyclotomic import (
    CycloElement,
    RankReport,
    RealBasisVector,
    cyclotomic_polynomial,
    from_integer,
    real_basis_rank,
)
from .search import (
    CapExceeded,
    CrossValidation,
    SearchReport,
    STRATEGIES,
    STRATEGY_DFS,
    STRATEGY_EXHAUSTIVE,
    STRATEGY_WEIGHT,
    canonicalize,
    cross_validate,
    report_from_dict,
    report_to_dict,
    revalidate_report,
    run_search,
)
from .sequences import (
    EvenOrderVerdict,
    IndexSet,
    Sequence,
    SquareWeightVerdict,
    autocorrelation,
    even_order_check,
    expected_minus_counts,
    has_flat_spectrum,
    has_orthogonal_rows,
    is_circulant_hadamard,
    minus_indices,
    square_weight_check,
)
from .spectra import (
    ConstantTermVerdict,
    DifferenceCounts,
    IndexMapVerdict,
    ModeVerdict,
    SpectralVerdict,
    basis_coefficients,
    constant_term_check,
    difference_counts,
    index_map_check,
    mode_verdict,
    spectral_verdict,
)

__version__ = "0.1.0"
