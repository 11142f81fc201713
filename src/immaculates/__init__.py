"""Skew immaculate noncommutative symmetric functions, exactly.

Exact H-basis expansions via noncommutative determinants, zero/nonzero
classification of composition pairs with matching certificates, and a
commutative Schur-polynomial bridge for cross-validation.
"""

from .compositions import (
    enumerate_compositions,
    format_parts,
    hat,
    is_composition,
    is_partition,
    is_weak_composition,
    is_zero_padded_partition,
    pad_to_length,
    parse_parts,
    strip_trailing_zeros,
)
from .errors import DimensionCapError, GreedyPreconditionError, LengthMismatchError
from .hwords import HExpansion, normalize_word
from .matrix import SubscriptMatrix, build_matrix
from .ndet import (
    DEFAULT_DIM_CAP,
    SignedSelection,
    immaculate,
    ndet_laplace,
    permutation_sign,
    skew_immaculate,
)
from .predicates import (
    Classification,
    Outcome,
    classify,
    find_matching_certificate,
    format_certificate,
    greedy_h0_term,
    necessary_condition_holds,
    nocancel_conditions_hold,
)
from .symfunc import (
    Poly,
    forgetful,
    generate_ssyt,
    h_poly,
    schur_decompose,
    schur_via_jacobi_trudi,
    schur_via_tableaux,
)

__version__ = "0.1.0"
