from fractions import Fraction

import pytest

from immaculates.hwords import HExpansion, normalize_word
from immaculates.matrix import build_matrix
from immaculates.ndet import SignedSelection, immaculate, skew_immaculate
from immaculates.symfunc import (
    Poly,
    forgetful,
    generate_ssyt,
    h_poly,
    schur_via_jacobi_trudi,
    schur_via_tableaux,
)

# Each entry point with the number 1 in one of its integer slots; 1 is valid
# in every slot, so a bool there must give the same result as the int.
ENTRY_POINTS = {
    "normalize_word": lambda x: normalize_word((2, x)),
    "HExpansion coefficient": lambda x: HExpansion({(1,): x}),
    "HExpansion word": lambda x: HExpansion({(x, 2): 1}),
    "build_matrix alpha": lambda x: build_matrix((x, 2), (0, 0)),
    "build_matrix beta": lambda x: build_matrix((2, 2), (x, 0)),
    "skew_immaculate": lambda x: skew_immaculate((2, x), (0, 0)),
    "SignedSelection.from_columns": lambda x: SignedSelection.from_columns((x, 2)),
    "immaculate": lambda x: immaculate((x, 2)),
    "Poly nvars": lambda x: Poly(x, {(2,): 3}),
    "Poly exponents": lambda x: Poly(2, {(x, 0): 3}),
    "Poly coefficient": lambda x: Poly(2, {(1, 0): x}),
    "Poly scale": lambda x: Poly(2, {(1, 0): 3}) * x,
    "schur outer": lambda x: schur_via_tableaux((2, x), (), 2),
    "schur inner": lambda x: schur_via_tableaux((2, 1), (x,), 2),
    "schur nvars": lambda x: schur_via_tableaux((2, 1), (), x),
    "h_poly nvars": lambda x: h_poly(2, x),
    "jacobi-trudi nvars": lambda x: schur_via_jacobi_trudi((2, 1), (), x),
    "forgetful nvars": lambda x: forgetful(HExpansion({(2, 1): 1}), x),
    "ssyt nvars": lambda x: list(generate_ssyt((2, 1), (), x)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_non_integral_numbers_raise_and_ints_and_bools_pass(entry):
    for inexact in (1.5, 1.0, Fraction(3, 2), Fraction(1)):
        with pytest.raises(TypeError):
            entry(inexact)
    assert entry(True) == entry(1)
    assert repr(entry(True)) == repr(entry(1))
