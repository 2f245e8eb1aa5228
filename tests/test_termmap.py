"""The shared sparse term-map behaviour of all seven element classes:
arithmetic, type-strict equality, zero pruning and mismatch errors."""

from fractions import Fraction

import pytest

from necklaces import (
    BiDerivationElem,
    ChainVector,
    DerivationElem,
    GenusMismatch,
    ModChainVector,
    PairTensor,
    Tensor,
    TensorDerivElem,
    mod_wedge_basis,
    wedge_basis,
)

# (class, space, space of another genus, space of another cell or None,
#  two keys valid in every listed space)
CASES = {
    "Tensor": (Tensor, 1, 2, None, ((0,), (0, 1))),
    "PairTensor": (PairTensor, 1, 2, None, (((0,), ()), ((), (1,)))),
    "DerivationElem": (DerivationElem, 1, 2, None, ((0,), (0, 1))),
    "BiDerivationElem": (BiDerivationElem, 1, 2, None, (((0,), (1,)), ((1,), (0,)))),
    "TensorDerivElem": (TensorDerivElem, 1, 2, None, (((0,), (1,)), ((), (0, 1)))),
    "ChainVector": (
        ChainVector, wedge_basis(1, 1, 1), wedge_basis(2, 1, 1), wedge_basis(1, 1, 2), (0, 1)
    ),
    "ModChainVector": (
        ModChainVector,
        mod_wedge_basis(1, 0, 1),
        mod_wedge_basis(2, 0, 1),
        mod_wedge_basis(1, 0, 2),
        (0, 1),
    ),
}


def stored(x) -> dict:
    return x.coeffs if isinstance(x, (ChainVector, ModChainVector)) else x.terms


@pytest.mark.parametrize("name", sorted(CASES))
def test_term_map_contract(name):
    cls, space, other_genus, other_cell, (k1, k2) = CASES[name]
    x = cls(space, {k1: 1, k2: Fraction(1, 2)})
    y = cls(space, {k1: -1, k2: 2})
    assert x + y == cls(space, {k2: Fraction(5, 2)})
    assert stored(x + y) == {k2: Fraction(5, 2)}
    assert x - y == cls(space, {k1: 2, k2: Fraction(-3, 2)})
    assert (x - x).is_zero() and stored(x - x) == {}
    assert -x == x.scale(-1) == cls(space, {k1: -1, k2: Fraction(-1, 2)})
    assert x.scale(2) == x + x
    assert x.scale(0).is_zero() and stored(x.scale(0)) == {}
    assert x == cls(space, {k2: Fraction(1, 2), k1: 1}) and x != y
    assert x != stored(x)
    assert not hasattr(x, "__dict__")

    # zero coefficients are never stored
    assert stored(cls(space, {k1: 0, k2: 3})) == {k2: 3}
    assert cls(space, {k1: 0}).is_zero() and repr(cls(space)) == "0"

    # another genus: GenusMismatch; another cell of the same genus: ValueError
    mismatches = [(other_genus, GenusMismatch)]
    if other_cell is not None:
        mismatches.append((other_cell, ValueError))
    for other_space, error in mismatches:
        z = cls(other_space, {k1: 1})
        with pytest.raises(error):
            x + z
        with pytest.raises(error):
            x - z
        assert x != z
