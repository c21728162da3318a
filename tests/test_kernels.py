"""Known-answer checks for the hot kernels in enkit.kernels."""

from enkit import kernels
from enkit.reductions import FamilyDescriptor


def test_family_join_known_family():
    # Hand-checked tiny family: constants -1, 0, 1.
    desc = FamilyDescriptor(1, -1, 1, (0,))
    adds, muls = kernels.family_join(
        list(desc.iter_vectors()), desc.coeff_lo, desc.coeff_hi,
        desc.basis(), desc.degree_bounds)
    # vectors: 0 -> -1, 1 -> 0, 2 -> 1
    assert set(adds) == {(0, 1, 0), (0, 2, 1), (1, 1, 1), (1, 2, 2)}
    assert set(muls) == {(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 1, 1),
                         (1, 2, 1), (2, 2, 2)}


def test_grid_roots_coefficients_past_int64():
    exps = ((2,), (0,))
    coeffs = (10**25, -(10**25) * 49)
    assert kernels.grid_roots(exps, coeffs, (-10,), (10,)) == [(-7,), (7,)]


def test_grid_roots_box_past_int64():
    big = 10**20
    assert kernels.grid_roots(((1,),), (1,), (big,), (big + 3,)) == []
