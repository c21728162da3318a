"""Known-answer checks for the hot kernels in enkit.kernels."""

from enkit import kernels
from enkit.reductions import FamilyDescriptor
from enkit.system import Add, Mul, One


def test_family_join_known_family():
    # Hand-checked tiny family: constants -1, 0, 1.
    desc = FamilyDescriptor(1, -1, 1, (0,))
    adds, muls = kernels.family_join(
        list(desc.iter_vectors()), desc.coeff_lo, desc.coeff_hi, desc.basis())
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


def test_check_equations_first_violation():
    equations = [One(1), Add(1, 1, 2), Mul(2, 2, 3)]
    assert kernels.check_equations(equations, {1: 1, 2: 2, 3: 4}) == -1
    assert kernels.check_equations(equations, {1: 2, 2: 4, 3: 16}) == 0
    assert kernels.check_equations(equations, {1: 1, 2: 3, 3: 9}) == 1
    assert kernels.check_equations(equations, {1: 1, 2: 2, 3: 5}) == 2
    # the first violated equation wins over later ones
    assert kernels.check_equations(equations, {1: 1, 2: 3, 3: 5}) == 1
    assert kernels.check_equations([], {}) == -1


def test_check_equations_values_past_int64():
    big = 2**63 + 5
    equations = [Add(1, 1, 2), Mul(1, 2, 3)]
    values = {1: big, 2: 2 * big, 3: 2 * big * big}
    assert kernels.check_equations(equations, values) == -1
    values[3] += 1
    assert kernels.check_equations(equations, values) == 1
    values[2] = 2 * big - 2**64
    assert kernels.check_equations(equations, values) == 0
