"""Known-answer checks for the hot kernels in enkit.kernels."""

import random
from itertools import product
from math import prod

import pytest

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


@pytest.mark.parametrize("exps, coeffs, roots", [
    # two groups: x2 is tabulated, x1 streamed, and the join is sorted
    (((2, 0), (0, 2), (0, 0)), (1, 1, -2),
     [(-1, -1), (-1, 1), (1, -1), (1, 1)]),
    # three groups: the whole box is streamed
    (((2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 0, 0)), (1, 1, 1, -2),
     [(-1, -1, 0), (-1, 0, -1), (-1, 0, 1), (-1, 1, 0),
      (0, -1, -1), (0, -1, 1), (0, 1, -1), (0, 1, 1),
      (1, -1, 0), (1, 0, -1), (1, 0, 1), (1, 1, 0)]),
], ids=["two", "three"])
def test_grid_roots_lex_order_across_groups(exps, coeffs, roots):
    arity = len(exps[0])
    assert kernels.grid_roots(exps, coeffs, (-2,) * arity,
                              (2,) * arity) == roots


def _value(exps, coeffs, point):
    return sum(c * prod(x**k for x, k in zip(point, e))
               for e, c in zip(exps, coeffs))


def _brute_roots(exps, coeffs, lows, highs):
    box = product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs)))
    return [point for point in box if _value(exps, coeffs, point) == 0]


def _random_case(rng, shape):
    """A sparse polynomial of the given shape, plus a box for it."""
    arity = rng.randint(1, 5)
    lows = [rng.randint(-2, 1) for _ in range(arity)]
    highs = [lo + rng.randint(0, 2) for lo in lows]
    if rng.random() < 0.1:
        highs[rng.randrange(arity)] -= 3  # an empty interval
    big = shape == "past int64"
    if shape == "unsplit":
        # a chain of monomials links every variable into one group
        supports = [(v, v + 1) for v in range(arity - 1)] or [(0,)]
    elif shape == "unused variable":
        unused = rng.randrange(arity)
        supports = [rng.sample([v for v in range(arity) if v != unused],
                               rng.randint(0, min(2, arity - 1)))
                    for _ in range(rng.randint(0, 4))]
    elif shape in ("constant", "zero"):
        supports = []
    else:
        supports = [rng.sample(range(arity), rng.randint(1, min(2, arity)))
                    for _ in range(rng.randint(1, 5))]
    exps, coeffs = [], []
    for support in supports:
        exps.append(tuple(rng.randint(1, 3) if v in support else 0
                          for v in range(arity)))
        coeffs.append(rng.randint(-2**70, 2**70) if big
                      else rng.choice([-3, -2, -1, 1, 2, 3]))
    if shape == "zero":
        exps.append((0,) * arity)
        coeffs.append(0)
    elif shape == "constant":
        exps.append((0,) * arity)
        coeffs.append(rng.choice([0, 0, 5, -(2**80)]))
    elif all(lo <= hi for lo, hi in zip(lows, highs)) and rng.random() < 0.8:
        # shift the constant so a random point of the box is a root
        point = [rng.randint(lo, hi) for lo, hi in zip(lows, highs)]
        value = _value(exps, coeffs, point)
        exps.append((0,) * arity)
        coeffs.append(-value)
    terms = list(zip(exps, coeffs))
    rng.shuffle(terms)
    return [e for e, _ in terms], [c for _, c in terms], lows, highs


def test_grid_roots_matches_brute_force():
    rng = random.Random(20261018)
    shapes = ("random", "unsplit", "unused variable", "constant", "zero",
              "past int64")
    with_roots = 0
    for trial in range(1200):
        exps, coeffs, lows, highs = _random_case(rng, shapes[trial % 6])
        expected = _brute_roots(exps, coeffs, lows, highs)
        assert kernels.grid_roots(exps, coeffs, lows, highs) == expected, (
            exps, coeffs, lows, highs)
        with_roots += bool(expected)
    assert with_roots > 600


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
