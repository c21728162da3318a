"""Known-answer checks for the hot kernels in enkit.kernels."""

import random
from itertools import product
from math import prod
from operator import add, mul, sub

import pytest

from enkit import kernels
from enkit.reductions import FamilyDescriptor
from enkit.system import ADD, MUL, Add, Mul, One


def test_family_join_known_family():
    # Hand-checked tiny family: constants -1, 0, 1 at ranks 0, 1, 2.  The
    # non-monotone index map flips the rows of rank 0 against ranks 1, 2.
    desc = FamilyDescriptor(1, -1, 1, (0,))
    adds, muls = kernels.family_join(
        list(desc.iter_vectors()), desc.coeff_lo, desc.coeff_hi,
        desc.basis(), [3, 1, 2])
    # rank triples (0, 1, 0), (0, 2, 1), (1, 1, 1), (1, 2, 2)
    assert adds == [Add(1, 3, 3), Add(2, 3, 1), Add(1, 1, 1), Add(1, 2, 2)]
    # rank triples (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 1, 1), (1, 2, 1),
    # (2, 2, 2)
    assert muls == [
        Mul(3, 3, 2), Mul(1, 3, 1), Mul(2, 3, 3), Mul(1, 1, 1), Mul(1, 2, 1),
        Mul(2, 2, 2)]
    assert all(type(row) is tuple and row[0] == ADD for row in adds)
    assert all(type(row) is tuple and row[0] == MUL for row in muls)


def _pairwise_join(vectors, lo, hi, basis):
    """Reference closure: every member pair is added and multiplied out."""
    width = len(basis)
    index_of = {vec: t for t, vec in enumerate(vectors)}
    basis_pos = {e: t for t, e in enumerate(basis)}
    prod_exp = [[tuple(x + y for x, y in zip(e1, e2)) for e2 in basis]
                for e1 in basis]
    nonzero = [tuple((t, c) for t, c in enumerate(vec) if c) for vec in vectors]
    adds = []
    muls = []
    count = len(vectors)
    in_range = lambda c: lo <= c <= hi
    for a in range(count):
        va = vectors[a]
        nza = nonzero[a]
        for b in range(a, count):
            s = tuple(x + y for x, y in zip(va, vectors[b]))
            if all(map(in_range, s)):
                c = index_of.get(s)
                if c is not None:
                    adds.append((a, b, c))
            product_terms: dict = {}
            for t1, c1 in nza:
                row = prod_exp[t1]
                for t2, c2 in nonzero[b]:
                    e = row[t2]
                    product_terms[e] = product_terms.get(e, 0) + c1 * c2
            vec = [0] * width
            member = True
            for e, c in product_terms.items():
                if not c:
                    continue
                pos = basis_pos.get(e)
                if pos is None or not in_range(c):
                    member = False
                    break
                vec[pos] = c
            if member:
                c = index_of.get(tuple(vec))
                if c is not None:
                    muls.append((a, b, c))
    return adds, muls


def _random_family(rng, box):
    """A family of at most 300 members whose coefficient box has this shape."""
    while True:
        p = rng.randint(1, 3)
        bounds = tuple(rng.randint(0, 2) for _ in range(p))
        if box == "symmetric":
            hi = rng.randint(1, 3)
            lo = -hi
        elif box == "from zero":
            lo, hi = 0, rng.randint(1, 4)
        elif box == "positive":
            lo = rng.randint(1, 2)
            hi = lo + rng.randint(0, 2)
        elif box == "negative":
            hi = rng.randint(-2, -1)
            lo = hi - rng.randint(0, 2)
        elif box == "skewed":
            lo = rng.randint(-2, 0)
            hi = lo + rng.randint(1, 4)
        else:
            lo = hi = 0
        desc = FamilyDescriptor(p, lo, hi, bounds)
        if desc.cardinality() <= 300:
            return desc


def test_family_join_matches_pairwise_reference():
    rng = random.Random(20261018)
    boxes = ("symmetric", "from zero", "positive", "negative", "skewed",
             "zero")
    totals = {box: [0, 0, 0] for box in boxes}
    for trial in range(200):
        box = boxes[trial % len(boxes)]
        desc = _random_family(rng, box)
        args = (list(desc.iter_vectors()), desc.coeff_lo, desc.coeff_hi,
                desc.basis())
        index = rng.sample(range(1, len(args[0]) + 1), len(args[0]))
        adds, muls = kernels.family_join(*args, index)
        ref_adds, ref_muls = _pairwise_join(*args)
        assert adds == [Add(index[a], index[b], index[c])
                        for a, b, c in ref_adds], desc
        assert muls == [Mul(index[a], index[b], index[c])
                        for a, b, c in ref_muls], desc
        totals[box][0] += len(adds)
        totals[box][1] += len(muls)
        totals[box][2] += sum(index[a] > index[b]
                              for a, b, _ in ref_adds + ref_muls)
    # Every box shape closes under addition somewhere, and every one but
    # the all-negative box under multiplication: a product of negative
    # coefficients is positive.  The map flips rows in every shape but the
    # one-member zero box.
    for box, (adds, muls, flipped) in totals.items():
        assert adds > 0 and (muls > 0) == (box != "negative"), box
        assert (flipped > 0) == (box != "zero"), box


def test_family_join_refuses_other_layouts():
    desc = FamilyDescriptor(2, -1, 1, (1, 0))
    vectors = list(desc.iter_vectors())
    basis = desc.basis()
    index = list(range(1, len(vectors) + 1))
    kernels.family_join(vectors, -1, 1, basis, index)
    swapped = vectors[:]
    swapped[3], swapped[4] = swapped[4], swapped[3]
    for bad in (swapped, vectors[:-1], vectors[::-1], vectors + vectors[:1],
                [list(v) for v in vectors]):
        with pytest.raises(ValueError):
            kernels.family_join(bad, -1, 1, basis, index)
    with pytest.raises(ValueError):
        kernels.family_join(vectors, -1, 0, basis, index)
    with pytest.raises(ValueError):
        kernels.family_join(vectors, -1, 1, basis[::-1], index)
    with pytest.raises(ValueError):
        kernels.family_join(vectors, -1, 1, [(0,), (2,)], index)
    for bad_index in (index[:-1], index + [len(index) + 1]):
        with pytest.raises(ValueError):
            kernels.family_join(vectors, -1, 1, basis, bad_index)


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
    # three groups: x1 is one side and x2, x3 together the other; the x1
    # side has the smaller box and is tabulated
    (((2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 0, 0)), (1, 1, 1, -2),
     [(-1, -1, 0), (-1, 0, -1), (-1, 0, 1), (-1, 1, 0),
      (0, -1, -1), (0, -1, 1), (0, 1, -1), (0, 1, 1),
      (1, -1, 0), (1, 0, -1), (1, 0, 1), (1, 1, 0)]),
], ids=["two", "three-joined"])
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
    arity = rng.randint(3 if shape == "separate groups" else 1, 5)
    lows = [rng.randint(-2, 1) for _ in range(arity)]
    highs = [lo + rng.randint(0, 2) for lo in lows]
    if shape == "one-point intervals":
        for v in rng.sample(range(arity), rng.randint(1, arity)):
            highs[v] = lows[v]
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
    elif shape == "separate groups":
        # three to five groups of variables that share no monomial
        count = rng.randint(3, arity)
        owner = list(range(count))
        owner += [rng.randrange(count) for _ in range(arity - count)]
        rng.shuffle(owner)
        supports = []
        for group in range(count):
            members = [v for v in range(arity) if owner[v] == group]
            supports += [rng.sample(members, min(2, len(members),
                                                 rng.randint(1, 2)))
                         for _ in range(rng.randint(1, 2))]
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
              "past int64", "separate groups", "one-point intervals")
    with_roots = 0
    for trial in range(200 * len(shapes)):
        exps, coeffs, lows, highs = _random_case(
            rng, shapes[trial % len(shapes)])
        expected = _brute_roots(exps, coeffs, lows, highs)
        assert kernels.grid_roots(exps, coeffs, lows, highs) == expected, (
            exps, coeffs, lows, highs)
        with_roots += bool(expected)
    assert with_roots > 100 * len(shapes)


@pytest.mark.parametrize("budget", [1, 10])
def test_grid_roots_chunks_match_brute_force(monkeypatch, budget):
    # Budgets this small put chunk boundaries inside both sides of the join.
    sizes = []
    eval_columns = kernels.eval_columns

    def evaluating(polys, columns):
        sizes.append((len(columns), len(columns[0]) if columns else 1))
        return eval_columns(polys, columns)

    monkeypatch.setattr(kernels, "CHUNK_VALUES", budget)
    monkeypatch.setattr(kernels, "eval_columns", evaluating)
    test_grid_roots_matches_brute_force()
    # Both sides go through eval_columns, and a chunk holds one point, or
    # points times (coordinates + value) within the budget.
    assert sizes and all(size == 1 or size * (width + 1) <= budget
                         for width, size in sizes)


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


def test_eval_columns_matches_pointwise():
    rng = random.Random(20261019)
    for trial in range(300):
        arity = rng.randint(0, 3)
        polys = [{tuple(rng.randint(0, 3) for _ in range(arity)):
                  rng.choice([-2**70, -3, -1, 1, 2, 5])
                  for _ in range(rng.randint(0, 4))} for _ in range(3)]
        size = rng.randint(1, 6) if arity else 1
        columns = [[rng.choice([-2**64, -2, -1, 0, 1, 3, 2**63])
                    for _ in range(size)] for _ in range(arity)]
        points = list(zip(*columns)) if arity else [()]
        expected = [[sum(c * prod(x**e for x, e in zip(point, exps))
                         for exps, c in terms.items()) for point in points]
                    for terms in polys]
        assert kernels.eval_columns(polys, columns) == expected


def test_run_schedule_runs_each_step_over_the_columns():
    # x3 = 1 and x4 = 0 are constants; x5 = x1 + x2, x6 = x5 * x3 and
    # x7 = x6 - x1
    template = [0, 0, 0, 1, 0, 0, 0, 0]
    steps = [(add, 1, 2, 5), (mul, 5, 3, 6), (sub, 6, 1, 7)]
    columns = [[1, -4, 2**64], [2, 0, -2**64]]
    values = kernels.run_schedule(template, steps, columns)
    assert values[1:] == [[1, -4, 2**64], [2, 0, -2**64], [1, 1, 1],
                          [0, 0, 0], [3, -4, 0], [3, -4, 0], [2, 0, -2**64]]
    # Each point's run matches its own one-point run.
    for t in range(3):
        one = kernels.run_schedule(template, steps,
                                   [[column[t]] for column in columns])
        assert [column[0] for column in one] == \
            [column[t] for column in values]
    # With p = 0 the batch is the one empty point.
    assert kernels.run_schedule([0, 1, 0], [(add, 1, 1, 2)], []) == \
        [[0], [1], [2]]
