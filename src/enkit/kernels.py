"""The hot loops: box-root enumeration, family closure, bulk equation checks
and straight-line schedule runs.

One pure-Python implementation with exact arbitrary-precision arithmetic,
so there is no overflow story to manage.  The end-to-end benchmark
(`e2ebench/run.py --trace 1`) reports the self time of each kernel per
layer; a compiled variant belongs here only if those numbers justify it.

The benchmark's tracer wraps `grid_roots`, `family_join` and
`check_equations` by their names here, and its result file records
`BACKEND`.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import product
from math import prod
from operator import add, le, ne

from .system import Add, One

BACKEND = "pure"


def grid_roots(exps, coeffs, lows, highs):
    """All points of the box where the sparse polynomial vanishes.

    exps: sequence of exponent tuples; coeffs: matching coefficients;
    lows/highs: per-variable inclusive bounds.  Points come out in
    lexicographic order.

    The variables split into groups: variables joined by a common monomial,
    plus one group of the variables in no term, whose value is always 0.
    When there are exactly two groups, the one with the smaller box is
    tabulated value -> points and the larger one is streamed, each of its
    points looking up the rest of the target.  The cost is then the sum of
    the two group boxes, not their product, and the table holds at most the
    square root of the box.  Any other polynomial streams its whole box and
    builds no table.
    """
    if any(lo > hi for lo, hi in zip(lows, highs)):
        return []
    constant = sum(c for e, c in zip(exps, coeffs) if not any(e))
    groups = _variable_groups(len(lows), exps, coeffs)
    if len(groups) != 2:
        # The whole box streams in lex order.
        return [tuple(map(add, lows, offs))
                for offs, value in _box_values(exps, coeffs, range(len(lows)),
                                               lows, highs)
                if value == -constant]
    size = lambda group: prod(highs[v] - lows[v] + 1 for v in group)
    streamed, tabulated = sorted(groups, key=size, reverse=True)
    base = [lows[v] for v in tabulated]
    table = {}
    for offs, value in _box_values(exps, coeffs, tabulated, lows, highs):
        table.setdefault(value, []).append(tuple(map(add, base, offs)))
    order = sorted(range(len(lows)), key=(streamed + tabulated).__getitem__)
    base = [lows[v] for v in streamed]
    roots = []
    for offs, value in _box_values(exps, coeffs, streamed, lows, highs):
        for point in table.get(-constant - value, ()):
            flat = tuple(map(add, base, offs)) + point
            roots.append(tuple(map(flat.__getitem__, order)))
    roots.sort()
    return roots


def _variable_groups(arity, exps, coeffs):
    """Variables joined by shared monomials, each group in increasing order.

    The variables that occur in no term form one more group.
    """
    parent = list(range(arity))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    used = [False] * arity
    for e, c in zip(exps, coeffs):
        members = [v for v, k in enumerate(e) if k]
        if not (c and members):
            continue
        root = find(members[0])
        for v in members:
            used[v] = True
            parent[find(v)] = root
    groups = {}
    for v in range(arity):
        groups.setdefault(find(v) if used[v] else -1, []).append(v)
    return list(groups.values())


def _box_values(exps, coeffs, group, lows, highs):
    """(offsets, value) for every point of the group's sub-box, in lex order.

    Only the terms over the group's variables count; offsets are relative
    to the group's lower bounds.
    """
    arity = len(lows)
    # (position, column of powers) per (variable, exponent), shared by terms
    powers = {}
    terms = []
    supports = []
    for e, c in zip(exps, coeffs):
        members = [v for v, k in enumerate(e) if k]
        if not (c and members and members[0] in group):
            continue
        factors = []
        for v in members:
            key = e[v] * arity + v
            if key not in powers:
                powers[key] = (group.index(v), [x**e[v] for x in
                                               range(lows[v], highs[v] + 1)])
            factors.append(powers[key])
        terms.append(c)
        supports.append(tuple(factors))
    del powers  # the supports hold every column still needed
    for offs in product(*(range(highs[v] - lows[v] + 1) for v in group)):
        total = 0
        for term, factors in zip(terms, supports):
            for t, column in factors:
                term *= column[offs[t]]
            total += term
        yield offs, total


def check_equations(equations, values):
    """Index of the first violated equation, or -1 if all hold.

    equations: One/Add/Mul tuples with 1-based indices; values: a mapping
    that covers every index they use.
    """
    for t, eq in enumerate(equations):
        if type(eq) is One:
            if values[eq.i] != 1:
                return t
        elif type(eq) is Add:
            i, j, k = eq
            if values[i] + values[j] != values[k]:
                return t
        else:
            i, j, k = eq
            if values[i] * values[j] != values[k]:
                return t
    return -1


def run_schedule(template, steps, point):
    """Values of a straight-line schedule run from a base point.

    template: the n + 1 starting values (index 0 unused), holding the
    schedule's constants; point: the values of x_1..x_p; steps: tuples
    (op, a, b, k) with op a two-argument function, each setting
    values[k] = op(values[a], values[b]) in order.
    """
    values = template.copy()
    values[1:len(point) + 1] = point
    for op, a, b, k in steps:
        values[k] = op(values[a], values[b])
    return values


def family_join(vectors, lo, hi, basis):
    """Closure triples of a coefficient-bounded polynomial family.

    basis: the monomials of a degree box, exponent tuples in ascending
    lexicographic order; vectors: every coefficient vector over `basis`
    with entries in [lo, hi], in lexicographic order, so that a member's
    index is its mixed-radix rank.  Returns (adds, muls): adds holds every
    (a, b, c) with a <= b and vector[a] + vector[b] == vector[c]; muls the
    same for polynomial products that land back in the family.  Indices
    refer to positions in `vectors`; both lists are in (a, b) order.

    The work grows with the number of pairs that can fit, not with the
    square of the member count.  A sum fits coordinate by coordinate, so
    each a visits only the sub-box of b with lo <= a_t + b_t <= hi, and the
    index of the sum is a + b + lo * (sum of the rank weights).  Over Z the
    degree in each variable of a product is the sum of the factors'
    degrees, so each a visits only the b whose degrees add up to within the
    box, plus the zero member; every monomial of such a product is in the
    basis at the sum of the two positions, and only its coefficients need
    checking.  Raises ValueError when `basis` or `vectors` has any other
    layout.
    """
    bounds = tuple(map(max, zip(*basis)))
    if list(basis) != list(product(*(range(d + 1) for d in bounds))):
        raise ValueError("basis is not a lexicographic degree box")
    width = len(basis)
    radix = hi - lo + 1
    if (lo > hi or len(vectors) != radix**width
            or any(map(ne, vectors, product(range(lo, hi + 1),
                                            repeat=width)))):
        raise ValueError("vectors are not the lexicographic box "
                         "[lo, hi]^len(basis)")
    weights = [radix**(width - 1 - t) for t in range(width)]
    # index(v) = sum(weights[t] * (v[t] - lo)) = sum(weights[t] * v[t]) - shift
    shift = lo * sum(weights)

    # fits[t][x - lo]: rank offsets of the y with lo <= x + y <= hi
    fits = [[[w * (y - lo)
              for y in range(max(lo, lo - x), min(hi, hi - x) + 1)]
             for x in range(lo, hi + 1)] for w in weights]
    # Triples take their ints from `index`, not fresh ones from the
    # arithmetic, which keeps the 625-member full_Z(x1 - x2) lists at
    # 4.8 MB instead of 8.1 MB.
    index = list(range(len(vectors)))
    adds = []
    for a, va in enumerate(vectors):
        partners = [0]
        for x, fit in zip(va, fits):
            partners = [r + s for r in partners for s in fit[x - lo]]
        base = a + shift
        adds.extend([(a, index[b], index[base + b])
                     for b in partners[bisect_left(partners, a):]])

    nonzero = [[(t, c) for t, c in enumerate(vec) if c] for vec in vectors]
    # Degree vector of each member; the zero member's is None.
    degrees = [tuple(map(max, zip(*(basis[t] for t, _ in terms))))
               if terms else None for terms in nonzero]
    classes = {}
    for a, key in enumerate(degrees):
        classes.setdefault(key, []).append(a)
    partners_of = {None: index}
    for key in classes:
        if key is not None:
            partners_of[key] = sorted(
                b for other, members in classes.items()
                if other is None or all(map(le, map(add, key, other), bounds))
                for b in members)
    muls = []
    for a, terms in enumerate(nonzero):
        partners = partners_of[degrees[a]]
        for b in partners[bisect_left(partners, a):]:
            coeffs = {}
            for t1, c1 in terms:
                for t2, c2 in nonzero[b]:
                    coeffs[t1 + t2] = coeffs.get(t1 + t2, 0) + c1 * c2
            # Positions missing from coeffs hold 0.  When 0 is out of
            # range, every member has full support, so only constants
            # (width 1) have partners and no position goes missing.
            c = -shift
            for t, coeff in coeffs.items():
                if not lo <= coeff <= hi:
                    break
                c += weights[t] * coeff
            else:
                muls.append((a, b, index[c]))
    return adds, muls
