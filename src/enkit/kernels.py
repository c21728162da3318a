"""The hot loops: box-root enumeration, family closure, bulk equation checks.

One pure-Python implementation with exact arbitrary-precision arithmetic,
so there is no overflow story to manage.  The end-to-end benchmark
(`e2ebench/run.py --trace 1`) reports the self time of each kernel per
layer; a compiled variant belongs here only if those numbers justify it.

The benchmark's tracer wraps the three kernels by their names here, and
its result file records `BACKEND`.
"""

from __future__ import annotations

# `math.prod`, not `from math import prod`: CPython 3.11 compiles method
# calls on a local named like a module-level import (family_join's
# `prod`) as plain attribute loads, about 20% slower there.
import math
from itertools import product
from operator import add

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
    size = lambda group: math.prod(highs[v] - lows[v] + 1 for v in group)
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


def family_join(vectors, lo, hi, basis):
    """Closure triples of a coefficient-bounded polynomial family.

    vectors: dense coefficient tuples over `basis` (exponent tuples),
    listed in their enumeration order.  Returns (adds, muls):
    adds holds every (a, b, c) with a <= b and vector[a] + vector[b] ==
    vector[c]; muls the same for polynomial products that land back in the
    family.  Indices refer to positions in `vectors`.
    """
    width = len(basis)
    index_of = {vec: t for t, vec in enumerate(vectors)}
    basis_pos = {e: t for t, e in enumerate(basis)}
    # Exponent sum of every basis pair, precomputed once.
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
            # Exact product; out-of-basis monomials may cancel, so collect
            # everything before deciding membership.
            prod: dict = {}
            for t1, c1 in nza:
                row = prod_exp[t1]
                for t2, c2 in nonzero[b]:
                    e = row[t2]
                    prod[e] = prod.get(e, 0) + c1 * c2
            vec = [0] * width
            member = True
            for e, c in prod.items():
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
