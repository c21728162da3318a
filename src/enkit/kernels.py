"""The hot loops: box-root enumeration, family closure, bulk equation checks.

One pure-Python implementation with exact arbitrary-precision arithmetic,
so there is no overflow story to manage.  The end-to-end benchmark
(`e2ebench/run.py --trace 1`) reports the self time of each kernel per
layer; a compiled variant belongs here only if those numbers justify it.

The benchmark's tracer wraps the three kernels by their names here, and
its result file records `BACKEND`.
"""

from __future__ import annotations

from itertools import product

BACKEND = "pure"


def grid_roots(exps, coeffs, lows, highs):
    """All points of the box where the sparse polynomial vanishes.

    exps: sequence of exponent tuples; coeffs: matching coefficients;
    lows/highs: per-variable inclusive bounds.  Points come out in
    lexicographic order.
    """
    arity = len(lows)
    if arity == 0:
        value = sum(coeffs)
        return [()] if value == 0 else []
    for lo, hi in zip(lows, highs):
        if lo > hi:
            return []
    # Per-variable power tables, indexed by (value - lo, exponent).
    max_exp = [max((e[i] for e in exps), default=0) for i in range(arity)]
    pows = []
    for i in range(arity):
        table = []
        for v in range(lows[i], highs[i] + 1):
            table.append([v**e for e in range(max_exp[i] + 1)])
        pows.append(table)
    terms = list(zip(exps, coeffs))
    roots = []
    offsets = [range(highs[i] - lows[i] + 1) for i in range(arity)]
    base = tuple(lows)
    for offs in product(*offsets):
        total = 0
        for e, c in terms:
            term = c
            for i in range(arity):
                ei = e[i]
                if ei:
                    term *= pows[i][offs[i]][ei]
            total += term
        if total == 0:
            roots.append(tuple(base[i] + offs[i] for i in range(arity)))
    return roots


def check_equations(ops, ii, jj, kk, values):
    """Index of the first violated equation, or -1 if all hold.

    ops[t] is 0 (x_i = 1), 1 (x_i + x_j = x_k) or 2 (x_i * x_j = x_k);
    values is indexed 1-based (values[0] is ignored).
    """
    for t in range(len(ops)):
        op = ops[t]
        if op == 0:
            if values[ii[t]] != 1:
                return t
        elif op == 1:
            if values[ii[t]] + values[jj[t]] != values[kk[t]]:
                return t
        else:
            if values[ii[t]] * values[jj[t]] != values[kk[t]]:
                return t
    return -1


def family_join(vectors, lo, hi, basis, bounds):
    """Closure triples of a coefficient-bounded polynomial family.

    vectors: dense coefficient tuples over `basis` (exponent tuples, all
    <= bounds), listed in their enumeration order.  Returns (adds, muls):
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
