"""The hot loops: box-root enumeration, family closure, bulk equation checks,
and column-wise polynomial evaluation and schedule runs.

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
from itertools import islice, product, repeat
from math import prod
from operator import add, le, mul

from .system import ADD, MUL, canonical_rows

BACKEND = "pure"

# Values a chunk of `chunks` holds at once: its points times the values
# each point needs (a side's coordinates and value in grid_roots,
# a system's n + 1 slots in oracle.check_equivalence).
CHUNK_VALUES = 1 << 16


def chunks(points, width):
    """(batch, columns) per chunk of the points: the chunk as a list of
    point tuples and as coordinate columns, one list per coordinate.

    A chunk holds one point, or as many as keep its points times `width`,
    the values each point needs, within `CHUNK_VALUES`.  Every box walked
    in chunks is walked here.
    """
    points = iter(points)
    size = max(1, CHUNK_VALUES // width)
    while batch := list(islice(points, size)):
        yield batch, list(map(list, zip(*batch)))


def grid_roots(exps, coeffs, lows, highs):
    """All points of the box where the sparse polynomial vanishes.

    exps: sequence of exponent tuples; coeffs: matching coefficients;
    lows/highs: per-variable inclusive bounds.  Points come out in
    lexicographic order.

    The variables split into groups: variables joined by a common monomial.
    A variable that occurs in no term is a group of its own.  The group
    with the largest box is one side and every other group together is the
    other; the side with the smaller box is tabulated value -> points and
    the other side is streamed, each of its points looking up the rest of
    the target.  The cost is the sum of the two side boxes, not their
    product, and the table holds at most the square root of the box.  Each
    side's sub-box is walked with `chunks` and its terms are evaluated
    with `eval_columns` over each chunk's columns.
    """
    constant = sum(c for e, c in zip(exps, coeffs) if not any(e))
    size = lambda side: prod(highs[v] - lows[v] + 1 for v in side)
    groups = _variable_groups(len(lows), exps, coeffs)
    largest = max(groups, key=size, default=[])
    rest = [v for group in groups if group is not largest for v in group]
    streamed, tabulated = sorted((largest, rest), key=size, reverse=True)
    table = {}
    for points, values in _side_values(exps, coeffs, tabulated, lows, highs):
        for value, point in zip(values, points):
            table.setdefault(value, []).append(point)
    order = sorted(range(len(lows)), key=(streamed + tabulated).__getitem__)
    roots = []
    for points, values in _side_values(exps, coeffs, streamed, lows, highs):
        for value, point in zip(values, points):
            for other in table.get(-constant - value, ()):
                flat = point + other
                roots.append(tuple(map(flat.__getitem__, order)))
    roots.sort()
    return roots


def _variable_groups(arity, exps, coeffs):
    """Variables joined by shared monomials, each group in increasing order.

    A variable that occurs in no term is a group of its own.
    """
    parent = list(range(arity))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e, c in zip(exps, coeffs):
        members = [v for v, k in enumerate(e) if k]
        if not (c and members):
            continue
        root = find(members[0])
        for v in members:
            parent[find(v)] = root
    groups = {}
    for v in range(arity):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def _side_values(exps, coeffs, side, lows, highs):
    """(points, values) per chunk of the side's sub-box, in lex order: the
    chunk's points, over the side's variables, and the side's part of the
    polynomial at each of them.

    Only the non-constant terms over the side's variables count.  Each
    point takes its coordinates and its value out of the chunk budget.
    """
    terms = {}
    for e, c in zip(exps, coeffs):
        key = tuple(e[v] for v in side)
        if any(key):
            terms[key] = terms.get(key, 0) + c
    box = product(*(range(lows[v], highs[v] + 1) for v in side))
    for points, columns in chunks(box, len(side) + 1):
        yield points, eval_columns([terms], columns)[0]


def check_equations(rows, values):
    """Index of the first violated equation, or -1 if all hold.

    rows: a system's rows (kind, i, j, k) with 1-based indices; values: a
    row indexed by variable (an assignment), known at every index they use.
    """
    for t, (kind, i, j, k) in enumerate(rows):
        if kind == ADD:
            if values[i] + values[j] != values[k]:
                return t
        elif kind == MUL:
            if values[i] * values[j] != values[k]:
                return t
        elif values[i] != 1:
            return t
    return -1


def run_schedule(template, steps, columns):
    """Values of a straight-line schedule run from a batch of base points.

    template: the n + 1 starting values (index 0 unused), holding the
    schedule's constants; columns: the base points' coordinates, one list
    per x_1..x_p (with p = 0 the batch is the one empty point);
    steps: tuples (op, a, b, k) with op a two-argument function, each
    setting column k to op over columns a and b, point by point, in order.
    Returns the n + 1 value columns.  Columns are never written in place,
    so equal constants share one column.
    """
    size = len(columns[0]) if columns else 1
    constants = {c: [c] * size for c in set(template)}
    values = list(map(constants.__getitem__, template))
    values[1:len(columns) + 1] = columns
    for op, a, b, k in steps:
        values[k] = list(map(op, values[a], values[b]))
    return values


def eval_columns(polys, columns):
    """Each polynomial's values at a batch of points, as one column each.

    polys: term mappings {exponent tuple: coefficient}; columns: the
    points' coordinates, one list per variable (with no variable the batch
    is the one empty point).  The powers of a coordinate column are
    computed once for all the polynomials.  Returned columns may share
    storage with `columns`.
    """
    size = len(columns[0]) if columns else 1
    powers = {}
    out = []
    for terms in polys:
        total = None
        for exps, coeff in terms.items():
            column = None
            for v, e in enumerate(exps):
                if not e:
                    continue
                power = powers.get((v, e))
                if power is None:
                    power = powers[v, e] = (
                        columns[v] if e == 1
                        else list(map(pow, columns[v], repeat(e))))
                column = power if column is None else list(
                    map(mul, column, power))
            if column is None:
                column = [coeff] * size
            elif coeff != 1:
                column = list(map(mul, column, repeat(coeff)))
            total = column if total is None else list(map(add, total, column))
        out.append([0] * size if total is None else total)
    return out


def family_join(vectors, lo, hi, basis, index):
    """The ADD and MUL rows that close a coefficient-bounded family.

    basis: the monomials of a degree box, exponent tuples in ascending
    lexicographic order; vectors: every coefficient vector over `basis`
    with entries in [lo, hi], in lexicographic order, so that a member's
    rank is its mixed-radix rank; index: each rank's variable index.
    Returns (adds, muls): adds holds the row of x_index[a] + x_index[b] =
    x_index[c] for every a <= b with vector[a] + vector[b] == vector[c];
    muls the same for polynomial products that land back in the family.
    Both lists are in (a, b) rank order.  Each member a extends three index
    columns, and `system.canonical_rows` zips them into rows in bulk,
    swapping the two operands of the rows where index[a] > index[b].

    The work grows with the number of pairs that can fit, not with the
    square of the member count.  A sum fits coordinate by coordinate, so
    each a visits only the sub-box of b with lo <= a_t + b_t <= hi, and the
    rank of the sum is a + b + lo * (sum of the rank weights).  Over Z the
    degree in each variable of a product is the sum of the factors'
    degrees, so each a visits only the b whose degrees add up to within the
    box, plus the zero member; every monomial of such a product is in the
    basis at the sum of the two positions, and only its coefficients need
    checking.
    """
    bounds = tuple(map(max, zip(*basis)))
    width = len(basis)
    radix = hi - lo + 1
    weights = [radix**(width - 1 - t) for t in range(width)]
    # rank(v) = sum(weights[t] * (v[t] - lo)) = sum(weights[t] * v[t]) - shift
    shift = lo * sum(weights)
    at = index.__getitem__

    # fits[t][x - lo]: rank offsets of the y with lo <= x + y <= hi
    fits = [[[w * (y - lo)
              for y in range(max(lo, lo - x), min(hi, hi - x) + 1)]
             for x in range(lo, hi + 1)] for w in weights]
    add_i, add_j, add_k = [], [], []
    for a, va in enumerate(vectors):
        partners = [0]
        for x, fit in zip(va, fits):
            partners = [r + s for r in partners for s in fit[x - lo]]
        row = partners[bisect_left(partners, a):]
        add_i.extend(repeat(index[a], len(row)))
        add_j.extend(map(at, row))
        add_k.extend(map(at, map(add, row, repeat(a + shift))))

    nonzero = [[(t, c) for t, c in enumerate(vec) if c] for vec in vectors]
    # Degree vector of each member; the zero member's is None.
    degrees = [tuple(map(max, zip(*(basis[t] for t, _ in terms))))
               if terms else None for terms in nonzero]
    classes = {}
    for a, key in enumerate(degrees):
        classes.setdefault(key, []).append(a)
    partners_of = {None: range(len(vectors))}
    for key in classes:
        if key is not None:
            partners_of[key] = sorted(
                b for other, members in classes.items()
                if other is None or all(map(le, map(add, key, other), bounds))
                for b in members)
    mul_i, mul_j, mul_k = [], [], []
    for a, terms in enumerate(nonzero):
        partners = partners_of[degrees[a]]
        found = len(mul_j)
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
                mul_j.append(index[b])
                mul_k.append(index[c])
        mul_i.extend(repeat(index[a], len(mul_j) - found))
    return (list(canonical_rows(ADD, add_i, add_j, add_k)),
            list(canonical_rows(MUL, mul_i, mul_j, mul_k)))
