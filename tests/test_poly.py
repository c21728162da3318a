import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkit.errors import DimensionMismatch
from enkit.poly import Polynomial


def naive_eval(poly, point):
    """Independent term-by-term evaluator used as the oracle for eval_at."""
    total = 0
    for exps, coeff in poly.terms.items():
        total += coeff * math.prod(v**e for v, e in zip(point, exps))
    return total


@st.composite
def polynomials(draw, max_arity=3, max_exp=3, max_coeff=40, max_terms=5):
    arity = draw(st.integers(0, max_arity))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in range(arity))
        terms[exps] = draw(st.integers(-max_coeff, max_coeff))
    return Polynomial(arity, terms)


def points(arity, magnitude=30):
    return st.tuples(*(st.integers(-magnitude, magnitude),) * arity)


class TestEval:
    def test_zero_polynomial(self):
        assert Polynomial.zero(2).eval_at((5, 7)) == 0

    def test_difference_diagonal(self):
        d = Polynomial.variable(2, 1) - Polynomial.variable(2, 2)
        assert d.eval_at((3, 3)) == 0
        assert d.eval_at((4, 1)) == 3

    def test_hand_expansion(self):
        # 2*x1^2*x2 - 3 at (2, 5): 2*4*5 - 3
        p = Polynomial(2, {(2, 1): 2, (0, 0): -3})
        assert p.eval_at((2, 5)) == 37
        assert naive_eval(p, (2, 5)) == 37

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Polynomial.zero(2).eval_at((1,))

    @given(polynomials(), st.data())
    def test_matches_naive_evaluator(self, poly, data):
        point = data.draw(points(poly.arity))
        assert poly.eval_at(point) == naive_eval(poly, point)


class TestStructure:
    def test_degree_in(self):
        d = Polynomial.variable(2, 1) - Polynomial.variable(2, 2)
        assert d.degree_in(1) == 1
        p = Polynomial(2, {(2, 1): 2})
        assert p.degree_in(2) == 1
        assert Polynomial.zero(2).degree_in(1) == 0

    def test_degree_index_range(self):
        with pytest.raises(DimensionMismatch):
            Polynomial.zero(2).degree_in(3)

    def test_max_abs_coeff(self):
        p = Polynomial(2, {(1, 0): 2, (0, 1): -2})
        assert p.max_abs_coeff() == 2
        q = Polynomial(2, {(1, 0): 1, (0, 2): -5})
        assert q.max_abs_coeff() == 5
        assert Polynomial.zero(1).max_abs_coeff() == 0

    def test_zero_coefficients_dropped(self):
        p = Polynomial(1, {(1,): 3, (0,): 0})
        assert (0,) not in p.terms
        q = Polynomial.variable(1, 1).scaled(3) - Polynomial(1, {(1,): 3})
        assert q.is_zero()


class TestArithmetic:
    def test_scale(self):
        d = Polynomial.variable(2, 1) - Polynomial.variable(2, 2)
        assert d.scaled(2) == Polynomial(2, {(1, 0): 2, (0, 1): -2})

    def test_add_positive_recipe(self):
        # D + B with B carrying |a| + 2 on D's support
        d = Polynomial(2, {(1, 0): 1, (0, 1): -1})
        b = Polynomial(2, {(1, 0): 3, (0, 1): 3})
        assert d + b == Polynomial(2, {(1, 0): 4, (0, 1): 2})

    def test_square(self):
        p = Polynomial.variable(1, 1) - Polynomial.constant(1, 1)
        assert p.squared() == Polynomial(1, {(2,): 1, (1,): -2, (0,): 1})

    def test_arity_embedding(self):
        a = Polynomial.variable(1, 1)
        b = Polynomial.variable(3, 3)
        assert (a + b).arity == 3
        assert (a + b).eval_at((2, 9, 5)) == 7

    def test_pow(self):
        x = Polynomial.variable(1, 1)
        assert x**0 == Polynomial.constant(1, 1)
        assert (x + Polynomial.constant(1, 1)) ** 2 == \
            Polynomial(1, {(2,): 1, (1,): 2, (0,): 1})

    @settings(max_examples=60)
    @given(polynomials(max_arity=2), polynomials(max_arity=2), st.data())
    def test_eval_is_ring_homomorphism(self, p, q, data):
        arity = max(p.arity, q.arity)
        point = data.draw(points(arity, magnitude=12))
        pe = p.extended(arity).eval_at(point)
        qe = q.extended(arity).eval_at(point)
        assert (p + q).eval_at(point) == pe + qe
        assert (p - q).eval_at(point) == pe - qe
        assert (p * q).eval_at(point) == pe * qe

    @given(polynomials(max_arity=2), polynomials(max_arity=2))
    def test_degree_multiplicative(self, p, q):
        if p.is_zero() or q.is_zero():
            return
        arity = max(p.arity, q.arity)
        prod = p * q
        for i in range(1, arity + 1):
            assert prod.degree_in(i) == (p.extended(arity).degree_in(i)
                                         + q.extended(arity).degree_in(i))


class TestIdentity:
    def test_structural_equality_ignores_term_order(self):
        a = Polynomial(2, {(1, 0): 1, (0, 1): -1})
        b = Polynomial(2, {(0, 1): -1, (1, 0): 1})
        assert a == b
        assert hash(a) == hash(b)
        assert a.key() == b.key()

    def test_substituted(self):
        p = Polynomial(2, {(2, 1): 2, (0, 0): -3})
        fixed = p.substituted({1: 2})
        assert fixed == Polynomial(2, {(0, 1): 8, (0, 0): -3})
        assert fixed.substituted({2: 5}).eval_at((0, 0)) == 37

    @settings(max_examples=50, deadline=None)
    @given(polynomials())
    def test_pickle_roundtrip(self, p):
        hash(p)  # fills the cached key, which must survive the round trip
        back = pickle.loads(pickle.dumps(p))
        assert back == p and back.arity == p.arity
        assert hash(back) == hash(p) and back.key() == p.key()
