import random

import pytest

from enkit.errors import FormatError
from enkit.oracle import check_assignment
from enkit.system import (Add, EnSystem, Mul, One, deserialize, serialize,
                          validate)


def test_validate_index_out_of_range():
    problems = validate(EnSystem(2, [Add(1, 2, 3)]))
    assert len(problems) == 1
    assert "3" in problems[0]


def test_validate_ok():
    assert validate(EnSystem(3, [One(1), Add(1, 1, 2)])) == []
    assert validate(EnSystem(1, [Mul(1, 1, 1)])) == []


def test_constructors_store_commutative_order():
    # the constructors store i <= j
    assert tuple(Add(3, 2, 1)) == (2, 3, 1)
    assert tuple(Mul(5, 4, 2)) == (4, 5, 2)
    assert Add(3, 2, 1) == Add(2, 3, 1)
    s = EnSystem(3, [Add(3, 2, 1), Add(2, 3, 1)])
    assert s.equations == (Add(2, 3, 1),)


def test_kind_is_part_of_identity():
    assert Add(1, 1, 2) != Mul(1, 1, 2)
    assert not Add(1, 1, 2) == Mul(1, 1, 2)
    s = EnSystem(2, [One(1), Add(1, 1, 2), Mul(1, 1, 2), Add(1, 1, 2)])
    assert s.equations == (One(1), Add(1, 1, 2), Mul(1, 1, 2))
    text = serialize(s)
    assert text == "ENSYS 1\nn 2\nONE 1\nADD 1 1 2\nMUL 1 1 2\n"
    assert deserialize(text).equations == s.equations


def test_check_assignment_examples():
    s = EnSystem(1, [One(1)])
    assert check_assignment(s, {1: 1}, "Z").satisfied

    s = EnSystem(1, [Add(1, 1, 1)])
    assert check_assignment(s, {1: 0}, "Z").satisfied
    result = check_assignment(s, {1: 2}, "Z")
    assert result.status == "violated"
    assert result.equation == Add(1, 1, 1)

    s = EnSystem(2, [Mul(1, 1, 2)])
    assert check_assignment(s, {1: 3, 2: 9}, "N").satisfied


def test_check_assignment_incomplete_and_domain():
    s = EnSystem(2, [Add(1, 1, 2)])
    result = check_assignment(s, {1: 2}, "Z")
    assert result.status == "incomplete"
    assert result.missing == (2,)

    result = check_assignment(s, {1: -1, 2: -2}, "N")
    assert result.status == "violated"
    assert result.negatives == (1, 2)
    assert check_assignment(s, {1: -1, 2: -2}, "Z").satisfied


def test_check_assignment_monotone():
    # a violation visible in a partial assignment survives any extension
    s = EnSystem(3, [Add(1, 1, 2), Mul(1, 2, 3)])
    partial = check_assignment(s, {1: 2, 2: 5}, "Z")
    assert partial.status == "violated"
    assert partial.equation == Add(1, 1, 2)
    total = check_assignment(s, {1: 2, 2: 5, 3: 10}, "Z")
    assert total.status == "violated"
    assert total.equation == Add(1, 1, 2)


def test_serialize_golden():
    assert serialize(EnSystem(1, [One(1)])) == "ENSYS 1\nn 1\nONE 1\n"


def test_serialize_sorted_sections():
    s = EnSystem(4, [Mul(1, 2, 3), One(2), Add(2, 3, 4), Add(1, 1, 2), One(1)])
    assert serialize(s) == (
        "ENSYS 1\nn 4\n"
        "ONE 1\nONE 2\n"
        "ADD 1 1 2\nADD 2 3 4\n"
        "MUL 1 2 3\n")


def test_serialize_names():
    s = EnSystem(2, [Add(1, 1, 2)], names={2: "w", 1: "t1"})
    text = serialize(s)
    assert "# name 1 t1\n# name 2 w\n" in text
    assert deserialize(text).names == {1: "t1", 2: "w"}


def test_deserialize_errors():
    with pytest.raises(FormatError):
        deserialize("n 3\nADD 1 2 3\n")  # missing version header
    with pytest.raises(FormatError):
        deserialize("ENSYS 1\nn 3\nADD 1 2 9\n")  # index out of range
    with pytest.raises(FormatError):
        deserialize("ENSYS 1\nn 3\nn 3\n")  # duplicate header
    with pytest.raises(FormatError):
        deserialize("ENSYS 1\nADD 1 2 3\nn 3\n")  # equation before n
    with pytest.raises(FormatError):
        deserialize("ENSYS 1\nn 3\nSUB 1 2 3\n")


def random_system(rng):
    n = rng.randint(1, 9)
    equations = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.choice(["one", "add", "mul"])
        if kind == "one":
            equations.append(One(rng.randint(1, n)))
        elif kind == "add":
            equations.append(Add(*(rng.randint(1, n) for _ in range(3))))
        else:
            equations.append(Mul(*(rng.randint(1, n) for _ in range(3))))
    names = {}
    if rng.random() < 0.5:
        names[rng.randint(1, n)] = rng.choice(["w", "y", "t1", "z2"])
    return EnSystem(n, equations, names)


def test_roundtrip_random_systems():
    rng = random.Random(20260808)
    for _ in range(300):
        s = random_system(rng)
        text = serialize(s)
        back = deserialize(text)
        assert back == s
        assert serialize(back) == text
