import hashlib
import random
import re
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enkit.eqio import parse_polynomial
from enkit.errors import (CertificateMismatch, FamilyTooLarge, FormatError,
                          ParseError, UnusedVariable, ZeroPolynomial)
from enkit.poly import Polynomial
from enkit.reductions import (MODES, FamilyDescriptor, ReductionCertificate,
                              anchor_shape, build_compact_n,
                              build_compact_z, build_full_n, build_full_z,
                              build_halved_z, build_master_z,
                              build_reduction, b_polynomial,
                              compact_bound, enumerate_t, family_descriptor,
                              master_arity, parse_certificate,
                              serialize_certificate, split_signs,
                              validate_certificate)
from enkit.system import ADD, ONE, Add, Mul, One, serialize, validate


def P(text, arity=None):
    return parse_polynomial(text, arity)


# --------------------------------------------------------------------------
# family counting and enumeration

def test_card_examples():
    assert FamilyDescriptor(1, -2, 2, (1,)).cardinality() == 25
    assert FamilyDescriptor(2, 0, 0, (3, 3)).cardinality() == 1
    assert FamilyDescriptor(2, 0, 4, (1, 1)).cardinality() == 625


@pytest.mark.parametrize("desc, card", [
    (FamilyDescriptor(1, 0, 9, (4298,)), 10**4299),
    (FamilyDescriptor(1, 0, 9, (4299,)), "10^4300"),
    (FamilyDescriptor(1, -2, 2, (2**31 - 1,)), "5^2147483648"),
    (FamilyDescriptor(1, -10**4300, 10**4300, (1,)), "over 10^4300"),
    (FamilyDescriptor(470, -1, 1, (2**31 - 1,) * 470), "over 10^4300"),
], ids=["4300-digits", "4301-digits", "exponent", "wide", "long-exponent"])
def test_card_past_printing_is_text(desc, card):
    # Python prints ints of at most 4300 digits; past that a cardinality is
    # named, and a large exponent alone shows it without the power.
    assert desc.cardinality() == card
    with pytest.raises(FamilyTooLarge) as refused:
        enumerate_t(desc, cap=10**6)
    assert str(refused.value) == (
        f"family cardinality {card} exceeds limit 1000000")


def test_family_descriptor_modes():
    d = P("x1 - x2")
    desc, anchored = family_descriptor(d, "full_Z")
    assert desc == FamilyDescriptor(2, -2, 2, (1, 1))
    assert anchored == [d.scaled(2)]
    desc, anchored = family_descriptor(d, "halved_Z")
    assert desc == FamilyDescriptor(2, -1, 1, (1, 1))
    assert anchored == [d]
    # B = 3*x1 + 3*x2 and A = D + B = 4*x1 + 2*x2
    desc, anchored = family_descriptor(d, "full_N")
    assert desc == FamilyDescriptor(2, 0, 4, (1, 1))
    assert anchored == [Polynomial.zero(2), P("4*x1 + 2*x2"),
                        P("3*x1 + 3*x2")]
    with pytest.raises(ValueError):
        family_descriptor(d, "compact_Z")


def test_enumerate_constants():
    got = enumerate_t(FamilyDescriptor(1, -1, 1, (0,)))
    assert got == [Polynomial.constant(1, -1), Polynomial.zero(1),
                   Polynomial.constant(1, 1)]


def test_enumerate_linear_family():
    got = enumerate_t(FamilyDescriptor(1, -2, 2, (1,)))
    assert len(got) == 25
    assert P("2*x1") in got
    assert P("-2", 1) in got
    assert len({poly.key() for poly in got}) == 25


def test_enumerate_refuses_oversized():
    desc = FamilyDescriptor(2, -5, 5, (9, 9))
    with pytest.raises(FamilyTooLarge):
        enumerate_t(desc, cap=10**6)


def test_enumeration_matches_card():
    for desc in [FamilyDescriptor(1, -1, 1, (2,)),
                 FamilyDescriptor(2, 0, 3, (1, 1)),
                 FamilyDescriptor(2, -2, 2, (1, 1))]:
        assert len(enumerate_t(desc)) == desc.cardinality()


# --------------------------------------------------------------------------
# full-family construction

def test_full_z_difference():
    d = P("x1 - x2")
    system, cert = build_full_z(d)
    assert system.n == 625
    assert cert.mode == "full_Z"
    assert cert.defs[cert.anchor[0]] == d.scaled(2)
    assert Add(cert.anchor[0], cert.anchor[0], cert.anchor[0]) in set(
        system.equations)
    assert validate(system) == []
    # tau is injective and hits the whole family minus the variables
    assert len(cert.defs) == 623
    keys = {poly.key() for poly in cert.defs.values()}
    assert len(keys) == 623


@pytest.mark.parametrize("build", [build_full_z, build_full_n])
def test_full_family_keeps_mul_beside_equal_add(build):
    # 0 + 0 = 0 and 0 * 0 = 0 are two identities of the zero member, and so
    # are 2 + 2 = 4 and 2 * 2 = 4 of the constants 2 and 4 (members of the
    # full_N family [0, 4] of x1 - x2).
    system, cert = build(P("x1 - x2"))
    index = {poly.key(): i for i, poly in cert.defs.items()}
    z = index[Polynomial.zero(2).key()]
    expected = [f"ADD {z} {z} {z}", f"MUL {z} {z} {z}"]
    if build is build_full_n:
        two = index[Polynomial.constant(2, 2).key()]
        four = index[Polynomial.constant(2, 4).key()]
        assert (z, two, four) == (3, 251, 501)
        expected += ["ADD 251 251 501", "MUL 251 251 501"]
    lines = serialize(system).splitlines()
    for line in expected:
        assert line in lines


# sha256 of the .ens and .cert texts of every family the benchmark
# reduces: its four sources under each full mode.  The variables, and over
# N also the zero node, A and B, take the lowest indices, so the identities
# that meet them are the rows whose operands the builder swaps.
FULL_FAMILY_DIGESTS = [
    ("full_Z", "x1 - x2",
     "1e88ee5e5f5b587fa7c136a53900dd8473a197a23376a12c0c6a6a05349468d0",
     "a97d3ed83f97f19bc317549ab80fb8b58a7669b90e97423aa843ff3081a1ba48"),
    ("halved_Z", "x1 - x2",
     "14d43a4cb62fde619cfe860aa376e70f63d34122d2b857a972f7113bda365c9a",
     "93bcef81b4f3d431e40cb0e294294602526431f38fbb65877a6d4d67aee54a91"),
    ("full_N", "x1 - x2",
     "82b1f5e2f7813efbb8bc38a89da28476d537fc6fa5ffaaff4e41e023b0a6c5cc",
     "38acab7a02a308ec319dbad79c52e14acc87959eecbbc8e2d12e5d42dbe0b297"),
    ("full_Z", "x1*x2 - 1",
     "c603181b1caf54850eb00a111dba8175389a0ccecc65d9c8685a40ef85f63466",
     "98c071802117defd016d2012b9db980321f065f58cbab6314c76bb873eaf378b"),
    ("halved_Z", "x1*x2 - 1",
     "14425270238f61476460b9dcdbb16a1d87adcbc42ddecf2115c4d4efb916418f",
     "98c3b93bc93af1ee75c615c3132220b72b1a5597ff860cd825c1c4dffd325749"),
    ("full_N", "x1*x2 - 1",
     "71e380dbd63097d2ac8bbf8681b534463242493f411af4aa80de12e505e1040a",
     "16188d2598aca342641216d67cdeb70877fa75fe3c9a22cf7068377e9e829429"),
    ("full_Z", "x1 - 1",
     "667b52e7c07481e7935bf13f2a7b9f42746c38ae9a9cfccfac8c33d7dc33fb01",
     "8cb78862b25dfab0fcc3972a9face1a5af9c313bc5ef5a7039e7d4b529444f7e"),
    ("halved_Z", "x1 - 1",
     "1e23840a34ac49ad5db78a8a4c4c2d5ff5905d9b56355a5de3443f405c9f1374",
     "40e203c275a5aa667624687e44c814ccb95dd4f47fc8575385f74949601bfbae"),
    ("full_N", "x1 - 1",
     "0e38d8e3f16cf7ebb8abc35b9e04ccf08922979191b28d7562be28b2231d5593",
     "a5dd5e39190a3a9eb6000bc2ed3c4e2ec46095fe6af1dc90a185ea5f7dd06460"),
    ("full_Z", "x1^2 - 2",
     "4388934636b8de52c59697669c0f69aa6e6100da5cf64069f214580a52aec677",
     "f5ee6ff5018d0b3799235ab63df4100c65d1e81114c8cacd3dd94fa3eac57308"),
    ("halved_Z", "x1^2 - 2",
     "95fa74ba076a57e106e7ee7a597a44e18823d3e2667067ef47b6ab18ba800fc6",
     "70598a5b3982d77caa12f4aa50473c71f40cc6736fdfcaff19fd39f107d7d311"),
    ("full_N", "x1^2 - 2",
     "ce8de44899a42e31913825945587eef11c6a967cdafb90c13817471c3c31f609",
     "bfb8fb8137b4749ba314cdd1b93a97e0a9ed341462d8309ef784fd598f5b9ac8"),
]


@pytest.mark.parametrize("mode,text,ens_digest,cert_digest",
                         FULL_FAMILY_DIGESTS,
                         ids=[f"{mode}-{text}"
                              for mode, text, *_ in FULL_FAMILY_DIGESTS])
def test_full_family_outputs_byte_identical(mode, text, ens_digest,
                                            cert_digest):
    system, cert = build_reduction(P(text), mode)
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert sha(serialize(system)) == ens_digest
    assert sha(serialize_certificate(cert)) == cert_digest


def _battery_polynomials(seed):
    """Criterion-4 style polynomials, drawn as the compact battery draws
    them: arity 1 to 3, one to four distinct monomials of degree at most 2
    per variable with x_p among them, and coefficients of magnitude 1 to
    4 and either sign."""
    rng = random.Random(seed)
    for p in (1, 2, 3):
        for t in range(20):
            count = 1 + t % min(4, 3 ** p)
            exps = set()
            while len(exps) != count or not any(e[p - 1] for e in exps):
                exps = {tuple(rng.randint(0, 2) for _ in range(p))
                        for _ in range(count)}
            yield Polynomial(p, {e: rng.choice((-1, 1)) * rng.randint(1, 4)
                                 for e in sorted(exps)})


# A system keeps the rows its builder gives it, so no builder may give a
# row twice.
@pytest.mark.parametrize("mode", ["compact_Z", "compact_N"])
def test_compact_builders_make_distinct_rows(mode):
    for d in _battery_polynomials(mode):
        rows = build_reduction(d, mode)[0].rows
        assert len(set(rows)) == len(rows), d


@pytest.mark.parametrize("mode,text", [(mode, text) for mode, text, *_
                                       in FULL_FAMILY_DIGESTS],
                         ids=[f"{mode}-{text}"
                              for mode, text, *_ in FULL_FAMILY_DIGESTS])
def test_full_family_makes_distinct_rows(mode, text):
    rows = build_reduction(P(text), mode)[0].rows
    assert len(set(rows)) == len(rows)


def _assert_identities(system, cert, rng, points, equations):
    for _ in range(points):
        point = tuple(rng.randint(-7, 7) for _ in range(cert.p))
        values = {i + 1: v for i, v in enumerate(point)}
        values.update(
            {s: poly.eval_at(point) for s, poly in cert.defs.items()})
        for kind, i, j, k in equations:
            if kind == ONE:
                assert values[i] == 1
            elif kind == ADD:
                assert values[i] + values[j] == values[k]
            else:
                assert values[i] * values[j] == values[k]


def test_full_family_identity_soundness():
    rng = random.Random(7)
    # Every equation of the halved family for x1 - x2 (81 members) is a
    # polynomial identity under the naming, at 100 random points.
    d = P("x1 - x2")
    system, cert = build_halved_z(d)
    anchor = Add(cert.anchor[0], cert.anchor[0], cert.anchor[0])
    equations = [eq for eq in system.equations if eq != anchor]
    _assert_identities(system, cert, rng, 100, equations)
    # The 625-member family is checked on a sample of its equations.
    system, cert = build_full_z(d)
    anchor = Add(cert.anchor[0], cert.anchor[0], cert.anchor[0])
    equations = [eq for eq in system.equations if eq != anchor]
    _assert_identities(system, cert, rng, 20, rng.sample(equations, 500))


@pytest.mark.parametrize("text, build, members", [
    ("x1 - x2", build_halved_z, 81),
    ("x1^2 - 2", build_halved_z, 125),
    ("x1 - 1", build_full_n, 25),
], ids=["halved_Z(x1 - x2)", "halved_Z(x1^2 - 2)", "full_N(x1 - 1)"])
def test_full_family_identity_completeness(text, build, members):
    # Under the certificate's naming, every atomic identity among the
    # members, found by Polynomial arithmetic over all pairs, is an
    # equation, and the anchor is the only other one.
    system, cert = build(P(text))
    assert system.n == members
    name = {i: Polynomial.variable(cert.p, i) for i in range(1, cert.p + 1)}
    name.update(cert.defs)
    index = {poly: i for i, poly in name.items()}
    identities = {One(i) for i, poly in name.items()
                  if poly == Polynomial.constant(cert.p, 1)}
    for i in range(1, members + 1):
        for j in range(i, members + 1):
            for kind, value in ((Add, name[i] + name[j]),
                                (Mul, name[i] * name[j])):
                k = index.get(value)
                if k is not None:
                    identities.add(kind(i, j, k))
    if len(cert.anchor) == 1:
        anchor = Add(cert.anchor[0], cert.anchor[0], cert.anchor[0])
    else:
        anchor = Add(*cert.anchor)
    assert anchor not in identities
    assert set(system.equations) == identities | {anchor}


def test_full_z_rejects_degenerate():
    with pytest.raises(ZeroPolynomial):
        build_full_z(Polynomial.zero(2))
    with pytest.raises(UnusedVariable):
        build_full_z(P("x1 - 1", arity=2))
    with pytest.raises(FamilyTooLarge):
        build_full_z(P("5*x1^9*x2^9 - 1"))


def test_halved_variants():
    system, cert = build_halved_z(P("x1"))
    assert cert.anchor[0] == 1
    assert system.n == 9
    assert Add(1, 1, 1) in set(system.equations)

    system, cert = build_halved_z(P("x1 - x2"))
    assert system.n == 81
    assert cert.defs[cert.anchor[0]] == P("x1 - x2")

    system, cert = build_halved_z(P("3*x1"))
    assert system.n == 49


def test_full_n_recipe():
    d = P("x1 - x2")
    system, cert = build_full_n(d)
    assert system.n == 625
    assert cert.defs[cert.anchor[0]].is_zero()
    assert cert.defs[cert.anchor[1]] == P("4*x1 + 2*x2")
    assert cert.defs[cert.anchor[2]] == P("3*x1 + 3*x2")
    eqs = set(system.equations)
    assert Add(3, 3, 3) in eqs          # the zero node's self-equation
    assert Add(3, 4, 5) in eqs          # the anchored A = B equality
    assert validate(system) == []


def test_b_polynomial_recipe():
    assert b_polynomial(P("x1*x2 - 1")) == P("3*x1*x2 + 3")
    d = P("x1*x2 - 1")
    a = d + b_polynomial(d)
    assert a == P("4*x1*x2 + 2")
    assert b_polynomial(P("-x1")) == P("3*x1")
    assert P("-x1") + b_polynomial(P("-x1")) == P("2*x1")


# --------------------------------------------------------------------------
# compact chains

def test_compact_z_difference():
    system, cert = build_compact_z(P("x1 - x2"))
    assert system.n == 3
    assert set(system.equations) == {Add(2, 3, 1), Add(3, 3, 3)}
    assert cert.anchor[0] == 3
    assert cert.defs[3] == P("x1 - x2")


def test_compact_z_square_difference():
    system, cert = build_compact_z(P("x1*x1 - x2"))
    assert system.n == 4
    assert cert.defs[cert.anchor[0]] == P("x1^2 - x2")
    assert Mul(1, 1, 3) in set(system.equations)


def test_compact_z_constant_chain():
    # 2*x1 + 3: nodes for 1, 2, 2*x1, 3, 2*x1 + 3
    system, cert = build_compact_z(P("2*x1 + 3"))
    assert system.n == 6
    built = {poly.key() for poly in cert.defs.values()}
    for text in ("1", "2", "2*x1", "3", "2*x1 + 3"):
        assert P(text, arity=1).key() in built
    assert cert.defs[cert.anchor[0]] == P("2*x1 + 3")


def test_compact_z_single_variable():
    system, cert = build_compact_z(P("x1"))
    assert system.n == 1
    assert cert.anchor[0] == 1
    assert set(system.equations) == {Add(1, 1, 1)}
    assert cert.defs == {}


def test_compact_z_leading_negative_term():
    system, cert = build_compact_z(P("-x1 + x2"))
    assert cert.defs[cert.anchor[0]] == P("-x1 + x2")
    zero_nodes = [s for s, poly in cert.defs.items() if poly.is_zero()]
    assert len(zero_nodes) == 1


def test_compact_certificates_injective():
    for text in ("x1 - x2", "2*x1 + 3", "x1^2*x2 - 4*x1 + x2^2 - 7"):
        for build in (build_compact_z, build_compact_n):
            _, cert = build(P(text))
            keys = {poly.key() for poly in cert.defs.values()}
            assert len(keys) == len(cert.defs)


def test_compact_n_difference():
    system, cert = build_compact_n(P("x1 - x2"))
    assert system.n == 3
    assert set(system.equations) == {Add(3, 3, 3), Add(2, 3, 1)}
    assert cert.anchor[0] == 3
    assert cert.anchor[1] == 1   # positive side is x1 itself
    assert cert.anchor[2] == 2


def test_compact_n_split():
    pos, neg = split_signs(P("x1^2 - 2*x2 + 3"))
    assert pos == P("x1^2 + 3", arity=2)
    assert neg == P("2*x2", arity=2)
    system, cert = build_compact_n(P("x1^2 - 2*x2 + 3"))
    assert cert.defs[cert.anchor[1]] == pos
    assert cert.defs[cert.anchor[2]] == neg


def test_compact_n_one_sided():
    # All-negative polynomial: the positive side is the zero node itself.
    system, cert = build_compact_n(P("-x1 - 1"))
    assert cert.anchor[1] == cert.anchor[0]
    system, cert = build_compact_n(P("x1 + 1"))
    assert cert.anchor[2] == cert.anchor[0]


def test_compact_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        build_compact_n(Polynomial.zero(1))


def test_compact_chain_linear_growth():
    # n stays linear-ish in the input size, nothing like the families.
    d = P("7*x1^2*x2 - 5*x1*x2^2 + 3*x2 - 11")
    system, _ = build_compact_z(d)
    assert system.n < 40


def _compact_corpus():
    yield from map(P, [
        "x1 - x2", "x1", "-x1", "x1^2 - 2", "7 - x1", "-7 + x1*x2",
        # constants sharing low bits share partial sums (7: 3, 7; 15: 3,
        # 7, 15; 13: 5, 13; 45: 13, 45)
        "7*x1 + 15*x2 - 13", "45*x1^3 - 13*x1 + 7 - 15*x2",
        "x1^5*x2^3 - x1^5*x2 + x1^2*x2^4 - 3*x2^4 + 1024*x1"])
    rng = random.Random(41)
    for _ in range(300):
        p = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = tuple(rng.randint(0, 3) for _ in range(p))
            coeff = rng.choice([1, 2, 3, 7, 13, 15, 45, 64, 127,
                                rng.randint(1, 5000)])
            terms[exps] = terms.get(exps, 0) + rng.choice([-1, 1]) * coeff
        if any(terms.values()):
            yield Polynomial(p, terms)


def test_compact_bound_covers_the_built_chain():
    for d in _compact_corpus():
        for build in (build_compact_z, build_compact_n):
            system, _ = build(d)
            assert system.n <= compact_bound(d), (str(d), build.__name__)


@pytest.mark.parametrize("build", [build_compact_z, build_compact_n],
                         ids=["compact_Z", "compact_N"])
def test_compact_cap_refuses_before_building(build):
    d = P("x1^3 - 5*x1*x2 + 2")
    bound = compact_bound(d)
    assert build(d, cap=bound)[0].n <= bound
    with pytest.raises(FamilyTooLarge) as refused:
        build(d, cap=bound - 1)
    assert str(refused.value) == \
        f"compact chain variable bound {bound} exceeds limit {bound - 1}"
    # three million multiplications would be needed; the bound is instant
    with pytest.raises(FamilyTooLarge):
        build(P("x1^3000000 - 2"), cap=10**6)


@pytest.mark.parametrize("text,builder,domain,radius", [
    ("x1 + x2", build_halved_z, "Z", 2),
    ("x1*x2 - 1", build_halved_z, "Z", 2),
    ("x1^2 - 2", build_halved_z, "Z", 3),
    ("2*x1", build_full_z, "Z", 3),
    ("x1 - 1", build_full_z, "Z", 3),
    ("x1*x2 - 1", build_full_n, "N", 2),
    ("-x1", build_full_n, "N", 3),
    ("x1^2 - 2", build_full_n, "N", 3),
])
def test_full_family_equivalence_battery(text, builder, domain, radius):
    from enkit.oracle import Box, check_equivalence
    d = P(text)
    system, cert = builder(d)
    box = (Box.cube(d.arity, radius) if domain == "Z"
           else Box.cube_nonneg(d.arity, radius))
    report = check_equivalence(d, system, cert, box, domain)
    assert report.passed, report.failures


# --------------------------------------------------------------------------
# certificates on disk

@pytest.mark.parametrize("build,source", [
    (build_compact_z, "x1 - x2"),
    (build_compact_n, "x1^2 - 2*x2 + 3"),
    (build_halved_z, "x1 - x2"),
    (build_full_n, "x1 - x2"),
])
def test_certificate_roundtrip(build, source):
    _, cert = build(P(source))
    text = serialize_certificate(cert)
    back = parse_certificate(text)
    assert back == cert
    assert serialize_certificate(back) == text


CERT_HEAD = "CERT 1\nmode compact_Z\n"


@pytest.mark.parametrize("text, message", [
    # int() would read p = 1, n = 5 and a definition of index 3
    (CERT_HEAD + "p \u0661\nn 0_5\n\u0663 x1\nANCHOR q 3\n",
     "bad certificate header line 'p \u0661'"),
    (CERT_HEAD + "p 1\nn 0_5\n3 x1\nANCHOR q 3\n",
     "bad certificate header line 'n 0_5'"),
    (CERT_HEAD + "p 1\nn +3\n3 x1\nANCHOR q 3\n",
     "bad certificate header line 'n +3'"),
    (CERT_HEAD + "p 1\nx 3\n3 x1\nANCHOR q 3\n",
     "certificate header has no 'n' line"),
    (CERT_HEAD + "p 1\nn 3\n\u0663 x1\nANCHOR q 3\n",
     "bad definition line '\u0663 x1'"),
    (CERT_HEAD + "p 1\nn 3\n+3 x1\nANCHOR q 3\n",
     "bad definition line '+3 x1'"),
    (CERT_HEAD + "p 1\nn 3\n3 x1\nANCHOR q +3\n",
     "bad ANCHOR line 'ANCHOR q +3'"),
    (CERT_HEAD + "p 1\nn 3\n3 x1\nANCHOR q \u0663\n",
     "bad ANCHOR line 'ANCHOR q \u0663'"),
    (CERT_HEAD + "p 1\nn 3\n3 x1\nANCHOR N 1 2 3_0\n",
     "bad ANCHOR line 'ANCHOR N 1 2 3_0'"),
    (CERT_HEAD + "p 1\nn 3\n3 x1\nANCHOR \n", "bad ANCHOR line 'ANCHOR '"),
    (CERT_HEAD + "p 1\nn 3\n3 x1\nANCHOR q\t\n",
     "bad ANCHOR line 'ANCHOR q\\t'"),
])
def test_certificate_integers_are_ascii_digits(text, message):
    with pytest.raises(FormatError) as err:
        parse_certificate(text)
    assert str(err.value) == message


@pytest.mark.parametrize("depth", [300, 10_000])
def test_certificate_with_deep_parentheses(depth):
    text = (CERT_HEAD + "p 1\nn 2\n2 " + "(" * depth + "x1" + ")" * depth
            + "\nANCHOR q 2\n")
    with pytest.raises(ParseError) as err:
        parse_certificate(text)
    assert "nested deeper than 100" in str(err.value)


@pytest.mark.parametrize("mode, anchor", [
    ("compact_Z", ()), ("compact_Z", (3, 1, 2)), ("full_Z", [3]),
    ("compact_N", (3,)), ("full_N", ()), ("compact_N", (3, 1)),
])
def test_certificate_anchor_has_its_modes_shape(mode, anchor):
    defs = {2: P("x1"), 3: P("x1")}
    with pytest.raises(ValueError) as err:
        ReductionCertificate(mode, 1, 3, defs, anchor)
    size = 1 if mode.endswith("_Z") else 3
    assert str(err.value) == (f"mode {mode} takes an anchor of length "
                              f"{size}, not {anchor!r}")
    cert = ReductionCertificate(mode, 1, 3, defs, (3,) * size)
    with pytest.raises(FrozenInstanceError):
        cert.anchor = (2,) * size


@pytest.mark.parametrize("mode, line", [
    ("compact_Z", "ANCHOR N 3"), ("halved_Z", "ANCHOR N 3 2 1"),
    ("full_N", "ANCHOR q 3 2 1"), ("compact_N", "ANCHOR q 3"),
], ids=["Z-tag-N", "Z-three-indices", "N-tag-q", "N-one-index"])
def test_certificate_anchor_line_has_its_modes_tag(mode, line):
    with pytest.raises(FormatError) as err:
        parse_certificate(f"CERT 1\nmode {mode}\np 1\nn 3\n2 x1\n3 x1\n"
                          f"{line}\n")
    assert str(err.value) == f"bad ANCHOR line {line!r}"
    # An unknown mode is named before the anchor line is read.
    with pytest.raises(ValueError) as err:
        parse_certificate(f"CERT 1\nmode Z\np 1\nn 3\n2 x1\n3 x1\n{line}\n")
    assert str(err.value) == "unknown mode 'Z'"


@pytest.mark.parametrize("p, n, defs, anchor, message", [
    (1, 2, {2: P("x1 + x2 + x3")}, 2,
     "certificate defines index 2 in 3 variables, not p = 1"),
    (-1, 1, {1: P("1", arity=0)}, 1, "certificate has no definition for "
                                     "index 0"),
    (1, 2, {2: P("x1")}, 3, "certificate anchor index 3 outside [1, 2]"),
    (2, 1, {}, 1, "certificate has p 2, more than its n 1"),
], ids=["arity", "p=-1", "anchor", "p>n"])
def test_certificate_writer_refuses_what_readers_refuse(p, n, defs, anchor,
                                                          message):
    for mode in ("compact_Z", "compact_N"):
        cert = ReductionCertificate(mode, p, n, defs,
                                    (anchor,) * anchor_shape(mode)[1])
        with pytest.raises(CertificateMismatch) as err:
            serialize_certificate(cert)
        assert str(err.value) == message


@st.composite
def _certificates(draw):
    """Certificate fields drawn wider than any builder's output: every
    mode, an anchor of either shape or none, p and n from -1, and
    definitions in p variables or in 3, their indices covering (p, n] or
    drawn at random.  Most draws are near a valid certificate."""
    mode = draw(st.sampled_from(MODES))
    p = draw(st.integers(-1, 3))
    n = p + draw(st.integers(-2, 4))
    covering = st.just(range(p + 1, n + 1))
    indices = draw(st.one_of(covering, covering, covering, st.lists(
        st.integers(-1, 7), max_size=5, unique=True)))
    defs = {}
    for index in indices:
        arity = draw(st.sampled_from([max(p, 0)] * 5 + [3]))
        exps = st.tuples(*[st.integers(0, 3)] * arity)
        defs[index] = Polynomial(arity, draw(st.dictionaries(
            exps, st.integers(-9, 9), max_size=4)))
    size = anchor_shape(mode)[1]
    size = draw(st.sampled_from([size, size, size, 4 - size, 0]))
    index = st.integers(1, max(n, 1)) | st.integers(-1, max(n + 1, 0))
    return mode, p, n, defs, tuple(draw(index) for _ in range(size))


@settings(max_examples=300, deadline=None)
@given(_certificates())
@example(("compact_Z", 1, 2, {2: P("x1 + x2 + x3")}, (2,)))
@example(("compact_N", 1, 2, {2: P("x1")}, (0, 1, 2)))
@example(("halved_Z", -1, 0, {}, (0,)))
@example(("full_N", 1, 3, {2: P("x1^2"), 3: P("0", arity=1)}, (3, 2, 1)))
def test_certificates_the_writer_accepts_read_back_equal(fields):
    try:
        cert = ReductionCertificate(*fields)
        text = serialize_certificate(cert)
    except (ValueError, FormatError):
        return
    assert parse_certificate(text) == cert
    validate_certificate(cert, cert.n)


# --------------------------------------------------------------------------
# the master polynomial

def test_master_shape():
    w = P("x1 - x2")
    master = build_master_z(w)
    assert master.arity == 10 == master_arity(2)
    # witness: x1 = x2 = 5 with 5 = 2^2 + 1^2
    assert master.eval_at((5, 5, 2, 1, 0, 0, 2, 1, 0, 0)) == 0
    # -1 is not a sum of four squares
    for quad in ((0, 0, 0, 0), (1, 0, 0, 0), (2, 1, 1, 3)):
        assert master.eval_at((-1, -1) + quad + quad) > 0


def test_master_nonnegative_everywhere():
    master = build_master_z(P("x1 - x2"))
    rng = random.Random(11)
    for _ in range(200):
        point = tuple(rng.randint(-5, 5) for _ in range(10))
        assert master.eval_at(point) >= 0


def test_master_existential_blocks():
    w = P("x1 + x3 - x2", arity=3)
    master = build_master_z(w)
    assert master.arity == 3 + 8 + 4
    # x1=2, x2=3, x3=1; quads: 2=1+1, 3=1+1+1, 1=1
    point = (2, 3, 1, 1, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0)
    assert master.eval_at(point) == 0


def test_master_needs_two_variables():
    with pytest.raises(ValueError):
        build_master_z(P("x1"))


@pytest.mark.parametrize("defs, message", [
    ({}, "no definition for index 2"),
    ({2: 0, 3: 0, 5: 0}, "no definition for index 4"),
    ({2: 0, 10**11 + 1: 0}, "defines index 100000000001 outside (1, "),
    ({1: 0, 7: 0}, "defines index 1 outside (1, "),
])
def test_validate_certificate_counts_instead_of_building_sets(defs, message):
    # n = 10^11: a set of the auxiliary indices would not fit in memory
    cert = replace(build_compact_z(P("x1 - 1"))[1], n=10**11, defs={
        index: Polynomial.constant(1, value) for index, value in defs.items()})
    with pytest.raises(CertificateMismatch, match=re.escape(message)):
        validate_certificate(cert, 10**11)


def test_validate_certificate_refuses_p_above_n():
    # With no definitions and p > n, nothing else would be out of place,
    # and a search over x1..xp would never end.
    cert = replace(build_compact_z(P("x1 - 1"))[1], p=10**11, defs={})
    with pytest.raises(CertificateMismatch,
                       match="certificate has p 100000000000, more than its "
                             "n 3"):
        validate_certificate(cert, 3)
