import random
from functools import reduce

import pytest

from cmperiods.arith import (
    FPoly,
    Fq,
    canonical_modulus,
    ff_frobenius,
    is_irreducible,
    poly_roots,
    poly_roots_in_ext,
)
from cmperiods.errors import TargetTooSmall


def test_canonical_modulus_irreducible():
    for p, n in [(2, 1), (2, 4), (3, 2), (3, 3), (5, 2)]:
        mod = canonical_modulus(p, n)
        assert len(mod) - 1 == n
        assert is_irreducible(p, mod)


def _divides(p, d, f):
    # long division of f by the monic d over F_p, on digit lists
    r = list(f)
    for k in range(len(f) - len(d), -1, -1):
        c = r[k + len(d) - 1]
        if c:
            for i, di in enumerate(d):
                r[k + i] = (r[k + i] - c * di) % p
    return not any(r)


def _monic(p, n, low):
    # the monic polynomial of degree n whose lower digits encode low
    return [low // p**i % p for i in range(n)] + [1]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_irreducible_against_trial_division(p):
    # reference: f of degree n is irreducible iff no monic polynomial of
    # degree 1..n/2 divides it
    rng = random.Random(p)
    for n in range(1, 7):
        lows = range(p**n) if p**n <= 729 else rng.sample(range(p**n), 150)
        divisors = [_monic(p, k, low) for k in range(1, n // 2 + 1) for low in range(p**k)]
        for low in lows:
            f = _monic(p, n, low)
            expected = not any(_divides(p, d, f) for d in divisors)
            assert is_irreducible(p, f) == expected, f


# canonical_modulus(p, n) as the integer sum(c_i p^i), and Fq.gen, recorded
# before F_p[x] arithmetic moved onto FPoly; every field encoding and so
# every payload depends on them
RECORDED_FIELDS = {
    2: [(2, 1), (7, 2), (11, 2), (19, 2), (37, 2), (67, 2), (131, 2), (283, 3), (515, 7),
        (1033, 2), (2053, 2), (4105, 3), (8219, 2), (16417, 7), (32771, 2), (65579, 3)],
    3: [(3, 2), (10, 4), (34, 3), (86, 3), (250, 3), (734, 3), (2198, 5), (6572, 38),
        (19747, 3)],
    5: [(5, 2), (27, 6), (131, 9), (627, 6), (3146, 10), (15632, 5)],
    4093: [(4093, 2), (16752651, 4103)],
}


@pytest.mark.parametrize("p", sorted(RECORDED_FIELDS))
def test_canonical_moduli_and_generators_pinned(p):
    for n, (modulus, gen) in enumerate(RECORDED_FIELDS[p], start=1):
        assert sum(c * p**i for i, c in enumerate(canonical_modulus(p, n))) == modulus
        assert Fq.get(p, 1, n).gen == gen


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ValueError):
        Fq.get(2, 1, 2, modulus=(1, 0, 1))


def test_field_axioms_small():
    rng = random.Random(7)
    for p, a, m in [(2, 1, 3), (3, 1, 2), (5, 1, 2), (2, 2, 2)]:
        F = Fq.get(p, a, m)
        xs = [rng.randrange(F.size) for _ in range(24)]
        for x in xs:
            y = rng.randrange(F.size)
            z = rng.randrange(F.size)
            assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
            assert F.add(x, F.neg(x)) == 0
            if x:
                assert F.mul(x, F.inv(x)) == 1


def test_prime_field_add_neg_match_digit_vectors():
    # n = 1 adds and negates the ints directly; the digit-vector path is
    # the reference
    for p in (3, 5, 13, 31):
        F = Fq.get(p, 1, 1)
        for x in range(p):
            assert F.neg(x) == F._encode([(-d) % p for d in F._decode(x)])
            for y in range(p):
                assert F.add(x, y) == F._encode([(u + v) % p for u, v in zip(F._decode(x), F._decode(y))])


@pytest.mark.parametrize("p", [4099, 65521])
def test_prime_field_past_the_table_mul_inv_pow(p):
    # prime fields of more than 2^12 elements carry no log tables and
    # multiply, invert and raise to powers mod p; the digit-vector product
    # is the reference
    F = Fq.get(p, 1, 1)
    assert F._log is None
    rng = random.Random(p)
    xs = [1, 2, p - 1] + [rng.randrange(1, p) for _ in range(300)]
    for x in xs:
        y = rng.randrange(p)
        assert F.mul(x, y) == F._raw_mul(x, y)
        assert F.inv(x) == F._pow_raw(x, p - 2)
        assert F.mul(x, F.inv(x)) == 1
        for e in (0, 1, 2, p - 1, rng.randrange(3, 3 * p)):
            assert F.pow(x, e) == F._pow_raw(x, e)
        assert F.pow(x, -3) == F._pow_raw(F._pow_raw(x, p - 2), 3)
    assert F.mul(0, 5) == F.mul(5, 0) == 0 and F.pow(0, 4) == 0 and F.pow(0, 0) == 1


def test_small_extension_add_neg_tables_match_digit_vectors():
    # odd-characteristic extension fields of at most 256 elements add and
    # negate by table; the digit-vector sum is the reference, on every pair
    # of F_9, F_25 and F_27 and on sampled pairs of F_243
    rng = random.Random(243)
    for p, n in [(3, 2), (5, 2), (3, 3), (3, 5)]:
        F = Fq.get(p, n, 1)
        assert F._add is not None and F._neg is not None
        if F.size <= 27:
            pairs = [(x, y) for x in range(F.size) for y in range(F.size)]
        else:
            pairs = [(rng.randrange(F.size), rng.randrange(F.size)) for _ in range(5000)]
        for x, y in pairs:
            assert F.add(x, y) == F._encode([(u + v) % p for u, v in zip(F._decode(x), F._decode(y))])
        for x in range(F.size):
            assert F.neg(x) == F._encode([(-d) % p for d in F._decode(x)])


def test_frobenius_identity_and_inverse():
    # [spec example] x = 1 is fixed by every Frobenius power
    F = Fq.get(3, 1, 2)
    assert ff_frobenius(F, 1, 5) == 1
    # prime-field elements fixed under inverse Frobenius when m = 1
    F3 = Fq.get(3, 1, 1)
    for c in range(3):
        assert ff_frobenius(F3, c, -1) == c
    # round trip on every element of F_9 for several n
    for n in (1, 2, 3, -1, -2):
        for x in F.elements():
            assert ff_frobenius(F, ff_frobenius(F, x, n), -n) == x


def test_frobenius_f9_oracle():
    # oracle: g in F_9 with g^2 = -1 satisfies g^3 = g^2*g = -g by direct
    # exponentiation; locate such a g by scanning.
    F9 = Fq.get(3, 1, 2)
    minus_one = F9.neg(1)
    gs = [x for x in F9.elements() if F9.mul(x, x) == minus_one]
    assert len(gs) == 2
    for g in gs:
        brute = 1
        for _ in range(3):
            brute = F9.mul(brute, g)
        assert brute == F9.neg(g)
        assert ff_frobenius(F9, g, 1) == F9.neg(g)


def test_frobenius_is_q_linear():
    F = Fq.get(3, 1, 2)
    rng = random.Random(11)
    for _ in range(40):
        x, y = rng.randrange(9), rng.randrange(9)
        assert ff_frobenius(F, F.add(x, y), 1) == F.add(
            ff_frobenius(F, x, 1), ff_frobenius(F, y, 1)
        )


def test_poly_roots_in_ext_examples():
    F3 = Fq.get(3, 1, 1)
    F9 = Fq.get(3, 1, 2)
    # [spec example] y^2 + 1 over F_3 has the two square roots of -1 in F_9;
    # oracle = exhaustive search over F_9.
    phi = F3.embed_into(F9)
    oracle = sorted(x for x in F9.elements() if F9.add(F9.mul(x, x), phi(1)) == 0)
    roots = poly_roots_in_ext([1, 0, 1], F3, F9)
    assert sorted(r for r, _ in roots) == oracle
    assert all(m == 1 for _, m in roots)
    assert len(roots) == 2
    # y - 1 in any target
    assert poly_roots_in_ext([F3.neg(1), 1], F3, F3) == [(1, 1)]
    # (y-1)^2 = y^2 - 2y + 1 over F_3
    assert poly_roots_in_ext([1, F3.neg(2 % 3), 1], F3, F3) == [(1, 2)]


def _roots_by_search(coeffs, F):
    # reference: evaluate at every element by Horner's rule
    roots = []
    for x in F.elements():
        acc = 0
        for c in reversed(coeffs):
            acc = F.add(F.mul(acc, x), c)
        if acc == 0:
            roots.append(x)
    return roots


@pytest.mark.parametrize(
    "p, n, cases",
    [(2, 1, 30), (3, 1, 30), (2, 2, 30), (3, 2, 30), (2, 12, 4), (4093, 1, 4)],
)
def test_poly_roots_against_exhaustive_search(p, n, cases):
    # planted roots, 0 among them in every other case and one of them
    # repeated, times a cofactor with no root in F; the search finds the
    # roots and the plant gives their multiplicities
    F = Fq.get(p, 1, n)
    rng = random.Random(p * 100 + n)
    for case in range(cases):
        planted = [rng.randrange(F.size) for _ in range(rng.randrange(4))]
        planted += [0] * (case % 2) + planted[:1]
        while True:
            cofactor = [rng.randrange(F.size) for _ in range(rng.randrange(3))] + [1]
            if not _roots_by_search(cofactor, F):
                break
        f = FPoly(F, cofactor).scale(rng.randrange(1, F.size))
        for r in planted:
            f = f * FPoly(F, [F.neg(r), 1])
        coeffs = list(f.coeffs)
        found = poly_roots(coeffs, F)
        assert [r for r, _ in found] == _roots_by_search(coeffs, F)
        assert found == sorted((r, planted.count(r)) for r in set(planted))


def test_poly_roots_completeness_flag():
    F3 = Fq.get(3, 1, 1)
    with pytest.raises(TargetTooSmall):
        poly_roots_in_ext([1, 0, 1], F3, F3, require_all=True)


def test_found_roots_divide_exactly():
    # invariant: prod (y - r)^mult divides f exactly, random f of degree <= 8
    rng = random.Random(23)
    F = Fq.get(3, 1, 2)
    for _ in range(25):
        deg = rng.randrange(1, 9)
        coeffs = [rng.randrange(F.size) for _ in range(deg)] + [1]
        f = FPoly(F, coeffs)
        prod = FPoly.const(F, 1)
        lin = FPoly(F, (0, 1))
        for r, mult in poly_roots_in_ext(coeffs, F, F):
            factor = lin + FPoly.const(F, F.neg(r))
            for _ in range(mult):
                prod = prod * factor
        q, rem = f.divmod(prod)
        assert rem.is_zero()
        assert (q * prod).coeffs == f.coeffs


def test_embedding_is_ring_homomorphism():
    F3 = Fq.get(3, 1, 1)
    F9 = Fq.get(3, 1, 2)
    F81 = Fq.get(3, 1, 4)
    for small, big in [(F3, F9), (F9, F81), (F3, F81)]:
        phi = small.embed_into(big)
        for x in small.elements():
            for y in (0, 1, small.size - 1):
                assert phi(small.add(x, y)) == big.add(phi(x), phi(y))
                assert phi(small.mul(x, y)) == big.mul(phi(x), phi(y))


@pytest.mark.parametrize(
    "p, n, big_n, image",
    [(3, 4, 8, 729), (2, 2, 14, 5107), (5, 3, 6, 12499)],
)
def test_embedding_generator_images_pinned(p, n, big_n, image):
    # images of the generator recorded when fields of up to 2^16 elements
    # were searched for the modulus root
    small, big = Fq.get(p, 1, n), Fq.get(p, 1, big_n)
    phi = small.embed_into(big)
    assert phi(small.gen) == image
    root = phi(p)  # the image of x is a root of the modulus
    assert reduce(big.add, (big.mul(c, big.pow(root, i)) for i, c in enumerate(small.modulus))) == 0


def test_fpoly_divmod_gcd():
    F = Fq.get(3, 1, 1)
    x = FPoly.x(F)
    one = FPoly.const(F, 1)
    f = (x + one) * (x + one) * x
    g = (x + one) * x
    assert f.gcd(g).coeffs == ((x + one) * x).monic().coeffs
    q, r = f.divmod(g)
    assert r.is_zero() and q.coeffs == (x + one).coeffs


def test_large_field_path():
    # force the non-table code path (size > 2^12)
    F = Fq.get(2, 1, 13)
    assert F.size == 8192
    x = 1234
    assert F.mul(x, F.inv(x)) == 1
    assert ff_frobenius(F, ff_frobenius(F, x, 3), -3) == x
    assert F.dlog(F.pow(F.gen, 777)) == 777
    assert all(F.pow(F.gen, F.dlog(x)) == x for x in range(1, F.size, 97))
    # generators and discrete logs as recorded before the table and
    # non-table paths shared one generator search
    recorded = {
        (2, 1): (1, {}),
        (2, 2): (2, {2: 1, 3: 2}),
        (3, 2): (4, {2: 4, 3: 6, 5: 7, 7: 3}),
        (3, 9): (3, {2: 9841, 3: 1, 5: 14966, 7: 5125, 100: 14492, 12345: 12645}),
        (2, 16): (3, {2: 59241, 3: 1, 5: 2, 7: 3155, 100: 17777, 12345: 65083, 65535: 15}),
    }
    for (p, n), (gen, logs) in recorded.items():
        F = Fq.get(p, n, 1)
        assert F.gen == gen
        assert {x: F.dlog(x) for x in logs} == logs


@pytest.mark.parametrize(
    "p, n, roots",
    [(2, 17, [5, 77777, 77777]), (3, 11, [7, 7, 12345, 100000]), (257, 3, [3, 1000000, 3])],
)
def test_large_field_planted_roots(p, n, roots):
    # fields of more than 2^16 elements; each case plants one double root
    F = Fq.get(p, 1, n)
    f = FPoly.const(F, 1)
    for r in roots:
        f = f * FPoly(F, [F.neg(r), 1])
    if p == 2:
        # 5 and 77777 have the same trace, so a split by Tr(y) alone never
        # separates them
        trace = [reduce(F.add, (F.frob(x, k) for k in range(n))) for x in (5, 77777)]
        assert trace == [1, 1]
    assert poly_roots(list(f.coeffs), F) == sorted((r, roots.count(r)) for r in set(roots))
