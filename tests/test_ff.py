"""Finite field layer: modulus selection, arithmetic fixtures, axiom sweeps."""

import random
import time

import pytest

from fermatrc.errors import DivisionByZero, InvalidField
from fermatrc.ff import FieldCtx, find_irreducible, is_prime


def test_find_irreducible_picks_smallest_encoding():
    assert find_irreducible(3, 2) == [1, 0, 1]
    assert find_irreducible(2, 2) == [1, 1, 1]
    for p in (2, 3, 5):
        assert find_irreducible(p, 1) == [0, 1]


def test_constructor_rejects_bad_input():
    with pytest.raises(InvalidField):
        FieldCtx(4)
    with pytest.raises(InvalidField):
        FieldCtx(3, 0)
    with pytest.raises(InvalidField):
        FieldCtx(2, 64)
    with pytest.raises(InvalidField):
        FieldCtx(2**64 - 59)
    with pytest.raises(InvalidField):
        FieldCtx(3, 40)
    with pytest.raises(InvalidField):
        FieldCtx(3, 2, modulus=[0, 0, 1])
    with pytest.raises(InvalidField):
        FieldCtx(3, 2, modulus=[2, 0, 1])
    with pytest.raises(InvalidField):
        FieldCtx(3, 2, modulus=[1, 0, 2])


def test_gf9_arithmetic_fixtures(gf9):
    assert gf9.q == 9
    assert gf9.modulus == (1, 0, 1)
    assert gf9.mul(3, 3) == 2
    assert gf9.inv(2) == 2
    assert gf9.pow(4, 4) == 2
    with pytest.raises(DivisionByZero):
        gf9.inv(0)


def test_frobenius_fixtures(gf9, gf4):
    assert gf9.frobenius(3, 1) == 6
    for k in range(5):
        assert gf9.frobenius(1, k) == 1
    for a in gf4.elements():
        assert gf4.frobenius(a, 2) == a


def test_encode_decode_roundtrip(gf9, gf4):
    for ctx in (gf9, gf4):
        for a in ctx.elements():
            assert ctx.encode(ctx.decode(a)) == a


def test_field_axioms_seeded(gf9, gf4):
    rng = random.Random(20240817)
    for ctx in (gf9, gf4):
        q = ctx.q
        for _ in range(250):
            a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))


def test_inverses_and_unit_group(gf9, gf4):
    for ctx in (gf9, gf4):
        for a in range(1, ctx.q):
            assert ctx.mul(a, ctx.inv(a)) == 1
            assert ctx.pow(a, ctx.q - 1) == 1


def test_frobenius_is_a_homomorphism(gf9):
    rng = random.Random(7)
    for _ in range(250):
        a, b = rng.randrange(9), rng.randrange(9)
        fa, fb = gf9.frobenius(a, 1), gf9.frobenius(b, 1)
        assert gf9.frobenius(gf9.add(a, b), 1) == gf9.add(fa, fb)
        assert gf9.frobenius(gf9.mul(a, b), 1) == gf9.mul(fa, fb)


def test_frobenius_fixed_field_is_prime_subfield(gf9, gf4):
    for ctx in (gf9, gf4):
        fixed = [a for a in ctx.elements() if ctx.frobenius(a, 1) == a]
        assert len(fixed) == ctx.p


def test_frobenius_full_cycle_is_identity(gf9, gf4):
    for ctx in (gf9, gf4):
        for a in ctx.elements():
            assert ctx.frobenius(a, ctx.n) == a


def test_is_prime_small_values():
    assert [m for m in range(2, 20) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19]


def _trial_division(m):
    return m >= 2 and all(m % f for f in range(2, int(m**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert all(is_prime(m) == _trial_division(m) for m in range(2, 20000))
    # strong pseudoprime to the bases 2, 3, 5 and 7
    assert not is_prime(3215031751)
    t0 = time.perf_counter()
    assert is_prime(2**61 - 1)
    assert time.perf_counter() - t0 < 1.0


def test_field_json_roundtrip(gf9):
    data = gf9.to_json()
    assert data == {"p": 3, "n": 2, "modulus": [1, 0, 1]}
    again = FieldCtx.from_json(data)
    assert again == gf9
