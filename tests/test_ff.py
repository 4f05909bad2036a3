"""Finite field layer: modulus selection, arithmetic fixtures, axiom sweeps."""

import dataclasses
import random
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from fermatrc.errors import DivisionByZero, InvalidField
from fermatrc.ff import (
    LOG_LIMIT,
    TABLE_LIMIT,
    FieldCtx,
    _DigitFieldCtx,
    _digits,
    _is_irreducible,
    _pmod,
    find_irreducible,
    is_prime,
)


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


def _trial_division_irreducible(f, p):
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    n = len(f) - 1
    if n < 1:
        return False
    for d in range(1, n // 2 + 1):
        for k in range(p**d):
            if not _pmod(f, _digits(k, p, d) + [1], p):
                return False
    return True


def test_is_irreducible_matches_trial_division():
    for p, top in ((2, 8), (3, 5), (5, 4), (7, 3)):
        for n in range(1, top + 1):
            for k in range(p**n):
                f = _digits(k, p, n) + [1]
                assert _is_irreducible(f, p) == _trial_division_irreducible(f, p), (p, f)


def _prime_power(q):
    """(p, n) with p^n = q, or None."""
    p = next(f for f in range(2, q + 1) if q % f == 0)
    n = round(np.log(q) / np.log(p))
    return (p, n) if p**n == q else None


def test_find_irreducible_matches_trial_division_choice():
    for p, n in filter(None, map(_prime_power, range(2, 2**12 + 1))):
        q = p**n
        first = next(
            cand
            for cand in (_digits(k, p, n) + [1] for k in range(q))
            if _trial_division_irreducible(cand, p)
        )
        assert find_irreducible(p, n) == first, q


def _arrays(T):
    """The numpy arrays among the five tables of a FieldTables."""
    values = (getattr(T, f.name) for f in dataclasses.fields(T))
    return [t for t in values if isinstance(t, np.ndarray)]


def _tables_peak_bytes(ctx):
    """Peak bytes allocated while a fresh context builds its tables."""
    tracemalloc.start()
    try:
        ctx.tables()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_extension_fields_construct_quickly():
    for p, n in ((3, 39), (2, 62)):
        t0 = time.perf_counter()
        ctx = FieldCtx(p, n)
        assert time.perf_counter() - t0 < 5.0
        T = ctx.tables()
        # no q x q table above TABLE_LIMIT; above LOG_LIMIT no table at all
        assert type(ctx) is _DigitFieldCtx and not _arrays(T) and T.inv[0] == 0
        a = ctx.q - 2
        assert ctx.mul(a, ctx.inv(a)) == 1
        assert T.mul[a, T.inv[a]] == 1


def _raw_pow(ctx, a, e):
    out = 1
    for _ in range(e):
        out = ctx._mul_raw(out, a)
    return out


def test_tables_equal_the_raw_multiplication_tables():
    fields = [FieldCtx(p, n) for p, n in filter(None, map(_prime_power, range(2, 65)))]
    assert len(fields) == 27
    for ctx in fields:
        q, rows, T = ctx.q, ctx.rows, ctx.tables()
        mul = [[ctx._mul_raw(a, b) for b in range(q)] for a in range(q)]
        assert rows.mul == mul and T.mul.tolist() == mul
        inv = [0] + [next(b for b in range(1, q) if mul[a][b] == 1) for a in range(1, q)]
        assert rows.inv == inv and T.inv.tolist() == inv
        assert rows.frob == [[_raw_pow(ctx, a, ctx.p**k) for a in range(q)] for k in range(ctx.n)]
    gf512 = FieldCtx(2, 9)
    rng = random.Random(512)
    for _ in range(2000):
        a, b = rng.randrange(512), rng.randrange(512)
        assert gf512.rows.mul[a][b] == gf512._mul_raw(a, b)
        k = rng.randrange(9)
        assert gf512.rows.frob[k][a] == _raw_pow(gf512, a, 2**k)
        if a:
            assert gf512._mul_raw(a, gf512.rows.inv[a]) == 1


def _digit_reference(ctx):
    """add, neg, mul, inv and Frobenius of GF(p^n) on base-p digit vectors,
    with products reduced by the modulus; independent of the tables."""
    p, n, modulus = ctx.p, ctx.n, ctx.modulus

    def enc(ds):
        return sum((d % p) * p**i for i, d in enumerate(ds))

    def add(a, b):
        return enc([x + y for x, y in zip(_digits(a, p, n), _digits(b, p, n))])

    def neg(a):
        return enc([-x for x in _digits(a, p, n)])

    def mul(a, b):
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(_digits(a, p, n)):
            for j, y in enumerate(_digits(b, p, n)):
                prod[i + j] += x * y
        for top in range(2 * n - 2, n - 1, -1):
            c = prod[top]
            for i in range(n + 1):
                prod[top - n + i] -= c * modulus[i]
        return enc(prod[:n])

    def power(a, e):
        out = 1
        for _ in range(e):
            out = mul(out, a)
        return out

    return add, neg, mul, power


def test_table_ops_match_digit_arithmetic():
    for p, n in ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)):
        ctx = FieldCtx(p, n)
        q = ctx.q
        add, neg, mul, power = _digit_reference(ctx)
        for a in range(q):
            assert ctx.neg(a) == neg(a)
            for k in range(n + 1):
                assert ctx.frobenius(a, k) == power(a, p**k)
            if a:
                assert mul(a, ctx.inv(a)) == 1
            for b in range(q):
                assert ctx.add(a, b) == add(a, b)
                assert ctx.sub(a, b) == add(a, neg(b))
                assert ctx.mul(a, b) == mul(a, b)


def test_ops_refuse_non_canonical_arguments(gf9):
    for bad in (-1, 9):
        for op in (gf9.add, gf9.sub, gf9.mul):
            with pytest.raises(ValueError):
                op(bad, 1)
            with pytest.raises(ValueError):
                op(1, bad)
        for op in (gf9.neg, gf9.inv, lambda a: gf9.frobenius(a, 1)):
            with pytest.raises(ValueError):
                op(bad)


def test_untabulated_field_is_chosen_by_size(gf9, gf729):
    assert gf9.tables().mul.shape == (9, 9) and gf729.q > TABLE_LIMIT
    # no q x q table above TABLE_LIMIT: a 729 x 729 int64 table alone is 4.2 MB
    assert _tables_peak_bytes(FieldCtx(3, 6)) < 16 * 8 * 729
    assert type(gf729) is FieldCtx and 3**12 > LOG_LIMIT
    assert type(FieldCtx(3, 12)) is _DigitFieldCtx
    rows = gf729.rows
    rng = random.Random(729)
    for _ in range(200):
        a, b = rng.randrange(729), rng.randrange(1, 729)
        assert rows.add[a][b] == gf729.add(a, b)
        assert rows.sub[a][b] == gf729.sub(a, b)
        assert rows.mul[a][b] == gf729.mul(a, b)
        assert rows.neg[a] == gf729.neg(a) and rows.inv[b] == gf729.inv(b)
        assert rows.frob[1][a] == gf729.pow(a, 3)


def _view_inputs(rng, q):
    """Canonical int64 inputs: 0-d, 1-D, 2-D and empty."""
    return [
        np.array(rng.randrange(q), dtype=np.int64),
        np.array([0, 1, q - 1] + [rng.randrange(q) for _ in range(5)], dtype=np.int64),
        np.array([[rng.randrange(q) for _ in range(4)] for _ in range(3)], dtype=np.int64),
        np.zeros((0, 4), dtype=np.int64),
    ]


# GF(729) and GF(3^7) lie above TABLE_LIMIT, GF(2^19) at LOG_LIMIT and
# GF(2^61 - 1) above it; the digit arithmetic is the reference for all four
@pytest.mark.parametrize("p, n", [(3, 6), (3, 7), (2, 19), (2**61 - 1, 1)])
def test_broadcasting_views_match_scalar_ops(p, n):
    ctx = FieldCtx(p, n)
    peak = _tables_peak_bytes(ctx)
    T = ctx.tables()
    # no q x q table above TABLE_LIMIT: O(q) arrays up to LOG_LIMIT, none above
    if ctx.q <= LOG_LIMIT:
        assert peak < 16 * 8 * ctx.q and T.neg.shape == T.inv.shape == (ctx.q,)
    else:
        assert not _arrays(T)
    assert T.inv[0] == 0 and T.inv[np.zeros(3, dtype=np.int64)].tolist() == [0, 0, 0]
    ref = _DigitFieldCtx(p, n, ctx.modulus)
    binary = {"add": ref.add, "sub": ref.sub, "mul": ref.mul}
    unary = {"neg": ref.neg, "inv": lambda a: ref.inv(a) if a else 0}
    rng = random.Random(p)
    rows = ctx.rows
    for _ in range(100):
        a, b, k = rng.randrange(ctx.q), rng.randrange(1, ctx.q), rng.randrange(n)
        scalars = [
            (ctx.add(a, b), rows.add[a][b], ref.add(a, b)),
            (ctx.sub(a, b), rows.sub[a][b], ref.sub(a, b)),
            (ctx.mul(a, b), rows.mul[a][b], ref.mul(a, b)),
            (ctx.neg(a), rows.neg[a], ref.neg(a)),
            (ctx.inv(b), rows.inv[b], ref.inv(b)),
            (ctx.frobenius(a, k), rows.frob[k][a], ref.frobenius(a, k)),
        ]
        for got, row, want in scalars:
            assert type(got) is int and type(row) is int and got == row == want
    inputs = _view_inputs(rng, ctx.q)
    for x in inputs:
        for name, op in unary.items():
            out = getattr(T, name)[x]
            assert out.dtype == np.int64 and np.shape(out) == x.shape
            assert np.ravel(out).tolist() == [op(int(u)) for u in x.ravel()]
        # a same-shape pair, and a column against a row for an outer table
        flat = x.reshape(-1)
        for a, b in ((x, x[::-1].copy() if x.ndim else x), (flat[:, None], flat)):
            shape = np.broadcast_shapes(a.shape, b.shape)
            for name, op in binary.items():
                out = getattr(T, name)[a, b]
                assert out.dtype == np.int64 and np.shape(out) == shape
                pairs = zip(*(np.broadcast_to(t, shape).ravel() for t in (a, b)))
                assert np.ravel(out).tolist() == [op(int(u), int(v)) for u, v in pairs]


def test_prime_field_inverses():
    gf1009 = FieldCtx(1009)
    assert all(gf1009.mul(a, gf1009.inv(a)) == 1 for a in range(1, 1009))
    big = FieldCtx(2**61 - 1)
    rng = random.Random(61)
    for a in [1, 2, big.q - 1] + [rng.randrange(1, big.q) for _ in range(200)]:
        assert big.mul(a, big.inv(a)) == 1
        assert big.inv(a) == pow(a, big.q - 2, big.q)
    for ctx in (gf1009, big):
        with pytest.raises(DivisionByZero):
            ctx.inv(0)


def test_lazy_tables_are_race_free():
    """Eight threads share one fresh GF(64) while its tables are built."""
    reference = FieldCtx(2, 6)
    expected = [[reference.mul(a, b) for b in range(64)] for a in range(64)]
    expected_inv = [reference.inv(a) for a in range(1, 64)]
    shared = FieldCtx(2, 6)
    results = [None] * 8
    start = threading.Barrier(8)

    def work(i):
        start.wait()
        results[i] = (
            [[shared.mul(a, b) for b in range(64)] for a in range(64)],
            [shared.inv(a) for a in range(1, 64)],
        )

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(r == (expected, expected_inv) for r in results)
