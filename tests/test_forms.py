"""Binary forms: ring operations, Frobenius powers against a naive-power
oracle, and the homogeneous gcd."""

import random

import pytest

from fermatrc.errors import AllZero, DegreeMismatch
from fermatrc.forms import Form, form_gcd


def _random_form(rng, ctx, deg):
    coeffs = [rng.randrange(ctx.q) for _ in range(deg + 1)]
    return Form.make(ctx, deg, coeffs)


def _poly_rem(num, den, ctx):
    """Remainder of univariate division, dense low-to-high coefficients."""
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    dn = len(den) - 1
    inv_lead = ctx.inv(den[-1])
    while len(num) - 1 >= dn:
        coef = ctx.mul(num[-1], inv_lead)
        shift = len(num) - 1 - dn
        for i, c in enumerate(den):
            num[shift + i] = ctx.sub(num[shift + i], ctx.mul(coef, c))
        while num and num[-1] == 0:
            num.pop()
    return num


def _divides(g, f):
    """g | f for binary forms, via s-valuations and univariate division."""
    if f.is_zero:
        return True
    if g.deg - (g.t_degree() or 0) > f.deg - (f.t_degree() or 0):
        return False
    fhat = [f.coefficient(j) for j in range(f.t_degree() + 1)]
    ghat = [g.coefficient(j) for j in range(g.t_degree() + 1)]
    return not _poly_rem(fhat, ghat, f.ctx)


def test_ring_fixtures_gf3(gf3):
    s_plus_t = Form.make(gf3, 1, [1, 1])
    assert (s_plus_t * s_plus_t).coeffs == (1, 2, 1)
    doubled = Form.make(gf3, 1, [2, 2])
    assert (s_plus_t + doubled).is_zero
    assert (s_plus_t * Form.zero(gf3, 5)).is_zero
    with pytest.raises(DegreeMismatch):
        s_plus_t + Form.make(gf3, 2, [1, 0, 1])


def test_zero_form_is_neutral_within_a_degree(gf3):
    f = Form.make(gf3, 2, [1, 2, 0])
    assert (f + Form.zero(gf3, 2)).coeffs == f.coeffs
    assert (f - f).is_zero


def test_degree_of_product_adds(gf9):
    rng = random.Random(11)
    for _ in range(50):
        f = _random_form(rng, gf9, rng.randrange(4))
        g = _random_form(rng, gf9, rng.randrange(4))
        if f.is_zero or g.is_zero:
            assert (f * g).is_zero
        else:
            assert (f * g).deg == f.deg + g.deg


def test_frob_power_fixtures(gf2, gf3):
    assert Form.make(gf2, 1, [1, 1]).frob_power(1).coeffs == (1, 0, 1)
    assert Form.make(gf3, 1, [1, 2]).frob_power(1).coeffs == (1, 0, 0, 2)


def test_frob_power_matches_naive_power(gf9, gf4, gf729):
    rng = random.Random(41)
    for ctx, p in ((gf9, 3), (gf4, 2), (gf729, 3)):
        for _ in range(150):
            f = _random_form(rng, ctx, rng.randrange(1, 4))
            r = rng.randrange(1, 3)
            lhs = f.frob_power(r)
            rhs = f.pow_int(p**r)
            assert lhs.is_zero == rhs.is_zero
            assert lhs.coeffs == rhs.coeffs


def test_frob_power_is_a_ring_map(gf9):
    rng = random.Random(43)
    for _ in range(100):
        deg = rng.randrange(1, 4)
        f = _random_form(rng, gf9, deg)
        g = _random_form(rng, gf9, deg)
        assert (f + g).frob_power(1).coeffs == (f.frob_power(1) + g.frob_power(1)).coeffs
        assert (f * g).frob_power(1).coeffs == (f.frob_power(1) * g.frob_power(1)).coeffs


def test_gcd_fixtures(gf3, gf2):
    st = Form.monomial(gf3, 2, 1)
    s_sq = Form.monomial(gf3, 2, 0)
    assert form_gcd([st, s_sq]).coeffs == Form.monomial(gf3, 1, 0).coeffs
    s = Form.monomial(gf3, 1, 0)
    t = Form.monomial(gf3, 1, 1)
    one = form_gcd([s, t])
    assert one.deg == 0 and one.coeffs == (1,)
    lhs = Form.make(gf2, 2, [1, 0, 1])
    rhs = Form.make(gf2, 2, [1, 1, 0])
    assert form_gcd([lhs, rhs]).coeffs == (1, 1)


def test_gcd_divides_every_input(gf9, gf729):
    rng = random.Random(47)
    for ctx in (gf9,) * 60 + (gf729,) * 20:
        common = Form.zero(ctx, 0)
        while common.is_zero:
            common = _random_form(rng, ctx, rng.randrange(3))
        forms = []
        while len(forms) < 3:
            f = _random_form(rng, ctx, rng.randrange(3))
            if not f.is_zero:
                forms.append(f * common)
        g = form_gcd(forms)
        for f in forms:
            assert _divides(g, f)
        assert _divides(common, g)


def test_gcd_invariant_under_order_and_scaling(gf9):
    rng = random.Random(53)
    for _ in range(40):
        forms = [_random_form(rng, gf9, rng.randrange(1, 4)) for _ in range(3)]
        if all(f.is_zero for f in forms):
            continue
        base = form_gcd(forms)
        shuffled = list(forms)
        rng.shuffle(shuffled)
        scaled = [f.scale(rng.randrange(1, gf9.q)) for f in shuffled]
        assert form_gcd(scaled).coeffs == base.coeffs


def test_gcd_of_all_zero_raises(gf3):
    with pytest.raises(AllZero):
        form_gcd([Form.zero(gf3, 1), Form.zero(gf3, 2)])


def test_substitute_and_accessors(gf3):
    f = Form.make(gf3, 1, [1, 1])
    sub = f.substitute(Form.monomial(gf3, 2, 0), Form.monomial(gf3, 2, 2))
    assert sub.coeffs == (1, 0, 1)
    assert f.coefficient(0) == 1 and f.coefficient(5) == 0
    assert f.t_degree() == 1
    assert Form.zero(gf3, 3).t_degree() is None


def test_json_roundtrip(gf9):
    f = Form.make(gf9, 2, [4, 0, 7])
    assert Form.from_json(gf9, f.to_json()).coeffs == f.coeffs
    z = Form.from_json(gf9, [0, 0, 0])
    assert z.is_zero and z.deg == 2
