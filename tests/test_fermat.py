"""Curve model: validation, the defining expansion against a naive powering
oracle, and the geometric constructions."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatrc.errors import (
    BadRoot,
    BadScaling,
    CommonZero,
    ConstantMap,
    DegreeMismatch,
    InvalidField,
    NotOnHypersurface,
)
from fermatrc.fermat import (
    Curve,
    FermatParams,
    act_automorphism,
    compose_cover,
    expand_F,
    is_rnc,
    lift,
    make_line,
    roots_of_minus_one,
    validate,
)
from fermatrc.ff import FieldCtx
from fermatrc.forms import Form
from fermatrc.rng import SplitMix64
from fermatrc.search import SearchConfig, random_cover_family
from fermatrc.splitbundle import splitting_f, splitting_omega_p, splitting_tx

from conftest import power_pair


def _forms(ctx, e, rows):
    return [Form.make(ctx, e, row) for row in rows]


def test_params_guard_small_degree():
    with pytest.raises(InvalidField):
        FermatParams.make(2, 1, 4)  # d = 3 is below the working range
    with pytest.raises(InvalidField):
        FermatParams.make(3, 1, 2)  # ambient dimension too small


def test_validate_line_and_errors(params44):
    ctx = params44.ctx
    line = make_line(params44, 4, 4)
    assert line.e == 1
    assert expand_F(params44, list(line.forms)).is_zero

    with pytest.raises(NotOnHypersurface):
        validate(params44, 1, _forms(ctx, 1, [[1, 0], [0, 1], [0, 0], [0, 0], [0, 0]]))
    with pytest.raises(ConstantMap):
        validate(params44, 1, _forms(ctx, 1, [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0]]))
    with pytest.raises(CommonZero):
        validate(
            params44,
            2,
            _forms(ctx, 2, [[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]),
        )
    with pytest.raises(DegreeMismatch):
        validate(params44, 2, _forms(ctx, 1, [[1, 0], [0, 1], [0, 0], [0, 0], [0, 0]]))
    with pytest.raises(ValueError):
        validate(params44, 1, _forms(ctx, 1, [[1, 0], [0, 1]]))


def test_expand_f_matches_naive_powers(params44, params55):
    rng = random.Random(61)
    for params, cases in ((params44, 60), (params55, 40)):
        ctx = params.ctx
        d = params.d
        for _ in range(cases):
            e = rng.randrange(1, 3)
            forms = [
                Form.make(ctx, e, [rng.randrange(ctx.q) for _ in range(e + 1)])
                for _ in range(params.N + 1)
            ]
            fast = expand_F(params, forms)
            naive = Form.zero(ctx, d * e)
            for f in forms:
                naive = naive + f.pow_int(d)
            assert fast.is_zero == naive.is_zero
            if not fast.is_zero:
                assert fast.coeffs == naive.coeffs


def _expand_f_by_forms(params, forms):
    """The unfused expansion, one Frobenius power, product and sum per
    coordinate: the reference for the fused kernel."""
    acc = None
    for f in forms:
        term = f.frob_power(params.r) * f
        acc = term if acc is None else acc + term
    return acc


# field name -> (p, r, n): X_(p^r+1) over GF(p^n); GF(729) is above the table limit
_EXPANSION_FIELDS = {
    "GF(9)": (3, 1, 2),
    "GF(16)": (2, 2, 4),
    "GF(25)": (5, 1, 2),
    "GF(729)": (3, 1, 6),
}


@functools.lru_cache(maxsize=None)
def _expansion_line(field, N):
    p, r, n = _EXPANSION_FIELDS[field]
    params = FermatParams.make(p, r, N, ctx=FieldCtx(p, n))
    root = roots_of_minus_one(params.ctx, params.d)[0]
    return make_line(params, root, root)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    field=st.sampled_from(sorted(_EXPANSION_FIELDS)),
    N=st.integers(3, 5),
    e=st.integers(1, 3),
    on_x=st.booleans(),
    zeros=st.sets(st.integers(0, 5)),
    seed=st.integers(0, 2**64 - 1),
)
def test_fused_expansion_matches_the_unfused_sum(field, N, e, on_x, zeros, seed):
    line = _expansion_line(field, N)
    params, ctx = line.params, line.ctx
    if on_x:
        forms = list(random_cover_family(SearchConfig(params, e, seed), line, 1)[0].forms)
    else:
        rng = SplitMix64(seed)
        forms = [
            Form.zero(ctx, e) if i in zeros
            else Form.make(ctx, e, [rng.below(ctx.q) for _ in range(e + 1)])
            for i in range(N + 1)
        ]
    fused = expand_F(params, forms)
    reference = _expand_f_by_forms(params, forms)
    assert (fused.deg, fused.coeffs) == (reference.deg, reference.coeffs)
    assert fused.deg == params.d * e
    if on_x:
        assert fused.is_zero


def test_expansion_refuses_mixed_degrees(params44):
    ctx = params44.ctx
    forms = _forms(ctx, 1, [[1, 0], [0, 1], [0, 0], [0, 0]]) + _forms(ctx, 2, [[1, 2, 1]])
    with pytest.raises(DegreeMismatch):
        expand_F(params44, forms)
    # zero coordinates carry no degree of their own
    forms = _forms(ctx, 1, [[1, 0], [0, 1], [0, 0], [0, 0]]) + [Form.zero(ctx, 2)]
    assert expand_F(params44, forms).deg == params44.d


def test_roots_of_minus_one(gf9, gf4):
    assert roots_of_minus_one(gf9, 4) == [4, 5, 7, 8]
    assert roots_of_minus_one(gf4, 5) == [1]
    for p, r in ((3, 1), (2, 2), (5, 1)):
        params = FermatParams.make(p, r, 3)
        roots = roots_of_minus_one(params.ctx, params.d)
        assert len(roots) == params.pr + 1


def test_make_line(params44):
    line = make_line(params44, 4, 4)
    assert [not f.is_zero for f in line.forms] == [True, True, True, True, False]
    other = make_line(params44, 4, 5, pattern=((0, 2), (1, 3)))
    assert other.e == 1
    with pytest.raises(BadRoot):
        make_line(params44, 1, 4)
    with pytest.raises(ValueError):
        make_line(params44, 4, 4, pattern=((0, 1), (1, 2)))


def test_compose_cover(params44, line44):
    ctx = params44.ctx
    double = compose_cover(line44, *power_pair(ctx, 2))
    assert double.e == 2
    triple = compose_cover(line44, *power_pair(ctx, 3))
    assert triple.e == 3
    with pytest.raises(CommonZero):
        compose_cover(line44, Form.monomial(ctx, 2, 0), Form.monomial(ctx, 2, 0))
    with pytest.raises(DegreeMismatch):
        compose_cover(line44, Form.monomial(ctx, 2, 0), Form.monomial(ctx, 3, 3))


def test_lift(line44):
    lifted = lift(line44)
    assert lifted.params.N == 5
    assert lifted.params.d == 4
    assert lifted.forms[-1].is_zero
    assert lifted.e == line44.e
    again = lift(lifted)
    assert again.params.N == 6


def test_act_automorphism(params44, line44):
    perm = [1, 0, 2, 3, 4]
    scalings = [1, 1, 2, 1, 1]  # 2^4 = 1 in GF(9)
    moved = act_automorphism(line44, perm, scalings)
    assert moved.e == line44.e
    with pytest.raises(BadScaling):
        act_automorphism(line44, perm, [1, 1, 4, 1, 1])  # 4^4 = -1, not 1
    with pytest.raises(ValueError):
        act_automorphism(line44, [0, 1, 2, 3], scalings)


def test_automorphism_preserves_splittings(params44, line44):
    moved = act_automorphism(line44, [4, 2, 0, 1, 3], [1, 2, 1, 1, 2])
    assert splitting_tx(moved).summands == splitting_tx(line44).summands
    assert splitting_f(moved).summands == splitting_f(line44).summands
    assert splitting_omega_p(moved).summands == splitting_omega_p(line44).summands


def test_cover_scales_tangent_splitting(params44, line44):
    base = splitting_tx(line44)
    for k in (2, 3):
        cover = compose_cover(line44, *power_pair(params44.ctx, k))
        assert splitting_tx(cover).summands == base.scaled(k).summands


def test_is_rnc(params44, line44):
    assert is_rnc(line44) == (1, True)
    rnc = validate(
        params44,
        4,
        [Form.monomial(params44.ctx, 4, j) for j in range(5)],
        on_hypersurface=False,
    )
    assert is_rnc(rnc) == (4, True)
    ctx = params44.ctx
    conic = validate(
        params44,
        2,
        [
            Form.monomial(ctx, 2, 0),
            Form.monomial(ctx, 2, 1),
            Form.monomial(ctx, 2, 2),
            Form.zero(ctx, 2),
            Form.zero(ctx, 2),
        ],
        on_hypersurface=False,
    )
    assert is_rnc(conic) == (2, True)


def test_curve_json_roundtrip(line44):
    data = line44.to_json()
    again = Curve.from_json(data)
    assert again.to_json() == data
    assert again.params == line44.params
    off = dict(data)
    off["curve"] = [[1, 0], [0, 1], [0, 0], [0, 0], [0, 0]]
    with pytest.raises(NotOnHypersurface):
        Curve.from_json(off)
    loose = Curve.from_json(off, on_hypersurface=False)
    assert not loose.on_x
