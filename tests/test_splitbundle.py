"""Splitting machinery: section counts against a brute-force oracle, the
certified scan, minimal generators, and the tangent pipeline fixtures."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatrc import splitbundle
from fermatrc.errors import (
    AllZero,
    CertificateFailure,
    CommonZero,
    DegreeMismatch,
    DomainError,
    NotInModule,
    NotOnHypersurface,
    TwistOutOfRange,
)
from fermatrc.fermat import (
    FermatParams,
    compose_cover,
    make_line,
    roots_of_minus_one,
    validate,
)
from fermatrc.ff import FieldCtx
from fermatrc.forms import Form
from fermatrc.rng import SplitMix64
from fermatrc.search import SearchConfig, random_cover_family
from fermatrc.splitbundle import (
    Generator,
    GradedEchelon,
    KernelPresentation,
    SplittingType,
    coordinates_in_basis,
    frob_presentation,
    frobenius_lift,
    h0,
    h0_tx_direct,
    module_generators,
    omega_presentation,
    splitting_f,
    splitting_omega_p,
    splitting_t_p,
    splitting_tx,
    splitting_type,
    tx_pipeline,
)

from conftest import power_pair


def _kp(ctx, rows):
    """Presentation from (coeffs or None, twist) pairs."""
    entries = []
    for coeffs, delta in rows:
        if coeffs is None:
            entries.append((Form.zero(ctx, delta), delta))
        else:
            entries.append((Form.make(ctx, delta, coeffs), delta))
    return KernelPresentation.make(entries)


def _brute_h0(kp, m):
    """Count sections by enumerating every coefficient tuple.

    Exponential in the section space, so callers keep q**total tiny.  The
    count is q**h0, which this converts back to a dimension.
    """
    ctx = kp.ctx
    dims = [max(m - d + 1, 0) for _, d in kp.entries]
    total = sum(dims)
    if total == 0:
        return 0
    assert ctx.q**total <= 200_000, "oracle input too large"
    count = 0
    for packed in range(ctx.q**total):
        v = packed
        coeffs = []
        for _ in range(total):
            coeffs.append(v % ctx.q)
            v //= ctx.q
        acc = Form.zero(ctx, m)
        off = 0
        for (g, d), dim in zip(kp.entries, dims):
            if dim and not g.is_zero:
                h = Form.make(ctx, dim - 1, coeffs[off : off + dim])
                if not h.is_zero:
                    acc = acc + g * h
            off += dim
        if acc.is_zero:
            count += 1
    dim = 0
    while ctx.q**dim < count:
        dim += 1
    assert ctx.q**dim == count, "kernel count is not a power of q"
    return dim


def _rnc_row(ctx, n):
    return KernelPresentation.make(
        [(Form.monomial(ctx, n, j), n) for j in range(n + 1)]
    )


def test_h0_fixtures(gf3):
    koszul = _kp(gf3, [((1, 0), 1), ((0, 1), 1)])
    assert h0(koszul, 2) == 1
    assert h0(koszul, 1) == 0
    assert h0(_rnc_row(gf3, 3), 4) == 3


def test_h0_matches_brute_force(gf3, gf2):
    koszul = _kp(gf3, [((1, 0), 1), ((0, 1), 1)])
    for m in range(0, 4):
        assert h0(koszul, m) == _brute_h0(koszul, m)
    rnc2 = _kp(gf3, [((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2)])
    for m in range(1, 4):
        assert h0(rnc2, m) == _brute_h0(rnc2, m)
    cubes = _kp(gf2, [((1, 0, 0, 0), 3), ((0, 0, 0, 1), 3), (None, 3)])
    for m in range(2, 6):
        assert h0(cubes, m) == _brute_h0(cubes, m)


def test_splitting_fixtures(gf3):
    koszul = _kp(gf3, [((1, 0), 1), ((0, 1), 1)])
    assert splitting_type(koszul).summands == (-2,)
    for n in (3, 4):
        assert splitting_type(_rnc_row(gf3, n)).summands == (-n - 1,) * n
    cubes = _kp(gf3, [((1, 0, 0, 0), 3), ((0, 0, 0, 1), 3), (None, 3)])
    assert splitting_type(cubes).summands == (-3, -6)


def test_splitting_type_helpers():
    st = SplittingType.of([1, -2, 0])
    assert st.summands == (1, 0, -2)
    assert st.rank == 3 and st.degree == -1
    assert st.min_summand == -2 and st.max_summand == 1
    assert not st.is_balanced
    assert SplittingType.of([2, 1]).is_balanced
    assert st.shifted(2).summands == (3, 2, 0)
    assert st.scaled(3).summands == (3, 0, -6)
    assert st.negated_reversed().summands == (2, 0, -1)
    assert st.h0_at(0) == 3
    assert st.h0_at(-2) == 0
    data = st.to_json("TX")
    assert data == {"summands": [1, 0, -2], "rank": 3, "degree": -1, "bundle": "TX"}
    assert "bundle" not in st.to_json()


def test_h0_consistency_with_splitting(gf3, gf9, line44):
    cases = [
        _kp(gf3, [((1, 0), 1), ((0, 1), 1)]),
        _rnc_row(gf3, 4),
        _kp(gf3, [((1, 0, 0, 0), 3), ((0, 0, 0, 1), 3), (None, 3)]),
        frob_presentation(line44),
        omega_presentation(line44),
    ]
    for kp in cases:
        st = splitting_type(kp)
        for m in range(-1, 9):
            assert st.h0_at(m) == h0(kp, m)


def test_presentation_validation(gf3):
    with pytest.raises(DegreeMismatch):
        KernelPresentation.make([(Form.make(gf3, 1, [1, 0]), 2)])
    with pytest.raises(AllZero):
        KernelPresentation.make([(Form.zero(gf3, 1), 1), (Form.zero(gf3, 2), 2)])
    with pytest.raises(CommonZero):
        _kp(gf3, [((0, 1, 0), 2), ((0, 0, 1), 2)])


def test_generator_fixtures(gf3):
    koszul = _kp(gf3, [((1, 0), 1), ((0, 1), 1)])
    gens = module_generators(koszul)
    assert len(gens) == 1 and gens[0].degree == 2
    assert [f.to_json() for f in gens[0].components] == [[0, 1], [2, 0]]

    rnc2 = _kp(gf3, [((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2)])
    gens = module_generators(rnc2)
    assert [g.degree for g in gens] == [3, 3]
    assert [f.to_json() for f in gens[0].components] == [[0, 1], [2, 0], [0, 0]]
    assert [f.to_json() for f in gens[1].components] == [[0, 0], [0, 1], [2, 0]]


def test_line_generator_degrees(line44):
    gens = module_generators(frob_presentation(line44))
    assert sorted(g.degree for g in gens) == [3, 3, 3, 6]


def test_generator_splitting_duality(gf3, line44):
    cases = [
        _kp(gf3, [((1, 0), 1), ((0, 1), 1)]),
        _rnc_row(gf3, 4),
        _kp(gf3, [((1, 0, 0, 0), 3), ((0, 0, 0, 1), 3), (None, 3)]),
        frob_presentation(line44),
        omega_presentation(line44),
    ]
    for kp in cases:
        degrees = sorted(-g.degree for g in module_generators(kp))
        assert degrees == sorted(splitting_type(kp).summands)


def test_coordinates_fixtures(gf3):
    koszul = _kp(gf3, [((1, 0), 1), ((0, 1), 1)])
    gens = module_generators(koszul)
    st_form = Form.make(gf3, 2, [0, 1, 0])
    s_sq = Form.make(gf3, 2, [1, 0, 0])
    t_sq = Form.make(gf3, 2, [0, 0, 1])
    coords = coordinates_in_basis(koszul, gens, [st_form, -s_sq])
    assert [c.to_json() for c in coords] == [[1, 0]]
    coords = coordinates_in_basis(koszul, gens, [t_sq, -st_form])
    assert [c.to_json() for c in coords] == [[0, 1]]
    with pytest.raises(NotInModule):
        coordinates_in_basis(koszul, gens, [s_sq, Form.zero(gf3, 2)])


def test_coordinates_recombine(line44):
    kp = frob_presentation(line44)
    gens = module_generators(kp)
    section = [f.frob_power(0) for f in line44.forms]
    # the curve row itself is a section of twist d*e
    coords = coordinates_in_basis(kp, gens, list(line44.forms))
    rebuilt = []
    for j in range(len(kp.entries)):
        acc = Form.zero(line44.ctx, line44.e)
        for c, g in zip(coords, gens):
            if not c.is_zero and not g.components[j].is_zero:
                acc = acc + c * g.components[j]
        rebuilt.append(acc)
    for got, want in zip(rebuilt, section):
        assert got.is_zero == want.is_zero
        if not got.is_zero:
            assert got.coeffs == want.coeffs


def test_omega_fixtures(params44, line44):
    assert splitting_omega_p(line44).summands == (-1, -1, -1, -2)
    assert splitting_t_p(line44).summands == (2, 1, 1, 1)
    for n in (3, 4):
        params = FermatParams.make(3, 1, n)
        rnc = validate(
            params,
            n,
            [Form.monomial(params.ctx, n, j) for j in range(n + 1)],
            on_hypersurface=False,
        )
        assert splitting_omega_p(rnc).summands == (-n - 1,) * n
    assert splitting_omega_p(line44).degree == -(params44.N + 1) * line44.e


def test_f_and_tx_fixtures(params44, line44):
    assert splitting_f(line44).summands == (1, 1, 1, -2)
    assert splitting_tx(line44).summands == (2, 1, -2)
    double = compose_cover(line44, *power_pair(params44.ctx, 2))
    assert splitting_tx(double).summands == (4, 2, -4)
    d = params44.d
    assert splitting_f(line44).degree == line44.e * (params44.N + 1 - d)
    assert splitting_tx(line44).rank == params44.N - 1


def test_h0_tx_direct_fixtures(params44, line44):
    assert h0_tx_direct(line44, 0) == 5
    assert h0_tx_direct(line44, -1) == 3
    with pytest.raises(TwistOutOfRange):
        h0_tx_direct(line44, -2)
    N, d, e = params44.N, params44.d, line44.e
    for m in (6, 9):
        assert h0_tx_direct(line44, m) == e * (N + 1 - d) + (N - 1) * (m + 1)


def test_tier_agreement_on_corpus(corpus):
    for name, curve in corpus:
        st = splitting_tx(curve)
        for m in range(-1, 6):
            assert h0_tx_direct(curve, m) == st.h0_at(m), name


def test_freeness_shortcut_via_dual_presentation(line44, params44):
    data = tx_pipeline(line44)
    de = params44.d * line44.e
    entries = [
        (c, de - g.degree) for c, g in zip(data.coordinates, data.generators)
    ]
    dual = KernelPresentation.make(entries)
    st = data.splitting_tx
    assert (h0(dual, 0) == 0) == (st.min_summand >= 1)
    assert (h0(dual, -1) == 0) == (st.min_summand >= 0)


def test_off_hypersurface_pipeline_is_rejected(params44):
    ctx = params44.ctx
    curve = validate(
        params44,
        1,
        [
            Form.monomial(ctx, 1, 0),
            Form.monomial(ctx, 1, 1),
            Form.zero(ctx, 1),
            Form.zero(ctx, 1),
            Form.zero(ctx, 1),
        ],
        on_hypersurface=False,
    )
    with pytest.raises(NotOnHypersurface):
        splitting_tx(curve)
    # the ambient restriction is still well defined
    assert splitting_omega_p(curve).rank == params44.N


# (p, r, n): d = p^r + 1 over the coefficient field GF(p^n)
_PULLBACK_FIELDS = {
    "GF(9)": (3, 1, 2),
    "GF(4)": (2, 2, 2),
    "GF(16)": (2, 2, 4),
    "GF(25)": (5, 1, 2),
}
_FIELDS = {**_PULLBACK_FIELDS, "GF(729)": (3, 1, 6)}


@functools.lru_cache(maxsize=None)
def _pullback_params(field, N):
    p, r, n = _FIELDS[field]
    return FermatParams.make(p, r, N, ctx=FieldCtx(p, n))


def _seeded_curve(params, e, on_x, seed):
    """A seeded cover of the standard line, or a seeded tuple off X."""
    ctx = params.ctx
    if on_x:
        root = roots_of_minus_one(ctx, params.d)[0]
        line = make_line(params, root, root)
        return random_cover_family(SearchConfig(params, e, seed), line, 1)[0]
    rng = SplitMix64(seed)
    while True:
        forms = [
            Form.make(ctx, e, [rng.below(ctx.q) for _ in range(e + 1)])
            for _ in range(params.N + 1)
        ]
        try:
            curve = validate(params, e, forms, on_hypersurface=False)
        except DomainError:
            continue
        if not curve.on_x:
            return curve


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    field=st.sampled_from(sorted(_PULLBACK_FIELDS)),
    N=st.integers(3, 5),
    e=st.integers(1, 3),
    on_x=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
)
def test_frobenius_pullback_identity(field, N, e, on_x, seed):
    params = _pullback_params(field, N)
    curve = _seeded_curve(params, e, on_x, seed)
    kp = frob_presentation(curve)
    # the direct scan of the Frobenius presentation is the oracle
    direct = splitting_type(kp).shifted(params.d * e)
    assert splitting_f(curve) == direct
    lifted = frobenius_lift(module_generators(omega_presentation(curve)), params.r)
    assert sorted(g.degree for g in lifted) == sorted(
        g.degree for g in module_generators(kp)
    )
    for gen in lifted:
        acc = Form.zero(curve.ctx, gen.degree)
        for (g, _), c in zip(kp.entries, gen.components):
            if not g.is_zero and not c.is_zero:
                acc = acc + g * c
        assert acc.is_zero


def test_pipeline_generators_are_lifted(line44):
    data = tx_pipeline(line44)
    omega_gens = module_generators(omega_presentation(line44))
    assert list(data.generators) == frobenius_lift(omega_gens, line44.params.r)
    assert data.splitting_omega == splitting_omega_p(line44)


def test_wrong_derived_f_fails_the_direct_count(line44, monkeypatch):
    true_pullback = splitbundle.frobenius_pullback

    def off_by_one(omega, pr, de):
        st = true_pullback(omega, pr, de)
        return SplittingType.of((st.summands[0] + 1,) + st.summands[1:])

    monkeypatch.setattr(splitbundle, "frobenius_pullback", off_by_one)
    with pytest.raises(CertificateFailure, match=r"f\*F splitting disagrees"):
        tx_pipeline(line44)


def _random_presentation(ctx, seed):
    """One to five entries of mixed degrees, a quarter of them zero with a
    twist in [-3, 6]; sparse coefficients, redrawn until coprime."""
    rng = SplitMix64(seed)
    while True:
        entries = []
        for _ in range(1 + rng.below(5)):
            if rng.below(4) == 0:
                d = rng.below(10) - 3
                entries.append((Form.zero(ctx, d), d))
            else:
                d = rng.below(6)
                coeffs = [rng.below(ctx.q) if rng.below(3) else 0 for _ in range(d + 1)]
                entries.append((Form.make(ctx, d, coeffs), d))
        try:
            return KernelPresentation.make(entries)
        except DomainError:
            continue


def _apply(kp, components):
    """sum g_i * h_i, the image of a section under the presentation."""
    acc = Form.zero(kp.ctx, 0)
    for (g, _), h in zip(kp.entries, components):
        if not g.is_zero and not h.is_zero:
            acc = acc + g * h
    return acc


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    field=st.sampled_from(sorted(_FIELDS)),
    source=st.sampled_from(["random", "omega", "frobenius"]),
    on_x=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
)
def test_graded_echelon_against_h0(field, source, on_x, seed):
    if source == "random":
        kp = _random_presentation(_pullback_params(field, 3).ctx, seed)
    else:
        curve = _seeded_curve(_pullback_params(field, 3 + seed % 2), 1 + seed % 3, on_x, seed)
        kp = (omega_presentation if source == "omega" else frob_presentation)(curve)
    split = splitting_type(kp)
    gens = module_generators(kp)
    # rank-many kernel elements whose twists are the negated splitting
    assert len(gens) == kp.rank
    assert sorted(-g.degree for g in gens) == sorted(split.summands)
    for gen in gens:
        for c, (_, d) in zip(gen.components, kp.entries):
            assert c.deg == gen.degree - d
        assert _apply(kp, gen.components).is_zero
    # the graded Hilbert function is h0 at every twist up to the top
    m_lo = min(d for _, d in kp.entries) - 2
    top = max([g.degree for g in gens] + [m_lo + 1]) + 1
    ge = GradedEchelon(kp, top)
    for m in range(m_lo, top + 1):
        assert ge.h0(m) == h0(kp, m) == split.h0_at(m), m
    with pytest.raises(TwistOutOfRange):
        ge.h0(top + 1)
    assert ge.generators() == gens
    # the generators span: a Koszul syzygy of two live entries is a combination
    live = [i for i, (g, _) in enumerate(kp.entries) if not g.is_zero]
    if len(live) >= 2:
        a, b = live[:2]
        (ga, da), (gb, db) = kp.entries[a], kp.entries[b]
        section = [Form.zero(kp.ctx, da + db - d) for _, d in kp.entries]
        section[a], section[b] = gb, -ga
        coords = coordinates_in_basis(kp, gens, section)
        for j in range(len(kp.entries)):
            acc = Form.zero(kp.ctx, da + db - kp.entries[j][1])
            for c, gen in zip(coords, gens):
                if not c.is_zero and not gen.components[j].is_zero:
                    acc = acc + c * gen.components[j]
            assert acc == section[j] or (acc.is_zero and section[j].is_zero)


def test_short_echelon_is_doubled(line44, monkeypatch):
    kp = frob_presentation(line44)
    want = (splitting_type(kp), [g.degree for g in module_generators(kp)])
    _, m_hi = splitbundle._scan_bounds(kp)
    tops = [ge.top for ge in splitbundle._echelons(kp)]
    assert tops[0] == 2 * 3 and tops[-1] == m_hi
    assert all(b == min(2 * a, m_hi) for a, b in zip(tops, tops[1:]))
    # an echelon too short for any generator makes both scans take the next
    real = GradedEchelon
    asked = []

    def short_first(kp, top):
        asked.append(top)
        return real(kp, 2 if len(asked) in (1, 3) else top)

    monkeypatch.setattr(splitbundle, "GradedEchelon", short_first)
    assert (splitting_type(kp), [g.degree for g in module_generators(kp)]) == want
    assert asked == tops[:2] * 2
