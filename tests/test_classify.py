"""Verdicts and models: degree windows, the balanced prediction, tangent
dimension reports, and the coefficient vanishing probe."""

import functools
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fermatrc import splitbundle
from fermatrc.classify import (
    balanced_model,
    chi_tx,
    classify,
    coefficient_vanishing_probe,
    forbidden_windows,
    prime_power,
    tangent_report,
)
from fermatrc.errors import UsageError
from fermatrc.fermat import (
    FermatParams,
    compose_cover,
    lift,
    make_line,
    roots_of_minus_one,
    validate,
)
from fermatrc.ff import FieldCtx
from fermatrc.forms import Form
from fermatrc.search import SearchConfig, alternating_solve, random_cover_family


def test_prime_power():
    assert prime_power(3) == (3, 1)
    assert prime_power(4) == (2, 2)
    assert prime_power(9) == (3, 2)
    assert prime_power(5) == (5, 1)
    for bad in (1, 6, 12):
        with pytest.raises(UsageError):
            prime_power(bad)


def _trial_division(m):
    p = next((p for p in range(2, int(m**0.5) + 1) if m % p == 0), m)
    r = 0
    while m % p == 0:
        m //= p
        r += 1
    return (p, r) if m == 1 else None


def test_prime_power_agrees_with_trial_division():
    for m in range(2, 10**4 + 1):
        try:
            got = prime_power(m)
        except UsageError:
            got = None
        assert got == _trial_division(m), m


@pytest.mark.parametrize(
    "m, want",
    [
        (10**18 + 3, (10**18 + 3, 1)),
        (2**61 - 1, (2**61 - 1, 1)),
        (3**39, (3, 39)),
        (2**62, (2, 62)),
        ((10**18 + 3) ** 2, (10**18 + 3, 2)),
        ((10**18 + 3) * (2**61 - 1), None),
    ],
)
def test_prime_power_answers_large_inputs_fast(m, want):
    t0 = time.perf_counter()
    if want is None:
        with pytest.raises(UsageError):
            prime_power(m)
    else:
        assert prime_power(m) == want
    assert time.perf_counter() - t0 < 1


def test_windows_pr4():
    wm = forbidden_windows(4)
    assert wm.N == 5
    assert wm.windows == ((0, 4), (5, 8), (10, 12))
    assert wm.n0_bound == 12
    assert wm.allowed_degrees(15) == [5, 9, 10, 13, 14, 15]
    assert wm.contains(4) and wm.contains(11)
    assert not wm.contains(9) and not wm.contains(13)


def test_windows_pr3():
    wm = forbidden_windows(3)
    assert wm.windows == ((0, 3), (4, 6))
    assert wm.n0_bound == 6
    assert wm.allowed_degrees(8) == [4, 7, 8]


@pytest.mark.parametrize("pr", [3, 4, 5, 7, 8, 9, 16, 27])
def test_window_lookup_matches_the_definition(pr):
    wm = forbidden_windows(pr)
    for e in range(-2, wm.n0_bound + 2 * wm.N):
        assert wm.contains(e) == any(lo < e <= hi for lo, hi in wm.windows), e


def test_windows_reject_bad_pr():
    with pytest.raises(UsageError):
        forbidden_windows(2)
    with pytest.raises(UsageError):
        forbidden_windows(6)


def test_balanced_model_fixtures():
    bp = balanced_model(9, 5, 4)
    assert (bp.a, bp.l, bp.lprime, bp.b1, bp.b2) == (10, 1, 4, 5, 1)
    assert bp.prediction.summands == (5, 1, 1, 1, 1)

    bp = balanced_model(8, 5, 4)
    assert bp.b2 == 0 and bp.lprime == 3
    assert bp.prediction.min_summand == 0

    bp = balanced_model(10, 5, 4)
    assert bp.lprime == 0
    assert bp.prediction.summands == (2, 2, 2, 2, 2)

    with pytest.raises(UsageError):
        balanced_model(0, 5, 4)
    with pytest.raises(UsageError):
        balanced_model(3, 2, 4)


def test_balanced_model_bookkeeping():
    # rank N and total degree e * (N + 1 - d) for a spread of inputs
    for pr in (3, 4, 5):
        d = pr + 1
        for N in (3, 4, 5, 6):
            for e in range(1, 12):
                bp = balanced_model(e, N, pr)
                assert bp.l + bp.lprime == N
                assert bp.prediction.rank == N
                assert bp.prediction.degree == e * (N + 1 - d)


def test_classify_line44(line44):
    rep = classify(line44)
    assert rep.splitting_TX.summands == (2, 1, -2)
    assert rep.splitting_F.summands == (1, 1, 1, -2)
    assert rep.splitting_omega_P.summands == (-1, -1, -1, -2)
    assert not rep.free and not rep.very_free
    assert rep.h0_TX == 5 and rep.h1_TX == 1 and rep.chi == 4
    assert rep.in_forbidden_window is True
    data = rep.to_json()
    assert data["splitting_TX"]["bundle"] == "TX"
    assert data["in_forbidden_window"] is True


def test_classify_line55(line55):
    rep = classify(line55)
    assert rep.splitting_TX.summands == (2, 1, 1, -3)
    assert rep.h0_TX == 7 and rep.h1_TX == 2 and rep.chi == 5
    assert rep.in_forbidden_window is True


def test_classify_scans_only_the_omega_presentation(line44, monkeypatch):
    scanned = []
    scan = splitbundle.module_generators

    def counting(kp):
        scanned.append(kp)
        return scan(kp)

    monkeypatch.setattr(splitbundle, "module_generators", counting)
    classify(line44)
    assert scanned == [splitbundle.omega_presentation(line44)]


def test_classify_off_diagonal_omits_window_flag(line44):
    rep = classify(lift(line44))
    assert rep.in_forbidden_window is None
    assert "in_forbidden_window" not in rep.to_json()


def test_chi_matches_report(corpus):
    for name, curve in corpus:
        rep = classify(curve)
        params = curve.params
        assert rep.chi == chi_tx(params, curve.e), name
        assert rep.chi == curve.e * (params.N + 1 - params.d) + params.N - 1
        assert rep.h0_TX - rep.h1_TX == rep.chi
        assert rep.free == (rep.splitting_TX.min_summand >= 0)
        assert rep.very_free == (rep.splitting_TX.min_summand >= 1)


def test_tangent_report_line(line44):
    rep = tangent_report(line44)
    assert rep.h0_TX == 5
    assert rep.cone_dim == 6
    assert rep.expected == 4
    assert rep.jump is True


def test_tangent_requires_diagonal(line44):
    with pytest.raises(UsageError):
        tangent_report(lift(line44))


def test_low_degree_curves_always_jump(corpus):
    # degrees below p^r - 1 force excess tangent dimensions
    for name, curve in corpus:
        params = curve.params
        if params.N != params.d or curve.e >= params.pr - 1:
            continue
        assert tangent_report(curve).jump, name


def test_probe_vanishing_below_threshold(params44):
    rep = coefficient_vanishing_probe(params44, 1, trials=100, seed=0)
    assert rep.all_vanish and rep.counterexample is None
    assert rep.exponents == (2,)
    p55 = FermatParams.make(2, 2, 5)
    for e in (1, 2):
        assert coefficient_vanishing_probe(p55, e, trials=100, seed=0).all_vanish


def test_probe_finds_counterexample_at_threshold(params44):
    rep = coefficient_vanishing_probe(params44, 3, trials=100, seed=0)
    assert not rep.all_vanish
    assert rep.trials == 1
    assert rep.exponents == (2, 5, 8)
    assert rep.counterexample is not None
    assert rep.counterexample["coefficient"] != 0


def test_probe_is_deterministic(params44):
    a = coefficient_vanishing_probe(params44, 3, trials=20, seed=123)
    b = coefficient_vanishing_probe(params44, 3, trials=20, seed=123)
    assert a.to_json() == b.to_json()


def _embed(curve, ctx):
    """The same curve over an extension field: the generator of the small
    field goes to a root of its modulus in ctx (digits below p are the
    prime field in both encodings)."""
    small = curve.ctx

    def value(coeffs, z):
        acc = 0
        for c in reversed(coeffs):
            acc = ctx.add(ctx.mul(acc, z), c)
        return acc

    z = next(z for z in ctx.elements() if value(small.modulus, z) == 0)
    image = [value(small.decode(a), z) for a in range(small.q)]
    params = FermatParams.make(curve.params.p, curve.params.r, curve.params.N, ctx=ctx)
    forms = [Form.make(ctx, f.deg, [image[c] for c in f.coeffs]) if not f.is_zero
             else Form.zero(ctx, f.deg) for f in curve.forms]
    return validate(params, curve.e, forms)


@functools.lru_cache(maxsize=None)
def _reparam_curves(field):
    """A line, a solver hit and a cover of the line on X44 (GF(9), GF(729))
    or X55 (GF(16)).  The solver misses over GF(729), so its hit there is
    the GF(9) hit, embedded."""
    if field == "GF(16)":
        params = FermatParams.make(2, 2, 5)
        hit = alternating_solve(SearchConfig(params, 1, seed=0, max_iter=200))
    else:
        params = FermatParams.make(3, 1, 4)
        hit = alternating_solve(SearchConfig(params, 2, seed=1, max_iter=500))
        if field == "GF(729)":
            params = FermatParams.make(3, 1, 4, ctx=FieldCtx(3, 6))
            hit = _embed(hit, params.ctx)
    root = roots_of_minus_one(params.ctx, params.d)[0]
    line = make_line(params, root, root)
    cover = random_cover_family(SearchConfig(params, 2, seed=7), line, 1)[0]
    return {"line": line, "solver": hit, "cover": cover}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    field=st.sampled_from(["GF(9)", "GF(16)", "GF(729)"]),
    kind=st.sampled_from(["line", "solver", "cover"]),
    matrix=st.lists(st.integers(0, 728), min_size=4, max_size=4),
)
def test_classify_is_invariant_under_reparametrization(field, kind, matrix):
    curve = _reparam_curves(field)[kind]
    ctx = curve.ctx
    a, b, c, d = (x % ctx.q for x in matrix)
    assume(ctx.sub(ctx.mul(a, d), ctx.mul(b, c)) != 0)
    moved = compose_cover(curve, Form.make(ctx, 1, [a, b]), Form.make(ctx, 1, [c, d]))
    assert moved.e == curve.e
    assert classify(moved).to_json() == classify(curve).to_json()
